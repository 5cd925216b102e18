//! The system simulator: cores + channels + a scheduling policy, driven
//! by a deterministic event queue.

use crate::event::{Event, EventQueue};
use std::collections::VecDeque;
use tcm_chaos::{FaultKind, FaultPlan, FaultSpec};
use tcm_cpu::{Core, CoreStatus};
use tcm_dram::Channel;
use tcm_sched::{ChaosScheduler, PickContext, Scheduler, SystemView};
use tcm_telemetry::{labeled, Histogram, Telemetry, TraceEvent};
use tcm_types::{
    BankId, CancelToken, ChannelId, Cycle, Invariant, InvariantViolation, MemAddress, Request,
    RequestId, SimError, StallReport, SystemConfig, ThreadId,
};
use tcm_workload::{MachineShape, TraceGenerator, WorkloadSpec};

/// Default forward-progress watchdog limit: if memory requests are
/// outstanding but none retires for this many cycles, the run is
/// declared [`SimError::Stalled`].
///
/// Generously above any legitimate retirement gap: even a single fully
/// backed-up controller (128-entry buffer, 400-cycle conflicts) drains a
/// request every ≲ 52 k cycles.
pub const DEFAULT_STALL_LIMIT: Cycle = 1_000_000;

/// How many events the loop processes between cooperative-cancellation
/// checks (see [`System::set_cancel_token`]). Checking involves a
/// wall-clock read, so it is strided; the first event always checks.
pub const CANCEL_CHECK_STRIDE: u64 = 4096;

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Cycles simulated.
    pub cycles: Cycle,
    /// Instructions retired per thread.
    pub retired: Vec<u64>,
    /// IPC per thread.
    pub ipc: Vec<f64>,
    /// Misses injected per thread.
    pub misses: Vec<u64>,
    /// Bank-busy service cycles attained per thread (all channels).
    pub service: Vec<u64>,
    /// Requests serviced in total.
    pub total_serviced: u64,
    /// Row-buffer hit rate over all serviced requests.
    pub row_hit_rate: f64,
    /// Number of requests that had to wait for controller-buffer space
    /// before admission (diagnostic; rare at realistic intensities).
    pub spilled: u64,
    /// Deepest any controller's request buffer got during the run
    /// (benchmark/report metric; deterministic like everything else).
    pub peak_queue: usize,
}

/// One simulated CMP + memory system executing one workload under one
/// scheduling policy.
///
/// Drive it with [`System::run`]; everything else is plumbing fed by the
/// event queue. Identical inputs (workload, seed base, config, policy)
/// produce bit-identical results.
///
/// # Example
///
/// ```
/// use tcm_sched::FrFcfs;
/// use tcm_sim::System;
/// use tcm_types::SystemConfig;
/// use tcm_workload::random_workload;
///
/// let cfg = SystemConfig::builder().num_threads(4).build()?;
/// let workload = random_workload(0, 4, 0.5);
/// let mut sys = System::new(&cfg, &workload, Box::new(FrFcfs::new()), 1);
/// let result = sys.run(50_000);
/// assert_eq!(result.ipc.len(), 4);
/// # Ok::<(), tcm_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct System {
    cfg: SystemConfig,
    channels: Vec<Channel>,
    cores: Vec<Core>,
    generators: Vec<Option<TraceGenerator>>,
    /// Addresses of each core's pending (not yet injected) burst.
    pending_accesses: Vec<Vec<MemAddress>>,
    scheduler: Box<dyn Scheduler>,
    events: EventQueue,
    now: Cycle,
    next_request_id: u64,
    /// Epoch per core for stale-event elimination.
    core_epoch: Vec<u64>,
    /// Requests that found their controller's buffer full, waiting to be
    /// admitted (hardware would backpressure; semantics preserved:
    /// arrival order per channel).
    spill: Vec<VecDeque<Request>>,
    spilled: u64,
    sched_tick_pending: bool,
    /// Misses injected into the memory system (watchdog bookkeeping).
    injected: u64,
    /// Misses whose data returned to a core.
    completed: u64,
    /// Cycle at which the most recent request retired.
    last_retire: Cycle,
    /// Events processed since the most recent retirement.
    events_since_retire: u64,
    /// Events processed at the current cycle (livelock guard).
    events_at_now: u64,
    /// Ceiling on `events_at_now`; exceeding it means the event loop is
    /// spinning without advancing time.
    livelock_limit: u64,
    /// Watchdog: declare the run stalled when requests are outstanding
    /// but none retires for this many cycles. `None` disables.
    stall_limit: Option<Cycle>,
    /// Hard cap on any spill queue. The MSHR caps bound total outstanding
    /// misses at `num_threads * mshrs_per_core`, so a spill queue deeper
    /// than that proves requests are leaking somewhere.
    spill_bound: usize,
    /// Typed error raised deep in the call graph (e.g. during `admit`),
    /// surfaced by the event loop at the next opportunity.
    pending_error: Option<SimError>,
    /// Cooperative cancellation: checked every [`CANCEL_CHECK_STRIDE`]
    /// events; `None` means the run cannot be cancelled.
    cancel: Option<CancelToken>,
    /// Events until the next cancellation check (strided probe: checks
    /// at the same event indices the old `events_processed % STRIDE`
    /// test did — the first event always checks).
    cancel_countdown: u64,
    /// Armed spill-flood fault: at its cycle, phantom requests are
    /// admitted until the spill queue outgrows its resource bound.
    chaos_flood: Option<FaultSpec>,
    /// Cycle the armed flood fires (`Cycle::MAX` when none is armed), so
    /// the per-event probe is one compare instead of an `Option` walk.
    chaos_flood_at: Cycle,
    /// Next cycle boundary at which the stall watchdog must be
    /// re-evaluated: `last_retire + stall_limit` (the earliest cycle the
    /// stalled condition can possibly hold), `Cycle::MAX` when the
    /// watchdog is disabled. The per-event probe is one compare; the
    /// full check runs only past the boundary — with semantics identical
    /// to evaluating it every event.
    stall_probe_at: Cycle,
    /// Whether any channel has the protocol checker armed (mirror of
    /// `verification_enabled()`, so the per-event fault poll skips the
    /// per-channel walk when nothing can ever be reported).
    verify_armed: bool,
    /// Scratch: schedulable banks of the channel currently being worked
    /// (reused across `schedule_idle_banks` calls, never allocated per
    /// decision).
    scratch_banks: Vec<BankId>,
    /// Scratch: request ids of the burst currently being injected.
    scratch_ids: Vec<RequestId>,
    /// Scratch: per-channel "this burst touched it" flags (reused, reset
    /// after each injection).
    touched_channels: Vec<bool>,
    /// Scratch: per-thread counter views for `SchedTick` (reused across
    /// ticks; the old code allocated three fresh `Vec`s per tick).
    scratch_retired: Vec<u64>,
    scratch_misses: Vec<u64>,
    scratch_service: Vec<u64>,
    /// Structured-event/metric sink, shared with every channel and the
    /// policy. Disabled by default; see [`System::set_telemetry`].
    telemetry: Telemetry,
    /// Next cycle at which the time-series sampler fires (`Cycle::MAX`
    /// when telemetry is disabled — the per-event check is one compare).
    next_sample: Cycle,
}

impl System {
    /// Builds a system running `workload` under `scheduler`.
    ///
    /// `seed_base` decorrelates multiple instances of the same benchmark
    /// within a workload (thread `i` uses seed
    /// `seed_base · 1000 + i` mixed with its profile).
    ///
    /// # Panics
    ///
    /// Panics if the workload's thread count differs from
    /// `cfg.num_threads` or the config fails validation.
    pub fn new(
        cfg: &SystemConfig,
        workload: &WorkloadSpec,
        scheduler: Box<dyn Scheduler>,
        seed_base: u64,
    ) -> Self {
        cfg.validate().expect("invalid system config");
        assert_eq!(
            workload.threads.len(),
            cfg.num_threads,
            "workload must have one profile per hardware thread"
        );
        let shape = MachineShape::from(cfg);
        let cores = (0..cfg.num_threads)
            .map(|i| {
                Core::new(
                    ThreadId::new(i),
                    cfg.issue_width,
                    cfg.window_size,
                    cfg.mshrs_per_core,
                )
            })
            .collect();
        let generators = workload
            .threads
            .iter()
            .enumerate()
            .map(|(i, profile)| {
                if TraceGenerator::is_compute_only(profile) {
                    None
                } else {
                    Some(TraceGenerator::new(
                        profile,
                        shape,
                        seed_base.wrapping_mul(1000).wrapping_add(i as u64),
                    ))
                }
            })
            .collect();
        let channels = (0..cfg.num_channels())
            .map(|c| {
                Channel::with_threads(
                    ChannelId::new(c),
                    cfg.banks_per_channel,
                    cfg.request_buffer,
                    cfg.num_threads,
                )
            })
            .collect();
        let mut sys = Self {
            cfg: cfg.clone(),
            channels,
            cores,
            generators,
            pending_accesses: vec![Vec::new(); cfg.num_threads],
            scheduler,
            events: EventQueue::new(),
            now: 0,
            next_request_id: 0,
            core_epoch: vec![0; cfg.num_threads],
            spill: (0..cfg.num_channels()).map(|_| VecDeque::new()).collect(),
            spilled: 0,
            sched_tick_pending: false,
            injected: 0,
            completed: 0,
            last_retire: 0,
            events_since_retire: 0,
            events_at_now: 0,
            // Per cycle the loop legitimately processes at most one event
            // per thread, a couple per bank, and one scheduler tick; 1024x
            // that is unreachable without a same-cycle spin.
            livelock_limit: 1024 * (cfg.num_threads + cfg.total_banks() + 4) as u64,
            stall_limit: Some(DEFAULT_STALL_LIMIT),
            spill_bound: cfg.num_threads * cfg.mshrs_per_core,
            pending_error: None,
            cancel: None,
            cancel_countdown: 0,
            chaos_flood: None,
            chaos_flood_at: Cycle::MAX,
            stall_probe_at: DEFAULT_STALL_LIMIT,
            verify_armed: false,
            scratch_banks: Vec::with_capacity(cfg.banks_per_channel),
            scratch_ids: Vec::new(),
            touched_channels: vec![false; cfg.num_channels()],
            scratch_retired: Vec::new(),
            scratch_misses: Vec::new(),
            scratch_service: Vec::new(),
            telemetry: Telemetry::disabled(),
            next_sample: Cycle::MAX,
        };
        if std::env::var_os("TCM_VERIFY").is_some_and(|v| v != "0") {
            sys.enable_verification();
        }
        // Channels arm the checker on their own in debug builds; keep the
        // fault-poll gate in sync with whatever they decided.
        sys.verify_armed = sys.verification_enabled();
        sys.bootstrap();
        sys
    }

    /// Turns on the DRAM protocol invariant checker on every channel
    /// (observation-only; results are bit-identical with it on or off).
    ///
    /// Debug builds enable it automatically; release builds can opt in
    /// here, via `RunConfig`, or with the `TCM_VERIFY` environment
    /// variable.
    pub fn enable_verification(&mut self) {
        for ch in &mut self.channels {
            ch.enable_verification();
        }
        self.verify_armed = true;
    }

    /// Enables or disables protocol verification on every channel.
    pub fn set_verification(&mut self, enabled: bool) {
        for ch in &mut self.channels {
            if enabled {
                ch.enable_verification();
            } else {
                ch.disable_verification();
            }
        }
        self.verify_armed = enabled;
    }

    /// Whether protocol verification is active on any channel.
    pub fn verification_enabled(&self) -> bool {
        self.channels.iter().any(Channel::verification_enabled)
    }

    /// Sets the forward-progress watchdog limit (cycles without a
    /// retirement while requests are outstanding). `None` disables the
    /// watchdog, including the same-cycle livelock guard.
    pub fn set_watchdog(&mut self, stall_limit: Option<Cycle>) {
        self.stall_limit = stall_limit;
        self.stall_probe_at = match stall_limit {
            Some(limit) => self.last_retire.saturating_add(limit),
            None => Cycle::MAX,
        };
    }

    /// Installs a cooperative cancellation token. The event loop polls it
    /// every [`CANCEL_CHECK_STRIDE`] events and surfaces
    /// [`SimError::Cancelled`] once it fires; `None` (the default) makes
    /// the run uncancellable.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Shares a telemetry handle with every channel and the policy, and
    /// arms the time-series sampler. Telemetry is observation-only:
    /// results are bit-identical with it attached or not.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        for ch in &mut self.channels {
            ch.set_telemetry(telemetry);
        }
        self.scheduler.attach_telemetry(telemetry);
        self.next_sample = telemetry.sample_interval().unwrap_or(Cycle::MAX);
    }

    /// Installs a fault-injection plan (see the `tcm-chaos` crate).
    ///
    /// Routes each fault to its execution site: channel faults to their
    /// target [`Channel`], monitor faults to the policy, the spill flood
    /// to the admission path, and — when a scheduler-spin fault is armed —
    /// wraps the policy in a [`ChaosScheduler`].
    ///
    /// Also enables protocol verification on every channel: injecting
    /// faults without the detectors armed would be undetectable by
    /// design. Installing an *empty* plan still installs the (inert)
    /// chaos state everywhere, so tests can prove the zero-fault plan is
    /// bit-identical to no plan at all.
    pub fn install_chaos(&mut self, plan: &FaultPlan) {
        self.enable_verification();
        for c in 0..self.channels.len() {
            self.channels[c].set_chaos(Some(plan.channel_chaos(c)));
        }
        for fault in plan.monitor_faults() {
            self.scheduler.inject_monitor_fault(&fault);
        }
        self.chaos_flood = plan.flood();
        self.chaos_flood_at = self.chaos_flood.map_or(Cycle::MAX, |f| f.at);
        if let Some(spin_at) = plan.spin_at() {
            // Placeholder swap: Box<dyn Scheduler> has no cheap default,
            // and the wrapper needs ownership of the inner policy.
            let inner = std::mem::replace(
                &mut self.scheduler,
                Box::new(tcm_sched::Fcfs::new()),
            );
            self.scheduler = Box::new(ChaosScheduler::new(inner, spin_at));
            // Policies without timers never got a tick scheduled at
            // bootstrap; the wrapper needs one for the spin to engage.
            self.schedule_next_tick();
        }
    }

    /// Executes an armed spill-flood fault: admits phantom requests to
    /// the target channel until its buffer and spill queue both overflow,
    /// tripping the resource-bound detector in [`System::admit`].
    fn trigger_flood(&mut self, fault: FaultSpec) {
        self.telemetry.emit(|| TraceEvent::ChaosInjected {
            cycle: self.now,
            kind: FaultKind::SpillFlood,
        });
        let channel = fault.channel.min(self.cfg.num_channels() - 1);
        let addr = MemAddress::new(
            ChannelId::new(channel),
            BankId::new(0),
            tcm_types::Row::new(0),
        );
        let phantoms = self.cfg.request_buffer + self.spill_bound + 1;
        for _ in 0..phantoms {
            let id = RequestId::new(self.next_request_id);
            self.next_request_id += 1;
            let thread = ThreadId::new(fault.thread.min(self.cfg.num_threads - 1));
            self.admit(Request::new(id, thread, addr, self.now));
            if self.pending_error.is_some() {
                // The bound tripped; no need to keep flooding. The
                // phantoms already admitted stay queued — poll_faults
                // surfaces the error before any of them is serviced.
                break;
            }
        }
    }

    /// The scheduling policy's display name.
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// The policy's plausibility-guard anomaly log (empty for policies
    /// without a guard; see `Scheduler::degradation_events`).
    pub fn degradation_events(&self) -> &[tcm_telemetry::DegradationAnomaly] {
        self.scheduler.degradation_events()
    }

    /// Installs OS thread weights on the policy.
    pub fn set_thread_weights(&mut self, weights: &[f64]) {
        self.scheduler.set_thread_weights(weights);
    }

    fn bootstrap(&mut self) {
        for t in 0..self.cfg.num_threads {
            self.arm_next_burst(t);
            self.poll_core(t);
        }
        self.schedule_next_tick();
    }

    /// Pulls the next burst from thread `t`'s generator into its core,
    /// refilling the thread's pending-access buffer in place (its
    /// capacity is reused run-long; no per-burst allocation).
    fn arm_next_burst(&mut self, t: usize) {
        let Some(generator) = self.generators[t].as_mut() else {
            return;
        };
        let gap = generator.next_burst_into(&mut self.pending_accesses[t]);
        self.cores[t].schedule_burst(gap, self.pending_accesses[t].len());
    }

    /// Polls core `t` at the current cycle and (re)schedules its burst
    /// event. The only place core events are created; each call bumps the
    /// core's epoch so previously queued events become stale.
    fn poll_core(&mut self, t: usize) {
        match self.cores[t].poll(self.now) {
            CoreStatus::WillBurst { at } => {
                self.core_epoch[t] += 1;
                self.events.push(
                    at,
                    Event::CoreBurst {
                        thread: ThreadId::new(t),
                        epoch: self.core_epoch[t],
                    },
                );
            }
            CoreStatus::Blocked | CoreStatus::ComputeOnly => {}
        }
    }

    fn schedule_next_tick(&mut self) {
        if self.sched_tick_pending {
            return;
        }
        if let Some(at) = self.scheduler.next_tick(self.now) {
            self.events.push(at, Event::SchedTick);
            self.sched_tick_pending = true;
        }
    }

    /// Fills the per-thread counter view for the policy in place (the
    /// hot path reuses the scratch vectors across scheduler ticks).
    fn view_into(&self, retired: &mut Vec<u64>, misses: &mut Vec<u64>, service: &mut Vec<u64>) {
        let n = self.cfg.num_threads;
        retired.clear();
        retired.extend(self.cores.iter().map(|c| c.retired()));
        misses.clear();
        misses.extend(self.cores.iter().map(|c| c.misses_issued()));
        service.clear();
        service.resize(n, 0);
        for ch in &self.channels {
            for (t, s) in ch.stats().thread_service_all().iter().enumerate() {
                if t < n {
                    service[t] += s;
                }
            }
        }
    }

    /// Builds the per-thread counter view as owned vectors (end-of-run
    /// reporting; the event loop uses [`System::view_into`]).
    fn view_arrays(&self) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let (mut retired, mut misses, mut service) = (Vec::new(), Vec::new(), Vec::new());
        self.view_into(&mut retired, &mut misses, &mut service);
        (retired, misses, service)
    }

    /// Injects thread `t`'s pending burst into the memory system. The
    /// burst buffer and the id staging both live on `self` and are
    /// reused; the only allocation left on this path is the event-queue
    /// push.
    fn inject_burst(&mut self, t: usize) {
        let accesses = std::mem::take(&mut self.pending_accesses[t]);
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        for addr in &accesses {
            let id = RequestId::new(self.next_request_id);
            self.next_request_id += 1;
            ids.push(id);
            let request = Request::new(id, ThreadId::new(t), *addr, self.now);
            self.admit(request);
            self.touched_channels[addr.channel.index()] = true;
        }
        self.cores[t].issue_burst(&ids);
        self.injected += ids.len() as u64;
        self.scratch_ids = ids;
        // Hand the (drained) buffer back so arm_next_burst refills it in
        // place.
        self.pending_accesses[t] = accesses;
        // Newly arrived requests may wake idle banks. Scanning the flag
        // array visits channels in ascending id order — the same order
        // the old sort+dedup of touched channel ids produced.
        for c in 0..self.touched_channels.len() {
            if std::mem::take(&mut self.touched_channels[c]) {
                self.schedule_idle_banks(ChannelId::new(c));
            }
        }
        self.arm_next_burst(t);
        self.poll_core(t);
    }

    /// Admits a request into its controller's buffer, spilling if full.
    fn admit(&mut self, request: Request) {
        let c = request.addr.channel.index();
        if self.spill[c].is_empty() && self.channels[c].enqueue(request).is_ok() {
            self.scheduler.on_enqueue(&request, self.now);
            return;
        }
        self.spilled += 1;
        if self.spill[c].len() >= self.spill_bound && self.pending_error.is_none() {
            self.pending_error = Some(SimError::InvariantViolation(InvariantViolation {
                invariant: Invariant::ResourceBound,
                cycle: self.now,
                channel: request.addr.channel,
                bank: Some(request.addr.bank),
                request: Some(request.id),
                detail: format!(
                    "spill queue for channel {} grew past the MSHR-implied \
                     outstanding-miss bound ({} threads x {} MSHRs = {}); \
                     requests are not draining",
                    c, self.cfg.num_threads, self.cfg.mshrs_per_core, self.spill_bound
                ),
            }));
        }
        self.spill[c].push_back(request);
    }

    /// Drains spilled requests into the channel while room exists.
    fn drain_spill(&mut self, channel: usize) {
        while let Some(&request) = self.spill[channel].front() {
            let request = Request {
                issued_at: self.now,
                ..request
            };
            if self.channels[channel].enqueue(request).is_ok() {
                self.spill[channel].pop_front();
                self.scheduler.on_enqueue(&request, self.now);
            } else {
                break;
            }
        }
    }

    /// Runs a scheduling decision for every idle bank with pending work.
    fn schedule_idle_banks(&mut self, channel: ChannelId) {
        let c = channel.index();
        // Snapshot the decision list into the reused scratch (decide()
        // needs &mut self, so the borrow can't stay live); the old code
        // collected the same snapshot into a fresh Vec.
        let mut banks = std::mem::take(&mut self.scratch_banks);
        banks.clear();
        banks.extend(self.channels[c].schedulable_banks(self.now));
        for &bank in &banks {
            self.decide(c, bank);
        }
        self.scratch_banks = banks;
    }

    /// Consults the policy and issues one request at `(channel, bank)`.
    ///
    /// Allocation-free: the policy sees the bank's pending lane as a
    /// borrowed slice (disjoint field borrows let `self.scheduler` be
    /// consulted while the slice borrows `self.channels`).
    fn decide(&mut self, channel: usize, bank: BankId) {
        let ctx = PickContext {
            now: self.now,
            channel: ChannelId::new(channel),
            bank,
            open_row: self.channels[channel].open_row(bank),
        };
        let pending = self.channels[channel].pending_for_bank(bank);
        debug_assert!(!pending.is_empty());
        let idx = self.scheduler.pick(pending, &ctx);
        assert!(idx < pending.len(), "policy returned an invalid index");
        let outcome =
            self.channels[channel].issue_at(bank.index(), idx, self.now, &self.cfg.timing);
        let remaining = self.channels[channel].pending_for_bank(bank);
        self.scheduler.on_service(&outcome, remaining, self.now);
        self.events
            .push(outcome.completes_at, Event::Completion { request: outcome.request });
        self.events.push(
            outcome.bank_free,
            Event::BankReady {
                channel: ChannelId::new(channel),
                bank,
            },
        );
        // Freed buffer space: admit spilled requests.
        self.drain_spill(channel);
    }

    /// Processes events until `horizon`, then settles all cores at the
    /// horizon and reports the run's results.
    ///
    /// Convenience wrapper over [`System::try_run`] for callers that treat
    /// any simulator fault as fatal.
    ///
    /// # Panics
    ///
    /// Panics if the run stalls (watchdog) or trips a protocol invariant;
    /// see [`System::try_run`] for the non-panicking form.
    pub fn run(&mut self, horizon: Cycle) -> RunResult {
        match self.try_run(horizon) {
            Ok(result) => result,
            Err(err) => panic!("simulation failed: {err}"),
        }
    }

    /// Processes events until `horizon`, then settles all cores at the
    /// horizon and reports the run's results — or a typed error if the
    /// simulation cannot finish soundly.
    ///
    /// # Errors
    ///
    /// * [`SimError::Stalled`] — requests were outstanding but none
    ///   retired for [`DEFAULT_STALL_LIMIT`] cycles (tune or disable via
    ///   [`System::set_watchdog`]), the event loop spun at a frozen cycle
    ///   (e.g. a policy whose `next_tick` never advances), or the event
    ///   queue drained with requests still in flight. The report carries a
    ///   snapshot of queue depths, bank states, and per-thread outstanding
    ///   counts.
    /// * [`SimError::InvariantViolation`] — the DRAM protocol checker (if
    ///   enabled) observed an illegal command sequence, or a spill queue
    ///   outgrew the MSHR-implied bound on outstanding misses.
    ///
    /// After an error the system is left at the faulting cycle; resuming
    /// is not supported.
    pub fn try_run(&mut self, horizon: Cycle) -> Result<RunResult, SimError> {
        // The conditional pop jumps `now` straight to the next scheduled
        // event; cancel/sample/chaos/stall checks below are strided or
        // boundary probes with semantics identical to the old per-event
        // bookkeeping (see each field's invariant).
        while let Some((cycle, event)) = self.events.pop_at_or_before(horizon) {
            debug_assert!(cycle >= self.now, "event queue went backwards");
            if cycle > self.now {
                self.events_at_now = 0;
            }
            self.now = cycle;
            self.events_at_now += 1;
            self.events_since_retire += 1;
            if self.cancel_countdown == 0 {
                self.cancel_countdown = CANCEL_CHECK_STRIDE;
                if let Some(token) = &self.cancel {
                    if token.is_cancelled() {
                        return Err(SimError::Cancelled(self.now));
                    }
                }
            }
            self.cancel_countdown -= 1;
            if self.now >= self.next_sample {
                self.sample_series();
            }
            if self.now >= self.chaos_flood_at {
                self.chaos_flood_at = Cycle::MAX;
                if let Some(fault) = self.chaos_flood.take() {
                    self.trigger_flood(fault);
                }
            }
            if self.events_at_now > self.livelock_limit || self.now > self.stall_probe_at {
                self.check_watchdog()?;
            }
            match event {
                Event::CoreBurst { thread, epoch } => {
                    let t = thread.index();
                    // A stale epoch (the core was re-polled after this
                    // event was scheduled) still falls through to the
                    // fault poll below: a pending error must surface on
                    // the event that observed it, not the next one.
                    if epoch == self.core_epoch[t] {
                        match self.cores[t].poll(self.now) {
                            CoreStatus::WillBurst { at } if at <= self.now => {
                                self.inject_burst(t);
                            }
                            // Blocked (e.g. MSHR raced) or re-timed: re-poll
                            // created no event for Blocked; completions will.
                            CoreStatus::WillBurst { .. } => self.poll_core(t),
                            _ => {}
                        }
                    }
                }
                Event::BankReady { channel, bank } => {
                    self.drain_spill(channel.index());
                    let c = channel.index();
                    if self.channels[c].bank_idle_ready(bank, self.now)
                        && self.channels[c].queue().has_pending_for_bank(bank)
                    {
                        self.decide(c, bank);
                    }
                }
                Event::Completion { request } => {
                    let t = request.thread.index();
                    self.cores[t].complete(request.id);
                    self.completed += 1;
                    self.last_retire = self.now;
                    self.events_since_retire = 0;
                    self.scheduler.on_complete(&request, self.now);
                    self.poll_core(t);
                }
                Event::SchedTick => {
                    self.sched_tick_pending = false;
                    let mut retired = std::mem::take(&mut self.scratch_retired);
                    let mut misses = std::mem::take(&mut self.scratch_misses);
                    let mut service = std::mem::take(&mut self.scratch_service);
                    self.view_into(&mut retired, &mut misses, &mut service);
                    let view = SystemView {
                        retired: &retired,
                        misses: &misses,
                        service: &service,
                    };
                    self.scheduler.tick(self.now, &view);
                    self.scratch_retired = retired;
                    self.scratch_misses = misses;
                    self.scratch_service = service;
                    self.schedule_next_tick();
                }
            }
            if self.pending_error.is_some() || self.verify_armed {
                self.poll_faults()?;
            }
        }
        if self.stall_limit.is_some() && self.injected > self.completed && self.events.is_empty() {
            // Nothing left to process but requests are still in flight:
            // whatever event should have completed them was never pushed.
            return Err(SimError::Stalled(Box::new(self.stall_report())));
        }
        self.now = horizon;
        for t in 0..self.cfg.num_threads {
            self.cores[t].poll(horizon);
        }
        for ch in &mut self.channels {
            ch.finish_verification(horizon)?;
        }
        Ok(self.collect(horizon))
    }

    /// Full watchdog evaluation, run only when the per-event probe fires
    /// (`events_at_now` past the livelock ceiling, or `now` past the
    /// earliest cycle the stalled condition can hold). Re-arms the probe
    /// boundary on a clean pass.
    #[cold]
    fn check_watchdog(&mut self) -> Result<(), SimError> {
        if let Some(limit) = self.stall_limit {
            let stalled = self.injected > self.completed
                && self.now.saturating_sub(self.last_retire) > limit;
            if stalled || self.events_at_now > self.livelock_limit {
                return Err(SimError::Stalled(Box::new(self.stall_report())));
            }
            self.stall_probe_at = self.last_retire.saturating_add(limit);
        } else {
            self.stall_probe_at = Cycle::MAX;
        }
        Ok(())
    }

    /// Test hook: routes all future event pushes through the reference
    /// binary-heap path (see `EventQueue::set_reference_mode`), so
    /// equivalence tests can prove the timing wheel is bit-identical.
    #[doc(hidden)]
    pub fn set_reference_event_order(&mut self, on: bool) {
        self.events.set_reference_mode(on);
    }

    /// Surfaces any fault recorded during event processing: a pending
    /// typed error or a protocol-checker violation on some channel.
    fn poll_faults(&mut self) -> Result<(), SimError> {
        if let Some(err) = self.pending_error.take() {
            return Err(err);
        }
        for ch in &self.channels {
            if let Some(violation) = ch.violation() {
                return Err(SimError::InvariantViolation(violation.clone()));
            }
        }
        Ok(())
    }

    /// Snapshot of simulator state for a [`SimError::Stalled`] report.
    fn stall_report(&self) -> StallReport {
        StallReport {
            // A single-controller machine has no one else to blame.
            controller: None,
            now: self.now,
            last_retire: self.last_retire,
            events_since_retire: self.events_since_retire,
            outstanding: self.cores.iter().map(Core::outstanding).collect(),
            queue_depths: self.channels.iter().map(|ch| ch.queue().len()).collect(),
            spill_depths: self.spill.iter().map(VecDeque::len).collect(),
            busy_banks: self.channels.iter().map(Channel::busy_bank_count).collect(),
        }
    }

    /// Samples the periodic telemetry series (queue depth and bus
    /// utilization per channel) and re-arms the sampler past `now`.
    fn sample_series(&mut self) {
        let Some(interval) = self.telemetry.sample_interval() else {
            self.next_sample = Cycle::MAX;
            return;
        };
        let now = self.now;
        let mut at = if self.next_sample == Cycle::MAX {
            interval
        } else {
            self.next_sample
        }
        .max(interval);
        while at <= now {
            at += interval;
        }
        self.next_sample = at;
        let channels = &self.channels;
        self.telemetry.with_metrics(|m| {
            for (c, ch) in channels.iter().enumerate() {
                let idx = c.to_string();
                let label: &[(&str, &str)] = &[("channel", &idx)];
                m.push_series(
                    &labeled("queue_depth", label),
                    now,
                    ch.queue().len() as f64,
                );
                m.push_series(
                    &labeled("bus_utilization", label),
                    now,
                    ch.stats().bus_busy_cycles as f64 / now.max(1) as f64,
                );
            }
        });
    }

    /// Folds the run's final counters into the metrics registry: global
    /// and per-bank service counts, per-thread service/miss counters, the
    /// row-hit-rate gauge (bit-equal to [`RunResult::row_hit_rate`]),
    /// bus utilization, and the always-on queue-depth histograms.
    fn absorb_metrics(&self, run: &RunResult) {
        self.telemetry.with_metrics(|m| {
            m.set_counter("requests_serviced", run.total_serviced);
            m.set_counter("requests_spilled", run.spilled);
            m.set_counter("peak_queue_depth", run.peak_queue as u64);
            m.set_gauge("row_hit_rate", run.row_hit_rate);
            for (c, ch) in self.channels.iter().enumerate() {
                let stats = ch.stats();
                let cidx = c.to_string();
                let clabel: &[(&str, &str)] = &[("channel", &cidx)];
                m.set_counter(&labeled("bus_busy_cycles", clabel), stats.bus_busy_cycles);
                m.set_gauge(
                    &labeled("bus_utilization", clabel),
                    stats.bus_busy_cycles as f64 / run.cycles.max(1) as f64,
                );
                let depths = Histogram::from_log2_counts(stats.depth_histogram());
                m.merge_histogram("queue_depth", depths.clone());
                m.merge_histogram(&labeled("queue_depth", clabel), depths);
                for (b, bank) in stats.banks().iter().enumerate() {
                    let bidx = b.to_string();
                    let labels: &[(&str, &str)] = &[("channel", &cidx), ("bank", &bidx)];
                    m.set_counter(&labeled("requests_serviced", labels), bank.serviced);
                    m.set_counter(&labeled("row_hits", labels), bank.row_hits);
                    m.set_counter(&labeled("row_conflicts", labels), bank.row_conflicts);
                }
            }
            for (t, (&svc, &miss)) in run.service.iter().zip(&run.misses).enumerate() {
                let tidx = t.to_string();
                let labels: &[(&str, &str)] = &[("thread", &tidx)];
                m.set_counter(&labeled("service_cycles", labels), svc);
                m.set_counter(&labeled("misses", labels), miss);
            }
        });
    }

    fn collect(&self, horizon: Cycle) -> RunResult {
        let (retired, misses, service) = self.view_arrays();
        let ipc = retired
            .iter()
            .map(|&r| r as f64 / horizon.max(1) as f64)
            .collect();
        let total_serviced: u64 = self.channels.iter().map(|c| c.stats().total_serviced()).sum();
        let total_hits: u64 = self.channels.iter().map(|c| c.stats().total_row_hits()).sum();
        let result = RunResult {
            cycles: horizon,
            retired,
            ipc,
            misses,
            service,
            total_serviced,
            row_hit_rate: if total_serviced == 0 {
                0.0
            } else {
                total_hits as f64 / total_serviced as f64
            },
            spilled: self.spilled,
            peak_queue: self
                .channels
                .iter()
                .map(|c| c.stats().peak_queue_depth)
                .max()
                .unwrap_or(0),
        };
        if self.telemetry.is_enabled() {
            self.absorb_metrics(&result);
        }
        result
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use tcm_sched::FrFcfs;
    use tcm_workload::BenchmarkProfile;

    fn cfg(threads: usize) -> SystemConfig {
        SystemConfig::builder().num_threads(threads).build().unwrap()
    }

    fn workload_of(profiles: Vec<BenchmarkProfile>) -> WorkloadSpec {
        WorkloadSpec::new("test", profiles)
    }

    #[test]
    fn compute_only_thread_runs_at_full_ipc() {
        let c = cfg(1);
        let w = workload_of(vec![BenchmarkProfile::new("idle", 0.0, 0.5, 1.0)]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
        let r = sys.run(10_000);
        assert_eq!(r.retired[0], 30_000, "3-wide core, never stalls");
        assert_eq!(r.misses[0], 0);
        assert_eq!(r.total_serviced, 0);
    }

    #[test]
    fn memory_bound_thread_is_slower_than_ideal() {
        let c = cfg(1);
        let w = workload_of(vec![BenchmarkProfile::streaming()]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
        let r = sys.run(200_000);
        assert!(r.ipc[0] < 3.0, "memory stalls must bite: ipc={}", r.ipc[0]);
        // A streaming thread alone is bank-latency bound: one row hit per
        // ~125 cycles, ~10 instructions per miss => IPC ~0.08.
        assert!(r.ipc[0] > 0.05, "but the thread must make progress");
        assert!(r.total_serviced > 100);
        // Streaming thread: overwhelmingly row hits when alone.
        assert!(r.row_hit_rate > 0.8, "hit rate {}", r.row_hit_rate);
    }

    #[test]
    fn random_access_thread_has_low_hit_rate_alone() {
        let c = cfg(1);
        let w = workload_of(vec![BenchmarkProfile::random_access()]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
        let r = sys.run(200_000);
        assert!(r.row_hit_rate < 0.2, "hit rate {}", r.row_hit_rate);
    }

    #[test]
    fn runs_are_deterministic() {
        let c = cfg(4);
        let w = random_workload_4();
        let r1 = System::new(&c, &w, Box::new(FrFcfs::new()), 7).run(100_000);
        let r2 = System::new(&c, &w, Box::new(FrFcfs::new()), 7).run(100_000);
        assert_eq!(r1, r2);
        let r3 = System::new(&c, &w, Box::new(FrFcfs::new()), 8).run(100_000);
        assert_ne!(r1.retired, r3.retired, "different seeds, different runs");
    }

    fn random_workload_4() -> WorkloadSpec {
        tcm_workload::random_workload(3, 4, 0.75)
    }

    #[test]
    fn service_accounting_balances() {
        let c = cfg(2);
        let w = workload_of(vec![
            BenchmarkProfile::streaming(),
            BenchmarkProfile::random_access(),
        ]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 1);
        let r = sys.run(100_000);
        // Every serviced request contributed bank-busy time to its
        // thread.
        assert!(r.service.iter().sum::<u64>() > 0);
        assert!(r.misses.iter().all(|&m| m > 0));
        // Misses injected >= serviced (some still in flight at horizon).
        assert!(r.misses.iter().sum::<u64>() >= r.total_serviced);
    }

    #[test]
    fn contention_slows_threads_down() {
        let c1 = cfg(1);
        let alone = System::new(
            &c1,
            &workload_of(vec![BenchmarkProfile::random_access()]),
            Box::new(FrFcfs::new()),
            0,
        )
        .run(150_000);
        let c24 = cfg(24);
        let mut threads = vec![BenchmarkProfile::random_access()];
        for _ in 0..23 {
            threads.push(BenchmarkProfile::streaming());
        }
        let shared = System::new(&c24, &workload_of(threads), Box::new(FrFcfs::new()), 0)
            .run(150_000);
        assert!(
            shared.ipc[0] < alone.ipc[0] * 0.8,
            "alone {} vs shared {}",
            alone.ipc[0],
            shared.ipc[0]
        );
    }

    #[test]
    #[should_panic(expected = "one profile per hardware thread")]
    fn workload_size_mismatch_panics() {
        let c = cfg(2);
        let w = workload_of(vec![BenchmarkProfile::streaming()]);
        System::new(&c, &w, Box::new(FrFcfs::new()), 0);
    }

    #[test]
    fn try_run_agrees_with_run_on_healthy_workload() {
        let c = cfg(4);
        let w = random_workload_4();
        let via_run = System::new(&c, &w, Box::new(FrFcfs::new()), 7).run(100_000);
        let via_try = System::new(&c, &w, Box::new(FrFcfs::new()), 7)
            .try_run(100_000)
            .expect("healthy workload must not fault");
        assert_eq!(via_run, via_try);
    }

    #[test]
    fn spill_overflow_surfaces_typed_error() {
        let c = cfg(1);
        let w = workload_of(vec![BenchmarkProfile::streaming()]);
        let mut sys = System::new(&c, &w, Box::new(FrFcfs::new()), 0);
        // Shrink the bound so the overflow is reachable without injecting
        // thousands of requests, then stuff one channel well past its
        // 128-entry buffer.
        sys.spill_bound = 4;
        let addr = MemAddress::new(ChannelId::new(0), BankId::new(0), tcm_types::Row::new(0));
        for i in 0..200 {
            let req = Request::new(
                RequestId::new(1_000_000 + i),
                ThreadId::new(0),
                addr,
                0,
            );
            sys.admit(req);
        }
        let err = sys.pending_error.take().expect("overflow must raise an error");
        match err {
            SimError::InvariantViolation(v) => {
                assert_eq!(v.invariant, Invariant::ResourceBound);
                assert!(v.detail.contains("spill queue"), "detail: {}", v.detail);
            }
            other => panic!("expected an invariant violation, got {other}"),
        }
    }
}

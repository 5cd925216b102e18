//! Multi-controller system simulator: one *shard* per memory controller,
//! advanced in fixed windows with barrier-synchronized exchange.
//!
//! [`MultiSystem`] simulates topologies with two or more memory
//! controllers (see [`Topology`]). The machine splits along the
//! controller boundary:
//!
//! * The **coordinator** owns the cores, trace generators and the
//!   core-side event queue (bursts and completions), plus the optional
//!   [`MetaScheduler`] coordinating the per-controller policies.
//! * Each **shard** owns one controller: its channels, its
//!   [`Scheduler`] instance, its spill queues and a local event queue
//!   (arrivals, completions, bank-ready wakeups).
//!
//! Time advances in windows of `W = timing.round_trip(RowState::Hit)`
//! cycles — the minimum issue-to-completion latency, so nothing a shard
//! does inside a window can affect the coordinator (or another shard)
//! within the same window. Each window runs two phases:
//!
//! 1. **Core phase** (serial): the coordinator processes core events
//!    below the window bound, routing new requests and completion
//!    notifications to the owning shard's inbox in a deterministic
//!    order.
//! 2. **Controller phase** (parallel): every shard independently merges
//!    its inbox and processes its local events below the bound,
//!    emitting completions to an outbox.
//!
//! At the barrier, outboxes merge back into the coordinator queue in
//! controller order, faults are surfaced, and any scheduler or
//! meta-controller timers due at the bound run serially — for TCM this
//! is the paper's §5.3 exchange: harvest each controller's
//! [`MonitorSample`], compute one system-wide [`ClusterPlan`], and
//! broadcast it back.
//!
//! Because shards touch disjoint state and every cross-shard hand-off
//! happens at the barrier in a fixed order, running the controller
//! phase on one host thread or many is **bit-identical** — see
//! [`MultiSystem::set_hosts`].
//!
//! [`ClusterPlan`]: tcm_sched::ClusterPlan
//! [`Topology`]: tcm_types::Topology

use crate::event::{Event, EventQueue, TimedQueue};
use crate::system::{RunResult, DEFAULT_STALL_LIMIT};
use std::cmp::Reverse;
use std::collections::VecDeque;
use tcm_chaos::{FaultKind, FaultPlan, FaultSpec};
use tcm_cpu::{Core, CoreStatus};
use tcm_dram::Channel;
use tcm_sched::{
    ChaosScheduler, ClusterPlan, MetaScheduler, MonitorSample, PickContext, Scheduler, SystemView,
};
use tcm_telemetry::{labeled, DegradationAnomaly, Telemetry, TraceEvent};
use tcm_types::{
    BankId, CancelToken, ChannelId, ControllerId, Cycle, DramTiming, Invariant,
    InvariantViolation, MemAddress, Request, RequestId, RowState, SimError, StallReport,
    SystemConfig, ThreadId,
};
use tcm_workload::{MachineShape, TraceGenerator, WorkloadSpec};

/// Consecutive window barriers a shard's policy timer may refuse to
/// advance past the window start before the run is declared stalled.
///
/// A healthy policy's `next_tick` always lands strictly in the future,
/// so the counter resets every barrier; a wedged timer (e.g. a
/// scheduler-spin fault) pins it at the current cycle, shrinking every
/// window to one cycle without ever tripping the retirement watchdog.
/// This is the sharded engine's analogue of the flat engine's
/// same-cycle livelock guard.
pub const FROZEN_TICK_LIMIT: u64 = 1_000;

/// Pending-message count below which a window's controller phase runs
/// inline even when multiple host threads are configured (see
/// [`MultiSystem::step_shards`]). A message costs on the order of 100ns
/// to process; a `thread::scope` spawn-and-join costs tens of
/// microseconds — parallelism only pays off for windows carrying
/// thousands of messages.
const INLINE_WINDOW_THRESHOLD: usize = 2_048;

/// A message crossing the coordinator → shard boundary, or queued
/// shard-locally (bank wakeups never leave their shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ShardMsg {
    /// A request arrives at this controller.
    Arrival(Request),
    /// A request owned by this controller completed at its core (the
    /// policy's `on_complete` hook fires shard-side).
    Completed(Request),
    /// A bank finished its previous service (`channel` is the *local*
    /// channel index within the shard).
    BankReady {
        channel: usize,
        bank: BankId,
    },
}

/// Shard-local time-ordered queue: the same timing wheel as
/// [`EventQueue`], so same-cycle messages pop in insertion order.
type MsgQueue = TimedQueue<ShardMsg>;

/// One memory controller's share of the machine: channels, policy
/// instance, spill queues, and the local event stream. Owns everything
/// it touches during the controller phase, so shards can step on
/// separate host threads without observable effect.
#[derive(Debug)]
struct Shard {
    /// Global index of this controller's first channel.
    channel_base: usize,
    channels: Vec<Channel>,
    scheduler: Box<dyn Scheduler>,
    /// Per-local-channel overflow queues (arrival order preserved).
    spill: Vec<VecDeque<Request>>,
    spilled: u64,
    events: MsgQueue,
    /// Messages routed by the coordinator this window, in coordinator
    /// processing order.
    inbox: Vec<(Cycle, ShardMsg)>,
    /// Completions produced this window: `(completes_at, request)`.
    outbox: Vec<(Cycle, Request)>,
    pending_error: Option<SimError>,
    /// Next cycle the policy's own timer is due (policies coordinated by
    /// a meta-controller have no timer of their own).
    next_tick: Option<Cycle>,
    timing: DramTiming,
    spill_bound: usize,
    num_threads: usize,
    mshrs_per_core: usize,
    scratch_banks: Vec<BankId>,
    now: Cycle,
}

impl Shard {
    /// Processes every local event below `bound`, starting with this
    /// window's inbox. Stops early once a typed error is recorded.
    fn step(&mut self, bound: Cycle) {
        let mut inbox = std::mem::take(&mut self.inbox);
        for (cycle, msg) in inbox.drain(..) {
            self.events.push(cycle, msg);
        }
        self.inbox = inbox; // hand the capacity back
        while self.pending_error.is_none() {
            let Some((cycle, msg)) = self.events.pop_at_or_before(bound - 1) else {
                break;
            };
            self.now = cycle;
            match msg {
                ShardMsg::Arrival(request) => {
                    let local = request.addr.channel.index() - self.channel_base;
                    self.admit(request, local);
                    self.schedule_idle_banks(local);
                }
                ShardMsg::Completed(request) => {
                    self.scheduler.on_complete(&request, cycle);
                }
                ShardMsg::BankReady { channel, bank } => {
                    self.drain_spill(channel);
                    if self.channels[channel].bank_idle_ready(bank, cycle)
                        && self.channels[channel].queue().has_pending_for_bank(bank)
                    {
                        self.decide(channel, bank);
                    }
                }
            }
        }
    }

    /// Admits a request into local channel `local`'s buffer, spilling if
    /// full (mirrors the single-controller admission path).
    fn admit(&mut self, request: Request, local: usize) {
        if self.spill[local].is_empty() && self.channels[local].enqueue(request).is_ok() {
            self.scheduler.on_enqueue(&request, self.now);
            return;
        }
        self.spilled += 1;
        if self.spill[local].len() >= self.spill_bound && self.pending_error.is_none() {
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
                    self.channel_base + local,
                    self.num_threads,
                    self.mshrs_per_core,
                    self.spill_bound
                ),
            }));
        }
        self.spill[local].push_back(request);
    }

    /// Drains spilled requests into the channel while room exists.
    fn drain_spill(&mut self, local: usize) {
        while let Some(&request) = self.spill[local].front() {
            let request = Request {
                issued_at: self.now,
                ..request
            };
            if self.channels[local].enqueue(request).is_ok() {
                self.spill[local].pop_front();
                self.scheduler.on_enqueue(&request, self.now);
            } else {
                break;
            }
        }
    }

    /// Runs a scheduling decision for every idle bank with pending work.
    fn schedule_idle_banks(&mut self, local: usize) {
        let mut banks = std::mem::take(&mut self.scratch_banks);
        banks.clear();
        banks.extend(self.channels[local].schedulable_banks(self.now));
        for &bank in &banks {
            self.decide(local, bank);
        }
        self.scratch_banks = banks;
    }

    /// Consults the policy and issues one request at `(local, bank)`.
    /// The completion goes to the outbox — always at least a hit
    /// round-trip away, so it lands beyond this window's bound.
    fn decide(&mut self, local: usize, bank: BankId) {
        let ctx = PickContext {
            now: self.now,
            channel: ChannelId::new(self.channel_base + local),
            bank,
            open_row: self.channels[local].open_row(bank),
        };
        let pending = self.channels[local].pending_for_bank(bank);
        debug_assert!(!pending.is_empty());
        let idx = self.scheduler.pick(pending, &ctx);
        assert!(idx < pending.len(), "policy returned an invalid index");
        let outcome = self.channels[local].issue_at(bank.index(), idx, self.now, &self.timing);
        let remaining = self.channels[local].pending_for_bank(bank);
        self.scheduler.on_service(&outcome, remaining, self.now);
        self.outbox.push((outcome.completes_at, outcome.request));
        self.events.push(
            outcome.bank_free,
            ShardMsg::BankReady {
                channel: local,
                bank,
            },
        );
        self.drain_spill(local);
    }

    /// Per-thread bank-busy service cycles attained on this controller's
    /// channels only (the view a per-controller policy's timer sees).
    fn local_service(&self, num_threads: usize) -> Vec<u64> {
        let mut service = Vec::new();
        self.local_service_into(num_threads, &mut service);
        service
    }

    /// In-place form of [`Shard::local_service`] for the per-tick hot
    /// path (the caller reuses the buffer across barriers).
    fn local_service_into(&self, num_threads: usize, service: &mut Vec<u64>) {
        service.clear();
        service.resize(num_threads, 0);
        for ch in &self.channels {
            for (t, s) in ch.stats().thread_service_all().iter().enumerate() {
                if t < num_threads {
                    service[t] += s;
                }
            }
        }
    }

    fn idle(&self) -> bool {
        self.events.is_empty() && self.inbox.is_empty() && self.outbox.is_empty()
    }
}

/// One simulated CMP whose memory system spans multiple controllers,
/// optionally coordinated by a [`MetaScheduler`] and optionally sharded
/// across host threads. See the module docs for the execution model.
///
/// Identical inputs produce bit-identical results regardless of
/// [`MultiSystem::set_hosts`] — including under a fault-injection plan
/// (see [`MultiSystem::install_chaos`]): faults fire at window barriers
/// or shard-locally, never across the phase boundary.
///
/// # Example
///
/// ```
/// use tcm_sim::{MultiSystem, PolicyKind};
/// use tcm_types::{SystemConfig, Topology};
/// use tcm_workload::random_workload;
///
/// let cfg = SystemConfig::builder()
///     .num_threads(4)
///     .topology(Topology::uniform(2, 2))
///     .build()?;
/// let policy = PolicyKind::FrFcfs;
/// let controllers = (0..2).map(|_| policy.build_controller(4, &cfg)).collect();
/// let workload = random_workload(0, 4, 0.5);
/// let mut sys = MultiSystem::new(&cfg, &workload, controllers, None, 1);
/// let result = sys.run(50_000);
/// assert_eq!(result.ipc.len(), 4);
/// # Ok::<(), tcm_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct MultiSystem {
    cfg: SystemConfig,
    cores: Vec<Core>,
    generators: Vec<Option<TraceGenerator>>,
    pending_accesses: Vec<Vec<MemAddress>>,
    core_epoch: Vec<u64>,
    /// Core-side queue: bursts and (merged) completions.
    events: EventQueue,
    now: Cycle,
    next_request_id: u64,
    injected: u64,
    completed: u64,
    last_retire: Cycle,
    events_since_retire: u64,
    stall_limit: Option<Cycle>,
    cancel: Option<CancelToken>,
    shards: Vec<Shard>,
    /// Global channel index → shard index.
    owner: Vec<usize>,
    meta: Option<Box<dyn MetaScheduler>>,
    meta_tick: Option<Cycle>,
    /// Window width: the hit round-trip, i.e. the minimum
    /// issue-to-completion latency.
    window: Cycle,
    /// Host threads for the controller phase (1 = inline).
    hosts: usize,
    scratch_ids: Vec<RequestId>,
    telemetry: Telemetry,
    /// Armed spill-flood fault: at its cycle, phantom requests are routed
    /// to the owning shard until its spill queue outgrows the bound.
    chaos_flood: Option<FaultSpec>,
    /// Armed coordination faults (controller blackout / monitor skew),
    /// applied to the harvested sample vector at the next quantum
    /// exchange at or after their cycle. Fire-once: removed when fired.
    chaos_coordination: Vec<FaultSpec>,
    /// Per-shard count of consecutive barriers whose policy timer was
    /// already due at the window start (see [`FROZEN_TICK_LIMIT`]).
    frozen_ticks: Vec<u64>,
    /// Scratch: per-thread counter views for `run_ticks` (reused across
    /// barriers; the old code allocated fresh `Vec`s per due timer).
    scratch_retired: Vec<u64>,
    scratch_misses: Vec<u64>,
    scratch_service: Vec<u64>,
}

impl MultiSystem {
    /// Builds a multi-controller system running `workload`.
    ///
    /// `controllers` supplies one policy instance per controller of
    /// `cfg.topology` (see `PolicyKind::build_controller`); `meta` is
    /// the coordinating meta-controller for policies that need one (see
    /// `PolicyKind::build_meta`). `seed_base` decorrelates benchmark
    /// instances exactly as in the single-controller engine.
    ///
    /// # Panics
    ///
    /// Panics if the config fails validation, the workload's thread
    /// count differs from `cfg.num_threads`, or `controllers` does not
    /// match the topology's controller count.
    pub fn new(
        cfg: &SystemConfig,
        workload: &WorkloadSpec,
        controllers: Vec<Box<dyn Scheduler>>,
        meta: Option<Box<dyn MetaScheduler>>,
        seed_base: u64,
    ) -> Self {
        cfg.validate().expect("invalid system config");
        assert_eq!(
            workload.threads.len(),
            cfg.num_threads,
            "workload must have one profile per hardware thread"
        );
        assert_eq!(
            controllers.len(),
            cfg.topology.num_controllers(),
            "one scheduler instance per memory controller"
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
        let spill_bound = cfg.num_threads * cfg.mshrs_per_core;
        let mut owner = Vec::with_capacity(cfg.num_channels());
        let shards: Vec<Shard> = cfg
            .topology
            .controllers()
            .zip(controllers)
            .map(|(mc, scheduler)| {
                let range = cfg.topology.channel_range(mc);
                let channel_base = range.start;
                let channels: Vec<Channel> = range
                    .clone()
                    .map(|c| {
                        owner.push(mc.index());
                        Channel::with_threads(
                            ChannelId::new(c),
                            cfg.banks_per_channel,
                            cfg.request_buffer,
                            cfg.num_threads,
                        )
                    })
                    .collect();
                let next_tick = None; // armed in bootstrap
                Shard {
                    channel_base,
                    spill: (0..channels.len()).map(|_| VecDeque::new()).collect(),
                    channels,
                    scheduler,
                    spilled: 0,
                    events: MsgQueue::default(),
                    inbox: Vec::new(),
                    outbox: Vec::new(),
                    pending_error: None,
                    next_tick,
                    timing: cfg.timing,
                    spill_bound,
                    num_threads: cfg.num_threads,
                    mshrs_per_core: cfg.mshrs_per_core,
                    scratch_banks: Vec::with_capacity(cfg.banks_per_channel),
                    now: 0,
                }
            })
            .collect();
        let mut sys = Self {
            cores,
            generators,
            pending_accesses: vec![Vec::new(); cfg.num_threads],
            core_epoch: vec![0; cfg.num_threads],
            events: EventQueue::new(),
            now: 0,
            next_request_id: 0,
            injected: 0,
            completed: 0,
            last_retire: 0,
            events_since_retire: 0,
            stall_limit: Some(DEFAULT_STALL_LIMIT),
            cancel: None,
            shards,
            owner,
            meta_tick: meta.as_ref().and_then(|m| m.next_tick(0)),
            meta,
            window: cfg.timing.round_trip(RowState::Hit),
            hosts: 1,
            scratch_ids: Vec::new(),
            telemetry: Telemetry::disabled(),
            chaos_flood: None,
            chaos_coordination: Vec::new(),
            frozen_ticks: vec![0; cfg.topology.num_controllers()],
            scratch_retired: Vec::new(),
            scratch_misses: Vec::new(),
            scratch_service: Vec::new(),
            cfg: cfg.clone(),
        };
        if std::env::var_os("TCM_VERIFY").is_some_and(|v| v != "0") {
            sys.enable_verification();
        }
        for shard in &mut sys.shards {
            shard.next_tick = shard.scheduler.next_tick(0);
        }
        for t in 0..sys.cfg.num_threads {
            sys.arm_next_burst(t);
            sys.poll_core(t);
        }
        sys
    }

    /// Sets the number of host threads the controller phase uses
    /// (clamped to the controller count; 1 runs shards inline). Results
    /// are bit-identical for any value — this only trades wall-clock.
    pub fn set_hosts(&mut self, hosts: usize) {
        self.hosts = hosts.max(1);
    }

    /// Turns on the DRAM protocol invariant checker on every channel
    /// (observation-only; results are bit-identical with it on or off).
    pub fn enable_verification(&mut self) {
        for shard in &mut self.shards {
            for ch in &mut shard.channels {
                ch.enable_verification();
            }
        }
    }

    /// Sets the forward-progress watchdog limit (checked at every window
    /// barrier); `None` disables it.
    pub fn set_watchdog(&mut self, stall_limit: Option<Cycle>) {
        self.stall_limit = stall_limit;
    }

    /// Installs a cooperative cancellation token, polled at every window
    /// barrier.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Installs OS thread weights on the meta-controller and every
    /// per-controller policy.
    pub fn set_thread_weights(&mut self, weights: &[f64]) {
        if let Some(meta) = &mut self.meta {
            meta.set_thread_weights(weights);
        }
        for shard in &mut self.shards {
            shard.scheduler.set_thread_weights(weights);
        }
    }

    /// Shares a telemetry handle with every channel, every controller's
    /// policy, and the meta-controller. Observation-only.
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        self.telemetry = telemetry.clone();
        for shard in &mut self.shards {
            for ch in &mut shard.channels {
                ch.set_telemetry(telemetry);
            }
            shard.scheduler.attach_telemetry(telemetry);
        }
        if let Some(meta) = &mut self.meta {
            meta.attach_telemetry(telemetry);
        }
    }

    /// Installs a fault-injection plan (see the `tcm-chaos` crate),
    /// mirroring `System::install_chaos` on the sharded engine.
    ///
    /// Routes each fault to its execution site via the topology's
    /// channel partition: channel faults to the owning shard's
    /// [`Channel`], monitor faults to the meta-controller (or the target
    /// controller's policy when uncoordinated), the spill flood to the
    /// owning shard's admission path, scheduler spins to the target
    /// controller's policy (wrapped in a [`ChaosScheduler`]), and
    /// coordination faults (controller blackout / monitor skew) to the
    /// quantum-exchange harvest.
    ///
    /// Also enables protocol verification on every channel: injecting
    /// faults without the detectors armed would be undetectable by
    /// design. Installing an *empty* plan still installs the (inert)
    /// chaos state everywhere, so tests can prove the zero-fault plan is
    /// bit-identical to no plan at all.
    pub fn install_chaos(&mut self, plan: &FaultPlan) {
        self.enable_verification();
        for shard in &mut self.shards {
            for (local, ch) in shard.channels.iter_mut().enumerate() {
                ch.set_chaos(Some(plan.channel_chaos(shard.channel_base + local)));
            }
        }
        for fault in plan.monitor_faults() {
            if let Some(meta) = &mut self.meta {
                meta.inject_monitor_fault(&fault);
            } else {
                let c = fault.controller.min(self.shards.len() - 1);
                self.shards[c].scheduler.inject_monitor_fault(&fault);
            }
        }
        self.chaos_flood = plan.flood();
        self.chaos_coordination = plan.coordination_faults().collect();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if let Some(spin_at) = plan.spin_for(i) {
                // Placeholder swap: Box<dyn Scheduler> has no cheap
                // default, and the wrapper needs ownership of the inner
                // policy.
                let inner =
                    std::mem::replace(&mut shard.scheduler, Box::new(tcm_sched::Fcfs::new()));
                shard.scheduler = Box::new(ChaosScheduler::new(inner, spin_at));
                // Policies without timers never armed a tick; the
                // wrapper needs one for the spin to engage.
                shard.next_tick = shard.scheduler.next_tick(shard.now);
            }
        }
    }

    /// Executes an armed spill-flood fault: routes phantom requests to
    /// the target channel's shard until its buffer and spill queue both
    /// overflow, tripping the resource-bound detector in `Shard::admit`
    /// during the next controller phase.
    fn trigger_flood(&mut self, fault: FaultSpec, at: Cycle) {
        self.telemetry.emit(|| TraceEvent::ChaosInjected {
            cycle: at,
            kind: FaultKind::SpillFlood,
        });
        let channel = fault.channel.min(self.cfg.num_channels() - 1);
        let addr = MemAddress::new(
            ChannelId::new(channel),
            BankId::new(0),
            tcm_types::Row::new(0),
        );
        let thread = ThreadId::new(fault.thread.min(self.cfg.num_threads - 1));
        let spill_bound = self.cfg.num_threads * self.cfg.mshrs_per_core;
        let phantoms = self.cfg.request_buffer + spill_bound + 1;
        // All phantoms go to the inbox up front; the shard stops
        // admitting the moment the bound trips (its event loop breaks on
        // a pending error), and poll_faults surfaces it at the barrier.
        for _ in 0..phantoms {
            let id = RequestId::new(self.next_request_id);
            self.next_request_id += 1;
            let request = Request::new(id, thread, addr, at);
            self.route(at, request, ShardMsg::Arrival(request));
        }
    }

    /// Applies due coordination faults to this exchange's harvested
    /// sample vector: a blackout deletes the target controller's sample
    /// (its monitor went dark), a skew corrupts it into physical
    /// impossibility (more shadow hits than accesses). Fire-once.
    fn apply_coordination_faults(&mut self, at: Cycle, samples: &mut [Option<MonitorSample>]) {
        let mut i = 0;
        while i < self.chaos_coordination.len() {
            let fault = self.chaos_coordination[i];
            if fault.at > at {
                i += 1;
                continue;
            }
            self.chaos_coordination.remove(i);
            let c = fault.controller.min(samples.len() - 1);
            match fault.kind {
                FaultKind::ControllerBlackout => samples[c] = None,
                FaultKind::MonitorSkew => {
                    if let Some(sample) = &mut samples[c] {
                        let t = fault
                            .thread
                            .min(sample.shadow_accesses.len().saturating_sub(1));
                        sample.shadow_hits[t] = sample.shadow_accesses[t]
                            .saturating_mul(2)
                            .saturating_add(1_000);
                    }
                }
                _ => unreachable!("coordination_faults yields only coordination kinds"),
            }
            self.telemetry.emit(|| TraceEvent::ChaosInjected {
                cycle: at,
                kind: fault.kind,
            });
        }
    }

    /// The meta-controller's plausibility-guard anomaly log (empty
    /// without a meta-controller or a guard).
    pub fn degradation_events(&self) -> &[DegradationAnomaly] {
        self.meta
            .as_deref()
            .map(MetaScheduler::degradation_events)
            .unwrap_or(&[])
    }

    fn arm_next_burst(&mut self, t: usize) {
        let Some(generator) = self.generators[t].as_mut() else {
            return;
        };
        let gap = generator.next_burst_into(&mut self.pending_accesses[t]);
        self.cores[t].schedule_burst(gap, self.pending_accesses[t].len());
    }

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

    /// Routes a message to the shard owning its request's channel,
    /// stamping coordinator processing order.
    fn route(&mut self, cycle: Cycle, request: Request, msg: ShardMsg) {
        let shard = self.owner[request.addr.channel.index()];
        self.shards[shard].inbox.push((cycle, msg));
    }

    /// Injects thread `t`'s pending burst: requests are routed to their
    /// owning shards as arrivals at the current cycle.
    fn inject_burst(&mut self, t: usize) {
        let accesses = std::mem::take(&mut self.pending_accesses[t]);
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        for addr in &accesses {
            let id = RequestId::new(self.next_request_id);
            self.next_request_id += 1;
            ids.push(id);
            let request = Request::new(id, ThreadId::new(t), *addr, self.now);
            self.route(self.now, request, ShardMsg::Arrival(request));
        }
        self.cores[t].issue_burst(&ids);
        self.injected += ids.len() as u64;
        self.scratch_ids = ids;
        self.pending_accesses[t] = accesses;
        self.arm_next_burst(t);
        self.poll_core(t);
    }

    /// Phase 1: processes core-side events below `bound`.
    fn phase_cores(&mut self, bound: Cycle) {
        // `bound >= t + 1 >= 1`, so the inclusive form cannot underflow.
        while let Some((cycle, event)) = self.events.pop_at_or_before(bound - 1) {
            debug_assert!(cycle >= self.now, "coordinator queue went backwards");
            self.now = cycle;
            self.events_since_retire += 1;
            match event {
                Event::CoreBurst { thread, epoch } => {
                    let t = thread.index();
                    if epoch != self.core_epoch[t] {
                        continue; // stale
                    }
                    match self.cores[t].poll(cycle) {
                        CoreStatus::WillBurst { at } if at <= cycle => self.inject_burst(t),
                        CoreStatus::WillBurst { .. } => self.poll_core(t),
                        _ => {}
                    }
                }
                Event::Completion { request } => {
                    let t = request.thread.index();
                    self.cores[t].complete(request.id);
                    self.completed += 1;
                    self.last_retire = cycle;
                    self.events_since_retire = 0;
                    self.route(cycle, request, ShardMsg::Completed(request));
                    self.poll_core(t);
                }
                Event::BankReady { .. } | Event::SchedTick => {
                    unreachable!("coordinator queue carries core events only")
                }
            }
        }
    }

    /// Phase 2: steps every shard to `bound`, chunked over host threads
    /// when more than one is configured. Shards own disjoint state and
    /// are joined in spawn order, so the thread count is unobservable —
    /// which also makes the adaptive fast path safe: a window whose
    /// total pending work is below [`INLINE_WINDOW_THRESHOLD`] messages
    /// runs inline, because spawning threads costs more than stepping a
    /// near-empty window (the 200-cycle hit-round-trip windows of a
    /// typical run carry a handful of messages each; per-window spawns
    /// were the dominant cost of the sharded engine).
    fn step_shards(&mut self, bound: Cycle) {
        let hosts = self.hosts.min(self.shards.len()).max(1);
        if hosts > 1 {
            let work: usize = self
                .shards
                .iter()
                .map(|s| s.inbox.len() + s.events.len())
                .sum();
            if work >= INLINE_WINDOW_THRESHOLD {
                let chunk = self.shards.len().div_ceil(hosts);
                std::thread::scope(|scope| {
                    for shards in self.shards.chunks_mut(chunk) {
                        scope.spawn(move || {
                            for shard in shards {
                                shard.step(bound);
                            }
                        });
                    }
                });
                return;
            }
        }
        for shard in &mut self.shards {
            shard.step(bound);
        }
    }

    /// Barrier: merges every shard's completions into the coordinator
    /// queue, in controller order.
    fn merge_outboxes(&mut self) {
        for shard in &mut self.shards {
            for (cycle, request) in shard.outbox.drain(..) {
                self.events.push(cycle, Event::Completion { request });
            }
        }
    }

    /// Surfaces any fault recorded during the window, in controller
    /// order: typed shard errors first, then protocol-checker
    /// violations.
    fn poll_faults(&mut self) -> Result<(), SimError> {
        for shard in &mut self.shards {
            if let Some(err) = shard.pending_error.take() {
                return Err(err);
            }
        }
        for shard in &self.shards {
            for ch in &shard.channels {
                if let Some(violation) = ch.violation() {
                    return Err(SimError::InvariantViolation(violation.clone()));
                }
            }
        }
        Ok(())
    }

    /// Global per-thread counter view (service summed over every
    /// controller) for the meta-controller.
    fn view_arrays(&self) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
        let n = self.cfg.num_threads;
        let retired = self.cores.iter().map(Core::retired).collect();
        let misses = self.cores.iter().map(Core::misses_issued).collect();
        let mut service = vec![0u64; n];
        for shard in &self.shards {
            for (t, s) in shard.local_service(n).iter().enumerate() {
                service[t] += s;
            }
        }
        (retired, misses, service)
    }

    /// Runs every timer due at `at`: the meta-controller's exchange
    /// first (harvest → aggregate → broadcast), then per-controller
    /// policy timers in controller order. Counter views are built in
    /// reused scratch buffers — timers fire every barrier for some
    /// policies, and allocating three vectors per firing was measurable.
    fn run_ticks(&mut self, at: Cycle) {
        let mut retired = std::mem::take(&mut self.scratch_retired);
        let mut misses = std::mem::take(&mut self.scratch_misses);
        let mut service = std::mem::take(&mut self.scratch_service);
        if self.meta_tick.is_some_and(|due| due <= at) {
            retired.clear();
            retired.extend(self.cores.iter().map(Core::retired));
            misses.clear();
            misses.extend(self.cores.iter().map(Core::misses_issued));
            service.clear();
            service.resize(self.cfg.num_threads, 0);
            for shard in &self.shards {
                for ch in &shard.channels {
                    for (t, s) in ch.stats().thread_service_all().iter().enumerate() {
                        if t < self.cfg.num_threads {
                            service[t] += s;
                        }
                    }
                }
            }
            let meta = self.meta.as_mut().expect("meta_tick without a meta");
            let harvested = meta.needs_samples(at);
            let mut samples: Vec<Option<MonitorSample>> = if harvested {
                self.shards
                    .iter_mut()
                    .map(|s| s.scheduler.quantum_exchange(at))
                    .collect()
            } else {
                vec![None; self.shards.len()]
            };
            if harvested && !self.chaos_coordination.is_empty() {
                self.apply_coordination_faults(at, &mut samples);
            }
            let meta = self.meta.as_mut().expect("meta_tick without a meta");
            let view = SystemView {
                retired: &retired,
                misses: &misses,
                service: &service,
            };
            let plan = meta.exchange(at, &view, &samples);
            if plan.quarantined.is_empty() {
                for shard in &mut self.shards {
                    shard.scheduler.apply_broadcast(&plan, at);
                }
            } else {
                // A quarantined controller gets the degenerate all-zero
                // ranking — Algorithm 3 with equal ranks is row-hit then
                // oldest, i.e. local FR-FCFS — while the healthy shards
                // keep the real TCM clustering for this quantum.
                let fallback = ClusterPlan {
                    priorities: vec![0; self.cfg.num_threads],
                    degraded: true,
                    quarantined: plan.quarantined.clone(),
                };
                for (i, shard) in self.shards.iter_mut().enumerate() {
                    if plan.quarantined.get(i).copied().unwrap_or(false) {
                        shard.scheduler.apply_broadcast(&fallback, at);
                    } else {
                        shard.scheduler.apply_broadcast(&plan, at);
                    }
                }
            }
            let meta = self.meta.as_mut().expect("meta_tick without a meta");
            self.meta_tick = meta.next_tick(at);
        }
        for i in 0..self.shards.len() {
            if self.shards[i].next_tick.is_some_and(|due| due <= at) {
                retired.clear();
                retired.extend(self.cores.iter().map(Core::retired));
                misses.clear();
                misses.extend(self.cores.iter().map(Core::misses_issued));
                self.shards[i].local_service_into(self.cfg.num_threads, &mut service);
                let view = SystemView {
                    retired: &retired,
                    misses: &misses,
                    service: &service,
                };
                self.shards[i].scheduler.tick(at, &view);
                self.shards[i].next_tick = self.shards[i].scheduler.next_tick(at);
            }
        }
        self.scratch_retired = retired;
        self.scratch_misses = misses;
        self.scratch_service = service;
    }

    /// Whether no event anywhere can ever fire again (timers alone never
    /// create events).
    fn drained(&self) -> bool {
        self.events.is_empty() && self.shards.iter().all(Shard::idle)
    }

    /// Processes windows until `horizon`, then settles all cores and
    /// reports the run — panicking wrapper over [`MultiSystem::try_run`].
    ///
    /// # Panics
    ///
    /// Panics if the run stalls or trips a protocol invariant.
    pub fn run(&mut self, horizon: Cycle) -> RunResult {
        match self.try_run(horizon) {
            Ok(result) => result,
            Err(err) => panic!("simulation failed: {err}"),
        }
    }

    /// Processes windows until `horizon`, then settles all cores at the
    /// horizon and reports the run's results — or a typed error.
    ///
    /// # Errors
    ///
    /// Same contract as the single-controller engine: `Stalled` when the
    /// watchdog fires or the queues drain with requests in flight,
    /// `InvariantViolation` from the protocol checker or the spill
    /// bound, `Cancelled` when the token fires.
    pub fn try_run(&mut self, horizon: Cycle) -> Result<RunResult, SimError> {
        let mut t: Cycle = 0;
        while t <= horizon {
            if self.drained() {
                break;
            }
            t = self.skip_empty_windows(t, horizon);
            let mut bound = (t + self.window).min(horizon + 1);
            if let Some(due) = self.meta_tick {
                bound = bound.min(due.max(t + 1));
            }
            for i in 0..self.shards.len() {
                if let Some(due) = self.shards[i].next_tick {
                    bound = bound.min(due.max(t + 1));
                    // A timer already due at the window start means the
                    // policy's clock refuses to advance — the sharded
                    // analogue of a same-cycle event-loop spin.
                    if due <= t {
                        self.frozen_ticks[i] += 1;
                        if self.frozen_ticks[i] > FROZEN_TICK_LIMIT {
                            return Err(SimError::Stalled(Box::new(self.stall_report_for(Some(i)))));
                        }
                    } else {
                        self.frozen_ticks[i] = 0;
                    }
                } else {
                    self.frozen_ticks[i] = 0;
                }
            }
            if let Some(fault) = self.chaos_flood {
                if fault.at < bound {
                    self.chaos_flood = None;
                    self.trigger_flood(fault, fault.at.max(t));
                }
            }
            self.phase_cores(bound);
            self.step_shards(bound);
            self.poll_faults()?;
            self.merge_outboxes();
            self.now = bound.min(horizon);
            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    return Err(SimError::Cancelled(self.now));
                }
            }
            if let Some(limit) = self.stall_limit {
                if self.injected > self.completed
                    && bound.saturating_sub(self.last_retire) > limit
                {
                    return Err(SimError::Stalled(Box::new(self.stall_report())));
                }
            }
            if bound <= horizon {
                self.run_ticks(bound);
            }
            t = bound;
        }
        if self.stall_limit.is_some() && self.injected > self.completed && self.drained() {
            return Err(SimError::Stalled(Box::new(self.stall_report())));
        }
        self.now = horizon;
        for t in 0..self.cfg.num_threads {
            self.cores[t].poll(horizon);
        }
        for shard in &mut self.shards {
            for ch in &mut shard.channels {
                ch.finish_verification(horizon)?;
            }
        }
        Ok(self.collect(horizon))
    }

    /// Fast-forwards `t` over windows that are provable no-ops: no event
    /// (coordinator or shard) fires in them, no scheduler or
    /// meta-controller timer is due, no armed flood would fire, and the
    /// retirement watchdog cannot trip. Returns the new window start —
    /// always a whole number of windows ahead, so the barrier grid (and
    /// with it every same-cycle ordering decision) is exactly the grid
    /// the per-window loop would have walked.
    ///
    /// Soundness: a window `[t, t+W)` with no event below its bound and
    /// no timer due at it runs `phase_cores`/`step_shards` over nothing,
    /// merges empty outboxes, and skips `run_ticks` — a strict no-op
    /// apart from the barrier bookkeeping, which is also unobservable in
    /// the skipped range: `frozen_ticks` stays 0 (every due is strictly
    /// beyond the range), the stall check is capped below (we never skip
    /// past `last_retire + limit`, so a watchdog error surfaces at the
    /// same barrier bound it always did), and nothing in the range can
    /// change `injected`/`completed`/`last_retire`. The skip target is
    /// held strictly below the first constraint (`limit - 1` in the
    /// divide) so the barrier *at* a due cycle still runs its ticks.
    fn skip_empty_windows(&self, t: Cycle, horizon: Cycle) -> Cycle {
        let mut limit = horizon + 1;
        let mut clamp = |c: Cycle| limit = limit.min(c);
        if let Some(at) = self.events.peek_cycle() {
            clamp(at);
        }
        for shard in &self.shards {
            debug_assert!(shard.inbox.is_empty(), "inboxes drain at every barrier");
            if let Some(at) = shard.events.peek_cycle() {
                clamp(at);
            }
            if let Some(due) = shard.next_tick {
                clamp(due);
            }
        }
        if let Some(due) = self.meta_tick {
            clamp(due);
        }
        if let Some(fault) = self.chaos_flood {
            clamp(fault.at);
        }
        if let Some(stall) = self.stall_limit {
            if self.injected > self.completed {
                clamp(self.last_retire.saturating_add(stall).saturating_add(1));
            }
        }
        if limit <= t {
            return t;
        }
        let windows = (limit - 1 - t) / self.window;
        t + windows * self.window
    }

    fn stall_report(&self) -> StallReport {
        // No specific culprit known: attribute the controller with the
        // deepest backlog (queues + spill), ties to the lowest index —
        // on a multi-controller machine that is where progress died.
        let suspect = (self.shards.len() > 1).then(|| {
            let load = |s: &Shard| {
                s.channels.iter().map(|ch| ch.queue().len()).sum::<usize>()
                    + s.spill.iter().map(VecDeque::len).sum::<usize>()
            };
            self.shards
                .iter()
                .enumerate()
                .max_by_key(|(i, s)| (load(s), Reverse(*i)))
                .map_or(0, |(i, _)| i)
        });
        self.stall_report_for(suspect)
    }

    /// A stall report attributing `controller` (when known and the
    /// machine actually has more than one).
    fn stall_report_for(&self, controller: Option<usize>) -> StallReport {
        StallReport {
            controller: controller
                .filter(|_| self.shards.len() > 1)
                .map(ControllerId::new),
            now: self.now,
            last_retire: self.last_retire,
            events_since_retire: self.events_since_retire,
            outstanding: self.cores.iter().map(Core::outstanding).collect(),
            queue_depths: self
                .shards
                .iter()
                .flat_map(|s| s.channels.iter().map(|ch| ch.queue().len()))
                .collect(),
            spill_depths: self
                .shards
                .iter()
                .flat_map(|s| s.spill.iter().map(VecDeque::len))
                .collect(),
            busy_banks: self
                .shards
                .iter()
                .flat_map(|s| s.channels.iter().map(Channel::busy_bank_count))
                .collect(),
        }
    }

    /// Folds the run's final counters into the metrics registry, with
    /// per-controller labels alongside the global aggregates.
    fn absorb_metrics(&self, run: &RunResult) {
        self.telemetry.with_metrics(|m| {
            m.set_counter("requests_serviced", run.total_serviced);
            m.set_counter("requests_spilled", run.spilled);
            m.set_counter("peak_queue_depth", run.peak_queue as u64);
            m.set_gauge("row_hit_rate", run.row_hit_rate);
            for (i, shard) in self.shards.iter().enumerate() {
                let midx = i.to_string();
                let mlabel: &[(&str, &str)] = &[("controller", &midx)];
                let serviced: u64 =
                    shard.channels.iter().map(|c| c.stats().total_serviced()).sum();
                let hits: u64 = shard.channels.iter().map(|c| c.stats().total_row_hits()).sum();
                let busy: u64 = shard.channels.iter().map(|c| c.stats().bus_busy_cycles).sum();
                m.set_counter(&labeled("requests_serviced", mlabel), serviced);
                m.set_counter(&labeled("bus_busy_cycles", mlabel), busy);
                m.set_gauge(
                    &labeled("bus_utilization", mlabel),
                    busy as f64 / (run.cycles.max(1) as f64 * shard.channels.len() as f64),
                );
                m.set_gauge(
                    &labeled("row_hit_rate", mlabel),
                    if serviced == 0 {
                        0.0
                    } else {
                        hits as f64 / serviced as f64
                    },
                );
                for ch in &shard.channels {
                    let stats = ch.stats();
                    let cidx = ch.id().to_string();
                    let labels: &[(&str, &str)] = &[("controller", &midx), ("channel", &cidx)];
                    m.set_counter(&labeled("bus_busy_cycles", labels), stats.bus_busy_cycles);
                    m.set_gauge(
                        &labeled("bus_utilization", labels),
                        stats.bus_busy_cycles as f64 / run.cycles.max(1) as f64,
                    );
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
        let channels = || self.shards.iter().flat_map(|s| s.channels.iter());
        let total_serviced: u64 = channels().map(|c| c.stats().total_serviced()).sum();
        let total_hits: u64 = channels().map(|c| c.stats().total_row_hits()).sum();
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
            spilled: self.shards.iter().map(|s| s.spilled).sum(),
            peak_queue: channels()
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
    use crate::PolicyKind;
    use tcm_core::TcmParams;
    use tcm_types::Topology;
    use tcm_workload::{random_workload, BenchmarkProfile};

    fn cfg(threads: usize, topology: Topology) -> SystemConfig {
        SystemConfig::builder()
            .num_threads(threads)
            .topology(topology)
            .build()
            .unwrap()
    }

    fn build(cfg: &SystemConfig, policy: &PolicyKind, workload: &WorkloadSpec) -> MultiSystem {
        let n = cfg.num_threads;
        let controllers = (0..cfg.topology.num_controllers())
            .map(|_| policy.build_controller(n, cfg))
            .collect();
        MultiSystem::new(cfg, workload, controllers, policy.build_meta(n, cfg), 7)
    }

    /// TCM with quanta short enough that a test-sized run crosses
    /// several meta-controller exchanges.
    fn fast_tcm(threads: usize) -> PolicyKind {
        let mut params = TcmParams::paper_default(threads);
        params.quantum = 20_000;
        PolicyKind::Tcm(params)
    }

    #[test]
    fn sharded_execution_is_bit_identical_to_sequential() {
        let cfg = cfg(6, Topology::uniform(3, 2));
        let w = random_workload(11, 6, 0.75);
        let policy = fast_tcm(6);
        let mut sequential = build(&cfg, &policy, &w);
        sequential.set_hosts(1);
        let baseline = sequential.run(120_000);
        for hosts in [2, 3, 8] {
            let mut sharded = build(&cfg, &policy, &w);
            sharded.set_hosts(hosts);
            assert_eq!(
                sharded.run(120_000),
                baseline,
                "hosts={hosts} must be bit-identical to sequential"
            );
        }
        assert!(baseline.total_serviced > 0);
    }

    #[test]
    fn reruns_are_deterministic() {
        let cfg = cfg(4, Topology::asymmetric([3, 1]));
        let w = random_workload(3, 4, 0.75);
        let a = build(&cfg, &PolicyKind::FrFcfs, &w).run(80_000);
        let b = build(&cfg, &PolicyKind::FrFcfs, &w).run(80_000);
        assert_eq!(a, b);
    }

    #[test]
    fn uncoordinated_policies_run_per_controller_timers() {
        // ATLAS keeps its own quantum timer in each controller instance.
        let cfg = cfg(4, Topology::uniform(2, 2));
        let w = random_workload(5, 4, 1.0);
        let policy = PolicyKind::Atlas(tcm_sched::AtlasParams::paper_default());
        let r = build(&cfg, &policy, &w).run(100_000);
        assert!(r.total_serviced > 0);
        assert!(r.ipc.iter().all(|&i| i > 0.0));
    }

    #[test]
    fn coordinated_tcm_crosses_quanta_without_degrading() {
        let cfg = cfg(4, Topology::uniform(2, 1));
        let w = random_workload(9, 4, 1.0);
        let mut sys = build(&cfg, &fast_tcm(4), &w);
        let r = sys.run(100_000); // five 20k-cycle quanta
        assert!(r.total_serviced > 0);
        assert!(
            sys.degradation_events().is_empty(),
            "clean run must not trip the plausibility guard"
        );
        // After the final exchange every controller has harvested and
        // holds broadcast state; a fresh harvest still works.
        for shard in &mut sys.shards {
            assert!(shard.scheduler.quantum_exchange(200_000).is_some());
        }
    }

    #[test]
    fn compute_only_workload_drains_cleanly() {
        let cfg = cfg(2, Topology::uniform(2, 1));
        let w = WorkloadSpec::new(
            "idle",
            vec![
                BenchmarkProfile::new("idle-a", 0.0, 0.5, 1.0),
                BenchmarkProfile::new("idle-b", 0.0, 0.5, 1.0),
            ],
        );
        let r = build(&cfg, &PolicyKind::FrFcfs, &w).run(10_000);
        assert_eq!(r.retired, vec![30_000, 30_000]);
        assert_eq!(r.total_serviced, 0);
    }

    #[test]
    fn verification_is_observation_only() {
        let cfg = cfg(4, Topology::uniform(2, 2));
        let w = random_workload(2, 4, 0.75);
        let plain = build(&cfg, &PolicyKind::FrFcfs, &w).run(60_000);
        let mut verified = build(&cfg, &PolicyKind::FrFcfs, &w);
        verified.enable_verification();
        assert_eq!(verified.try_run(60_000).unwrap(), plain);
    }
}

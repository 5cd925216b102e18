//! Per-layer probes: the engine figures of a traced sweep, and timed
//! calls into the kernel layers (event queue, trace generation, request
//! queue, bank mask, each policy's `pick`, TCM's quantum work) on
//! inputs shaped like the workload's grid.

use crate::report::Report;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use tcm_core::{cluster_threads, niceness_scores, InsertionShuffler, InsertionVariant};
use tcm_dram::{BankArray, BankSet, RequestQueue};
use tcm_sched::PickContext;
use tcm_sim::{Event, EventQueue, PolicyKind, SweepResult};
use tcm_types::{
    BankId, ChannelId, DramTiming, MemAddress, Request, RequestId, Row, SystemConfig, ThreadId,
};
use tcm_workload::{BenchmarkProfile, MachineShape, TraceGenerator};

/// Timed batches per kernel; the reported figure is their median.
const BATCHES: usize = 7;
/// The paper lineup's policies by metric suffix.
const POLICIES: [&str; 5] = ["fr-fcfs", "stfm", "par-bs", "atlas", "tcm"];

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    crate::stats::Summary::of(values).map_or(0.0, |s| s.median)
}

/// Wall seconds of each cell of a serial sweep, by policy label.
#[derive(Debug, Default)]
pub struct CellTimes(BTreeMap<String, Vec<f64>>);

impl CellTimes {
    /// Adds one cell's seconds.
    pub fn push(&mut self, label: &str, secs: f64) {
        self.0
            .entry(label.to_ascii_lowercase())
            .or_default()
            .push(secs);
    }
}

/// The engine-layer figures of a traced serial sweep.
pub fn sim_metrics(report: &mut Report, result: &SweepResult, times: &CellTimes) {
    for policy in POLICIES {
        let cells = times.0.get(policy).map_or(&[][..], Vec::as_slice);
        report.put(
            format!("sim.cell_ms.{policy}"),
            "ms",
            median(cells) * 1e3,
            format!("median of {} cells", cells.len()),
        );
    }
    let runs: Vec<_> = result.cells().iter().map(|c| &c.result.run).collect();
    let serviced: u64 = runs.iter().map(|r| r.total_serviced).sum();
    let retired: u64 = runs.iter().map(|r| r.retired.iter().sum::<u64>()).sum();
    let hits: f64 = runs
        .iter()
        .map(|r| r.row_hit_rate * r.total_serviced as f64)
        .sum();
    let cell_s: f64 = times.0.values().flatten().sum();
    report.put(
        "sim.ns_per_req",
        "ns",
        cell_s * 1e9 / serviced as f64,
        "cell wall time / serviced requests",
    );
    report.put(
        "sim.retired_instr",
        "count",
        retired as f64,
        "exact: sum of RunResult.retired",
    );
    report.put(
        "sim.serviced_reqs",
        "count",
        serviced as f64,
        "exact: sum of RunResult.total_serviced",
    );
    report.put(
        "sim.peak_queue",
        "count",
        runs.iter().map(|r| r.peak_queue).max().unwrap_or(0) as f64,
        "exact: max RunResult.peak_queue",
    );
    report.put(
        "dram.row_hit_rate",
        "ratio",
        hits / serviced as f64,
        "exact: serviced-weighted row_hit_rate",
    );
    report.put(
        "sweep.failed_cells",
        "count",
        result.failures().len() as f64,
        "SweepResult::failures",
    );
}

/// The request-buffer depth the grid's cells ran at (median peak).
pub fn observed_depth(result: &SweepResult) -> usize {
    let peaks: Vec<f64> = result
        .cells()
        .iter()
        .map(|c| c.result.run.peak_queue as f64)
        .collect();
    (median(&peaks) as usize).clamp(1, 128)
}

/// Times `op` in `BATCHES` batches of `iters` calls, recording one span
/// over all of them; returns the median ns per call.
pub fn time_op(
    tr: &mut Tracer,
    name: &str,
    layer: &'static str,
    iters: usize,
    mut op: impl FnMut() -> usize,
) -> f64 {
    let start = Instant::now();
    let mut per_call = Vec::with_capacity(BATCHES);
    for _ in 0..BATCHES {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(op());
        }
        per_call.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    tr.record(name, layer, None, 0, start, Instant::now());
    median(&per_call)
}

fn request(i: u64, threads: usize, banks: usize) -> Request {
    Request::new(
        RequestId::new(i),
        ThreadId::new((i % threads as u64) as usize),
        MemAddress::new(
            ChannelId::new(0),
            BankId::new((i % banks as u64) as usize),
            Row::new((i % 64) as usize),
        ),
        i,
    )
}

/// Times every kernel layer on inputs shaped like the grid: `cfg`'s
/// thread and bank counts, the workload's `profiles`, and the observed
/// request-buffer `depth`.
pub fn kernels(
    tr: &mut Tracer,
    report: &mut Report,
    cfg: &SystemConfig,
    profiles: &[BenchmarkProfile],
    depth: usize,
) {
    let threads = cfg.num_threads;
    let banks = cfg.banks_per_channel;
    let channels = cfg.num_channels();
    report.define(
        "kernel_shape",
        format!("{threads} threads, {channels} channels x {banks} banks, queue depth {depth}"),
    );

    // Event queue: lane events (completions, bank-ready) per channel in
    // nondecreasing cycle order plus core bursts on the heap, kept at a
    // steady size; one push and one pop per call.
    let mut queue = EventQueue::new();
    for t in 0..threads {
        queue.push(
            t as u64 * 17,
            Event::CoreBurst {
                thread: ThreadId::new(t),
                epoch: 0,
            },
        );
    }
    let mut now = 0u64;
    let mut i = 0u64;
    let ns = time_op(
        tr,
        "EventQueue push + pop_at_or_before",
        "sim.event",
        20_000,
        || {
            i += 1;
            now += 3;
            let channel = ChannelId::new((i % channels as u64) as usize);
            let event = match i % 4 {
                0 => Event::CoreBurst {
                    thread: ThreadId::new((i % threads as u64) as usize),
                    epoch: i,
                },
                1 => Event::BankReady {
                    channel,
                    bank: BankId::new((i % banks as u64) as usize),
                },
                _ => {
                    let mut r = request(i, threads, banks);
                    r.addr.channel = channel;
                    Event::Completion { request: r }
                }
            };
            let at = match event {
                Event::CoreBurst { .. } => now + (i * 7919) % 400,
                Event::BankReady { .. } => now + 100,
                _ => now + 150,
            };
            queue.push(at, event);
            usize::from(queue.pop_at_or_before(u64::MAX).is_some())
        },
    );
    report.put(
        "sim.event_push_pop_ns",
        "ns",
        ns,
        format!("median of {BATCHES} batches of 20000; {threads} heap + lane events"),
    );

    // Trace generation over the workload's (non compute-only) profiles.
    let shape = MachineShape::from(cfg);
    let mut generators: Vec<TraceGenerator> = profiles
        .iter()
        .filter(|p| !TraceGenerator::is_compute_only(p))
        .enumerate()
        .map(|(k, p)| TraceGenerator::new(p, shape, k as u64 + 1))
        .collect();
    let mut out = Vec::new();
    let mut k = 0;
    let n = generators.len();
    let ns = time_op(
        tr,
        "TraceGenerator::next_burst_into",
        "workload",
        20_000,
        || {
            k = (k + 1) % n;
            generators[k].next_burst_into(&mut out) as usize
        },
    );
    report.put(
        "workload.next_burst_ns",
        "ns",
        ns,
        format!("median of {BATCHES} batches of 20000 over {n} profiles"),
    );

    // Request queue at the observed depth: fill, then drain bank by bank.
    let mut q = RequestQueue::new(cfg.request_buffer.max(depth), banks);
    let (mut push, mut take) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut id = 0u64;
    for _ in 0..2_000 {
        let t0 = Instant::now();
        for _ in 0..depth {
            id += 1;
            q.push(request(id, threads, banks))
                .expect("depth within capacity");
        }
        let t1 = Instant::now();
        let mut bank = 0;
        while !q.is_empty() {
            bank = (bank + 1) % banks;
            black_box(q.take_for_bank(BankId::new(bank), 0));
        }
        push.push((t1 - t0).as_nanos() as f64 / depth as f64);
        take.push(t1.elapsed().as_nanos() as f64 / depth as f64);
    }
    tr.record(
        "RequestQueue push/take_for_bank",
        "dram",
        None,
        0,
        start,
        Instant::now(),
    );
    report.put(
        "dram.queue_push_ns",
        "ns",
        median(&push),
        format!("median of 2000 fills to depth {depth}"),
    );
    report.put(
        "dram.queue_take_ns",
        "ns",
        median(&take),
        format!("median of 2000 drains from depth {depth}"),
    );

    // Bank mask: half the banks mid-service, the rest ready now or soon.
    let timing = DramTiming::ddr2_800();
    let mut array = BankArray::new(banks);
    let mut pending = BankSet::default();
    for b in 0..banks {
        let bank = BankId::new(b);
        pending.insert(bank);
        let service = array.begin_service(bank, Row::new(b % 16), 0, &timing);
        if b >= banks / 2 {
            array.finish_service(bank, service.access_done + if b % 2 == 0 { 0 } else { 50 });
        }
    }
    let ns = time_op(tr, "BankArray::schedulable", "dram", 50_000, || {
        array
            .schedulable(black_box(pending), black_box(300))
            .iter()
            .count()
    });
    report.put(
        "dram.bank_schedulable_ns",
        "ns",
        ns,
        format!("median of {BATCHES} batches of 50000, {banks} banks"),
    );

    // Each policy's pick on one bank's share of the observed queue.
    let per_bank = (depth / banks).max(1);
    let snapshot: Vec<Request> = (0..per_bank as u64)
        .map(|i| {
            let mut r = request(i * banks as u64, threads, banks);
            r.addr.row = Row::new((i % 7) as usize);
            r
        })
        .collect();
    let ctx = PickContext {
        now: 1_000_000,
        channel: ChannelId::new(0),
        bank: BankId::new(0),
        open_row: Some(Row::new(3)),
    };
    for (name, kind) in POLICIES.iter().zip(PolicyKind::paper_lineup(threads)) {
        let mut policy = kind.build(threads, cfg);
        for r in &snapshot {
            policy.on_enqueue(r, 0);
        }
        let ns = time_op(
            tr,
            &format!("{} pick", kind.label()),
            "sched",
            20_000,
            || policy.pick(&snapshot, &ctx),
        );
        report.put(
            format!("sched.pick_ns.{name}"),
            "ns",
            ns,
            format!("median of {BATCHES} batches of 20000; {per_bank} pending"),
        );
    }

    // TCM's quantum boundary: clustering, niceness, shuffler step.
    let profile = |t: usize| &profiles[t % profiles.len()];
    let mpki: Vec<f64> = (0..threads).map(|t| profile(t).mpki).collect();
    let bw: Vec<u64> = (0..threads)
        .map(|t| (profile(t).mpki * 1_000.0) as u64 + 1)
        .collect();
    let blp: Vec<f64> = (0..threads).map(|t| profile(t).blp).collect();
    let rbl: Vec<f64> = (0..threads).map(|t| profile(t).rbl).collect();
    let ns = time_op(tr, "TCM quantum boundary", "core", 2_000, || {
        let clusters = cluster_threads(&mpki, &bw, 4.0 / 24.0);
        let nice = niceness_scores(&blp, &rbl);
        let entries = clusters
            .bandwidth
            .iter()
            .map(|&t| (t, nice[t.index()]))
            .collect();
        let mut shuffler = InsertionShuffler::with_variant(entries, InsertionVariant::Printed);
        shuffler.advance();
        shuffler.ranking_vec().len()
    });
    report.put(
        "core.quantum_us",
        "us",
        ns / 1e3,
        format!("median of {BATCHES} batches of 2000 over {threads} threads"),
    );
}

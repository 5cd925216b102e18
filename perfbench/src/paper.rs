//! `paper-flat` and `paper-2x2`: the paper's policy lineup × Table 5
//! categories A–D, 24 threads, one-shot through `Session`/`Sweep` with
//! one sweep worker.

use crate::calib;
use crate::probes::{self, CellTimes};
use crate::report::{peak_rss_mb, Report};
use crate::stats::Summary;
use crate::trace::{SpanId, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tcm_sim::{PolicyKind, RunConfig, RunResult, Session, SweepResult};
use tcm_types::{SystemConfig, Topology};
use tcm_workload::{table5_workloads, WorkloadSpec};

/// Simulated cycles per cell: past ATLAS's 10M-cycle quantum, so every
/// policy's ranking has engaged before the horizon.
pub const HORIZON: u64 = 11_000_000;
/// Threads per workload (Table 5).
const THREADS: usize = 24;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// Grid repetitions an untraced run makes at least (so the digest
/// check compares two).
const MIN_REPS: usize = 2;

/// One paper workload.
#[derive(Debug, Clone, Copy)]
pub struct PaperDef {
    /// Memory-system topology spec.
    pub topology: &'static str,
    /// Host threads stepping controller shards.
    pub intra_hosts: usize,
}

/// The flat 4-channel paper-baseline machine (`System` engine).
pub const FLAT: PaperDef = PaperDef {
    topology: "4",
    intra_hosts: 1,
};
/// Two controllers × two channels (`MultiSystem` plus the §5.3
/// meta-controller), sharded over two host threads.
pub const TWO_BY_TWO: PaperDef = PaperDef {
    topology: "2x2",
    intra_hosts: 2,
};

impl PaperDef {
    fn session(&self) -> Session {
        let mut cfg = SystemConfig::paper_baseline();
        cfg.topology = Topology::parse(self.topology).expect("built-in topology spec is valid");
        Session::new(
            RunConfig::builder()
                .system(cfg)
                .horizon(HORIZON)
                .intra_hosts(self.intra_hosts)
                .build(),
        )
    }

    fn define(&self, report: &mut Report, seed: u64) {
        report.define(
            "engine",
            if self.topology == "4" {
                "System (flat)"
            } else {
                "MultiSystem + meta-controller"
            },
        );
        report.define("topology", self.topology);
        report.define("intra_hosts", self.intra_hosts);
        report.define(
            "policies",
            PolicyKind::paper_lineup(THREADS)
                .iter()
                .map(PolicyKind::label)
                .collect::<Vec<_>>()
                .join(","),
        );
        report.define("workloads", "Table 5 A,B,C,D (24 threads each)");
        report.define("horizon_cycles", HORIZON);
        report.define("sweep_seed_axis", seed);
        report.define("sweep_workers", 1);
        report.define("cells_per_grid", 5 * 4);
    }
}

/// FNV-1a over every `RunResult` field of every cell, floats by bit
/// pattern (the same encoding as the golden-fingerprint tests, plus
/// `peak_queue`).
pub fn digest(result: &SweepResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    for cell in result.cells() {
        let run: &RunResult = &cell.result.run;
        eat(run.cycles);
        eat(run.retired.len() as u64);
        run.retired.iter().for_each(|&r| eat(r));
        run.ipc.iter().for_each(|i| eat(i.to_bits()));
        run.misses.iter().for_each(|&m| eat(m));
        run.service.iter().for_each(|&s| eat(s));
        eat(run.total_serviced);
        eat(run.row_hit_rate.to_bits());
        eat(run.spilled);
        eat(run.peak_queue as u64);
    }
    h
}

/// Σ retired instructions and Σ serviced requests over every cell.
pub fn work(result: &SweepResult) -> (u64, u64) {
    result.cells().iter().fold((0, 0), |(i, r), c| {
        (
            i + c.result.run.retired.iter().sum::<u64>(),
            r + c.result.run.total_serviced,
        )
    })
}

fn grid_sweep(session: &Session, seed: u64) -> tcm_sim::Sweep<'_> {
    session
        .sweep()
        .policies(PolicyKind::paper_lineup(THREADS))
        .workloads(table5_workloads())
        .seeds([seed])
}

/// One untraced grid, timed cell by cell with a calibration
/// ([`calib::measure`]) before the first cell and after every cell.
struct TimedGrid {
    result: SweepResult,
    /// Host seconds of each cell, in sweep order.
    host_s: Vec<f64>,
    /// Each cell's host seconds scaled to the reference host's speed,
    /// keyed by (policy, workload).
    scaled: Vec<((usize, usize), f64)>,
}

fn timed_grid(session: &Session, seed: u64) -> TimedGrid {
    type Log = (Instant, f64, Vec<f64>, Vec<((usize, usize), f64)>);
    let before = calib::measure();
    let log: Arc<Mutex<Log>> = Arc::new(Mutex::new((Instant::now(), before, vec![], vec![])));
    let hook = Arc::clone(&log);
    let result = grid_sweep(session, seed)
        .on_cell(move |cell, _| {
            let end = Instant::now();
            let after = calib::measure();
            let mut log = hook.lock().expect("cell log lock");
            let (start, before, host_s, scaled) = &mut *log;
            let dt = (end - *start).as_secs_f64();
            host_s.push(dt);
            scaled.push((
                (cell.policy, cell.workload),
                dt * calib::scale(*before, after),
            ));
            *before = after;
            *start = Instant::now();
        })
        .run();
    let mut log = log.lock().expect("cell log lock");
    let (host_s, scaled) = (std::mem::take(&mut log.2), std::mem::take(&mut log.3));
    TimedGrid {
        result,
        host_s,
        scaled,
    }
}

/// The untraced run: `SETUP_REPS` set-ups, then whole grids until
/// `seconds` are used (at least `MIN_REPS`).
///
/// Every interval is timed between two calibrations and scaled to the
/// reference host's speed (see [`calib`]). `setup_s` is the median of
/// the scaled set-ups. `grid_s` sums, over the grid's cells, the median
/// of each cell's scaled repetitions: a cell is scaled by the host speed
/// measured right around it, so a slow phase is divided out where it
/// happened rather than spread over the run.
pub fn run(def: PaperDef, seed: u64, seconds: u64) -> Report {
    let mut report = Report::default();
    def.define(&mut report, seed);
    let workloads = table5_workloads();

    let (mut setup, mut setup_host) = (Vec::new(), Vec::new());
    let mut session = None;
    let mut before = calib::measure();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = def.session();
        s.prepopulate_alone(workloads.iter());
        let dt = t0.elapsed().as_secs_f64();
        let after = calib::measure();
        setup_host.push(dt);
        setup.push(dt * calib::scale(before, after));
        before = after;
        session = Some(s);
    }
    let session = session.expect("at least one set-up");

    let budget = Duration::from_secs(seconds);
    let (mut grid_host, mut digests, mut calib_s) = (vec![], vec![], vec![]);
    let mut cells: BTreeMap<(usize, usize), Vec<f64>> = BTreeMap::new();
    let started = Instant::now();
    let result = loop {
        let grid = timed_grid(&session, seed);
        report.tally.add(
            grid.result.stats().cells as u64,
            grid.result.stats().failed as u64,
        );
        grid_host.push(grid.host_s.iter().sum::<f64>());
        for (&host, (key, s)) in grid.host_s.iter().zip(grid.scaled) {
            calib_s.push(calib::REFERENCE_S * host / s);
            cells.entry(key).or_default().push(s);
        }
        digests.push(digest(&grid.result));
        let mean = started.elapsed().as_secs_f64() / grid_host.len() as f64;
        if grid_host.len() >= MIN_REPS
            && started.elapsed().as_secs_f64() + mean > budget.as_secs_f64()
        {
            break grid.result;
        }
    };
    report.define("grid_digest", format!("{:#018x}", digests[0]));
    report.check(
        digests.iter().all(|&d| d == digests[0]),
        format!(
            "grid digest identical across {} repetitions: {:x?}",
            digests.len(),
            digests
        ),
    );
    report.check(
        report.tally.failed == 0,
        format!(
            "{} of {} cells failed",
            report.tally.failed, report.tally.attempted
        ),
    );
    report.check(
        cells.len() == result.cells().len() && cells.values().all(|v| v.len() == digests.len()),
        format!(
            "{} cells timed in each of {} grids",
            result.cells().len(),
            digests.len()
        ),
    );

    report.define("calib_reference_s", calib::REFERENCE_S);
    report.put_reps(
        "setup_s",
        "s",
        &setup,
        "set-ups (Session::new + prepopulate_alone), scaled to the reference host",
    );
    let per_cell: Vec<Summary> = cells.values().filter_map(|v| Summary::of(v)).collect();
    let sum = |of: fn(&Summary) -> f64| per_cell.iter().map(of).sum::<f64>();
    let grid_s = sum(|s| s.median);
    let (instr, reqs) = work(&result);
    let reps = format!(
        "sum over {} cells of the median of {} repetitions, scaled to the reference host; per-cell q1 sum {:.6}, q3 sum {:.6}",
        cells.len(),
        digests.len(),
        sum(|s| s.q1),
        sum(|s| s.q3)
    );
    report.put("grid_s", "s", grid_s, &reps);
    report.put("sim_instr_per_s", "1/s", instr as f64 / grid_s, &reps);
    report.put("serviced_req_per_s", "1/s", reqs as f64 / grid_s, &reps);
    report.put(
        "jobs_per_s",
        "1/s",
        1.0 / grid_s,
        format!("one grid = one job; {reps}"),
    );
    report.put_reps("setup_host_s", "s", &setup_host, "set-ups, host seconds");
    report.put_reps(
        "grid_host_s",
        "s",
        &grid_host,
        "grids, host seconds of the cells",
    );
    report.put_reps(
        "calib_s",
        "s",
        &calib_s,
        "reference kernel around each cell (mean of before and after)",
    );
    report.put(
        "peak_rss_mb",
        "MiB",
        peak_rss_mb(),
        "VmHWM of the benchmark process",
    );
    report
}

/// Warms `session`'s alone-IPC cache one profile at a time, recording a
/// span per alone run. Returns (alone seconds, alone runs).
pub fn warm_traced(
    tr: &mut Tracer,
    session: &Session,
    workloads: &[WorkloadSpec],
    parent: SpanId,
) -> (f64, u64) {
    let mut alone_s = 0.0;
    let before = session.alone_cache().misses();
    for profile in workloads.iter().flat_map(|w| &w.threads) {
        let misses = session.alone_cache().misses();
        let t0 = Instant::now();
        let _ = session.alone_ipc(profile);
        if session.alone_cache().misses() > misses {
            let end = Instant::now();
            alone_s += (end - t0).as_secs_f64();
            tr.record(
                format!("alone {}", profile.name),
                "sim.engine",
                Some(parent),
                0,
                t0,
                end,
            );
        }
    }
    (alone_s, session.alone_cache().misses() - before)
}

/// Runs `sweep` serially with an `on_cell` hook and turns consecutive
/// hook timestamps into one span per cell under a `grid` span. Returns
/// the result, the cell times and the grid's seconds.
pub fn traced_sweep(tr: &mut Tracer, sweep: tcm_sim::Sweep<'_>) -> (SweepResult, CellTimes, f64) {
    let stamps: Arc<Mutex<Vec<(Instant, usize, usize)>>> = Arc::default();
    let hook = Arc::clone(&stamps);
    let t0 = Instant::now();
    let result = sweep
        .on_cell(move |cell, _| {
            let now = Instant::now();
            hook.lock()
                .expect("stamp lock")
                .push((now, cell.policy, cell.workload));
        })
        .run();
    let end = Instant::now();
    let root = tr.record("grid", "sim.sweep", None, 1, t0, end);
    let mut times = CellTimes::default();
    let mut prev = t0;
    for (i, &(at, policy, workload)) in stamps.lock().expect("stamp lock").iter().enumerate() {
        let label = &result.policy_labels()[policy];
        let name = format!("cell {label} x {}", result.workload_names()[workload]);
        tr.record(name, "sim.engine", Some(root), i as u64 + 2, prev, at);
        times.push(label, (at - prev).as_secs_f64());
        prev = at;
    }
    (result, times, (end - t0).as_secs_f64())
}

/// The traced run: one set-up, an untraced, a traced and an untraced
/// grid (the gap is the tracing overhead), then the kernel probes.
pub fn run_traced(def: PaperDef, seed: u64, tr: &mut Tracer) -> Report {
    let mut report = Report::default();
    def.define(&mut report, seed);
    let workloads = table5_workloads();

    let setup = tr.open("setup", "bench", None, 0);
    let session = tr.span("Session::new", "sim.sweep", Some(setup), || def.session());
    let (alone_s, alone_runs) = warm_traced(tr, &session, &workloads, setup);
    tr.close(setup);

    // Untraced, traced, untraced: the traced grid is compared with the
    // mean of the two around it, so drift over the run cancels.
    let mut untraced = Vec::new();
    let mut plain = Vec::new();
    let mut traced = None;
    for round in 0..3 {
        if round == 1 {
            traced = Some(traced_sweep(tr, grid_sweep(&session, seed)));
            continue;
        }
        let t0 = Instant::now();
        plain.push(grid_sweep(&session, seed).run());
        untraced.push(t0.elapsed().as_secs_f64());
    }
    let (traced, times, traced_s) = traced.expect("round 1 ran");
    let untraced_s = (untraced[0] + untraced[1]) / 2.0;
    for result in plain.iter().chain([&traced]) {
        report
            .tally
            .add(result.stats().cells as u64, result.stats().failed as u64);
    }
    report.define("grid_digest", format!("{:#018x}", digest(&traced)));
    report.check(
        plain.iter().all(|p| digest(p) == digest(&traced)),
        "grid digest identical with and without the on_cell trace hook",
    );
    report.check(
        report.tally.failed == 0,
        format!(
            "{} of {} cells failed",
            report.tally.failed, report.tally.attempted
        ),
    );

    probes::sim_metrics(&mut report, &traced, &times);
    report.put("sweep.alone_s", "s", alone_s, "alone runs during set-up");
    report.put(
        "sweep.alone_runs",
        "count",
        alone_runs as f64,
        "AloneIpcCache misses",
    );
    report.put(
        "trace.overhead_pct",
        "%",
        (traced_s / untraced_s - 1.0) * 100.0,
        format!("traced grid {traced_s:.4} s vs mean untraced grid {untraced_s:.4} s (before and after)"),
    );
    let depth = probes::observed_depth(&traced);
    let profiles: Vec<_> = workloads.iter().flat_map(|w| w.threads.clone()).collect();
    probes::kernels(
        tr,
        &mut report,
        &SystemConfig::paper_baseline(),
        &profiles,
        depth,
    );
    report
}

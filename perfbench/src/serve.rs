//! `serve-grid`: an in-process `tcm-serve` daemon (one worker) over a
//! pre-seeded WAL history, driven by one closed-loop client that opens
//! a fresh connection per job, submits a small telemetry-on grid and
//! watches it to `JobDone`. Also the service-side layer probes every
//! traced run reports.

use crate::calib;
use crate::paper::{digest, traced_sweep, warm_traced, work};
use crate::probes::{self, median};
use crate::report::{peak_rss_mb, wchar, Report};
use crate::stats::Summary;
use crate::trace::Tracer;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};
use tcm_proto::{Event, JobKind, JobSpec, JobState, Request, Response, SweepSpec, WorkloadRef};
use tcm_serve::job::{render_result, resolve_sweep, write_durable, ResolvedSweep};
use tcm_serve::{Client, Server, ServerConfig, Wal};
use tcm_sim::{RunConfig, Session, Sweep, SweepResult};
use tcm_telemetry::TelemetryConfig;
use tcm_types::SystemConfig;

/// Distinct job specs the client cycles through.
const POOL: usize = 16;
/// Random mixes per job.
const MIXES: usize = 8;
/// Simulator seeds per job.
const SEEDS: usize = 2;
/// Threads per mix.
const MIX_THREADS: u64 = 4;
/// Memory intensity of every mix.
const INTENSITY: f64 = 0.75;
/// Simulated cycles per cell.
const JOB_HORIZON: u64 = 200_000;
/// Finished jobs in the WAL the daemon replays at start.
const HISTORY_JOBS: u64 = 4_000;
/// Daemon start-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Repetitions of every job spec an untraced run makes at least.
const MIN_REPS: usize = 2;
/// Fresh-connection status probes for `serve.first_reply_ms.p50`.
const FIRST_REPLY_PROBES: usize = 20;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The job specs of one run, drawn from the bench seed:
/// `fr-fcfs,tcm` × `MIXES` random 4-thread mixes × `SEEDS` seeds.
pub fn job_pool(seed: u64) -> Vec<JobSpec> {
    (0..POOL as u64)
        .map(|j| {
            let draw = |k: u64| splitmix(seed ^ splitmix(j * 64 + k));
            JobSpec {
                priority: 0,
                deadline_ms: None,
                max_attempts: 1,
                kind: JobKind::Sweep(SweepSpec {
                    policies: vec!["fr-fcfs".into(), "tcm".into()],
                    workloads: (0..MIXES as u64)
                        .map(|m| WorkloadRef::Random {
                            seed: draw(m) % 1_000_000,
                            threads: MIX_THREADS,
                            intensity_bits: INTENSITY.to_bits(),
                        })
                        .collect(),
                    seeds: (0..SEEDS as u64)
                        .map(|s| draw(32 + s) % 1_000_000)
                        .collect(),
                    horizon: JOB_HORIZON,
                    topology: None,
                    telemetry: true,
                }),
            }
        })
        .collect()
}

fn sweep_spec(spec: &JobSpec) -> &SweepSpec {
    match &spec.kind {
        JobKind::Sweep(s) => s,
        JobKind::ChaosSoak(_) => unreachable!("the pool holds sweep jobs only"),
    }
}

fn define(report: &mut Report, seed: u64) {
    report.define("engine", "System (flat), inside tcm-serve");
    report.define(
        "daemon",
        "in-process Server::new + run, 1 worker, log level warn",
    );
    report.define(
        "client",
        "1 closed-loop client, one job outstanding, fresh connection per job",
    );
    report.define("policies", "fr-fcfs,tcm");
    report.define(
        "workloads",
        format!("{MIXES} x random:<drawn from seed {seed}>:{MIX_THREADS}:{INTENSITY}, {POOL} distinct jobs cycled"),
    );
    report.define("seeds_per_job", SEEDS);
    report.define("horizon_cycles", JOB_HORIZON);
    report.define("cells_per_job", 2 * MIXES * SEEDS);
    report.define("telemetry", "on");
    report.define("wal_history_jobs", HISTORY_JOBS);
}

/// A session and resolved grid configured exactly as the daemon's
/// worker configures them for `spec`, with telemetry as given.
fn job_session(spec: &SweepSpec, telemetry: bool) -> (Session, ResolvedSweep) {
    let resolved = resolve_sweep(spec).expect("pool specs resolve");
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = resolved.workloads[0].threads.len();
    let session = Session::new(
        RunConfig::builder()
            .system(cfg)
            .horizon(resolved.horizon)
            .telemetry(telemetry.then(TelemetryConfig::default))
            .build(),
    );
    (session, resolved)
}

fn job_sweep<'s>(session: &'s Session, r: &ResolvedSweep) -> Sweep<'s> {
    session
        .sweep()
        .policies(r.policies.iter().cloned())
        .workloads(r.workloads.iter().cloned())
        .seeds(r.seeds.iter().copied())
}

/// One-shot run of a job's grid, optionally checkpointed.
fn one_shot(spec: &SweepSpec, telemetry: bool, ckpt: Option<&Path>) -> SweepResult {
    let (session, resolved) = job_session(spec, telemetry);
    let sweep = job_sweep(&session, &resolved);
    match ckpt {
        Some(path) => sweep.checkpoint(path).run(),
        None => sweep.run(),
    }
}

/// Expected result document and work of one pool spec.
struct Reference {
    document: String,
    retired: u64,
    serviced: u64,
}

fn references(pool: &[JobSpec]) -> Vec<Reference> {
    pool.iter()
        .map(|spec| {
            let s = sweep_spec(spec);
            let result = one_shot(s, s.telemetry, None);
            let (retired, serviced) = work(&result);
            Reference {
                document: render_result(&result),
                retired,
                serviced,
            }
        })
        .collect()
}

/// Writes a WAL holding `HISTORY_JOBS` finished jobs, through the
/// public `Wal` API.
fn seed_history(path: &Path, pool: &[JobSpec]) -> io::Result<()> {
    let _ = fs::remove_file(path);
    let (mut wal, _) = Wal::open(path)?;
    for id in 1..=HISTORY_JOBS {
        wal.submit(id, id - 1, &pool[id as usize % pool.len()])?;
        wal.start(id)?;
        wal.finish(id, JobState::Done)?;
    }
    Ok(())
}

/// An in-process daemon on its own thread.
struct Daemon {
    socket: PathBuf,
    state: PathBuf,
    drain: Arc<AtomicBool>,
    handle: Option<JoinHandle<io::Result<i32>>>,
}

impl Daemon {
    /// Copies the history WAL into a fresh state dir and starts a
    /// daemon on it. Returns the daemon and the seconds from
    /// `Server::new` until a fresh connection got its first reply.
    fn start(dir: &Path, tag: &str, history: &Path) -> io::Result<(Self, f64)> {
        let state = dir.join(format!("state-{tag}"));
        let _ = fs::remove_dir_all(&state);
        fs::create_dir_all(&state)?;
        fs::copy(history, state.join("wal.jsonl"))?;
        let socket = dir.join(format!("{tag}.sock"));
        let t0 = Instant::now();
        let server = Server::new(ServerConfig {
            socket: socket.clone(),
            state_dir: state.clone(),
            workers: 1,
            queue_capacity: 64,
            drain_deadline: Duration::from_secs(10),
            metrics_file: None,
        })?;
        let drain = server.drain_flag();
        let handle = thread::Builder::new()
            .name(format!("daemon-{tag}"))
            .spawn(move || server.run())?;
        let daemon = Self {
            socket,
            state,
            drain,
            handle: Some(handle),
        };
        Client::connect(&daemon.socket)?.status(Some(1))?;
        Ok((daemon, t0.elapsed().as_secs_f64()))
    }

    /// Drains the daemon and waits for its thread.
    fn stop(mut self) -> io::Result<()> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> io::Result<()> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        // The server-local drain flag, not a `Drain` frame: shutting down
        // must not depend on the socket still answering.
        self.drain.store(true, Ordering::SeqCst);
        let code = handle
            .join()
            .map_err(|_| io::Error::other("daemon thread panicked"))??;
        if code != 0 {
            return Err(io::Error::other(format!("daemon exited with code {code}")));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

/// What the client saw of one job.
#[derive(Debug, Clone, Default)]
struct JobSample {
    spec: usize,
    id: u64,
    done: bool,
    /// Connect → `Submitted`.
    ack_ms: f64,
    /// Submit → first `CellResult`.
    first_ms: Option<f64>,
    /// Submit → `JobDone`.
    job_ms: f64,
    /// `Submitted` → `JobDone`: the daemon running the grid.
    grid_s: f64,
}

fn one_job(
    socket: &Path,
    spec_idx: usize,
    spec: &JobSpec,
    tr: Option<&mut Tracer>,
    group: u64,
) -> JobSample {
    let mut sample = JobSample {
        spec: spec_idx,
        ..JobSample::default()
    };
    let t0 = Instant::now();
    let Ok(mut client) = Client::connect(socket) else {
        return sample;
    };
    let t_sub = Instant::now();
    let Ok(id) = client.submit(spec.clone()) else {
        return sample;
    };
    let t_ack = Instant::now();
    let mut first = None;
    let outcome = client.watch(id, |ev| {
        if first.is_none() && matches!(ev, Event::CellResult { .. }) {
            first = Some(Instant::now());
        }
    });
    let t_done = Instant::now();
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    sample.id = id;
    sample.done = matches!(outcome, Ok((JobState::Done, _)));
    sample.ack_ms = ms(t0, t_ack);
    sample.first_ms = first.map(|f| ms(t_sub, f));
    sample.job_ms = ms(t_sub, t_done);
    sample.grid_s = (t_done - t_ack).as_secs_f64();
    if let Some(tr) = tr {
        let root = tr.record(format!("job {id}"), "bench", None, group, t0, t_done);
        tr.record("connect + submit", "serve", Some(root), group, t0, t_ack);
        let f = first.unwrap_or(t_ack);
        tr.record(
            "queue + alone runs + first cell",
            "serve",
            Some(root),
            group,
            t_ack,
            f,
        );
        tr.record("cells + publish", "serve", Some(root), group, f, t_done);
    }
    sample
}

/// Runs jobs back to back until `more(jobs_done, elapsed)` says stop.
/// Times the reference kernel between jobs and returns each job's
/// host-speed factor ([`calib::scale`]).
fn closed_loop(
    daemon: &Daemon,
    pool: &[JobSpec],
    mut tr: Option<&mut Tracer>,
    more: impl Fn(usize, Duration) -> bool,
) -> (Vec<JobSample>, Vec<f64>, f64) {
    let t0 = Instant::now();
    let (mut samples, mut factors) = (Vec::new(), Vec::new());
    let mut before = calib::measure();
    while more(samples.len(), t0.elapsed()) {
        let i = samples.len();
        let group = 10_000 + i as u64;
        samples.push(one_job(
            &daemon.socket,
            i % pool.len(),
            &pool[i % pool.len()],
            tr.as_deref_mut(),
            group,
        ));
        let after = calib::measure();
        factors.push(calib::scale(before, after));
        before = after;
    }
    (samples, factors, t0.elapsed().as_secs_f64())
}

/// Checks every finished job's result file against the one-shot
/// reference of its grid, and tallies the jobs.
fn check_jobs(report: &mut Report, state: &Path, samples: &[JobSample], refs: &[Reference]) {
    let mut mismatched = Vec::new();
    for s in samples {
        if !s.done {
            report.tally.fail();
            continue;
        }
        report.tally.ok();
        let path = state.join(format!("job-{}.result.json", s.id));
        if fs::read_to_string(&path).ok().as_deref() != Some(refs[s.spec].document.as_str()) {
            mismatched.push(s.id);
        }
    }
    let done = samples.iter().filter(|s| s.done).count();
    report.check(
        done == samples.len(),
        format!("{done} of {} jobs reached Done", samples.len()),
    );
    report.check(
        mismatched.is_empty(),
        format!(
            "{} result files byte-equal to render_result of a one-shot Sweep (mismatched ids: {mismatched:?})",
            done - mismatched.len()
        ),
    );
}

fn job_ms(samples: &[JobSample]) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.done)
        .map(|s| s.job_ms)
        .collect()
}

/// The untraced `serve-grid` run.
///
/// As in the paper workloads, every interval is scaled to the reference
/// host's speed ([`calib`]): `setup_s` is the median scaled start-up,
/// and each of the `POOL` job specs contributes the median of its
/// scaled repetitions to `jobs_per_s` (connect to `JobDone`) and to
/// `grid_s` and the work rates (`Submitted` to `JobDone`).
pub fn run(seed: u64, seconds: u64, dir: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    define(&mut report, seed);
    let pool = job_pool(seed);
    let history = dir.join("history.wal");
    seed_history(&history, &pool)?;

    let (mut setup, mut setup_host) = (Vec::new(), Vec::new());
    let mut daemon = None;
    let mut before = calib::measure();
    for k in 0..SETUP_REPS {
        let (d, s) = Daemon::start(dir, &format!("d{k}"), &history)?;
        let after = calib::measure();
        setup_host.push(s);
        setup.push(s * calib::scale(before, after));
        before = after;
        if let Some(previous) = daemon.replace(d) {
            previous.stop()?;
        }
    }
    let daemon = daemon.expect("at least one set-up");
    let budget = Duration::from_secs(seconds);
    let (samples, factors, wall) = closed_loop(&daemon, &pool, None, |done, elapsed| {
        elapsed < budget || done < MIN_REPS * pool.len()
    });
    let state = daemon.state.clone();
    daemon.stop()?;
    // Taken before the one-shot reference sweeps, which belong to the
    // checker, not to the workload.
    let peak_rss = peak_rss_mb();

    let refs = references(&pool);
    check_jobs(&mut report, &state, &samples, &refs);
    let done: Vec<(&JobSample, f64)> = samples
        .iter()
        .zip(factors)
        .filter(|(s, _)| s.done)
        .collect();
    // Per spec: the medians of its scaled job and grid seconds.
    let (mut jobs_total, mut grids_total, mut retired, mut serviced) = (0.0, 0.0, 0, 0);
    let mut reps = usize::MAX;
    for (k, r) in refs.iter().enumerate() {
        let of_spec = || done.iter().filter(|(s, _)| s.spec == k);
        let jobs: Vec<f64> = of_spec()
            .map(|(s, f)| (s.ack_ms / 1e3 + s.grid_s) * f)
            .collect();
        let grids: Vec<f64> = of_spec().map(|(s, f)| s.grid_s * f).collect();
        reps = reps.min(jobs.len());
        jobs_total += Summary::of(&jobs).map_or(f64::NAN, |s| s.median);
        grids_total += Summary::of(&grids).map_or(f64::NAN, |s| s.median);
        retired += r.retired;
        serviced += r.serviced;
    }
    report.check(
        reps >= MIN_REPS,
        format!("every job spec ran at least {MIN_REPS} times (fewest: {reps})"),
    );

    report.define("calib_reference_s", calib::REFERENCE_S);
    report.put_reps(
        "setup_s",
        "s",
        &setup,
        "daemon start-ups (Server::new until a fresh connection's first reply), scaled to the reference host",
    );
    let per_spec = format!(
        "{} job specs, median of at least {reps} repetitions each, scaled to the reference host",
        pool.len()
    );
    report.put(
        "grid_s",
        "s",
        grids_total / pool.len() as f64,
        format!("mean over {per_spec}"),
    );
    report.put(
        "sim_instr_per_s",
        "1/s",
        retired as f64 / grids_total,
        &per_spec,
    );
    report.put(
        "serviced_req_per_s",
        "1/s",
        serviced as f64 / grids_total,
        &per_spec,
    );
    report.put(
        "jobs_per_s",
        "1/s",
        pool.len() as f64 / jobs_total,
        &per_spec,
    );
    report.put(
        "peak_rss_mb",
        "MiB",
        peak_rss,
        "VmHWM of the benchmark process, daemon included",
    );
    report.put_reps(
        "setup_host_s",
        "s",
        &setup_host,
        "daemon start-ups, host seconds",
    );
    let calib_s: Vec<f64> = done.iter().map(|(_, f)| calib::REFERENCE_S / f).collect();
    report.put_reps(
        "calib_s",
        "s",
        &calib_s,
        "reference kernel around each job (mean of before and after)",
    );
    report.put(
        "jobs_host_per_s",
        "1/s",
        done.len() as f64 / wall,
        format!(
            "{} jobs in {wall:.3} host seconds, calibrations included",
            done.len()
        ),
    );
    let acks: Vec<f64> = done.iter().map(|(s, _)| s.ack_ms).collect();
    let firsts: Vec<f64> = done.iter().filter_map(|(s, _)| s.first_ms).collect();
    let jobs = job_ms(&samples);
    for (name, values) in [
        ("submit_ack_ms", &acks),
        ("first_result_ms", &firsts),
        ("job_ms", &jobs),
    ] {
        report.put_pct(&format!("{name}.p50"), "ms", values, 0.5);
        report.put_pct(&format!("{name}.p90"), "ms", values, 0.9);
    }
    Ok(report)
}

/// The traced `serve-grid` run: the daemon loop (plain and traced, for
/// the tracing overhead), the engine layer on the job's shape, and the
/// probes every traced run reports.
pub fn run_traced(seed: u64, dir: &Path, tr: &mut Tracer) -> io::Result<Report> {
    let mut report = Report::default();
    define(&mut report, seed);
    let pool = job_pool(seed);

    // The engine layer on this workload: the job's mixes and seeds
    // under the whole paper lineup, serially, telemetry as in the job.
    let mut lineup = sweep_spec(&pool[0]).clone();
    lineup.policies.clear();
    let (session, resolved) = job_session(&lineup, lineup.telemetry);
    let setup = tr.open("warm alone IPCs", "bench", None, 0);
    let (alone_s, alone_runs) = warm_traced(tr, &session, &resolved.workloads, setup);
    tr.close(setup);
    let (result, times, _) = traced_sweep(tr, job_sweep(&session, &resolved));
    report
        .tally
        .add(result.stats().cells as u64, result.stats().failed as u64);
    report.define("lineup_digest", format!("{:#018x}", digest(&result)));
    probes::sim_metrics(&mut report, &result, &times);
    report.put(
        "sweep.alone_s",
        "s",
        alone_s,
        "alone runs of the job's mixes",
    );
    report.put(
        "sweep.alone_runs",
        "count",
        alone_runs as f64,
        "AloneIpcCache misses",
    );
    let profiles: Vec<_> = resolved
        .workloads
        .iter()
        .flat_map(|w| w.threads.clone())
        .collect();
    let mut cfg = SystemConfig::paper_baseline();
    cfg.num_threads = MIX_THREADS as usize;
    probes::kernels(
        tr,
        &mut report,
        &cfg,
        &profiles,
        probes::observed_depth(&result),
    );

    service_probes(tr, &mut report, dir, seed, 40, 40)?;
    Ok(report)
}

/// The service-side probes every traced run reports: WAL replay and
/// append, result publish, one-shot checkpoint and telemetry cost, the
/// codec, and a daemon closed loop of `plain` untraced then `traced`
/// traced jobs (with `traced > 0` its p50 gap is `trace.overhead_pct`).
pub fn service_probes(
    tr: &mut Tracer,
    report: &mut Report,
    dir: &Path,
    seed: u64,
    plain: usize,
    traced: usize,
) -> io::Result<()> {
    let pool = job_pool(seed);
    let history = dir.join("history.wal");
    tr.span("seed WAL history", "bench", None, || {
        seed_history(&history, &pool)
    })?;

    let (mut replay, mut found) = (Vec::new(), Vec::new());
    for k in 0..3 {
        let copy = dir.join(format!("replay-{k}.wal"));
        fs::copy(&history, &copy)?;
        let t0 = Instant::now();
        let (_, jobs) = Wal::open(&copy)?;
        let end = Instant::now();
        tr.record("Wal::open", "serve", None, 0, t0, end);
        replay.push((end - t0).as_secs_f64() * 1e3);
        found.push(jobs.len());
    }
    report.check(
        found.iter().all(|&n| n as u64 == HISTORY_JOBS),
        format!("WAL replay found {found:?} of {HISTORY_JOBS} jobs"),
    );
    report.put(
        "serve.wal_replay_ms",
        "ms",
        median(&replay),
        format!("median of 3 Wal::open over {HISTORY_JOBS} finished jobs"),
    );

    let (mut wal, _) = Wal::open(dir.join("scratch.wal"))?;
    let mut append = Vec::new();
    for id in 1..=50 {
        let t0 = Instant::now();
        wal.submit(id, id, &pool[0])?;
        let end = Instant::now();
        tr.record("Wal::submit", "serve", None, 0, t0, end);
        append.push((end - t0).as_secs_f64() * 1e3);
    }
    report.put(
        "serve.wal_append_ms",
        "ms",
        median(&append),
        "median of 50 Wal::submit (fsynced) on a scratch WAL",
    );

    let (d, _) = tr.span(
        "Daemon::start (copy WAL, Server::new, first reply)",
        "serve",
        None,
        || Daemon::start(dir, "probe", &history),
    )?;
    let (plain_jobs, _, _) = closed_loop(&d, &pool, None, |n, _| n < plain);
    let (traced_jobs, _, _) = closed_loop(&d, &pool, Some(tr), |n, _| n < traced);
    let mut first_reply = Vec::new();
    for _ in 0..FIRST_REPLY_PROBES {
        let t0 = Instant::now();
        Client::connect(&d.socket)?.status(Some(1))?;
        first_reply.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let scrape = Client::connect(&d.socket)?.metrics()?;
    let state = d.state.clone();
    d.stop()?;
    report.put_pct("serve.first_reply_ms.p50", "ms", &first_reply, 0.5);

    let refs = references(&pool);
    let all: Vec<JobSample> = plain_jobs.iter().chain(&traced_jobs).cloned().collect();
    check_jobs(report, &state, &all, &refs);
    let counter = |name: &str| {
        scrape
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    report.put(
        "serve.wal_bytes_per_job",
        "B",
        counter("tcm_serve_wal_appended_bytes_total") / all.len() as f64,
        format!("tcm_serve_wal_appended_bytes_total over {} jobs", all.len()),
    );
    report.put(
        "serve.cell_retries",
        "count",
        counter("tcm_serve_cell_retries_total"),
        "tcm_serve_cell_retries_total",
    );

    let oneshot_ckpt_ms = sweep_probes(tr, report, dir, &pool)?;
    let daemon_p50 = crate::stats::percentile(&job_ms(&plain_jobs), 0.5);
    if let Ok(p50) = daemon_p50 {
        report.put(
            "serve.daemon_overhead_pct",
            "%",
            (p50 / oneshot_ckpt_ms - 1.0) * 100.0,
            format!("daemon job_ms.p50 {p50:.3} ms ({} jobs) vs one-shot checkpointed {oneshot_ckpt_ms:.3} ms", plain_jobs.len()),
        );
    }
    if traced > 0 {
        if let (Ok(a), Ok(b)) = (
            daemon_p50,
            crate::stats::percentile(&job_ms(&traced_jobs), 0.5),
        ) {
            report.put(
                "trace.overhead_pct",
                "%",
                (b / a - 1.0) * 100.0,
                format!("traced job_ms.p50 {b:.3} ms vs untraced {a:.3} ms"),
            );
        }
    }

    let document = &refs[0].document;
    let target = dir.join("publish-probe.result.json");
    let mut publish = Vec::new();
    for _ in 0..20 {
        let t0 = Instant::now();
        write_durable(&target, document)?;
        publish.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    report.put(
        "serve.result_publish_ms",
        "ms",
        median(&publish),
        format!(
            "median of 20 write_durable of a {} B result",
            document.len()
        ),
    );
    Ok(())
}

/// One-shot sweeps of the job shape: checkpoint and telemetry cost, and
/// the codec on the job's own frames. Returns the median one-shot
/// checkpointed job time in ms over the pool.
fn sweep_probes(
    tr: &mut Tracer,
    report: &mut Report,
    dir: &Path,
    pool: &[JobSpec],
) -> io::Result<f64> {
    let spec = sweep_spec(&pool[0]);
    let cells = (2 * MIXES * SEEDS) as f64;
    let ckpt = dir.join("probe.ckpt.jsonl");
    let (mut plain, mut with_ckpt, mut no_tel, mut bytes) = (vec![], vec![], vec![], vec![]);
    let mut sample = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let r = tr.span("one-shot job, telemetry on", "sim.sweep", None, || {
            one_shot(spec, true, None)
        });
        plain.push(t0.elapsed().as_secs_f64() * 1e3);
        sample.get_or_insert(r);

        let _ = fs::remove_file(&ckpt);
        let w0 = wchar();
        let t0 = Instant::now();
        tr.span("one-shot job, checkpointed", "sim.sweep", None, || {
            one_shot(spec, true, Some(&ckpt))
        });
        with_ckpt.push(t0.elapsed().as_secs_f64() * 1e3);
        bytes.push(wchar() - w0);

        let t0 = Instant::now();
        tr.span("one-shot job, telemetry off", "sim.sweep", None, || {
            one_shot(spec, false, None)
        });
        no_tel.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    report.put(
        "sweep.ckpt_ms_per_cell",
        "ms",
        (median(&with_ckpt) - median(&plain)) / cells,
        format!("median of 3 checkpointed minus 3 plain one-shot jobs, / {cells} cells"),
    );
    report.check(
        bytes.iter().all(|&b| b == bytes[0]),
        format!("checkpoint bytes repeat exactly: {bytes:?}"),
    );
    report.put(
        "sweep.ckpt_bytes_per_cell",
        "B",
        bytes[0] as f64 / cells,
        "wchar delta of a checkpointed one-shot job / cells",
    );
    report.put(
        "telemetry.job_overhead_pct",
        "%",
        (median(&plain) / median(&no_tel) - 1.0) * 100.0,
        "median of 3 telemetry-on vs 3 telemetry-off one-shot jobs",
    );
    let mut oneshot_ckpt = vec![median(&with_ckpt)];
    for other in &pool[1..] {
        let _ = fs::remove_file(&ckpt);
        let t0 = Instant::now();
        tr.span("one-shot job, checkpointed", "sim.sweep", None, || {
            one_shot(sweep_spec(other), true, Some(&ckpt))
        });
        oneshot_ckpt.push(t0.elapsed().as_secs_f64() * 1e3);
    }

    let result = sample.expect("three rounds ran");
    let cell = &result.cells()[0];
    let m = &cell.result.metrics;
    let cell_frame = Response::Event(Event::CellResult {
        job: 1,
        policy: cell.result.policy.clone(),
        workload: cell.result.workload.clone(),
        seed: result.seeds()[cell.seed],
        ws_bits: m.weighted_speedup.to_bits(),
        hs_bits: m.harmonic_speedup.to_bits(),
        ms_bits: m.max_slowdown.to_bits(),
        resumed: false,
    })
    .encode();
    let summary = cell
        .result
        .telemetry
        .as_ref()
        .expect("telemetry-on cell")
        .metrics
        .summary();
    let tel_frame = Response::Event(Event::Telemetry {
        job: 1,
        counters: summary.counters,
        gauge_bits: summary.gauge_bits,
    })
    .encode();
    let submit = Request::SubmitJob(pool[0].clone());
    report.put(
        "proto.encode_us.submit",
        "us",
        probes::time_op(tr, "Request::encode (SubmitJob)", "proto", 2_000, || {
            submit.encode().len()
        }) / 1e3,
        "median of 7 batches of 2000 calls",
    );
    for (name, frame, iters) in [
        ("proto.decode_us.cell_result", &cell_frame, 2_000),
        ("proto.decode_us.telemetry", &tel_frame, 200),
    ] {
        let ns = probes::time_op(tr, name, "proto", iters, || {
            Response::decode(frame).is_ok() as usize
        });
        report.check(
            Response::decode(frame).is_ok(),
            format!("{name}: the {} B frame decodes", frame.len()),
        );
        report.put(
            name,
            "us",
            ns / 1e3,
            format!(
                "median of 7 batches of {iters} calls; {} B frame",
                frame.len()
            ),
        );
    }
    Ok(median(&oneshot_ckpt))
}

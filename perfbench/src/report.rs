//! What one run reports: metrics, output checks, provenance, and the
//! record and trace files written at the end.

use crate::stats::{percentile, Summary, Tally};
use crate::trace::{json_str, Tracer};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// End-to-end metrics, reported by every workload's untraced run (the
/// `end_to_end` list of `BENCHMARK.json`).
pub const END_TO_END: &[&str] = &[
    "setup_s",
    "grid_s",
    "sim_instr_per_s",
    "serviced_req_per_s",
    "jobs_per_s",
    "peak_rss_mb",
];

/// Per-layer metrics, reported by every workload's traced run (the
/// `per_layer` list of `BENCHMARK.json`).
pub const PER_LAYER: &[&str] = &[
    "sim.cell_ms.fr-fcfs",
    "sim.cell_ms.stfm",
    "sim.cell_ms.par-bs",
    "sim.cell_ms.atlas",
    "sim.cell_ms.tcm",
    "sim.ns_per_req",
    "sim.retired_instr",
    "sim.serviced_reqs",
    "sim.peak_queue",
    "dram.row_hit_rate",
    "sim.event_push_pop_ns",
    "sweep.alone_s",
    "sweep.alone_runs",
    "sweep.ckpt_ms_per_cell",
    "sweep.ckpt_bytes_per_cell",
    "sweep.failed_cells",
    "workload.next_burst_ns",
    "dram.queue_push_ns",
    "dram.queue_take_ns",
    "dram.bank_schedulable_ns",
    "sched.pick_ns.fr-fcfs",
    "sched.pick_ns.stfm",
    "sched.pick_ns.par-bs",
    "sched.pick_ns.atlas",
    "sched.pick_ns.tcm",
    "core.quantum_us",
    "telemetry.job_overhead_pct",
    "proto.encode_us.submit",
    "proto.decode_us.cell_result",
    "proto.decode_us.telemetry",
    "serve.first_reply_ms.p50",
    "serve.wal_append_ms",
    "serve.wal_replay_ms",
    "serve.result_publish_ms",
    "serve.daemon_overhead_pct",
    "serve.wal_bytes_per_job",
    "serve.cell_retries",
    "trace.overhead_pct",
];

/// One named figure.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// How it was summarised (sample count, quartiles, ...).
    pub note: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics, in the order they were measured.
    pub metrics: Vec<Metric>,
    /// Attempted/failed units of work.
    pub tally: Tally,
    /// Failed output checks (empty = every check passed).
    pub check_failures: Vec<String>,
    /// Output checks that passed, one line each.
    pub checks: Vec<String>,
    /// The workload's resolved definition, `(key, value)`.
    pub definition: Vec<(String, String)>,
}

impl Report {
    /// Adds a metric with a free-form note.
    pub fn put(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            unit,
            value,
            note: note.into(),
        });
    }

    /// Adds the median of repetitions, with its quartiles.
    pub fn put_reps(&mut self, name: &str, unit: &'static str, values: &[f64], what: &str) {
        if let Some(s) = Summary::of(values) {
            let note = format!("median of {} {what}; q1 {:.6}, q3 {:.6}", s.n, s.q1, s.q3);
            self.put(name, unit, s.median, note);
        }
    }

    /// Adds percentile `q` of `samples`, or records why it was refused.
    pub fn put_pct(&mut self, name: &str, unit: &'static str, samples: &[f64], q: f64) {
        match percentile(samples, q) {
            Ok(v) => self.put(name, unit, v, format!("{} samples", samples.len())),
            Err(why) => self.definition.push((format!("refused {name}"), why)),
        }
    }

    /// Records an output check.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        let what = what.into();
        if ok {
            self.checks.push(what);
        } else {
            self.check_failures.push(what);
        }
    }

    /// Adds one line of the workload definition.
    pub fn define(&mut self, key: &str, value: impl ToString) {
        self.definition.push((key.to_string(), value.to_string()));
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Where the numbers came from.
#[derive(Debug)]
pub struct Provenance {
    git_sha: String,
    rustc: String,
    cpu: String,
    nproc: usize,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_string();
    (out.status.success() && !text.is_empty()).then_some(text)
}

/// HEAD of the git checkout rooted at the working directory; `None`
/// when the directory is not the root of one (an exported tree inside
/// some other repository must not report that repository's HEAD).
fn git_sha() -> Option<String> {
    let top = command_line("git", &["rev-parse", "--show-toplevel"])?;
    let here = std::env::current_dir().ok()?.canonicalize().ok()?;
    if Path::new(&top).canonicalize().ok()? != here {
        return None;
    }
    command_line("git", &["rev-parse", "HEAD"])
}

impl Provenance {
    /// Collects provenance from the host and the working directory.
    pub fn collect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            git_sha: git_sha().unwrap_or_else(|| "unknown (not a git checkout)".into()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into()),
            cpu,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn pairs(&self) -> [(&'static str, String); 4] {
        [
            ("git_sha", self.git_sha.clone()),
            ("rustc", self.rustc.clone()),
            ("cpu", self.cpu.clone()),
            ("nproc", self.nproc.to_string()),
        ]
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// Bytes this process has passed to `write`-family calls (`wchar`).
pub fn wchar() -> u64 {
    proc_field("/proc/self/io", "wchar:").map_or(0, |b| b as u64)
}

fn proc_field(path: &str, key: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Run identity shared by the printout and the record file.
#[derive(Debug)]
pub struct RunId<'a> {
    /// Workload name.
    pub workload: &'a str,
    /// Bench seed.
    pub seed: u64,
    /// Measuring seconds requested.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub traced: bool,
}

/// Prints the human-readable report (every metric by name and unit).
pub fn print_human(id: &RunId, prov: &Provenance, report: &Report, tracer: Option<&Tracer>) {
    let mode = if id.traced {
        "traced (per-layer)"
    } else {
        "untraced (end-to-end)"
    };
    println!(
        "== {} seed {} ({mode}, {} s)",
        id.workload, id.seed, id.seconds
    );
    for (k, v) in prov.pairs() {
        println!("provenance {k}: {v}");
    }
    for (k, v) in &report.definition {
        println!("definition {k}: {v}");
    }
    for m in &report.metrics {
        println!(
            "metric {} = {} {}  [{}]",
            m.name,
            fmt_num(m.value),
            m.unit,
            m.note
        );
    }
    println!(
        "failures: {} of {} attempted (failed_frac {})",
        report.tally.failed,
        report.tally.attempted,
        fmt_num(report.tally.failed_frac())
    );
    for c in &report.checks {
        println!("check ok: {c}");
    }
    for c in &report.check_failures {
        println!("CHECK FAILED: {c}");
    }
    if let Some(t) = tracer {
        println!("self time by layer (spans, self ms, total ms):");
        for (layer, n, self_ms, total_ms) in t.layer_table() {
            println!("  {layer:<12} {n:>6} {self_ms:>12.3} {total_ms:>12.3}");
        }
    }
}

fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// The final one-line JSON result: `names` picks which metrics go in.
pub fn result_line(report: &Report, names: &[&str]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.check_failures.is_empty(),
        report.tally.attempted.max(1),
        report.tally.failed
    );
    for (i, name) in names.iter().enumerate() {
        let m = report
            .get(name)
            .expect("caller checked every metric is present");
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            fmt_num(m.value),
            json_str(m.unit)
        );
    }
    s.push_str("}}");
    s
}

/// Writes the run's record (provenance, definition, every metric with
/// its note, checks, layer table) and, for a traced run, its Chrome
/// trace, under `dir`. Returns the files written.
pub fn write_record(
    dir: &Path,
    id: &RunId,
    prov: &Provenance,
    report: &Report,
    tracer: Option<&Tracer>,
) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let stem = format!(
        "{}-seed{}-trace{}",
        id.workload,
        id.seed,
        u8::from(id.traced)
    );
    let mut s = String::from("{\n  \"provenance\": {");
    let mut sep = "";
    let _ = write!(
        s,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}",
        json_str(id.workload),
        id.seed,
        id.seconds
    );
    for (k, v) in prov.pairs() {
        let _ = write!(s, ", {}: {}", json_str(k), json_str(&v));
    }
    s.push_str("},\n  \"definition\": {");
    for (k, v) in &report.definition {
        let _ = write!(s, "{sep}{}: {}", json_str(k), json_str(v));
        sep = ", ";
    }
    s.push_str("},\n  \"metrics\": [");
    sep = "\n    ";
    for m in &report.metrics {
        let _ = write!(
            s,
            "{sep}{{\"name\": {}, \"unit\": {}, \"value\": {}, \"note\": {}}}",
            json_str(&m.name),
            json_str(m.unit),
            fmt_num(m.value),
            json_str(&m.note)
        );
        sep = ",\n    ";
    }
    let _ = write!(
        s,
        "\n  ],\n  \"attempted\": {}, \"failed\": {}, \"failed_frac\": {},\n  \"checks_ok\": [",
        report.tally.attempted,
        report.tally.failed,
        fmt_num(report.tally.failed_frac())
    );
    let list = |items: &[String]| {
        items
            .iter()
            .map(|c| json_str(c))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let _ = write!(
        s,
        "{}],\n  \"checks_failed\": [{}]",
        list(&report.checks),
        list(&report.check_failures)
    );
    let mut written = Vec::new();
    if let Some(t) = tracer {
        s.push_str(",\n  \"self_time_by_layer\": [");
        sep = "";
        for (layer, n, self_ms, total_ms) in t.layer_table() {
            let _ = write!(
                s,
                "{sep}{{\"layer\": {}, \"spans\": {n}, \"self_ms\": {self_ms}, \"total_ms\": {total_ms}}}",
                json_str(layer)
            );
            sep = ", ";
        }
        s.push(']');
        let trace_path = dir.join(format!("{stem}.chrome.json"));
        std::fs::write(&trace_path, t.chrome_json())?;
        written.push(trace_path.display().to_string());
    }
    s.push_str("\n}\n");
    let record_path = dir.join(format!("{stem}.record.json"));
    std::fs::write(&record_path, s)?;
    written.insert(0, record_path.display().to_string());
    Ok(written)
}

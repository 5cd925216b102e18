//! The repository's benchmark: the paper's grids one-shot on the flat
//! and the 2x2 machine, and the same engine behind the `tcm-serve`
//! daemon.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-flat|paper-2x2|serve-grid --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name and unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. A failed output check exits 1; a usage or I/O error
//! exits 2 without a result line. Records and Chrome traces go to
//! `.bench_out/`. See `perfbench/README.md`.

mod calib;
mod paper;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;

use report::{Provenance, RunId, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Where records, traces and daemon state go, relative to the
/// directory the benchmark runs from.
const OUT_DIR: &str = ".bench_out";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// Removes the run's scratch directory (daemon state, WALs) on exit.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args, scratch: &Path, tr: &mut Tracer) -> Result<report::Report, String> {
    let io = |e: std::io::Error| format!("I/O error: {e}");
    let def = match args.workload.as_str() {
        "paper-flat" => Some(paper::FLAT),
        "paper-2x2" => Some(paper::TWO_BY_TWO),
        "serve-grid" => None,
        other => {
            return Err(format!(
                "unknown workload {other} (paper-flat, paper-2x2, serve-grid)"
            ))
        }
    };
    Ok(match (def, args.trace) {
        (Some(def), false) => paper::run(def, args.seed, args.seconds),
        (Some(def), true) => {
            let mut report = paper::run_traced(def, args.seed, tr);
            serve::service_probes(tr, &mut report, scratch, args.seed, 20, 0).map_err(io)?;
            report
        }
        (None, false) => serve::run(args.seed, args.seconds, scratch).map_err(io)?,
        (None, true) => serve::run_traced(args.seed, scratch, tr).map_err(io)?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    tcm_serve::log::init(tcm_serve::Level::Warn, false);
    let prov = Provenance::collect();
    let out = Path::new(OUT_DIR);
    let scratch = Scratch(out.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.0.display());
        return ExitCode::from(2);
    }
    let mut tracer = Tracer::new();
    let mut report = match run(&args, &scratch.0, &mut tracer) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    drop(scratch);
    report.define("bench_seed", args.seed);
    let names = if args.trace { PER_LAYER } else { END_TO_END };
    for name in names {
        if report.get(name).is_none() {
            report.check(false, format!("metric {name} was not measured"));
        }
    }
    let id = RunId {
        workload: &args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
    };
    let traced = args.trace.then_some(&tracer);
    report::print_human(&id, &prov, &report, traced);
    match report::write_record(out, &id, &prov, &report, traced) {
        Ok(files) => files.iter().for_each(|f| println!("wrote {f}")),
        Err(e) => {
            eprintln!("perfbench: cannot write the record: {e}");
            return ExitCode::from(2);
        }
    }
    if !report.check_failures.is_empty() {
        eprintln!(
            "perfbench: {} output check(s) failed",
            report.check_failures.len()
        );
        return ExitCode::from(1);
    }
    println!("{}", report::result_line(&report, names));
    ExitCode::SUCCESS
}

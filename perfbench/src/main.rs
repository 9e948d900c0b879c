//! `cfinder-perfbench`: the end-to-end and per-layer benchmark.
//!
//! ```console
//! $ cfinder-perfbench --cfinder PATH --workload cold_cli|serve_edit|guarded_db \
//!       --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the workload's end-to-end metrics;
//! with `--trace 1` it replays the workload in-process with a span around
//! every layer call and reports the per-layer ledger instead. Either way
//! the last stdout line is one JSON object with exactly `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the host
//! block. See `perfbench/README.md` for the workloads and metrics.

mod calib;
mod cold_cli;
mod corpus;
mod guarded_db;
mod ledger;
mod report;
mod serve_edit;
mod spans;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Outcome;

/// Parsed command line.
pub struct Args {
    /// The release `cfinder` binary the subprocess workloads drive.
    pub cfinder: PathBuf,
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window.
    pub window: Duration,
    /// Traced (per-layer) run instead of the end-to-end one.
    pub trace: bool,
}

const USAGE: &str = "usage: cfinder-perfbench --cfinder PATH --workload cold_cli|serve_edit|guarded_db --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut cfinder = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--cfinder" => cfinder = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, found `{other}`")),
                })
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !matches!(workload.as_str(), "cold_cli" | "serve_edit" | "guarded_db") {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        cfinder: cfinder.ok_or("--cfinder is required")?,
        workload,
        seed: seed.ok_or("--seed is required")?,
        window: Duration::from_secs(seconds),
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !args.cfinder.is_file() {
        eprintln!("perfbench: no cfinder binary at {}", args.cfinder.display());
        return ExitCode::from(2);
    }
    let work = match corpus::WorkDir::create(&args.workload) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: creating the work directory: {e}");
            return ExitCode::from(2);
        }
    };
    let run = if args.trace { ledger::run } else { run_end_to_end };
    let outcome = match run(&args, &work) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    drop(work);
    println!("{}", outcome.host_json(&args.workload, args.seed, args.trace));
    println!("{}", outcome.result_json());
    ExitCode::SUCCESS
}

fn run_end_to_end(args: &Args, work: &corpus::WorkDir) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "cold_cli" => cold_cli::run(args, work),
        "serve_edit" => serve_edit::run(args, work),
        _ => guarded_db::run(args, work),
    }
}

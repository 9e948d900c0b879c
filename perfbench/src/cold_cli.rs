//! `cold_cli`: one `cfinder <app>/src --schema-sql <dump> --fix-out <file>`
//! invocation per operation, over all eight apps at paper scale, with no
//! analysis cache — what a developer or a CI job runs.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::calib::{Calibrator, Series};
use crate::corpus::{generate_app, seeded_profiles, DiskApp, WorkDir};
use crate::report::{nproc, Outcome};
use crate::{stats, sys, Args};

/// Rounds of fixed-cost invocations `setup_s` is the median of.
const SETUP_ROUNDS: usize = 31;

/// Passes every run makes, however long they take: `tail_ms` is a
/// median of this many invocations of the slowest app. More would not
/// fit the time the benchmark's runs may take.
const MIN_PASSES: usize = 2;

/// Starts `cfinder <src> --schema-sql <dump> --fix-out <fix> --strict
/// --no-cache` at `nproc` threads, with no cache and no limits from the
/// environment, and returns its wall time and exit code.
fn cfinder(cfinder: &Path, src: &Path, dump: &Path, fix: &Path) -> (Duration, Result<i32, String>) {
    let _ = std::fs::remove_file(fix);
    let mut cmd = Command::new(cfinder);
    cmd.arg(src)
        .arg("--schema-sql")
        .arg(dump)
        .arg("--fix-out")
        .arg(fix)
        .arg("--strict")
        .arg("--no-cache")
        .env("CFINDER_THREADS", nproc().to_string())
        .env_remove("CFINDER_CACHE_DIR")
        .env_remove("CFINDER_DEADLINE_MS")
        .env_remove("CFINDER_MAX_FILE_BYTES")
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    let start = Instant::now();
    let status = cmd.status();
    let wall = start.elapsed();
    let code = status
        .map_err(|e| format!("cannot run cfinder: {e}"))
        .and_then(|s| s.code().ok_or(format!("cfinder exited with {s}")));
    (wall, code)
}

/// One invocation: its wall time, and `Err` when its output is wrong.
fn invoke(bin: &Path, app: &DiskApp) -> (Duration, Result<(), String>) {
    let fix = app.dir.join("fix.sql");
    let (wall, code) = cfinder(bin, &app.src(), &app.dir.join("schema.sql"), &fix);
    let verdict = match code {
        Err(e) => Err(format!("{}: {e}", app.name)),
        // Exit 1: missing constraints found, no incidents under --strict.
        Ok(c) if c != 1 => Err(format!("{}: cfinder exited with {c}", app.name)),
        Ok(_) => std::fs::read_to_string(&fix)
            .map_err(|e| format!("{}: reading the fix script: {e}", app.name))
            .and_then(|script| app.check_fix_script(&script)),
    };
    (wall, verdict)
}

/// The cost every invocation pays whatever the source: process start,
/// parsing the app's schema dump, and writing the fix script. Measured on
/// a source tree of one empty module next to each app's dump; one round
/// is one such invocation per app.
fn fixed_cost_round(bin: &Path, apps: &[DiskApp], empty: &Path) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    for app in apps {
        let fix = empty.join("fix.sql");
        let (wall, code) = cfinder(bin, &empty.join("src"), &app.dir.join("schema.sql"), &fix);
        match code {
            Ok(0) => {}
            Ok(c) => return Err(format!("{}: fixed-cost invocation exited with {c}", app.name)),
            Err(e) => return Err(format!("{}: {e}", app.name)),
        }
        let script = std::fs::read_to_string(&fix).map_err(|e| format!("{}: {e}", app.name))?;
        let parsed = cfinder_sql::parse_sql(&script);
        if !parsed.errors.is_empty() || !parsed.constraints.is_empty() {
            return Err(format!("{}: fixed-cost fix script is not empty", app.name));
        }
        total += wall;
    }
    Ok(total)
}

/// A source tree of one empty module under `root/empty`.
fn empty_tree(root: &Path) -> Result<PathBuf, String> {
    let dir = root.join("empty");
    std::fs::create_dir_all(dir.join("src"))
        .and_then(|()| std::fs::write(dir.join("src").join("__init__.py"), ""))
        .map_err(|e| format!("writing the empty source tree: {e}"))?;
    Ok(dir)
}

/// Reads every file under `dir` once, so the page cache holds the
/// sources before timing starts.
fn read_tree(dir: &Path) -> Result<(), String> {
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            read_tree(&path)?;
        } else {
            std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Runs the workload: whole passes over the eight apps until the window
/// is used up (and at least [`MIN_PASSES`]), so every run weighs the apps
/// alike.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    // Set-up, untimed: the corpus, written to disk and read back once.
    let apps = seeded_profiles(args.seed)
        .iter()
        .map(|p| DiskApp::write_generated(p, generate_app(p), work.path()))
        .collect::<Result<Vec<_>, _>>()?;
    for app in &apps {
        read_tree(&app.dir)?;
    }
    let empty = empty_tree(work.path())?;
    let mut out = Outcome::default();
    let mut cal = Calibrator::new(nproc(), 0.1);
    let mut setups = Series::default();
    for _ in 0..SETUP_ROUNDS {
        let round = fixed_cost_round(&args.cfinder, &apps, &empty)?;
        setups.push(&mut cal, round);
    }
    let mut runs = Series::default();
    let mut passes = 0;
    let window = Instant::now();
    while passes < MIN_PASSES || window.elapsed() < args.window {
        for app in &apps {
            let (wall, verdict) = invoke(&args.cfinder, app);
            runs.push(&mut cal, wall);
            out.op(verdict.is_ok(), || verdict.unwrap_err());
        }
        passes += 1;
    }
    let loc = passes * apps.iter().map(|a| a.loc).sum::<usize>();
    let n = runs.len();
    // A pass is eight invocations, so no percentile has ten samples
    // beyond it: the tail is the slowest app's median invocation.
    let figures = |secs: &[f64], setups: &[f64]| {
        let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
        let per_app =
            |a: usize| -> Vec<f64> { ms.iter().skip(a).step_by(apps.len()).copied().collect() };
        let tail = (0..apps.len()).filter_map(|a| stats::median(&per_app(a))).fold(0.0, f64::max);
        [
            ("throughput_per_s", loc as f64 / secs.iter().sum::<f64>(), "1/s", n),
            ("p50_ms", stats::median(&ms).unwrap_or(0.0), "ms", n),
            ("tail_ms", tail, "ms", passes),
            ("setup_s", stats::median(setups).unwrap_or(0.0), "s", setups.len()),
        ]
    };
    let scaled = figures(&runs.run_scaled_s(&cal), &setups.scaled_s(&cal));
    let raw = figures(runs.raw_s(), setups.raw_s());
    for ((name, value, unit, samples), (_, raw, _, _)) in scaled.into_iter().zip(raw) {
        out.metric(name, value, unit, samples);
        out.note_raw(name, raw, &cal);
    }
    let children = n + SETUP_ROUNDS * apps.len();
    out.metric("peak_rss_mb", sys::children_max_rss_mb().unwrap_or(0.0), "MB", children);
    out.note("tail_percentile", "slowest app's median invocation");
    out.note("setup", "one invocation per app on an empty module with its dump");
    out.note("threads", nproc());
    out.note("passes", passes);
    out.note("corpus_loc", apps.iter().map(|a| a.loc).sum::<usize>());
    Ok(out)
}

//! `serve_edit`: one `cfinder serve --cache-dir` daemon serving one
//! paper-scale tenant (`shuup`), one request in flight. Each operation
//! is a seeded edit of a noise function body followed by an `analyze`
//! request — the IDE / pre-commit path.

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde_json::Value;

use crate::calib::{Calibrator, Series};
use crate::corpus::{seeded_profile, DiskApp, WorkDir};
use crate::report::{json_str, nproc, Outcome};
use crate::{stats, sys, Args};

/// The tenant every `serve_edit` run serves.
pub const TENANT: &str = "shuup";

/// Tail percentile `tail_ms` reports, in tenths of a percent.
pub const TAIL_PERMILLE: u32 = 950;

/// Fresh daemon set-ups `setup_s` takes the median of.
const SETUPS: usize = 7;

/// The noise line every edit rewrites: the multiplier changes, the line
/// count and the inferred constraints do not.
const SITE_PREFIX: &str = "    total = a * ";
const SITE_SUFFIX: &str = " + b";

/// One edit: replace line `line` of editable file `file` with `text`.
#[derive(Debug, Clone)]
pub struct Edit {
    /// Index into [`Editor`]'s files.
    pub file: usize,
    /// 0-based line index.
    pub line: usize,
    /// The new line.
    pub text: String,
}

struct EditableFile {
    path: PathBuf,
    lines: Vec<String>,
    sites: Vec<usize>,
}

/// The app's editable noise files and their current contents.
pub struct Editor {
    files: Vec<EditableFile>,
    next_value: u64,
}

impl Editor {
    /// Collects every `noise_*.py` file of `app` (as written under
    /// `src_dir`) and the function-body lines edits may rewrite.
    pub fn new(app: &DiskApp, src_dir: &Path) -> Editor {
        let files = app
            .app
            .files
            .iter()
            .filter(|f| f.path.starts_with("noise_"))
            .map(|f| {
                let lines: Vec<String> = f.text.lines().map(str::to_string).collect();
                let sites = lines
                    .iter()
                    .enumerate()
                    .filter(|(_, l)| l.starts_with(SITE_PREFIX) && l.ends_with(SITE_SUFFIX))
                    .map(|(i, _)| i)
                    .collect();
                EditableFile { path: src_dir.join(&f.path), lines, sites }
            })
            .filter(|f: &EditableFile| !f.sites.is_empty())
            .collect();
        Editor { files, next_value: 1000 }
    }

    /// Number of editable files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Plans `n` seeded edits. Every edit writes a multiplier never used
    /// before, so each one yields file content never seen before.
    pub fn plan(&mut self, rng: &mut StdRng, n: usize) -> Vec<Edit> {
        (0..n)
            .map(|_| {
                let file = rng.gen_range(0..self.files.len());
                let sites = &self.files[file].sites;
                let line = sites[rng.gen_range(0..sites.len())];
                let value = self.next_value;
                self.next_value += 1;
                Edit { file, line, text: format!("{SITE_PREFIX}{value}{SITE_SUFFIX}") }
            })
            .collect()
    }

    /// Applies an edit in memory and returns the file's new text.
    pub fn apply(&mut self, edit: &Edit) -> String {
        let f = &mut self.files[edit.file];
        f.lines[edit.line].clone_from(&edit.text);
        let mut text = f.lines.join("\n");
        text.push('\n');
        text
    }

    /// Path of editable file `file`.
    pub fn path(&self, file: usize) -> &Path {
        &self.files[file].path
    }
}

/// A line-framed JSON client over a daemon's stdin/stdout.
pub struct Client<W: Write, R: BufRead> {
    input: Option<W>,
    output: R,
    next_id: u64,
}

impl<W: Write, R: BufRead> Client<W, R> {
    /// Wraps the two ends of a daemon.
    pub fn new(input: W, output: R) -> Self {
        Client { input: Some(input), output, next_id: 1 }
    }

    /// Sends one request (`body` is the JSON fields after `id`) and
    /// returns the raw reply line.
    pub fn call(&mut self, body: &str) -> Result<String, String> {
        let id = self.next_id;
        self.next_id += 1;
        let input = self.input.as_mut().ok_or("daemon input already closed")?;
        writeln!(input, "{{\"id\":{id},{body}}}")
            .and_then(|()| input.flush())
            .map_err(|e| format!("writing a request: {e}"))?;
        let mut line = String::new();
        match self.output.read_line(&mut line) {
            Ok(0) => Err("daemon closed its output".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("reading a reply: {e}")),
        }
    }

    /// Sends `shutdown`, closes the daemon's input (it reads until EOF),
    /// and drains its output.
    pub fn shutdown(&mut self) -> Result<(), String> {
        self.call("\"cmd\":\"shutdown\"")?;
        drop(self.input.take());
        let mut rest = String::new();
        while self.output.read_line(&mut rest).map_err(|e| format!("draining: {e}"))? > 0 {
            rest.clear();
        }
        Ok(())
    }
}

/// The `register` request body for the tenant.
pub fn register_body(app: &DiskApp) -> String {
    format!(
        "\"cmd\":\"register\",\"project\":{},\"dir\":{},\"schema\":{}",
        json_str(TENANT),
        json_str(&app.src().display().to_string()),
        json_str(&app.dir.join("schema.json").display().to_string()),
    )
}

/// The `analyze` request body for the tenant.
pub fn analyze_body() -> String {
    format!("\"cmd\":\"analyze\",\"project\":{}", json_str(TENANT))
}

/// A successful reply's `result`, or `Err` for an error frame.
pub fn result_of(reply: &str) -> Result<Value, String> {
    let v: Value = serde_json::from_str(reply).map_err(|e| format!("unparsable reply: {e}"))?;
    match v.get("ok") {
        Some(Value::Bool(true)) => v.get("result").cloned().ok_or("reply without result".into()),
        _ => Err(format!("error frame: {}", reply.trim())),
    }
}

/// An analyze reply's (`files_parsed`, `stable_json`).
pub fn analysis_of(reply: &str) -> Result<(u64, String), String> {
    let r = result_of(reply)?;
    let parsed = r.get("files_parsed").and_then(Value::as_u64).ok_or("no files_parsed")?;
    let stable = r.get("stable_json").and_then(Value::as_str).ok_or("no stable_json")?;
    Ok((parsed, stable.to_string()))
}

/// Checks one edit's reply against the cold answer.
pub fn check_edit_reply(reply: &str, cold: &str) -> Result<(), String> {
    let (parsed, stable) = analysis_of(reply)?;
    if parsed != 1 {
        return Err(format!("edit reply parsed {parsed} files, not 1"));
    }
    if stable != cold {
        return Err("edit reply's stable_json differs from the cold reply".to_string());
    }
    Ok(())
}

/// A spawned daemon and its client.
struct Daemon {
    child: Child,
    client: Client<ChildStdin, BufReader<ChildStdout>>,
}

impl Daemon {
    fn spawn(cfinder: &Path, cache_dir: &Path) -> Result<Daemon, String> {
        let mut child = Command::new(cfinder)
            .arg("serve")
            .arg("--cache-dir")
            .arg(cache_dir)
            .env("CFINDER_THREADS", nproc().to_string())
            .env_remove("CFINDER_CACHE_DIR")
            .env_remove("CFINDER_DEADLINE_MS")
            .env_remove("CFINDER_SERVE_FAULTS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning cfinder serve: {e}"))?;
        let input = child.stdin.take().expect("piped stdin");
        let output = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Daemon { child, client: Client::new(input, output) })
    }

    /// Shuts the daemon down and waits for it.
    fn stop(mut self) -> Result<(), String> {
        let drained = self.client.shutdown();
        let status = self.child.wait().map_err(|e| format!("waiting for the daemon: {e}"))?;
        drained?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached on an error path that skipped `stop`.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Spawn → register → first cold `analyze` answered; returns the daemon,
/// the set-up time and the cold `stable_json`.
fn set_up(
    cfinder: &Path,
    app: &DiskApp,
    cache_dir: &Path,
) -> Result<(Daemon, Duration, String), String> {
    let start = Instant::now();
    let mut d = Daemon::spawn(cfinder, cache_dir)?;
    result_of(&d.client.call(&register_body(app))?)?;
    let (parsed, stable) = analysis_of(&d.client.call(&analyze_body())?)?;
    let wall = start.elapsed();
    if parsed as usize != app.files {
        return Err(format!("cold analyze parsed {parsed} of {} files", app.files));
    }
    Ok((d, wall, stable))
}

/// Writes the tenant and returns it with its edit planner.
pub fn write_tenant(seed: u64, root: &Path) -> Result<(DiskApp, Editor), String> {
    let app = DiskApp::write(&seeded_profile(TENANT, seed), root)?;
    let editor = Editor::new(&app, &app.src());
    if editor.len() == 0 {
        return Err("the tenant has no editable noise files".to_string());
    }
    Ok((app, editor))
}

/// Runs the workload.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (app, mut editor) = write_tenant(args.seed, work.path())?;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E87_E000);
    // Enough edits for a slow run; planned before any timing.
    let edits = editor.plan(&mut rng, 20_000);
    let mut out = Outcome::default();

    let mut cal = Calibrator::new(nproc(), 0.25);
    let mut setups = Series::default();
    let mut live: Option<(Daemon, String)> = None;
    for i in 0..SETUPS {
        if let Some((d, _)) = live.take() {
            d.stop()?;
        }
        let (d, wall, cold) = set_up(&args.cfinder, &app, &work.path().join(format!("cache{i}")))?;
        setups.push(&mut cal, wall);
        live = Some((d, cold));
    }
    let (mut daemon, cold) = live.expect("at least one set-up");

    let min_samples = min_samples_for(TAIL_PERMILLE);
    let mut requests = Series::default();
    let window = Instant::now();
    for edit in &edits {
        let enough = window.elapsed() >= args.window && requests.len() >= min_samples;
        if enough || window.elapsed() >= 3 * args.window {
            break;
        }
        let start = Instant::now();
        let text = editor.apply(edit);
        let written = std::fs::write(editor.path(edit.file), text);
        let reply = written
            .map_err(|e| format!("writing the edit: {e}"))
            .and_then(|()| daemon.client.call(&analyze_body()));
        requests.push(&mut cal, start.elapsed());
        let verdict = reply.and_then(|r| check_edit_reply(&r, &cold));
        out.op(verdict.is_ok(), || verdict.unwrap_err());
    }
    let rss = sys::vm_hwm_mb(daemon.child.id());
    daemon.stop()?;

    out.closed_loop_metrics(&cal, &requests, &setups, TAIL_PERMILLE);
    out.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB", 1);
    out.note("threads", nproc());
    Ok(out)
}

/// Samples needed before `permille` has [`stats::TAIL_MIN_BEYOND`]
/// samples beyond it.
pub fn min_samples_for(permille: u32) -> usize {
    (1..).find(|&n| stats::tail_percentile(n).is_some_and(|p| p >= permille)).expect("reachable")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn edits_keep_the_line_count_and_always_change_the_content_hash() {
        let work = tempdir("edits");
        let (app, mut editor) = write_tenant(7, &work).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen: BTreeSet<String> = BTreeSet::new();
        for f in app.app.files.iter().filter(|f| f.path.starts_with("noise_")) {
            seen.insert(cfinder_core::cache::content_hash(&f.text));
        }
        let before: Vec<usize> = (0..editor.len())
            .map(|i| std::fs::read_to_string(editor.path(i)).unwrap().lines().count())
            .collect();
        for edit in editor.plan(&mut rng, 300) {
            let text = editor.apply(&edit);
            assert_eq!(text.lines().count(), before[edit.file]);
            assert!(seen.insert(cfinder_core::cache::content_hash(&text)), "hash repeated");
        }
        std::fs::remove_dir_all(&work).unwrap();
    }

    #[test]
    fn min_samples_cover_the_tail() {
        assert_eq!(min_samples_for(950), 200);
        assert_eq!(min_samples_for(990), 1000);
    }

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}

//! The daemon loop: one reader thread feeding a bounded queue drained
//! by a fixed worker pool, every response serialized through one writer
//! lock.
//!
//! # Crash-proofing invariants
//!
//! * **One response per frame.** Every line of input — valid, malformed,
//!   oversized, mid-drain — produces exactly one frame on stdout, so a
//!   pipelining client can always re-associate by `id`.
//! * **Panics are request-scoped.** Handlers run under
//!   `catch_unwind`; a panic becomes an `internal-panic` error frame
//!   (the analysis engine additionally isolates per-file panics below
//!   this boundary, so this is the second fence, not the first).
//! * **Deadlines are honored twice.** A request-level `deadline_ms` is
//!   checked at dequeue (a request that expired waiting in the queue is
//!   refused before any work) and again after handling (a result
//!   computed too late is reported as `deadline-exceeded`, not as a
//!   stale success).
//! * **Backpressure is typed.** A full queue answers `overloaded` with
//!   a `retry_after_ms` hint scaled by occupancy; `stats` and `metrics`
//!   are handled on the reader thread so observability keeps working
//!   while the pool is saturated.
//! * **Drain is graceful.** `shutdown` (or EOF on stdin — the SIGTERM
//!   analogue under pure-std constraints) closes the queue: accepted
//!   requests finish and are answered, new frames get `shutting-down`,
//!   and the final metrics snapshot is returned to the caller.

use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, Write};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cfinder_core::{
    AnalysisCache, AnalysisReport, CFinder, CFinderOptions, CacheError, Limits, Obs,
};
use cfinder_obs::{Metrics, Profiler, Tracer};
use parking_lot::Mutex;
use serde_json::Value;

use crate::protocol::{self, error_frame, ok_frame, Command, ErrorCode, Fault, Frame};
use crate::queue::{BoundedQueue, PushError};
use crate::registry::{Project, Registry};

/// Environment variable that arms the request-level fault hooks
/// (`"fault": "panic"` / `"fault": "sleep:<ms>"`) for the daemon's own
/// fault-injection suite. Off by default; an un-armed daemon treats the
/// field as any other unknown field.
pub const FAULTS_ENV: &str = "CFINDER_SERVE_FAULTS";

/// Daemon configuration (one per [`serve`] call).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads draining the request queue.
    pub workers: usize,
    /// Bounded queue capacity; pushes beyond it answer `overloaded`.
    pub queue_capacity: usize,
    /// Frame byte cap; longer lines answer `oversized-frame`.
    pub max_frame_bytes: usize,
    /// Incremental-cache directory shared by every project (optional).
    pub cache_dir: Option<PathBuf>,
    /// Whether the request-level fault hooks are armed ([`FAULTS_ENV`]).
    pub faults_enabled: bool,
    /// Append-mode JSONL slow-request log (optional). Requests whose
    /// queue wait plus handling time reaches [`ServeConfig::slow_threshold_ms`]
    /// append one structured record.
    pub slow_log: Option<PathBuf>,
    /// Slow-request threshold in milliseconds (default 500). Slow
    /// requests are counted in `cfinder_serve_slow_requests_total`
    /// whether or not a log file is configured.
    pub slow_threshold_ms: u64,
    /// Sampling-profiler rate in Hz (optional). When set, every
    /// per-request tracer feeds one daemon-wide wall-clock profiler and
    /// `stats` reports the accumulated sample count.
    pub profile_hz: Option<u32>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).min(4),
            queue_capacity: 64,
            max_frame_bytes: 1 << 20,
            cache_dir: None,
            faults_enabled: std::env::var(FAULTS_ENV).is_ok_and(|v| v == "1"),
            slow_log: None,
            slow_threshold_ms: 500,
            profile_hz: None,
        }
    }
}

/// What the daemon did over its lifetime, returned when the session
/// drains — the "flush metrics" half of graceful shutdown.
#[derive(Debug)]
pub struct ServeSummary {
    /// Request frames decoded (including ones answered with errors).
    pub requests: u64,
    /// Typed error frames written, all codes.
    pub errors: u64,
    /// `overloaded` rejections among them.
    pub rejected: u64,
    /// Final Prometheus text exposition of the daemon registry.
    pub metrics_text: String,
}

/// One accepted unit of queued work.
struct Job {
    id: Value,
    cmd: Command,
    accepted: Instant,
    deadline: Option<Instant>,
}

/// Handler outcome: a result value or a typed error with detail.
type HandleResult = Result<Value, (ErrorCode, String)>;

struct Shared<W: Write> {
    config: ServeConfig,
    registry: Registry,
    queue: BoundedQueue<Job>,
    out: Mutex<W>,
    metrics: Metrics,
    /// Daemon-wide sampling profiler; disabled unless
    /// [`ServeConfig::profile_hz`] is set. Every per-request tracer
    /// clones this handle, so one sampler observes all workers.
    profiler: Profiler,
    /// Session epoch: `ts_ms` in slow-log records counts from here.
    epoch: Instant,
    /// Open slow-request log, line-buffered under its own lock.
    slow_log: Option<Mutex<File>>,
    shutting_down: AtomicBool,
    /// Cache handles memoized per analyzer configuration: each distinct
    /// (options, limits) pair addresses its own fingerprint shard, and
    /// reusing the handle keeps its open-probe cost out of the hot path.
    caches: Mutex<Vec<(CacheKey, Arc<AnalysisCache>)>>,
}

/// The fields of (options, limits) that select a cache fingerprint.
type CacheKey = (CFinderOptions, Option<Duration>, usize, usize);

impl<W: Write> Shared<W> {
    fn respond_ok(&self, id: &Value, result: Value) {
        self.write_line(&ok_frame(id, result));
    }

    fn respond_err(&self, id: &Value, code: ErrorCode, message: &str, retry_after_ms: Option<u64>) {
        self.metrics.add_labeled("cfinder_serve_errors_total", "code", code.label(), 1);
        self.write_line(&error_frame(id, code, message, retry_after_ms));
    }

    fn write_line(&self, frame: &str) {
        // A broken stdout cannot be answered to; keep serving the rest
        // of the session rather than dying mid-drain.
        let mut out = self.out.lock();
        let _ = writeln!(out, "{frame}");
        let _ = out.flush();
    }

    fn cache_for(
        &self,
        options: &CFinderOptions,
        limits: &Limits,
    ) -> Result<Option<Arc<AnalysisCache>>, CacheError> {
        let Some(dir) = &self.config.cache_dir else { return Ok(None) };
        let key: CacheKey = (*options, limits.deadline, limits.max_file_bytes, limits.max_tokens);
        let mut caches = self.caches.lock();
        if let Some((_, cache)) = caches.iter().find(|(k, _)| *k == key) {
            return Ok(Some(cache.clone()));
        }
        let cache = Arc::new(AnalysisCache::open(dir, options, limits)?);
        caches.push((key, cache.clone()));
        Ok(Some(cache))
    }
}

/// Runs the daemon over `input`/`output` until EOF or a `shutdown`
/// request, then drains and returns the session summary. Never panics
/// on any input; returns `Err` only for I/O errors on `input` itself
/// (a broken stdin cannot be served).
pub fn serve<R, W>(config: ServeConfig, mut input: R, output: W) -> io::Result<ServeSummary>
where
    R: BufRead,
    W: Write + Send,
{
    // Open the slow log before accepting any work: an unwritable path
    // is a startup error, not a silent per-request drop.
    let slow_log = match &config.slow_log {
        Some(path) => Some(Mutex::new(OpenOptions::new().create(true).append(true).open(path)?)),
        None => None,
    };
    let shared = Shared {
        registry: Registry::new(),
        queue: BoundedQueue::new(config.queue_capacity),
        out: Mutex::new(output),
        metrics: Metrics::enabled(),
        profiler: match config.profile_hz {
            Some(hz) => Profiler::enabled(hz),
            None => Profiler::disabled(),
        },
        epoch: Instant::now(),
        slow_log,
        shutting_down: AtomicBool::new(false),
        caches: Mutex::new(Vec::new()),
        config,
    };
    let workers = shared.config.workers.max(1);

    // A worker panic outside the request fence propagates out of the
    // scope once every thread is joined.
    let read_error = std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| worker_loop(&shared));
        }
        let err = reader_loop(&shared, &mut input);
        // EOF, shutdown, or a dead stdin: no new work can arrive. Close
        // the queue so workers finish what was accepted and exit; the
        // scope joins them before we return.
        shared.queue.close();
        err
    });

    // Stop the sampler before tearing the daemon down; samples stay
    // available through metrics until the handle drops.
    shared.profiler.stop();
    shared.metrics.add("cfinder_profile_samples_total", shared.profiler.report().total_samples());
    let snapshot = shared.metrics.snapshot();
    let summary = ServeSummary {
        requests: snapshot.family_total("cfinder_serve_requests_total"),
        errors: snapshot.family_total("cfinder_serve_errors_total"),
        rejected: snapshot.counter("cfinder_serve_rejected_total"),
        metrics_text: shared.metrics.to_prometheus_text(),
    };
    match read_error {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

/// Reads frames until EOF or `shutdown`, enqueueing work and answering
/// everything that never reaches the queue. Returns the input I/O error
/// that ended the session, if any.
fn reader_loop<W: Write>(shared: &Shared<W>, input: &mut impl BufRead) -> Option<io::Error> {
    loop {
        let frame = match protocol::read_frame(input, shared.config.max_frame_bytes) {
            Ok(frame) => frame,
            Err(e) => return Some(e),
        };
        let line = match frame {
            Frame::Eof => return None,
            Frame::Oversized(bytes) => {
                shared.respond_err(
                    &Value::Null,
                    ErrorCode::OversizedFrame,
                    &format!(
                        "frame of {bytes} bytes exceeds the {}-byte cap",
                        shared.config.max_frame_bytes
                    ),
                    None,
                );
                continue;
            }
            Frame::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let request = match protocol::parse_request(&line, shared.config.faults_enabled) {
            Ok(request) => request,
            Err(fe) => {
                shared.respond_err(&fe.id, fe.code, &fe.message, None);
                continue;
            }
        };
        shared.metrics.add_labeled("cfinder_serve_requests_total", "cmd", request.cmd.name(), 1);
        match request.cmd {
            Command::Shutdown => {
                shared.shutting_down.store(true, Ordering::SeqCst);
                shared.queue.close();
                shared.respond_ok(
                    &request.id,
                    Value::Map(vec![("draining".into(), Value::Bool(true))]),
                );
                // Keep reading: frames that arrive mid-drain are answered
                // `shutting-down` (and `stats`/`metrics` still work) until
                // the client closes its end.
            }
            // Observability stays on the reader thread: `stats` and
            // `metrics` must answer even when every worker is busy and
            // the queue is refusing work.
            Command::Stats => {
                let result = stats_result(shared);
                shared.respond_ok(&request.id, result);
            }
            Command::Metrics => {
                let text = shared.metrics.to_prometheus_text();
                shared.respond_ok(
                    &request.id,
                    Value::Map(vec![("prometheus".into(), Value::Str(text))]),
                );
            }
            cmd => enqueue(shared, request.id, cmd),
        }
    }
}

fn enqueue<W: Write>(shared: &Shared<W>, id: Value, cmd: Command) {
    if shared.shutting_down.load(Ordering::SeqCst) {
        shared.respond_err(&id, ErrorCode::ShuttingDown, "daemon is draining", None);
        return;
    }
    let deadline_ms = match &cmd {
        Command::Analyze { deadline_ms, .. } => *deadline_ms,
        _ => None,
    };
    let accepted = Instant::now();
    let job = Job {
        id: id.clone(),
        cmd,
        accepted,
        deadline: deadline_ms.map(|ms| accepted + Duration::from_millis(ms)),
    };
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full { depth }) => {
            shared.metrics.inc("cfinder_serve_rejected_total");
            // Heuristic hint: deeper backlog, longer suggested backoff.
            let retry_after_ms = 10 + 10 * depth as u64 / shared.config.workers.max(1) as u64;
            shared.respond_err(
                &id,
                ErrorCode::Overloaded,
                &format!("queue full ({depth}/{})", shared.queue.capacity()),
                Some(retry_after_ms),
            );
        }
        Err(PushError::Closed) => {
            shared.respond_err(&id, ErrorCode::ShuttingDown, "daemon is draining", None);
        }
    }
}

fn worker_loop<W: Write>(shared: &Shared<W>) {
    while let Some(job) = shared.queue.pop() {
        let queue_wait = job.accepted.elapsed();
        shared.metrics.observe("cfinder_serve_queue_wait_seconds", queue_wait.as_secs_f64());
        if let Some(deadline) = job.deadline {
            if Instant::now() > deadline {
                shared.respond_err(
                    &job.id,
                    ErrorCode::DeadlineExceeded,
                    "deadline elapsed while queued",
                    None,
                );
                log_slow(shared, &job, queue_wait, Duration::ZERO, "deadline-exceeded");
                continue;
            }
        }
        let started = Instant::now();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| handle(shared, &job.id, &job.cmd)));
        let handle_time = started.elapsed();
        shared.metrics.observe("cfinder_serve_handle_seconds", handle_time.as_secs_f64());
        // Post-check: a result computed after the budget is a typed
        // overrun, never a silently late success. Evaluated once so the
        // response and the slow-log record agree on the outcome.
        let late = job.deadline.is_some_and(|d| Instant::now() > d);
        let label = match &outcome {
            Ok(Ok(_)) if late => ErrorCode::DeadlineExceeded.label(),
            Ok(Ok(_)) => "ok",
            Ok(Err((code, _))) => code.label(),
            Err(_) => ErrorCode::InternalPanic.label(),
        };
        match outcome {
            Ok(Ok(result)) => {
                if late {
                    shared.respond_err(
                        &job.id,
                        ErrorCode::DeadlineExceeded,
                        "handling outlived the request deadline",
                        None,
                    );
                } else {
                    shared.respond_ok(&job.id, result);
                }
            }
            Ok(Err((code, message))) => shared.respond_err(&job.id, code, &message, None),
            Err(payload) => {
                let detail = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                shared.respond_err(
                    &job.id,
                    ErrorCode::InternalPanic,
                    &format!("handler panicked: {detail}"),
                    None,
                );
            }
        }
        log_slow(shared, &job, queue_wait, handle_time, label);
    }
}

/// Counts a slow request (queue wait plus handling at or above the
/// configured threshold) and appends one JSONL record to the slow log
/// when one is configured. The record is self-contained: session-
/// relative timestamp, request id, command, tenant, the wait/handle
/// split, and the outcome the client was told.
fn log_slow<W: Write>(
    shared: &Shared<W>,
    job: &Job,
    queue_wait: Duration,
    handle_time: Duration,
    outcome: &str,
) {
    let total = queue_wait + handle_time;
    if total < Duration::from_millis(shared.config.slow_threshold_ms) {
        return;
    }
    shared.metrics.inc("cfinder_serve_slow_requests_total");
    let Some(log) = &shared.slow_log else { return };
    let project = match &job.cmd {
        Command::Register { project, .. }
        | Command::Analyze { project, .. }
        | Command::Explain { project, .. }
        | Command::Diff { project }
        | Command::Trace { project } => Value::Str(project.clone()),
        Command::Stats | Command::Metrics | Command::Shutdown => Value::Null,
    };
    let record = Value::Map(vec![
        ("ts_ms".into(), Value::UInt(shared.epoch.elapsed().as_millis() as u64)),
        ("id".into(), job.id.clone()),
        ("cmd".into(), Value::Str(job.cmd.name().to_string())),
        ("project".into(), project),
        ("queue_wait_ms".into(), Value::Float(queue_wait.as_secs_f64() * 1000.0)),
        ("handle_ms".into(), Value::Float(handle_time.as_secs_f64() * 1000.0)),
        ("total_ms".into(), Value::Float(total.as_secs_f64() * 1000.0)),
        ("outcome".into(), Value::Str(outcome.to_string())),
    ]);
    let line = serde_json::to_string(&record).expect("slow-log serialization cannot fail");
    // A full disk must not take the daemon down with it; the metric
    // above still counts the request.
    let mut file = log.lock();
    let _ = writeln!(file, "{line}");
    let _ = file.flush();
}

fn handle<W: Write>(shared: &Shared<W>, id: &Value, cmd: &Command) -> HandleResult {
    match cmd {
        Command::Register { project, dir, schema } => {
            register(shared, project, dir.clone(), schema.clone())
        }
        Command::Analyze { project, file_deadline_ms, ablate, fault, .. } => {
            if let Some(fault) = fault {
                match fault {
                    Fault::Panic => panic!("injected fault: panic"),
                    Fault::SleepMs(ms) => std::thread::sleep(Duration::from_millis(*ms)),
                }
            }
            analyze(shared, id, project, *file_deadline_ms, ablate)
        }
        Command::Explain { project, target } => explain(shared, id, project, target),
        Command::Diff { project } => diff(shared, id, project),
        Command::Trace { project } => trace(shared, project),
        // Handled on the reader thread; unreachable here but total anyway.
        Command::Stats => Ok(stats_result(shared)),
        Command::Metrics => Ok(Value::Map(vec![(
            "prometheus".into(),
            Value::Str(shared.metrics.to_prometheus_text()),
        )])),
        Command::Shutdown => Ok(Value::Map(vec![("draining".into(), Value::Bool(true))])),
    }
}

fn register<W: Write>(
    shared: &Shared<W>,
    name: &str,
    dir: PathBuf,
    schema: Option<PathBuf>,
) -> HandleResult {
    // Validate by loading once *before* publishing the registration, so
    // a bad directory never becomes an addressable tenant.
    let candidate = Project {
        name: name.to_string(),
        dir: dir.clone(),
        schema_path: schema.clone(),
        flight: parking_lot::Mutex::new(Default::default()),
    };
    let (app, _) = candidate.load().map_err(|detail| (ErrorCode::ProjectUnusable, detail))?;
    shared.registry.register(name, dir, schema);
    Ok(Value::Map(vec![
        ("project".into(), Value::Str(name.to_string())),
        ("files".into(), Value::UInt(app.files.len() as u64)),
    ]))
}

/// What a successful analysis hands back: the tenant, the fresh report,
/// and the tenant's previous report (the `diff` baseline).
type AnalysisOutcome = (Arc<Project>, AnalysisReport, Option<AnalysisReport>);

/// Looks up a tenant, loads its sources, and runs the pipeline under the
/// project's single-flight lock. Every analyzing command (`analyze`,
/// `explain`, `diff`) funnels through here, so no two analyses of one
/// tenant ever race the cache or each other's baseline.
///
/// Each call records its own Chrome trace: a fresh per-request tracer
/// (feeding the daemon-wide profiler, when enabled) wraps the pipeline
/// in a `request` span tagged with the request id and tenant, and the
/// finished trace replaces [`crate::registry::ProjectState::last_trace`]
/// — bounded memory, served by the `trace` command. Tracing never
/// influences the analysis itself, so `stable_json` stays byte-identical
/// to an untraced run.
fn run_analysis<W: Write>(
    shared: &Shared<W>,
    id: &Value,
    cmd_name: &'static str,
    project_name: &str,
    options: CFinderOptions,
    file_deadline_ms: Option<u64>,
) -> Result<AnalysisOutcome, (ErrorCode, String)> {
    let project = shared
        .registry
        .get(project_name)
        .ok_or_else(|| (ErrorCode::UnknownProject, format!("no project `{project_name}`")))?;
    let limits = request_limits(file_deadline_ms);
    let cache = shared
        .cache_for(&options, &limits)
        .map_err(|e| (ErrorCode::CacheUnusable, e.to_string()))?;

    let mut state = project.flight.lock();
    let (app, declared) = project.load().map_err(|detail| (ErrorCode::ProjectUnusable, detail))?;
    let tracer = Tracer::enabled_with_profiler(shared.profiler.clone());
    let report = {
        let mut span = tracer.span("request", || format!("{cmd_name} {project_name}"));
        span.arg("request_id", serde_json::to_string(id).unwrap_or_default());
        span.arg("tenant", project_name.to_string());
        span.arg("cmd", cmd_name.to_string());
        let mut finder = CFinder::with_options(options)
            .with_limits(limits)
            .with_obs(Obs { tracer: tracer.clone(), metrics: shared.metrics.clone() });
        if let Some(cache) = cache {
            finder = finder.with_cache(cache);
        }
        finder.analyze(&app, &declared)
    };
    state.last_trace = Some(tracer.to_chrome_trace());
    let previous = state.last_report.replace(report.clone());
    state.analyses += 1;
    Ok((project.clone(), report, previous))
}

/// Serves the `trace` command: the Chrome trace recorded by the tenant's
/// most recent analyzing request. `available` is `false` (with a null
/// `trace`) for a tenant that has not been analyzed yet.
fn trace<W: Write>(shared: &Shared<W>, project: &str) -> HandleResult {
    let p = shared
        .registry
        .get(project)
        .ok_or_else(|| (ErrorCode::UnknownProject, format!("no project `{project}`")))?;
    let state = p.flight.lock();
    Ok(Value::Map(vec![
        ("project".into(), Value::Str(project.to_string())),
        ("available".into(), Value::Bool(state.last_trace.is_some())),
        (
            "trace".into(),
            match &state.last_trace {
                Some(t) => Value::Str(t.clone()),
                None => Value::Null,
            },
        ),
        ("analyses".into(), Value::UInt(state.analyses)),
    ]))
}

fn analyze<W: Write>(
    shared: &Shared<W>,
    id: &Value,
    project: &str,
    file_deadline_ms: Option<u64>,
    ablate: &[String],
) -> HandleResult {
    let mut options = CFinderOptions::default();
    for flag in ablate {
        match flag.as_str() {
            "null-guard" => options.null_guard_analysis = false,
            "data-dep" => options.data_dependency_checks = false,
            "composite" => options.composite_unique = false,
            "partial" => options.partial_unique = false,
            "check" => options.check_inference = false,
            "default" => options.default_inference = false,
            other => {
                return Err((ErrorCode::BadRequest, format!("unknown ablation flag `{other}`")))
            }
        }
    }
    let (_, report, _) = run_analysis(shared, id, "analyze", project, options, file_deadline_ms)?;
    Ok(report_result(&report))
}

/// The limits a request analyzes with: the environment's
/// ([`Limits::from_env`]), with the request's `file_deadline_ms` replacing
/// the per-file deadline when present — `0` means no deadline. The cache
/// fingerprint hashes only the resulting [`Limits::deadline`], so a request
/// and an environment naming the same budget share a shard.
pub fn request_limits(file_deadline_ms: Option<u64>) -> Limits {
    let limits = Limits::from_env();
    match file_deadline_ms {
        None => limits,
        Some(ms) => Limits { deadline: (ms > 0).then(|| Duration::from_millis(ms)), ..limits },
    }
}

/// The analyze result frame: headline counts, the full degradation
/// record (typed incidents + coverage), cache counters, and the exact
/// [`AnalysisReport::stable_json`] string so clients can byte-compare
/// daemon answers against one-shot CLI runs.
fn report_result(report: &AnalysisReport) -> Value {
    let coverage = report.coverage();
    let incidents = report
        .incidents
        .iter()
        .map(|i| {
            Value::Map(vec![
                ("kind".into(), Value::Str(i.kind.to_string())),
                ("file".into(), Value::Str(i.file.clone())),
                ("line".into(), Value::UInt(i.line as u64)),
                ("detail".into(), Value::Str(i.detail.clone())),
            ])
        })
        .collect();
    Value::Map(vec![
        ("app".into(), Value::Str(report.app.clone())),
        ("loc".into(), Value::UInt(report.loc as u64)),
        ("missing".into(), Value::UInt(report.missing.len() as u64)),
        ("existing_covered".into(), Value::UInt(report.existing_covered.len() as u64)),
        ("incidents".into(), Value::Seq(incidents)),
        ("coverage".into(), Value::Str(coverage.to_string())),
        ("coverage_percent".into(), Value::Float(coverage.percent_clean())),
        ("analysis_ms".into(), Value::Float(report.analysis_time.as_secs_f64() * 1000.0)),
        ("cache_hits".into(), Value::UInt(report.timings.cache_hits as u64)),
        ("cache_misses".into(), Value::UInt(report.timings.cache_misses as u64)),
        ("files_parsed".into(), Value::UInt(report.timings.files_parsed as u64)),
        ("stable_json".into(), Value::Str(report.stable_json())),
    ])
}

fn explain<W: Write>(shared: &Shared<W>, id: &Value, project: &str, target: &str) -> HandleResult {
    let (table, column) = match target.split_once('.') {
        Some((t, c)) => (t.to_string(), Some(c.to_string())),
        None => (target.to_string(), None),
    };
    let (_, report, _) =
        run_analysis(shared, id, "explain", project, CFinderOptions::default(), None)?;
    let matches_target = |c: &cfinder_schema::Constraint| {
        c.table() == table && column.as_deref().is_none_or(|col| c.columns().contains(&col))
    };
    let chain_value = |p: &cfinder_core::Provenance| {
        Value::Map(vec![
            ("pattern".into(), Value::Str(p.pattern.to_string())),
            ("rule".into(), Value::Str(p.rule.to_string())),
            ("file".into(), Value::Str(p.file.clone())),
            ("line".into(), Value::UInt(p.line as u64)),
        ])
    };
    let mut explained = Vec::new();
    for m in &report.missing {
        if !matches_target(&m.constraint) {
            continue;
        }
        explained.push(Value::Map(vec![
            ("constraint".into(), Value::Str(m.constraint.to_string())),
            ("status".into(), Value::Str("missing".into())),
            ("chains".into(), Value::Seq(m.provenance().iter().map(chain_value).collect())),
            ("fix".into(), Value::Str(m.constraint.ddl())),
        ]));
    }
    for constraint in report.existing_covered.iter() {
        if !matches_target(constraint) {
            continue;
        }
        let chains = report
            .detections
            .iter()
            .filter(|d| &d.constraint == constraint)
            .map(|d| chain_value(&d.provenance()))
            .collect();
        explained.push(Value::Map(vec![
            ("constraint".into(), Value::Str(constraint.to_string())),
            ("status".into(), Value::Str("declared".into())),
            ("chains".into(), Value::Seq(chains)),
        ]));
    }
    Ok(Value::Map(vec![
        ("target".into(), Value::Str(target.to_string())),
        ("explained".into(), Value::Seq(explained)),
    ]))
}

fn diff<W: Write>(shared: &Shared<W>, id: &Value, project: &str) -> HandleResult {
    let (_, report, previous) =
        run_analysis(shared, id, "diff", project, CFinderOptions::default(), None)?;
    let current: Vec<String> = report.missing.iter().map(|m| m.constraint.to_string()).collect();
    let baseline: Option<Vec<String>> =
        previous.map(|p| p.missing.iter().map(|m| m.constraint.to_string()).collect());
    let (added, removed, unchanged) = match &baseline {
        Some(old) => {
            let added: Vec<&String> = current.iter().filter(|c| !old.contains(c)).collect();
            let removed: Vec<&String> = old.iter().filter(|c| !current.contains(c)).collect();
            let unchanged = current.len() - added.len();
            (added, removed, unchanged)
        }
        // First analysis of the tenant: everything is new.
        None => (current.iter().collect(), Vec::new(), 0),
    };
    Ok(Value::Map(vec![
        ("project".into(), Value::Str(project.to_string())),
        ("baseline".into(), Value::Bool(baseline.is_some())),
        ("added".into(), Value::Seq(added.into_iter().map(|c| Value::Str(c.clone())).collect())),
        (
            "removed".into(),
            Value::Seq(removed.into_iter().map(|c| Value::Str(c.clone())).collect()),
        ),
        ("unchanged".into(), Value::UInt(unchanged as u64)),
    ]))
}

fn stats_result<W: Write>(shared: &Shared<W>) -> Value {
    let projects = shared
        .registry
        .all()
        .iter()
        .map(|p| {
            let state = p.flight.lock();
            Value::Map(vec![
                ("name".into(), Value::Str(p.name.clone())),
                ("dir".into(), Value::Str(p.dir.display().to_string())),
                ("analyses".into(), Value::UInt(state.analyses)),
            ])
        })
        .collect();
    let snapshot = shared.metrics.snapshot();
    // p50/p95/p99 estimated from the request-scaled histogram ladder;
    // all-zero until the family has at least one observation.
    let latency = |family: &str| {
        let qs = snapshot.quantiles(family).unwrap_or([0.0; 3]);
        Value::Map(vec![
            ("p50".into(), Value::Float(qs[0])),
            ("p95".into(), Value::Float(qs[1])),
            ("p99".into(), Value::Float(qs[2])),
        ])
    };
    Value::Map(vec![
        ("projects".into(), Value::Seq(projects)),
        ("queue_depth".into(), Value::UInt(shared.queue.depth() as u64)),
        ("queue_capacity".into(), Value::UInt(shared.queue.capacity() as u64)),
        ("workers".into(), Value::UInt(shared.config.workers as u64)),
        (
            "requests_total".into(),
            Value::UInt(snapshot.family_total("cfinder_serve_requests_total")),
        ),
        ("errors_total".into(), Value::UInt(snapshot.family_total("cfinder_serve_errors_total"))),
        ("rejected_total".into(), Value::UInt(snapshot.counter("cfinder_serve_rejected_total"))),
        (
            "slow_requests_total".into(),
            Value::UInt(snapshot.counter("cfinder_serve_slow_requests_total")),
        ),
        (
            "latency_seconds".into(),
            Value::Map(vec![
                ("queue_wait".into(), latency("cfinder_serve_queue_wait_seconds")),
                ("handle".into(), latency("cfinder_serve_handle_seconds")),
            ]),
        ),
        ("profile_samples_total".into(), Value::UInt(shared.profiler.report().total_samples())),
        ("shutting_down".into(), Value::Bool(shared.shutting_down.load(Ordering::SeqCst))),
    ])
}

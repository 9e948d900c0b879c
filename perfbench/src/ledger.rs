//! The traced run: replays a workload in-process with a span around every
//! public layer call and reports the per-layer ledger.
//!
//! Every traced run has three segments, sized by the workload:
//!
//! * **analysis** — the pipeline of `CFinder::analyze` replayed layer by
//!   layer at one thread (`lexer` → `parser` → `extract_classes` →
//!   `InterprocFacts::extract` → registry → `SummaryTable::build` → per
//!   function `UseDefChains::compute` / `NullGuards::analyze_with` /
//!   `detect_all` → registry patterns → diff), over the workload's apps.
//!   Its detections must equal a real 1-thread `CFinder::analyze`
//!   byte for byte (`stable_json`); the share of that run's wall time the
//!   layers leave unaccounted is checked against 5% and reported. A
//!   second pass runs detection under
//!   `engine::map_ordered` at `nproc` threads with a timed closure, for
//!   per-worker busy and idle time. The dump and fix script go through
//!   `cfinder-sql`.
//! * **serve** — an in-process `cfinder_serve::serve` daemon with a cache
//!   directory answers seeded noise edits of `shuup`, and the cache layer
//!   (`content_hash`, `lookup`, `lookup_detect`, `store`) and
//!   `Project::load` are timed against the same files.
//! * **minidb** — the `guarded_db` requests, each database call timed.
//!
//! The workload's own segment runs at full size; the other two run a
//! short fixed slice, so every layer reads on every workload.

use std::collections::BTreeSet;
use std::io::{BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use cfinder_core::cache;
use cfinder_core::engine;
use cfinder_core::models::extract_classes;
use cfinder_core::patterns::{
    collect_none_assignments, detect_all, detect_n3, detect_x1, walk_shallow, DetectCtx,
    FamilyTimers, FAMILY_LABELS,
};
use cfinder_core::{
    AnalysisCache, AnalysisReport, AppSource, CFinder, CFinderOptions, Detection, Limits, Lookup,
    MissingConstraint, ModelRegistry, Obs, Resolver, SourceFile, StageTimings,
};
use cfinder_corpus::{AppProfile, GeneratedApp};
use cfinder_flow::{Cfg, InterprocFacts, NullGuards, SummaryBudget, SummaryTable, UseDefChains};
use cfinder_pyast::ast::{ClassDef, Module, Stmt, StmtKind};
use cfinder_pyast::lex_recovering;
use cfinder_pyast::parser::parse_tokens_recovering;
use cfinder_schema::{ConstraintSet, Schema};
use cfinder_serve::registry::Registry;
use cfinder_serve::ServeConfig;
use cfinder_sql::Dialect;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

use crate::corpus::{generate_app, seeded_profile, seeded_profiles, DiskApp, WorkDir};
use crate::guarded_db::{self, Prepared, Tally};
use crate::report::{nproc, Outcome};
use crate::serve_edit::{self, analyze_body, check_edit_reply, register_body, Client};
use crate::spans::{NoProbe, Probe, Spans};
use crate::sys::trim_heap;
use crate::Args;

/// Share of the 1-thread `CFinder::analyze` wall the replayed layers may
/// leave unaccounted.
const UNACCOUNTED_LIMIT: f64 = 0.05;

/// Segment sizes: (analysis apps, serve edits, minidb requests).
fn sizes(workload: &str, seed: u64) -> (Vec<AppProfile>, usize, usize) {
    match workload {
        "cold_cli" => (seeded_profiles(seed), 10, 200),
        "serve_edit" => (vec![seeded_profile(serve_edit::TENANT, seed)], 100, 200),
        _ => (vec![seeded_profile(guarded_db::APP, 0)], 10, 1000),
    }
}

/// Counts gathered along the replay (times come from the spans).
#[derive(Debug, Default)]
struct Counts {
    tokens: u64,
    files: u64,
    bytes: u64,
    models: u64,
    fields: u64,
    callgraph_nodes: u64,
    callgraph_edges: u64,
    summary_iterations: u64,
    cfg_nodes: u64,
    defs: u64,
    functions: u64,
    resolutions: u64,
    detections: u64,
    family_ns: [u64; 10],
    analyze_1t: Duration,
    replay: Duration,
    engine_wall: Duration,
    engine_busy: Duration,
    engine_idle: Duration,
    engine_imbalance: Vec<f64>,
    statements: u64,
    cache_hits: u64,
    cache_misses: u64,
    files_parsed: u64,
    reply_bytes: u64,
    overhead: Duration,
    unaccounted: f64,
}

/// Runs the traced replay of `args.workload`.
pub fn run(args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let (apps, edits, requests) = sizes(&args.workload, args.seed);
    let mut spans = Spans::default();
    let mut counts = Counts::default();
    let mut out = Outcome::default();
    let rounds = if apps.len() == 1 { 15 } else { 1 };
    for (i, profile) in apps.iter().enumerate() {
        spans.set_request(i as u64);
        let app = generate_app(profile);
        analysis_segment(&app, rounds, &mut spans, &mut counts, &mut out);
    }
    serve_segment(args, work, edits, &mut spans, &mut counts, &mut out)?;
    let tally = minidb_segment(args, work, requests, &mut spans, &mut out)?;
    report(&spans, &counts, &tally, &mut out);
    let (recorded, dropped) = spans.recorded();
    out.note("spans_recorded", recorded);
    out.note("spans_not_stored", dropped);
    let file =
        work.path().parent().unwrap_or(work.path()).join(format!("trace-{}.json", args.workload));
    std::fs::write(&file, spans.to_json())
        .map_err(|e| format!("writing {}: {e}", file.display()))?;
    out.note("trace_file", file.display());
    Ok(out)
}

// --- analysis ---------------------------------------------------------------

/// Read-only inputs of the detection replay.
struct DetectEnv<'a> {
    registry: &'a ModelRegistry,
    summaries: Option<&'a SummaryTable>,
    options: &'a CFinderOptions,
    families: Option<&'a FamilyTimers>,
}

/// Detection output of one module plus the replay's counters.
#[derive(Default)]
struct DetectOut {
    detections: Vec<Detection>,
    none_assigned: BTreeSet<(String, String)>,
    cfg_nodes: u64,
    defs: u64,
    functions: u64,
    resolutions: u64,
}

/// `analyze_scopes` of `cfinder-core`, replayed with a span per layer.
fn scopes<P: Probe>(
    env: &DetectEnv<'_>,
    body: &[Stmt],
    file: &SourceFile,
    class_ctx: Option<&ClassDef>,
    probe: &mut P,
    out: &mut DetectOut,
) {
    for stmt in body {
        match &stmt.kind {
            StmtKind::FunctionDef(f) => {
                let self_model =
                    class_ctx.and_then(|c| env.registry.is_model(&c.name).then(|| c.name.clone()));
                let params: Vec<String> = f.params.iter().map(|p| p.name.clone()).collect();
                function(env, &f.body, &params, self_model, file, true, probe, out);
            }
            StmtKind::ClassDef(c) => scopes(env, &c.body, file, Some(c), probe, out),
            _ => {}
        }
    }
    let top_level_code = class_ctx.is_none()
        && body.iter().any(|s| {
            !matches!(
                s.kind,
                StmtKind::FunctionDef(_)
                    | StmtKind::ClassDef(_)
                    | StmtKind::Import { .. }
                    | StmtKind::ImportFrom { .. }
            )
        });
    if top_level_code {
        function(env, body, &[], None, file, false, probe, out);
    }
}

/// `analyze_function` of `cfinder-core`, replayed with a span per layer.
#[allow(clippy::too_many_arguments)]
fn function<P: Probe>(
    env: &DetectEnv<'_>,
    body: &[Stmt],
    params: &[String],
    self_model: Option<String>,
    file: &SourceFile,
    recurse: bool,
    probe: &mut P,
    out: &mut DetectOut,
) {
    let chains = probe.time("UseDefChains::compute", || UseDefChains::compute(body, params));
    out.defs += chains.defs().len() as u64;
    let guards =
        probe.time("NullGuards::analyze_with", || NullGuards::analyze_with(body, env.summaries));
    let resolver = probe.time("Resolver::new", || Resolver::new(env.registry, &chains, self_model));
    let ctx = DetectCtx {
        resolver: &resolver,
        guards: &guards,
        file: &file.path,
        source: &file.text,
        options: env.options,
        summaries: env.summaries,
        families: env.families,
    };
    probe.time("detect_all", || detect_all(&ctx, body, &mut out.detections));
    probe.time("collect_none_assignments", || {
        collect_none_assignments(&ctx, body, &mut out.none_assigned)
    });
    out.resolutions += resolver.resolution_count();
    out.functions += 1;
    // Freeing the per-function analyses is part of their cost.
    let freeing = probe.clock();
    drop(resolver);
    drop(guards);
    drop(chains);
    if let Some(start) = freeing {
        probe.record_since("free function state", start);
    }
    if !recurse {
        return;
    }
    walk_shallow(body, &mut |stmt| {
        if let StmtKind::FunctionDef(f) = &stmt.kind {
            let params: Vec<String> = f.params.iter().map(|p| p.name.clone()).collect();
            function(env, &f.body, &params, None, file, true, probe, out);
        }
    });
}

/// Layer spans whose sum must account for the 1-thread analyze wall.
/// `parse pass` covers lexing, parsing, class and inter-procedural fact
/// extraction plus the engine around them; `detect pass` covers the
/// per-function layers, walking each module's scopes, the engine and the
/// merge.
const ANALYZE_LAYERS: [&str; 8] = [
    "parse pass",
    "ModelRegistry::add_classes",
    "SummaryTable::build",
    "detect pass",
    "registry_patterns",
    "diff",
    "AnalysisReport",
    "free modules",
];

/// The layers a module's detection walks through, per function.
const FUNCTION_LAYERS: [&str; 6] = [
    "UseDefChains::compute",
    "NullGuards::analyze_with",
    "Resolver::new",
    "detect_all",
    "collect_none_assignments",
    "free function state",
];

fn layer_sum(spans: &Spans) -> f64 {
    ANALYZE_LAYERS.iter().map(|l| spans.total_s(l)).sum::<f64>()
}

/// One replay's products.
struct Replayed {
    json: String,
    modules: Vec<Module>,
    registry: ModelRegistry,
    summaries: Option<SummaryTable>,
    per_module: usize,
}

/// `CFinder::analyze` at one thread, replayed layer by layer.
fn replay(
    source: &AppSource,
    declared: &Schema,
    options: &CFinderOptions,
    spans: &mut Spans,
    c: &mut Counts,
    out: &mut Outcome,
) -> Replayed {
    spans.enter("analyze");
    // Pass 0 as `CFinder::analyze` runs it: through the engine's cached,
    // panic-isolating fan-out at one thread, so the pass's own cost lands
    // in the `parse pass` span around the per-file layers.
    spans.enter("parse pass");
    let parsed = {
        let shared = Mutex::new((&mut *spans, &mut *c, &mut *out));
        engine::map_ordered_catch_cached(
            &source.files,
            1,
            &Obs::disabled().tracer,
            "parse",
            |_| Ok(None),
            |file| {
                let mut guard = shared.lock().expect("one worker");
                let (spans, c, out) = &mut *guard;
                let lexed = spans.time("lexer::lex_recovering", || lex_recovering(&file.text));
                c.tokens += lexed.tokens.len() as u64;
                c.files += 1;
                c.bytes += file.text.len() as u64;
                let rec = spans.time("parse_tokens_recovering", || {
                    parse_tokens_recovering(lexed.tokens, lexed.errors)
                });
                if !rec.errors.is_empty() {
                    let n = rec.errors.len();
                    out.error(format!("{}: {n} parse errors in the replay", file.path));
                }
                let classes =
                    spans.time("extract_classes", || extract_classes(&rec.module, &file.path));
                let interproc =
                    spans.time("InterprocFacts::extract", || InterprocFacts::extract(&rec.module));
                (rec.module, classes, interproc)
            },
            |_, _| false,
        )
    };
    let mut modules: Vec<Module> = Vec::with_capacity(source.files.len());
    let mut facts = Vec::with_capacity(source.files.len());
    for (file, result) in source.files.iter().zip(parsed) {
        match result {
            Ok(cached) => {
                let (module, classes, interproc) = cached.value;
                facts.push((classes, interproc));
                modules.push(module);
            }
            Err(e) => out.error(format!("{}: replay panicked: {e}", file.path)),
        }
    }
    spans.exit();
    let registry = spans.time("ModelRegistry::add_classes", || {
        let mut r = ModelRegistry::new();
        for (classes, _) in &facts {
            r.add_classes(classes);
        }
        r
    });
    c.models += registry.len() as u64;
    c.fields += registry.field_count() as u64;
    let summaries = options.interprocedural.then(|| {
        spans.time("SummaryTable::build", || {
            let per_file: Vec<(&str, &InterprocFacts)> = source
                .files
                .iter()
                .zip(&facts)
                .map(|(f, (_, ip))| (f.path.as_str(), ip))
                .filter(|(_, ip)| !ip.is_empty())
                .collect();
            if per_file.is_empty() {
                SummaryTable::default()
            } else {
                SummaryTable::build(&per_file, &SummaryBudget::default())
            }
        })
    });
    if let Some(t) = &summaries {
        c.callgraph_nodes += t.stats.nodes as u64;
        c.callgraph_edges += t.stats.edges as u64;
        c.summary_iterations += t.stats.iterations as u64;
    }
    spans.time("free modules", || drop(facts));
    // `FamilyTimers` is not `Sync`, so the engine's closure builds its own
    // environment from these parts.
    let (registry_ref, summaries_ref) = (&registry, summaries.as_ref());
    // Pass 2 as `CFinder::analyze` runs it: one detection output per
    // module from the engine's fan-out at one thread, merged in file
    // order; the `detect pass` span holds the engine and the merge.
    spans.enter("detect pass");
    let per_module = {
        let shared = Mutex::new(&mut *spans);
        let items: Vec<(&SourceFile, &Module)> = source.files.iter().zip(&modules).collect();
        engine::map_ordered_catch_cached(
            &items,
            1,
            &Obs::disabled().tracer,
            "detect",
            |_| Ok(None),
            |(file, module)| {
                let env = DetectEnv {
                    registry: registry_ref,
                    summaries: summaries_ref,
                    options,
                    families: None,
                };
                let mut spans = shared.lock().expect("one worker");
                let mut det = DetectOut::default();
                spans.enter("detect_file");
                scopes(&env, &module.body, file, None, &mut **spans, &mut det);
                spans.exit();
                det
            },
            |_, _| false,
        )
    };
    let mut det = DetectOut::default();
    for (file, result) in source.files.iter().zip(per_module) {
        match result {
            Ok(cached) => {
                let m = cached.value;
                det.detections.extend(m.detections);
                det.none_assigned.extend(m.none_assigned);
                det.cfg_nodes += m.cfg_nodes;
                det.defs += m.defs;
                det.functions += m.functions;
                det.resolutions += m.resolutions;
            }
            Err(e) => out.error(format!("{}: replay panicked: {e}", file.path)),
        }
    }
    spans.exit();
    c.cfg_nodes += det.cfg_nodes;
    c.defs += det.defs;
    c.functions += det.functions;
    c.resolutions += det.resolutions;
    let mut detections = std::mem::take(&mut det.detections);
    let per_module = detections.len();
    spans.time("registry_patterns", || {
        detect_n3(&registry, &det.none_assigned, &mut detections);
        if options.ext_one_to_one_unique {
            detect_x1(&registry, &mut detections);
        }
    });
    c.detections += detections.len() as u64;
    let (inferred, existing_covered, missing) = spans.time("diff", || diff(&detections, declared));
    let json = spans.time("AnalysisReport", || {
        AnalysisReport {
            app: source.name.clone(),
            detections,
            inferred,
            missing,
            existing_covered,
            analysis_time: Duration::ZERO,
            loc: source.loc(),
            incidents: Vec::new(),
            files_total: source.files.len(),
            timings: StageTimings::default(),
        }
        .stable_json()
    });
    spans.exit();
    Replayed { json, modules, registry, summaries, per_module }
}

/// Replays one app's analysis and checks it against `CFinder::analyze`.
///
/// `rounds` replays alternate with `rounds + 1` analyses, each pass
/// starting from a trimmed heap as a fresh process does (otherwise a
/// pass reuses pages the one before it freed, and which pass pays for
/// faulting them in depends on the order). The machine's speed drifts
/// within seconds, so each replay's layer sum is compared with the mean
/// of the two analyses around it, and the median of those gaps is what
/// the layers leave unaccounted. Only the first replay feeds the
/// per-layer totals.
fn analysis_segment(
    app: &GeneratedApp,
    rounds: usize,
    spans: &mut Spans,
    c: &mut Counts,
    out: &mut Outcome,
) {
    let source = AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    );
    let finder = CFinder::new().with_threads(1).with_limits(Limits::default());
    let options = *finder.options();
    let timed_analyze = || {
        trim_heap();
        let start = Instant::now();
        let report = finder.analyze(&source, &app.declared);
        (start.elapsed().as_secs_f64(), report)
    };
    if c.files == 0 {
        // Untimed: the first analysis in a process also pays for growing
        // the heap, which the analyses after it do not.
        drop(timed_analyze());
    }
    let (first, reference) = timed_analyze();
    let reference_json = reference.stable_json();
    let mut walls = vec![first];
    let mut gaps = Vec::new();
    for round in 0..rounds {
        let (mut scratch, mut scratch_counts) = (Spans::default(), Counts::default());
        let (sp, cc) =
            if round == 0 { (&mut *spans, &mut *c) } else { (&mut scratch, &mut scratch_counts) };
        let layers_before = layer_sum(sp);
        trim_heap();
        let start = Instant::now();
        let replayed = replay(&source, &app.declared, &options, sp, cc, out);
        let replay_wall = start.elapsed().as_secs_f64();
        out.op(replayed.json == reference_json, || {
            format!("{}: replayed detections differ from CFinder::analyze", app.name)
        });
        if round == 0 {
            engine_pass(&source, &replayed, &reference, sp, cc, out);
            cfg_pass(&replayed.modules, sp, cc);
        }
        let freeing = Instant::now();
        sp.time("free modules", || drop(replayed));
        if round == 0 {
            let wall = replay_wall + freeing.elapsed().as_secs_f64();
            cc.replay += Duration::from_secs_f64(wall.max(0.0));
        }
        let layers = layer_sum(sp) - layers_before;
        walls.push(timed_analyze().0);
        gaps.push((walls[round] + walls[round + 1]) / 2.0 - layers);
    }
    let median = |v: &[f64]| crate::stats::median(v).unwrap_or(0.0);
    c.analyze_1t += Duration::from_secs_f64(median(&walls));
    c.unaccounted += median(&gaps);
    sql_segment(app, &reference.missing, spans, c, out);
}

/// Times `Cfg::build` alone on every body the detection replay analyzes,
/// apart from the replay: `UseDefChains::compute` builds its own CFG, so
/// this gives CFG construction apart from reaching definitions, and run
/// inside the replay it would warm the caches for the layers after it.
fn cfg_pass(modules: &[Module], spans: &mut Spans, c: &mut Counts) {
    fn scope_bodies<'a>(body: &'a [Stmt], in_class: bool, out: &mut Vec<&'a [Stmt]>) {
        for stmt in body {
            match &stmt.kind {
                StmtKind::FunctionDef(f) => function_bodies(&f.body, out),
                StmtKind::ClassDef(c) => scope_bodies(&c.body, true, out),
                _ => {}
            }
        }
        let top_level_code = !in_class
            && body.iter().any(|s| {
                !matches!(
                    s.kind,
                    StmtKind::FunctionDef(_)
                        | StmtKind::ClassDef(_)
                        | StmtKind::Import { .. }
                        | StmtKind::ImportFrom { .. }
                )
            });
        if top_level_code {
            out.push(body);
        }
    }
    fn function_bodies<'a>(body: &'a [Stmt], out: &mut Vec<&'a [Stmt]>) {
        out.push(body);
        walk_shallow(body, &mut |stmt| {
            if let StmtKind::FunctionDef(f) = &stmt.kind {
                function_bodies(&f.body, out);
            }
        });
    }
    let mut bodies = Vec::new();
    for module in modules {
        scope_bodies(&module.body, false, &mut bodies);
    }
    for body in bodies {
        let cfg = spans.time("Cfg::build", || Cfg::build(body));
        c.cfg_nodes += cfg.len() as u64;
    }
}

/// Detection again, fanned out by the engine with a timed closure. This
/// pass also splits detection time by pattern family (per-module family
/// timers, as `cfinder-core` keeps them when observability is on); the
/// serial replay runs without them, like the analyzer.
fn engine_pass(
    source: &AppSource,
    replayed: &Replayed,
    reference: &AnalysisReport,
    spans: &mut Spans,
    c: &mut Counts,
    out: &mut Outcome,
) {
    let options = CFinderOptions::default();
    let (registry, summaries) = (&replayed.registry, replayed.summaries.as_ref());
    let items: Vec<(&SourceFile, &Module)> = source.files.iter().zip(&replayed.modules).collect();
    let threads = nproc();
    let start = Instant::now();
    let timed = engine::map_ordered(&items, threads, |(file, module)| {
        let t0 = Instant::now();
        let timers = FamilyTimers::new();
        let env = DetectEnv { registry, summaries, options: &options, families: Some(&timers) };
        let mut d = DetectOut::default();
        scopes(&env, &module.body, file, None, &mut NoProbe, &mut d);
        (std::thread::current().id(), t0, t0.elapsed(), d.detections, timers.totals())
    });
    let wall = start.elapsed();
    let mut per_worker: Vec<(ThreadId, Duration)> = Vec::new();
    let mut parallel: Vec<Detection> = Vec::new();
    for (id, t0, dur, dets, families) in timed {
        for (acc, (_, ns)) in c.family_ns.iter_mut().zip(families) {
            *acc += ns;
        }
        spans.record("engine::map_ordered closure", t0, dur);
        match per_worker.iter_mut().find(|w| w.0 == id) {
            Some(w) => w.1 += dur,
            None => per_worker.push((id, dur)),
        }
        parallel.extend(dets);
    }
    spans.record("engine::map_ordered", start, wall);
    let busy: Duration = per_worker.iter().map(|w| w.1).sum();
    c.engine_wall += wall;
    c.engine_busy += busy;
    c.engine_idle += (wall * threads as u32).saturating_sub(busy);
    let max = per_worker.iter().map(|w| w.1.as_secs_f64()).fold(0.0, f64::max);
    c.engine_imbalance.push(max / (busy.as_secs_f64() / threads as f64).max(f64::EPSILON));
    if parallel[..] != reference.detections[..replayed.per_module] {
        out.error(format!(
            "{}: engine-fanned detections differ from the serial replay",
            source.name
        ));
    }
}

/// The app's declared dump and fix script, emitted and parsed back.
fn sql_segment(
    app: &GeneratedApp,
    reference_missing: &[MissingConstraint],
    spans: &mut Spans,
    c: &mut Counts,
    out: &mut Outcome,
) {
    let dump = spans
        .time("schema_to_sql", || cfinder_sql::schema_to_sql(&app.declared, Dialect::Postgres));
    let script = spans.time("fix_script", || {
        cfinder_sql::fix_script(
            reference_missing.iter().map(|m| &m.constraint),
            Dialect::Postgres,
            Some(&app.declared),
            &app.name,
        )
    });
    for text in [&dump, &script] {
        let parsed = spans.time("parse_sql", || cfinder_sql::parse_sql(text));
        c.statements += parsed.statements as u64;
        if !parsed.errors.is_empty() {
            out.error(format!("{}: emitted SQL does not parse back", app.name));
        }
    }
}

/// Pass 4 of `CFinder::analyze`: constraint sets and the schema diff.
fn diff(
    detections: &[Detection],
    declared: &Schema,
) -> (ConstraintSet, ConstraintSet, Vec<MissingConstraint>) {
    let inferred: ConstraintSet = detections.iter().map(|d| d.constraint.clone()).collect();
    let existing = inferred.intersection(declared.constraints());
    let missing = inferred
        .difference(declared.constraints())
        .iter()
        .map(|c| MissingConstraint {
            constraint: c.clone(),
            detections: detections.iter().filter(|d| &d.constraint == c).cloned().collect(),
        })
        .collect();
    (inferred, existing, missing)
}

// --- serve ------------------------------------------------------------------

/// An in-process daemon over OS pipes, served from a scoped thread.
fn serve_segment(
    args: &Args,
    work: &WorkDir,
    edits: usize,
    spans: &mut Spans,
    c: &mut Counts,
    out: &mut Outcome,
) -> Result<(), String> {
    let root = work.path().join("serve");
    let (app, mut editor) = serve_edit::write_tenant(args.seed, &root)?;
    let mut rng = StdRng::seed_from_u64(args.seed ^ 0x5E87_E000);
    let plan = editor.plan(&mut rng, edits);
    let cache_dir = root.join("cache");
    let (req_read, req_write) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let (reply_read, reply_write) = std::io::pipe().map_err(|e| format!("pipe: {e}"))?;
    let config = ServeConfig { cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };
    std::thread::scope(|scope| {
        let daemon = scope
            .spawn(move || cfinder_serve::serve(config, BufReader::new(req_read), reply_write));
        let mut client = Client::new(req_write, BufReader::new(reply_read));
        let result = drive_daemon(&mut client, &app, &mut editor, &plan, &cache_dir, spans, c, out);
        let stopped = client.shutdown();
        drop(client);
        let joined = daemon.join().map_err(|_| "daemon thread panicked".to_string());
        result.and(stopped).and(joined?.map(|_| ()).map_err(|e| format!("daemon: {e}")))
    })
}

#[allow(clippy::too_many_arguments)]
fn drive_daemon<W: Write, R: std::io::BufRead>(
    client: &mut Client<W, R>,
    app: &DiskApp,
    editor: &mut serve_edit::Editor,
    plan: &[serve_edit::Edit],
    cache_dir: &Path,
    spans: &mut Spans,
    c: &mut Counts,
    out: &mut Outcome,
) -> Result<(), String> {
    spans.set_request(0);
    let cold = spans.time("serve register+cold analyze", || {
        client.call(&register_body(app)).and_then(|_| client.call(&analyze_body()))
    })?;
    let (_, cold) = serve_edit::analysis_of(&cold)?;

    // The same options and limits the daemon analyzes with, so the
    // cache layer is timed against the daemon's own entries.
    let options = CFinderOptions::default();
    let limits = Limits::from_env();
    let cache = AnalysisCache::open(cache_dir, &options, &limits).map_err(|e| e.to_string())?;
    let store_cache =
        AnalysisCache::open(cache_dir.with_file_name("store-replay"), &options, &limits)
            .map_err(|e| e.to_string())?;
    let warm = CFinder::new().with_cache(Arc::new(
        AnalysisCache::open(cache_dir, &options, &limits).map_err(|e| e.to_string())?,
    ));
    let registry = Registry::new();
    let project =
        registry.register(serve_edit::TENANT, app.src(), Some(app.dir.join("schema.json")));

    for (i, edit) in plan.iter().enumerate() {
        spans.set_request(i as u64 + 1);
        let text = editor.apply(edit);
        std::fs::write(editor.path(edit.file), &text)
            .map_err(|e| format!("writing an edit: {e}"))?;
        let start = Instant::now();
        let reply = spans.time("serve roundtrip", || client.call(&analyze_body()))?;
        let roundtrip = start.elapsed();
        c.reply_bytes += reply.len() as u64;
        let verdict = check_edit_reply(&reply, &cold);
        out.op(verdict.is_ok(), || verdict.clone().unwrap_err());
        let analysis_ms = serve_edit::result_of(&reply)
            .ok()
            .and_then(|r| r.get("analysis_ms").and_then(Value::as_f64))
            .unwrap_or(0.0);
        c.overhead += roundtrip.saturating_sub(Duration::from_secs_f64(analysis_ms / 1e3));
        c.files_parsed += serve_edit::analysis_of(&reply).map_or(0, |(p, _)| p);

        // The layers one warm request walks through, called directly.
        let (source, declared) = spans.time("Project::load", || project.load())?;
        let hashes: Vec<String> = source
            .files
            .iter()
            .map(|f| spans.time("cache::content_hash", || cache::content_hash(&f.text)))
            .collect();
        let mut entries = Vec::new();
        for (f, h) in source.files.iter().zip(&hashes) {
            match spans.time("AnalysisCache::lookup", || cache.lookup(&f.path, h)) {
                Lookup::Hit(e) => {
                    c.cache_hits += 1;
                    entries.push(*e);
                }
                _ => c.cache_misses += 1,
            }
        }
        let mut registry = ModelRegistry::new();
        for e in &entries {
            registry.add_classes(&e.classes);
        }
        let per_file: Vec<(&str, &InterprocFacts)> = entries
            .iter()
            .map(|e| (e.path.as_str(), &e.interproc))
            .filter(|(_, ip)| !ip.is_empty())
            .collect();
        let table = SummaryTable::build(&per_file, &SummaryBudget::default());
        let context = cache::detect_context_hash(&cache::registry_hash(&registry), Some(&table));
        for (f, h) in source.files.iter().zip(&hashes) {
            match spans
                .time("AnalysisCache::lookup_detect", || cache.lookup_detect(&f.path, h, &context))
            {
                Lookup::Hit(_) => c.cache_hits += 1,
                _ => c.cache_misses += 1,
            }
        }
        // Storing the edited file's parse entry, into a separate directory.
        if let Some(e) = entries.iter().find(|e| editor.path(edit.file).ends_with(&e.path)) {
            if spans.time("AnalysisCache::store", || store_cache.store(e)).is_err() {
                out.error("storing a cache entry failed");
            }
        }
        let report = spans.time("CFinder::analyze warm", || warm.analyze(&source, &declared));
        if report.stable_json() != cold {
            out.error("warm in-process analyze differs from the daemon's answer");
        }
    }
    Ok(())
}

// --- minidb -----------------------------------------------------------------

fn minidb_segment(
    args: &Args,
    work: &WorkDir,
    requests: usize,
    spans: &mut Spans,
    out: &mut Outcome,
) -> Result<Tally, String> {
    let root: PathBuf = work.path().join("minidb");
    let (schema, inferred) = guarded_db::schema_for(&args.cfinder, &root)?;
    let mut prep = Prepared::new(schema, inferred)?;
    spans.set_request(0);
    let mut db = prep.load_with(spans)?;
    prep.plan_reads(&db)?;
    let pool = prep.requests(&db, args.seed)?;
    let mut tally = Tally::default();
    for (i, req) in pool.iter().cycle().take(requests).enumerate() {
        spans.set_request(i as u64 + 1);
        spans.enter("request");
        let verdict = prep.run_request(&mut db, req, spans, &mut tally);
        spans.exit();
        out.op(verdict.is_ok(), || verdict.unwrap_err());
    }
    Ok(tally)
}

// --- metrics ----------------------------------------------------------------

fn report(spans: &Spans, c: &Counts, tally: &Tally, out: &mut Outcome) {
    let s = |name: &str| spans.total_s(name);
    let n = |name: &str| spans.count(name) as usize;
    let mut put = |name: &str, value: f64, unit: &'static str, samples: usize| {
        out.metric(name, value, unit, samples)
    };
    put("pyast.lex_s", s("lexer::lex_recovering"), "s", n("lexer::lex_recovering"));
    put("pyast.tokens", c.tokens as f64, "count", 1);
    put("pyast.parse_s", s("parse_tokens_recovering"), "s", n("parse_tokens_recovering"));
    put("pyast.files", c.files as f64, "count", 1);
    put("pyast.bytes", c.bytes as f64, "B", 1);
    put(
        "core.models_s",
        s("extract_classes") + s("ModelRegistry::add_classes"),
        "s",
        n("extract_classes"),
    );
    put("core.models", c.models as f64, "count", 1);
    put("core.fields", c.fields as f64, "count", 1);
    put(
        "flow.interproc_extract_s",
        s("InterprocFacts::extract"),
        "s",
        n("InterprocFacts::extract"),
    );
    put("flow.summaries_s", s("SummaryTable::build"), "s", n("SummaryTable::build"));
    put("flow.callgraph_nodes", c.callgraph_nodes as f64, "count", 1);
    put("flow.callgraph_edges", c.callgraph_edges as f64, "count", 1);
    put("flow.summary_iterations", c.summary_iterations as f64, "count", 1);
    let cfg = s("Cfg::build");
    put("flow.cfg_s", cfg, "s", n("Cfg::build"));
    put("flow.cfg_nodes", c.cfg_nodes as f64, "count", 1);
    put(
        "flow.reaching_s",
        (s("UseDefChains::compute") - cfg).max(0.0),
        "s",
        n("UseDefChains::compute"),
    );
    put("flow.defs", c.defs as f64, "count", 1);
    put("flow.functions", c.functions as f64, "count", 1);
    put("flow.nullguard_s", s("NullGuards::analyze_with"), "s", n("NullGuards::analyze_with"));
    put("core.resolutions", c.resolutions as f64, "count", 1);
    put("core.detect_all_s", s("detect_all"), "s", n("detect_all"));
    put("core.none_assign_s", s("collect_none_assignments"), "s", n("collect_none_assignments"));
    put("core.registry_patterns_s", s("registry_patterns"), "s", n("registry_patterns"));
    for (label, ns) in FAMILY_LABELS.iter().zip(c.family_ns) {
        put(&format!("core.family.{label}_s"), ns as f64 * 1e-9, "s", n("detect_all"));
    }
    put("core.detections", c.detections as f64, "count", 1);
    put("core.parse_pass_s", s("parse pass"), "s", n("parse pass"));
    put("core.detect_pass_s", s("detect pass"), "s", n("detect pass"));
    let free = s("free function state") + s("free modules");
    put("core.free_s", free, "s", n("free function state"));
    let walk = s("detect_file") - FUNCTION_LAYERS.iter().map(|l| s(l)).sum::<f64>();
    put("core.scope_walk_s", walk, "s", n("detect_file"));
    let analyze = c.analyze_1t.as_secs_f64();
    let unaccounted = c.unaccounted;
    put("core.analyze_1t_s", analyze, "s", n("analyze"));
    put("core.unaccounted_s", unaccounted, "s", n("analyze"));
    put("core.engine.wall_s", c.engine_wall.as_secs_f64(), "s", n("engine::map_ordered"));
    put("core.engine.busy_s", c.engine_busy.as_secs_f64(), "s", n("engine::map_ordered closure"));
    put("core.engine.idle_s", c.engine_idle.as_secs_f64(), "s", n("engine::map_ordered"));
    let imbalance = crate::stats::median(&c.engine_imbalance).unwrap_or(0.0);
    put("core.engine.imbalance", imbalance, "ratio", c.engine_imbalance.len());
    put("sql.parse_s", s("parse_sql"), "s", n("parse_sql"));
    put("sql.statements", c.statements as f64, "count", 1);
    put("sql.emit_s", s("schema_to_sql") + s("fix_script"), "s", n("fix_script"));
    put("serve.load_s", s("Project::load"), "s", n("Project::load"));
    put("core.cache.hash_s", s("cache::content_hash"), "s", n("cache::content_hash"));
    put("core.cache.lookup_s", s("AnalysisCache::lookup"), "s", n("AnalysisCache::lookup"));
    put(
        "core.cache.lookup_detect_s",
        s("AnalysisCache::lookup_detect"),
        "s",
        n("AnalysisCache::lookup_detect"),
    );
    put("core.cache.store_s", s("AnalysisCache::store"), "s", n("AnalysisCache::store"));
    put("core.cache.hits", c.cache_hits as f64, "count", 1);
    put("core.cache.misses", c.cache_misses as f64, "count", 1);
    let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
    put("core.cache.hit_ratio", c.cache_hits as f64 / lookups, "ratio", 1);
    put("core.analyze_warm_s", s("CFinder::analyze warm"), "s", n("CFinder::analyze warm"));
    put("core.files_parsed", c.files_parsed as f64, "count", 1);
    put("serve.roundtrip_s", s("serve roundtrip"), "s", n("serve roundtrip"));
    put("serve.overhead_s", c.overhead.as_secs_f64(), "s", n("serve roundtrip"));
    put("serve.reply_bytes", c.reply_bytes as f64, "B", n("serve roundtrip"));
    put("minidb.from_schema_s", s("Database::from_schema"), "s", n("Database::from_schema"));
    put("minidb.load_s", s("Database::load"), "s", n("Database::load"));
    put("minidb.insert_s", s("Database::insert"), "s", n("Database::insert"));
    put("minidb.inserts", tally.inserts as f64, "count", 1);
    put("minidb.insert_rejected", tally.insert_rejected as f64, "count", 1);
    put("minidb.update_s", s("Database::update"), "s", n("Database::update"));
    put("minidb.updates", tally.updates as f64, "count", 1);
    put("minidb.update_rejected", tally.update_rejected as f64, "count", 1);
    put("minidb.delete_s", s("Database::delete"), "s", n("Database::delete"));
    put("minidb.deletes", tally.deletes as f64, "count", 1);
    put("minidb.plan_s", s("plan_with_constraints"), "s", n("plan_with_constraints"));
    put("minidb.rewrites", tally.rewrites.values().sum::<u64>() as f64, "count", 1);
    for rule in guarded_db::RULES {
        let fired = tally.rewrites.get(rule).copied().unwrap_or(0);
        put(&format!("minidb.rewrite.{rule}"), fired as f64, "count", 1);
    }
    put("minidb.execute_s", s("execute"), "s", n("execute"));
    put("minidb.rows_out", tally.rows_out as f64, "count", 1);
    let overhead = c.replay.as_secs_f64() / analyze.max(f64::EPSILON) - 1.0;
    put("trace.overhead_ratio", overhead, "ratio", n("analyze"));
    // The layers must account for the analyze wall: a larger gap means
    // the ledger misses a layer, and the run is not correct.
    let share = unaccounted / analyze.max(f64::EPSILON);
    out.note("unaccounted_share", format!("{:.2}%", share * 100.0));
    if share > UNACCOUNTED_LIMIT {
        out.error(format!(
            "{:.1}% of the 1-thread analyze wall is unaccounted (limit {:.0}%)",
            share * 100.0,
            UNACCOUNTED_LIMIT * 100.0
        ));
    }
}

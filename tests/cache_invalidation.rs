//! The invalidation matrix: every ingredient of the cache key — file
//! content, fingerprint salt, analyzer options, resource limits, the
//! deadline (including its environment knob), and the entry format —
//! must invalidate exactly the entries it covers; damaged entries must
//! degrade to typed misses with the answer recomputed, never a panic or
//! a wrong result.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use cfinder::core::detect::DEADLINE_ENV;
use cfinder::core::{
    AnalysisCache, AnalysisReport, AppSource, CFinder, CFinderOptions, IncidentKind, Limits,
    SourceFile,
};
use cfinder::corpus::{all_profiles, generate, GenOptions};
use cfinder::serve::daemon::request_limits;

const SCALE: GenOptions = GenOptions { loc_scale: 0.01 };

fn to_source(app: &cfinder::corpus::GeneratedApp) -> AppSource {
    AppSource::new(
        app.name.clone(),
        app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("cfinder-cache-inv-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// All entry files (both parse and detect entries) under a cache root.
fn entry_files(root: &PathBuf) -> Vec<PathBuf> {
    let mut files = Vec::new();
    for shard in fs::read_dir(root).expect("read cache root").flatten() {
        if !shard.path().is_dir() {
            continue;
        }
        for entry in fs::read_dir(shard.path()).expect("read shard").flatten() {
            if entry.path().extension().is_some_and(|x| x == "json") {
                files.push(entry.path());
            }
        }
    }
    files.sort();
    files
}

fn run(
    app: &cfinder::corpus::GeneratedApp,
    source: &AppSource,
    cache: Arc<AnalysisCache>,
) -> AnalysisReport {
    CFinder::new().with_threads(2).with_cache(cache).analyze(source, &app.declared)
}

#[test]
fn fingerprint_salt_options_and_limits_each_invalidate_the_whole_shard() {
    let app = generate(&all_profiles()[0], SCALE);
    let source = to_source(&app);
    let files = app.files.len();
    let dir = temp_dir("fingerprint");

    let options = CFinderOptions::default();
    let limits = Limits::default();
    let base = Arc::new(AnalysisCache::open_with_salt(&dir, &options, &limits, "").unwrap());
    run(&app, &source, base.clone()); // populate
    let warm = run(&app, &source, base.clone());
    assert_eq!((warm.timings.cache_hits, warm.timings.cache_misses), (files, 0));

    // Each variant is a different tool fingerprint: its lookups all miss,
    // and the base shard's entries are untouched (still fully warm after).
    let salted = AnalysisCache::open_with_salt(&dir, &options, &limits, "bumped").unwrap();
    let ablated = AnalysisCache::open_with_salt(
        &dir,
        &CFinderOptions { null_guard_analysis: false, ..options },
        &limits,
        "",
    )
    .unwrap();
    let capped = AnalysisCache::open_with_salt(
        &dir,
        &options,
        &Limits { max_tokens: 777_777, ..limits },
        "",
    )
    .unwrap();
    for (what, variant) in [("salt", salted), ("options", ablated), ("limits", capped)] {
        assert_ne!(variant.fingerprint(), base.fingerprint(), "{what}");
        let cold = run(&app, &source, Arc::new(variant));
        assert_eq!(cold.timings.cache_hits, 0, "{what}: expected a fully cold shard");
        assert_eq!(cold.timings.cache_misses, files, "{what}");
    }
    let still_warm = run(&app, &source, base);
    assert_eq!(
        (still_warm.timings.cache_hits, still_warm.timings.files_parsed),
        (files, 0),
        "foreign fingerprints must not disturb the base shard"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Flipping `CFinderOptions::interprocedural` changes the tool
/// fingerprint: the summaries-off configuration lands in its own shard —
/// fully cold on first contact — and never disturbs the summaries-on
/// shard a default run populated (and vice versa). The cached
/// intra-procedural answer matches the uncached one byte for byte, so a
/// `--ablate interproc` run can never replay helper-hop detections out of
/// a summaries-on shard.
#[test]
fn interprocedural_option_invalidates_the_whole_shard() {
    let app = generate(&all_profiles()[0], SCALE);
    let source = to_source(&app);
    let files = app.files.len();
    let dir = temp_dir("interproc-flip");
    let options = CFinderOptions::default();
    let limits = Limits::default();

    let on = Arc::new(AnalysisCache::open_with_salt(&dir, &options, &limits, "").unwrap());
    run(&app, &source, on.clone()); // populate
    let warm = run(&app, &source, on.clone());
    assert_eq!((warm.timings.cache_hits, warm.timings.cache_misses), (files, 0));

    let off_options = CFinderOptions { interprocedural: false, ..options };
    let off = AnalysisCache::open_with_salt(&dir, &off_options, &limits, "").unwrap();
    assert_ne!(off.fingerprint(), on.fingerprint(), "interprocedural must be fingerprinted");
    assert_eq!(
        off.fingerprint(),
        AnalysisCache::open_with_salt(&dir, &CFinderOptions::paper(), &limits, "")
            .unwrap()
            .fingerprint(),
        "the paper configuration differs from the default only in `interprocedural`"
    );

    let reference = CFinder::with_options(off_options).analyze(&source, &app.declared);
    let cold = CFinder::with_options(off_options)
        .with_threads(2)
        .with_cache(Arc::new(off))
        .analyze(&source, &app.declared);
    assert_eq!(cold.timings.cache_hits, 0, "expected a fully cold shard after the flip");
    assert_eq!(cold.timings.cache_misses, files);
    assert_eq!(
        cold.stable_json(),
        reference.stable_json(),
        "cached intra-procedural run diverged from the uncached one"
    );

    let still_warm = run(&app, &source, on);
    assert_eq!(
        (still_warm.timings.cache_hits, still_warm.timings.files_parsed),
        (files, 0),
        "the summaries-off shard must not disturb the summaries-on shard"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Editing only a helper's *body* invalidates its callers' detect
/// entries: the edit costs exactly one parse miss (the helper file), but
/// the summary table — and with it the detect-context hash — changes, so
/// every caller's detections are recomputed under the new summaries
/// instead of replayed stale. A follow-up run over the edited tree is
/// fully warm again, and reverting the edit replays the *original*
/// detect entries (they are content-addressed by context, not
/// invalidated in place) without re-parsing anything.
#[test]
fn editing_a_helper_body_invalidates_callers_detect_entries() {
    let clean_app = generate(&all_profiles()[0], SCALE);
    let clean_source = to_source(&clean_app);
    let files = clean_app.files.len();
    let dir = temp_dir("helper-edit");
    let cache = Arc::new(
        AnalysisCache::open_with_salt(&dir, &CFinderOptions::default(), &Limits::default(), "")
            .unwrap(),
    );

    let clean = run(&clean_app, &clean_source, cache.clone()); // populate
    let warm = run(&clean_app, &clean_source, cache.clone());
    assert_eq!((warm.timings.cache_hits, warm.timings.files_parsed), (files, 0));

    // Neuter the first helper's enforcement: its dominating raise becomes
    // a dominating return, so the helper loses its summary and its call
    // sites degrade to the intra-procedural result. Only `validators.py`
    // changes on disk.
    let mut edited_app = clean_app.clone();
    let helper_file =
        edited_app.files.iter_mut().find(|f| f.path == "validators.py").expect("helper file");
    assert!(helper_file.text.contains("raise ValueError("));
    helper_file.text = helper_file.text.replacen("raise ValueError(", "return (", 1);
    let edited_source = to_source(&edited_app);
    let reference = CFinder::new().analyze(&edited_source, &edited_app.declared).stable_json();
    assert_ne!(
        reference,
        clean.stable_json(),
        "the helper edit must change the analysis result, or this test is vacuous"
    );

    let edited = run(&edited_app, &edited_source, cache.clone());
    assert_eq!(
        (edited.timings.cache_hits, edited.timings.cache_misses),
        (files - 1, 1),
        "only the helper file's parse entry may miss"
    );
    assert_eq!(
        edited.stable_json(),
        reference,
        "callers replayed stale detect entries after a helper-body edit"
    );
    assert!(
        edited.missing.len() < clean.missing.len(),
        "the neutered helper's call sites must degrade to intra-procedural results"
    );

    // The recomputation healed the shard for the edited tree…
    let healed = run(&edited_app, &edited_source, cache.clone());
    assert_eq!((healed.timings.cache_hits, healed.timings.files_parsed), (files, 0));
    assert_eq!(healed.stable_json(), reference);

    // …and the original tree's entries are still there: reverting the
    // edit replays them byte for byte with zero re-parses.
    let reverted = run(&clean_app, &clean_source, cache);
    assert_eq!((reverted.timings.cache_hits, reverted.timings.files_parsed), (files, 0));
    assert_eq!(reverted.stable_json(), clean.stable_json());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deadline_env_changes_the_tool_fingerprint() {
    // `Limits::from_env` is what the CLI feeds the cache, so the
    // environment knob must round-trip into a distinct fingerprint.
    // (The request-carried assertions live in this same #[test] because
    // they mutate the same environment variable — separate tests would
    // race under the parallel test runner.)
    let options = CFinderOptions::default();
    let dir = temp_dir("deadline");
    std::env::remove_var(DEADLINE_ENV);
    let without = AnalysisCache::open_with_salt(&dir, &options, &Limits::from_env(), "").unwrap();
    std::env::set_var(DEADLINE_ENV, "120000");
    let with = AnalysisCache::open_with_salt(&dir, &options, &Limits::from_env(), "").unwrap();
    assert_ne!(without.fingerprint(), with.fingerprint());

    // Invalidation-matrix row for the single carrier, `Limits::deadline`:
    // a deadline a `cfinder serve` request brings (`file_deadline_ms`) and
    // the same deadline from the environment fingerprint *identically* —
    // the request shares the shard an env-configured CLI run populated.
    std::env::remove_var(DEADLINE_ENV);
    let via_request =
        AnalysisCache::open_with_salt(&dir, &options, &request_limits(Some(120_000)), "").unwrap();
    assert_eq!(via_request.fingerprint(), with.fingerprint());

    // A request deadline overrides a conflicting env deadline...
    std::env::set_var(DEADLINE_ENV, "5");
    let request_wins =
        AnalysisCache::open_with_salt(&dir, &options, &request_limits(Some(120_000)), "").unwrap();
    assert_eq!(request_wins.fingerprint(), with.fingerprint());
    // ...including `0`, which means "explicitly no deadline" and must land
    // in the no-deadline shard, not a third one.
    let zero_disables =
        AnalysisCache::open_with_salt(&dir, &options, &request_limits(Some(0)), "").unwrap();
    std::env::remove_var(DEADLINE_ENV);
    assert_eq!(zero_disables.fingerprint(), without.fingerprint());
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn damaged_entries_are_typed_misses_never_panics_or_wrong_results() {
    let app = generate(&all_profiles()[0], SCALE);
    let source = to_source(&app);
    let reference = CFinder::new().analyze(&source, &app.declared).stable_json();
    let options = CFinderOptions::default();
    let limits = Limits::default();

    // Three damage modes: truncation, non-JSON garbage, and a stale
    // format version (valid JSON claiming a future entry format).
    for (mode, damage) in [
        ("truncated", "{\"format\""),
        ("garbage", "\u{0}\u{1}not json at all"),
        ("future-format", "{\"format\":999,\"path\":\"x\",\"content_hash\":\"y\"}"),
    ] {
        let dir = temp_dir(&format!("damage-{mode}"));
        let cache = Arc::new(AnalysisCache::open_with_salt(&dir, &options, &limits, "").unwrap());
        run(&app, &source, cache.clone()); // populate

        let entries = entry_files(&dir);
        assert!(!entries.is_empty());
        for file in &entries {
            fs::write(file, damage).unwrap();
        }
        let recovered = run(&app, &source, cache.clone());
        assert_eq!(
            recovered.stable_json(),
            reference,
            "{mode}: damaged entries changed the answer"
        );
        assert_eq!(recovered.timings.cache_hits, 0, "{mode}");
        assert!(
            recovered.incidents.iter().any(|i| i.kind == IncidentKind::CacheCorrupt),
            "{mode}: expected typed cache-corruption incidents"
        );
        // The incidents are diagnostics, not coverage events: the stable
        // report treats the run as clean.
        assert_eq!(recovered.coverage().percent_clean(), 100.0, "{mode}");

        // The recomputation healed the cache: fully warm again.
        let healed = run(&app, &source, cache);
        assert_eq!(healed.stable_json(), reference, "{mode}");
        assert_eq!(healed.timings.files_parsed, 0, "{mode}: recompute did not heal the cache");
        assert!(healed.incidents.iter().all(|i| i.kind != IncidentKind::CacheCorrupt), "{mode}");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn damaging_one_entry_leaves_every_other_entry_warm() {
    let app = generate(&all_profiles()[0], SCALE);
    let source = to_source(&app);
    let reference = CFinder::new().analyze(&source, &app.declared).stable_json();
    let dir = temp_dir("single");
    let cache = Arc::new(
        AnalysisCache::open_with_salt(&dir, &CFinderOptions::default(), &Limits::default(), "")
            .unwrap(),
    );
    run(&app, &source, cache.clone()); // populate

    let entries = entry_files(&dir);
    fs::write(&entries[entries.len() / 2], "{\"truncated").unwrap();
    let recovered = run(&app, &source, cache);
    assert_eq!(recovered.stable_json(), reference);
    assert_eq!(
        recovered.incidents.iter().filter(|i| i.kind == IncidentKind::CacheCorrupt).count(),
        1,
        "exactly the damaged entry should surface"
    );
    // The damaged file was either a parse entry (a pass-0 miss) or a
    // detect entry (a pass-0 hit whose detection re-ran); both cost at
    // most one re-parse.
    assert!(recovered.timings.files_parsed <= 1, "{:?}", recovered.timings);
    let _ = fs::remove_dir_all(&dir);
}

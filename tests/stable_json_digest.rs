//! Behaviour oracle for refactors of the analyzer: a 128-bit
//! `StableHasher` digest of [`AnalysisReport::stable_json`] for every
//! corpus app, under both the paper configuration (summaries off) and the
//! default one (summaries on), pinned in `tests/goldens/stable_json.digests`
//! and required at 1, 2 and 4 analysis threads.
//!
//! A refactor that keeps behaviour leaves every digest untouched. Re-bless
//! with `CFINDER_BLESS=1 cargo test --test stable_json_digest` only for an
//! intended behaviour change, and name that change in the commit.

use std::fs;
use std::path::PathBuf;

use cfinder::core::{AnalysisReport, AppSource, CFinder, CFinderOptions, SourceFile};
use cfinder::corpus::{all_profiles, generate, GenOptions};
use cfinder::pyast::hash::StableHasher;

fn analyze(
    source: &AppSource,
    app: &cfinder::corpus::GeneratedApp,
    options: CFinderOptions,
    threads: usize,
) -> AnalysisReport {
    CFinder::with_options(options).with_threads(threads).analyze(source, &app.declared)
}

fn digest(report: &AnalysisReport) -> String {
    let mut h = StableHasher::new();
    h.write_str(&report.stable_json());
    h.finish_hex()
}

#[test]
fn stable_json_digests_match_the_golden_at_every_thread_count() {
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/stable_json.digests");
    let mut lines = Vec::new();
    for profile in all_profiles() {
        let app = generate(&profile, GenOptions::quick());
        let source = AppSource::new(
            app.name.clone(),
            app.files.iter().map(|f| SourceFile::new(f.path.clone(), f.text.clone())).collect(),
        );
        for (config, options) in
            [("paper", CFinderOptions::paper()), ("default", CFinderOptions::default())]
        {
            let reference = digest(&analyze(&source, &app, options, 1));
            for threads in [2, 4] {
                assert_eq!(
                    digest(&analyze(&source, &app, options, threads)),
                    reference,
                    "{} ({config}): {threads} threads diverged from 1 thread",
                    app.name
                );
            }
            lines.push(format!("{} {config} {reference}", app.name));
        }
    }
    let actual = lines.join("\n") + "\n";
    if std::env::var_os("CFINDER_BLESS").is_some() {
        fs::write(&golden, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("{}: {e} (bless with CFINDER_BLESS=1)", golden.display()));
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "stable_json digest changed");
    }
    assert_eq!(actual.lines().count(), expected.lines().count(), "digest line count changed");
}

//! Benchmark inputs: seeded paper-scale apps written to a private work
//! directory, and the ground-truth checks their outputs are held to.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use cfinder_corpus::{all_profiles, generate, AppProfile, GenOptions, GeneratedApp, Verdict};
use cfinder_schema::Constraint;
use cfinder_sql::Dialect;

/// A per-run scratch directory inside the checkout's build directory,
/// removed when dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `<build dir>/perfbench/<workload>-<pid>`; the build
    /// directory is `$CARGO_TARGET_DIR`, else `.bench_build`.
    pub fn create(workload: &str) -> std::io::Result<WorkDir> {
        let build = std::env::var_os("CARGO_TARGET_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from(".bench_build"));
        let path = build.join("perfbench").join(format!("{workload}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// The profile of `name` with its generator seed XOR'd with the workload
/// seed: every seed yields a different app of the same shape.
pub fn seeded_profile(name: &str, seed: u64) -> AppProfile {
    let mut p = cfinder_corpus::profile(name).expect("known corpus app");
    p.seed ^= seed;
    p
}

/// All eight evaluated apps, seeded.
pub fn seeded_profiles(seed: u64) -> Vec<AppProfile> {
    all_profiles()
        .into_iter()
        .map(|mut p| {
            p.seed ^= seed;
            p
        })
        .collect()
}

/// Generates an app at paper scale.
pub fn generate_app(profile: &AppProfile) -> GeneratedApp {
    generate(profile, GenOptions::paper())
}

/// The constraints the generator planted for the analyzer to report, split
/// into (true positives, planted false positives) — the counts every
/// seed must reproduce.
pub fn planned_counts(profile: &AppProfile) -> (usize, usize) {
    let m = &profile.missing;
    let (u, n, f) = m.true_positives();
    let (c, d) = m.check_default_true_positives();
    let tp = u + n + f + c + d + m.interproc.recovered_total();
    let total = m.unique_total() + m.not_null_total() + m.fk_total();
    let fp = total - u - n - f + m.check_total() - c + m.default_total() - d;
    (tp, fp)
}

/// An app as written to disk, plus what its analysis must report.
pub struct DiskApp {
    /// App name.
    pub name: String,
    /// The app directory (`src/`, `schema.sql`, `schema.json`).
    pub dir: PathBuf,
    /// Lines of code.
    pub loc: usize,
    /// Source files.
    pub files: usize,
    /// Planned (true positives, false positives).
    pub planned: (usize, usize),
    /// The generated app (sources, declared schema, ground truth).
    pub app: GeneratedApp,
}

impl DiskApp {
    /// Generates `profile` and writes it under `root/<name>`: the source
    /// tree, the declared schema as JSON, and its postgres dump.
    pub fn write(profile: &AppProfile, root: &Path) -> Result<DiskApp, String> {
        DiskApp::write_generated(profile, generate_app(profile), root)
    }

    /// [`DiskApp::write`] for an app already generated from `profile`.
    pub fn write_generated(
        profile: &AppProfile,
        app: GeneratedApp,
        root: &Path,
    ) -> Result<DiskApp, String> {
        let dir = root.join(profile.name);
        app.write_to(&dir).map_err(|e| format!("writing {}: {e}", dir.display()))?;
        let dump = cfinder_sql::schema_to_sql(&app.declared, Dialect::Postgres);
        std::fs::write(dir.join("schema.sql"), dump)
            .map_err(|e| format!("writing the {} dump: {e}", profile.name))?;
        Ok(DiskApp {
            name: profile.name.to_string(),
            loc: app.loc(),
            files: app.files.len(),
            planned: planned_counts(profile),
            dir,
            app,
        })
    }

    /// The source directory the analyzer is pointed at.
    pub fn src(&self) -> PathBuf {
        self.dir.join("src")
    }

    /// Checks a fix script against the ground truth: every constraint must
    /// be a true positive or a planted false positive, and the counts must
    /// equal the plan. `Err` names the first discrepancy.
    pub fn check_fix_script(&self, script: &str) -> Result<(), String> {
        let parsed = cfinder_sql::parse_sql(script);
        if let Some(e) = parsed.errors.first() {
            return Err(format!("{}: fix script does not parse: {e}", self.name));
        }
        let found: BTreeSet<&Constraint> =
            parsed.constraints.iter().map(|c| &c.constraint).collect();
        let (mut tp, mut fp) = (0, 0);
        for c in &found {
            match self.app.truth.classify(c) {
                Verdict::TruePositive => tp += 1,
                Verdict::FalsePositive(_) => fp += 1,
                Verdict::Unplanned => {
                    return Err(format!("{}: unplanned constraint {c}", self.name))
                }
            }
        }
        if (tp, fp) != self.planned {
            return Err(format!(
                "{}: {tp} TP / {fp} FP, planned {} / {}",
                self.name, self.planned.0, self.planned.1
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_seed_gives_the_same_corpus_shape() {
        let shape = |seed: u64| {
            let p = seeded_profile("oscar", seed);
            let app = generate_app(&p);
            let truth = (
                app.truth.true_missing.len() + app.truth.interproc_missing.len(),
                app.truth.planted_fps.len(),
            );
            (app.loc(), app.files.len(), truth, planned_counts(&p))
        };
        assert_eq!(shape(1), shape(0x5eed));
    }
}

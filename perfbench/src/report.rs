//! The run's result: metrics, operation counts, the host block, and the
//! one-line JSON the benchmark prints last.

use std::process::Command;

use crate::calib::{Calibrator, Series};
use crate::stats;

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value aggregates (1 for a single measurement).
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted inside the measured window.
    pub attempted: u64,
    /// Operations whose output failed its correctness check.
    pub failed: u64,
    /// Problems that make the whole run incorrect (set-up checks, the
    /// traced run's replay oracle), with a reason each.
    pub errors: Vec<String>,
    /// Reported metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Extra `key=value` facts for the host block (threads, percentile…).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric { name: name.to_string(), value, unit, samples });
    }

    /// Adds a host-block note.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    /// Records one operation and whether its output checked out; a
    /// failure's reason goes to stderr (the first few only).
    pub fn op(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: wrong output: {}", why());
            }
        }
    }

    /// Reports a closed loop's `throughput_per_s` (operations ÷ Σ
    /// operation time), `p50_ms`, `tail_ms` at the fixed `permille`, and
    /// `setup_s` (median set-up), all at reference speed, with the raw
    /// values in the host block. A run with too few samples for the tail
    /// percentile is an error.
    pub fn closed_loop_metrics(
        &mut self,
        cal: &Calibrator,
        ops: &Series,
        setups: &Series,
        permille: u32,
    ) {
        let n = ops.len();
        if stats::tail_percentile(n).is_none_or(|p| p < permille) {
            self.error(format!("{n} samples are too few for the tail percentile"));
        }
        let tail_q = f64::from(permille) / 1000.0;
        let figures = |secs: &[f64], setups: &[f64]| {
            let ms: Vec<f64> = secs.iter().map(|s| s * 1e3).collect();
            [
                ("throughput_per_s", n as f64 / secs.iter().sum::<f64>(), "1/s", n),
                ("p50_ms", stats::median(&ms).unwrap_or(0.0), "ms", n),
                ("tail_ms", stats::quantile(&ms, tail_q).unwrap_or(0.0), "ms", n),
                ("setup_s", stats::median(setups).unwrap_or(0.0), "s", setups.len()),
            ]
        };
        let scaled_s = ops.scaled_s(cal);
        if let Some((q1, q3)) = stats::quartiles(&scaled_s) {
            self.note("latency_quartiles_ms", format!("{:.3} {:.3}", q1 * 1e3, q3 * 1e3));
        }
        let scaled = figures(&scaled_s, &setups.scaled_s(cal));
        let raw = figures(ops.raw_s(), setups.raw_s());
        for ((name, value, unit, samples), (_, raw, _, _)) in scaled.into_iter().zip(raw) {
            self.metric(name, value, unit, samples);
            self.note_raw(name, raw, cal);
        }
        self.note("tail_percentile", format!("p{}", f64::from(permille) / 10.0));
    }

    /// Notes the raw (unscaled) value of a time metric and, once, the
    /// calibration behind the scaled ones (see [`crate::calib`]).
    pub fn note_raw(&mut self, name: &str, raw: f64, cal: &Calibrator) {
        if !self.notes.iter().any(|(k, _)| k == "slowdown") {
            self.note("slowdown", format!("{:.4}", cal.slowdown()));
            self.note("calibration_samples", cal.samples());
        }
        self.note(&format!("raw.{name}"), format!("{raw:.6}"));
    }

    /// Records a run-level problem.
    pub fn error(&mut self, why: impl Into<String>) {
        let why = why.into();
        eprintln!("perfbench: check failed: {why}");
        self.errors.push(why);
    }

    /// The host block (one JSON object): machine, toolchain, build, and
    /// per-metric sample counts.
    pub fn host_json(&self, workload: &str, seed: u64, trace: bool) -> String {
        let mut fields = vec![
            ("workload".to_string(), json_str(workload)),
            ("seed".to_string(), seed.to_string()),
            ("trace".to_string(), trace.to_string()),
            ("nproc".to_string(), nproc().to_string()),
            ("rustc".to_string(), json_str(&command_line("rustc", &["--version"]))),
            (
                "git_sha".to_string(),
                json_str(&command_line("git", &["--git-dir=.git", "rev-parse", "HEAD"])),
            ),
            (
                "profile".to_string(),
                json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
            ),
        ];
        for (k, v) in &self.notes {
            fields.push((k.clone(), json_str(v)));
        }
        let samples: Vec<(String, String)> =
            self.metrics.iter().map(|m| (m.name.clone(), m.samples.to_string())).collect();
        fields.push(("samples".to_string(), json_object(&samples)));
        json_object(&fields)
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`.
    pub fn result_json(&self) -> String {
        let metrics: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|m| {
                let body = json_object(&[
                    ("value".to_string(), json_number(m.value)),
                    ("unit".to_string(), json_str(m.unit)),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        // A run that attempted nothing counts as one failed operation.
        let (attempted, failed) =
            if self.attempted == 0 { (1, 1) } else { (self.attempted, self.failed) };
        let correct = failed == 0 && self.errors.is_empty();
        json_object(&[
            ("correct".to_string(), correct.to_string()),
            ("attempted".to_string(), attempted.to_string()),
            ("failed".to_string(), failed.to_string()),
            ("metrics".to_string(), json_object(&metrics)),
        ])
    }
}

/// Available parallelism of this machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// First line of a command's stdout, or `unknown` when it cannot run
/// (the benchmark may run outside a git checkout; `--git-dir=.git` keeps
/// git from searching the directories above it).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("strings serialize")
}

/// A JSON number with every digit Rust prints (non-finite becomes 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// A JSON object from already-encoded values.
fn json_object(fields: &[(String, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{}: {v}", json_str(k))).collect();
    format!("{{{}}}", body.join(", "))
}

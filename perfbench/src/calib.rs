//! Host-speed calibration.
//!
//! A shared machine's speed drifts by up to ~1.6× (other tenants,
//! frequency), within a second and in phases that outlast any one run, so
//! no amount of averaging inside a run removes it. The benchmark therefore
//! runs a fixed reference kernel interleaved with the measured operations,
//! and reports every time at the machine's reference speed: an operation's
//! raw time ÷ (kernel time around it ÷ [`NOMINAL_MS`]). The kernel is the
//! benchmark's own code and calls nothing in the repository, so a change
//! to the program moves the operations and not the kernel; the raw figures
//! and the slowdown go to the host block.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats;

/// Kernel time, in ms, that counts as reference speed (about its time in
/// a fast phase of the 2-core machine the bounds were set on). Any fixed
/// value serves: it cancels out of every comparison between two commits.
pub const NOMINAL_MS: f64 = 1.5;

/// `u32`s in each thread's walk buffer (8 MiB, four times the L2 cache).
const BUFFER_LEN: usize = 1 << 21;

/// Dependent loads per kernel run.
const WALK_STEPS: usize = 4_000;

/// Samples on each side of an operation that its slowdown is the median
/// of: the machine's speed changes within a second, so each operation is
/// scaled by the samples taken around it.
const LOCAL: usize = 16;

/// FNV-1a, so the kernel's hash maps behave the same in every process.
#[derive(Default)]
struct Fnv(u64);

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = if self.0 == 0 { 0xcbf2_9ce4_8422_2325 } else { self.0 };
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }
}

/// Fixed work shaped like the programs under test, in two halves of about
/// equal time: string formatting and allocation, hashed and ordered maps,
/// sorting and a branchy token scan over data that stays in the core's
/// own caches; then a dependent walk over `buffer`, which is larger than
/// the core's L2 cache. The programs are partly memory-bound, and memory
/// latency drifts less than compute speed: a compute-only kernel
/// over-corrected `cold_cli` and `guarded_db` by about a third.
fn kernel(buffer: &mut [u32]) -> u64 {
    let mut hashed: HashMap<String, u64, BuildHasherDefault<Fnv>> = HashMap::default();
    let mut ordered = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..1500u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let key = format!("table_{}.column_{}", x % 97, i % 211);
        *hashed.entry(key.clone()).or_default() += i;
        ordered.insert(key, x);
    }
    let mut names: Vec<&String> = hashed.keys().collect();
    names.sort_unstable();
    let mut acc = ordered.values().fold(0u64, |a, k| a.wrapping_add(*k));
    for name in names {
        for b in name.bytes() {
            acc = match b {
                b'0'..=b'9' => acc.wrapping_mul(10).wrapping_add(u64::from(b - b'0')),
                b'_' | b'.' => acc.rotate_left(7),
                b'a'..=b'm' => acc ^ u64::from(b),
                _ => acc.wrapping_add(u64::from(b)),
            };
        }
    }
    let mask = buffer.len() - 1;
    let mut at = (acc as usize) & mask;
    for _ in 0..WALK_STEPS {
        let v = buffer[at];
        buffer[at] = v.wrapping_add(1);
        at = (v as usize).wrapping_mul(2_654_435_761).wrapping_add(at + 1) & mask;
    }
    acc.wrapping_add(at as u64)
}

/// Where one measured operation sits among the kernel samples: the
/// samples taken after it are `start..end`.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    start: usize,
    end: usize,
}

/// Interleaved kernel samples of one run.
pub struct Calibrator {
    threads: usize,
    buffers: Vec<Vec<u32>>,
    duty: f64,
    samples_ms: Vec<f64>,
    spent: Duration,
    measured: Duration,
}

impl Calibrator {
    /// A calibrator that runs the kernel on `threads` threads at once
    /// (the program's own thread count) for `duty` of the measured time,
    /// after one untimed warm-up.
    pub fn new(threads: usize, duty: f64) -> Calibrator {
        let threads = threads.max(1);
        let buffers = (0..threads)
            .map(|t| {
                (0..BUFFER_LEN as u32).map(|i| i.wrapping_mul(0x9e37_79b9) ^ t as u32).collect()
            })
            .collect();
        let mut cal = Calibrator {
            threads,
            buffers,
            duty,
            samples_ms: Vec::new(),
            spent: Duration::ZERO,
            measured: Duration::ZERO,
        };
        cal.sample();
        cal.samples_ms.clear();
        cal.spent = Duration::ZERO;
        cal
    }

    /// One sample: the kernel on every thread, the mean of their times.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let total: f64 = if self.threads == 1 {
            let t = Instant::now();
            black_box(kernel(&mut self.buffers[0]));
            t.elapsed().as_secs_f64()
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = self
                    .buffers
                    .iter_mut()
                    .map(|buffer| {
                        s.spawn(move || {
                            let t = Instant::now();
                            black_box(kernel(buffer));
                            t.elapsed().as_secs_f64()
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("kernel thread")).sum()
            })
        };
        self.samples_ms.push(total * 1e3 / self.threads as f64);
        self.spent += start.elapsed();
    }

    /// Records one measured operation that took `wall`, then samples
    /// until calibration has used its duty share of all the time measured
    /// so far. Returns the operation's mark for [`Calibrator::scale`].
    pub fn after(&mut self, wall: Duration) -> Mark {
        let start = self.samples_ms.len();
        self.measured += wall;
        while self.spent.as_secs_f64() < self.duty * self.measured.as_secs_f64() {
            self.sample();
        }
        Mark { start, end: self.samples_ms.len() }
    }

    /// Slowdown at `mark` against reference speed: the median of the
    /// samples taken right after its operation, plus [`LOCAL`] on each
    /// side, over [`NOMINAL_MS`].
    fn slowdown_at(&self, mark: Mark) -> f64 {
        let hi = mark.end.max(mark.start + LOCAL).min(self.samples_ms.len());
        let lo = mark.start.saturating_sub(LOCAL).min(hi.saturating_sub(1));
        stats::median(&self.samples_ms[lo..hi]).unwrap_or(NOMINAL_MS) / NOMINAL_MS
    }

    /// Operation times at reference speed: each of `raw` divided by the
    /// slowdown around its mark.
    pub fn scale(&self, raw: &[f64], marks: &[Mark]) -> Vec<f64> {
        raw.iter().zip(marks).map(|(r, &m)| r / self.slowdown_at(m)).collect()
    }

    /// The run's median slowdown, for the host block.
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.samples_ms).unwrap_or(NOMINAL_MS) / NOMINAL_MS
    }

    /// Number of samples taken.
    pub fn samples(&self) -> usize {
        self.samples_ms.len()
    }
}

/// Timed operations of one kind, with their calibration marks.
#[derive(Default)]
pub struct Series {
    raw_s: Vec<f64>,
    marks: Vec<Mark>,
}

impl Series {
    /// Records an operation that took `wall` and lets `cal` keep up.
    pub fn push(&mut self, cal: &mut Calibrator, wall: Duration) {
        self.marks.push(cal.after(wall));
        self.raw_s.push(wall.as_secs_f64());
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.raw_s.len()
    }

    /// Raw times, in seconds.
    pub fn raw_s(&self) -> &[f64] {
        &self.raw_s
    }

    /// Times at reference speed, in seconds, each scaled by the samples
    /// around it.
    pub fn scaled_s(&self, cal: &Calibrator) -> Vec<f64> {
        cal.scale(&self.raw_s, &self.marks)
    }

    /// Times at reference speed, in seconds, all scaled by the run's
    /// median slowdown: for operations of seconds each, too few to
    /// average out the noise of one operation's own samples.
    pub fn run_scaled_s(&self, cal: &Calibrator) -> Vec<f64> {
        let slowdown = cal.slowdown();
        self.raw_s.iter().map(|r| r / slowdown).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_operation_is_scaled_by_the_samples_around_it() {
        let mut cal = Calibrator::new(1, 0.25);
        cal.samples_ms = [vec![NOMINAL_MS; 40], vec![2.0 * NOMINAL_MS; 40]].concat();
        let marks = [Mark { start: 0, end: 10 }, Mark { start: 60, end: 70 }];
        assert_eq!(cal.scale(&[3.0, 3.0], &marks), vec![3.0, 1.5]);
    }

    #[test]
    fn calibration_keeps_to_its_share_of_measured_time() {
        let mut cal = Calibrator::new(2, 0.25);
        let mark = cal.after(Duration::from_millis(40));
        assert!(mark.end > mark.start);
        assert!(cal.spent.as_secs_f64() >= 0.25 * 0.040);
        let again = cal.after(Duration::ZERO);
        assert_eq!(again.start, again.end, "no samples owed");
    }
}

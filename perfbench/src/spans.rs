//! In-memory spans for the traced run: name, start, end, parent and
//! request id, kept until the run ends and then written out as JSON.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Times a closure under a span name. The end-to-end runs use
/// [`NoProbe`], which compiles to the bare call.
pub trait Probe {
    /// Runs `f` inside a span called `name`.
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R;

    /// The current time, when this probe records anything.
    fn clock(&self) -> Option<Instant>;

    /// Records a span called `name` from `start` until now.
    fn record_since(&mut self, name: &'static str, start: Instant);
}

/// The untraced probe: no clock reads, no records.
pub struct NoProbe;

impl Probe for NoProbe {
    #[inline(always)]
    fn time<R>(&mut self, _: &'static str, f: impl FnOnce() -> R) -> R {
        f()
    }

    fn clock(&self) -> Option<Instant> {
        None
    }

    fn record_since(&mut self, _: &'static str, _: Instant) {}
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `UseDefChains::compute`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (operation) the span belongs to.
    pub request: u64,
}

/// Spans kept for the trace file; past this many, calls still count
/// toward the per-name totals but are not stored.
pub const MAX_KEPT: usize = 200_000;

/// Records spans in memory, plus per-name call counts and total time.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    /// Open spans: name, start, and index when stored.
    open: Vec<(&'static str, u64, Option<usize>)>,
    request: u64,
    totals: Vec<(&'static str, u64, u64)>,
    dropped: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            totals: Vec::new(),
            dropped: 0,
        }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Sets the request id stamped on spans opened from now on.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Opens a span that encloses the spans recorded until [`Spans::exit`].
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        let stored = self.push(name, start_ns);
        self.open.push((name, start_ns, stored));
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let (name, start_ns, stored) = self.open.pop().expect("exit matches an enter");
        if let Some(i) = stored {
            self.spans[i].end_ns = end_ns;
        }
        self.add(name, end_ns - start_ns);
    }

    /// Stores a new span while under [`MAX_KEPT`].
    fn push(&mut self, name: &'static str, start_ns: u64) -> Option<usize> {
        let parent = self.open.iter().rev().find_map(|o| o.2);
        if self.spans.len() >= MAX_KEPT {
            self.dropped += 1;
            return None;
        }
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, request: self.request });
        Some(self.spans.len() - 1)
    }

    fn add(&mut self, name: &'static str, ns: u64) {
        match self.totals.iter_mut().find(|t| std::ptr::eq(t.0, name) || t.0 == name) {
            Some(t) => {
                t.1 += 1;
                t.2 += ns;
            }
            None => self.totals.push((name, 1, ns)),
        }
    }

    /// Records a span measured elsewhere (e.g. on a worker thread).
    pub fn record(&mut self, name: &'static str, start: Instant, dur: Duration) {
        let start_ns = start.saturating_duration_since(self.epoch).as_nanos() as u64;
        let dur_ns = dur.as_nanos() as u64;
        if let Some(i) = self.push(name, start_ns) {
            self.spans[i].end_ns = start_ns + dur_ns;
        }
        self.add(name, dur_ns);
    }

    /// Total duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.totals.iter().find(|t| t.0 == name).map_or(0.0, |t| t.2 as f64 * 1e-9)
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.iter().find(|t| t.0 == name).map_or(0, |t| t.1)
    }

    /// Spans recorded in total, and how many of them were not stored.
    pub fn recorded(&self) -> (u64, u64) {
        (self.spans.len() as u64 + self.dropped, self.dropped)
    }

    /// Every span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Probe for Spans {
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    fn clock(&self) -> Option<Instant> {
        Some(Instant::now())
    }

    fn record_since(&mut self, name: &'static str, start: Instant) {
        self.record(name, start, start.elapsed());
    }
}

//! Parallel execution engine for the analysis pipeline.
//!
//! The engine is deliberately tiny: one ordered fan-out ([`map_ordered`]),
//! its panic-isolating traced form ([`map_ordered_catch_traced`]) and the
//! cache-aware layer over that ([`map_ordered_catch_cached`]), plus
//! worker-count resolution ([`resolve_threads`]). Determinism is by
//! construction — every fan-out returns outputs in input order, so a run
//! with N threads produces byte-identical results to a serial run; the
//! thread count only changes wall-clock time.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};

use cfinder_obs::Tracer;

/// Environment variable overriding the worker-thread count. Values that
/// are zero or unparsable are ignored.
pub const THREADS_ENV: &str = "CFINDER_THREADS";

/// Resolves the worker-thread count: an explicit request wins, else the
/// `CFINDER_THREADS` environment variable, else the machine's available
/// parallelism.
pub fn resolve_threads(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit {
        return n.max(1);
    }
    if let Ok(value) = std::env::var(THREADS_ENV) {
        if let Ok(n) = value.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Applies `f` to every item, fanning work out across up to `threads`
/// scoped worker threads, and returns the outputs **in input order**.
///
/// Equivalent to `items.iter().map(f).collect()` for any thread count:
/// items are split into contiguous chunks (one per worker) and the chunk
/// results are concatenated in chunk order. With one thread (or one item)
/// no threads are spawned at all.
pub fn map_ordered<T, O, F>(items: &[T], threads: usize, f: F) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    fan_out(items, threads, &Tracer::disabled(), "", f)
}

/// Panic-isolating, traced [`map_ordered`]: each item's `f` call runs
/// under [`catch_unwind`], so a panic while processing one item becomes an
/// `Err(message)` for that item alone — every other item still produces
/// its result, outputs stay in input order, and no worker thread dies.
/// The unwind boundary is per *item*, not per chunk: a panicking item in
/// the middle of a chunk does not take its chunk-mates down with it.
///
/// Every worker chunk records one `cat: "worker"` span named `"<stage>
/// chunk <i>"`, so a Chrome trace shows exactly how the fan-out split the
/// items and how long each chunk ran; with a disabled tracer the span
/// guards collapse to a single `None` check. The chunk *count* depends on
/// the thread count by definition, so `"worker"` spans are the one
/// category excluded from the cross-thread span-structure determinism
/// contract (see `cfinder-obs` docs).
pub fn map_ordered_catch_traced<T, O, F>(
    items: &[T],
    threads: usize,
    tracer: &Tracer,
    stage: &'static str,
    f: F,
) -> Vec<Result<O, String>>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    fan_out(items, threads, tracer, stage, |item| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(|payload| {
            if let Some(s) = payload.downcast_ref::<&str>() {
                (*s).to_string()
            } else if let Some(s) = payload.downcast_ref::<String>() {
                s.clone()
            } else {
                "worker panicked with a non-string payload".to_string()
            }
        })
    })
}

/// The one chunk/spawn body behind every fan-out, with per-chunk worker
/// spans.
fn fan_out<T, O, F>(
    items: &[T],
    threads: usize,
    tracer: &Tracer,
    stage: &'static str,
    f: F,
) -> Vec<O>
where
    T: Sync,
    O: Send,
    F: Fn(&T) -> O + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        let mut span = tracer.span("worker", || format!("{stage} chunk 0"));
        span.arg("items", items.len().to_string());
        return items.iter().map(f).collect();
    }
    let chunk_len = items.len().div_ceil(threads);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_len)
            .enumerate()
            .map(|(i, chunk)| {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    let mut span = tracer.span("worker", || format!("{stage} chunk {i}"));
                    span.arg("items", chunk.len().to_string());
                    chunk.iter().map(f).collect::<Vec<O>>()
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("analysis worker panicked")).collect()
    })
}

/// One item's outcome from a cache-aware fan-out
/// ([`map_ordered_catch_cached`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedResult<O> {
    /// The item's output — from the cache on a hit, freshly computed on a
    /// miss.
    pub value: O,
    /// Whether the value came from the cache.
    pub hit: bool,
    /// When the lookup found a damaged entry (truncated, corrupt, stale):
    /// the detail string. The value was recomputed from scratch, so this
    /// is diagnostic only — callers surface it as a typed incident.
    pub cache_problem: Option<String>,
}

/// Cache-aware panic-isolating ordered fan-out: for each item, `lookup`
/// runs first; `Ok(Some(value))` short-circuits as a hit, `Ok(None)` is a
/// miss, and `Err(detail)` is a *damaged-entry* miss whose detail is
/// carried through on the result. On any miss, `compute` runs (under the
/// per-item [`catch_unwind`] boundary of [`map_ordered_catch_traced`]) and
/// `store` is offered the freshly computed value for write-back —
/// `store` returning `false` means the write was skipped or failed, which
/// is never an error (it costs a future miss, not correctness).
///
/// Outputs stay in input order; hits and misses interleave freely across
/// worker chunks, and a panicking `compute` yields `Err(message)` for
/// that item alone. The closures all run on worker threads, so lookups
/// and stores overlap with computation at every thread count.
pub fn map_ordered_catch_cached<T, O, L, F, S>(
    items: &[T],
    threads: usize,
    tracer: &Tracer,
    stage: &'static str,
    lookup: L,
    compute: F,
    store: S,
) -> Vec<Result<CachedResult<O>, String>>
where
    T: Sync,
    O: Send,
    L: Fn(&T) -> Result<Option<O>, String> + Sync,
    F: Fn(&T) -> O + Sync,
    S: Fn(&T, &O) -> bool + Sync,
{
    map_ordered_catch_traced(items, threads, tracer, stage, |item| {
        let cache_problem = match lookup(item) {
            Ok(Some(value)) => {
                return CachedResult { value, hit: true, cache_problem: None };
            }
            Ok(None) => None,
            Err(detail) => Some(detail),
        };
        let value = compute(item);
        store(item, &value);
        CachedResult { value, hit: false, cache_problem }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordered_for_any_thread_count() {
        let items: Vec<u32> = (0..97).collect();
        let expected: Vec<u64> = items.iter().map(|&n| u64::from(n) * 3).collect();
        for threads in [1, 2, 3, 8, 97, 200] {
            let got = map_ordered(&items, threads, |&n| u64::from(n) * 3);
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u8> = Vec::new();
        assert!(map_ordered(&empty, 4, |&b| b).is_empty());
        assert_eq!(map_ordered(&[9u8], 4, |&b| b + 1), vec![10]);
    }

    #[test]
    fn explicit_thread_request_wins() {
        assert_eq!(resolve_threads(Some(3)), 3);
        assert_eq!(resolve_threads(Some(0)), 1, "zero is clamped to one");
    }

    #[test]
    fn catch_isolates_panics_per_item() {
        let items: Vec<u32> = (0..20).collect();
        for threads in [1, 2, 4] {
            let got = map_ordered_catch_traced(&items, threads, &Tracer::disabled(), "", |&n| {
                if n % 7 == 3 {
                    panic!("boom on {n}");
                }
                n * 2
            });
            assert_eq!(got.len(), items.len(), "threads = {threads}");
            for (n, r) in items.iter().zip(&got) {
                if n % 7 == 3 {
                    let msg = r.as_ref().unwrap_err();
                    assert_eq!(msg, &format!("boom on {n}"));
                } else {
                    assert_eq!(r.as_ref().unwrap(), &(n * 2));
                }
            }
        }
    }

    #[test]
    fn traced_fanout_records_one_span_per_chunk() {
        let items: Vec<u32> = (0..10).collect();
        for threads in [1, 3] {
            let tracer = Tracer::enabled();
            let got = map_ordered_catch_traced(&items, threads, &tracer, "parse", |&n| n + 1);
            let got: Vec<u32> = got.into_iter().map(Result::unwrap).collect();
            assert_eq!(got, (1..=10).collect::<Vec<u32>>());
            let events = tracer.events();
            assert_eq!(events.len(), threads, "one worker span per chunk");
            assert!(events.iter().all(|e| e.cat == "worker"));
            assert!(events.iter().any(|e| e.name == "parse chunk 0"));
            let total: usize = events.iter().map(|e| e.args[0].1.parse::<usize>().unwrap()).sum();
            assert_eq!(total, items.len(), "chunk item counts cover every item");
        }
    }

    #[test]
    fn cached_fanout_mixes_hits_misses_and_panics_in_order() {
        use std::collections::BTreeMap;
        use std::sync::Mutex;

        let items: Vec<u32> = (0..24).collect();
        // Pre-populate: multiples of 4 hit; 5 has a damaged entry; 11 panics.
        let seeded: BTreeMap<u32, u64> =
            items.iter().filter(|&&n| n % 4 == 0).map(|&n| (n, u64::from(n) * 10)).collect();
        let stored = Mutex::new(Vec::new());
        for threads in [1, 2, 4] {
            stored.lock().unwrap().clear();
            let got = map_ordered_catch_cached(
                &items,
                threads,
                &Tracer::disabled(),
                "test",
                |&n| {
                    if n == 5 {
                        Err("truncated entry".to_string())
                    } else {
                        Ok(seeded.get(&n).copied())
                    }
                },
                |&n| {
                    if n == 11 {
                        panic!("boom on {n}");
                    }
                    u64::from(n) * 10
                },
                |&n, &v| {
                    stored.lock().unwrap().push((n, v));
                    true
                },
            );
            assert_eq!(got.len(), items.len(), "threads = {threads}");
            for (&n, r) in items.iter().zip(&got) {
                if n == 11 {
                    assert_eq!(r.as_ref().unwrap_err(), "boom on 11");
                    continue;
                }
                let r = r.as_ref().unwrap();
                assert_eq!(r.value, u64::from(n) * 10);
                assert_eq!(r.hit, n % 4 == 0, "item {n}");
                if n == 5 {
                    assert_eq!(r.cache_problem.as_deref(), Some("truncated entry"));
                } else {
                    assert!(r.cache_problem.is_none(), "item {n}");
                }
            }
            // Every miss except the panicking item was offered to `store`;
            // no hit was.
            let mut writes = stored.lock().unwrap().clone();
            writes.sort();
            let expected: Vec<(u32, u64)> = items
                .iter()
                .filter(|&&n| n % 4 != 0 && n != 11)
                .map(|&n| (n, u64::from(n) * 10))
                .collect();
            assert_eq!(writes, expected, "threads = {threads}");
        }
    }

    #[test]
    fn catch_preserves_panic_message_kinds() {
        let none = Tracer::disabled();
        let out =
            map_ordered_catch_traced(&[0u8], 1, &none, "", |_| -> u8 { panic!("static str") });
        assert_eq!(out[0].as_ref().unwrap_err(), "static str");
        let out = map_ordered_catch_traced(&[0u8], 1, &none, "", |_| -> u8 {
            let dynamic = String::from("owned message");
            panic!("{dynamic}")
        });
        assert_eq!(out[0].as_ref().unwrap_err(), "owned message");
    }
}

//! Minimal scoped-thread fork–join for the search sweep.
//!
//! The stage-level search fans each node tier's `(MB, T)` candidate
//! groups out, one tier at a time ([`parallel_map_with`]). Each evaluation
//! is independent and the profiler is `Sync` without a lock (it keeps
//! no results; its only mutable state is its atomic slot counters), so
//! a fork–join map over the standard library's scoped threads gives
//! near-linear speedups on large graphs without pulling a
//! task-scheduler dependency into the core crate.
//!
//! Work is claimed dynamically: workers pull fixed-size chunks from a
//! shared atomic cursor (work-stealing-style), so uneven per-item cost —
//! a DP at `S = 8` costs far more than one at `S = 1`, and a group at a
//! large `T` holds fewer stage counts than one at `T = 1` — does not
//! leave threads idle behind a static partition.
//!
//! The calling thread is worker 0: a map over `w` workers spawns `w − 1`
//! threads and claims chunks alongside them, so it neither sits idle
//! in the join nor pays a thread start for the work it could do itself.
//!
//! The worker count is resolved by [`max_threads`]: an explicit
//! [`set_threads`] override wins, then the `RANNC_THREADS` environment
//! variable, then [`std::thread::available_parallelism`]. The first two
//! make CI runs and benchmarks reproducible on shared runners.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, Once};

/// Process-wide worker-count override; 0 means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Force the worker count used by the parallel sweeps (0 clears the
/// override). Exposed on the CLI as `--threads`.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// Parse a `RANNC_THREADS` value. `Ok(n)` for a positive integer,
/// `Err(reason)` for anything else ("0", garbage, overflow), so the
/// caller can warn once and fall back instead of silently ignoring a
/// typo'd setting.
fn parse_env_threads(v: &str) -> Result<usize, &'static str> {
    match v.trim().parse::<usize>() {
        Ok(0) => Err("must be a positive integer"),
        Ok(n) => Ok(n),
        Err(_) => Err("not a valid integer"),
    }
}

/// The worker count parallel sweeps will use: [`set_threads`] override,
/// else `RANNC_THREADS`, else the machine's available parallelism.
///
/// A malformed `RANNC_THREADS` value is reported once on stderr and then
/// treated as unset.
pub fn max_threads() -> usize {
    let o = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if o > 0 {
        return o;
    }
    if let Ok(v) = std::env::var("RANNC_THREADS") {
        match parse_env_threads(&v) {
            Ok(n) => return n,
            Err(reason) => {
                static WARN_ONCE: Once = Once::new();
                WARN_ONCE.call_once(|| {
                    eprintln!(
                        "warning: ignoring RANNC_THREADS={v:?} ({reason}); \
                         using available parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parallel map over a slice with an explicit worker count and
/// deterministic output order.
///
/// Workers claim chunks from a shared cursor, so per-item cost may be
/// arbitrarily uneven; the output order always matches the input order.
pub fn parallel_map_with<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.min(items.len());
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(f).collect();
    }
    // Small chunks so slow items don't strand fast workers; large enough
    // to amortize the cursor bump on fine-grained items.
    let chunk = (items.len() / (workers * 8)).max(1);
    let cursor = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());
    let work = || {
        let mut local: Vec<(usize, Vec<R>)> = Vec::new();
        loop {
            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
            if start >= items.len() {
                break;
            }
            let end = (start + chunk).min(items.len());
            local.push((start, items[start..end].iter().map(&f).collect()));
        }
        done.lock().unwrap().extend(local);
    };
    std::thread::scope(|scope| {
        for w in 1..workers {
            let work = &work;
            scope.spawn(move || {
                if rannc_obs::enabled() {
                    rannc_obs::trace::set_thread_name(&format!("worker-{w}"));
                }
                work();
            });
        }
        work(); // the calling thread is worker 0
    });
    let mut chunks = done.into_inner().unwrap();
    chunks.sort_unstable_by_key(|&(start, _)| start);
    let mut out = Vec::with_capacity(items.len());
    for (_, mut part) in chunks {
        out.append(&mut part);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_sequential_small_and_large() {
        for n in [0usize, 1, 10, 64, 1000] {
            let items: Vec<u64> = (0..n as u64).collect();
            let par = parallel_map_with(&items, 4, |&x| x * x + 1);
            let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
            assert_eq!(par, seq, "n = {n}");
        }
    }

    #[test]
    fn preserves_order_under_load() {
        let items: Vec<usize> = (0..5000).collect();
        let out = parallel_map_with(&items, 4, |&x| {
            // unequal work per item to shuffle completion order
            let mut acc = 0usize;
            for i in 0..(x % 97) {
                acc = acc.wrapping_add(i * x);
            }
            (x, acc)
        });
        for (i, (x, _)) in out.iter().enumerate() {
            assert_eq!(i, *x);
        }
    }

    #[test]
    fn shares_state_through_sync_captures() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let counter = AtomicUsize::new(0);
        let items: Vec<u32> = (0..500).collect();
        let _ = parallel_map_with(&items, 4, |_| counter.fetch_add(1, Ordering::Relaxed));
        assert_eq!(counter.load(Ordering::Relaxed), 500);
    }

    /// The calling thread claims items too: with two workers one thread
    /// is spawned, and both it and the caller run items.
    #[test]
    fn caller_is_worker_zero() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        let items: Vec<u32> = (0..8).collect();
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        parallel_map_with(&items, 2, |_| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let seen = seen.into_inner().unwrap();
        assert!(seen.contains(&caller), "the caller ran no item");
        assert_eq!(seen.len(), 2, "one spawned worker besides the caller");
    }

    #[test]
    fn explicit_worker_count_parallelizes_small_inputs() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        // 8 items still fan out: with 4 workers and blocking items, at
        // least two distinct threads participate.
        let items: Vec<u32> = (0..8).collect();
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let out = parallel_map_with(&items, 4, |&x| {
            seen.lock().unwrap().insert(std::thread::current().id());
            std::thread::sleep(std::time::Duration::from_millis(5));
            x * 2
        });
        assert_eq!(out, vec![0, 2, 4, 6, 8, 10, 12, 14]);
        assert!(seen.lock().unwrap().len() >= 2);
    }

    // One test for both resolution mechanisms: they share process-global
    // state, so splitting them would race under the parallel test runner.
    #[test]
    fn thread_count_resolution_order() {
        set_threads(3);
        assert_eq!(max_threads(), 3, "explicit override wins");
        set_threads(0);
        std::env::set_var("RANNC_THREADS", "2");
        assert_eq!(max_threads(), 2, "env var applies without override");
        set_threads(5);
        assert_eq!(max_threads(), 5, "override beats env var");
        set_threads(0);
        std::env::set_var("RANNC_THREADS", "not-a-number");
        assert!(max_threads() >= 1, "garbage env var falls through");
        std::env::set_var("RANNC_THREADS", "0");
        assert!(max_threads() >= 1, "zero env var falls through");
        std::env::remove_var("RANNC_THREADS");
        assert!(max_threads() >= 1);
    }

    #[test]
    fn env_thread_parsing_classifies_values() {
        assert_eq!(parse_env_threads("4"), Ok(4));
        assert_eq!(parse_env_threads("  16 "), Ok(16));
        assert_eq!(parse_env_threads("0"), Err("must be a positive integer"));
        assert_eq!(parse_env_threads(""), Err("not a valid integer"));
        assert_eq!(parse_env_threads("four"), Err("not a valid integer"));
        assert_eq!(parse_env_threads("-2"), Err("not a valid integer"));
        assert_eq!(
            parse_env_threads("99999999999999999999999"),
            Err("not a valid integer"),
            "overflow is rejected, not wrapped"
        );
    }

    #[test]
    fn uneven_chunks_still_cover_everything() {
        for workers in [2usize, 3, 7] {
            for n in [2usize, 5, 63, 64, 129] {
                let items: Vec<usize> = (0..n).collect();
                let out = parallel_map_with(&items, workers, |&x| x + 1);
                assert_eq!(out, (1..=n).collect::<Vec<_>>(), "w={workers} n={n}");
            }
        }
    }
}

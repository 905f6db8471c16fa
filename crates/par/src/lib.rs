//! # oha-par — scoped fork/join parallelism for the pipeline
//!
//! A zero-dependency (std-only) scoped thread pool used by the profiling
//! phase and the benchmark harness. Registry crates (rayon and friends)
//! are unavailable in the offline build environment, so — like the
//! `vendor/` stand-ins — this crate implements exactly the surface the
//! workspace needs:
//!
//! - [`scope`] / [`PoolScope::spawn`]: structured scoped threads whose
//!   handles propagate worker panics on [`TaskHandle::join`],
//! - [`Pool::par_map`]: an order-preserving parallel map over a slice,
//!   scheduled as contiguous chunks (no work stealing — static chunking
//!   keeps the execution shape reproducible and the scheduler trivial),
//! - [`Pool::run_lanes`]: a fixed lane schedule for heterogeneous tasks —
//!   each task names a lane, lane `k` runs on pool thread `k mod width`
//!   (the caller is thread 0), and results come back in task order,
//! - [`thread_count`]: the pool sizing rule, `OHA_THREADS` environment
//!   override first, [`std::thread::available_parallelism`] otherwise,
//! - [`TaskPool`]: persistent workers over a shared FIFO queue, for
//!   long-running services (the `oha-serve` daemon) that need graceful
//!   drain semantics rather than scoped fork/join.
//!
//! Determinism is the contract of every consumer: `par_map` returns
//! results in input order, so folding its output sequentially yields the
//! same bytes whether the pool has one thread or sixteen. See DESIGN.md
//! "Parallelism".

use std::env;
use std::panic::resume_unwind;
use std::thread::{self, Scope, ScopedJoinHandle};

mod taskpool;

pub use taskpool::TaskPool;

/// Environment variable overriding the worker-thread count (`0`, empty, or
/// unparsable values fall back to the hardware default).
pub const THREADS_ENV: &str = "OHA_THREADS";

/// The hardware thread budget: [`std::thread::available_parallelism`],
/// or 1 when the platform cannot report it.
pub fn hardware_threads() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// The pool sizing rule: the `OHA_THREADS` environment override when it
/// parses to a positive integer, the hardware budget otherwise.
pub fn thread_count() -> usize {
    thread_count_from(env::var(THREADS_ENV).ok().as_deref())
}

/// [`thread_count`] with an explicit override value (testable without
/// touching process environment).
pub fn thread_count_from(over: Option<&str>) -> usize {
    over.map(str::trim)
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(hardware_threads)
}

/// Runs `f` with a [`PoolScope`] that can spawn scoped worker threads; all
/// workers are joined before `scope` returns (and an unjoined worker panic
/// re-raises here, as with [`std::thread::scope`]).
pub fn scope<'env, F, T>(f: F) -> T
where
    F: for<'scope> FnOnce(&PoolScope<'scope, 'env>) -> T,
{
    thread::scope(|s| f(&PoolScope { inner: s }))
}

/// Spawner handed to the [`scope`] closure.
#[derive(Debug)]
pub struct PoolScope<'scope, 'env: 'scope> {
    inner: &'scope Scope<'scope, 'env>,
}

impl<'scope, 'env> PoolScope<'scope, 'env> {
    /// Spawns a scoped worker; the returned handle's
    /// [`join`](TaskHandle::join) yields the closure's result.
    pub fn spawn<F, T>(&self, f: F) -> TaskHandle<'scope, T>
    where
        F: FnOnce() -> T + Send + 'scope,
        T: Send + 'scope,
    {
        TaskHandle {
            inner: self.inner.spawn(f),
        }
    }
}

/// Handle to one spawned worker.
#[derive(Debug)]
pub struct TaskHandle<'scope, T> {
    inner: ScopedJoinHandle<'scope, T>,
}

impl<T> TaskHandle<'_, T> {
    /// Waits for the worker and returns its result, re-raising the
    /// worker's panic on the calling thread if it panicked.
    pub fn join(self) -> T {
        match self.inner.join() {
            Ok(v) => v,
            Err(payload) => resume_unwind(payload),
        }
    }
}

/// A fixed-width fork/join pool. Creating one is free (threads are scoped
/// per call, not kept alive), so consumers build one wherever they need a
/// parallel section.
#[derive(Clone, Copy, Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool with exactly `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
        }
    }

    /// A pool sized by [`thread_count`] (`OHA_THREADS` override, hardware
    /// default).
    pub fn from_env() -> Self {
        Self::new(thread_count())
    }

    /// Worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items` in parallel, returning results **in input
    /// order**. Items are scheduled as contiguous chunks, one worker per
    /// chunk (work-stealing-free: the assignment of item to worker is a
    /// pure function of `items.len()` and the pool width). A panicking
    /// `f` propagates to the caller. With one worker (or one item) this
    /// degenerates to a plain serial map on the calling thread.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().map(&f).collect();
        }
        let chunk = items.len().div_ceil(self.threads);
        let f = &f;
        scope(|s| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .map(|c| s.spawn(move || c.iter().map(f).collect::<Vec<R>>()))
                .collect();
            let mut out = Vec::with_capacity(items.len());
            for h in handles {
                out.extend(h.join());
            }
            out
        })
    }

    /// Runs two independent closures, potentially in parallel, and
    /// returns both results. With a single-thread pool both run serially
    /// on the calling thread (in `a`, `b` order); otherwise `b` runs on a
    /// scoped worker while `a` runs on the caller. Either side's panic
    /// propagates to the caller. The two closures must not communicate —
    /// callers rely on the results being independent of which branch
    /// finishes first.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if self.threads <= 1 {
            return (a(), b());
        }
        scope(|s| {
            let hb = s.spawn(b);
            let ra = a();
            (ra, hb.join())
        })
    }

    /// The pool thread lane `lane` runs on in [`run_lanes`](Pool::run_lanes):
    /// `lane mod width`, thread 0 being the calling thread.
    pub fn lane_thread(&self, lane: usize) -> usize {
        lane % self.threads
    }

    /// Runs tasks on a fixed lane schedule: task `i` belongs to lane
    /// `lanes[i]`, and lane `k` runs on pool thread
    /// [`lane_thread(k)`](Pool::lane_thread). The rule does not depend on
    /// the width beyond that modulus, so tasks that share a lane always
    /// share a thread and run one after another, in index order.
    ///
    /// `caller` runs thread 0's tasks on the calling thread (so it may hold
    /// thread-bound state); `worker(t, tasks)` runs the tasks of every other
    /// thread `t` that has any, on a scoped thread. Each gets its task
    /// indices in ascending order and returns one result per index, in the
    /// same order; a worker also returns one value of its own. The call
    /// returns every task's result in index order and the workers' values
    /// in thread order. At width 1 it is `caller(0..n)` on the calling
    /// thread and spawns nothing. A panic on any thread reaches the caller.
    pub fn run_lanes<R, X, A, W>(&self, lanes: &[usize], caller: A, worker: W) -> (Vec<R>, Vec<X>)
    where
        R: Send,
        X: Send,
        A: FnOnce(&[usize]) -> Vec<R>,
        W: Fn(usize, &[usize]) -> (Vec<R>, X) + Sync,
    {
        let mut shares: Vec<Vec<usize>> = vec![Vec::new(); self.threads];
        for (i, &lane) in lanes.iter().enumerate() {
            shares[self.lane_thread(lane)].push(i);
        }
        if shares[1..].iter().all(Vec::is_empty) {
            let results = caller(&shares[0]);
            assert_eq!(results.len(), lanes.len(), "one result per task");
            return (results, Vec::new());
        }
        let worker = &worker;
        let (own, others) = scope(|s| {
            let handles: Vec<_> = shares
                .iter()
                .enumerate()
                .skip(1)
                .filter(|(_, share)| !share.is_empty())
                .map(|(t, share)| (share, s.spawn(move || worker(t, share))))
                .collect();
            let own = caller(&shares[0]);
            let others: Vec<_> = handles
                .into_iter()
                .map(|(share, h)| (share, h.join()))
                .collect();
            (own, others)
        });
        let mut slots: Vec<Option<R>> = std::iter::repeat_with(|| None).take(lanes.len()).collect();
        let mut place = |share: &[usize], results: Vec<R>| {
            assert_eq!(results.len(), share.len(), "one result per task");
            for (&i, r) in share.iter().zip(results) {
                slots[i] = Some(r);
            }
        };
        place(&shares[0], own);
        let mut extras = Vec::with_capacity(others.len());
        for (share, (results, extra)) in others {
            place(share, results);
            extras.push(extra);
        }
        let results = slots
            .into_iter()
            .map(|r| r.expect("every task ran"))
            .collect();
        (results, extras)
    }

    /// [`par_map`](Pool::par_map) with the item index passed to `f`
    /// (useful when workers need a per-item seed or label).
    pub fn par_map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        if self.threads <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let chunk = items.len().div_ceil(self.threads);
        let f = &f;
        scope(|s| {
            let handles: Vec<_> = items
                .chunks(chunk)
                .enumerate()
                .map(|(k, c)| {
                    let base = k * chunk;
                    s.spawn(move || {
                        c.iter()
                            .enumerate()
                            .map(|(i, t)| f(base + i, t))
                            .collect::<Vec<R>>()
                    })
                })
                .collect();
            let mut out = Vec::with_capacity(items.len());
            for h in handles {
                out.extend(h.join());
            }
            out
        })
    }
}

impl Default for Pool {
    fn default() -> Self {
        Self::from_env()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 4, 16, 64] {
            let parallel = Pool::new(threads).par_map(&items, |x| x * 3 + 1);
            assert_eq!(parallel, serial, "order broken at {threads} threads");
        }
    }

    #[test]
    fn par_map_indexed_sees_true_indices() {
        let items = vec!["a", "b", "c", "d", "e"];
        let got = Pool::new(3).par_map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, ["0:a", "1:b", "2:c", "3:d", "4:e"]);
    }

    #[test]
    fn par_map_runs_every_item_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = Pool::new(7).par_map(&items, |&i| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out, items);
        assert_eq!(hits.load(Ordering::Relaxed), items.len());
    }

    #[test]
    fn par_map_propagates_worker_panics() {
        let items: Vec<u32> = (0..32).collect();
        let pool = Pool::new(4);
        let err = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&x| {
                if x == 17 {
                    panic!("boom at {x}");
                }
                x
            })
        }))
        .expect_err("worker panic must reach the caller");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("boom at 17"), "unexpected payload: {msg}");
    }

    #[test]
    fn join_returns_both_results_at_any_width() {
        for threads in [1, 2, 8] {
            let pool = Pool::new(threads);
            let (a, b) = pool.join(|| 40, || "two");
            assert_eq!((a, b), (40, "two"), "join broken at {threads} threads");
        }
    }

    #[test]
    fn join_propagates_panics_from_either_branch() {
        for threads in [1, 4] {
            let pool = Pool::new(threads);
            let err = catch_unwind(AssertUnwindSafe(|| {
                pool.join(|| 1, || panic!("right side"))
            }))
            .expect_err("branch panic must reach the caller");
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(msg.contains("right side"), "unexpected payload: {msg}");
        }
    }

    #[test]
    fn run_lanes_pins_lanes_to_threads_and_returns_task_order() {
        // Task i is on lane i % 4; lane 0 must always be the caller.
        let lanes: Vec<usize> = (0..12).map(|i| i % 4).collect();
        let caller_thread = std::thread::current().id();
        for threads in [1, 2, 3, 8] {
            let pool = Pool::new(threads);
            let (results, extras) = pool.run_lanes(
                &lanes,
                |share| {
                    assert_eq!(std::thread::current().id(), caller_thread);
                    share.iter().map(|&i| (i, 0)).collect()
                },
                |t, share| {
                    assert_ne!(std::thread::current().id(), caller_thread);
                    assert!(share.windows(2).all(|w| w[0] < w[1]), "ascending");
                    (share.iter().map(|&i| (i, t)).collect(), t)
                },
            );
            let order: Vec<usize> = results.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, (0..12).collect::<Vec<_>>(), "width {threads}");
            for (i, &(_, t)) in results.iter().enumerate() {
                assert_eq!(t, pool.lane_thread(lanes[i]), "task {i} at width {threads}");
            }
            let busy = (1..threads.min(4)).collect::<Vec<_>>();
            assert_eq!(extras, busy, "one extra per busy worker, in thread order");
        }
    }

    #[test]
    fn run_lanes_propagates_worker_panics() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            Pool::new(2).run_lanes(
                &[0, 1],
                |share| share.to_vec(),
                |_, _| -> (Vec<usize>, ()) { panic!("lane down") },
            )
        }))
        .expect_err("worker panic must reach the caller");
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(msg.contains("lane down"), "unexpected payload: {msg}");
    }

    #[test]
    fn scope_spawn_join_returns_values() {
        let total = scope(|s| {
            let a = s.spawn(|| 40);
            let b = s.spawn(|| 2);
            a.join() + b.join()
        });
        assert_eq!(total, 42);
    }

    #[test]
    fn thread_count_override_rules() {
        assert_eq!(thread_count_from(Some("3")), 3);
        assert_eq!(thread_count_from(Some(" 8 ")), 8);
        let hw = hardware_threads();
        assert_eq!(thread_count_from(None), hw);
        assert_eq!(thread_count_from(Some("")), hw);
        assert_eq!(thread_count_from(Some("0")), hw);
        assert_eq!(thread_count_from(Some("lots")), hw);
        assert!(hw >= 1);
    }

    #[test]
    fn pool_clamps_to_one_thread() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(5).threads(), 5);
        let empty: Vec<i32> = Vec::new();
        assert!(Pool::new(4).par_map(&empty, |x| *x).is_empty());
    }
}

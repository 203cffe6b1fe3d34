//! Offline shim for `rayon`.
//!
//! Implements the subset of the parallel-iterator surface this workspace
//! uses (`into_par_iter()` on ranges and vectors, `map` on both and
//! `flat_map_iter` on ranges, then `collect`) with genuine parallelism on one
//! process-wide pool of `current_num_threads() − 1` helper threads, started
//! on first use and parked on a condvar between calls, so no call creates an
//! OS thread. Every stage is one call of the pool's single seam,
//! `for_each_index`: the calling thread claims items itself, one at a time,
//! while parked helpers join in — each joining the open call with the fewest
//! helpers and choosing again after every item — so nested and concurrent
//! calls always make progress. Results are collected in input order, so
//! behaviour is deterministic and identical to sequential code, and an
//! item's panic resurfaces on the caller.
//!
//! Like real rayon, the thread count honours the `RAYON_NUM_THREADS`
//! environment variable (read once, at first use) and otherwise falls back
//! to the host's available parallelism; [`current_num_threads`] exposes the
//! resolved value. At one thread the pool starts no helper and every item
//! runs on its caller.

use std::any::Any;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Commonly used traits, mirroring `rayon::prelude`.
pub mod prelude {
    pub use crate::IntoParallelIterator;
}

/// The resolved global thread count (rayon's `current_num_threads`):
/// `RAYON_NUM_THREADS` when set to a positive integer, otherwise the host's
/// available parallelism. Cached after the first call, as in real rayon's
/// global pool.
pub fn current_num_threads() -> usize {
    static RESOLVED: OnceLock<usize> = OnceLock::new();
    *RESOLVED.get_or_init(|| {
        std::env::var("RAYON_NUM_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
    })
}

/// The body of an open call, its lifetime erased (see [`Pool::run`]).
type Body = &'static (dyn Fn(usize) + Sync);

/// One open call of the pool, with its claim counters.
struct Call {
    id: u64,
    body: Body,
    len: usize,
    /// The next index nobody has claimed.
    next: usize,
    /// Items claimed and not yet finished.
    running: usize,
    /// Helper threads running one of its items now.
    helpers: usize,
    /// Items helper threads have run for it so far.
    helped: usize,
    /// The first panic one of its items raised.
    panic: Option<Box<dyn Any + Send>>,
}

/// The calls open on the pool, oldest first.
#[derive(Default)]
struct Open {
    calls: Vec<Call>,
    next_id: u64,
}

impl Open {
    fn call(&mut self, id: u64) -> &mut Call {
        let listed = "an open call stays listed until its caller removes it";
        self.calls.iter_mut().find(|c| c.id == id).expect(listed)
    }

    /// Claims the next item of call `id`, if any is left.
    fn claim(&mut self, id: u64) -> Option<(usize, Body)> {
        let call = self.call(id);
        (call.next < call.len).then(|| {
            call.next += 1;
            call.running += 1;
            (call.next - 1, call.body)
        })
    }

    /// The call a free helper joins: of those with items left, the one with
    /// the fewest helpers, then the one helped least so far, then the oldest.
    /// A helper always joining the oldest call instead serves two concurrent
    /// callers unevenly (slower service runs in the closed-loop benchmark).
    fn pick(&self) -> Option<u64> {
        self.calls.iter().filter(|c| c.next < c.len).min_by_key(|c| (c.helpers, c.helped)).map(|c| c.id)
    }
}

/// The process-wide worker pool behind every parallel stage.
struct Pool {
    open: Mutex<Open>,
    /// Parked helpers wait here for a call with items left.
    work: Condvar,
    /// Callers wait here for their claimed items to finish.
    finished: Condvar,
    /// Helper threads asked of the OS (one it refused is simply missing).
    helpers: usize,
}

/// Locks `m`, past poisoning: nothing that can panic runs under the pool's
/// lock (items run outside it), and an output slot is written whole.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Pool {
    /// A pool for `threads` threads: the caller of each call plus
    /// `threads − 1` helpers, parked until the first call. The helpers live
    /// as long as the process, as real rayon's global pool does, and are
    /// never joined; an item's panic is caught, so none of them dies early.
    /// A helper the OS refuses to start is simply missing: callers finish
    /// their own items.
    fn start(threads: usize) -> &'static Pool {
        let pool: &'static Pool = Box::leak(Box::new(Pool {
            open: Mutex::new(Open::default()),
            work: Condvar::new(),
            finished: Condvar::new(),
            helpers: threads.saturating_sub(1),
        }));
        for t in 1..threads {
            let _ = std::thread::Builder::new().name(format!("rayon-shim-{t}")).spawn(move || pool.help());
        }
        pool
    }

    /// A helper's life: park until some call has items left, run one item of
    /// the call [`Open::pick`] chooses, and choose again.
    fn help(&self) {
        let mut open = lock(&self.open);
        loop {
            let Some(id) = open.pick() else {
                open = self.work.wait(open).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            let (i, body) = open.claim(id).expect("a picked call has items left");
            let call = open.call(id);
            call.helpers += 1;
            call.helped += 1;
            drop(open);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(i)));
            open = lock(&self.open);
            open.call(id).helpers -= 1;
            self.settle(&mut open, id, outcome);
        }
    }

    /// Records that a claimed item of call `id` finished: a panic stops the
    /// call's further claims and is kept for its caller, and the last item
    /// out wakes the callers waiting.
    fn settle(&self, open: &mut Open, id: u64, outcome: std::thread::Result<()>) {
        let call = open.call(id);
        call.running -= 1;
        if let Err(payload) = outcome {
            call.next = call.len;
            call.panic.get_or_insert(payload);
        }
        if call.running == 0 && call.next == call.len {
            self.finished.notify_all();
        }
    }

    /// Runs `body` on every index of `0..len`, the calling thread claiming
    /// items beside the pool's helpers, and returns once all have finished.
    /// An item's panic stops further claims and is re-raised here.
    fn run(&self, len: usize, body: &(dyn Fn(usize) + Sync)) {
        // SAFETY: only the lifetime changes, and `body` is never used after
        // this function returns. A thread calls `body` only for an item it
        // claimed from this call's entry, under the pool's lock, and calls it
        // before it settles that item. This function leaves the loop below
        // only once the call has no item left to claim and none claimed but
        // unsettled, and it unlists the call before it returns. Nothing in
        // between can unwind early: every item's panic, this thread's too, is
        // caught, and is re-raised only after the call is unlisted.
        let body: Body = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Body>(body) };
        let mut open = lock(&self.open);
        let id = open.next_id;
        open.next_id += 1;
        let call = Call { id, body, len, next: 0, running: 0, helpers: 0, helped: 0, panic: None };
        open.calls.push(call);
        for _ in 1..len.min(self.helpers + 1) {
            self.work.notify_one();
        }
        loop {
            if let Some((i, body)) = open.claim(id) {
                drop(open);
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| body(i)));
                open = lock(&self.open);
                self.settle(&mut open, id, outcome);
            } else if open.call(id).running > 0 {
                open = self.finished.wait(open).unwrap_or_else(PoisonError::into_inner);
            } else {
                break;
            }
        }
        let at = open.calls.iter().position(|c| c.id == id).expect("the call is listed");
        let call = open.calls.remove(at);
        drop(open);
        if let Some(payload) = call.panic {
            panic::resume_unwind(payload);
        }
    }
}

/// The one seam every parallel stage runs through: `body` on each index of
/// `0..n`, on the process-wide pool, started by the first call with two
/// items or more. A single item, or a one-thread pool, runs on the caller
/// and starts nothing.
fn for_each_index(n: usize, body: &(dyn Fn(usize) + Sync)) {
    static POOL: OnceLock<&'static Pool> = OnceLock::new();
    if n <= 1 || current_num_threads() == 1 {
        return (0..n).for_each(body);
    }
    POOL.get_or_init(|| Pool::start(current_num_threads())).run(n, body);
}

/// Maps each index of `0..n` through `f` on the pool, results in index
/// order.
fn map_indices<R: Send>(n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    for_each_index(n, &|i| *lock(&out[i]) = Some(f(i)));
    out.into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).expect("every item ran"))
        .collect()
}

/// Runs `f` over index blocks `[lo, hi)` of `0..n`, one per pool thread, and
/// returns the per-block outputs in block order.
fn run_blocks<R: Send>(n: usize, f: impl Fn(usize, usize) -> R + Sync) -> Vec<R> {
    if n == 0 {
        return Vec::new();
    }
    let chunk = n.div_ceil(current_num_threads().min(n));
    map_indices(n.div_ceil(chunk), |b| f(b * chunk, ((b + 1) * chunk).min(n)))
}

/// Conversion into a "parallel" iterator, mirroring
/// `rayon::iter::IntoParallelIterator`.
pub trait IntoParallelIterator {
    /// The parallel iterator type.
    type Iter;
    /// Converts `self` into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { range: self }
    }
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Iter = ParVec<T>;
    fn into_par_iter(self) -> ParVec<T> {
        ParVec { items: self }
    }
}

/// Parallel iterator over an index range.
pub struct ParRange {
    range: Range<usize>,
}

impl ParRange {
    /// Maps each index through `f` in parallel, preserving order.
    pub fn map<R, F>(self, f: F) -> ParResults<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let base = self.range.start;
        let n = self.range.len();
        let blocks = run_blocks(n, |lo, hi| (lo..hi).map(|i| f(base + i)).collect::<Vec<R>>());
        ParResults { items: blocks.into_iter().flatten().collect() }
    }

    /// Maps each index to a sequential iterator and concatenates the results
    /// in index order (rayon's `flat_map_iter`).
    pub fn flat_map_iter<I, F>(self, f: F) -> ParResults<I::Item>
    where
        I: IntoIterator,
        I::Item: Send,
        F: Fn(usize) -> I + Sync,
    {
        let base = self.range.start;
        let n = self.range.len();
        let blocks = run_blocks(n, |lo, hi| (lo..hi).flat_map(|i| f(base + i)).collect::<Vec<I::Item>>());
        ParResults { items: blocks.into_iter().flatten().collect() }
    }
}

/// Parallel iterator over an owned `Vec`.
pub struct ParVec<T: Send> {
    items: Vec<T>,
}

impl<T: Send> ParVec<T> {
    /// Maps each item through `f` in parallel, preserving order.
    pub fn map<R, F>(self, f: F) -> ParResults<R>
    where
        R: Send,
        F: Fn(T) -> R + Sync,
    {
        let items: Vec<Mutex<Option<T>>> = self.items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let items = map_indices(items.len(), |i| {
            let item = lock(&items[i]).take().expect("each item is taken once");
            f(item)
        });
        ParResults { items }
    }
}

/// Already-computed results of a parallel stage, exposing `collect`.
pub struct ParResults<R> {
    items: Vec<R>,
}

impl<R> ParResults<R> {
    /// Collects the results, in input order.
    pub fn collect<C: FromIterator<R>>(self) -> C {
        self.items.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::collections::HashSet;
    use std::panic::AssertUnwindSafe;
    use std::sync::{Barrier, Mutex};
    use std::thread::ThreadId;

    #[test]
    fn range_map_preserves_order() {
        let out: Vec<usize> = (0..100).into_par_iter().map(|i| i * 2).collect();
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn flat_map_iter_concatenates_in_order() {
        let out: Vec<usize> = (0..10).into_par_iter().flat_map_iter(|i| vec![i; i]).collect();
        assert_eq!(out, (0..10).flat_map(|i| vec![i; i]).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_resolves_to_a_positive_value() {
        // Whatever the environment says, the resolved pool size is usable.
        assert!(crate::current_num_threads() >= 1);
    }

    #[test]
    fn results_keep_input_order_under_dynamic_claiming() {
        // Uneven items, so the caller and the helpers finish out of order.
        let spin = |i: u64| (0..(i % 7) * 20_000).fold(i, |acc, x| acc.wrapping_mul(31).wrapping_add(x));
        let input: Vec<u64> = (0..200).collect();
        let out: Vec<(u64, u64)> = input.clone().into_par_iter().map(|i| (i, spin(i))).collect();
        assert_eq!(out, input.iter().map(|&i| (i, spin(i))).collect::<Vec<_>>());
        let out: Vec<u64> = input.clone().into_par_iter().map(spin).collect();
        assert_eq!(out, input.iter().map(|&i| spin(i)).collect::<Vec<_>>());
    }

    #[test]
    fn a_par_iter_nested_inside_an_item_completes() {
        let out: Vec<usize> = (0..16)
            .into_par_iter()
            .map(|i| (0..16).into_par_iter().map(|j| i * j).collect::<Vec<_>>().into_iter().sum())
            .collect();
        assert_eq!(out, (0..16).map(|i| (0..16).map(|j| i * j).sum()).collect::<Vec<usize>>());
    }

    #[test]
    fn concurrent_callers_each_get_their_own_results() {
        let callers: Vec<_> = (0..4usize)
            .map(|c| {
                std::thread::spawn(move || {
                    (0..50)
                        .map(|_| (0..64).map(|i| c * 1000 + i).collect::<Vec<usize>>())
                        .map(|v| v.into_par_iter().map(|x| x * 2).collect::<Vec<usize>>())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for (c, caller) in callers.into_iter().enumerate() {
            for out in caller.join().unwrap() {
                assert_eq!(out, (0..64).map(|i| (c * 1000 + i) * 2).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn a_panicking_item_resurfaces_on_its_caller_and_the_pool_serves_on() {
        for _ in 0..10 {
            let caught = std::panic::catch_unwind(|| {
                (0..32).into_par_iter().map(|i| if i == 17 { panic!("item 17") } else { i }).collect::<Vec<_>>()
            });
            let payload = caught.expect_err("the item's panic reaches its caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"item 17"));
        }
        let out: Vec<usize> = (0..32).into_par_iter().map(|i| i + 1).collect();
        assert_eq!(out, (1..33).collect::<Vec<_>>());
    }

    /// Two items that wait for each other at a barrier finish only if a
    /// helper runs one beside the caller; then the one on the helper (or the
    /// one on the caller) panics, and the caller sees it either way.
    #[test]
    fn a_helper_runs_items_beside_the_caller_and_its_panic_reaches_the_caller() {
        if crate::current_num_threads() < 2 {
            return;
        }
        let caller = std::thread::current().id();
        for on_helper in [true, false] {
            let barrier = Barrier::new(2);
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                (0..2)
                    .into_par_iter()
                    .map(|_| {
                        barrier.wait();
                        let here = std::thread::current().id();
                        assert!((here == caller) == on_helper, "the chosen item panics");
                        here
                    })
                    .collect::<Vec<_>>()
            }));
            assert!(caught.is_err(), "the chosen item's panic reaches the caller");
        }
        let out: Vec<usize> = (0..8).into_par_iter().map(|i| i * 3).collect();
        assert_eq!(out, (0..8).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn a_one_thread_pool_runs_every_item_on_its_caller() {
        let pool = crate::Pool::start(1);
        assert_eq!(pool.helpers, 0);
        let seen = Mutex::new(HashSet::new());
        pool.run(64, &|_| {
            seen.lock().unwrap().insert(std::thread::current().id());
        });
        assert_eq!(seen.into_inner().unwrap(), HashSet::from([std::thread::current().id()]));
        if crate::current_num_threads() == 1 {
            let ids: Vec<ThreadId> = (0..64).into_par_iter().map(|_| std::thread::current().id()).collect();
            assert!(ids.iter().all(|&id| id == std::thread::current().id()));
        }
    }

    #[test]
    fn no_call_creates_a_thread() {
        // Items observe the pool's helpers and this caller, whatever the
        // number of calls: a pool that spawned per call would add fresh ids
        // every time.
        let seen = Mutex::new(HashSet::new());
        for _ in 0..100 {
            let v: Vec<usize> = (0..8).collect();
            v.into_par_iter().map(|_| seen.lock().unwrap().insert(std::thread::current().id())).collect::<Vec<_>>();
        }
        let seen = seen.into_inner().unwrap();
        assert!(seen.len() <= crate::current_num_threads(), "{} thread ids", seen.len());
    }

    #[test]
    fn a_free_helper_joins_the_call_with_the_fewest_helpers() {
        fn noop(_: usize) {}
        let call = |id, helpers, helped| crate::Call {
            id,
            body: &noop,
            len: 10,
            next: 1,
            running: 0,
            helpers,
            helped,
            panic: None,
        };
        let mut open = crate::Open { calls: vec![call(0, 2, 0), call(1, 1, 5), call(2, 1, 3)], next_id: 3 };
        assert_eq!(open.pick(), Some(2));
        open.calls[2].next = 10;
        assert_eq!(open.pick(), Some(1));
        open.calls[1].helpers = 2;
        assert_eq!(open.pick(), Some(0), "ties on helpers go to the call helped least");
    }

    #[test]
    fn empty_inputs() {
        let out: Vec<usize> = (0..0).into_par_iter().map(|i| i).collect();
        assert!(out.is_empty());
        let out: Vec<u8> = Vec::<u8>::new().into_par_iter().map(|x| x).collect();
        assert!(out.is_empty());
    }
}

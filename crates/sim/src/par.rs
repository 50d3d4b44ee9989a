//! Scoped scatter-gather fan-out.
//!
//! The InfoGram hot paths — `(info=all)` over many keywords, aggregate
//! queries over many member services, GIIS pulls over many member GRISes
//! — are embarrassingly parallel: each unit of work is independent, the
//! unit count is known up front, and the caller needs every result (in
//! order) before it can reply. [`fan_out`] covers exactly that shape and
//! nothing more:
//!
//! * **scoped** — workers borrow the caller's stack (`std::thread::scope`),
//!   so tasks can capture `&self`, slices, and other non-`'static` data
//!   without `Arc` plumbing;
//! * **work-stealing-free** — workers claim indices from a single shared
//!   atomic cursor. There are no per-worker deques to steal from, no
//!   channels, and no queue allocation: the only coordination is one
//!   `fetch_add` per task;
//! * **order-preserving** — results land in pre-allocated slots indexed by
//!   input position, so the gather side reads them back in input order;
//! * **parallel in virtual time too** — tasks that sleep on a
//!   [`crate::SystemClock`] overlap their waits, and tasks that advance a
//!   [`crate::ManualClock`] (the deterministic experiments) overlap their
//!   charges the same way: each item is a *branch* with its own
//!   timeline, seeing only what it charged itself, and the join advances
//!   the clock by the longest branch. What an item observes therefore
//!   never depends on how the threads interleaved, and a seeded run
//!   replays exactly. [`branch_id`] names the running branch for code
//!   that must key its own draws the same way.
//!
//! Zero or one item runs inline on the calling thread with no spawns and
//! no branch, which keeps single-keyword queries and cache-hit storms free
//! of thread overhead; a parallelism bound of one runs the branches in
//! turn on the calling thread.

use crate::rng::SplitMix64;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

thread_local! {
    /// The fan-out branch this thread is running, if any.
    static BRANCH: RefCell<Option<Branch>> = const { RefCell::new(None) };
}

/// One fan-out item's timeline.
#[derive(Clone, Default)]
struct Branch {
    /// A hash of the item's index path from the outermost fan-out.
    id: u64,
    /// Nanoseconds charged on this timeline (enclosing branches'
    /// included) per manual clock, not yet applied to the clock.
    charged: Vec<(Arc<AtomicU64>, u64)>,
}

impl Branch {
    fn child(&self, index: usize) -> Branch {
        Branch {
            id: SplitMix64::new(self.id ^ (index as u64 + 1)).next_u64(),
            charged: self.charged.clone(),
        }
    }

    fn charged(&self, clock: &Arc<AtomicU64>) -> u64 {
        self.charged
            .iter()
            .find(|(c, _)| Arc::ptr_eq(c, clock))
            .map_or(0, |(_, n)| *n)
    }
}

/// Restores the enclosing branch when a branch ends, panicking or not.
struct Restore(Option<Branch>);

impl Drop for Restore {
    fn drop(&mut self) {
        // Fails only while the thread's locals are being torn down.
        let _ = BRANCH.try_with(|b| b.replace(self.0.take()));
    }
}

/// Run `f` as `branch`, returning its result and the branch as it ended.
fn in_branch<R>(branch: Branch, f: impl FnOnce() -> R) -> (R, Branch) {
    let _restore = Restore(BRANCH.replace(Some(branch)));
    let r = f();
    (r, BRANCH.take().unwrap_or_default())
}

/// A stable id of the fan-out item the calling thread is running (a hash
/// of its index path from the outermost fan-out), or `None` outside any
/// fan-out. Which draw of a shared seeded stream a branch gets follows
/// thread order; a branch that keys its draws by this id instead replays
/// exactly.
pub fn branch_id() -> Option<u64> {
    BRANCH.with_borrow(|b| b.as_ref().map(|b| b.id))
}

/// Nanoseconds the running branch has charged to a manual clock's
/// counter and not yet applied to it (zero outside any fan-out).
pub(crate) fn pending(clock: &Arc<AtomicU64>) -> u64 {
    BRANCH.with_borrow(|b| b.as_ref().map_or(0, |b| b.charged(clock)))
}

/// Advance a manual clock's counter by `nanos` — inside a fan-out
/// branch, on the branch's own timeline only.
pub(crate) fn advance(clock: &Arc<AtomicU64>, nanos: u64) {
    let in_branch = BRANCH.with_borrow_mut(|b| {
        let Some(b) = b else { return false };
        match b.charged.iter_mut().find(|(c, _)| Arc::ptr_eq(c, clock)) {
            Some((_, n)) => *n += nanos,
            None => b.charged.push((Arc::clone(clock), nanos)),
        }
        true
    });
    if !in_branch {
        clock.fetch_add(nanos, Ordering::SeqCst);
    }
}

/// The join: advance every clock the branches of `parent` charged to
/// where the longest branch stands, and hand back the results.
fn join<R>(parent: &Branch, done: Vec<(R, Branch)>) -> Vec<R> {
    let mut longest: Vec<(Arc<AtomicU64>, u64)> = Vec::new();
    let results = done
        .into_iter()
        .map(|(r, branch)| {
            for (clock, n) in branch.charged {
                match longest.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &clock)) {
                    Some((_, max)) => *max = (*max).max(n),
                    None => longest.push((clock, n)),
                }
            }
            r
        })
        .collect();
    for (clock, n) in longest {
        advance(&clock, n.saturating_sub(parent.charged(&clock)));
    }
    results
}

/// Default cap on worker threads per fan-out (including the caller).
///
/// Fan-out exists to overlap *waiting* (slow providers, member pulls), not
/// to saturate cores, so the cap is deliberately independent of
/// `available_parallelism` — on a single-core host, eight threads sleeping
/// 30 ms each still finish in ~30 ms.
pub const DEFAULT_FAN_OUT: usize = 8;

/// Run `f` over every item, possibly in parallel, returning results in
/// input order. Uses the [`DEFAULT_FAN_OUT`] parallelism bound.
///
/// `f` receives `(index, &item)`. See [`fan_out_bounded`].
///
/// ```
/// use infogram_sim::par::fan_out;
///
/// // Borrowed inputs, order-preserving outputs — no Arc plumbing.
/// let keywords = ["Date", "Memory", "CPULoad"];
/// let lengths = fan_out(&keywords, |i, kw| (i, kw.len()));
/// assert_eq!(lengths, vec![(0, 4), (1, 6), (2, 7)]);
/// ```
pub fn fan_out<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    fan_out_bounded(items, DEFAULT_FAN_OUT, f)
}

/// Run `f` over every item with at most `max_threads` threads (the caller
/// counts as one), returning results in input order.
///
/// Panics in a worker propagate to the caller once all workers have been
/// joined (the scope re-raises the first panic).
#[expect(clippy::expect_used, reason = "each index is written once")]
pub fn fan_out_bounded<T, R, F>(items: &[T], max_threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let parent = BRANCH.with_borrow(|b| b.clone()).unwrap_or_default();
    let run_item = |i: usize| in_branch(parent.child(i), || f(i, &items[i]));
    if max_threads <= 1 {
        return join(&parent, (0..n).map(run_item).collect());
    }
    // The caller is about to block in the scope join until every worker
    // finishes — unbounded if a task stalls. Holding any lock here would
    // let one slow fan-out wedge every thread that wants that lock.
    parking_lot::lockdep::blocking_point("sim.par.fan_out_join", &[]);
    let slots: Vec<OnceLock<(R, Branch)>> = (0..n).map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    let run = |_worker: usize| {
        loop {
            // Under the model checker, claiming an index is a schedule
            // point, so the explorer can interleave workers between
            // claims. No-op otherwise.
            #[cfg(feature = "model")]
            crate::model::yield_point();
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // Each index is claimed exactly once, so the slot is empty.
            let _ = slots[i].set(run_item(i));
        }
    };
    let helpers = max_threads.min(n) - 1;
    // Pre-assign model thread ids in spawn order so replays are exact.
    #[cfg(feature = "model")]
    let model_tids = crate::model::scope_begin(helpers);
    std::thread::scope(|scope| {
        for w in 0..helpers {
            let run = &run;
            #[cfg(feature = "model")]
            let tid = model_tids.get(w).copied();
            scope.spawn(move || {
                #[cfg(feature = "model")]
                let _worker = crate::model::ScopedWorker::enter(tid);
                run(w + 1)
            });
        }
        run(0);
        // The caller is about to block natively in the scope join;
        // hand the scheduler token on first.
        #[cfg(feature = "model")]
        crate::model::caller_release();
    });
    #[cfg(feature = "model")]
    crate::model::caller_reacquire();
    join(
        &parent,
        slots
            .into_iter()
            // The cursor hands out each index exactly once, and the scope
            // join guarantees every claimed index was written.
            .map(|slot| slot.into_inner().expect("every index was claimed"))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::{Duration, Instant};

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = fan_out(&items, |i, x| {
            assert_eq!(i as u64, *x);
            x * 2
        });
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_run_inline() {
        let none: Vec<u32> = vec![];
        assert!(fan_out(&none, |_, x| *x).is_empty());
        let caller = std::thread::current().id();
        let tids = fan_out(&[1u32], |_, _| std::thread::current().id());
        assert_eq!(tids, vec![caller], "single item must not spawn");
    }

    #[test]
    fn bound_of_one_is_sequential() {
        let caller = std::thread::current().id();
        let tids = fan_out_bounded(&[1, 2, 3], 1, |_, _| std::thread::current().id());
        assert!(tids.iter().all(|t| *t == caller));
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let counters: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        fan_out(&(0..64usize).collect::<Vec<_>>(), |_, i| {
            counters[*i].fetch_add(1, Ordering::SeqCst)
        });
        for c in &counters {
            assert_eq!(c.load(Ordering::SeqCst), 1);
        }
    }

    #[test]
    fn sleeps_overlap() {
        // 8 × 30 ms of blocking work should take ~30 ms, not ~240 ms.
        let items = [30u64; 8];
        let start = Instant::now();
        fan_out(&items, |_, ms| {
            std::thread::sleep(Duration::from_millis(*ms))
        });
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_millis(200),
            "fan-out did not overlap sleeps: {elapsed:?}"
        );
    }

    #[test]
    fn branches_overlap_in_virtual_time() {
        use crate::{Clock, ManualClock, SimTime};
        for bound in [1, DEFAULT_FAN_OUT] {
            let clock = ManualClock::starting_at(SimTime::from_millis(100));
            // Each item sees only its own charge, however the threads
            // interleave; the join advances the clock by the longest.
            let seen = fan_out_bounded(&[5u64, 9, 2, 7], bound, |_, ms| {
                clock.advance(Duration::from_millis(*ms));
                let mid = clock.now();
                clock.advance(Duration::from_millis(1));
                mid
            });
            let ms: Vec<u64> = seen.iter().map(|t| t.as_millis()).collect();
            assert_eq!(ms, vec![105, 109, 102, 107], "bound {bound}");
            assert_eq!(clock.now(), SimTime::from_millis(110));
        }
    }

    #[test]
    fn nested_branches_start_where_their_parent_stands() {
        use crate::{Clock, ManualClock, SimTime};
        let clock = ManualClock::new();
        let inner = fan_out(&[10u64, 20], |_, outer_ms| {
            clock.advance(Duration::from_millis(*outer_ms));
            let seen = fan_out(&[1u64, 3], |_, ms| {
                clock.advance(Duration::from_millis(*ms));
                clock.now().as_millis()
            });
            (seen, clock.now().as_millis())
        });
        assert_eq!(inner, vec![(vec![11, 13], 13), (vec![21, 23], 23)]);
        assert_eq!(clock.now(), SimTime::from_millis(23));
    }

    #[test]
    fn branch_ids_are_stable_and_distinct() {
        assert_eq!(branch_id(), None);
        let ids = || fan_out(&[(); 4], |_, _| branch_id());
        let first = ids();
        assert_eq!(first, ids(), "same index path, same id");
        let set: std::collections::BTreeSet<_> = first.iter().flatten().collect();
        assert_eq!(set.len(), 4);
        assert_eq!(branch_id(), None, "the caller's branch is restored");
    }

    #[test]
    fn errors_surface_per_slot() {
        let results = fan_out(&[1u32, 2, 3, 4], |_, x| {
            if x % 2 == 0 {
                Err(format!("even {x}"))
            } else {
                Ok(*x)
            }
        });
        assert_eq!(results[0], Ok(1));
        assert_eq!(results[1], Err("even 2".to_string()));
        assert_eq!(results[3], Err("even 4".to_string()));
    }
}

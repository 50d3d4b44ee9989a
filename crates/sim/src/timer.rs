//! Deterministic timer queue.
//!
//! The refresh scheduler (`info::sched`), the GIIS member re-pull loop,
//! and any future subscription machinery all need the same primitive:
//! "run this item at time *t*, earliest first". [`TimerWheel`] is that
//! primitive, kept deliberately passive so it works identically under
//! every execution regime in this repo:
//!
//! * **clock-agnostic** — the wheel never reads a [`crate::Clock`]; the
//!   caller passes `now` into [`TimerWheel::pop_due`]. Under a
//!   [`crate::ManualClock`] a benchmark sweeps simulated hours through
//!   it; under a [`crate::SystemClock`] a polling driver feeds it real
//!   time.
//! * **model-checker-safe** — no threads, no waits, no interior
//!   mutability. Callers wrap it in their own lock, which gives the
//!   schedule explorer a single synchronization point to permute.
//! * **deterministic** — entries due at the same instant pop in
//!   insertion order (a monotonic sequence number breaks ties), so two
//!   runs over the same schedule produce byte-identical orderings.
//!
//! The wheel is one ordered map keyed by (due time, sequence number),
//! and a [`Ticket`] is its entry's key: `schedule`, `cancel` and
//! `pop_due` are each one `O(log n)` map operation, and a cancelled
//! entry leaves nothing behind.

use std::collections::BTreeMap;

use crate::clock::SimTime;

/// Handle to a scheduled entry, used to cancel it before it fires.
///
/// Tickets are unique per wheel for the wheel's lifetime; a ticket from
/// one wheel has no meaning to another.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ticket(SimTime, u64);

/// An entry surfaced by [`TimerWheel::pop_due`].
#[derive(Debug, PartialEq, Eq)]
pub struct Due<T> {
    /// The instant the entry was scheduled for (≤ the `now` passed to
    /// `pop_due`).
    pub at: SimTime,
    /// The caller's payload.
    pub item: T,
}

/// An ordered queue of `(deadline, payload)` pairs: earliest first,
/// first-in first-out among entries due at the same instant.
///
/// ```
/// use infogram_sim::timer::TimerWheel;
/// use infogram_sim::SimTime;
///
/// let mut wheel = TimerWheel::new();
/// wheel.schedule(SimTime::from_secs(5), "later");
/// let early = wheel.schedule(SimTime::from_secs(1), "soon");
///
/// // Nothing is due yet; the wheel reports when to check back.
/// assert_eq!(wheel.pop_due(SimTime::ZERO), None);
/// assert_eq!(wheel.next_deadline(), Some(SimTime::from_secs(1)));
///
/// // A cancelled ticket never fires.
/// assert!(wheel.cancel(early));
/// let due = wheel.pop_due(SimTime::from_secs(10)).expect("due");
/// assert_eq!(due.item, "later");
/// assert!(wheel.is_empty());
/// ```
pub struct TimerWheel<T> {
    entries: BTreeMap<(SimTime, u64), T>,
    next_seq: u64,
}

impl<T> Default for TimerWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> TimerWheel<T> {
    /// An empty wheel.
    pub fn new() -> Self {
        TimerWheel {
            entries: BTreeMap::new(),
            next_seq: 0,
        }
    }

    /// Schedule `item` to surface once the caller's clock reaches `at`.
    ///
    /// Entries sharing the same `at` surface in the order they were
    /// scheduled.
    pub fn schedule(&mut self, at: SimTime, item: T) -> Ticket {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert((at, seq), item);
        Ticket(at, seq)
    }

    /// Cancel a scheduled entry. Returns `false` if the ticket already
    /// fired, was already cancelled, or never belonged to this wheel.
    pub fn cancel(&mut self, ticket: Ticket) -> bool {
        self.entries.remove(&(ticket.0, ticket.1)).is_some()
    }

    /// Remove and return the earliest entry due at or before `now`, or
    /// `None` if nothing is due yet.
    ///
    /// Call in a loop to drain everything due at the current instant.
    pub fn pop_due(&mut self, now: SimTime) -> Option<Due<T>> {
        let entry = self.entries.first_entry().filter(|e| e.key().0 <= now)?;
        let at = entry.key().0;
        Some(Due {
            at,
            item: entry.remove(),
        })
    }

    /// The deadline of the earliest entry, or `None` if the wheel is
    /// empty. This is the "sleep until" hint for polling drivers.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.entries.first_key_value().map(|(key, _)| key.0)
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no entries remain.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("live", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pops_in_deadline_order() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_secs(3), "c");
        w.schedule(SimTime::from_secs(1), "a");
        w.schedule(SimTime::from_secs(2), "b");
        let mut order = Vec::new();
        while let Some(due) = w.pop_due(SimTime::from_secs(10)) {
            order.push(due.item);
        }
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let t = SimTime::from_secs(1);
        let mut w = TimerWheel::new();
        for i in 0..16u32 {
            w.schedule(t, i);
        }
        let mut order = Vec::new();
        while let Some(due) = w.pop_due(t) {
            order.push(due.item);
        }
        assert_eq!(order, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn nothing_due_before_deadline() {
        let mut w = TimerWheel::new();
        w.schedule(SimTime::from_secs(5), ());
        assert_eq!(w.pop_due(SimTime::from_millis(4_999)), None);
        assert!(w.pop_due(SimTime::from_secs(5)).is_some());
    }

    #[test]
    fn cancellation_is_lazy_but_honest() {
        let mut w = TimerWheel::new();
        let a = w.schedule(SimTime::from_secs(1), "a");
        let b = w.schedule(SimTime::from_secs(2), "b");
        assert_eq!(w.len(), 2);
        assert!(w.cancel(a));
        assert!(!w.cancel(a), "double cancel must report false");
        assert_eq!(w.len(), 1);
        // The cancelled entry never surfaces; next_deadline skips it.
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(2)));
        let due = w.pop_due(SimTime::from_secs(10)).unwrap();
        assert_eq!(due.item, "b");
        assert!(!w.cancel(b), "fired tickets cannot be cancelled");
        assert!(w.is_empty());
    }

    #[test]
    fn foreign_tickets_rejected() {
        let mut w = TimerWheel::<u32>::new();
        let other = {
            let mut o = TimerWheel::new();
            o.schedule(SimTime::ZERO, 1u32);
            o.schedule(SimTime::ZERO, 2u32)
        };
        assert!(!w.cancel(other), "ticket from another wheel");
    }

    #[test]
    fn next_deadline_tracks_the_frontier() {
        let mut w = TimerWheel::new();
        assert_eq!(w.next_deadline(), None);
        w.schedule(SimTime::from_secs(7), 0u8);
        let near = w.schedule(SimTime::from_secs(2), 1u8);
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(2)));
        w.cancel(near);
        assert_eq!(w.next_deadline(), Some(SimTime::from_secs(7)));
    }

    #[test]
    fn reschedule_pattern_round_trips() {
        // The scheduler's steady-state loop: pop, act, schedule again.
        let mut w = TimerWheel::new();
        let period = Duration::from_secs(10);
        w.schedule(SimTime::ZERO.plus(period), "kw");
        let mut fired = 0;
        let mut now = SimTime::ZERO;
        for _ in 0..100 {
            now = now.plus(period);
            while let Some(due) = w.pop_due(now) {
                fired += 1;
                w.schedule(due.at.plus(period), due.item);
            }
        }
        assert_eq!(fired, 100);
        assert_eq!(w.len(), 1);
    }
}

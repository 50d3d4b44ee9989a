//! `sim::lockdep` end to end: the always-on lock-order and
//! blocking-section analyzer that instruments the `parking_lot` shim.
//!
//! * acquiring two lock classes in both orders anywhere in the process
//!   is reported as an inversion — from a clean single-threaded run,
//!   with both acquisition-site chains,
//! * a guard held across a declared blocking point (`sim::par`'s scope
//!   join) is reported,
//! * a guard still held when its thread exits is reported, and
//! * the seeded hub-state/delivery-lock inversion regression in
//!   `SubscriptionHub` is caught with both chains naming the real
//!   classes from `crates/info/src/sub.rs`.
//!
//! and a job whose callback Events are pushed under `exec.engine.jobs`
//! (`exec.engine.jobs → proto.outbox.state`), polled from two threads,
//! draws no report at all: nothing is held across the send.
//!
//! Every test wraps the offending section in [`lockdep::capture`], so
//! the reports are asserted on instead of failing the zero-findings
//! sweep in `scripts/check_lockdep.sh`. Distinct class labels per test
//! keep the process-global dedup from hiding one test's report behind
//! another's.

use infogram::info::sub::{SinkClosed, SubSink, SubscriptionHub};
use infogram::proto::record::InfoRecord;
use infogram::sim::lockdep::{self, ReportKind};
use infogram::sim::metrics::MetricSet;
use infogram::sim::{par, ManualClock};
use parking_lot::{lock_class, Mutex};
use std::sync::Arc;

#[path = "support/callback_race.rs"]
mod callback_race;

/// Lockdep is on under `cfg(debug_assertions)` or `INFOGRAM_LOCKDEP=1`;
/// a `--release` test run without the env var legitimately sees none of
/// the reports, so every test starts with this gate.
fn lockdep_on() -> bool {
    lockdep::enabled()
}

#[test]
fn inversion_reported_from_clean_run_with_both_chains() {
    if !lockdep_on() {
        return;
    }
    let a = Mutex::with_class((), lock_class!("test.lockdep.int.a"));
    let b = Mutex::with_class((), lock_class!("test.lockdep.int.b"));
    let (_, reports) = lockdep::capture(|| {
        {
            let _ga = a.lock();
            let _gb = b.lock(); // establishes a -> b
        }
        {
            let _gb = b.lock();
            let _ga = a.lock(); // b -> a closes the cycle
        }
    });
    let inv = reports
        .iter()
        .find(|r| r.kind == ReportKind::OrderInversion)
        .expect("inversion reported even though nothing deadlocked");
    assert!(inv.text.contains("test.lockdep.int.a"), "{}", inv.text);
    assert!(inv.text.contains("test.lockdep.int.b"), "{}", inv.text);
    assert!(inv.text.contains("this thread:"), "{}", inv.text);
    assert!(inv.text.contains("prior order:"), "{}", inv.text);
    // Both chains carry acquisition sites in this file.
    assert!(inv.text.contains("lockdep.rs"), "{}", inv.text);
}

#[test]
fn guard_across_fan_out_join_reported() {
    if !lockdep_on() {
        return;
    }
    let m = Mutex::with_class(0u32, lock_class!("test.lockdep.int.block"));
    let (_, reports) = lockdep::capture(|| {
        let _g = m.lock();
        // Two items so the scoped pool actually spins up workers and
        // declares the join as a blocking point.
        let out = par::fan_out(&[1u32, 2], |_, x| x * 2);
        assert_eq!(out, vec![2, 4]);
    });
    let blk = reports
        .iter()
        .find(|r| r.kind == ReportKind::BlockingPoint)
        .expect("guard held across the scope join is reported");
    assert!(blk.text.contains("test.lockdep.int.block"), "{}", blk.text);
    assert!(blk.text.contains("sim.par.fan_out_join"), "{}", blk.text);
}

#[test]
fn guard_held_at_thread_exit_reported() {
    if !lockdep_on() {
        return;
    }
    let m = Arc::new(Mutex::with_class((), lock_class!("test.lockdep.int.exit")));
    let (_, reports) = lockdep::capture(|| {
        let m2 = Arc::clone(&m);
        std::thread::spawn(move || {
            let guard = m2.lock();
            // A leaked guard means the lock is held forever; lockdep
            // flags it when the thread's held-stack drops.
            std::mem::forget(guard);
        })
        .join()
        .expect("leaker thread");
    });
    let held = reports
        .iter()
        .find(|r| r.kind == ReportKind::HeldAtExit)
        .expect("guard alive at thread exit is reported");
    assert!(held.text.contains("test.lockdep.int.exit"), "{}", held.text);
}

/// A sink that swallows frames: the test only exercises lock order.
struct NullSink;

impl SubSink for NullSink {
    fn deliver(&self, _frame: Vec<u8>) -> Result<(), SinkClosed> {
        Ok(())
    }
    fn close(&self, _frame: Vec<u8>) {}
}

#[test]
fn seeded_hub_inversion_is_caught() {
    if !lockdep_on() {
        return;
    }
    let hub = SubscriptionHub::new(ManualClock::new(), "node0.grid", MetricSet::new());
    // Normal operation: subscribe + push one update. Both paths take
    // the per-keyword delivery lock first and the hub state lock
    // second, teaching lockdep the legal order.
    hub.subscribe(&["date".to_string()], "t", Arc::new(NullSink));
    hub.notify_record("date", InfoRecord::new("Date", "node0.grid"));

    // The seeded regression takes them in reverse. Single-threaded and
    // contention-free — nothing hangs — yet lockdep must report it.
    let (_, reports) = lockdep::capture(|| hub.debug_acquire_in_reverse_order("date"));
    let inv = reports
        .iter()
        .find(|r| r.kind == ReportKind::OrderInversion)
        .expect("seeded hub inversion reported");
    assert!(inv.text.contains("info.sub.hub_state"), "{}", inv.text);
    assert!(inv.text.contains("info.sub.delivery"), "{}", inv.text);
    assert!(inv.text.contains("this thread:"), "{}", inv.text);
    assert!(inv.text.contains("prior order:"), "{}", inv.text);
    // Both chains point into the hub implementation.
    assert!(inv.text.contains("sub.rs"), "{}", inv.text);
}

#[test]
fn callback_events_pushed_under_the_jobs_lock_draw_no_report() {
    let race = |a, b| {
        let (a, b) = (std::thread::spawn(a), std::thread::spawn(b));
        a.join().expect("poller");
        b.join().expect("poller");
    };
    let (_, reports) = lockdep::capture(|| {
        callback_race::polled_from_two_threads(ManualClock::new(), race, race);
    });
    let texts: Vec<&str> = reports.iter().map(|r| r.text.as_str()).collect();
    assert!(texts.is_empty(), "{texts:#?}");
}

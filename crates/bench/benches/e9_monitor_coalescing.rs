//! E9 — the update monitor and the delay throttle (§6.2): "If multiple
//! updateState methods are invoked, monitors are used to perform only one
//! such update at a time. Additionally, we provide a delay that controls
//! how many milliseconds must pass between consecutive calls of
//! updateState before the actual information is obtained."
//!
//! Part 1 (real threads, real clock): C concurrent updaters against a
//! slow provider — the monitor must collapse each storm to one provider
//! execution; without the monitor every caller would execute (C per
//! storm, the analytic ablation baseline). The provider holds its
//! execution until all C callers have arrived, so every storm is
//! concurrent however slowly its threads start, and the count is exact.
//!
//! Part 2 (virtual clock): back-to-back `updateState` calls under a
//! `delay` throttle.

use infogram_bench::{fmt_ratio, row, table, Joined, Report};
use infogram_info::entry::SystemInformation;
use infogram_info::provider::FnProvider;
use infogram_info::quality::DegradationFn;
use infogram_sim::{ManualClock, SystemClock};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Storms per concurrency level.
const ROUNDS: usize = 5;

fn storm(concurrency: usize) -> (u64, u64) {
    let clock = SystemClock::shared();
    let produces = Arc::new(AtomicU64::new(0));
    let arrived = Arc::new(AtomicUsize::new(0));
    let (p2, a2) = (Arc::clone(&produces), Arc::clone(&arrived));
    let si = SystemInformation::new(
        Box::new(FnProvider::new("Slow", move || {
            p2.fetch_add(1, Ordering::SeqCst);
            // Hold the execution (at most 10 s) until the storm's last
            // caller has arrived, then give it 30 ms to reach the monitor.
            for _ in 0..10_000 {
                if a2.load(Ordering::SeqCst) >= concurrency {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            std::thread::sleep(Duration::from_millis(30));
            Ok(vec![("v".to_string(), "1".to_string())])
        })),
        clock,
        Duration::ZERO, // force a real update per storm
        DegradationFn::default(),
    );
    for _ in 0..ROUNDS {
        arrived.store(0, Ordering::SeqCst);
        let threads: Vec<_> = (0..concurrency)
            .map(|_| {
                let (si, arrived) = (Arc::clone(&si), Arc::clone(&arrived));
                std::thread::spawn(move || {
                    arrived.fetch_add(1, Ordering::SeqCst);
                    si.update_state().expect("update")
                })
            })
            .collect();
        for t in threads {
            t.join().expect("join");
        }
    }
    (
        produces.load(Ordering::SeqCst),
        (concurrency * ROUNDS) as u64,
    )
}

fn delay_throttle(delay_ms: u64) -> u64 {
    let clock = ManualClock::new();
    let si = SystemInformation::new(
        Box::new(FnProvider::new("Throttled", || {
            Ok(vec![("v".to_string(), "1".to_string())])
        })),
        clock.clone(),
        Duration::ZERO,
        DegradationFn::default(),
    );
    si.set_delay(Duration::from_millis(delay_ms));
    // 100 updateState calls at 10 ms spacing = a 1 s window.
    for _ in 0..100 {
        si.update_state().expect("update");
        clock.advance(Duration::from_millis(10));
    }
    si.execution_count()
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E9",
        "update-monitor coalescing + delay throttle (§6.2)",
    );

    println!("\n-- monitor coalescing: C threads × {ROUNDS} storms, 30 ms provider --");
    let mut rows = Vec::new();
    let mut storms = Vec::new();
    for c in [1usize, 2, 4, 8, 16, 32] {
        let (execs, naive) = storm(c);
        storms.push((c, execs));
        rows.push(row![
            c,
            execs,
            naive,
            fmt_ratio(naive as f64 / execs as f64)
        ]);
    }
    table("threads|execs (monitor)|execs (no monitor)|saving", &rows);

    println!("\n-- delay throttle: 100 updateState calls at 10 ms spacing --");
    let mut rows = Vec::new();
    let mut throttled = Vec::new();
    for delay_ms in [0u64, 20, 50, 100, 500] {
        let execs = delay_throttle(delay_ms);
        // One execution per delay window of the 1 s the calls span;
        // delay 0: every call executes.
        let expected = 1000u64.div_ceil(delay_ms.max(1)).min(100);
        throttled.push((execs, expected));
        rows.push(row![delay_ms, execs, expected]);
    }
    table("delay(ms)|execs/100 calls|1 per window", &rows);

    report.claim(
        "monitor_one_execution_per_storm",
        "the monitor keeps provider executions at 1 per storm regardless of concurrency",
        storms.iter().all(|&(_, execs)| execs == ROUNDS as u64),
        storms
            .iter()
            .map(|(c, execs)| format!("{execs} at {c} threads"))
            .joined()
            + &format!(" ({ROUNDS} storms)"),
    );
    report.claim(
        "delay_one_execution_per_window",
        "the delay caps executions at exactly 1 per delay window",
        throttled.iter().all(|(execs, expected)| execs == expected),
        throttled
            .iter()
            .map(|(execs, expected)| format!("{execs}/{expected}"))
            .joined(),
    );
    report.finish();
}

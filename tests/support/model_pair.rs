//! The harness the `model_*.rs` suites share, included with `#[path]`.
//!
//! Each suite pairs a fixture that reintroduces a tempting bug with the
//! shipped code under the identical scenario: the explorer must find the
//! seeded bug ([`expect_found`]) and clear the shipped code on every
//! schedule ([`expect_cleared`]).

// Each suite uses the subset its scenarios need.
#![allow(dead_code)]

use infogram::sim::model::{Config, Report};

/// Unbounded preemptions within 50 000 executions, whatever
/// `EXHAUSTIVE=…` says: the seeded bug is found, and a small shipped
/// scenario exhausted, on every run.
pub fn regression_config() -> Config {
    Config {
        max_executions: 50_000,
        preemption_bound: usize::MAX,
        max_steps: 10_000,
    }
}

/// At most two forced preemptions, CHESS-style, for shipped code whose
/// unpruned schedule space dwarfs the execution budget: the `Wal` and
/// the refresh scheduler take several lock classes per operation. The
/// bugs the seeded fixtures reintroduce live within two preemptions.
pub fn bounded_config() -> Config {
    Config {
        preemption_bound: 2,
        ..regression_config()
    }
}

/// The explorer found a violation whose message contains `needle`, and
/// reported the schedule that replays it.
pub fn expect_found(report: &Report, needle: &str) {
    let violation = report
        .violation
        .as_ref()
        .unwrap_or_else(|| panic!("the model checker must find the seeded bug: {needle}"));
    assert!(
        violation.message.contains(needle),
        "unexpected violation: {violation:?}"
    );
    assert!(
        !violation.schedule.is_empty(),
        "a failing schedule must be reported for replay"
    );
}

/// No schedule broke an invariant, and the space was explored completely.
pub fn expect_cleared(report: &Report) {
    assert!(
        report.violation.is_none(),
        "the shipped code must survive every schedule: {:?}",
        report.violation
    );
    assert!(
        report.complete,
        "the state space must be exhausted: {report:?}"
    );
}

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]

//! Simulation substrate for the InfoGram reproduction.
//!
//! The 2002 InfoGram paper ran on a real Globus testbed: real hosts, real
//! wall-clock time, real Unix commands. None of that substrate exists here,
//! so every time-, randomness-, and network-dependent piece of the system is
//! written against the abstractions in this crate instead:
//!
//! * [`Clock`] — a time source that is either the operating-system clock
//!   ([`SystemClock`]) or a manually advanced virtual clock
//!   ([`ManualClock`]). All TTL caching, information degradation,
//!   authorization contracts, and performance catalogs in the upper crates
//!   take a `Clock`, which makes every test deterministic and lets the
//!   benchmarks sweep hours of simulated cache behaviour in milliseconds.
//! * [`rng::SplitMix64`] — a tiny, seedable, reproducible PRNG plus the
//!   distributions the host and network models need.
//! * [`net`] — latency models for the simulated network links used by
//!   the in-memory transport; links delay messages, they do not lose them.
//! * [`Welford`] — the streaming mean/stddev behind the performance tag
//!   (§6.6 of the paper), re-exported from `infogram-obs`.
//! * [`workload`] — the seeded mix of information queries and job
//!   submissions behind the Figure 2–4 experiments.
//! * [`fault`] — deterministic fault injection: one scripted or
//!   seeded-storm [`fault::Plan`] for provider commands (exits, hangs,
//!   slowdowns) and the WAL's disk (failed or short appends, failed
//!   fsyncs, a full disk, power loss), replayed identically under both
//!   clocks.
//! * [`par`] — the scoped, order-preserving scatter-gather fan-out used
//!   by `(info=all)` answering, scheduled refreshes, and GIIS member
//!   pulls; its items run in parallel in virtual time too.
//! * [`timer`] — a deterministic, clock-agnostic timer queue
//!   ([`timer::TimerWheel`]) backing the adaptive refresh scheduler and
//!   the GIIS member re-pull loop; the caller supplies `now`, so it runs
//!   identically under both clocks and inside the model checker.
//! * [`varint`] — the unsigned LEB128 integers the binary wire formats
//!   share (job handle fields, GSI certificate chains).
//! * [`wire`] — the one reader every binary decoder uses
//!   ([`wire::Reader`]): each field checked against the bytes left, each
//!   count against the room for its items and a cap, no trailing bytes.
//! * `model` (behind the `model` feature) — a CHESS/Loom-style schedule
//!   explorer that drives small multi-threaded scenarios through every
//!   bounded interleaving of their synchronization points, on the
//!   virtual clock. Used by the model test suites and
//!   `scripts/check_model.sh`.

pub mod clock;
pub mod fault;
pub mod metrics;
#[cfg(feature = "model")]
pub mod model;
pub mod net;
pub mod par;
pub mod rng;
pub mod timer;
pub mod varint;
pub mod wire;
pub mod workload;

pub use clock::{Clock, ManualClock, SharedClock, SimTime, SystemClock};
pub use infogram_obs::Welford;
pub use par::{fan_out, fan_out_bounded};
pub use rng::SplitMix64;
pub use timer::TimerWheel;

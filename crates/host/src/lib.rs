#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::print_stdout, clippy::print_stderr))]
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

//! Simulated compute host.
//!
//! The InfoGram paper's information providers shell out to real system
//! commands — `date -u`, `/sbin/sysinfo.exe -mem`, `/usr/local/bin/
//! cpuload.exe`, `ls` (Table 1) — and its J-GRAM backends submit jobs to
//! real local schedulers (fork, PBS, LSF, Condor). This crate replaces that
//! 2002 machine room with a deterministic model:
//!
//! * [`SimulatedHost`] — one machine: hostname, CPU count, a stochastic
//!   CPU-load process, memory/disk models, an in-memory filesystem, and
//!   a fork pool its fork and jarlet jobs run in.
//! * [`commands`] — a registry mapping command lines to handlers with
//!   configurable execution-cost distributions; the built-ins mirror
//!   Table 1 of the paper.
//! * [`queue`] — local resource managers (Unix fork, and FIFO,
//!   fair-share and Condor-style matchmaking batch pools) used by the
//!   J-GRAM backends.
//!
//! Everything is clock- and seed-parameterized, so the caching and
//! degradation experiments can replay identical "system" behaviour.

pub mod commands;
pub mod cpu;
pub mod disk;
pub mod machine;
pub mod memory;
pub mod queue;

pub use commands::{CommandError, CommandOutput, CommandRegistry, CostModel};
pub use cpu::CpuLoadModel;
pub use machine::{HostConfig, SimulatedHost};
pub use queue::{BatchJob, BatchQueue, JobOutcome};

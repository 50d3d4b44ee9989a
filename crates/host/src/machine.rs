//! The simulated host: one machine's worth of models glued together.

use crate::cpu::CpuLoadModel;
use crate::disk::{DiskModel, MemFs};
use crate::memory::MemoryModel;
use crate::queue::BatchQueue;
use infogram_sim::{Clock, SimTime, SplitMix64};
use std::sync::Arc;

/// Static description of a simulated host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// DNS-ish host name, e.g. `node07.anl.gov`.
    pub hostname: String,
    /// Number of CPUs.
    pub cpus: u32,
    /// Physical memory in bytes.
    pub memory_total: u64,
    /// Disk capacity in bytes.
    pub disk_total: u64,
    /// Long-run mean CPU load the stochastic process reverts to.
    pub mean_load: f64,
    /// Master seed; every sub-model forks its own stream from it.
    pub seed: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            hostname: "node00.grid.example.org".to_string(),
            cpus: 4,
            memory_total: 4 << 30,
            disk_total: 64 << 30,
            mean_load: 1.0,
            seed: 0x1f0_6ea3,
        }
    }
}

/// One simulated machine: CPU load process, memory, disk, an in-memory
/// filesystem (with a populated `/home`), and a fork pool.
///
/// Hosts are cheap to construct, deterministic for a fixed
/// `(config.seed, clock)`, and shared via `Arc` among the services that
/// run "on" them.
#[derive(Debug)]
pub struct SimulatedHost {
    config: HostConfig,
    clock: Arc<dyn Clock>,
    boot_time: SimTime,
    /// Stochastic CPU load (see [`CpuLoadModel`]).
    pub cpu: CpuLoadModel,
    /// Memory accounting.
    pub memory: MemoryModel,
    /// Disk accounting.
    pub disk: DiskModel,
    /// In-memory filesystem.
    pub fs: MemFs,
    /// The fork pool fork and jarlet jobs run in (see
    /// [`BatchQueue::fork`]).
    pub processes: BatchQueue,
}

impl SimulatedHost {
    /// Build a host from a config on the given clock.
    pub fn new(config: HostConfig, clock: Arc<dyn Clock>) -> Arc<Self> {
        let mut master = SplitMix64::new(config.seed);
        let cpu_seed = master.next_u64();
        let mem_seed = master.next_u64();
        let boot_time = clock.now();
        let host = SimulatedHost {
            cpu: CpuLoadModel::new(
                clock.clone(),
                cpu_seed,
                config.mean_load,
                config.cpus as f64 * 2.0,
            ),
            memory: MemoryModel::new(clock.clone(), mem_seed, config.memory_total, 0.2),
            disk: DiskModel::new(config.disk_total, config.disk_total / 4),
            fs: MemFs::new(),
            processes: BatchQueue::fork(clock.clone()),
            config,
            clock,
            boot_time,
        };
        host.populate_home();
        Arc::new(host)
    }

    /// A default host on the given clock (tests).
    pub fn default_on(clock: Arc<dyn Clock>) -> Arc<Self> {
        Self::new(HostConfig::default(), clock)
    }

    fn populate_home(&self) {
        // The Table 1 example runs `ls /home/gregor`; give it something to
        // list.
        for f in [
            "paper.tex",
            "results.dat",
            "infogram.conf",
            "jobs/run1.rsl",
            "jobs/run2.rsl",
        ] {
            self.fs.write(&format!("/home/gregor/{f}"), "");
        }
        self.fs.write("/etc/grid-security/hostcert.pem", "SIMCERT");
    }

    /// Host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.config
    }

    /// Host name.
    pub fn hostname(&self) -> &str {
        &self.config.hostname
    }

    /// The clock this host lives on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Seconds since the host "booted" (clock time at construction).
    pub fn uptime_secs(&self) -> f64 {
        self.clock.now().since(self.boot_time).as_secs_f64()
    }

    /// Current UTC-ish date string derived from the simulation clock.
    ///
    /// The simulation epoch is pinned to 2002-07-24 00:00:00 UTC — the
    /// first day of HPDC-11, where the paper was presented.
    pub fn date_string(&self) -> String {
        let total_secs = self.clock.now().as_nanos() / 1_000_000_000;
        let days = total_secs / 86_400;
        let rem = total_secs % 86_400;
        let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
        // Calendar arithmetic from the fixed epoch, good for the ~years of
        // simulated time the experiments use.
        let mut year = 2002u64;
        let mut month = 7u64;
        let mut day = 24 + days;
        loop {
            let dim = days_in_month(year, month);
            if day <= dim {
                break;
            }
            day -= dim;
            month += 1;
            if month > 12 {
                month = 1;
                year += 1;
            }
        }
        format!("{year:04}-{month:02}-{day:02} {h:02}:{m:02}:{s:02} UTC")
    }
}

fn days_in_month(year: u64, month: u64) -> u64 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            if year.is_multiple_of(4) && (!year.is_multiple_of(100) || year.is_multiple_of(400)) {
                29
            } else {
                28
            }
        }
        _ => unreachable!("month {month}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::ManualClock;
    use std::time::Duration;

    #[test]
    fn host_assembles() {
        let clock = ManualClock::new();
        let h = SimulatedHost::default_on(clock.clone());
        assert_eq!(h.hostname(), "node00.grid.example.org");
        assert_eq!(h.config().cpus, 4);
        assert!(h.fs.exists("/home/gregor/paper.tex"));
        assert_eq!(h.uptime_secs(), 0.0);
        clock.advance(Duration::from_secs(30));
        assert_eq!(h.uptime_secs(), 30.0);
    }

    #[test]
    fn date_string_epoch_and_rollover() {
        let clock = ManualClock::new();
        let h = SimulatedHost::default_on(clock.clone());
        assert_eq!(h.date_string(), "2002-07-24 00:00:00 UTC");
        clock.advance(Duration::from_secs(86_400 + 3_723));
        assert_eq!(h.date_string(), "2002-07-25 01:02:03 UTC");
    }

    #[test]
    fn date_string_month_rollover() {
        let clock = ManualClock::new();
        let h = SimulatedHost::default_on(clock.clone());
        // 8 days later: July 24 + 8 = August 1.
        clock.advance(Duration::from_secs(8 * 86_400));
        assert!(h.date_string().starts_with("2002-08-01"));
    }

    #[test]
    fn hosts_with_same_seed_agree() {
        let c1 = ManualClock::new();
        let c2 = ManualClock::new();
        let h1 = SimulatedHost::default_on(c1.clone());
        let h2 = SimulatedHost::default_on(c2.clone());
        c1.advance(Duration::from_secs(60));
        c2.advance(Duration::from_secs(60));
        assert_eq!(h1.cpu.current(), h2.cpu.current());
        assert_eq!(h1.memory.used(), h2.memory.used());
    }

    #[test]
    fn leap_year_february() {
        assert_eq!(days_in_month(2004, 2), 29);
        assert_eq!(days_in_month(2002, 2), 28);
        assert_eq!(days_in_month(2000, 2), 29);
        assert_eq!(days_in_month(1900, 2), 28);
    }
}

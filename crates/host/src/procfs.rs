//! `/proc`-style renderings of the host models.
//!
//! The paper names "the Linux proc file system" as "a good example for an
//! information provider" (§6.2, case (c): "a read function from a file
//! that is used by an information provider"). These functions render the
//! live model state in the familiar `/proc` text formats so the
//! file-reading provider in `infogram-info` has real files to parse.

use crate::machine::SimulatedHost;

/// Render `/proc/loadavg`: `load1 load5 load15 running/total last_pid`.
pub fn render_loadavg(host: &SimulatedHost) -> String {
    let (l1, l5, l15) = host.cpu.load_averages();
    let running = host.processes.running_count();
    format!(
        "{l1:.2} {l5:.2} {l15:.2} {running}/{total} 0\n",
        total = running + 12 // a dozen simulated daemons
    )
}

/// Render a `/proc/meminfo` subset (kB units, like the kernel).
pub fn render_meminfo(host: &SimulatedHost) -> String {
    let total_kb = host.memory.total() / 1024;
    let free_kb = host.memory.free() / 1024;
    let used_kb = host.memory.used() / 1024;
    format!("MemTotal: {total_kb} kB\nMemFree: {free_kb} kB\nMemUsed: {used_kb} kB\n")
}

/// Render `/proc/uptime`: seconds-up and (fake) idle seconds.
pub fn render_uptime(host: &SimulatedHost) -> String {
    let up = host.uptime_secs();
    let idle = up * (1.0 - host.cpu.current() / host.config().cpus as f64).max(0.0);
    format!("{up:.2} {idle:.2}\n")
}

/// Render a `/proc/cpuinfo` subset.
pub fn render_cpuinfo(host: &SimulatedHost) -> String {
    let mut out = String::new();
    for i in 0..host.config().cpus {
        out.push_str(&format!(
            "processor\t: {i}\nmodel name\t: SimCPU 1000MHz\nbogomips\t: 1993.93\n\n"
        ));
    }
    out
}

/// Write the current renderings into the host's in-memory filesystem under
/// `/proc`, so file-based providers can `read()` them.
pub fn sync_procfs(host: &SimulatedHost) {
    host.fs.write("/proc/loadavg", render_loadavg(host));
    host.fs.write("/proc/meminfo", render_meminfo(host));
    host.fs.write("/proc/uptime", render_uptime(host));
    host.fs.write("/proc/cpuinfo", render_cpuinfo(host));
}

/// Parse the first field of a rendered `/proc/loadavg` back into a float.
pub fn parse_loadavg_load1(text: &str) -> Option<f64> {
    text.split_whitespace().next()?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::ManualClock;
    use std::time::Duration;

    #[test]
    fn loadavg_roundtrip() {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock.clone());
        clock.advance(Duration::from_secs(90));
        let text = render_loadavg(&host);
        let parsed = parse_loadavg_load1(&text).unwrap();
        let (l1, _, _) = host.cpu.load_averages();
        assert!((parsed - l1).abs() < 0.01, "parsed {parsed} vs model {l1}");
    }

    #[test]
    fn meminfo_roundtrip() {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock);
        let text = render_meminfo(&host);
        let kb: u64 = text
            .lines()
            .find_map(|l| l.strip_prefix("MemFree:"))
            .and_then(|rest| rest.trim().trim_end_matches(" kB").trim().parse().ok())
            .expect("MemFree line");
        // kB truncation loses < 1 kB.
        assert!((kb * 1024).abs_diff(host.memory.free()) < 1024);
    }

    #[test]
    fn sync_writes_proc_files() {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock);
        sync_procfs(&host);
        for f in ["loadavg", "meminfo", "uptime", "cpuinfo"] {
            assert!(host.fs.exists(&format!("/proc/{f}")), "missing /proc/{f}");
        }
        let cpuinfo = host.fs.read_text("/proc/cpuinfo").unwrap();
        assert_eq!(cpuinfo.matches("processor").count(), 4);
    }

    #[test]
    fn uptime_grows() {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock.clone());
        clock.advance(Duration::from_secs(100));
        let text = render_uptime(&host);
        let up: f64 = text.split_whitespace().next().unwrap().parse().unwrap();
        assert!((up - 100.0).abs() < 0.01);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_loadavg_load1(""), None);
        assert_eq!(parse_loadavg_load1("not-a-number x"), None);
    }
}

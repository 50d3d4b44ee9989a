//! Metric names, units, and the two outputs of a run: a table for people
//! and JSON for tools.

use crate::stats::Stat;
use std::collections::BTreeMap;

/// Gated end-to-end metrics (the result of an untraced run): name, unit.
pub const END_TO_END: [(&str, &str); 3] = [
    ("wire_bytes_per_op", "bytes"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
];

/// The end-to-end speed metrics. An untraced run prints and files them; a
/// traced run reports them with the per-layer metrics, because this
/// sandbox cannot repeat them within any bound the contract allows.
pub const SPEED: [(&str, &str); 3] = [
    ("throughput_rps", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
];

/// Ungated metrics (the result of a traced run): name, unit.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("throughput_rps", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("client.request_encode_ns", "ns"),
    ("client.reply_parse_ldif_us", "us"),
    ("client.reply_parse_xml_us", "us"),
    ("client.connect_us", "us"),
    ("client.submit_p50_us", "us"),
    ("client.status_p50_us", "us"),
    ("client.latency_p999_us", "us"),
    ("proto.frame_write_ns", "ns"),
    ("proto.frame_read_ns", "ns"),
    ("proto.tcp_echo_rtt_small_us", "us"),
    ("proto.tcp_echo_rtt_wide_us", "us"),
    ("proto.mem_echo_rtt_us", "us"),
    ("proto.request_decode_ns", "ns"),
    ("proto.reply_encode_ns", "ns"),
    ("proto.render_ldif_us", "us"),
    ("proto.render_xml_us", "us"),
    ("proto.reply_bytes", "bytes"),
    ("proto.outbox_send_ns", "ns"),
    ("rsl.parse_info_ns", "ns"),
    ("rsl.parse_job_ns", "ns"),
    ("core.dispatch_hit_us", "us"),
    ("core.dispatch_wide_us", "us"),
    ("core.dispatch_refresh_us", "us"),
    ("core.dispatch_submit_us", "us"),
    ("core.dispatch_self_us", "us"),
    ("info.answer_hit_ns", "ns"),
    ("info.answer_wide_us", "us"),
    ("info.update_state_us", "us"),
    ("info.hit_ratio", "ratio"),
    ("info.provider_execs", "count"),
    ("info.coalesced", "count"),
    ("host.command_exec_us", "us"),
    ("exec.engine_submit_us", "us"),
    ("exec.engine_status_ns", "ns"),
    ("exec.wal_commit_us", "us"),
    ("exec.wal_record_ns", "ns"),
    ("exec.wal_group_size", "count"),
    ("exec.wal_fsyncs_per_submit", "ratio"),
    ("exec.wal_bytes_per_job", "bytes"),
    ("exec.checkpoints", "count"),
    ("exec.growth_ratio", "ratio"),
    ("gsi.handshake_us", "us"),
    ("gsi.authorize_ns", "ns"),
    ("obs.record_ns", "ns"),
    ("sim.clock_now_ns", "ns"),
    ("trace.stage_sum_us", "us"),
    ("trace.unaccounted_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("failed_share", "ratio"),
];

/// The metrics of one run, checked against the table it must fill.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: BTreeMap<&'static str, Stat>,
}

impl Metrics {
    /// An empty set that must end up holding exactly `table`'s names.
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Metrics {
        Metrics {
            table,
            values: BTreeMap::new(),
        }
    }

    /// Record a metric. Panics on a name the table does not have: a typo
    /// must not become a silently missing metric.
    pub fn set(&mut self, name: &str, stat: Stat) {
        let (known, _) = self
            .table
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric '{name}' is not in the table"));
        self.values.insert(known, stat);
    }

    /// Every metric in table order. Panics if one was never set.
    pub fn rows(&self) -> Vec<(&'static str, &'static str, Stat)> {
        self.table
            .iter()
            .map(|(name, unit)| {
                let stat = self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("metric '{name}' was never measured"));
                (*name, *unit, *stat)
            })
            .collect()
    }

    /// Whether every value is a finite number.
    pub fn all_finite(&self) -> bool {
        self.values.values().all(|s| s.value.is_finite())
    }

    /// Print `name value unit [low … high] n=samples`, one per line.
    pub fn print(&self) {
        println!(
            "{:<30} {:>14} {:<6} [smallest … largest of all slices; for a timed function: p50 … p99] samples",
            "metric", "value", "unit"
        );
        for (name, unit, s) in self.rows() {
            println!(
                "{name:<30} {:>14.4} {unit:<6} [{:.4} … {:.4}] n={}",
                s.value, s.min, s.max, s.samples
            );
        }
    }

    /// `"name": {"value": v, "unit": "u"}, …` for the result line.
    pub fn json_brief(&self) -> String {
        self.rows()
            .iter()
            .map(|(name, unit, s)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    s.value
                )
            })
            .collect::<Vec<_>>()
            .join(", ")
    }

    /// The same with range and sample count, for the result file.
    pub fn json_full(&self) -> String {
        self.rows()
            .iter()
            .map(|(name, unit, s)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\", \"min\": {}, \"max\": {}, \"samples\": {}}}",
                    s.value, s.min, s.max, s.samples
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ")
    }
}

/// Escape a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Where and on what a run was made — the fields earlier `BENCH_*.json`
/// files lacked.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Commit of the checkout (`unknown` outside a git repository).
    pub git_sha: String,
    /// `rustc -V` of the toolchain that built the binary.
    pub rustc: String,
    /// Kernel release.
    pub kernel: String,
    /// Cores available to the process.
    pub nproc: usize,
}

impl Provenance {
    /// Collect from the environment run.sh prepared and from `/proc`.
    pub fn collect() -> Provenance {
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_string());
        Provenance {
            git_sha: env("E21_GIT_SHA"),
            rustc: env("E21_RUSTC"),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// As JSON object members.
    pub fn json(&self) -> String {
        format!(
            "\"git_sha\": {}, \"rustc\": {}, \"kernel\": {}, \"nproc\": {}",
            json_str(&self.git_sha),
            json_str(&self.rustc),
            json_str(&self.kernel),
            self.nproc
        )
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_enforce_the_table() {
        let mut m = Metrics::new(&END_TO_END);
        for (name, _) in END_TO_END {
            m.set(name, Stat::single(1.5, 1));
        }
        assert_eq!(m.rows().len(), END_TO_END.len());
        assert!(m.all_finite());
        assert!(m
            .json_brief()
            .starts_with("\"wire_bytes_per_op\": {\"value\": 1.5, \"unit\": \"bytes\"}"));
        m.set("setup_s", Stat::single(f64::NAN, 1));
        assert!(!m.all_finite());
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn unknown_metric_name_panics() {
        Metrics::new(&END_TO_END).set("latency_p50", Stat::single(1.0, 1));
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn missing_metric_panics() {
        Metrics::new(&END_TO_END).rows();
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mib() > 0.5);
    }

    /// `BENCHMARK.json` at the repository root is the contract; the
    /// binary's tables must say the same.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for (section, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let start = text
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &text[start..start + text[start..].find(']').expect("section closes")];
            let listed = body.matches("\"name\"").count();
            assert_eq!(listed, table.len(), "{section}: metric count differs");
            for (name, unit) in table {
                assert!(
                    body.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{section}: {name} [{unit}] missing from BENCHMARK.json"
                );
            }
        }
        for w in crate::workloads::Workload::ALL {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name())));
        }
        assert!(text.contains(&format!("\"run_seconds\": {}", crate::RUN_SECONDS)));
    }
}

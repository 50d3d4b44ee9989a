//! Figure 4 — "The new InfoGram service reduces the number of protocols
//! and components in a Grid": the head-to-head comparison.
//!
//! The same closed-loop mixed workload runs against both worlds while we
//! sweep the information fraction `p_info` from all-jobs to all-info.
//! The paper's claim is architectural; the table shows where it becomes
//! quantitative — connection count, handshake work, and bytes on the
//! wire — and that it costs nothing in latency or throughput.

use infogram_bench::mixed::run;
use infogram_bench::{banner, fmt_ratio, fmt_secs, table};
use infogram_client::{DualClient, InfoGramClient};

fn main() {
    banner(
        "F4",
        "unified InfoGram vs separate GRAM+MDS (Figure 4 vs Figure 2)",
        "unified halves connections and handshakes at every mix; latency and \
         throughput are at parity or better; the win is flat across p_info",
    );

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 40;

    println!("\n-- workload sweep: {CLIENTS} clients × {REQUESTS} requests each --");
    let mut rows = Vec::new();
    for p_info in [0.0f64, 0.25, 0.5, 0.75, 1.0] {
        let seed = 9000 + (p_info * 100.0) as u64;
        let base = run::<DualClient>(CLIENTS, REQUESTS, p_info, seed);
        let uni = run::<InfoGramClient>(CLIENTS, REQUESTS, p_info, seed);
        rows.push(vec![
            format!("{:.0}%", p_info * 100.0),
            base.connections.to_string(),
            uni.connections.to_string(),
            base.messages.to_string(),
            uni.messages.to_string(),
            fmt_secs(base.latency.mean()),
            fmt_secs(uni.latency.mean()),
            fmt_ratio(base.connections as f64 / uni.connections as f64),
            fmt_ratio(base.bytes as f64 / uni.bytes as f64),
        ]);
    }
    table(
        &[
            "p_info",
            "conns(base)",
            "conns(uni)",
            "msgs(base)",
            "msgs(uni)",
            "lat(base)",
            "lat(uni)",
            "conn-win",
            "bytes-win",
        ],
        &rows,
    );

    println!("\n-- structural comparison (the figures themselves) --");
    table(
        &["property", "Figure 2 (separate)", "Figure 4 (InfoGram)"],
        &[
            vec![
                "services per resource".into(),
                "2 (GRAM, GRIS)".into(),
                "1".into(),
            ],
            vec![
                "wire protocols".into(),
                "2 (GRAMP, LDAP)".into(),
                "1 (xRSL/GRAMP)".into(),
            ],
            vec!["listening ports".into(), "2".into(), "1".into()],
            vec!["connections per client".into(), "2".into(), "1".into()],
            vec!["GSI handshakes per client".into(), "2".into(), "1".into()],
            vec![
                "client code paths".into(),
                "2 (RSL + LDAP filters)".into(),
                "1 (xRSL)".into(),
            ],
        ],
    );
    println!(
        "\nreading: the paper's thesis, quantified — the unified service does the\n\
         same work with half the connections and handshakes at every job/info mix,\n\
         and the structural table is Figure 2 vs Figure 4 in rows instead of boxes."
    );
}

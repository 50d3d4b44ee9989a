//! Figures 2–4 — "The new InfoGram service reduces the number of
//! protocols and components in a Grid": the head-to-head comparison.
//!
//! The same closed-loop mixed workload runs against both worlds — the
//! separate GRAM + MDS of Figure 2 and the unified service of Figures 3
//! and 4 — while we sweep the information fraction `p_info` from
//! all-jobs to all-info. The structure of each world (listeners reached,
//! connections, handshakes, protocols spoken) is counted from the running
//! servers and network, and gated exactly; latency and bytes depend on
//! how many status polls a job's wall time takes, so they are reported.
//! At p_info 1 no job runs, so nothing is polled and the bytes that mix
//! moves are gated too.

use infogram_bench::mixed::{run, MixedOutcome};
use infogram_bench::{fmt_ratio, fmt_secs, row, table, Joined, Report};
use infogram_client::{DualClient, InfoGramClient};

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "F4",
        "unified InfoGram vs separate GRAM+MDS (Figure 4 vs Figure 2)",
    );

    const CLIENTS: usize = 4;
    const REQUESTS: usize = 40;
    const MIXES: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

    println!("\n-- workload sweep: {CLIENTS} clients × {REQUESTS} requests each --");
    let mut rows = Vec::new();
    let mut runs: Vec<(f64, MixedOutcome, MixedOutcome)> = Vec::new();
    for p_info in MIXES {
        let seed = 9000 + (p_info * 100.0) as u64;
        let base = run::<DualClient>(CLIENTS, REQUESTS, p_info, seed);
        let uni = run::<InfoGramClient>(CLIENTS, REQUESTS, p_info, seed);
        rows.push(row![
            format!("{:.0}%", p_info * 100.0),
            base.connections,
            uni.connections,
            base.messages,
            uni.messages,
            fmt_secs(base.latency.mean()),
            fmt_secs(uni.latency.mean()),
            fmt_ratio(base.connections as f64 / uni.connections as f64),
            fmt_ratio(base.bytes as f64 / uni.bytes as f64)
        ]);
        runs.push((p_info, base, uni));
    }
    table(
        "p_info|conns(base)|conns(uni)|msgs(base)|msgs(uni)|lat(base)|lat(uni)|conn-win|bytes-win",
        &rows,
    );

    println!("\n-- structural comparison at p_info 50%, counted from the running worlds --");
    let (_, base, uni) = &runs[2];
    let per_client = |n: u64| format!("{}", n as f64 / CLIENTS as f64);
    table(
        "property|Figure 2 (separate)|Figure 4 (InfoGram)",
        &[
            vec![
                "listeners reached".into(),
                base.servers.to_string(),
                uni.servers.to_string(),
            ],
            vec![
                "wire protocols with requests".into(),
                base.protocols.join(" + "),
                uni.protocols.join(" + "),
            ],
            vec![
                "connections per client".into(),
                per_client(base.connections),
                per_client(uni.connections),
            ],
            vec![
                "GSI handshakes per client".into(),
                per_client(base.handshakes),
                per_client(uni.handshakes),
            ],
        ],
    );

    let clients = CLIENTS as u64;
    let every_mix = |f: &dyn Fn(&MixedOutcome, &MixedOutcome) -> bool| {
        runs.iter().all(|(_, base, uni)| f(base, uni))
    };
    let per_mix = |f: &dyn Fn(&MixedOutcome) -> String| {
        (runs.iter())
            .map(|(_, base, uni)| format!("{}/{}", f(base), f(uni)))
            .joined()
    };
    report.claim(
        "one_listener",
        "the unified world serves every mix from one listener; the baseline needs two",
        every_mix(&|base, uni| base.servers == 2 && uni.servers == 1),
        format!(
            "baseline/unified listeners per mix: {}",
            per_mix(&|o| o.servers.to_string())
        ),
    );
    report.claim(
        "half_the_connections",
        "unified opens one connection per client at every mix, the baseline two",
        every_mix(&|base, uni| base.connections == 2 * clients && uni.connections == clients),
        format!("per mix: {}", per_mix(&|o| o.connections.to_string())),
    );
    report.claim(
        "half_the_handshakes",
        "unified completes one GSI handshake per client at every mix, the baseline two",
        every_mix(&|base, uni| base.handshakes == 2 * clients && uni.handshakes == clients),
        format!("per mix: {}", per_mix(&|o| o.handshakes.to_string())),
    );
    report.claim(
        "one_protocol",
        "unified carries jobs and queries in one protocol; the baseline speaks GRAMP for \
         jobs and LDAP for queries",
        runs.iter().all(|(p_info, base, uni)| {
            let want: &[&str] = if *p_info == 0.0 {
                &["GRAMP"]
            } else if *p_info == 1.0 {
                &["LDAP"]
            } else {
                &["GRAMP", "LDAP"]
            };
            uni.protocols == ["GRAMP"] && base.protocols == want
        }),
        format!("per mix: {}", per_mix(&|o| o.protocols.join("+"))),
    );
    report.reported(
        "latency_parity",
        "unified mean latency is at parity or better at every mix",
        every_mix(&|base, uni| uni.latency.mean() <= base.latency.mean()),
        format!("per mix: {}", per_mix(&|o| fmt_secs(o.latency.mean()))),
    );
    let (_, base, uni) = &runs[MIXES.len() - 1];
    report.claim(
        "info_bytes_fewer",
        "at p_info 1 unified moves fewer bytes than the baseline",
        uni.bytes < base.bytes,
        format!("baseline/unified bytes: {}/{}", base.bytes, uni.bytes),
    );
    report.reported(
        "bytes_not_worse",
        "unified moves no more bytes than the baseline at every mix",
        every_mix(&|base, uni| uni.bytes <= base.bytes),
        format!(
            "per mix: {}; per request: {}; per handshake: {}",
            per_mix(&|o| o.bytes.to_string()),
            per_mix(&|o| format!(
                "{:.1}",
                (o.bytes - o.connect_bytes) as f64 / o.requests as f64
            )),
            per_mix(&|o| format!("{:.1}", o.connect_bytes as f64 / o.handshakes as f64)),
        ),
    );
    report.finish();
}

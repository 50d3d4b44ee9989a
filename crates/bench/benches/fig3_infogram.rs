//! Figure 3 — the InfoGram architecture, measured.
//!
//! The identical mixed workload of the Figure 2 bench, now against the
//! unified service: one gatekeeper, one port, one protocol. Information
//! queries travel as xRSL submits on the same authenticated connection
//! the jobs use.

use infogram_bench::mixed::{outcome_row, run, OUTCOME_HEADER};
use infogram_bench::{banner, table};
use infogram_client::InfoGramClient;

fn main() {
    banner(
        "F3",
        "the unified InfoGram service under a mixed workload (Figure 3)",
        "connections = 1 × clients; one protocol; the same work as Figure 2 \
         with half the connection/handshake overhead",
    );
    let mut rows = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let o = run::<InfoGramClient>(clients, 40, 0.5, 1000 + clients as u64);
        rows.push(outcome_row(&format!("unified, {clients} clients"), &o));
    }
    table(&OUTCOME_HEADER, &rows);
    println!(
        "\nstructural inventory of this world (the boxes of Figure 3):\n\
         services per resource: 1 (InfoGram)   protocols: 1 (xRSL over GRAMP)\n\
         ports: 1   connections per client: 1   GSI handshakes per client: 1\n\
         \nreading: compare row-for-row with fig2_separate_services; the head-to-head\n\
         sweep with ratios is fig4_unified_vs_separate."
    );
}

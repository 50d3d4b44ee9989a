//! E12 — multi-format output and MDS integration (§3, §5.5, §6.6).
//!
//! 1. **Equivalence**: the same provider queried through the native
//!    InfoGram path and through the MDS bridge must agree
//!    attribute-for-attribute (the "gradual transition" guarantee).
//! 2. **Render cost**: LDIF vs XML vs plain — time and bytes per record
//!    at several record-set sizes.
//!
//! Attributes and bytes are counted and gated; render time is wall clock
//! and reported.

use infogram::core::mds_bridge;
use infogram::mds::filter::Filter;
use infogram::quickstart::Sandbox;
use infogram_bench::{fmt_secs, row, table, Report};
use infogram_proto::record::InfoRecord;
use infogram_proto::render;
use infogram_rsl::{InfoSelector, OutputFormat};
use std::time::Instant;

/// Attributes served natively and the ones the MDS view matched, per
/// keyword.
fn equivalence() -> Vec<(usize, usize)> {
    println!("\n-- native vs MDS-bridge equivalence --");
    let sandbox = Sandbox::start();
    let gris = mds_bridge::as_gris(&sandbox.service);
    let mut rows = Vec::new();
    let mut counts = Vec::new();
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
        counts.push((total, matched));
        rows.push(row![
            keyword,
            total,
            matched,
            if matched == total { "yes" } else { "NO" }
        ]);
    }
    table("keyword|attrs|matched via MDS|equal", &rows);
    sandbox.shutdown();
    counts
}

/// Per format row: (format, bytes per record, seconds per record).
fn render_cost() -> Vec<(OutputFormat, usize, f64)> {
    println!("\n-- render cost per format --");
    // `annotated` is what the service sends: one quality and one age on
    // every attribute of a record, said once in the record's head by
    // LDIF and XML and on every line by `plain`. `bare` is a hand-built
    // record with neither.
    let mut rows = Vec::new();
    let mut costs = Vec::new();
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
                costs.push((fmt, bytes / n_records, per_record));
                rows.push(row![
                    if annotated { "annotated" } else { "bare" },
                    n_records,
                    fmt,
                    fmt_secs(per_record),
                    format!("{}", bytes / n_records)
                ]);
            }
        }
    }
    table("attributes|records|format|time/record|bytes/record", &rows);
    costs
}

fn main() {
    let mut report = Report::start(
        env!("CARGO_CRATE_NAME"),
        "E12",
        "LDIF/XML formats + MDS integration (§3/§5.5/§6.6)",
    );
    let counts = equivalence();
    let costs = render_cost();

    report.claim(
        "mds_view_attribute_identical",
        "the MDS view is attribute-identical to the native view",
        counts
            .iter()
            .all(|&(total, matched)| total > 0 && matched == total),
        format!(
            "{} of {} attributes matched over {} keywords",
            counts.iter().map(|c| c.1).sum::<usize>(),
            counts.iter().map(|c| c.0).sum::<usize>(),
            counts.len()
        ),
    );
    // Rows come in (ldif, xml, plain) triples per record set.
    let pairs: Vec<(usize, usize)> = costs.chunks(3).map(|c| (c[0].1, c[1].1)).collect();
    report.claim(
        "xml_moderately_larger",
        "XML is moderately larger than LDIF: more bytes per record, less than twice as many",
        pairs
            .iter()
            .all(|&(ldif, xml)| xml > ldif && xml < 2 * ldif),
        format!(
            "XML/LDIF bytes per record {:.2}x..{:.2}x",
            pairs
                .iter()
                .map(|&(l, x)| x as f64 / l as f64)
                .fold(f64::INFINITY, f64::min),
            pairs
                .iter()
                .map(|&(l, x)| x as f64 / l as f64)
                .fold(0.0, f64::max)
        ),
    );
    let slowest = costs.iter().map(|c| c.2).fold(0.0, f64::max);
    report.reported(
        "renders_in_microseconds",
        "every format renders in microseconds per record",
        slowest < 1e-5,
        format!("slowest {} per record", fmt_secs(slowest)),
    );
    report.finish();
}

//! Criterion micro-benchmarks for the hot paths: RSL parsing/printing,
//! xRSL extraction, record rendering, wire encoding, and certificate
//! chain verification.

// Bench/example/test harness: panic-on-failure is the error policy here.
// (criterion_group! expands to undocumented pub fns, hence missing_docs.)
#![allow(clippy::unwrap_used, missing_docs)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use infogram_gsi::{verify_chain, CertificateAuthority, Dn};
use infogram_proto::message::{Reply, Request};
use infogram_proto::record::InfoRecord;
use infogram_proto::render;
use infogram_rsl::{parse, OutputFormat, XrslRequest};
use infogram_sim::{SimTime, SplitMix64};
use std::hint::black_box;
use std::time::Duration;

const JOB_RSL: &str = "&(executable=/bin/simwork)(arguments=100 0)(count=4)(maxtime=5)\
     (environment=(HOME /home/gregor)(LANG C))(jobtype=batch)(queue=pbs)\
     (requirements=(os linux)(arch x86))";
const INFO_RSL: &str =
    "(info=memory)(info=cpu)(response=cached)(quality=75)(performance=true)(format=xml)";

fn bench_rsl(c: &mut Criterion) {
    c.bench_function("rsl/parse_job", |b| {
        b.iter(|| parse(black_box(JOB_RSL)).unwrap())
    });
    c.bench_function("rsl/parse_info", |b| {
        b.iter(|| parse(black_box(INFO_RSL)).unwrap())
    });
    let spec = parse(JOB_RSL).unwrap();
    c.bench_function("rsl/print", |b| b.iter(|| black_box(&spec).to_string()));
    c.bench_function("rsl/xrsl_extract", |b| {
        b.iter(|| XrslRequest::from_text(black_box(JOB_RSL)).unwrap())
    });
    // What every `info_hit` request pays: text to typed request.
    c.bench_function("rsl/xrsl_info_hit", |b| {
        b.iter(|| XrslRequest::from_text(black_box("(info=Memory)")).unwrap())
    });
}

fn sample_records(n: usize) -> Vec<InfoRecord> {
    (0..n)
        .map(|i| {
            let mut r = InfoRecord::new("Memory", &format!("node{i:03}.grid"));
            r.push("total", "4294967296").quality = Some(0.9);
            r.push("used", "858993459").quality = Some(0.9);
            r.push("free", "3435973837").quality = Some(0.9);
            r
        })
        .collect()
}

/// The e21 benchmark's `info_wide` reply as records: 16 keywords × 24
/// attributes × 24-character values, every attribute stamped with its
/// record's quality and age as the information service does.
fn wide_records() -> Vec<InfoRecord> {
    (0..16)
        .map(|k| {
            let mut r = InfoRecord::new(&format!("K{k:02}"), "127.0.0.1");
            for a in 0..24 {
                let attr = r.push(&format!("a{a:02}"), &format!("{:024}", k * 100 + a));
                attr.quality = Some(1.0);
                attr.age_secs = Some(12.345);
            }
            r
        })
        .collect()
}

fn bench_render(c: &mut Criterion) {
    let records = sample_records(100);
    c.bench_function("render/ldif_100", |b| {
        b.iter(|| render::render(black_box(&records), OutputFormat::Ldif))
    });
    c.bench_function("render/xml_100", |b| {
        b.iter(|| render::render(black_box(&records), OutputFormat::Xml))
    });
    let ldif = render::render(&records, OutputFormat::Ldif);
    c.bench_function("render/ldif_parse_100", |b| {
        b.iter(|| render::ldif::parse(black_box(&ldif)))
    });
    // In-tree twins of e21's `proto.render_ldif_us` and
    // `client.reply_parse_ldif_us` on `info_wide`.
    let wide = wide_records();
    c.bench_function("render/ldif_render_wide", |b| {
        b.iter(|| render::render(black_box(&wide), OutputFormat::Ldif))
    });
    let wide_ldif = render::render(&wide, OutputFormat::Ldif);
    c.bench_function("render/ldif_parse_wide", |b| {
        b.iter(|| render::ldif::parse(black_box(&wide_ldif)))
    });
}

fn bench_wire(c: &mut Criterion) {
    let req = Request::Submit {
        rsl: JOB_RSL.to_string(),
        callback: true,
    };
    let encoded = req.encode();
    c.bench_function("wire/request_encode", |b| {
        b.iter(|| black_box(&req).encode())
    });
    c.bench_function("wire/request_decode", |b| {
        b.iter(|| Request::decode(black_box(&encoded)).unwrap())
    });
    let reply = Reply::InfoResult {
        body: render::render(&sample_records(10), OutputFormat::Ldif),
        record_count: 10,
    };
    let reply_enc = reply.encode();
    c.bench_function("wire/reply_decode", |b| {
        b.iter(|| Reply::decode(black_box(&reply_enc)).unwrap())
    });
}

fn bench_gsi(c: &mut Criterion) {
    let mut rng = SplitMix64::new(11);
    let ca = CertificateAuthority::new_root(
        &Dn::user("Grid", "CA", "Root"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(365 * 86_400),
    );
    let user = ca.issue(
        &Dn::user("Grid", "ANL", "Bench"),
        &mut rng,
        SimTime::ZERO,
        Duration::from_secs(86_400),
    );
    let proxy = user
        .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(3600), 4)
        .unwrap()
        .delegate(&mut rng, SimTime::ZERO, Duration::from_secs(3600), 4)
        .unwrap();
    let roots = [ca.certificate().clone()];
    c.bench_function("gsi/verify_chain_depth2", |b| {
        b.iter(|| {
            verify_chain(
                black_box(&proxy.chain),
                black_box(&roots),
                SimTime::from_secs(1),
            )
            .unwrap()
        })
    });
    c.bench_function("gsi/delegate", |b| {
        b.iter_batched(
            || SplitMix64::new(12),
            |mut r| {
                user.delegate(&mut r, SimTime::ZERO, Duration::from_secs(3600), 4)
                    .unwrap()
            },
            BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_rsl, bench_render, bench_wire, bench_gsi);
criterion_main!(benches);

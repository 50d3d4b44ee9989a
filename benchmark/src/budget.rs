//! From spans to numbers: run the chain and the probes of one workload,
//! name the per-layer metrics they yield, and lay out its budget table.

use crate::gen::Seeds;
use crate::layers::{self, InfoStages, HIT, REFRESH, WIDE};
use crate::report::Metrics;
use crate::stats::Stat;
use crate::trace::{fill_self_times, BudgetRow, SpanBuf};
use crate::workloads::{sequence, InfoPlan, Workload};
use crate::world::World;
use std::path::Path;

/// Requests replayed per chain: enough for a steady median, few enough
/// that a traced run stays within its seconds.
const HIT_REPLAYS: usize = 10_000;
const WIDE_REPLAYS: usize = 600;
const JOB_REPLAYS: usize = 800;
/// Round trips per transport floor.
const SMALL_ECHOES: usize = 20_000;
const WIDE_ECHOES: usize = 2_000;

const SMALL_FLOOR: &str = "proto.tcp_echo_rtt_small";
const WIDE_FLOOR: &str = "proto.tcp_echo_rtt_wide";

/// Run, against `world` (whose cache must be primed) and recording into
/// `buf`, the chain `workload`'s requests cross, the transport floor
/// under them and the probes of the layers the issue's table pairs with
/// it; then set every per-layer metric that comes from spans. A metric
/// whose stage another workload's run measures reads 0 with 0 samples.
pub fn measure_layers(
    buf: &mut SpanBuf,
    workload: Workload,
    world: &World,
    seeds: &Seeds,
    scratch: &Path,
    clients: usize,
    metrics: &mut Metrics,
) {
    // The same draws client 0 sent over the wire.
    let info_chain = |buf: &mut SpanBuf, shape: Workload, n: usize, st: &InfoStages| {
        let plan = InfoPlan::build(shape, world);
        let seq = sequence(&plan, seeds.client(0), 1 << 14);
        (layers::info_chain(buf, world, &plan, &seq, n, st), plan)
    };
    let mut wide_reply = 0;
    match workload {
        Workload::InfoHit => {
            let (sizes, _) = info_chain(buf, Workload::InfoHit, HIT_REPLAYS, &HIT);
            layers::bookkeeping_probes(buf, world);
            layers::tcp_floor(buf, SMALL_FLOOR, sizes, clients, SMALL_ECHOES);
            layers::mem_floor(buf, sizes, clients);
        }
        Workload::InfoWide => {
            let (sizes, plan) = info_chain(buf, Workload::InfoWide, WIDE_REPLAYS, &WIDE);
            wide_reply = sizes.reply;
            layers::xml_probes(buf, world, &plan);
            layers::tcp_floor(buf, WIDE_FLOOR, sizes, clients, WIDE_ECHOES);
        }
        Workload::InfoRefresh => {
            let (sizes, _) = info_chain(buf, Workload::InfoRefresh, HIT_REPLAYS, &REFRESH);
            layers::refresh_probes(buf, world);
            layers::tcp_floor(buf, SMALL_FLOOR, sizes, clients, SMALL_ECHOES);
        }
        Workload::JobSubmit => {
            let sizes = layers::job_chain(buf, world, &scratch.join("replay"), JOB_REPLAYS);
            layers::wal_commit_probe(buf, world, &scratch.join("probes"));
            layers::tcp_floor(buf, SMALL_FLOOR, sizes, clients, SMALL_ECHOES);
        }
        Workload::ConnectChurn => {
            let (sizes, _) = info_chain(buf, Workload::InfoHit, HIT_REPLAYS, &HIT);
            layers::connect_probes(buf, world);
            layers::tcp_floor(buf, SMALL_FLOOR, sizes, clients, SMALL_ECHOES);
        }
    }

    let ns = |stage: &str| buf.stage(stage).stat(1.0);
    let us = |stage: &str| buf.stage(stage).stat(1e3);
    let sum_us = |a: &str, b: &str| {
        let (a, b) = (buf.stage(a), buf.stage(b));
        Stat {
            value: (a.p50_ns + b.p50_ns) / 1e3,
            min: (a.p50_ns + b.p50_ns) / 1e3,
            max: (a.p99_ns + b.p99_ns) / 1e3,
            samples: a.samples,
        }
    };
    metrics.set("client.request_encode_ns", ns(HIT.encode));
    metrics.set(
        "client.reply_parse_ldif_us",
        sum_us(WIDE.reply_decode, WIDE.reply_parse),
    );
    metrics.set(
        "client.reply_parse_xml_us",
        us("wide/client.reply_parse_xml"),
    );
    metrics.set("client.connect_us", us("probe/client.connect"));
    metrics.set("proto.frame_write_ns", ns(HIT.frame_write));
    metrics.set("proto.frame_read_ns", ns(HIT.frame_read));
    metrics.set("proto.tcp_echo_rtt_small_us", us(SMALL_FLOOR));
    metrics.set("proto.tcp_echo_rtt_wide_us", us(WIDE_FLOOR));
    metrics.set("proto.mem_echo_rtt_us", us("proto.mem_echo_rtt"));
    metrics.set("proto.request_decode_ns", ns(HIT.decode));
    metrics.set("proto.reply_encode_ns", ns(HIT.reply_encode));
    metrics.set("proto.render_ldif_us", us(WIDE.render));
    metrics.set("proto.render_xml_us", us("wide/proto.render_xml"));
    metrics.set(
        "proto.reply_bytes",
        Stat::single(wide_reply as f64, buf.stage(WIDE.dispatch).samples),
    );
    metrics.set("proto.outbox_send_ns", ns(HIT.outbox));
    metrics.set("rsl.parse_info_ns", ns(HIT.parse));
    metrics.set("rsl.parse_job_ns", ns("submit/rsl.parse"));
    metrics.set("core.dispatch_hit_us", us(HIT.dispatch));
    metrics.set("core.dispatch_wide_us", us(WIDE.dispatch));
    metrics.set("core.dispatch_refresh_us", us(REFRESH.dispatch));
    metrics.set("core.dispatch_submit_us", us("submit/core.dispatch"));
    let dispatch = buf.stage(HIT.dispatch);
    let callees: f64 = [HIT.parse, HIT.query_log, HIT.answer, HIT.render]
        .iter()
        .map(|s| buf.stage(s).p50_ns)
        .sum();
    metrics.set(
        "core.dispatch_self_us",
        Stat::single((dispatch.p50_ns - callees) / 1e3, dispatch.samples),
    );
    metrics.set("info.answer_hit_ns", ns(HIT.answer));
    metrics.set("info.answer_wide_us", us(WIDE.answer));
    metrics.set("info.update_state_us", us("info.update_state"));
    metrics.set("host.command_exec_us", us("host.command_exec"));
    metrics.set("exec.engine_submit_us", us("submit/exec.engine_submit"));
    metrics.set("exec.engine_status_ns", ns("status/exec.engine_status"));
    metrics.set("exec.wal_commit_us", us("exec.wal_commit"));
    metrics.set("exec.wal_record_ns", ns("exec.wal_record"));
    metrics.set("gsi.handshake_us", us("gsi.handshake"));
    metrics.set("gsi.authorize_ns", ns("gsi.authorize"));
    metrics.set("obs.record_ns", ns("obs.record"));
    metrics.set("sim.clock_now_ns", ns("sim.clock_now"));
}

/// The budget rows of `workload`: the stages one of its operations
/// crosses, top-level rows on the blocking path, callees nested under
/// their caller.
pub fn rows(buf: &SpanBuf, workload: Workload) -> Vec<BudgetRow> {
    let row = |label: &str, stage: &str, depth: usize| {
        let s = buf.stage(stage);
        BudgetRow {
            stage: label.to_string(),
            depth,
            p50_us: s.p50_ns / 1e3,
            p99_us: s.p99_ns / 1e3,
            self_us: 0.0,
        }
    };
    let info_rows = |st: &InfoStages, floor: &str| {
        vec![
            row("client.request_encode", st.encode, 0),
            row("transport floor (tcp echo)", floor, 0),
            row("proto.frame_write (request)", st.frame_write, 1),
            row("proto.frame_read (request)", st.frame_read, 1),
            row("proto.request_decode", st.decode, 0),
            row("core.dispatch", st.dispatch, 0),
            row("rsl.parse", st.parse, 1),
            row("exec.wal_record (query log)", st.query_log, 1),
            row("info.answer", st.answer, 1),
            row("proto.render", st.render, 1),
            row("proto.reply_encode", st.reply_encode, 0),
            row("proto.outbox_send", st.outbox, 0),
            row("client.reply_decode", st.reply_decode, 0),
            row("client.reply_parse", st.reply_parse, 0),
        ]
    };
    let mut rows = match workload {
        Workload::InfoHit => info_rows(&HIT, SMALL_FLOOR),
        Workload::InfoWide => info_rows(&WIDE, WIDE_FLOOR),
        Workload::InfoRefresh => info_rows(&REFRESH, SMALL_FLOOR),
        Workload::JobSubmit => vec![
            row(
                "submit: client.request_encode",
                "submit/client.request_encode",
                0,
            ),
            row("submit: transport floor", SMALL_FLOOR, 0),
            row(
                "submit: proto.request_decode",
                "submit/proto.request_decode",
                0,
            ),
            row("submit: core.dispatch", "submit/core.dispatch", 0),
            row("rsl.parse", "submit/rsl.parse", 1),
            row("exec.engine_submit", "submit/exec.engine_submit", 1),
            row("exec.wal_commit", "exec.wal_commit", 2),
            row("submit: proto.reply_encode", "submit/proto.reply_encode", 0),
            row(
                "submit: client.reply_decode",
                "submit/client.reply_decode",
                0,
            ),
            row(
                "status: client.request_encode",
                "status/client.request_encode",
                0,
            ),
            row("status: transport floor", SMALL_FLOOR, 0),
            row(
                "status: proto.request_decode",
                "status/proto.request_decode",
                0,
            ),
            row("status: core.dispatch", "status/core.dispatch", 0),
            row("exec.engine_status", "status/exec.engine_status", 1),
            row("status: proto.reply_encode", "status/proto.reply_encode", 0),
            row(
                "status: client.reply_decode",
                "status/client.reply_decode",
                0,
            ),
        ],
        Workload::ConnectChurn => {
            // The connect is taken from the traced wire pass itself: its
            // server half (accept, thread spawn, chain verification,
            // gridmap) has no public function to replay it through, so it
            // stays inside the two waits.
            let mut rows = vec![
                row("client.connect (traced, on the wire)", "client.connect", 0),
                row("client.tcp_connect", "client.tcp_connect", 1),
                row("gsi.client_hello", "gsi.client_hello", 1),
                row("wire.wait_hello", "wire.wait_hello", 1),
                row("gsi.client_finish", "gsi.client_finish", 1),
                row("wire.wait_ack", "wire.wait_ack", 1),
            ];
            rows.extend(info_rows(&HIT, SMALL_FLOOR));
            rows
        }
    };
    fill_self_times(&mut rows);
    rows
}

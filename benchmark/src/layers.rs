//! Per-layer measurements: a layer's public function, called from
//! outside with the inputs the wire run generated.
//!
//! Two kinds of measurement, both recorded as spans:
//!
//! * **Chains** replay one request shape through each stage it crosses on
//!   the wire — client encode, frame write/read, request decode,
//!   `core.dispatch` (with the stages dispatch calls re-run right after
//!   it as its children), reply encode, outbox, client decode and parse.
//! * **Probes** time one function that is not a stage of its own but
//!   explains one (WAL commit, GSI handshake, a counter increment, …) or
//!   bounds one from below (a bare transport echo with no service behind).
//!
//! A traced run calls only the chain and the probes of its own workload
//! (see `budget::measure_layers`).
//!
//! The replay dispatchers are built over fresh engines — an in-memory
//! log for information shapes, a file log for job shapes, exactly what
//! the wire services use — and over the *running* service's information
//! half, so cache state is the wire run's.

use crate::gen::JOB_RSL;
use crate::trace::{SpanBuf, SpanId};
use crate::workloads::InfoPlan;
use crate::world::{World, ACCOUNT};
use infogram_core::InfoGramDispatcher;
use infogram_exec::backend::ForkBackend;
use infogram_exec::gram::{ConnCtx, RequestDispatcher};
use infogram_exec::wal::{FileWal, Wal, WalEvent};
use infogram_exec::{EngineConfig, JobEngine};
use infogram_gsi::{
    wire_client_finish, wire_client_hello, wire_server_respond, wire_server_verify,
};
use infogram_info::provider::FnProvider;
use infogram_info::service::QueryOptions;
use infogram_info::{DegradationFn, SystemInformation};
use infogram_obs::MetricSet;
use infogram_proto::frame::{read_frame, write_frame};
use infogram_proto::handle::JobHandle;
use infogram_proto::message::{JobStateCode, Reply, Request};
use infogram_proto::render::{self, ldif, xml};
use infogram_proto::transport::mem::MemNetwork;
use infogram_proto::transport::tcp::TcpTransport;
use infogram_proto::transport::{Conn, ProtoError, Transport};
use infogram_proto::Outbox;
use infogram_rsl::{OutputFormat, XrslRequest};
use infogram_sim::{SimTime, SplitMix64};
use std::io::Cursor;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Calls per span for nanosecond-scale functions, so two timer reads
/// (~50 ns) stay under 2% of what they bracket.
const BATCH: u32 = 64;

/// A connection that accepts every frame and never yields one.
struct NullConn;

impl Conn for NullConn {
    fn send(&self, _msg: &[u8]) -> Result<(), ProtoError> {
        Ok(())
    }
    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        Err(ProtoError::Closed)
    }
    fn peer(&self) -> String {
        "null".to_string()
    }
}

/// Time `calls` back-to-back calls of `f` as one span, `n` times.
fn probe(buf: &mut SpanBuf, stage: &'static str, n: usize, calls: u32, mut f: impl FnMut()) {
    buf.reserve(stage, n);
    for i in 0..n {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        buf.span_scaled(stage, 0, i as u32, t0, Instant::now(), calls);
    }
}

/// The owner string the gatekeeper would hand dispatch for the benchmark
/// user.
fn owner(world: &World) -> String {
    world.user.base_identity().to_string()
}

fn fresh_engine(world: &World, wal: Wal) -> Arc<JobEngine> {
    JobEngine::new(
        EngineConfig {
            service_name: "infogram".to_string(),
            hostname: "127.0.0.1".to_string(),
            port: 0,
        },
        world.clock.clone(),
        wal,
        ForkBackend::new(Arc::clone(world.service.registry())),
        MetricSet::new(),
    )
}

/// Stage names of one information chain, so each shape's spans stay apart.
pub struct InfoStages {
    /// `QueryBuilder::to_rsl` + `Request::encode`.
    pub encode: &'static str,
    /// `write_frame` of the request.
    pub frame_write: &'static str,
    /// `read_frame` of the request.
    pub frame_read: &'static str,
    /// `Request::decode`.
    pub decode: &'static str,
    /// `InfoGramDispatcher::dispatch`.
    pub dispatch: &'static str,
    /// `XrslRequest::from_text`.
    pub parse: &'static str,
    /// `JobEngine::log_info_query` (the §7 query log, `Wal::record`).
    pub query_log: &'static str,
    /// `InformationService::answer`.
    pub answer: &'static str,
    /// `render::render`.
    pub render: &'static str,
    /// `Reply::encode`.
    pub reply_encode: &'static str,
    /// `Outbox::send` over a null connection.
    pub outbox: &'static str,
    /// `Reply::decode` on the client.
    pub reply_decode: &'static str,
    /// `ldif::parse` on the client.
    pub reply_parse: &'static str,
}

macro_rules! info_stages {
    ($shape:literal) => {
        InfoStages {
            encode: concat!($shape, "/client.request_encode"),
            frame_write: concat!($shape, "/proto.frame_write"),
            frame_read: concat!($shape, "/proto.frame_read"),
            decode: concat!($shape, "/proto.request_decode"),
            dispatch: concat!($shape, "/core.dispatch"),
            parse: concat!($shape, "/rsl.parse"),
            query_log: concat!($shape, "/exec.wal_record"),
            answer: concat!($shape, "/info.answer"),
            render: concat!($shape, "/proto.render"),
            reply_encode: concat!($shape, "/proto.reply_encode"),
            outbox: concat!($shape, "/proto.outbox_send"),
            reply_decode: concat!($shape, "/client.reply_decode"),
            reply_parse: concat!($shape, "/client.reply_parse"),
        }
    };
}

/// Stage names of the `info_hit` chain.
pub const HIT: InfoStages = info_stages!("hit");
/// Stage names of the `info_wide` chain.
pub const WIDE: InfoStages = info_stages!("wide");
/// Stage names of the `info_refresh` chain.
pub const REFRESH: InfoStages = info_stages!("refresh");

/// What a chain learned about its shape's frames.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameSizes {
    /// Largest encoded request, bytes.
    pub request: usize,
    /// Largest encoded reply, bytes.
    pub reply: usize,
}

/// Replay `n` requests of an information shape through every stage.
pub fn info_chain(
    buf: &mut SpanBuf,
    world: &World,
    plan: &InfoPlan,
    seq: &[u8],
    n: usize,
    st: &InfoStages,
) -> FrameSizes {
    let engine = fresh_engine(world, Wal::in_memory());
    let info = Arc::clone(world.service.info_service());
    let dispatcher = InfoGramDispatcher::new(Arc::clone(&engine), Arc::clone(&info));
    let outbox = Outbox::new(Arc::new(NullConn), 256);
    let owner = owner(world);
    let mut ctx = ConnCtx::detached();
    let mut wire = Vec::with_capacity(64 * 1024);
    let mut sizes = FrameSizes::default();
    for stage in [
        st.encode,
        st.frame_write,
        st.frame_read,
        st.decode,
        st.dispatch,
        st.parse,
        st.query_log,
        st.answer,
        st.render,
        st.reply_encode,
        st.outbox,
        st.reply_decode,
        st.reply_parse,
    ] {
        buf.reserve(stage, n);
    }
    for i in 0..n {
        let req = i as u32;
        let q = &plan.queries[seq[i % seq.len()] as usize];

        let t0 = Instant::now();
        let rsl = q.builder.to_rsl();
        let bytes = Request::Submit {
            rsl,
            callback: false,
        }
        .encode();
        let t1 = Instant::now();
        buf.span(st.encode, 0, req, t0, t1);
        sizes.request = sizes.request.max(bytes.len());

        wire.clear();
        let t0 = Instant::now();
        write_frame(&mut wire, &bytes).expect("frame fits");
        let t1 = Instant::now();
        let framed = read_frame(&mut Cursor::new(&wire)).expect("frame reads back");
        let t2 = Instant::now();
        buf.span(st.frame_write, 0, req, t0, t1);
        buf.span(st.frame_read, 0, req, t1, t2);

        let t0 = Instant::now();
        let request = Request::decode(&framed).expect("request decodes");
        let t1 = Instant::now();
        buf.span(st.decode, 0, req, t0, t1);
        let Request::Submit { rsl, .. } = &request else {
            unreachable!("chain requests are submits");
        };
        let rsl = rsl.clone();

        let t0 = Instant::now();
        let reply = dispatcher.dispatch(&owner, ACCOUNT, request, &mut ctx);
        let t1 = Instant::now();
        let root: SpanId = buf.span(st.dispatch, 0, req, t0, t1);

        // Dispatch's own callees, re-run with the same input right after
        // it: logically its children, timed outside its interval.
        let t0 = Instant::now();
        let parsed = XrslRequest::from_text(&rsl).expect("generated xRSL parses");
        let t1 = Instant::now();
        let keywords = q
            .selectors
            .iter()
            .map(|s| match s {
                infogram_rsl::InfoSelector::Keyword(k) => k.as_str(),
                _ => "all",
            })
            .collect::<Vec<_>>()
            .join(",");
        let t1b = Instant::now();
        engine.log_info_query(&owner, ACCOUNT, &keywords);
        let t2 = Instant::now();
        let opts = QueryOptions {
            mode: parsed.response,
            ..Default::default()
        };
        let records = info.answer(&parsed.info, &opts).expect("replay answers");
        let t3 = Instant::now();
        let body = render::render(&records, parsed.format);
        let t4 = Instant::now();
        std::hint::black_box(&body);
        buf.span(st.parse, root, req, t0, t1);
        buf.span(st.query_log, root, req, t1b, t2);
        buf.span(st.answer, root, req, t2, t3);
        buf.span(st.render, root, req, t3, t4);

        let t0 = Instant::now();
        let frame = reply.encode();
        let t1 = Instant::now();
        buf.span(st.reply_encode, 0, req, t0, t1);
        sizes.reply = sizes.reply.max(frame.len());

        let t0 = Instant::now();
        let decoded = Reply::decode(&frame).expect("reply decodes");
        let t1 = Instant::now();
        let Reply::InfoResult { body, record_count } = decoded else {
            panic!("replayed query was refused: {decoded:?}");
        };
        let parsed = ldif::parse(&body);
        let t2 = Instant::now();
        assert_eq!(parsed.len(), record_count as usize);
        buf.span(st.reply_decode, 0, req, t0, t1);
        buf.span(st.reply_parse, 0, req, t1, t2);

        // Last, because the outbox takes the frame.
        let t0 = Instant::now();
        outbox.send(frame).expect("null connection accepts");
        let t1 = Instant::now();
        buf.span(st.outbox, 0, req, t0, t1);
    }
    sizes
}

/// Replay `n` job iterations — submit, then (after the jobs' 1 ms has
/// passed) the first status poll of each — through every stage, on a
/// file log under `dir`. Returns the submit exchange's frame sizes.
pub fn job_chain(buf: &mut SpanBuf, world: &World, dir: &Path, n: usize) -> FrameSizes {
    let open = |name: &str| {
        Wal::new(Box::new(
            FileWal::open(dir.join(name)).expect("scratch WAL opens"),
        ))
    };
    let engine = fresh_engine(world, open("replay-dispatch"));
    let info = Arc::clone(world.service.info_service());
    let dispatcher = InfoGramDispatcher::new(Arc::clone(&engine), info);
    // The engine-level children run on an engine of their own, so their
    // jobs and log records do not ride on the dispatcher's.
    let child_engine = fresh_engine(world, open("replay-engine"));
    let owner = owner(world);
    let mut ctx = ConnCtx::detached();
    let mut handles: Vec<JobHandle> = Vec::with_capacity(n);
    let mut child_ids: Vec<u64> = Vec::with_capacity(n);
    let mut sizes = FrameSizes::default();

    for i in 0..n {
        let req = i as u32;
        let t0 = Instant::now();
        let bytes = Request::Submit {
            rsl: JOB_RSL.to_string(),
            callback: false,
        }
        .encode();
        let t1 = Instant::now();
        let request = Request::decode(&bytes).expect("request decodes");
        let t2 = Instant::now();
        let reply = dispatcher.dispatch(&owner, ACCOUNT, request, &mut ctx);
        let t3 = Instant::now();
        let frame = reply.encode();
        let t4 = Instant::now();
        let decoded = Reply::decode(&frame).expect("reply decodes");
        let t5 = Instant::now();
        buf.span("submit/client.request_encode", 0, req, t0, t1);
        buf.span("submit/proto.request_decode", 0, req, t1, t2);
        let root = buf.span("submit/core.dispatch", 0, req, t2, t3);
        buf.span("submit/proto.reply_encode", 0, req, t3, t4);
        buf.span("submit/client.reply_decode", 0, req, t4, t5);
        let Reply::JobAccepted { handle } = decoded else {
            panic!("replayed submit was refused: {decoded:?}");
        };
        handles.push(handle);
        sizes.request = sizes.request.max(bytes.len());
        sizes.reply = sizes.reply.max(frame.len());

        let t0 = Instant::now();
        let parsed = XrslRequest::parse_all(JOB_RSL).expect("job xRSL parses");
        let t1 = Instant::now();
        let spec = parsed[0].job.clone().expect("job request");
        let handle = child_engine
            .submit(JOB_RSL, spec, &owner, ACCOUNT)
            .expect("scratch WAL accepts");
        let t2 = Instant::now();
        buf.span("submit/rsl.parse", root, req, t0, t1);
        buf.span("submit/exec.engine_submit", root, req, t1, t2);
        child_ids.push(handle.job_id);
    }

    // Every job has had its millisecond; each poll below is the first
    // one, which finds the job finished and commits its terminal record.
    std::thread::sleep(Duration::from_millis(5));
    for (i, handle) in handles.into_iter().enumerate() {
        let req = i as u32;
        let t0 = Instant::now();
        let bytes = Request::Status { handle }.encode();
        let t1 = Instant::now();
        let request = Request::decode(&bytes).expect("request decodes");
        let t2 = Instant::now();
        let reply = dispatcher.dispatch(&owner, ACCOUNT, request, &mut ctx);
        let t3 = Instant::now();
        let frame = reply.encode();
        let t4 = Instant::now();
        let decoded = Reply::decode(&frame).expect("reply decodes");
        let t5 = Instant::now();
        buf.span("status/client.request_encode", 0, req, t0, t1);
        buf.span("status/proto.request_decode", 0, req, t1, t2);
        let root = buf.span("status/core.dispatch", 0, req, t2, t3);
        buf.span("status/proto.reply_encode", 0, req, t3, t4);
        buf.span("status/client.reply_decode", 0, req, t4, t5);
        assert!(
            matches!(
                decoded,
                Reply::JobStatus {
                    state: JobStateCode::Done,
                    ..
                }
            ),
            "replayed job not DONE: {decoded:?}"
        );
        let t0 = Instant::now();
        let view = child_engine.status(child_ids[i]);
        let t1 = Instant::now();
        buf.span("status/exec.engine_status", root, req, t0, t1);
        assert_eq!(view.map(|v| v.state), Some(JobStateCode::Done));
    }
    sizes
}

/// Bare transport echo: `pairs` concurrent connections, each to a peer
/// that answers every `request`-sized frame with a `reply`-sized one, no
/// service behind it — the floor under any request of that shape on that
/// transport, under the same load model as the wire run (with a single
/// pair the cores idle between frames and wake-up latency would be
/// measured instead).
pub fn echo_rtt(
    buf: &mut SpanBuf,
    stage: &'static str,
    transport: &dyn Transport,
    addr: &str,
    sizes: FrameSizes,
    pairs: usize,
    n: usize,
) {
    let listener = transport.listen(addr).expect("echo listener binds");
    let bound = listener.local_addr();
    let reply = vec![0x5a_u8; sizes.reply];
    let request = vec![0xa5_u8; sizes.request];
    let epoch = buf.epoch();
    let start = std::sync::Barrier::new(pairs);
    let bufs: Vec<SpanBuf> = std::thread::scope(|scope| {
        // Accept one connection at a time, so each client knows its peer
        // is up before the next connects.
        let clients: Vec<_> = (0..pairs)
            .map(|c| {
                let conn = transport.connect(&bound).expect("echo client connects");
                let peer = listener.accept().expect("echo peer accepts");
                let reply = &reply;
                scope.spawn(move || {
                    while peer.recv().is_ok() {
                        if peer.send(reply).is_err() {
                            break;
                        }
                    }
                });
                (c, conn)
            })
            .collect();
        let handles: Vec<_> = clients
            .into_iter()
            .map(|(c, conn)| {
                let (request, reply_len, start) = (&request, reply.len(), &start);
                scope.spawn(move || {
                    let mut mine = SpanBuf::new(epoch);
                    mine.reserve(stage, n);
                    // Warm the path (first sends grow socket buffers).
                    for _ in 0..n.min(200) {
                        conn.send(request).expect("echo send");
                        conn.recv().expect("echo recv");
                    }
                    start.wait();
                    for i in 0..n {
                        let t0 = Instant::now();
                        conn.send(request).expect("echo send");
                        let got = conn.recv().expect("echo recv");
                        let t1 = Instant::now();
                        assert_eq!(got.len(), reply_len);
                        mine.span(stage, 0, ((c as u32) << 28) + i as u32, t0, t1);
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("echo client panicked"))
            .collect()
    });
    for b in bufs {
        buf.absorb(b);
    }
}

/// client + gsi: a whole authenticated connection, then the handshake's
/// CPU with no socket in between, and the gridmap.
pub fn connect_probes(buf: &mut SpanBuf, world: &World) {
    probe(buf, "probe/client.connect", 400, 1, || {
        drop(world.connect().expect("probe connects"));
    });
    let now = world.clock.now();
    let mut rng = SplitMix64::new(0x6a7e);
    probe(buf, "gsi.handshake", 5_000, 1, || {
        let (hello, nonce) = wire_client_hello(&world.user, &mut rng);
        let (resp, pending) =
            wire_server_respond(&world.service_cred, &world.roots, &hello, now, &mut rng)
                .expect("server accepts hello");
        let (fin, _) = wire_client_finish(&world.user, &world.roots, &resp, nonce, now)
            .expect("client accepts response");
        wire_server_verify(&pending, &fin).expect("server verifies proof");
    });
    let dn = world.user.base_identity();
    probe(buf, "gsi.authorize", 2_000, BATCH, || {
        std::hint::black_box(
            world
                .authorizer
                .authorize(&dn, "infogram", now)
                .expect("benchmark user is mapped"),
        );
    });
}

/// proto + client: the wide reply rendered and parsed as XML.
pub fn xml_probes(buf: &mut SpanBuf, world: &World, wide_plan: &InfoPlan) {
    let wide = &wide_plan.queries[0];
    let records = world
        .service
        .info_service()
        .answer(&wide.selectors, &wide_plan.check_opts)
        .expect("wide answer");
    probe(buf, "wide/proto.render_xml", 300, 1, || {
        std::hint::black_box(render::render(&records, OutputFormat::Xml));
    });
    let frame = Reply::InfoResult {
        body: render::render(&records, OutputFormat::Xml),
        record_count: records.len() as u32,
    }
    .encode();
    probe(buf, "wide/client.reply_parse_xml", 300, 1, || {
        let Ok(Reply::InfoResult { body, .. }) = Reply::decode(&frame) else {
            panic!("xml reply decodes");
        };
        assert_eq!(xml::parse(&body).len(), records.len());
    });
}

/// info + host: the refresh path below `answer`.
pub fn refresh_probes(buf: &mut SpanBuf, world: &World) {
    let si = SystemInformation::new(
        Box::new(FnProvider::new("Zero", || {
            Ok(vec![
                ("a".to_string(), "1".to_string()),
                ("b".to_string(), "2".to_string()),
                ("c".to_string(), "3".to_string()),
            ])
        })),
        world.clock.clone(),
        Duration::from_secs(600),
        DegradationFn::default(),
    );
    probe(buf, "info.update_state", 20_000, 1, || {
        si.update_state().expect("zero-cost provider");
    });
    let commands: Vec<String> = crate::gen::REFRESH_KEYWORDS
        .iter()
        .map(|k| {
            world
                .service
                .info_service()
                .lookup(k)
                .expect("Table 1 keyword")
                .source()
        })
        .collect();
    let registry = world.service.registry();
    let mut k = 0usize;
    probe(buf, "host.command_exec", 20_000, 1, || {
        registry
            .execute(&commands[k % commands.len()])
            .expect("built-in command");
        k += 1;
    });
}

/// exec: a durable commit on a file log under `dir`.
pub fn wal_commit_probe(buf: &mut SpanBuf, world: &World, dir: &Path) {
    let durable = Wal::new(Box::new(
        FileWal::open(dir.join("probe-commit")).expect("scratch WAL opens"),
    ));
    let mut job_id = 0u64;
    let who = owner(world);
    probe(buf, "exec.wal_commit", 1_000, 1, || {
        job_id += 1;
        durable
            .commit(
                SimTime::ZERO,
                &[
                    WalEvent::Submitted {
                        job_id,
                        rsl: JOB_RSL.to_string(),
                        owner: who.clone(),
                        account: ACCOUNT.to_string(),
                    },
                    WalEvent::StateChanged {
                        job_id,
                        state: JobStateCode::Active,
                    },
                ],
            )
            .expect("scratch WAL commits");
    });
}

/// exec + obs + sim: what every dispatched information request pays for
/// the query log and for telemetry.
pub fn bookkeeping_probes(buf: &mut SpanBuf, world: &World) {
    let relaxed = Wal::in_memory();
    let event = WalEvent::InfoQueried {
        owner: owner(world),
        account: ACCOUNT.to_string(),
        keywords: "Memory".to_string(),
    };
    probe(buf, "exec.wal_record", 2_000, BATCH, || {
        relaxed.record(SimTime::ZERO, &event);
    });

    let metrics = MetricSet::new();
    let counter = metrics.counter("probe.counter");
    let histogram = metrics.histogram("probe.histogram");
    let d = Duration::from_micros(27);
    probe(buf, "obs.record", 2_000, BATCH, || {
        counter.incr();
        histogram.record(d);
    });
    probe(buf, "sim.clock_now", 2_000, BATCH, || {
        std::hint::black_box(world.clock.now());
    });
}

/// [`echo_rtt`] over loopback TCP: the floor under the wire run's
/// exchanges of these sizes.
pub fn tcp_floor(
    buf: &mut SpanBuf,
    stage: &'static str,
    sizes: FrameSizes,
    pairs: usize,
    n: usize,
) {
    echo_rtt(
        buf,
        stage,
        &TcpTransport::new(),
        "127.0.0.1:0",
        sizes,
        pairs,
        n,
    );
}

/// [`echo_rtt`] over the in-memory network: what is left of the floor
/// without the kernel (thread hand-off).
pub fn mem_floor(buf: &mut SpanBuf, sizes: FrameSizes, pairs: usize) {
    let mem = MemNetwork::ideal();
    echo_rtt(
        buf,
        "proto.mem_echo_rtt",
        &mem,
        "echo.bench:0",
        sizes,
        pairs,
        20_000,
    );
}

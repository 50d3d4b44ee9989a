//! The client side of the five workloads.
//!
//! The untraced clients use the program's own [`InfoGramClient`], the
//! library a user would call. The traced clients are built by hand from
//! the same public pieces (`Transport::connect`, the `gsi` wire
//! functions, `Request::encode`, `Conn::send`/`recv`, `Reply::decode`,
//! `ldif::parse`) so a span can be put around each step.

use crate::gen::{
    draws, wide_keyword, Digest, JOB_RSL, REFRESH_KEYWORDS, TTL_KEYWORDS, WIDE_KEYWORDS,
};
use crate::load::Op;
use crate::trace::SpanBuf;
use crate::world::World;
use infogram_client::{InfoGramClient, QueryBuilder};
use infogram_gsi::{wire_client_finish, wire_client_hello};
use infogram_info::service::QueryOptions;
use infogram_proto::handle::JobHandle;
use infogram_proto::message::{JobStateCode, Reply, Request};
use infogram_proto::record::InfoRecord;
use infogram_proto::render::ldif;
use infogram_proto::transport::{Conn, Transport};
use infogram_rsl::{InfoSelector, ResponseMode};
use infogram_sim::SplitMix64;
use std::collections::VecDeque;
use std::time::Instant;

/// How many iterations behind its submit a job's status is polled.
pub const STATUS_LAG: usize = 64;

/// The five workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cached single-keyword queries.
    InfoHit,
    /// One cached sixteen-keyword query.
    InfoWide,
    /// `(response=immediate)` queries: every one executes its provider.
    InfoRefresh,
    /// Submit to durable ack, then poll an older job to DONE.
    JobSubmit,
    /// Connect + handshake + one cached query + hang up.
    ConnectChurn,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::InfoHit,
        Workload::InfoWide,
        Workload::InfoRefresh,
        Workload::JobSubmit,
        Workload::ConnectChurn,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InfoHit => "info_hit",
            Workload::InfoWide => "info_wide",
            Workload::InfoRefresh => "info_refresh",
            Workload::JobSubmit => "job_submit",
            Workload::ConnectChurn => "connect_churn",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Latency samples one client stores per second of a timed phase:
    /// sizes the pre-touched sample buffers, so `peak_rss_mb` does not
    /// depend on how fast a run went. About twice the seed's rate; a build
    /// that outruns it is still driven and counted at full speed, its
    /// percentiles then come from the first this-many operations of every
    /// slice second and the run says so.
    pub fn samples_per_client_second(self) -> usize {
        match self {
            Workload::InfoHit | Workload::InfoRefresh => 64_000,
            Workload::InfoWide => 8_000,
            Workload::JobSubmit | Workload::ConnectChurn => 12_000,
        }
    }
}

/// One query shape a client may send, with what a correct reply looks like.
#[derive(Debug, Clone)]
pub struct InfoQuery {
    /// The client-side builder.
    pub builder: QueryBuilder,
    /// The same selectors, for the in-process answer.
    pub selectors: Vec<InfoSelector>,
    /// Records a correct reply carries.
    pub record_count: u32,
    /// Name of the first attribute of the first record.
    pub first_attr: String,
}

/// The query shapes of one information workload.
#[derive(Debug, Clone)]
pub struct InfoPlan {
    /// The shapes a client draws from.
    pub queries: Vec<InfoQuery>,
    /// Options for the in-process answer of the deep check (never
    /// executes a provider).
    pub check_opts: QueryOptions,
    /// Whether the deep check compares values too (cached replies) or
    /// attribute names only (refreshed values differ by design).
    pub compare_values: bool,
}

impl InfoPlan {
    /// Build the plan for an information workload (or the single cached
    /// `(info=Memory)` of `connect_churn`) and learn from the primed
    /// service what a correct reply looks like.
    pub fn build(workload: Workload, world: &World) -> InfoPlan {
        let builders: Vec<(QueryBuilder, Vec<String>)> = match workload {
            Workload::InfoHit => TTL_KEYWORDS
                .iter()
                .map(|k| (QueryBuilder::new().keyword(k), vec![k.to_string()]))
                .collect(),
            Workload::InfoRefresh => REFRESH_KEYWORDS
                .iter()
                .map(|k| {
                    (
                        QueryBuilder::new()
                            .keyword(k)
                            .response(ResponseMode::Immediate),
                        vec![k.to_string()],
                    )
                })
                .collect(),
            Workload::InfoWide => {
                let names: Vec<String> = (0..WIDE_KEYWORDS).map(wide_keyword).collect();
                let b = names.iter().fold(QueryBuilder::new(), |b, k| b.keyword(k));
                vec![(b, names)]
            }
            Workload::ConnectChurn | Workload::JobSubmit => {
                vec![(
                    QueryBuilder::new().keyword("Memory"),
                    vec!["Memory".to_string()],
                )]
            }
        };
        let refresh = workload == Workload::InfoRefresh;
        let check_opts = QueryOptions {
            mode: if refresh {
                ResponseMode::Last
            } else {
                ResponseMode::Cached
            },
            ..Default::default()
        };
        let queries = builders
            .into_iter()
            .map(|(builder, names)| {
                let selectors: Vec<InfoSelector> =
                    names.into_iter().map(InfoSelector::Keyword).collect();
                let records = world
                    .service
                    .info_service()
                    .answer(&selectors, &check_opts)
                    .expect("primed service answers every planned query");
                InfoQuery {
                    builder,
                    record_count: records.len() as u32,
                    first_attr: records[0].attributes[0].name.clone(),
                    selectors,
                }
            })
            .collect();
        InfoPlan {
            queries,
            check_opts,
            compare_values: !refresh,
        }
    }

    /// Fold the request texts into the run's digest.
    pub fn digest(&self, d: &mut Digest) {
        for q in &self.queries {
            d.update_str(&q.builder.to_rsl());
        }
    }

    fn shallow_ok(&self, idx: usize, record_count: u32, records: &[InfoRecord]) -> bool {
        let q = &self.queries[idx];
        record_count == q.record_count
            && records.len() == q.record_count as usize
            && records[0]
                .attributes
                .first()
                .is_some_and(|a| a.name == q.first_attr)
    }

    fn deep_ok(&self, world: &World, idx: usize, records: &[InfoRecord]) -> bool {
        let q = &self.queries[idx];
        let Ok(expected) = world
            .service
            .info_service()
            .answer(&q.selectors, &self.check_opts)
        else {
            return false;
        };
        expected.len() == records.len()
            && expected.iter().zip(records).all(|(e, r)| {
                e.keyword == r.keyword
                    && e.attributes.len() == r.attributes.len()
                    && e.attributes.iter().zip(&r.attributes).all(|(a, b)| {
                        a.name == b.name && (!self.compare_values || a.value == b.value)
                    })
            })
    }
}

/// One client's keyword sequence: `n` draws over the plan's shapes.
pub fn sequence(plan: &InfoPlan, seed: u64, n: usize) -> Vec<u8> {
    draws(seed, plan.queries.len() as u8, n)
}

// ---------------------------------------------------------------------------
// Untraced clients: the program's own client library
// ---------------------------------------------------------------------------

/// `info_hit`, `info_wide`, `info_refresh`: one query per operation.
pub struct InfoOp<'w> {
    world: &'w World,
    plan: &'w InfoPlan,
    client: InfoGramClient,
    seq: &'w [u8],
    last: (usize, Vec<InfoRecord>),
    sent: u64,
}

impl<'w> InfoOp<'w> {
    /// A client over an established connection.
    pub fn new(
        world: &'w World,
        plan: &'w InfoPlan,
        client: InfoGramClient,
        seq: &'w [u8],
    ) -> Self {
        InfoOp {
            world,
            plan,
            client,
            seq,
            last: (0, Vec::new()),
            sent: 0,
        }
    }
}

impl Op for InfoOp<'_> {
    fn run(&mut self, i: usize) -> bool {
        let idx = self.seq[i % self.seq.len()] as usize;
        self.sent += 1;
        match self.client.query(&self.plan.queries[idx].builder) {
            Ok(res) => {
                let ok = self.plan.shallow_ok(idx, res.record_count, &res.records);
                self.last = (idx, res.records);
                ok
            }
            Err(_) => false,
        }
    }

    fn deep_check(&mut self) -> bool {
        self.plan.deep_ok(self.world, self.last.0, &self.last.1)
    }

    fn requests_sent(&self) -> u64 {
        self.sent
    }
}

/// `job_submit`: submit, then poll the job submitted [`STATUS_LAG`]
/// iterations earlier, which by then has run its 1 ms and is driven to
/// DONE (and to its terminal WAL commit) by that poll.
pub struct JobOp {
    client: InfoGramClient,
    ring: VecDeque<JobHandle>,
    /// Ids of every job the service acknowledged.
    pub acked: Vec<u64>,
    /// Submit latency of operation `i`, ns (0 if it failed).
    pub submit_ns: Vec<u32>,
    /// Status latency of operation `i`, ns (0 while the ring fills).
    pub status_ns: Vec<u32>,
    sent: u64,
}

impl JobOp {
    /// A client over an established connection, with room for `cap`
    /// operations' worth of records.
    pub fn new(client: InfoGramClient, cap: usize) -> Self {
        JobOp {
            client,
            ring: VecDeque::with_capacity(STATUS_LAG + 1),
            acked: Vec::with_capacity(cap),
            submit_ns: Vec::with_capacity(cap),
            status_ns: Vec::with_capacity(cap),
            sent: 0,
        }
    }
}

impl Op for JobOp {
    fn run(&mut self, _i: usize) -> bool {
        let t0 = Instant::now();
        self.sent += 1;
        let handle = match self.client.submit(JOB_RSL, false) {
            Ok(h) => h,
            Err(_) => {
                self.submit_ns.push(0);
                self.status_ns.push(0);
                return false;
            }
        };
        let t1 = Instant::now();
        self.submit_ns.push((t1 - t0).as_nanos() as u32);
        self.acked.push(handle.job_id);
        self.ring.push_back(handle);
        if self.ring.len() <= STATUS_LAG {
            self.status_ns.push(0);
            return true;
        }
        let old = self.ring.pop_front().expect("ring is non-empty");
        self.sent += 1;
        let polled = self.client.status(&old);
        self.status_ns.push(t1.elapsed().as_nanos() as u32);
        matches!(polled, Ok((JobStateCode::Done, Some(0), _)))
    }

    fn requests_sent(&self) -> u64 {
        self.sent
    }
}

/// `connect_churn`: a fresh authenticated connection per operation.
pub struct ChurnOp<'w> {
    world: &'w World,
    plan: &'w InfoPlan,
    sent: u64,
}

impl<'w> ChurnOp<'w> {
    /// A client that connects once per operation.
    pub fn new(world: &'w World, plan: &'w InfoPlan) -> Self {
        ChurnOp {
            world,
            plan,
            sent: 0,
        }
    }
}

impl Op for ChurnOp<'_> {
    fn run(&mut self, _i: usize) -> bool {
        let Ok(mut client) = self.world.connect() else {
            return false;
        };
        self.sent += 1;
        match client.query(&self.plan.queries[0].builder) {
            Ok(res) => self.plan.shallow_ok(0, res.record_count, &res.records),
            Err(_) => false,
        }
    }

    fn requests_sent(&self) -> u64 {
        self.sent
    }
}

// ---------------------------------------------------------------------------
// Traced clients: built by hand from the public pieces
// ---------------------------------------------------------------------------

/// An authenticated connection assembled from the public pieces.
pub struct RawConn {
    conn: Box<dyn Conn>,
}

impl RawConn {
    /// TCP connect, 3-message GSI handshake, authorization ack — one span
    /// per step under a `client.connect` root when `trace` is given.
    pub fn connect(
        world: &World,
        mut trace: Option<(&mut SpanBuf, u32)>,
    ) -> Result<RawConn, String> {
        let t0 = Instant::now();
        let conn = world
            .transport
            .connect(world.service.addr())
            .map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let now = world.clock.now();
        let mut rng = SplitMix64::new(now.as_nanos() ^ 0x6772_616d);
        let (hello, nonce) = wire_client_hello(&world.user, &mut rng);
        let t2 = Instant::now();
        conn.send(&hello).map_err(|e| e.to_string())?;
        let resp = conn.recv().map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let (fin, _ctx) = wire_client_finish(&world.user, &world.roots, &resp, nonce, now)
            .map_err(|e| e.to_string())?;
        let t4 = Instant::now();
        conn.send(&fin).map_err(|e| e.to_string())?;
        let ack = conn.recv().map_err(|e| e.to_string())?;
        let t5 = Instant::now();
        if !matches!(Reply::decode(&ack), Ok(Reply::Pong)) {
            return Err("authorization refused".to_string());
        }
        if let Some((buf, req)) = trace.as_mut() {
            let root = buf.span("client.connect", 0, *req, t0, t5);
            buf.span("client.tcp_connect", root, *req, t0, t1);
            buf.span("gsi.client_hello", root, *req, t1, t2);
            buf.span("wire.wait_hello", root, *req, t2, t3);
            buf.span("gsi.client_finish", root, *req, t3, t4);
            buf.span("wire.wait_ack", root, *req, t4, t5);
        }
        Ok(RawConn { conn })
    }

    /// Send one encoded request and wait for the reply frame.
    pub fn round_trip(&self, request: &[u8]) -> Result<Vec<u8>, String> {
        self.conn.send(request).map_err(|e| e.to_string())?;
        self.conn.recv().map_err(|e| e.to_string())
    }

    /// One traced information query: `client.encode → wire.wait →
    /// client.decode → client.parse` under a `client.request` root.
    fn traced_query(
        &self,
        plan: &InfoPlan,
        idx: usize,
        buf: &mut SpanBuf,
        req: u32,
        parent: u32,
    ) -> Option<Vec<InfoRecord>> {
        let t0 = Instant::now();
        let bytes = Request::Submit {
            rsl: plan.queries[idx].builder.to_rsl(),
            callback: false,
        }
        .encode();
        let t1 = Instant::now();
        let frame = self.round_trip(&bytes).ok()?;
        let t2 = Instant::now();
        let reply = Reply::decode(&frame).ok()?;
        let t3 = Instant::now();
        let Reply::InfoResult { body, record_count } = reply else {
            return None;
        };
        let records = ldif::parse(&body);
        let t4 = Instant::now();
        let root = buf.span("client.request", parent, req, t0, t4);
        buf.span("client.encode", root, req, t0, t1);
        buf.span("wire.wait", root, req, t1, t2);
        buf.span("client.decode", root, req, t2, t3);
        buf.span("client.parse", root, req, t3, t4);
        plan.shallow_ok(idx, record_count, &records)
            .then_some(records)
    }
}

/// Request numbers of client `c` start here, so spans of different
/// clients never share a number.
fn request_base(client: usize) -> u32 {
    (client as u32) << 28
}

/// Traced twin of [`InfoOp`].
pub struct TracedInfoOp<'w> {
    world: &'w World,
    plan: &'w InfoPlan,
    conn: RawConn,
    seq: &'w [u8],
    last: (usize, Vec<InfoRecord>),
    base: u32,
    sent: u64,
    /// The spans this client recorded.
    pub buf: SpanBuf,
}

impl<'w> TracedInfoOp<'w> {
    /// Connect client number `client`.
    pub fn connect(
        world: &'w World,
        plan: &'w InfoPlan,
        client: usize,
        seq: &'w [u8],
        epoch: Instant,
    ) -> Result<Self, String> {
        Ok(TracedInfoOp {
            world,
            plan,
            conn: RawConn::connect(world, None)?,
            seq,
            last: (0, Vec::new()),
            base: request_base(client),
            sent: 0,
            buf: SpanBuf::new(epoch),
        })
    }
}

impl Op for TracedInfoOp<'_> {
    fn run(&mut self, i: usize) -> bool {
        let idx = self.seq[i % self.seq.len()] as usize;
        self.sent += 1;
        match self
            .conn
            .traced_query(self.plan, idx, &mut self.buf, self.base + i as u32, 0)
        {
            Some(records) => {
                self.last = (idx, records);
                true
            }
            None => false,
        }
    }

    fn deep_check(&mut self) -> bool {
        self.plan.deep_ok(self.world, self.last.0, &self.last.1)
    }

    fn requests_sent(&self) -> u64 {
        self.sent
    }
}

/// Traced twin of [`JobOp`].
pub struct TracedJobOp {
    conn: RawConn,
    ring: VecDeque<JobHandle>,
    base: u32,
    sent: u64,
    /// The spans this client recorded.
    pub buf: SpanBuf,
}

impl TracedJobOp {
    /// Connect client number `client`.
    pub fn connect(world: &World, client: usize, epoch: Instant) -> Result<Self, String> {
        Ok(TracedJobOp {
            conn: RawConn::connect(world, None)?,
            ring: VecDeque::with_capacity(STATUS_LAG + 1),
            base: request_base(client),
            sent: 0,
            buf: SpanBuf::new(epoch),
        })
    }

    /// One request/reply with a timestamp at each step: before encode,
    /// after encode, after the reply frame arrived, after decode.
    fn exchange(&self, request: &Request) -> Option<(Reply, [Instant; 4])> {
        let t0 = Instant::now();
        let bytes = request.encode();
        let t1 = Instant::now();
        let frame = self.conn.round_trip(&bytes).ok()?;
        let t2 = Instant::now();
        let reply = Reply::decode(&frame).ok()?;
        Some((reply, [t0, t1, t2, Instant::now()]))
    }

    fn record(&mut self, root: u32, req: u32, stages: [&'static str; 3], t: [Instant; 4]) {
        for (k, stage) in stages.into_iter().enumerate() {
            self.buf.span(stage, root, req, t[k], t[k + 1]);
        }
    }
}

impl Op for TracedJobOp {
    fn run(&mut self, i: usize) -> bool {
        const SUBMIT: [&str; 3] = [
            "client.encode_submit",
            "wire.wait_submit",
            "client.decode_submit",
        ];
        const STATUS: [&str; 3] = [
            "client.encode_status",
            "wire.wait_status",
            "client.decode_status",
        ];
        let req = self.base + i as u32;
        self.sent += 1;
        let submit = Request::Submit {
            rsl: JOB_RSL.to_string(),
            callback: false,
        };
        let Some((Reply::JobAccepted { handle }, ts)) = self.exchange(&submit) else {
            return false;
        };
        self.ring.push_back(handle);
        if self.ring.len() <= STATUS_LAG {
            let root = self.buf.span("client.request", 0, req, ts[0], ts[3]);
            self.record(root, req, SUBMIT, ts);
            return true;
        }
        let old = self.ring.pop_front().expect("ring is non-empty");
        self.sent += 1;
        let Some((polled, tp)) = self.exchange(&Request::Status { handle: old }) else {
            return false;
        };
        let root = self.buf.span("client.request", 0, req, ts[0], tp[3]);
        self.record(root, req, SUBMIT, ts);
        self.record(root, req, STATUS, tp);
        matches!(
            polled,
            Reply::JobStatus {
                state: JobStateCode::Done,
                exit_code: Some(0),
                ..
            }
        )
    }

    fn requests_sent(&self) -> u64 {
        self.sent
    }
}

/// Traced twin of [`ChurnOp`].
pub struct TracedChurnOp<'w> {
    world: &'w World,
    plan: &'w InfoPlan,
    base: u32,
    sent: u64,
    /// The spans this client recorded.
    pub buf: SpanBuf,
}

impl<'w> TracedChurnOp<'w> {
    /// Client number `client`; connects once per operation.
    pub fn new(world: &'w World, plan: &'w InfoPlan, client: usize, epoch: Instant) -> Self {
        TracedChurnOp {
            world,
            plan,
            base: request_base(client),
            sent: 0,
            buf: SpanBuf::new(epoch),
        }
    }
}

impl Op for TracedChurnOp<'_> {
    fn run(&mut self, i: usize) -> bool {
        let req = self.base + i as u32;
        let t0 = Instant::now();
        let Ok(conn) = RawConn::connect(self.world, Some((&mut self.buf, req))) else {
            return false;
        };
        self.sent += 1;
        let ok = conn
            .traced_query(self.plan, 0, &mut self.buf, req, 0)
            .is_some();
        drop(conn);
        self.buf.span("client.op", 0, req, t0, Instant::now());
        ok
    }

    fn requests_sent(&self) -> u64 {
        self.sent
    }
}

//! The wire-facing GRAM server: gatekeeper + per-connection service loop.
//!
//! §2 of the paper: "the gatekeeper is responsible for authentication
//! with the client, performing a simple authorization based on mapping
//! the authentication information into a local security context (e.g., a
//! Unix login). After this initial security check, it starts up a job
//! manager that interacts thereafter with the client."
//!
//! This server is the **baseline** of Figure 2: it serves job requests
//! only. An `(info=...)` query is answered with
//! [`codes::UNSUPPORTED`] — in the baseline world the client must open a
//! second connection, to a second service, speaking a second protocol
//! (the MDS, in `infogram-mds`). InfoGram (in `infogram-core`) removes
//! exactly this refusal.

use crate::engine::{JobEngine, SubmitError};
use crate::wal::Wal;
use infogram_gsi::{wire_server_respond, wire_server_verify, Authorizer, Certificate, Credential};
use infogram_proto::message::{codes, JobStateCode, Reply, Request};
use infogram_proto::transport::{Acceptor, Conn, ProtoError, Transport};
use infogram_proto::{JobHandle, Outbox};
use infogram_rsl::{RequestKind, XrslRequest};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::{Counter, Gauge};
use infogram_sim::SplitMix64;
use parking_lot::{lock_class, Mutex};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many frames a connection's outbox buffers before a push
/// subscriber is declared a slow consumer and evicted.
pub const DEFAULT_OUTBOX_CAPACITY: usize = 256;

/// Per-connection dispatch state, owned by the connection's service loop
/// and threaded through every [`RequestDispatcher::dispatch`] call.
///
/// It carries the four things a reply path may need beyond the request
/// itself: the connection's bounded [`Outbox`] (absent for *detached*
/// dispatch — the WS gateway and unit tests — where unsolicited pushes
/// have nowhere to go), the job-callback map the event watcher consults,
/// the push-subscription ids registered over this connection so the
/// dispatcher can drop them from the hub at teardown, and its account's
/// information-query counter.
pub struct ConnCtx {
    outbox: Option<Arc<Outbox>>,
    job_subs: Arc<Mutex<HashMap<u64, JobStateCode>>>,
    /// Taken from the log by the connection's first information query.
    info_queries: Option<Arc<AtomicU64>>,
    /// Push-subscription ids (`(action=subscribe)`) registered over this
    /// connection, in registration order.
    pub sub_ids: Vec<u64>,
}

impl ConnCtx {
    /// A context bound to a live connection's outbox.
    pub fn new(outbox: Arc<Outbox>) -> Self {
        ConnCtx {
            outbox: Some(outbox),
            ..Self::detached()
        }
    }

    /// A context with no push channel: `(action=subscribe)` must be
    /// refused, job callbacks are recorded but never delivered. Used by
    /// the WS gateway (request/response only) and by tests.
    pub fn detached() -> Self {
        ConnCtx {
            outbox: None,
            // Held across the outbox send in the job-event watcher so
            // Events reach the wire in transition order — one of the two
            // allowed holds at the `proto.outbox.send` blocking point
            // (DESIGN §13).
            job_subs: Arc::new(Mutex::with_class(
                HashMap::new(),
                lock_class!("exec.gram.job_subs"),
            )),
            info_queries: None,
            sub_ids: Vec::new(),
        }
    }

    /// Count one information query for the accounting report. The
    /// connection's first query takes `account`'s counter from the log
    /// (under `exec.wal.io`; a connection is authorized once, so its
    /// account never changes); every later one is a relaxed add on that
    /// handle — no lock, no allocation, nothing written.
    pub fn count_info_query(&mut self, wal: &Wal, account: &str) {
        self.info_queries
            .get_or_insert_with(|| wal.info_query_counter(account))
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The connection's outbox, if this context can push unsolicited
    /// frames.
    pub fn outbox(&self) -> Option<&Arc<Outbox>> {
        self.outbox.as_ref()
    }

    /// Register a job for state-change callbacks over this connection.
    pub fn subscribe_job(&self, job_id: u64) {
        self.job_subs.lock().insert(job_id, JobStateCode::Pending);
    }

    /// The job-callback map shared with the connection's event watcher.
    pub fn job_subs(&self) -> Arc<Mutex<HashMap<u64, JobStateCode>>> {
        Arc::clone(&self.job_subs)
    }
}

/// A running GRAM (or GRAM-shaped) server.
pub struct GramServer {
    engine: Arc<JobEngine>,
    acceptor: Acceptor,
}

impl std::fmt::Debug for GramServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GramServer")
            .field("addr", &self.addr())
            .finish_non_exhaustive()
    }
}

/// How a server answers one already-authorized request. The GRAM baseline
/// and the InfoGram service share the gatekeeper and differ only here.
pub trait RequestDispatcher: Send + Sync + 'static {
    /// Answer one request from an authenticated `(owner, account)` pair.
    /// `ctx` is the per-connection state: job-callback registration and
    /// (when the transport supports pushes) the connection's outbox for
    /// `(action=subscribe)` streams.
    fn dispatch(&self, owner: &str, account: &str, request: Request, ctx: &mut ConnCtx) -> Reply;

    /// Called exactly once when a connection's request loop exits, with
    /// the same `ctx` every `dispatch` on that connection saw. Default:
    /// nothing to clean up.
    fn connection_closed(&self, _ctx: &mut ConnCtx) {}
}

/// The baseline dispatcher: jobs only, info refused.
pub struct JobsOnlyDispatcher {
    engine: Arc<JobEngine>,
}

impl JobsOnlyDispatcher {
    /// Wrap an engine.
    pub fn new(engine: Arc<JobEngine>) -> Arc<Self> {
        Arc::new(JobsOnlyDispatcher { engine })
    }
}

/// The one xRSL parse of a `Submit`: the typed request, or the reply
/// that refuses the text. Both dispatchers route on the result.
pub fn parse_submit(rsl: &str) -> Result<XrslRequest, Reply> {
    let parsed = XrslRequest::parse_one(rsl).map_err(|e| Reply::Error {
        code: codes::BAD_RSL,
        message: e.to_string(),
    })?;
    // DUROC multi-requests are not supported, exactly as the paper
    // states for J-GRAM.
    parsed.ok_or_else(|| Reply::Error {
        code: codes::UNSUPPORTED,
        message: "multi-request (+) submission is not supported (no DUROC)".to_string(),
    })
}

/// Submit a parsed request of kind [`RequestKind::Job`]; `rsl` is its
/// source text, kept for the job log.
pub fn submit_job(
    engine: &JobEngine,
    owner: &str,
    account: &str,
    rsl: &str,
    req: XrslRequest,
    callback: bool,
    ctx: &mut ConnCtx,
) -> Reply {
    // lint:allow(unwrap) — kind() returns Job only when the job spec is present
    let spec = req.job.expect("kind Job implies job");
    match engine.submit(rsl, spec, owner, account) {
        Ok(handle) => {
            if callback {
                ctx.subscribe_job(handle.job_id);
            }
            Reply::JobAccepted { handle }
        }
        // WAL degraded: honest read-only refusal with a machine-readable
        // retry hint (PR 5 taxonomy), never a silent ack of a submission
        // the log could not make durable.
        Err(e @ SubmitError::WalUnavailable { .. }) => Reply::Error {
            code: codes::UNAVAILABLE,
            message: e.to_string(),
        },
        Err(e) => Reply::Error {
            code: codes::EXECUTION_FAILED,
            message: e.to_string(),
        },
    }
}

/// The refusal of a request of kind [`RequestKind::Both`].
pub fn ambiguous_request() -> Reply {
    Reply::Error {
        code: codes::AMBIGUOUS_REQUEST,
        message: "specification mixes (executable=) and (info=)".to_string(),
    }
}

/// Answer a `Status` poll.
pub fn job_status(engine: &JobEngine, owner: &str, account: &str, handle: JobHandle) -> Reply {
    // An unknown job is not refused here: it falls through to NO_SUCH_JOB.
    if engine.may_contact(handle.job_id, owner, account) == Some(false) {
        return Reply::Error {
            code: codes::AUTHORIZATION,
            message: format!("job {} belongs to another identity", handle.job_id),
        };
    }
    match engine.status(handle.job_id) {
        Some(view) if view.timeout_exceeded => Reply::Error {
            code: codes::TIMEOUT_EXCEPTION,
            message: format!(
                "job {} exceeded its timeout (action=exception); it continues to run",
                handle.job_id
            ),
        },
        Some(view) => Reply::JobStatus {
            handle,
            state: view.state,
            exit_code: view.exit_code,
            output: view.output,
        },
        None => Reply::Error {
            code: codes::NO_SUCH_JOB,
            message: format!("no job {}", handle.job_id),
        },
    }
}

/// Answer a `Cancel`.
pub fn job_cancel(engine: &JobEngine, owner: &str, account: &str, handle: JobHandle) -> Reply {
    if engine.may_contact(handle.job_id, owner, account) == Some(false) {
        Reply::Error {
            code: codes::AUTHORIZATION,
            message: format!("job {} belongs to another identity", handle.job_id),
        }
    } else if engine.cancel(handle.job_id) {
        Reply::JobStatus {
            handle,
            state: JobStateCode::Canceled,
            exit_code: None,
            output: String::new(),
        }
    } else {
        Reply::Error {
            code: codes::NO_SUCH_JOB,
            message: format!("no cancellable job {}", handle.job_id),
        }
    }
}

impl RequestDispatcher for JobsOnlyDispatcher {
    fn dispatch(&self, owner: &str, account: &str, request: Request, ctx: &mut ConnCtx) -> Reply {
        let engine = &*self.engine;
        match request {
            Request::Submit { rsl, callback } => match parse_submit(&rsl) {
                Err(refusal) => refusal,
                Ok(req) => match req.kind() {
                    RequestKind::Job => {
                        submit_job(engine, owner, account, &rsl, req, callback, ctx)
                    }
                    RequestKind::Both => ambiguous_request(),
                    RequestKind::Info | RequestKind::Empty => Reply::Error {
                        code: codes::UNSUPPORTED,
                        message:
                            "this GRAM serves job requests only; query the MDS for information"
                                .to_string(),
                    },
                },
            },
            Request::Status { handle } => job_status(engine, owner, account, handle),
            Request::Cancel { handle } => job_cancel(engine, owner, account, handle),
            Request::Ping => Reply::Pong,
        }
    }
}

/// What every connection thread of a [`GramServer`] shares; the
/// connection-layer instruments are resolved once, at start.
struct Gatekeeper {
    engine: Arc<JobEngine>,
    dispatcher: Arc<dyn RequestDispatcher>,
    credential: Credential,
    trust_roots: Vec<Certificate>,
    authorizer: Arc<Authorizer>,
    clock: SharedClock,
    connections: Arc<Counter>,
    active: Arc<Gauge>,
    auth_failures: Arc<Counter>,
    requests: Arc<Counter>,
}

impl GramServer {
    /// Start a server: bind, spawn the accept loop, serve until
    /// [`GramServer::shutdown`].
    #[allow(clippy::too_many_arguments)]
    pub fn start(
        engine: Arc<JobEngine>,
        dispatcher: Arc<dyn RequestDispatcher>,
        transport: &dyn Transport,
        bind_addr: &str,
        credential: Credential,
        trust_roots: Vec<Certificate>,
        authorizer: Arc<Authorizer>,
        clock: SharedClock,
    ) -> Result<Arc<Self>, ProtoError> {
        let telemetry = engine.metrics();
        let gatekeeper = Gatekeeper {
            connections: telemetry.counter("gram.connections"),
            active: telemetry.gauge("gram.connections.active"),
            auth_failures: telemetry.counter("gram.auth_failures"),
            requests: telemetry.counter("gram.requests"),
            engine: Arc::clone(&engine),
            dispatcher,
            credential,
            trust_roots,
            authorizer,
            clock,
        };
        let acceptor = Acceptor::start(transport, bind_addr, move |conn| {
            gatekeeper.serve_connection(conn)
        })?;
        Ok(Arc::new(GramServer { engine, acceptor }))
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> &str {
        self.acceptor.addr()
    }

    /// The engine behind this server.
    pub fn engine(&self) -> &Arc<JobEngine> {
        &self.engine
    }

    /// Stop accepting and unblock the accept loop.
    pub fn shutdown(&self) {
        self.acceptor.shutdown();
    }
}

impl Gatekeeper {
    /// Count an authentication/authorization failure and tell the peer.
    fn refuse(&self, conn: &dyn Conn, code: u32, message: String) {
        self.auth_failures.incr();
        let _ = conn.send(&Reply::Error { code, message }.encode());
    }

    fn serve_connection(&self, conn: Arc<dyn Conn>) {
        self.connections.incr();
        self.active.add(1.0);
        // Balance the active-connections gauge on every exit path.
        struct ActiveGuard<'a>(&'a Gauge);
        impl Drop for ActiveGuard<'_> {
            fn drop(&mut self) {
                self.0.add(-1.0);
            }
        }
        let _active = ActiveGuard(&self.active);

        // ---- gatekeeper: 3-message mutual authentication ----
        let now = self.clock.now();
        let mut rng = SplitMix64::new(now.as_nanos() ^ 0x6a7e_5eed);
        let Ok(hello) = conn.recv() else { return };
        let (resp, pending) =
            match wire_server_respond(&self.credential, &self.trust_roots, &hello, now, &mut rng) {
                Ok(x) => x,
                Err(e) => return self.refuse(&*conn, codes::AUTHENTICATION, e.to_string()),
            };
        if conn.send(&resp).is_err() {
            return;
        }
        let Ok(fin) = conn.recv() else { return };
        let ctx = match wire_server_verify(&pending, &fin) {
            Ok(ctx) => ctx,
            Err(e) => return self.refuse(&*conn, codes::AUTHENTICATION, e.to_string()),
        };

        // ---- authorization: gridmap (+ contracts) ----
        let resource = self.engine.config().service_name.clone();
        let decision = match self.authorizer.authorize(&ctx.peer, &resource, now) {
            Ok(d) => d,
            Err(e) => return self.refuse(&*conn, codes::AUTHORIZATION, e.to_string()),
        };
        let _ = conn.send(&Reply::Pong.encode()); // authorization ack
        let owner = decision.grid_identity.to_string();
        let account = decision.local_account;

        // ---- per-connection push state: outbox + dispatch context ----
        // All frames the server originates after authorization — replies,
        // job Events, subscription Updates — flow through one bounded
        // outbox so they interleave in FIFO order on the wire and a stuck
        // peer surfaces as backpressure instead of an unbounded buffer.
        let outbox = Outbox::new(Arc::clone(&conn), DEFAULT_OUTBOX_CAPACITY);
        let mut ctx = ConnCtx::new(Arc::clone(&outbox));

        // ---- event callbacks: watcher pushing Events over this conn ----
        let watcher_id = {
            let subscriptions = ctx.job_subs();
            let event_outbox = Arc::clone(&outbox);
            self.engine.on_state_change(move |handle, state| {
                // `job_subs` stays held across the send on purpose:
                // dropping it first would let two racing transitions
                // deliver their Events out of order. The outbox is
                // bounded and fail-fast, so the hold is short — this is
                // the `exec.gram.job_subs` exception at the
                // `proto.outbox.send` blocking point (DESIGN §13).
                let mut subs = subscriptions.lock();
                if let Some(last) = subs.get_mut(&handle.job_id) {
                    if *last != state {
                        *last = state;
                        let _ = event_outbox.send(Reply::Event { handle, state }.encode());
                    }
                }
            })
        };

        // ---- request loop (ends when the client hangs up) ----
        while let Ok(bytes) = conn.recv() {
            self.requests.incr();
            let reply = match Request::decode(&bytes) {
                Ok(request) => self
                    .dispatcher
                    .dispatch(&owner, &account, request, &mut ctx),
                Err(e) => Reply::Error {
                    code: codes::BAD_RSL,
                    message: e.to_string(),
                },
            };
            if outbox.send(reply.encode()).is_err() {
                break;
            }
        }
        self.engine.remove_watcher(watcher_id);
        self.dispatcher.connection_closed(&mut ctx);
        outbox.close();
    }
}

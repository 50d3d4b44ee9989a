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
use infogram_gsi::{accept, Authorizer, Certificate, Credential, HandshakeError};
use infogram_proto::message::{codes, JobStateCode, Reply, Request};
use infogram_proto::transport::{Acceptor, Conn, Listener, HANDSHAKE_DEADLINE};
use infogram_proto::{JobHandle, Outbox};
use infogram_rsl::{RequestKind, XrslRequest};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::{Counter, Gauge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How many frames a connection's outbox buffers before a push
/// subscriber is declared a slow consumer and evicted.
pub const DEFAULT_OUTBOX_CAPACITY: usize = 256;

/// Per-connection dispatch state, owned by the connection's service loop
/// and threaded through every [`RequestDispatcher::dispatch`] call.
///
/// It carries the three things a reply path may need beyond the request
/// itself: the connection's bounded [`Outbox`] (absent for *detached*
/// dispatch — in-process callers and unit tests — where unsolicited
/// pushes have nowhere to go), which a `callback=true` submission hands
/// to the engine for the job's Events; the push-subscription ids
/// registered over this connection so the dispatcher can drop them from
/// the hub at teardown; and its account's information-query counter.
#[derive(Default)]
pub struct ConnCtx {
    outbox: Option<Arc<Outbox>>,
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
    /// refused, and a `callback=true` submission registers no callback at
    /// all. Used by in-process callers that dispatch without a
    /// connection, and by tests.
    pub fn detached() -> Self {
        Self::default()
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
}

/// How a server answers one already-authorized request. The GRAM baseline
/// and the InfoGram service share the gatekeeper and differ only here.
pub trait RequestDispatcher: Send + Sync + 'static {
    /// Answer one request from an authenticated `(owner, account)` pair.
    /// `ctx` is the per-connection state, with (when the transport
    /// supports pushes) the connection's outbox for job Events and
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
    ctx: &ConnCtx,
) -> Reply {
    #[expect(clippy::expect_used, reason = "kind() is Job only with a job spec")]
    let spec = req.job.expect("kind Job implies job");
    let outbox = ctx.outbox().filter(|_| callback);
    match engine.submit_with_callback(rsl, spec, owner, account, outbox) {
        Ok(handle) => Reply::JobAccepted { handle },
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

/// What every connection thread of a GRAM (or GRAM-shaped) server
/// shares; the connection-layer instruments are resolved once, at start.
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
    handshakes: Arc<Counter>,
    requests: Arc<Counter>,
}

/// Serve a GRAM (or GRAM-shaped) gatekeeper on a bound `listener` —
/// bound before the engine is built, so the engine's handles name the
/// port `listener` resolved — until the returned acceptor's
/// [`Acceptor::shutdown`].
pub fn serve(
    engine: Arc<JobEngine>,
    dispatcher: Arc<dyn RequestDispatcher>,
    listener: Box<dyn Listener>,
    credential: Credential,
    trust_roots: Vec<Certificate>,
    authorizer: Arc<Authorizer>,
    clock: SharedClock,
) -> Acceptor {
    let telemetry = engine.metrics();
    let gatekeeper = Gatekeeper {
        connections: telemetry.counter("gram.connections"),
        active: telemetry.gauge("gram.connections.active"),
        auth_failures: telemetry.counter("gram.auth_failures"),
        handshakes: telemetry.counter("gram.handshakes"),
        requests: telemetry.counter("gram.requests"),
        engine,
        dispatcher,
        credential,
        trust_roots,
        authorizer,
        clock,
    };
    Acceptor::serve(listener, move |conn| gatekeeper.serve_connection(conn))
}

impl Gatekeeper {
    /// Count an authentication/authorization failure and tell the peer.
    fn refuse(&self, conn: &dyn Conn, e: HandshakeError) {
        self.auth_failures.incr();
        let code = match e {
            HandshakeError::Unauthorized(_) => codes::AUTHORIZATION,
            _ => codes::AUTHENTICATION,
        };
        let message = e.to_string();
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

        // ---- gatekeeper: mutual authentication, then gridmap (+ contracts) ----
        if conn.set_read_deadline(Some(HANDSHAKE_DEADLINE)).is_err() {
            return;
        }
        // A transport error is `None`: there is nobody left to refuse.
        let send = |m: &[u8]| conn.send(m).map_err(|_| None);
        let recv = || conn.recv().map_err(|_| None);
        let (cred, roots, authz) = (&self.credential, &self.trust_roots, &*self.authorizer);
        let (resource, now) = (&self.engine.config().service_name, self.clock.now());
        let session = match accept(cred, roots, authz, resource, now, send, recv) {
            Ok(session) => session,
            Err(None) => return,
            Err(Some(e)) => return self.refuse(&*conn, e),
        };
        self.handshakes.incr();
        let _ = conn.send(&Reply::Pong.encode()); // authorization ack
        if conn.set_read_deadline(None).is_err() {
            return;
        }
        let (owner, account) = (session.peer.to_string(), session.account);

        // ---- per-connection push state: outbox + dispatch context ----
        // All frames the server originates after authorization — replies,
        // job Events, subscription Updates — flow through one bounded
        // outbox so they interleave in FIFO order on the wire and a stuck
        // peer surfaces as backpressure instead of an unbounded buffer.
        let outbox = Outbox::until(conn.clone(), DEFAULT_OUTBOX_CAPACITY, session.valid_until);
        let mut ctx = ConnCtx::new(Arc::clone(&outbox));

        // ---- request loop (ends when the client hangs up, or at the
        // first request once its authorization has expired: that request
        // is refused, each subscription gets its SubEnd, and the closed
        // outbox ends the connection's job Events) ----
        while let Ok(bytes) = conn.recv() {
            self.requests.incr();
            if self.clock.now() >= session.valid_until {
                let (code, message) = (codes::AUTHORIZATION, codes::EXPIRED.to_string());
                let _ = outbox.push(Reply::Error { code, message }.encode());
                for &id in &ctx.sub_ids {
                    let message = codes::EXPIRED.to_string();
                    let _ = outbox.push(Reply::SubEnd { id, code, message }.encode());
                }
                // Closed at once, so that no update follows a SubEnd.
                outbox.close();
                break;
            }
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
        self.dispatcher.connection_closed(&mut ctx);
        outbox.close();
        let _ = outbox.drain();
    }
}

//! The GRAM-protocol client.
//!
//! Connects, runs the GSI handshake, and then speaks the request/reply
//! protocol. Asynchronous job events (registered with `callback=true` at
//! submit) and subscription frames (`(action=subscribe)`) may arrive
//! interleaved with replies and with each other. One reader takes every
//! frame off the connection and queues each by kind: events for
//! [`GramClient::next_event`] / [`GramClient::wait_event`], subscription
//! frames for [`InfoGramClient`](crate::InfoGramClient), which owns the
//! subscription.

use infogram_gsi::{bind, Certificate, Credential, HandshakeError, SecurityContext};
use infogram_proto::handle::JobHandle;
use infogram_proto::message::{JobStateCode, Reply, Request};
use infogram_proto::transport::{Conn, ProtoError, Transport};
use infogram_sim::clock::SharedClock;
use std::collections::VecDeque;
use std::time::Duration;

/// Why a client operation failed.
#[derive(Debug)]
pub enum ClientError {
    /// Transport-level failure.
    Transport(ProtoError),
    /// Authentication or authorization rejected.
    Denied {
        /// Protocol error code.
        code: u32,
        /// Explanation.
        message: String,
    },
    /// The service answered with an error.
    Server {
        /// Protocol error code.
        code: u32,
        /// Explanation.
        message: String,
    },
    /// Handshake or decode failure.
    Protocol(String),
    /// A wait exceeded its deadline.
    Timeout,
    /// The reply carried only last-known-good (stale) data and the
    /// caller required fresh data.
    Degraded {
        /// True age of the served data in seconds, if reported.
        stale_age_secs: Option<f64>,
    },
    /// The service ended a push subscription — eviction (e.g.
    /// [`codes::SLOW_CONSUMER`](infogram_proto::message::codes)) or a
    /// service-side shutdown.
    SubscriptionEnded {
        /// The subscription the service closed.
        id: u64,
        /// Protocol error code explaining why (0 = clean close).
        code: u32,
        /// Explanation.
        message: String,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport: {e}"),
            ClientError::Denied { code, message } => {
                write!(f, "denied (code {code}): {message}")
            }
            ClientError::Server { code, message } => {
                write!(f, "server error (code {code}): {message}")
            }
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Timeout => write!(f, "timed out"),
            ClientError::Degraded { stale_age_secs } => match stale_age_secs {
                Some(age) => write!(f, "degraded answer: stale data aged {age:.3}s"),
                None => write!(f, "degraded answer: stale data of unknown age"),
            },
            ClientError::SubscriptionEnded { id, code, message } => {
                write!(f, "subscription {id} ended (code {code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> Self {
        ClientError::Transport(e)
    }
}

/// A bind whose handshake failed on this side.
impl From<HandshakeError> for ClientError {
    fn from(e: HandshakeError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// The error for a frame that does not answer what was asked: the
/// service's own error, or a protocol error naming the frame.
pub(crate) fn unexpected(reply: Reply) -> ClientError {
    match reply {
        Reply::Error { code, message } => ClientError::Server { code, message },
        other => ClientError::Protocol(format!("unexpected reply {other:?}")),
    }
}

/// The kinds of frame a session reads, as [`GramClient::read`] sorts them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Want {
    /// The reply to the request in flight: any frame not of the two
    /// kinds below.
    Reply,
    /// A job event (`callback=true`).
    Event,
    /// A subscription frame: an `Update` batch or a `SubEnd`.
    Push,
}

/// A connected, authenticated GRAM-protocol session.
pub struct GramClient {
    conn: Box<dyn Conn>,
    context: SecurityContext,
    clock: SharedClock,
    events: VecDeque<(JobHandle, JobStateCode)>,
    /// Queued subscription frames: `Update` batches and `SubEnd`s.
    pub(crate) pushes: VecDeque<Reply>,
    requests_sent: u64,
}

impl std::fmt::Debug for GramClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GramClient")
            .field("peer", &self.context.peer.to_string())
            .finish_non_exhaustive()
    }
}

impl GramClient {
    /// Connect and authenticate.
    pub fn connect(
        transport: &dyn Transport,
        addr: &str,
        credential: &Credential,
        trust_roots: &[Certificate],
        clock: SharedClock,
    ) -> Result<GramClient, ClientError> {
        let conn = transport.connect(addr)?;
        let send = |m: &[u8]| conn.send(m).map_err(ClientError::from);
        let recv = || conn.recv().map_err(ClientError::from);
        let (ack, context) = bind(credential, trust_roots, addr, clock.now(), send, recv)?;
        // Pong, or an Error in place of the RESP or after the FIN:
        // authentication, gridmap or contract denial.
        match (Reply::decode(&ack), context) {
            (Ok(Reply::Pong), Some(context)) => Ok(GramClient {
                conn,
                context,
                clock,
                events: VecDeque::new(),
                pushes: VecDeque::new(),
                requests_sent: 0,
            }),
            (Ok(Reply::Error { code, message }), _) => Err(ClientError::Denied { code, message }),
            (other, _) => Err(ClientError::Protocol(format!("unexpected ack: {other:?}"))),
        }
    }

    /// The authenticated service identity.
    pub fn context(&self) -> &SecurityContext {
        &self.context
    }

    /// Requests issued on this session.
    pub fn requests_sent(&self) -> u64 {
        self.requests_sent
    }

    /// Issue one request, queueing any events or subscription frames
    /// that arrive before the reply.
    pub fn request(&mut self, request: &Request) -> Result<Reply, ClientError> {
        self.send(request)?;
        self.read(Want::Reply)
    }

    /// Send a request without waiting for its reply.
    pub(crate) fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        self.conn.send(&request.encode())?;
        self.requests_sent += 1;
        Ok(())
    }

    /// The one reader of the connection: the next frame of kind `want`,
    /// taken from its queue if one is waiting there. Every Event and push
    /// frame read on the way is queued by kind, so none is lost to a
    /// caller waiting for another kind. Any other frame answers the
    /// request in flight and is returned whatever `want` is.
    pub(crate) fn read(&mut self, want: Want) -> Result<Reply, ClientError> {
        let queued = match want {
            Want::Reply => None,
            Want::Event => self
                .events
                .pop_front()
                .map(|(handle, state)| Reply::Event { handle, state }),
            Want::Push => self.pushes.pop_front(),
        };
        if let Some(frame) = queued {
            return Ok(frame);
        }
        loop {
            let frame = Reply::decode(&self.conn.recv()?)
                .map_err(|e| ClientError::Protocol(e.to_string()))?;
            let kind = match frame {
                Reply::Event { .. } => Want::Event,
                Reply::Update { .. } | Reply::SubEnd { .. } => Want::Push,
                _ => return Ok(frame),
            };
            if kind == want {
                return Ok(frame);
            }
            match frame {
                Reply::Event { handle, state } => self.events.push_back((handle, state)),
                push => self.pushes.push_back(push),
            }
        }
    }

    /// Submit an xRSL job; `callback=true` subscribes to events.
    pub fn submit(&mut self, rsl: &str, callback: bool) -> Result<JobHandle, ClientError> {
        match self.request(&Request::Submit {
            rsl: rsl.to_string(),
            callback,
        })? {
            Reply::JobAccepted { handle } => Ok(handle),
            other => Err(unexpected(other)),
        }
    }

    /// Poll a job's status.
    pub fn status(
        &mut self,
        handle: &JobHandle,
    ) -> Result<(JobStateCode, Option<i32>, String), ClientError> {
        match self.request(&Request::Status {
            handle: handle.clone(),
        })? {
            Reply::JobStatus {
                state,
                exit_code,
                output,
                ..
            } => Ok((state, exit_code, output)),
            other => Err(unexpected(other)),
        }
    }

    /// Cancel a job.
    pub fn cancel(&mut self, handle: &JobHandle) -> Result<(), ClientError> {
        match self.request(&Request::Cancel {
            handle: handle.clone(),
        })? {
            Reply::JobStatus { .. } => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Poll until the job reaches a terminal state or `deadline` passes.
    pub fn wait_terminal(
        &mut self,
        handle: &JobHandle,
        poll_every: Duration,
        deadline: Duration,
    ) -> Result<(JobStateCode, Option<i32>, String), ClientError> {
        let start = self.clock.now();
        loop {
            let (state, exit, output) = self.status(handle)?;
            if state.is_terminal() {
                return Ok((state, exit, output));
            }
            if self.clock.now().since(start) > deadline {
                return Err(ClientError::Timeout);
            }
            self.clock.sleep(poll_every);
        }
    }

    /// Pop an already-buffered event, if any (non-blocking).
    pub fn next_event(&mut self) -> Option<(JobHandle, JobStateCode)> {
        self.events.pop_front()
    }

    /// Block until an event arrives (callback delivery, §2: "through
    /// event notification to the client through the GRAM Service").
    pub fn wait_event(&mut self) -> Result<(JobHandle, JobStateCode), ClientError> {
        match self.read(Want::Event)? {
            Reply::Event { handle, state } => Ok((handle, state)),
            other => Err(unexpected(other)),
        }
    }

    /// Fault injection: drop the underlying connection so every later
    /// operation fails with a transport error, exactly as a crashed
    /// link would look from this side. The server observes the hangup
    /// through its own `recv` failing. Used by reconnect tests, and by
    /// [`InfoGramClient`](crate::InfoGramClient) to drop a failed session
    /// before it resubscribes.
    pub fn sever(&mut self) {
        struct Severed;
        impl Conn for Severed {
            fn send(&self, _msg: &[u8]) -> Result<(), ProtoError> {
                Err(ProtoError::Closed)
            }
            fn recv(&self) -> Result<Vec<u8>, ProtoError> {
                Err(ProtoError::Closed)
            }
            fn peer(&self) -> String {
                "severed".to_string()
            }
        }
        self.conn = Box::new(Severed);
    }
}

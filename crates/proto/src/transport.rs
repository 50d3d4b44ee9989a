//! Transports: how frames get between client and service.
//!
//! Two implementations of the same [`Transport`] trait:
//!
//! * [`mem::MemNetwork`] — an in-process network of crossbeam channels
//!   with a latency model from `infogram-sim` (links delay messages and
//!   never drop one) and built-in traffic accounting. Deterministic,
//!   fast, used by tests and by the protocol-overhead experiments.
//! * [`tcp::TcpTransport`] — real `std::net` TCP with length-prefixed
//!   frames, used by `tests/tcp_transport.rs` and the e21 benchmark.
//!
//! Both count connections, messages, and bytes into a
//! [`infogram_sim::metrics::MetricSet`], which is how Figures 2–4 get
//! their connection/handshake/byte columns.

use crate::frame::header_len;
use infogram_sim::metrics::{Counter, MetricSet};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

pub mod mem;
pub mod tcp;

/// Transport-level failure.
#[derive(Debug)]
pub enum ProtoError {
    /// The connection or listener is closed.
    Closed,
    /// No service is listening at the address.
    ConnectionRefused(String),
    /// The address string could not be used.
    BadAddress(String),
    /// An OS-level I/O failure.
    Io(String),
    /// A frame exceeded the size limit.
    TooLarge(usize),
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtoError::Closed => write!(f, "connection closed"),
            ProtoError::ConnectionRefused(a) => write!(f, "connection refused: {a}"),
            ProtoError::BadAddress(a) => write!(f, "bad address: {a}"),
            ProtoError::Io(e) => write!(f, "transport I/O error: {e}"),
            ProtoError::TooLarge(n) => write!(f, "message of {n} bytes too large"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e.to_string())
    }
}

/// A bidirectional message connection.
pub trait Conn: Send + Sync {
    /// Send one message. `&self`: connections are internally
    /// synchronized so a request loop and an asynchronous event pusher
    /// can share one connection.
    fn send(&self, msg: &[u8]) -> Result<(), ProtoError>;
    /// Receive the next message, blocking. Only one thread should recv.
    fn recv(&self) -> Result<Vec<u8>, ProtoError>;
    /// A printable peer address.
    fn peer(&self) -> String;
    /// Fail each later `recv` once `deadline` has passed since the
    /// connection was opened (accepted or connected); `None` waits
    /// without end. A transport without timed reads (`MemConn`) ignores
    /// it.
    fn set_read_deadline(&self, _deadline: Option<Duration>) -> Result<(), ProtoError> {
        Ok(())
    }
}

/// A listening endpoint.
pub trait Listener: Send + Sync {
    /// Accept the next incoming connection, blocking.
    fn accept(&self) -> Result<Box<dyn Conn>, ProtoError>;
    /// The bound address (with any `:0` port resolved).
    fn local_addr(&self) -> String;
    /// Unblock pending and future `accept` calls with
    /// [`ProtoError::Closed`].
    fn close(&self);
}

/// A way of listening and connecting.
pub trait Transport: Send + Sync {
    /// Bind a listener. `host:0` picks a fresh port.
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, ProtoError>;
    /// Connect to a listener.
    fn connect(&self, addr: &str) -> Result<Box<dyn Conn>, ProtoError>;
}

/// A transport's traffic counters, resolved once per transport so
/// `connect` and `send` increment through the `Arc`, not by name.
#[derive(Debug)]
struct NetCounters {
    connections: Arc<Counter>,
    messages: Arc<Counter>,
    bytes: Arc<Counter>,
}

impl NetCounters {
    fn intern(metrics: &MetricSet) -> Arc<Self> {
        Arc::new(NetCounters {
            connections: metrics.counter("net.connections"),
            messages: metrics.counter("net.messages"),
            bytes: metrics.counter("net.bytes"),
        })
    }

    /// One message of `payload_len` bytes went out, framed.
    fn sent(&self, payload_len: usize) {
        self.messages.incr();
        self.bytes
            .add((payload_len + header_len(payload_len)) as u64);
    }
}

/// How long the accept loop waits after a failed `accept` before it
/// accepts again: a listener that fails at once, as one out of file
/// descriptors does, must not spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// How long after accepting a connection a server waits for its
/// handshake, from its HELLO to its authorization ack: a peer that
/// connects and sends nothing, stops mid-frame or trickles its bytes is
/// dropped this long after it connected. A TCP write waits as long for a
/// peer that stopped reading.
pub const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// A running server: every one (GRAM gatekeeper, MDS) is an
/// acceptor over its own handler — one bound listener, one joined accept
/// thread, one detached thread per accepted connection running the
/// handler. The connection-layer limits (worker pool, accept queue,
/// deadlines) belong here, once.
pub struct Acceptor {
    addr: String,
    listener: Arc<dyn Listener>,
    accept_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Acceptor {
    /// Bind `bind_addr` on `transport` and serve every accepted
    /// connection with `handler` until [`Acceptor::shutdown`].
    pub fn start(
        transport: &dyn Transport,
        bind_addr: &str,
        handler: impl Fn(Arc<dyn Conn>) + Send + Sync + 'static,
    ) -> Result<Acceptor, ProtoError> {
        Ok(Self::serve(transport.listen(bind_addr)?, handler))
    }

    /// Serve an already bound `listener` — for a server whose state must
    /// know the resolved address (a job handle names the port) before
    /// the first connection is accepted.
    pub fn serve(
        listener: Box<dyn Listener>,
        handler: impl Fn(Arc<dyn Conn>) + Send + Sync + 'static,
    ) -> Acceptor {
        let listener: Arc<dyn Listener> = Arc::from(listener);
        let addr = listener.local_addr();
        let handler = Arc::new(handler);
        let accepting = Arc::clone(&listener);
        // A long-lived accept loop, joined in shutdown: sim::par's scoped
        // join is the wrong shape.
        #[expect(clippy::disallowed_methods, reason = "a long-lived accept loop")]
        let accept_thread = std::thread::spawn(move || loop {
            // `close` is the only stop signal: it makes `accept` return
            // `Closed`. Any other failure is the host's (out of file
            // descriptors, a peer gone before it was accepted) and passes.
            match accepting.accept() {
                Ok(conn) => {
                    let conn: Arc<dyn Conn> = Arc::from(conn);
                    let handler = Arc::clone(&handler);
                    // A connection's thread detaches for its lifetime
                    // (client-paced, no bounded join point).
                    #[expect(clippy::disallowed_methods, reason = "one thread per connection")]
                    std::thread::spawn(move || handler(conn));
                }
                Err(ProtoError::Closed) => break,
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        });
        Acceptor {
            addr,
            listener,
            accept_thread: Mutex::new(Some(accept_thread)),
        }
    }

    /// The bound address (with any `:0` port resolved).
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Stop accepting and join the accept thread. Connections already
    /// accepted keep being served; a second call does nothing.
    pub fn shutdown(&self) {
        let accept_thread = self.accept_thread.lock().take();
        if let Some(t) = accept_thread {
            self.listener.close();
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::mem::MemNetwork;
    use super::tcp::TcpTransport;
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::mpsc;

    fn echo(conn: Arc<dyn Conn>) {
        while let Ok(msg) = conn.recv() {
            if conn.send(&msg).is_err() {
                break;
            }
        }
    }

    /// The acceptor contract, on one transport: an echo server on `:0`.
    fn acceptor_contract(transport: &dyn Transport, bind_addr: &str) {
        let acceptor = Acceptor::start(transport, bind_addr, echo).unwrap();
        // `:0` resolves in `addr()`.
        let addr = acceptor.addr().to_string();
        assert!(!addr.ends_with(":0"), "{addr}");

        let early = transport.connect(&addr).unwrap();
        early.send(b"before").unwrap();
        assert_eq!(early.recv().unwrap(), b"before");

        // The accept thread is back in `accept`; shutdown must unblock
        // and join it (or this call never returns).
        acceptor.shutdown();
        assert!(acceptor.accept_thread.lock().is_none());

        // A connection accepted before shutdown keeps being served.
        early.send(b"after").unwrap();
        assert_eq!(early.recv().unwrap(), b"after");

        // A second shutdown is a no-op.
        acceptor.shutdown();
        early.send(b"still").unwrap();
        assert_eq!(early.recv().unwrap(), b"still");
    }

    #[test]
    fn acceptor_contract_on_mem_network() {
        acceptor_contract(&MemNetwork::ideal(), "svc.grid:0");
    }

    #[test]
    fn acceptor_contract_on_tcp() {
        acceptor_contract(&TcpTransport::new(), "127.0.0.1:0");
    }

    /// A listener whose `accept` fails with `ProtoError::Io`, as one out
    /// of file descriptors does, while `failures` lasts, then delegates.
    struct Failing {
        inner: Box<dyn Listener>,
        failures: AtomicUsize,
        calls: Arc<AtomicUsize>,
        closed: AtomicBool,
    }

    impl Failing {
        fn new(inner: Box<dyn Listener>, failures: usize) -> Self {
            Failing {
                inner,
                failures: AtomicUsize::new(failures),
                calls: Arc::default(),
                closed: AtomicBool::new(false),
            }
        }
    }

    impl Listener for Failing {
        fn accept(&self) -> Result<Box<dyn Conn>, ProtoError> {
            self.calls.fetch_add(1, Ordering::SeqCst);
            if self.closed.load(Ordering::SeqCst) {
                return Err(ProtoError::Closed);
            }
            if self
                .failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok()
            {
                return Err(ProtoError::Io("too many open files".to_string()));
            }
            self.inner.accept()
        }

        fn local_addr(&self) -> String {
            self.inner.local_addr()
        }

        fn close(&self) {
            self.closed.store(true, Ordering::SeqCst);
            self.inner.close();
        }
    }

    /// One failed `accept` used to end the accept loop for good: the
    /// process lived on, and no later connection was ever served.
    fn a_failed_accept_is_not_the_last(transport: &dyn Transport, bind_addr: &str) {
        let listener = Failing::new(transport.listen(bind_addr).unwrap(), 1);
        let acceptor = Acceptor::serve(Box::new(listener), echo);
        let conn = transport.connect(acceptor.addr()).unwrap();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            conn.send(b"after a failure").unwrap();
            let _ = tx.send(conn.recv());
        });
        let echoed = rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(echoed.expect("no echo").unwrap(), b"after a failure");
        acceptor.shutdown();
    }

    #[test]
    fn a_failed_accept_is_not_the_last_on_mem_network() {
        a_failed_accept_is_not_the_last(&MemNetwork::ideal(), "svc.grid:0");
    }

    #[test]
    fn a_failed_accept_is_not_the_last_on_tcp() {
        a_failed_accept_is_not_the_last(&TcpTransport::new(), "127.0.0.1:0");
    }

    #[test]
    fn shutdown_returns_while_accept_keeps_failing() {
        let network = MemNetwork::ideal();
        let listener = Failing::new(network.listen("svc.grid:0").unwrap(), usize::MAX);
        let calls = Arc::clone(&listener.calls);
        let acceptor = Acceptor::serve(Box::new(listener), echo);
        // The loop keeps accepting after each failure, backing off.
        for _ in 0..1000 {
            if calls.load(Ordering::SeqCst) >= 3 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(calls.load(Ordering::SeqCst) >= 3, "the accept loop stopped");
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            acceptor.shutdown();
            let _ = tx.send(());
        });
        rx.recv_timeout(Duration::from_secs(5))
            .expect("shutdown never returned");
    }
}

//! Transports: how frames get between client and service.
//!
//! Two implementations of the same [`Transport`] trait:
//!
//! * [`mem::MemNetwork`] — an in-process network of crossbeam channels
//!   with a latency/loss model from `infogram-sim` and built-in traffic
//!   accounting. Deterministic, fast, used by tests and by the
//!   protocol-overhead experiments.
//! * [`tcp::TcpTransport`] — real `std::net` TCP with length-prefixed
//!   frames, used by the runnable examples.
//!
//! Both count connections, messages, and bytes into a
//! [`infogram_sim::metrics::MetricSet`], which is how Figures 2–4 get
//! their connection/handshake/byte columns.

use crate::frame::FRAME_OVERHEAD;
use infogram_sim::metrics::{Counter, MetricSet};
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;

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

impl From<crate::frame::FrameError> for ProtoError {
    fn from(e: crate::frame::FrameError) -> Self {
        match e {
            crate::frame::FrameError::Closed => ProtoError::Closed,
            crate::frame::FrameError::Io(e) => ProtoError::Io(e.to_string()),
            crate::frame::FrameError::TooLarge(n) => ProtoError::TooLarge(n),
        }
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
        self.bytes.add((payload_len + FRAME_OVERHEAD) as u64);
    }
}

/// The accept loop every server (GRAM gatekeeper, WS gateway, MDS)
/// shares: one bound listener, one joined accept thread, one detached
/// thread per accepted connection running the server's handler. The
/// connection-layer limits (worker pool, accept queue, read deadlines)
/// belong here, once.
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
        let listener: Arc<dyn Listener> = Arc::from(transport.listen(bind_addr)?);
        let addr = listener.local_addr();
        let handler = Arc::new(handler);
        let accepting = Arc::clone(&listener);
        // lint:allow(thread-spawn) — long-lived accept loop; joined in
        // shutdown, so sim::par's scoped join is the wrong shape.
        let accept_thread = std::thread::spawn(move || {
            // `close` is the only stop signal: it fails the pending `accept`.
            while let Ok(conn) = accepting.accept() {
                let conn: Arc<dyn Conn> = Arc::from(conn);
                let handler = Arc::clone(&handler);
                // lint:allow(thread-spawn) — per-connection server thread
                // detaches for the connection's lifetime (client-paced, no
                // bounded join point).
                std::thread::spawn(move || handler(conn));
            }
        });
        Ok(Acceptor {
            addr,
            listener,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
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

    /// The acceptor contract, on one transport: an echo server on `:0`.
    fn acceptor_contract(transport: &dyn Transport, bind_addr: &str) {
        let acceptor = Acceptor::start(transport, bind_addr, |conn| {
            while let Ok(msg) = conn.recv() {
                if conn.send(&msg).is_err() {
                    break;
                }
            }
        })
        .unwrap();
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
}

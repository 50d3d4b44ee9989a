//! Real TCP transport.
//!
//! Length-prefixed frames over `std::net` sockets, so the services can
//! be spoken to from another process. `tests/tcp_transport.rs` and the
//! e21 benchmark run over it; the other experiments use the
//! deterministic in-memory network.

use super::{Conn, Listener, NetCounters, ProtoError, Transport, HANDSHAKE_DEADLINE};
use crate::frame::{read_frame, write_frame};
use infogram_sim::metrics::MetricSet;
use std::io::{IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TCP transport with traffic accounting.
#[derive(Debug)]
pub struct TcpTransport {
    metrics: MetricSet,
    counters: Arc<NetCounters>,
}

impl Default for TcpTransport {
    fn default() -> Self {
        Self::with_metrics(MetricSet::new())
    }
}

impl TcpTransport {
    /// A transport counting traffic into a fresh metric set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A transport counting into the given metric set.
    pub fn with_metrics(metrics: MetricSet) -> Self {
        TcpTransport {
            counters: NetCounters::intern(&metrics),
            metrics,
        }
    }

    /// The metric sink.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }
}

impl Transport for TcpTransport {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, ProtoError> {
        let listener = TcpListener::bind(addr)?;
        Ok(Box::new(TcpListenerWrapper {
            listener,
            counters: Arc::clone(&self.counters),
            closed: AtomicBool::new(false),
        }))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Conn>, ProtoError> {
        let stream = TcpStream::connect(addr).map_err(|e| {
            if e.kind() == std::io::ErrorKind::ConnectionRefused {
                ProtoError::ConnectionRefused(addr.to_string())
            } else {
                e.into()
            }
        })?;
        let conn = TcpConn::new(stream, &self.counters)?;
        self.counters.connections.incr();
        Ok(Box::new(conn))
    }
}

struct TcpListenerWrapper {
    listener: TcpListener,
    counters: Arc<NetCounters>,
    closed: AtomicBool,
}

impl Listener for TcpListenerWrapper {
    fn accept(&self) -> Result<Box<dyn Conn>, ProtoError> {
        loop {
            let accepted = self.listener.accept();
            // After `close`, even a failed OS accept is the stop signal.
            if self.closed.load(Ordering::SeqCst) {
                return Err(ProtoError::Closed);
            }
            let (stream, _peer) = accepted?;
            if let Ok(conn) = TcpConn::new(stream, &self.counters) {
                return Ok(Box::new(conn));
            }
        }
    }

    fn local_addr(&self) -> String {
        self.listener
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string())
    }

    fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        // Self-connect to unblock a pending accept.
        if let Ok(addr) = self.listener.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

struct TcpConn {
    stream: TcpStream,
    counters: Arc<NetCounters>,
    // Serializes frame writes when two threads share the connection.
    write_lock: parking_lot::Mutex<()>,
    /// When the connection was accepted or connected.
    opened: Instant,
    /// When reads stop waiting, if ever.
    deadline: parking_lot::Mutex<Option<Instant>>,
}

impl TcpConn {
    /// A connection over `stream`, whose every write waits at most
    /// [`HANDSHAKE_DEADLINE`] for a peer that stopped reading.
    fn new(stream: TcpStream, counters: &Arc<NetCounters>) -> std::io::Result<Self> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(HANDSHAKE_DEADLINE))?;
        #[expect(clippy::disallowed_methods, reason = "a socket deadline is wall time")]
        let opened = Instant::now();
        Ok(TcpConn {
            stream,
            counters: Arc::clone(counters),
            write_lock: parking_lot::Mutex::new(()),
            opened,
            deadline: parking_lot::Mutex::new(None),
        })
    }
}

/// A stream read or written before a point in time. Each read waits only
/// for what is left until then, so a peer trickling bytes cannot stretch
/// it. A frame's first write (usually its only one) keeps the socket's
/// write timeout, [`HANDSHAKE_DEADLINE`]; a write after a partial one
/// waits only for what is left.
struct Until<'a> {
    stream: &'a TcpStream,
    at: Instant,
    writes: u32,
}

impl Until<'_> {
    /// What is left until `at`; an error once nothing is.
    fn left(&self) -> std::io::Result<Duration> {
        #[expect(clippy::disallowed_methods, reason = "a socket deadline is wall time")]
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        Ok(left)
    }
}

impl Read for Until<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.stream.set_read_timeout(Some(self.left()?))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

impl Write for Until<'_> {
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        if self.writes > 0 {
            self.stream.set_write_timeout(Some(self.left()?))?;
        }
        self.writes += 1;
        let mut stream = self.stream;
        stream.write_vectored(bufs)
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.write_vectored(&[IoSlice::new(buf)])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Conn for TcpConn {
    /// A frame the peer has not taken within [`HANDSHAKE_DEADLINE`] fails,
    /// and shuts the socket down: the frame may be half written, and a
    /// stream cannot resume it. The error closes the outbox that sent it.
    fn send(&self, msg: &[u8]) -> Result<(), ProtoError> {
        let _guard = self.write_lock.lock();
        #[expect(clippy::disallowed_methods, reason = "a socket deadline is wall time")]
        let at = Instant::now() + HANDSHAKE_DEADLINE;
        let stream = &self.stream;
        let mut w = Until {
            stream,
            at,
            writes: 0,
        };
        if let Err(e) = write_frame(&mut w, msg) {
            let _ = stream.shutdown(Shutdown::Both);
            return Err(e);
        }
        if w.writes > 1 {
            // The next frame starts from the whole timeout again.
            stream.set_write_timeout(Some(HANDSHAKE_DEADLINE))?;
        }
        self.counters.sent(msg.len());
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        let deadline = *self.deadline.lock();
        match deadline {
            Some(at) => read_frame(&mut Until {
                stream: &self.stream,
                at,
                writes: 0,
            }),
            None => read_frame(&mut &self.stream),
        }
    }

    fn peer(&self) -> String {
        self.stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string())
    }

    /// The deadline counts from when the connection was opened, so a
    /// server that sets it on accept bounds the whole handshake.
    fn set_read_deadline(&self, deadline: Option<Duration>) -> Result<(), ProtoError> {
        *self.deadline.lock() = deadline.and_then(|d| self.opened.checked_add(d));
        if deadline.is_none() {
            self.stream.set_read_timeout(None)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_echo_roundtrip() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let t = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let msg = conn.recv().unwrap();
            conn.send(&msg).unwrap();
        });
        let client = transport.connect(&addr).unwrap();
        client.send(b"over real tcp").unwrap();
        assert_eq!(client.recv().unwrap(), b"over real tcp");
        t.join().unwrap();
        assert_eq!(transport.metrics().counter_value("net.connections"), 1);
        assert!(transport.metrics().counter_value("net.bytes") > 0);
    }

    #[test]
    fn tcp_connect_refused() {
        let transport = TcpTransport::new();
        // Port 1 is essentially never listening.
        let res = transport.connect("127.0.0.1:1");
        assert!(res.is_err());
    }

    #[test]
    fn tcp_close_unblocks_accept() {
        let transport = TcpTransport::new();
        let listener = std::sync::Arc::new(transport.listen("127.0.0.1:0").unwrap());
        let l2 = std::sync::Arc::clone(&listener);
        let t = std::thread::spawn(move || l2.accept());
        std::thread::sleep(std::time::Duration::from_millis(20));
        listener.close();
        assert!(matches!(t.join().unwrap(), Err(ProtoError::Closed)));
    }

    #[test]
    fn tcp_recv_after_close() {
        let transport = TcpTransport::new();
        let listener = transport.listen("127.0.0.1:0").unwrap();
        let addr = listener.local_addr();
        let t = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            drop(conn);
        });
        let client = transport.connect(&addr).unwrap();
        t.join().unwrap();
        assert!(client.recv().is_err());
    }
}

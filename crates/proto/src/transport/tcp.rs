//! Real TCP transport.
//!
//! Length-prefixed frames over `std::net` sockets, so the services can
//! be spoken to from another process. `tests/tcp_transport.rs` and the
//! e21 benchmark run over it; the other experiments use the
//! deterministic in-memory network.

use super::{Conn, Listener, NetCounters, ProtoError, Transport};
use crate::frame::{read_frame, write_frame};
use infogram_sim::metrics::MetricSet;
use std::io::Read;
use std::net::{TcpListener, TcpStream};
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
        stream.set_nodelay(true)?;
        self.counters.connections.incr();
        Ok(Box::new(TcpConn::new(stream, &self.counters)))
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
            if stream.set_nodelay(true).is_err() {
                continue;
            }
            return Ok(Box::new(TcpConn::new(stream, &self.counters)));
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
    fn new(stream: TcpStream, counters: &Arc<NetCounters>) -> Self {
        #[expect(clippy::disallowed_methods, reason = "a socket deadline is wall time")]
        let opened = Instant::now();
        TcpConn {
            stream,
            counters: Arc::clone(counters),
            write_lock: parking_lot::Mutex::new(()),
            opened,
            deadline: parking_lot::Mutex::new(None),
        }
    }
}

/// A stream read before a point in time: each read waits only for what
/// is left until then, so a peer trickling bytes cannot stretch it.
struct Until<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl Read for Until<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        #[expect(clippy::disallowed_methods, reason = "a socket deadline is wall time")]
        let left = self.at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

impl Conn for TcpConn {
    fn send(&self, msg: &[u8]) -> Result<(), ProtoError> {
        let _guard = self.write_lock.lock();
        let mut w = &self.stream;
        write_frame(&mut w, msg)?;
        self.counters.sent(msg.len());
        Ok(())
    }

    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        let deadline = *self.deadline.lock();
        match deadline {
            Some(at) => read_frame(&mut Until {
                stream: &self.stream,
                at,
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

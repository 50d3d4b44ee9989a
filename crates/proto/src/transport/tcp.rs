//! Real TCP transport.
//!
//! Length-prefixed frames over `std::net` sockets. Used by the runnable
//! examples so the services can actually be spoken to from another
//! process; the experiments use the deterministic in-memory network.

use super::{Conn, Listener, NetCounters, ProtoError, Transport};
use crate::frame::{read_frame, write_frame};
use infogram_sim::metrics::MetricSet;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

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
        let listener = TcpListener::bind(addr).map_err(|e| ProtoError::Io(e.to_string()))?;
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
                ProtoError::Io(e.to_string())
            }
        })?;
        stream
            .set_nodelay(true)
            .map_err(|e| ProtoError::Io(e.to_string()))?;
        self.counters.connections.incr();
        Ok(Box::new(TcpConn {
            stream,
            counters: Arc::clone(&self.counters),
            write_lock: parking_lot::Mutex::new(()),
        }))
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
            let (stream, _peer) = self
                .listener
                .accept()
                .map_err(|e| ProtoError::Io(e.to_string()))?;
            if self.closed.load(Ordering::SeqCst) {
                return Err(ProtoError::Closed);
            }
            if stream.set_nodelay(true).is_err() {
                continue;
            }
            return Ok(Box::new(TcpConn {
                stream,
                counters: Arc::clone(&self.counters),
                write_lock: parking_lot::Mutex::new(()),
            }));
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
        let mut r = &self.stream;
        Ok(read_frame(&mut r)?)
    }

    fn peer(&self) -> String {
        self.stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "?".to_string())
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

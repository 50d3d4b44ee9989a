//! In-memory channel transport with a simulated link.
//!
//! A [`MemNetwork`] is a private universe of named endpoints. Connections
//! are pairs of crossbeam channels; every message is charged a delay (and
//! possibly dropped) by the network's [`Link`] model, and all traffic is
//! counted into a [`MetricSet`] under `net.connections`, `net.messages`,
//! and `net.bytes`.

use super::{Conn, Listener, NetCounters, ProtoError, Transport};
use crate::frame::FRAME_OVERHEAD;
use crossbeam::channel::{unbounded, Receiver, Sender};
use infogram_sim::clock::SharedClock;
use infogram_sim::metrics::MetricSet;
use infogram_sim::net::{Delivery, Link};
use infogram_sim::{SimTime, SystemClock};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU16, Ordering};
use std::sync::Arc;

enum AcceptMsg {
    Conn(MemConn),
    Shutdown,
}

struct NetworkState {
    endpoints: HashMap<String, Sender<AcceptMsg>>,
}

/// An in-process network.
pub struct MemNetwork {
    clock: SharedClock,
    link: Arc<Link>,
    metrics: MetricSet,
    counters: Arc<NetCounters>,
    state: Mutex<NetworkState>,
    next_port: AtomicU16,
}

impl std::fmt::Debug for MemNetwork {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemNetwork").finish_non_exhaustive()
    }
}

impl MemNetwork {
    /// An ideal (zero-latency, lossless) network on a fresh system clock.
    pub fn ideal() -> Arc<Self> {
        Self::new(SystemClock::shared(), Link::ideal(), MetricSet::new())
    }

    /// A network with the given clock, link model, and metric sink.
    pub fn new(clock: SharedClock, link: Link, metrics: MetricSet) -> Arc<Self> {
        Arc::new(MemNetwork {
            clock,
            link: Arc::new(link),
            counters: NetCounters::intern(&metrics),
            metrics,
            state: Mutex::new(NetworkState {
                endpoints: HashMap::new(),
            }),
            next_port: AtomicU16::new(40_000),
        })
    }

    /// The metric sink traffic is counted into.
    pub fn metrics(&self) -> &MetricSet {
        &self.metrics
    }

    /// The link model.
    pub fn link(&self) -> &Arc<Link> {
        &self.link
    }
}

impl Transport for Arc<MemNetwork> {
    fn listen(&self, addr: &str) -> Result<Box<dyn Listener>, ProtoError> {
        let addr = if let Some(host) = addr.strip_suffix(":0") {
            format!("{host}:{}", self.next_port.fetch_add(1, Ordering::Relaxed))
        } else {
            addr.to_string()
        };
        let (tx, rx) = unbounded();
        {
            let mut st = self.state.lock();
            if st.endpoints.contains_key(&addr) {
                return Err(ProtoError::BadAddress(format!("{addr} already bound")));
            }
            st.endpoints.insert(addr.clone(), tx.clone());
        }
        Ok(Box::new(MemListener {
            network: Arc::clone(self),
            addr,
            rx,
            tx,
        }))
    }

    fn connect(&self, addr: &str) -> Result<Box<dyn Conn>, ProtoError> {
        let acceptor = {
            let st = self.state.lock();
            st.endpoints
                .get(addr)
                .cloned()
                .ok_or_else(|| ProtoError::ConnectionRefused(addr.to_string()))?
        };
        let (c2s_tx, c2s_rx) = unbounded();
        let (s2c_tx, s2c_rx) = unbounded();
        let client = MemConn {
            clock: self.clock.clone(),
            link: Arc::clone(&self.link),
            counters: Arc::clone(&self.counters),
            tx: c2s_tx,
            rx: s2c_rx,
            peer: addr.to_string(),
        };
        let server = MemConn {
            clock: self.clock.clone(),
            link: Arc::clone(&self.link),
            counters: Arc::clone(&self.counters),
            tx: s2c_tx,
            rx: c2s_rx,
            peer: "client".to_string(),
        };
        acceptor
            .send(AcceptMsg::Conn(server))
            .map_err(|_| ProtoError::ConnectionRefused(addr.to_string()))?;
        self.counters.connections.incr();
        Ok(Box::new(client))
    }
}

struct MemListener {
    network: Arc<MemNetwork>,
    addr: String,
    rx: Receiver<AcceptMsg>,
    tx: Sender<AcceptMsg>,
}

impl Listener for MemListener {
    fn accept(&self) -> Result<Box<dyn Conn>, ProtoError> {
        match self.rx.recv() {
            Ok(AcceptMsg::Conn(conn)) => Ok(Box::new(conn)),
            Ok(AcceptMsg::Shutdown) | Err(_) => Err(ProtoError::Closed),
        }
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }

    fn close(&self) {
        // Unregister so new connects are refused, then unblock accept.
        self.network.state.lock().endpoints.remove(&self.addr);
        let _ = self.tx.send(AcceptMsg::Shutdown);
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.close();
    }
}

struct MemConn {
    clock: SharedClock,
    link: Arc<Link>,
    counters: Arc<NetCounters>,
    tx: Sender<(SimTime, Vec<u8>)>,
    rx: Receiver<(SimTime, Vec<u8>)>,
    peer: String,
}

impl Conn for MemConn {
    fn send(&self, msg: &[u8]) -> Result<(), ProtoError> {
        match self.link.transmit(msg.len() + FRAME_OVERHEAD) {
            Delivery::After(delay) => {
                let deliver_at = self.clock.now().plus(delay);
                self.counters.sent(msg.len());
                self.tx
                    .send((deliver_at, msg.to_vec()))
                    .map_err(|_| ProtoError::Closed)
            }
            // Loss on a reliable-channel model: the message vanishes, as
            // UDP-style loss would. Request/reply protocols running over a
            // lossy link must apply their own timeouts.
            Delivery::Dropped => Ok(()),
        }
    }

    fn recv(&self) -> Result<Vec<u8>, ProtoError> {
        let (deliver_at, msg) = self.rx.recv().map_err(|_| ProtoError::Closed)?;
        let now = self.clock.now();
        if deliver_at > now {
            self.clock.sleep(deliver_at.since(now));
        }
        Ok(msg)
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn connect_send_recv() {
        let net = MemNetwork::ideal();
        let listener = net.listen("svc.grid:0").unwrap();
        let addr = listener.local_addr();
        let net2 = Arc::clone(&net);
        let server = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            let msg = conn.recv().unwrap();
            conn.send(&[msg.as_slice(), b" back"].concat()).unwrap();
        });
        let client = net2.connect(&addr).unwrap();
        client.send(b"hello").unwrap();
        assert_eq!(client.recv().unwrap(), b"hello back");
        server.join().unwrap();
    }

    #[test]
    fn connect_refused_for_unknown_endpoint() {
        let net = MemNetwork::ideal();
        assert!(matches!(
            net.connect("nobody:1"),
            Err(ProtoError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn port_zero_assigns_unique_ports() {
        let net = MemNetwork::ideal();
        let a = net.listen("h:0").unwrap();
        let b = net.listen("h:0").unwrap();
        assert_ne!(a.local_addr(), b.local_addr());
    }

    #[test]
    fn double_bind_rejected() {
        let net = MemNetwork::ideal();
        let _a = net.listen("svc:7").unwrap();
        assert!(matches!(
            net.listen("svc:7"),
            Err(ProtoError::BadAddress(_))
        ));
    }

    #[test]
    fn close_unblocks_accept_and_refuses_connects() {
        let net = MemNetwork::ideal();
        let listener = Arc::new(net.listen("svc:0").unwrap());
        let addr = listener.local_addr();
        let l2 = Arc::clone(&listener);
        let t = std::thread::spawn(move || l2.accept());
        std::thread::sleep(Duration::from_millis(10));
        listener.close();
        assert!(matches!(t.join().unwrap(), Err(ProtoError::Closed)));
        assert!(matches!(
            net.connect(&addr),
            Err(ProtoError::ConnectionRefused(_))
        ));
    }

    #[test]
    fn traffic_is_metered() {
        let net = MemNetwork::ideal();
        let listener = net.listen("svc:0").unwrap();
        let addr = listener.local_addr();
        let t = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            let _ = c.recv();
        });
        let client = net.connect(&addr).unwrap();
        client.send(&[0u8; 96]).unwrap();
        t.join().unwrap();
        assert_eq!(net.metrics().counter_value("net.connections"), 1);
        assert_eq!(net.metrics().counter_value("net.messages"), 1);
        assert_eq!(
            net.metrics().counter_value("net.bytes"),
            (96 + FRAME_OVERHEAD) as u64
        );
    }

    #[test]
    fn latency_is_charged() {
        let metrics = MetricSet::new();
        let net = MemNetwork::new(
            SystemClock::shared(),
            Link::new(
                infogram_sim::net::LatencyModel::Fixed(Duration::from_millis(20)),
                0.0,
                1,
            ),
            metrics,
        );
        let listener = net.listen("svc:0").unwrap();
        let addr = listener.local_addr();
        let t = std::thread::spawn(move || {
            let c = listener.accept().unwrap();
            c.recv().unwrap();
        });
        let client = net.connect(&addr).unwrap();
        let start = std::time::Instant::now();
        client.send(b"delayed").unwrap();
        t.join().unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(18),
            "recv returned before the link delay: {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn recv_after_peer_drop_errors() {
        let net = MemNetwork::ideal();
        let listener = net.listen("svc:0").unwrap();
        let addr = listener.local_addr();
        let t = std::thread::spawn(move || {
            let conn = listener.accept().unwrap();
            drop(conn);
        });
        let client = net.connect(&addr).unwrap();
        t.join().unwrap();
        assert!(matches!(client.recv(), Err(ProtoError::Closed)));
    }
}

//! Bounded per-connection outboxes for push delivery.
//!
//! A push subscription inverts the protocol's flow: the service writes
//! without being asked. A slow consumer therefore becomes the *server's*
//! problem — frames queue up somewhere, and an unbounded somewhere is a
//! memory-exhaustion bug with 100k subscribers. The [`Outbox`] is the
//! bounded somewhere: a fixed-capacity frame queue in front of the
//! connection, with two hard rules that `tests/model_sub.rs` checks
//! under every interleaving:
//!
//! 1. **`push` never sends and never blocks.** Every push the service
//!    makes — a subscription's update, a job's Event — is queued inside
//!    the critical section that orders it (the hub's state lock, the
//!    engine's jobs lock); if `push` could block on a peer's TCP window,
//!    one slow subscriber would stall that lock for everyone. `push` is
//!    a single atomic capacity-check-and-insert under one lock
//!    acquisition — checking and inserting under *separate*
//!    acquisitions is the seeded bug the model explorer must catch.
//! 2. **Overflow is eviction, not waiting.** A full outbox fails the
//!    push; the subscription layer converts that into a
//!    [`crate::message::codes::SLOW_CONSUMER`] eviction via
//!    [`Outbox::close_with`], which discards the backlog (the consumer
//!    was not reading it anyway) and leaves exactly one final frame —
//!    the `SubEnd` notice — to be flushed.
//!
//! Draining is decoupled from pushing and happens with no lock held
//! ([`drain_all`]): any thread may call [`Outbox::drain`], exactly one
//! at a time wins the `draining` flag, and the winner performs the
//! actual `Conn::send` calls *outside* the state lock — so a pusher
//! whose drain loses returns at once while the winner waits on the peer.

use crate::transport::Conn;
use infogram_sim::SimTime;
use parking_lot::{lock_class, lockdep, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;

/// Why a push or drain failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OutboxError {
    /// The bounded queue is full: the consumer is not keeping up.
    Overflow {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The outbox was closed (evicted subscription or dead connection).
    Closed,
}

impl std::fmt::Display for OutboxError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OutboxError::Overflow { capacity } => {
                write!(f, "outbox overflow: consumer fell {capacity} frames behind")
            }
            OutboxError::Closed => write!(f, "outbox closed"),
        }
    }
}

impl std::error::Error for OutboxError {}

struct OutboxState {
    queue: VecDeque<Vec<u8>>,
    /// Exactly one drainer at a time; the winner sends outside the lock.
    draining: bool,
    closed: bool,
}

/// A bounded frame queue in front of a shared connection.
pub struct Outbox {
    conn: Arc<dyn Conn>,
    capacity: usize,
    /// When the session this outbox serves stops being authorized.
    pub valid_until: SimTime,
    state: Mutex<OutboxState>,
}

impl std::fmt::Debug for Outbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let st = self.state.lock();
        f.debug_struct("Outbox")
            .field("capacity", &self.capacity)
            .field("queued", &st.queue.len())
            .field("closed", &st.closed)
            .finish()
    }
}

impl Outbox {
    /// A bounded outbox over `conn`. `capacity` is the maximum number of
    /// undelivered frames before pushes start failing with
    /// [`OutboxError::Overflow`].
    pub fn new(conn: Arc<dyn Conn>, capacity: usize) -> Arc<Outbox> {
        Outbox::until(conn, capacity, SimTime::MAX)
    }

    /// The outbox of a session authorized until `valid_until`: its
    /// subscriptions end then.
    pub fn until(conn: Arc<dyn Conn>, capacity: usize, valid_until: SimTime) -> Arc<Outbox> {
        Arc::new(Outbox {
            conn,
            capacity: capacity.max(1),
            valid_until,
            state: Mutex::with_class(
                OutboxState {
                    queue: VecDeque::new(),
                    draining: false,
                    closed: false,
                },
                lock_class!("proto.outbox.state"),
            ),
        })
    }

    /// Currently queued (pushed but not yet drained) frames.
    pub fn queued(&self) -> usize {
        self.state.lock().queue.len()
    }

    /// Enqueue one frame. Never sends, never blocks: the capacity check
    /// and the insert happen under a single lock acquisition, so two
    /// concurrent pushes can never conspire to exceed the bound.
    pub fn push(&self, frame: Vec<u8>) -> Result<(), OutboxError> {
        let mut st = self.state.lock();
        if st.closed {
            return Err(OutboxError::Closed);
        }
        if st.queue.len() >= self.capacity {
            return Err(OutboxError::Overflow {
                capacity: self.capacity,
            });
        }
        st.queue.push_back(frame);
        Ok(())
    }

    /// Flush queued frames to the connection. Exactly one drainer runs
    /// at a time (a loser returns `Ok(0)` immediately — its frames are
    /// the winner's to deliver); the winner sends with no lock held.
    /// A send failure closes the outbox and discards the backlog.
    pub fn drain(&self) -> Result<usize, OutboxError> {
        {
            let mut st = self.state.lock();
            if st.draining {
                return Ok(0);
            }
            st.draining = true;
        }
        let mut sent = 0usize;
        loop {
            let frame = {
                let mut st = self.state.lock();
                match st.queue.pop_front() {
                    Some(f) => f,
                    None => {
                        st.draining = false;
                        return Ok(sent);
                    }
                }
            };
            // A send can block on the peer's transport for as long as
            // the transport likes, so nothing may be held here: every
            // frame was queued in order under the lock that ordered it,
            // and the FIFO keeps that order (DESIGN §12.2).
            lockdep::blocking_point("proto.outbox.send", &[]);
            if self.conn.send(&frame).is_err() {
                let mut st = self.state.lock();
                st.draining = false;
                st.closed = true;
                st.queue.clear();
                return Err(OutboxError::Closed);
            }
            sent += 1;
        }
    }

    /// Push-then-drain convenience for request/reply traffic that shares
    /// the outbox with pushed frames (ordering stays FIFO through the
    /// queue).
    pub fn send(&self, frame: Vec<u8>) -> Result<(), OutboxError> {
        self.push(frame)?;
        self.drain()?;
        Ok(())
    }

    /// Close the outbox, discarding the backlog and replacing it with
    /// `final_frames` (the `SubEnd` eviction notices), which the next
    /// [`Outbox::drain`] flushes. Never sends, so it may run under any
    /// lock. Subsequent pushes fail with [`OutboxError::Closed`].
    pub fn close_with(&self, final_frames: impl IntoIterator<Item = Vec<u8>>) {
        let mut st = self.state.lock();
        if st.closed {
            return;
        }
        // The backlog is what the slow consumer failed to read;
        // delivering it now would only delay the eviction notice.
        st.queue.clear();
        st.queue.extend(final_frames);
        st.closed = true;
    }

    /// Refuse further pushes (connection teardown); what is queued is
    /// still drained, and a dead connection's drain drops it.
    pub fn close(&self) {
        self.state.lock().closed = true;
    }
}

/// Drain every outbox frames were pushed into, once no lock is held —
/// the second half of every push the service makes. An outbox named
/// twice is drained once: the second drain finds it empty.
pub fn drain_all(outboxes: Vec<Arc<Outbox>>) {
    for outbox in outboxes {
        let _ = outbox.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::mem::MemNetwork;
    use crate::transport::Transport;

    fn pair() -> (Arc<dyn Conn>, Box<dyn Conn>) {
        let net = MemNetwork::ideal();
        let listener = net.listen("svc:1").unwrap();
        let client = net.connect("svc:1").unwrap();
        let server = listener.accept().unwrap();
        (Arc::from(server), client)
    }

    #[test]
    fn push_then_drain_delivers_in_order() {
        let (server, client) = pair();
        let ob = Outbox::new(server, 8);
        for i in 0..3u8 {
            ob.push(vec![i]).unwrap();
        }
        assert_eq!(ob.queued(), 3);
        assert_eq!(ob.drain().unwrap(), 3);
        for i in 0..3u8 {
            assert_eq!(client.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn overflow_fails_the_push_not_the_queue() {
        let (server, _client) = pair();
        let ob = Outbox::new(server, 2);
        ob.push(vec![0]).unwrap();
        ob.push(vec![1]).unwrap();
        assert_eq!(
            ob.push(vec![2]),
            Err(OutboxError::Overflow { capacity: 2 }),
            "the bound is hard"
        );
        assert_eq!(ob.queued(), 2, "the failed push did not corrupt the queue");
    }

    #[test]
    fn close_with_discards_backlog_and_flushes_final_frame() {
        let (server, client) = pair();
        let ob = Outbox::new(server, 4);
        ob.push(vec![1]).unwrap();
        ob.push(vec![2]).unwrap();
        ob.close_with([vec![9]]);
        assert_eq!(
            ob.drain(),
            Ok(1),
            "closing queues the notice, a drain sends it"
        );
        assert_eq!(
            client.recv().unwrap(),
            vec![9],
            "the eviction notice jumps the discarded backlog"
        );
        assert_eq!(ob.push(vec![3]), Err(OutboxError::Closed));
    }

    #[test]
    fn dead_connection_closes_the_outbox() {
        let (server, client) = pair();
        let ob = Outbox::new(server, 4);
        drop(client);
        ob.push(vec![1]).unwrap();
        assert_eq!(ob.drain(), Err(OutboxError::Closed));
        assert_eq!(ob.push(vec![2]), Err(OutboxError::Closed));
    }

    #[test]
    fn concurrent_pushes_never_exceed_capacity() {
        let (server, _client) = pair();
        let ob = Outbox::new(server, 64);
        let mut handles = Vec::new();
        for _ in 0..8 {
            let ob = Arc::clone(&ob);
            handles.push(std::thread::spawn(move || {
                let mut accepted = 0usize;
                for i in 0..32u8 {
                    if ob.push(vec![i]).is_ok() {
                        accepted += 1;
                    }
                }
                accepted
            }));
        }
        let accepted: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert_eq!(accepted, 64, "exactly capacity pushes are admitted");
        assert_eq!(ob.queued(), 64);
    }
}

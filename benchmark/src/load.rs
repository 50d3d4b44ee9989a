//! The closed-loop load driver.
//!
//! The GRAM wire protocol is strict request/reply per connection, so each
//! client thread is a closed loop by construction: it sends its next
//! request only after verifying the previous reply. A run is a sequence
//! of phases (one untimed warm-up, then the measured slices); all clients
//! enter and leave every phase together through a barrier, and one of
//! them takes a snapshot (of the service's counters, say) at each
//! boundary, while no request is in flight.

use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Every this-many operations a client runs its deep check.
pub const DEEP_CHECK_EVERY: usize = 1024;

/// One client's side of a workload.
pub trait Op: Send {
    /// Run operation number `i` of this client: send, wait, verify the
    /// reply. `false` means the operation failed (error, refusal, or a
    /// reply that did not check out).
    fn run(&mut self, i: usize) -> bool;

    /// Compare the latest reply in depth against an in-process answer.
    /// Called outside the timed interval, 1 in [`DEEP_CHECK_EVERY`] ops.
    fn deep_check(&mut self) -> bool {
        true
    }

    /// Requests this client has put on the wire so far.
    fn requests_sent(&self) -> u64;
}

/// How long a phase lasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Until this much time has passed.
    Timed(Duration),
    /// Until each client has done this many operations.
    Counted(usize),
}

/// What one client did in one phase.
#[derive(Debug, Clone, Copy)]
pub struct Mark {
    /// Range of this phase's latency samples in [`ClientLog::lat_ns`].
    pub lo: usize,
    /// End of that range.
    pub hi: usize,
    /// Number of the client's first operation in this phase.
    pub op_lo: usize,
    /// One past the number of its last.
    pub op_hi: usize,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Successful operations whose latency was not stored because the
    /// phase's share of the sample buffer was full.
    pub unsampled: u64,
    /// When the client entered the phase.
    pub start: Instant,
    /// When it finished its last operation of the phase.
    pub end: Instant,
}

/// One client's raw record of a run.
#[derive(Debug)]
pub struct ClientLog {
    /// Send-to-verified-reply latency of every successful operation, ns.
    pub lat_ns: Vec<u32>,
    /// One mark per phase, in order.
    pub marks: Vec<Mark>,
}

impl Phase {
    /// Latency samples one client may store in this phase: every one of a
    /// counted phase, `rate_cap` per second of a timed one.
    fn sample_room(self, rate_cap: usize) -> usize {
        match self {
            Phase::Timed(d) => (rate_cap as f64 * d.as_secs_f64()).ceil() as usize,
            Phase::Counted(n) => n,
        }
    }
}

/// Allocate a sample buffer of `cap` entries and touch every page of it,
/// so the timed loop neither allocates nor page-faults and the process's
/// peak memory does not depend on how many operations a run completes.
pub fn sample_buffer(cap: usize) -> Vec<u32> {
    let mut v = vec![1u32; cap];
    v.clear();
    v
}

/// Drive `ops` (one per client thread) through `phases`. `snapshot` is
/// called by one client at every phase boundary while all clients are
/// parked, so `phases.len() + 1` snapshots come back. `rate_cap` sizes
/// each client's latency buffer: that many samples per second of a timed
/// phase. A client that outruns it keeps running and counting; only the
/// latencies beyond the phase's room are not stored
/// ([`PhaseResult::unsampled`]).
pub fn drive<O: Op, T: Send>(
    ops: &mut [O],
    phases: &[Phase],
    rate_cap: usize,
    snapshot: &(dyn Fn() -> T + Sync),
) -> (Vec<ClientLog>, Vec<T>) {
    let sample_cap: usize = phases.iter().map(|p| p.sample_room(rate_cap)).sum();
    let barrier = Barrier::new(ops.len());
    let snaps: Mutex<Vec<T>> = Mutex::new(Vec::with_capacity(phases.len() + 1));
    let boundary = || {
        if barrier.wait().is_leader() {
            snaps.lock().expect("snapshot lock").push(snapshot());
        }
        barrier.wait();
    };
    let logs = std::thread::scope(|scope| {
        let handles: Vec<_> = ops
            .iter_mut()
            .map(|op| {
                let boundary = &boundary;
                scope.spawn(move || {
                    let mut log = ClientLog {
                        lat_ns: sample_buffer(sample_cap),
                        marks: Vec::with_capacity(phases.len()),
                    };
                    let mut i = 0usize;
                    for phase in phases {
                        boundary();
                        run_phase(op, *phase, &mut i, &mut log, phase.sample_room(rate_cap));
                    }
                    boundary();
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect::<Vec<_>>()
    });
    (logs, snaps.into_inner().expect("snapshot lock"))
}

fn run_phase<O: Op>(op: &mut O, phase: Phase, i: &mut usize, log: &mut ClientLog, room: usize) {
    let lo = log.lat_ns.len();
    let op_lo = *i;
    let start = Instant::now();
    let (deadline, count) = match phase {
        Phase::Timed(d) => (Some(start + d), usize::MAX),
        Phase::Counted(n) => (None, n),
    };
    let (mut attempted, mut failed, mut unsampled) = (0u64, 0u64, 0u64);
    let mut now = start;
    while (attempted as usize) < count && deadline.is_none_or(|d| now < d) {
        let t0 = Instant::now();
        let ok = op.run(*i);
        now = Instant::now();
        attempted += 1;
        if !ok {
            failed += 1;
        } else if log.lat_ns.len() < lo + room {
            log.lat_ns
                .push((now - t0).as_nanos().min(u32::MAX as u128) as u32);
        } else {
            unsampled += 1;
        }
        if (*i).is_multiple_of(DEEP_CHECK_EVERY) && !op.deep_check() {
            failed += 1;
        }
        *i += 1;
    }
    log.marks.push(Mark {
        lo,
        hi: log.lat_ns.len(),
        op_lo,
        op_hi: *i,
        attempted,
        failed,
        unsampled,
        start,
        end: now,
    });
}

/// What all clients together did in one phase.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Latencies of all successful operations, ascending, ns.
    pub sorted_ns: Vec<u32>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Successful operations without a stored latency (sample buffer full).
    pub unsampled: u64,
    /// First client in to last client out.
    pub wall: Duration,
}

/// Merge the clients' records of phase `k`.
pub fn phase_result(logs: &[ClientLog], k: usize) -> PhaseResult {
    let mut sorted_ns = Vec::new();
    let (mut attempted, mut failed, mut unsampled) = (0, 0, 0);
    let mut start = logs[0].marks[k].start;
    let mut end = logs[0].marks[k].end;
    for log in logs {
        let m = &log.marks[k];
        sorted_ns.extend_from_slice(&log.lat_ns[m.lo..m.hi]);
        attempted += m.attempted;
        failed += m.failed;
        unsampled += m.unsampled;
        start = start.min(m.start);
        end = end.max(m.end);
    }
    sorted_ns.sort_unstable();
    PhaseResult {
        sorted_ns,
        attempted,
        failed,
        unsampled,
        wall: end - start,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        sent: u64,
        fail_every: usize,
        deep_checks: u64,
    }

    impl Op for Fake {
        fn run(&mut self, i: usize) -> bool {
            self.sent += 1;
            self.fail_every == 0 || !i.is_multiple_of(self.fail_every)
        }
        fn deep_check(&mut self) -> bool {
            self.deep_checks += 1;
            true
        }
        fn requests_sent(&self) -> u64 {
            self.sent
        }
    }

    fn fakes(n: usize, fail_every: usize) -> Vec<Fake> {
        (0..n)
            .map(|_| Fake {
                sent: 0,
                fail_every,
                deep_checks: 0,
            })
            .collect()
    }

    #[test]
    fn counted_phases_run_exactly_and_snapshot_every_boundary() {
        let mut ops = fakes(2, 0);
        let calls = std::sync::atomic::AtomicU64::new(0);
        let (logs, snaps) = drive(
            &mut ops,
            &[Phase::Counted(10), Phase::Counted(2000), Phase::Counted(5)],
            0,
            &|| calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst),
        );
        assert_eq!(snaps, vec![0, 1, 2, 3]);
        assert_eq!(logs.len(), 2);
        for (k, n) in [10u64, 2000, 5].into_iter().enumerate() {
            let r = phase_result(&logs, k);
            assert_eq!(r.attempted, 2 * n);
            assert_eq!(r.failed, 0);
            assert_eq!(r.sorted_ns.len() as u64, 2 * n);
            assert!(r.sorted_ns.windows(2).all(|w| w[0] <= w[1]));
        }
        // Operation numbers keep counting across phases.
        assert_eq!(ops[0].requests_sent(), 2015);
    }

    #[test]
    fn failures_are_counted_and_leave_no_latency_sample() {
        let mut ops = fakes(1, 4);
        let (logs, _) = drive(&mut ops, &[Phase::Counted(100)], 0, &|| ());
        let r = phase_result(&logs, 0);
        assert_eq!(r.attempted, 100);
        assert_eq!(r.failed, 25);
        assert_eq!(r.sorted_ns.len(), 75);
    }

    #[test]
    fn timed_phase_stops_at_deadline_and_full_buffer_only_stops_sampling() {
        let mut ops = fakes(1, 0);
        let (logs, _) = drive(
            &mut ops,
            &[Phase::Timed(Duration::from_millis(20))],
            50_000_000,
            &|| (),
        );
        let r = phase_result(&logs, 0);
        assert!(r.wall >= Duration::from_millis(20));
        assert!(r.wall < Duration::from_millis(200));
        assert!(r.attempted > 100);

        // Room for 1000/s × 20 ms = 20 samples in each phase; the clients
        // run on to the deadline and the second phase still has its room.
        let mut ops = fakes(1, 0);
        let phases = [Phase::Timed(Duration::from_millis(20)); 2];
        let (logs, _) = drive(&mut ops, &phases, 1000, &|| ());
        for k in 0..2 {
            let r = phase_result(&logs, k);
            assert!(r.wall >= Duration::from_millis(20));
            assert!(r.attempted > 100);
            assert_eq!(r.sorted_ns.len(), 20);
            assert_eq!(r.unsampled, r.attempted - 20);
        }
    }

    #[test]
    fn sample_buffer_is_empty_with_full_capacity() {
        let b = sample_buffer(4096);
        assert!(b.is_empty());
        assert!(b.capacity() >= 4096);
    }
}

//! Process table.
//!
//! The J-GRAM fork backend "executes" jobs by entering them into this
//! table with a service time; a process finishes when its host clock passes
//! its deadline. Cancellation and failure injection are supported so the
//! execution-service experiments can exercise the full job lifecycle.

use infogram_sim::{Clock, SimTime};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Process identifier on a simulated host.
pub type Pid = u64;

/// Where a process is in its lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcState {
    /// Still running.
    Running,
    /// Finished (see [`ExitStatus`]).
    Exited,
}

/// How a process ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitStatus {
    /// Normal exit with a code (0 = success).
    Code(i32),
    /// Killed by a (simulated) signal.
    Signaled(i32),
}

impl ExitStatus {
    /// Whether this status is a clean, zero exit.
    pub fn success(&self) -> bool {
        matches!(self, ExitStatus::Code(0))
    }
}

#[derive(Debug, Clone)]
struct ProcEntry {
    /// When the process will finish of its own accord.
    deadline: SimTime,
    /// Exit code it will report at the deadline.
    natural_exit: i32,
    /// Set if the process was killed or force-failed before its deadline.
    forced: Option<ExitStatus>,
}

/// A table of simulated processes on one host.
#[derive(Debug)]
pub struct ProcessTable {
    clock: Arc<dyn Clock>,
    inner: Mutex<TableState>,
}

#[derive(Debug, Default)]
struct TableState {
    next_pid: Pid,
    procs: BTreeMap<Pid, ProcEntry>,
}

impl ProcessTable {
    /// An empty process table on the given clock.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        ProcessTable {
            clock,
            inner: Mutex::new(TableState {
                next_pid: 1,
                procs: BTreeMap::new(),
            }),
        }
    }

    /// Spawn a process that will run for `runtime` and then exit with
    /// `exit_code`. Returns its pid.
    pub fn spawn(&self, runtime: Duration, exit_code: i32) -> Pid {
        let now = self.clock.now();
        let mut st = self.inner.lock();
        let pid = st.next_pid;
        st.next_pid += 1;
        st.procs.insert(
            pid,
            ProcEntry {
                deadline: now.plus(runtime),
                natural_exit: exit_code,
                forced: None,
            },
        );
        pid
    }

    /// Current state of a process; `None` for unknown pids.
    pub fn state(&self, pid: Pid) -> Option<ProcState> {
        let now = self.clock.now();
        let st = self.inner.lock();
        st.procs.get(&pid).map(|p| {
            if p.forced.is_some() || now >= p.deadline {
                ProcState::Exited
            } else {
                ProcState::Running
            }
        })
    }

    /// Exit status, if the process has exited; `None` while running or for
    /// unknown pids.
    pub fn exit_status(&self, pid: Pid) -> Option<ExitStatus> {
        let now = self.clock.now();
        let st = self.inner.lock();
        st.procs.get(&pid).and_then(|p| {
            if let Some(forced) = p.forced {
                Some(forced)
            } else if now >= p.deadline {
                Some(ExitStatus::Code(p.natural_exit))
            } else {
                None
            }
        })
    }

    /// Deliver a kill signal; returns false if the process had already
    /// exited or does not exist.
    pub fn kill(&self, pid: Pid, signal: i32) -> bool {
        let now = self.clock.now();
        let mut st = self.inner.lock();
        match st.procs.get_mut(&pid) {
            Some(p) if p.forced.is_none() && now < p.deadline => {
                p.forced = Some(ExitStatus::Signaled(signal));
                true
            }
            _ => false,
        }
    }

    /// Force a process to fail immediately with the given exit code
    /// (failure injection for the restart experiments).
    pub fn inject_failure(&self, pid: Pid, exit_code: i32) -> bool {
        let now = self.clock.now();
        let mut st = self.inner.lock();
        match st.procs.get_mut(&pid) {
            Some(p) if p.forced.is_none() && now < p.deadline => {
                p.forced = Some(ExitStatus::Code(exit_code));
                true
            }
            _ => false,
        }
    }

    /// Number of currently running processes.
    pub fn running_count(&self) -> usize {
        let now = self.clock.now();
        let st = self.inner.lock();
        st.procs
            .values()
            .filter(|p| p.forced.is_none() && now < p.deadline)
            .count()
    }

    /// Forget one process — what `wait` does for a pid whose exit has
    /// been collected. From here on the pid is unknown: `state` and
    /// `exit_status` answer `None`.
    pub fn remove(&self, pid: Pid) {
        self.inner.lock().procs.remove(&pid);
    }

    /// Processes in the table, running or exited and not yet removed.
    pub fn len(&self) -> usize {
        self.inner.lock().procs.len()
    }

    /// Whether the table holds no process at all.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use infogram_sim::ManualClock;

    fn table() -> (Arc<ManualClock>, ProcessTable) {
        let clock = ManualClock::new();
        (clock.clone(), ProcessTable::new(clock))
    }

    #[test]
    fn process_runs_then_exits() {
        let (clock, t) = table();
        let pid = t.spawn(Duration::from_secs(10), 0);
        assert_eq!(t.state(pid), Some(ProcState::Running));
        assert_eq!(t.exit_status(pid), None);
        clock.advance(Duration::from_secs(10));
        assert_eq!(t.state(pid), Some(ProcState::Exited));
        assert_eq!(t.exit_status(pid), Some(ExitStatus::Code(0)));
        assert!(t.exit_status(pid).unwrap().success());
    }

    #[test]
    fn nonzero_exit_code() {
        let (clock, t) = table();
        let pid = t.spawn(Duration::from_secs(1), 2);
        clock.advance(Duration::from_secs(1));
        assert_eq!(t.exit_status(pid), Some(ExitStatus::Code(2)));
        assert!(!t.exit_status(pid).unwrap().success());
    }

    #[test]
    fn kill_running_process() {
        let (clock, t) = table();
        let pid = t.spawn(Duration::from_secs(100), 0);
        assert!(t.kill(pid, 9));
        assert_eq!(t.state(pid), Some(ProcState::Exited));
        assert_eq!(t.exit_status(pid), Some(ExitStatus::Signaled(9)));
        // Killing twice fails.
        assert!(!t.kill(pid, 9));
        // Killing after natural exit fails.
        let pid2 = t.spawn(Duration::from_secs(1), 0);
        clock.advance(Duration::from_secs(2));
        assert!(!t.kill(pid2, 15));
    }

    #[test]
    fn failure_injection() {
        let (_clock, t) = table();
        let pid = t.spawn(Duration::from_secs(100), 0);
        assert!(t.inject_failure(pid, 42));
        assert_eq!(t.exit_status(pid), Some(ExitStatus::Code(42)));
    }

    #[test]
    fn unknown_pid() {
        let (_clock, t) = table();
        assert_eq!(t.state(999), None);
        assert_eq!(t.exit_status(999), None);
        assert!(!t.kill(999, 9));
    }

    #[test]
    fn running_count_drops_as_processes_exit() {
        let (clock, t) = table();
        let _a = t.spawn(Duration::from_secs(1), 0);
        let _b = t.spawn(Duration::from_secs(10), 0);
        assert_eq!(t.running_count(), 2);
        clock.advance(Duration::from_secs(2));
        assert_eq!(t.running_count(), 1);
    }

    #[test]
    fn a_removed_pid_is_unknown_and_never_reissued() {
        let (clock, t) = table();
        let a = t.spawn(Duration::from_secs(1), 0);
        let b = t.spawn(Duration::from_secs(10), 0);
        clock.advance(Duration::from_secs(2));
        t.remove(a);
        assert_eq!((t.state(a), t.exit_status(a)), (None, None));
        assert_eq!((t.len(), t.running_count()), (1, 1));
        t.remove(a);
        assert_eq!(t.state(b), Some(ProcState::Running));
        assert!(t.spawn(Duration::from_secs(1), 0) > b);
        t.remove(b);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn pids_unique() {
        let (_clock, t) = table();
        let a = t.spawn(Duration::from_secs(1), 0);
        let b = t.spawn(Duration::from_secs(1), 0);
        assert_ne!(a, b);
    }
}

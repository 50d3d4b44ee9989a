//! Deterministic fault injection: one seeded [`Plan`] for provider
//! commands and for the WAL's disk.
//!
//! A plan acts only where it is attached: the command registry consults
//! it on every provider execution (`CommandRegistry::set_fault_plan`),
//! a simulated disk on every append and fsync (`MemStorage::with_plan`).
//! The plan only *decides*; charging a hang to the clock or dropping
//! unsynced bytes is the caller's job, so decisions stay pure.
//!
//! Faults are scripted or drawn from a seeded storm:
//!
//! * **Scripted** ([`Plan::new`]): [`Plan::script`] queues provider
//!   faults per target (command basename) — "fail 3×, then recover" is
//!   `script(k, vec![Fail; 3])`; [`Plan::fail_append`],
//!   [`Plan::fail_sync`], [`Plan::crash_after_appends`] and
//!   [`Plan::fill_disk`] script the disk by operation count.
//! * **Storm** ([`Plan::storm`]): every execution and every disk
//!   operation draws from one seed with the probabilities of a
//!   [`Storm`]. Scripts still take precedence.
//!
//! One seed, one stream per domain: each provider target draws from
//! `SplitMix64::new(seed ^ fnv1a(target))` and the disk from
//! `SplitMix64::new(seed)`, so fan-out across targets and disk traffic
//! between provider calls cannot perturb any stream, and a storm
//! replays byte for byte under either clock and the model checker.

use crate::rng::SplitMix64;
use parking_lot::Mutex;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// One provider failure mode, applied to a single execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The command runs (cost charged as usual) but exits
    /// [`EXIT_INJECTED`].
    Fail,
    /// The command stalls for the given duration *in addition to* its
    /// cost, then is reaped as failed ([`EXIT_HUNG`]) — a hung backend
    /// killed by a watchdog; deadline budgets observe the stall.
    Hang(Duration),
    /// The command succeeds, but only after an extra delay — a slow
    /// backend, not a broken one.
    SlowBy(Duration),
}

/// Exit code reported for an injected plain failure.
pub const EXIT_INJECTED: i32 = 13;
/// Exit code reported for a hung-then-reaped execution.
pub const EXIT_HUNG: i32 = 124;

/// What a disk must do with one append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AppendVerdict {
    /// Write every byte normally.
    Write,
    /// Write only the first `keep` bytes (unsynced), then report an
    /// I/O error.
    Short {
        /// Bytes that land.
        keep: usize,
    },
    /// Write nothing; report an I/O error with this detail.
    Fail {
        /// Human-readable cause, e.g. `injected append failure`.
        detail: &'static str,
    },
    /// Lose power before writing: drop every unsynced byte and fail
    /// every operation until the disk restarts.
    Crash,
}

/// What a disk must do with one fsync.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncVerdict {
    /// Promote unsynced bytes to durable as usual.
    Sync,
    /// Report an I/O error; the bytes stay unsynced (a later successful
    /// sync may still promote them).
    Fail,
}

/// Error detail a disk reports while crashed.
pub const DISK_CRASHED_DETAIL: &str = "storage crashed (injected)";

/// Storm probabilities, every one an independent draw per operation.
#[derive(Debug, Clone)]
pub struct Storm {
    /// Probability a provider execution fails outright.
    pub fail_p: f64,
    /// Probability a provider execution hangs for [`Storm::hang_for`].
    pub hang_p: f64,
    /// Probability a provider execution is slowed by [`Storm::slow_by`].
    pub slow_p: f64,
    /// Stall duration for injected hangs.
    pub hang_for: Duration,
    /// Extra delay for injected slowdowns.
    pub slow_by: Duration,
    /// Probability an append fails outright.
    pub append_fail_p: f64,
    /// Probability an append is a short write (a random prefix lands).
    pub short_p: f64,
    /// Probability an fsync fails.
    pub fsync_fail_p: f64,
}

impl Default for Storm {
    /// The "10% provider-failure storm" (10% fails, 2% hangs of 30 ms,
    /// 5% slowdowns of 10 ms — short enough for wall-clock runs) over a
    /// flaky disk (2% failed appends, 1% short writes, 2% failed fsyncs).
    fn default() -> Self {
        Storm {
            fail_p: 0.10,
            hang_p: 0.02,
            slow_p: 0.05,
            hang_for: Duration::from_millis(30),
            slow_by: Duration::from_millis(10),
            append_fail_p: 0.02,
            short_p: 0.01,
            fsync_fail_p: 0.02,
        }
    }
}

/// FNV-1a over the target name: a stable, platform-independent stream
/// discriminator mixed into the storm seed.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// A deterministic, shareable fault plan. See the [module docs](self).
///
/// All state sits behind one mutex, so concurrent callers serialize
/// their draws; the per-domain streams make the draw *sequences*
/// independent of how the domains interleave.
#[derive(Debug)]
pub struct Plan {
    state: Mutex<State>,
}

#[derive(Debug)]
struct State {
    seed: u64,
    storm: Option<Storm>,
    /// Scripted provider faults per target, consumed front first.
    scripts: HashMap<String, VecDeque<Fault>>,
    /// Provider draw streams per target, created on first use.
    streams: HashMap<String, SplitMix64>,
    /// The disk's draw stream (appends and fsyncs share it).
    disk: SplitMix64,
    /// Appends and fsyncs decided so far: the indices scripts key on.
    appends: u64,
    syncs: u64,
    fail_appends: BTreeSet<u64>,
    fail_syncs: BTreeSet<u64>,
    crash_at_append: Option<u64>,
    /// Disk-full latch: every append fails until space is freed.
    full: bool,
}

impl Plan {
    fn with(seed: u64, storm: Option<Storm>) -> Arc<Self> {
        Arc::new(Plan {
            state: Mutex::new(State {
                seed,
                storm,
                scripts: HashMap::new(),
                streams: HashMap::new(),
                disk: SplitMix64::new(seed),
                appends: 0,
                syncs: 0,
                fail_appends: BTreeSet::new(),
                fail_syncs: BTreeSet::new(),
                crash_at_append: None,
                full: false,
            }),
        })
    }

    /// A plan with no faults: everything healthy until scripted.
    pub fn new() -> Arc<Self> {
        Self::with(0, None)
    }

    /// A seeded storm: every provider execution and disk operation
    /// draws from `storm`'s probabilities.
    pub fn storm(seed: u64, storm: Storm) -> Arc<Self> {
        Self::with(seed, Some(storm))
    }

    /// Queue faults for the next executions of one target (command
    /// basename), replacing any earlier script for it. Once the queue is
    /// empty the target is healthy again (or back in the storm).
    pub fn script(&self, target: &str, faults: Vec<Fault>) {
        self.state
            .lock()
            .scripts
            .insert(target.to_string(), faults.into());
    }

    /// Fail the `in_appends`-th upcoming append (0 = the very next one).
    pub fn fail_append(&self, in_appends: u64) {
        let mut st = self.state.lock();
        let idx = st.appends + in_appends;
        st.fail_appends.insert(idx);
    }

    /// Fail the `in_syncs`-th upcoming fsync (0 = the very next one).
    pub fn fail_sync(&self, in_syncs: u64) {
        let mut st = self.state.lock();
        let idx = st.syncs + in_syncs;
        st.fail_syncs.insert(idx);
    }

    /// Crash the disk after `k` more appends: the `k+1`-th upcoming
    /// append crashes before writing.
    pub fn crash_after_appends(&self, k: u64) {
        let mut st = self.state.lock();
        st.crash_at_append = Some(st.appends + k);
    }

    /// Latch the disk-full condition: every append fails until
    /// [`Plan::free_space`]. A full disk stays full across restarts.
    pub fn fill_disk(&self) {
        self.state.lock().full = true;
    }

    /// Clear the disk-full condition.
    pub fn free_space(&self) {
        self.state.lock().full = false;
    }

    /// The fault for the next execution of `target`, if any.
    pub fn decide(&self, target: &str) -> Option<Fault> {
        let mut st = self.state.lock();
        let st = &mut *st;
        if let Some(fault) = st.scripts.get_mut(target).and_then(VecDeque::pop_front) {
            return Some(fault);
        }
        let storm = st.storm.as_ref()?;
        let seed = st.seed;
        let draw = st
            .streams
            .entry(target.to_string())
            .or_insert_with(|| SplitMix64::new(seed ^ fnv1a(target)))
            .next_f64();
        if draw < storm.fail_p {
            Some(Fault::Fail)
        } else if draw < storm.fail_p + storm.hang_p {
            Some(Fault::Hang(storm.hang_for))
        } else if draw < storm.fail_p + storm.hang_p + storm.slow_p {
            Some(Fault::SlowBy(storm.slow_by))
        } else {
            None
        }
    }

    /// Decide what happens to the next append of `len` bytes.
    pub fn on_append(&self, len: usize) -> AppendVerdict {
        let mut st = self.state.lock();
        let st = &mut *st;
        let idx = st.appends;
        st.appends += 1;
        if st.crash_at_append == Some(idx) {
            st.crash_at_append = None;
            return AppendVerdict::Crash;
        }
        if st.fail_appends.remove(&idx) {
            return AppendVerdict::Fail {
                detail: "injected append failure",
            };
        }
        if st.full {
            return AppendVerdict::Fail {
                detail: "disk full (injected)",
            };
        }
        if let Some(storm) = &st.storm {
            let draw = st.disk.next_f64();
            if draw < storm.append_fail_p {
                return AppendVerdict::Fail {
                    detail: "injected append failure",
                };
            }
            if draw < storm.append_fail_p + storm.short_p {
                let keep = if len == 0 {
                    0
                } else {
                    st.disk.below(len as u64 + 1) as usize
                };
                return AppendVerdict::Short { keep };
            }
        }
        AppendVerdict::Write
    }

    /// Decide what happens to the next fsync.
    pub fn on_sync(&self) -> SyncVerdict {
        let mut st = self.state.lock();
        let st = &mut *st;
        let idx = st.syncs;
        st.syncs += 1;
        let scripted = st.fail_syncs.remove(&idx);
        if scripted
            || st
                .storm
                .as_ref()
                .is_some_and(|s| st.disk.next_f64() < s.fsync_fail_p)
        {
            SyncVerdict::Fail
        } else {
            SyncVerdict::Sync
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const E17_SEED: u64 = 0xe17_fa11;
    const E20_SEED: u64 = 0xe20_0c4a;

    // The first 64 draws of e17's storm (two targets) and of e20's disk
    // storm, recorded before the provider and disk plans became one
    // `Plan`. Moving them changes what e17 and e20 measure.
    const GOLDEN_CPULOAD: &str = "...............F..H...F....F..........S.HF...S..HS..S......S....";
    const GOLDEN_DATE: &str = ".......S.FF.........F..........F....................F.F....FF.F.";
    const GOLDEN_APPENDS: &str = ".................................S..............................";
    const GOLDEN_SHORT_KEEP: usize = 38;
    const GOLDEN_SYNCS: &str = "..........................F.....F...............................";

    fn e17_storm() -> Storm {
        Storm {
            hang_for: Duration::from_millis(300),
            ..Storm::default()
        }
    }

    fn provider_char(fault: Option<Fault>) -> char {
        match fault {
            None => '.',
            Some(Fault::Fail) => 'F',
            Some(Fault::Hang(d)) => {
                assert_eq!(d, Duration::from_millis(300));
                'H'
            }
            Some(Fault::SlowBy(d)) => {
                assert_eq!(d, Duration::from_millis(10));
                'S'
            }
        }
    }

    fn append_char(verdict: AppendVerdict) -> char {
        match verdict {
            AppendVerdict::Write => '.',
            AppendVerdict::Fail { .. } => 'F',
            AppendVerdict::Short { keep } => {
                assert_eq!(keep, GOLDEN_SHORT_KEEP);
                'S'
            }
            AppendVerdict::Crash => 'C',
        }
    }

    fn sync_char(verdict: SyncVerdict) -> char {
        match verdict {
            SyncVerdict::Sync => '.',
            SyncVerdict::Fail => 'F',
        }
    }

    #[test]
    fn storm_draws_match_the_golden_sequences() {
        let plan = Plan::storm(E17_SEED, e17_storm());
        for (target, golden) in [("cpuload", GOLDEN_CPULOAD), ("date", GOLDEN_DATE)] {
            let drawn: String = (0..64)
                .map(|_| provider_char(plan.decide(target)))
                .collect();
            assert_eq!(drawn, golden, "{target}");
        }
        let plan = Plan::storm(E20_SEED, Storm::default());
        let appends: String = (0..64).map(|_| append_char(plan.on_append(64))).collect();
        let syncs: String = (0..64).map(|_| sync_char(plan.on_sync())).collect();
        assert_eq!(appends, GOLDEN_APPENDS);
        assert_eq!(syncs, GOLDEN_SYNCS);
    }

    #[test]
    fn interleaved_domains_leave_every_stream_unchanged() {
        // The e17 seed's provider streams with disk traffic between draws.
        let plan = Plan::storm(E17_SEED, e17_storm());
        let (mut cpuload, mut date) = (String::new(), String::new());
        for _ in 0..64 {
            cpuload.push(provider_char(plan.decide("cpuload")));
            let _ = plan.on_append(64);
            date.push(provider_char(plan.decide("date")));
            let _ = plan.on_sync();
        }
        assert_eq!(cpuload, GOLDEN_CPULOAD);
        assert_eq!(date, GOLDEN_DATE);
        // The e20 seed's disk stream with provider draws between operations.
        let plan = Plan::storm(E20_SEED, Storm::default());
        let appends: String = (0..64)
            .map(|_| {
                let _ = plan.decide("cpuload");
                append_char(plan.on_append(64))
            })
            .collect();
        let syncs: String = (0..64)
            .map(|_| {
                let _ = plan.decide("date");
                sync_char(plan.on_sync())
            })
            .collect();
        assert_eq!(appends, GOLDEN_APPENDS);
        assert_eq!(syncs, GOLDEN_SYNCS);
    }

    #[test]
    fn scripted_faults_consumed_in_order_then_healthy() {
        let plan = Plan::new();
        plan.script(
            "cpuload",
            vec![
                Fault::Fail,
                Fault::SlowBy(Duration::from_millis(5)),
                Fault::Hang(Duration::from_millis(50)),
            ],
        );
        assert_eq!(plan.decide("cpuload"), Some(Fault::Fail));
        assert_eq!(
            plan.decide("cpuload"),
            Some(Fault::SlowBy(Duration::from_millis(5)))
        );
        assert_eq!(
            plan.decide("cpuload"),
            Some(Fault::Hang(Duration::from_millis(50)))
        );
        assert_eq!(plan.decide("cpuload"), None);
        // Other targets unaffected throughout.
        assert_eq!(plan.decide("date"), None);
    }

    #[test]
    fn script_takes_precedence_over_storm() {
        let plan = Plan::storm(
            7,
            Storm {
                fail_p: 0.0,
                hang_p: 0.0,
                slow_p: 0.0,
                ..Storm::default()
            },
        );
        plan.script("date", vec![Fault::Fail]);
        assert_eq!(plan.decide("date"), Some(Fault::Fail));
        // Script exhausted, zero-probability storm: healthy.
        assert_eq!(plan.decide("date"), None);
    }

    #[test]
    fn disk_scripts_hit_their_op_index() {
        let plan = Plan::new();
        plan.fail_append(1);
        plan.fail_sync(0);
        assert_eq!(plan.on_append(10), AppendVerdict::Write);
        assert_eq!(
            plan.on_append(10),
            AppendVerdict::Fail {
                detail: "injected append failure"
            }
        );
        assert_eq!(plan.on_append(10), AppendVerdict::Write);
        assert_eq!(plan.on_sync(), SyncVerdict::Fail);
        assert_eq!(plan.on_sync(), SyncVerdict::Sync);
    }

    #[test]
    fn crash_after_k_appends() {
        let plan = Plan::new();
        plan.crash_after_appends(2);
        assert_eq!(plan.on_append(1), AppendVerdict::Write);
        assert_eq!(plan.on_append(1), AppendVerdict::Write);
        assert_eq!(plan.on_append(1), AppendVerdict::Crash);
        // One crash, not a latch: the disk keeps the crashed state.
        assert_eq!(plan.on_append(1), AppendVerdict::Write);
    }

    #[test]
    fn full_disk_latches_until_freed() {
        let plan = Plan::new();
        plan.fill_disk();
        for _ in 0..2 {
            assert_eq!(
                plan.on_append(1),
                AppendVerdict::Fail {
                    detail: "disk full (injected)"
                }
            );
        }
        plan.free_space();
        assert_eq!(plan.on_append(1), AppendVerdict::Write);
    }
}

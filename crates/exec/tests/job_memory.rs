//! Memory is a contract, not an RSS reading.
//!
//! A long-running InfoGram is restarted from its log (§6, §6.1), so what
//! a *finished* job keeps costing — its row in the log fold, and what it
//! printed — decides how long the service can stay up. These tests
//! count bytes and allocations with their own allocator and hold them
//! under the fixed ceilings of [`ceiling`]; DESIGN §14.5 quotes the
//! figures and names every ceiling.
//!
//! The counters are per thread (the engine and the log run on the
//! caller's thread: the group-commit leader is the committer), so the
//! tests can run in parallel. The ceilings hold in debug and release
//! builds alike: lockdep allocates per lock *class*, not per job.

use infogram_exec::chunked::Chunked;
use infogram_exec::wal::{
    CheckpointState, FileStorage, FileWal, FrameWal, RecoveredState, Wal, WalConfig, WalEvent,
    WalStorage, IO_BUF,
};
use infogram_exec::{ConnCtx, EngineConfig, ForkBackend, JobEngine};
use infogram_host::commands::{ChargeMode, CommandRegistry, CostModel};
use infogram_host::machine::SimulatedHost;
use infogram_proto::message::JobStateCode;
use infogram_rsl::XrslRequest;
use infogram_sim::metrics::MetricSet;
use infogram_sim::{ManualClock, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Every bound of this file, each a quarter above the figure it holds
/// (debug and release builds alike) unless its test says otherwise.
/// DESIGN §14.5's table names each as `NAME = value`, and
/// `scripts/check_docs.sh` fails when the two disagree.
mod ceiling {
    /// A job in flight, per job.
    pub const LIVE_BYTES: f64 = 1033.0;
    pub const LIVE_ALLOCS: f64 = 9.3;
    /// A finished job that printed a line, per job.
    pub const FINISHED_BYTES: f64 = 170.0;
    pub const FINISHED_ALLOCS: f64 = 0.04;
    /// A finished job with its own xRSL and output, per job.
    pub const DISTINCT_BYTES: f64 = 159.0;
    pub const DISTINCT_ALLOCS: f64 = 0.04;
    /// A finished job that printed nothing, per job.
    pub const SILENT_BYTES: f64 = 77.0;
    pub const SILENT_ALLOCS: f64 = 0.03;
    /// An output-table entry by itself, per entry.
    pub const OUTPUT_BYTES: f64 = 62.0;
    pub const OUTPUT_ALLOCS: f64 = 0.0081;
    /// A fold row by itself, per row.
    pub const ROW_BYTES: f64 = 95.0;
    pub const ROW_ALLOCS: f64 = 0.014;
    /// A copied fold row, per row.
    pub const COPY_BYTES: f64 = 0.48;
    pub const COPY_ALLOCS: f64 = 0.0019;
    /// Reopen, fold, `events()` and `from_events`, per job.
    pub const REOPEN_BYTES: f64 = 343.0;
    pub const REOPEN_ALLOCS: f64 = 1.19;
    /// An output-table entry finishing out of order, per entry.
    pub const LATE_BYTES: f64 = 85.0;
    pub const LATE_ALLOCS: f64 = 0.0106;
    /// Allocator requests to cut the first checkpoint of 2 000 jobs: the
    /// count itself, so that one more buffer or path in a cut fails.
    pub const CUT_REQUESTS: isize = 8;
    /// A reopen's or a cut's peak above where it started or what it
    /// keeps: a quarter above `IO_BUF`, whatever the table.
    pub const PEAK_BYTES: isize = 10_240;
    /// What `recover()` keeps over 2 000 finished jobs and 3 in flight.
    pub const RECOVER_BYTES: isize = 2500;
    /// 10 000 counted queries, in all.
    pub const QUERY_BYTES: isize = 6144;
    pub const QUERY_REQUESTS: isize = 85;
    /// 10 000 relaxed records on a file log, in all.
    pub const RELAXED_REQUESTS: isize = 45_000;
}

const _: () = assert!(ceiling::PEAK_BYTES == IO_BUF as isize * 5 / 4);

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static LIVE_ALLOCS: Cell<isize> = const { Cell::new(0) };
    /// Calls that obtained memory (`alloc`, `realloc`), ever.
    static REQUESTS: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE_BYTES` has been since [`peak_of`] last reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// The largest single request since [`largest_of`] last reset it.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// `bytes` more held (fewer, if negative) in `allocs` more allocations,
/// by a call that asked for `asked` bytes (0 for a free).
fn note(bytes: isize, allocs: isize, asked: usize) {
    // `try_with`: a thread being torn down may free after its locals
    // are gone; those frees are nobody's measurement.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = LIVE_ALLOCS.try_with(|c| c.set(c.get() + allocs));
    let _ = LARGEST.try_with(|c| c.set(c.get().max(asked)));
    if bytes > 0 {
        let _ = REQUESTS.try_with(|c| c.set(c.get() + 1));
        let live = LIVE_BYTES.try_with(Cell::get).unwrap_or(0);
        let _ = PEAK.try_with(|c| c.set(c.get().max(live)));
    }
}

/// The system allocator, counting what the calling thread holds.
struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the bookkeeping touches only `Cell`s in
// const-initialised thread locals (no allocation, no destructor) and
// never the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as received.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            note(layout.size() as isize, 1, layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize), -1, 0);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize, 0, new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// What the calling thread holds right now: `(bytes, allocations)`.
fn held() -> (isize, isize) {
    (LIVE_BYTES.with(Cell::get), LIVE_ALLOCS.with(Cell::get))
}

/// Run `f`; what it returns, and the most the calling thread held above
/// what it held before, at any moment while `f` ran.
fn peak_of<T>(f: impl FnOnce() -> T) -> (T, isize) {
    let start = held().0;
    PEAK.with(|c| c.set(start));
    let out = f();
    (out, PEAK.with(Cell::get) - start)
}

/// Run `f`; what it returns, and the most it asked for in one call.
fn largest_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LARGEST.with(|c| c.set(0));
    let out = f();
    (out, LARGEST.with(Cell::get))
}

/// What the calling thread has come to hold since `before`, per job.
fn per_job(before: (isize, isize), n: usize) -> (f64, f64) {
    let now = held();
    (
        (now.0 - before.0) as f64 / n as f64,
        (now.1 - before.1) as f64 / n as f64,
    )
}

const OWNER: &str = "/O=Grid/OU=memory/CN=Tester";
const ACCOUNT: &str = "tester";
const JOB_RSL: &str = "&(executable=simwork)(arguments=1)";
const JOBS: usize = 2_000;
/// A status poll trails its submit by this many jobs, as in the e21
/// `job_submit` workload.
const BEHIND: usize = 64;

struct World {
    clock: Arc<ManualClock>,
    registry: Arc<CommandRegistry>,
}

impl World {
    fn new() -> World {
        let clock = ManualClock::new();
        let host = SimulatedHost::default_on(clock.clone());
        World {
            registry: CommandRegistry::new(host, ChargeMode::None),
            clock,
        }
    }

    fn engine(&self, wal: Wal) -> Arc<JobEngine> {
        JobEngine::new(
            EngineConfig::default(),
            self.clock.clone(),
            wal,
            ForkBackend::new(Arc::clone(&self.registry)),
            MetricSet::new(),
        )
    }
}

/// A scratch directory for one test's log, removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(name: &str) -> Scratch {
        let dir =
            std::env::temp_dir().join(format!("infogram-job-memory-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn wal(&self) -> Wal {
        Wal::new(Box::new(FileWal::open(self.0.join("jobs.wal")).unwrap()))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn submit(engine: &JobEngine, rsl: &str) -> u64 {
    let spec = XrslRequest::from_text(rsl).unwrap().job.unwrap();
    engine.submit(rsl, spec, OWNER, ACCOUNT).unwrap().job_id
}

/// Submit `JOBS` one-millisecond jobs and poll every one of them to
/// DONE, the poll trailing the submit by `BEHIND` jobs.
fn run_jobs(world: &World, engine: &JobEngine) {
    let mut ids = Vec::with_capacity(JOBS);
    for i in 0..JOBS {
        ids.push(submit(engine, JOB_RSL));
        world.clock.advance(Duration::from_millis(1));
        if i >= BEHIND {
            let view = engine.status(ids[i - BEHIND]).unwrap();
            assert_eq!(view.state, JobStateCode::Done);
        }
    }
    for id in &ids[JOBS - BEHIND..] {
        assert_eq!(engine.status(*id).unwrap().state, JobStateCode::Done);
    }
}

/// (a) what a finished job keeps costing — engine, fold and simulated
/// host together — and (b) where a job is kept: in the engine's table
/// and the host's fork pool while it can still change, in the log's row
/// afterwards.
///
/// Measured at 2 000 jobs: 136 bytes in 0.03 allocations per job (135
/// in release builds) — the 40-byte fold row and its xRSL, a 16-byte
/// output row and the 32 bytes printed, and the slack of the last chunk
/// of each table: nothing allocated for the job alone.
#[test]
fn a_finished_job_is_one_row_in_one_place() {
    let scratch = Scratch::new("finished");
    let world = World::new();
    let engine = world.engine(scratch.wal());
    let processes = &world.registry.host().processes;
    let before = held();
    run_jobs(&world, &engine);
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per finished job: {bytes:.0} bytes, {allocs:.2} allocations");
    assert!(
        bytes <= ceiling::FINISHED_BYTES,
        "{bytes:.0} bytes retained per finished job"
    );
    assert!(
        allocs <= ceiling::FINISHED_ALLOCS,
        "{allocs:.2} allocations retained per finished job"
    );

    assert_eq!(engine.live_jobs(), 0, "a finished job stayed in the table");
    assert_eq!(processes.running_count(), 0);
    assert!(processes.is_empty(), "the pool kept a finished job");
    let long: Vec<u64> = (0..3)
        .map(|_| submit(&engine, "&(executable=simwork)(arguments=60000)"))
        .collect();
    assert_eq!(engine.live_jobs(), 3, "a job in flight is in the table");
    assert_eq!((processes.len(), processes.running_count()), (3, 3));
    assert!(engine.cancel(long[0]));
    assert_eq!(engine.live_jobs(), 2, "a canceled job stayed in the table");
    assert_eq!((processes.len(), processes.running_count()), (2, 2));
    for id in &long[1..] {
        assert_eq!(engine.status(*id).unwrap().state, JobStateCode::Active);
    }
    let mut in_flight = long[1..].to_vec();
    in_flight.push(submit(&engine, "&(executable=simwork)(arguments=60000)"));
    assert_eq!(engine.job_ids().len(), JOBS + 4);

    // A restart builds nothing for a finished job: the engine's side of
    // recovery is the three jobs in flight. Measured: 2 076 bytes (1 940
    // in release builds).
    drop(engine);
    let engine = world.engine(scratch.wal());
    let before = held();
    let restarted = engine.recover();
    let bytes = held().0 - before.0;
    println!("recovering {JOBS} finished jobs + 3 in flight: {bytes} bytes retained");
    assert_eq!(restarted, in_flight);
    assert_eq!(engine.live_jobs(), 3);
    assert!(
        bytes <= ceiling::RECOVER_BYTES,
        "{bytes} bytes retained by recover()"
    );
    assert_eq!(engine.job_ids().len(), JOBS + 4);
    let view = engine.status(long[0]).unwrap();
    assert_eq!(
        (view.state, view.output.as_str()),
        (JobStateCode::Canceled, "")
    );
}

/// What a finished job printed is the one thing kept outside the log's
/// row, and only if it printed anything: `true` prints nothing, so it
/// costs its fold row ([`what_the_parts_cost`]) and no entry in the
/// engine's output table, which would be 49 bytes more
/// ([`an_output_is_a_row_and_its_text`]). Measured at 2 000 jobs: 61
/// bytes in 0.02 allocations per job — the 40-byte row and its 18-byte
/// xRSL, in chunks of 512.
#[test]
fn a_silent_job_keeps_nothing_but_its_row() {
    let scratch = Scratch::new("silent");
    let world = World::new();
    let engine = world.engine(scratch.wal());
    let before = held();
    for _ in 0..JOBS {
        let id = submit(&engine, "&(executable=true)");
        let view = engine.status(id).unwrap();
        assert_eq!((view.state, view.output.as_str()), (JobStateCode::Done, ""));
    }
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per silent finished job: {bytes:.0} bytes, {allocs:.2} allocations");
    assert!(
        bytes <= ceiling::SILENT_BYTES,
        "{bytes:.0} bytes retained per silent job"
    );
    assert!(
        allocs <= ceiling::SILENT_ALLOCS,
        "{allocs:.2} allocations retained per silent job"
    );
}

/// Nothing is shared because it repeats: a job whose xRSL and output are
/// its own, each as long as [`a_finished_job_is_one_row_in_one_place`]'s,
/// costs no more than that job. Measured at 2 000 jobs: 127 bytes in
/// 0.03 allocations per job (that test's engine also keeps the table
/// that held 64 jobs in flight at once).
#[test]
fn a_job_with_its_own_texts_costs_no_more() {
    let world = World::new();
    world.registry.register(
        "echo",
        CostModel::Fixed(Duration::ZERO),
        |_, args: &[&str]| {
            (
                format!("status: job {} is done, alone\n", args.join(" ")),
                0,
            )
        },
    );
    let scratch = Scratch::new("distinct");
    let engine = world.engine(scratch.wal());
    let before = held();
    for i in 0..JOBS {
        let rsl = format!("&(executable=echo)(arguments={i:04})");
        assert_eq!(rsl.len(), JOB_RSL.len());
        let id = submit(&engine, &rsl);
        let view = engine.status(id).unwrap();
        assert_eq!(view.state, JobStateCode::Done);
        assert_eq!(view.output, format!("status: job {i:04} is done, alone\n"));
        assert_eq!(view.output.len(), "status: simulated work complete\n".len());
    }
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per finished job with its own texts: {bytes:.0} bytes, {allocs:.2} allocations");
    assert!(
        bytes <= ceiling::DISTINCT_BYTES,
        "{bytes:.0} bytes retained per job with its own texts"
    );
    assert!(
        allocs <= ceiling::DISTINCT_ALLOCS,
        "{allocs:.2} allocations retained per job with its own texts"
    );
}

/// One entry of the engine's output table by itself: a 16-byte row (the
/// job id and where its text sits) and the 32 bytes printed, in chunks
/// of 512 whose texts share one buffer. Measured at 2 000 entries, each
/// its own text: 49 bytes in 0.0065 allocations per entry.
#[test]
fn an_output_is_a_row_and_its_text() {
    let before = held();
    let mut outputs = Chunked::<u64>::default();
    for id in 1..=JOBS as u64 {
        outputs.insert(id, &format!("status: job {id:04} is done, alone\n"));
    }
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per output entry: {bytes:.1} bytes, {allocs:.4} allocations");
    assert_eq!(
        outputs.find(7).unwrap().text(),
        "status: job 0007 is done, alone\n"
    );
    assert!(
        bytes <= ceiling::OUTPUT_BYTES,
        "{bytes:.1} bytes retained per output entry"
    );
    assert!(
        allocs <= ceiling::OUTPUT_ALLOCS,
        "{allocs:.4} allocations retained per output entry"
    );
}

/// Outputs arriving in finish order when job lengths differ: 8 192 jobs
/// submitted a millisecond apart, every sixteenth running 1.1 to 5 s
/// and the rest 1 ms, so each long job finishes behind 1 100 to 5 000
/// short ones, into full chunks: up to `SPILL` (8) chunks late it spills
/// rows on, further it splits a chunk. Beside it, the same outputs in a
/// `HashMap<u64, Box<str>>`, the layout the table replaced. Measured: 68
/// bytes in 0.0085 allocations per output, where the map asks for 82
/// (and the heap gives each 32-byte text a 48-byte block). Over six
/// runs of a release build on one Xeon core, a finish took 0.33 to 0.58
/// µs on average and 24 to 86 µs at worst; the map 0.19 µs, and 320 to
/// 370 µs at worst, as it grew.
#[test]
fn late_finishes_cost_less_than_a_map() {
    const N: u64 = 8_192;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut finishes: Vec<(u64, u64)> = (1..=N)
        .map(|id| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let runs = if id % 16 == 0 { 1_100 + x % 3_900 } else { 1 };
            (id + runs, id)
        })
        .collect();
    finishes.sort_unstable();
    let texts: Vec<(u64, String)> = finishes
        .iter()
        .map(|&(_, id)| (id, format!("status: job {id:04} is done, alone\n")))
        .collect();
    let late = finishes.iter().filter(|&&(at, id)| at > id + 1_024).count();
    assert_eq!(late, N as usize / 16);

    let time = |insert: &mut dyn FnMut(u64, &str)| {
        let (mut total, mut worst) = (Duration::ZERO, Duration::ZERO);
        for (id, text) in &texts {
            let start = std::time::Instant::now();
            insert(*id, text);
            let took = start.elapsed();
            total += took;
            worst = worst.max(took);
        }
        (total / N as u32, worst)
    };
    let before = held();
    let mut outputs = Chunked::<u64>::default();
    let (mean, worst) = time(&mut |id, text| outputs.insert(id, text));
    let (bytes, allocs) = per_job(before, N as usize);
    let before = held();
    let mut map: HashMap<u64, Box<str>> = HashMap::new();
    let (map_mean, map_worst) = time(&mut |id, text| {
        map.insert(id, text.into());
    });
    let (map_bytes, _) = per_job(before, N as usize);
    println!(
        "late finishes: {bytes:.1} bytes, {allocs:.4} allocations per output, \
         {mean:?} per finish ({worst:?} at worst); a HashMap: {map_bytes:.1} bytes, \
         {map_mean:?} ({map_worst:?} at worst)"
    );
    assert_eq!(outputs.len(), map.len());
    assert!(outputs.iter().all(|e| *map[&*e] == *e.text()));
    assert!(
        bytes < map_bytes,
        "{bytes:.1} bytes per output, a map's {map_bytes:.1}"
    );
    assert!(
        bytes <= ceiling::LATE_BYTES,
        "{bytes:.1} bytes retained per output finishing late"
    );
    assert!(
        allocs <= ceiling::LATE_ALLOCS,
        "{allocs:.4} allocations retained per output finishing late"
    );
}

/// A long text asks for about itself, not for a chunk of texts like it:
/// a 1 MiB output into an empty table or between short ones, and a
/// 64 KiB xRSL in a checkpoint and in the tail of a reopened log. No
/// request is more than twice the text and the chunk's other texts (at
/// most a read buffer of them here). Measured: 1 MiB, then 1.71 MiB
/// between 350 short outputs; 138 KiB to reopen.
#[test]
fn a_long_text_asks_for_at_most_twice_itself() {
    let long = "o".repeat(1 << 20);
    let (_, largest) = largest_of(|| Chunked::<u64>::default().insert(1, &long));
    assert!(
        largest <= long.len() + 8 * 1024,
        "{largest} bytes asked for at once"
    );
    let mut outputs = Chunked::<u64>::default();
    for id in (2..=600).step_by(2) {
        outputs.insert(id, "status: simulated work complete\n");
    }
    let before = held().0;
    let (_, largest) = largest_of(|| {
        outputs.insert(301, &long);
        for id in (601..=700).step_by(2) {
            outputs.insert(id, "status: simulated work complete\n");
        }
    });
    let grew = (held().0 - before) as usize;
    println!("a 1 MiB output between short ones: {largest} bytes at once, {grew} retained");
    assert!(
        largest <= 2 * long.len(),
        "{largest} bytes asked for at once"
    );
    assert!(grew <= 2 * long.len(), "{grew} bytes retained");
    assert_eq!(outputs.find(301).unwrap().text(), long);

    let rsl = format!(
        "&(executable=simwork)(arguments=1)(jobname={})",
        "x".repeat(64 << 10)
    );
    let scratch = Scratch::new("long-rsl");
    let prefix = scratch.0.join("jobs.wal");
    let cfg = WalConfig {
        checkpoint_every_events: 200,
        ..WalConfig::default()
    };
    let wal = Wal::with_config(Box::new(FileWal::open(&prefix).unwrap()), cfg);
    for job_id in 1..=300 {
        let rsl = if job_id % 150 == 0 { &rsl } else { JOB_RSL };
        let submitted = WalEvent::Submitted {
            job_id,
            rsl: rsl.to_string(),
            owner: OWNER.to_string(),
            account: ACCOUNT.to_string(),
        };
        wal.commit(SimTime::ZERO, &[submitted]).unwrap();
    }
    drop(wal);
    // Lockdep (debug builds) allocates per lock class on first sight.
    drop(scratch.wal());
    let (wal, largest) = largest_of(|| scratch.wal());
    println!("a 64 KiB xRSL reopened: {largest} bytes at once");
    for job_id in [150, 300] {
        let len = wal.with_job(job_id, |job| job.rsl().len());
        assert_eq!(len, Some(rsl.len()));
    }
    assert!(
        largest <= 2 * (rsl.len() + IO_BUF),
        "{largest} bytes asked for at once"
    );
}

/// (c) the acked ⇒ durable check of the benchmark: reopen the log, fold
/// it, decode it again, fold that. The last fold copies the decoded
/// checkpoint's chunk pointers and copies only the chunk the tail writes,
/// so two job tables are alive, not three. (In the benchmark, the
/// service that wrote the log is still alive too: a third table.)
///
/// Measured at 2 000 jobs: 274 bytes in 0.95 allocations per job — two
/// tables of 40-byte rows and their texts, and the tail's events. Opening
/// the log reads the active segment's head, not the segment.
#[test]
fn reopening_the_log_shares_what_it_decodes() {
    let scratch = Scratch::new("reopen");
    let world = World::new();
    run_jobs(&world, &world.engine(scratch.wal()));

    let before = held();
    let wal = scratch.wal();
    let events = wal.events();
    let state = RecoveredState::from_events(&events);
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per reopened job: {bytes:.0} bytes, {allocs:.2} allocations");
    assert_eq!(state.jobs.len(), JOBS);
    assert!(state.unfinished().is_empty());
    assert!(
        bytes <= ceiling::REOPEN_BYTES,
        "{bytes:.0} bytes per reopened job"
    );
    assert!(
        allocs <= ceiling::REOPEN_ALLOCS,
        "{allocs:.2} allocations per reopened job"
    );
}

/// (d) the guard for the information workloads, which share only the
/// fold with all of the above: a fresh engine on the in-memory log plus
/// 10 000 queries counted the way a connection counts them. A query is
/// an atomic add; what is measured is the engine, its log and one
/// connection context. Measured: 5 215 bytes and 68 allocator requests
/// (43 in release builds); the byte ceiling is 6 KiB.
#[test]
fn a_counted_query_costs_nothing() {
    let world = World::new();
    // Lockdep (debug builds) allocates per lock class on first sight, on
    // whichever thread sees it first: let a throwaway engine be the one.
    drop((world.engine(Wal::in_memory()), ConnCtx::detached()));
    let before = (held().0, REQUESTS.with(Cell::get));
    let engine = world.engine(Wal::in_memory());
    let mut ctx = ConnCtx::detached();
    for _ in 0..10_000 {
        ctx.count_info_query(engine.wal(), ACCOUNT);
    }
    let bytes = held().0 - before.0;
    let requests = REQUESTS.with(Cell::get) - before.1;
    println!("10 000 counted queries: {bytes} bytes retained, {requests} allocator requests");
    assert!(bytes <= ceiling::QUERY_BYTES, "{bytes} bytes retained");
    assert!(
        requests <= ceiling::QUERY_REQUESTS,
        "{requests} allocator requests"
    );
    let counted = engine
        .wal()
        .with_fold(|fold| fold.accounts[ACCOUNT].info_queries);
    assert_eq!(counted, 10_000);
}

/// (e) the same record on a file log, relaxed, one per append: its frame
/// is built in a buffer sized once. Measured: 40 031 allocator requests
/// for 10 000 records — three `String` growths in the encode, one frame
/// buffer, two checkpoints; a frame buffer grown from its header to
/// header + payload would ask 50 042 times. The ceiling sits halfway.
#[test]
fn a_relaxed_file_record_builds_its_frame_in_one_request() {
    let scratch = Scratch::new("relaxed");
    let wal = scratch.wal();
    let event = WalEvent::InfoQueried {
        owner: OWNER.to_string(),
        account: ACCOUNT.to_string(),
        keywords: "Memory,CPULoad".to_string(),
    };
    let before = REQUESTS.with(Cell::get);
    for _ in 0..10_000 {
        wal.record(SimTime::ZERO, &event);
    }
    let requests = REQUESTS.with(Cell::get) - before;
    println!("10 000 relaxed file records: {requests} allocator requests");
    assert!(
        requests <= ceiling::RELAXED_REQUESTS,
        "{requests} allocator requests"
    );
}

/// The other rows of the "what a job costs" table in DESIGN §14.5: a
/// job that is still runnable, a row of the log fold by itself, and
/// cutting a checkpoint. Measured at 2 000 jobs: 719 bytes in 6.02
/// allocations per live job; 76 bytes in 0.011 allocations per fold
/// row, its rows arriving as racing submitters' do — the 40-byte row and
/// its 34-byte xRSL, in chunks of 512 that hold their texts in one
/// buffer;
/// 0.38 bytes per row to copy the table, one pointer per chunk; 8
/// allocator requests to cut a checkpoint of all 2 000 — one write
/// buffer, seven for segment paths and the file map — and 81 frame bytes
/// per job.
#[test]
fn what_the_parts_cost() {
    // A live job: its fold row, its table entry and its process.
    let scratch = Scratch::new("live");
    let world = World::new();
    let engine = world.engine(scratch.wal());
    let before = held();
    for _ in 0..JOBS {
        submit(&engine, "&(executable=simwork)(arguments=60000)");
    }
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per live job: {bytes:.0} bytes, {allocs:.2} allocations");
    assert_eq!(engine.live_jobs(), JOBS);
    assert!(
        bytes <= ceiling::LIVE_BYTES,
        "{bytes:.0} bytes retained per live job"
    );
    assert!(
        allocs <= ceiling::LIVE_ALLOCS,
        "{allocs:.2} allocations retained per live job"
    );
    drop(engine);

    // A fold row: the log by itself, submitted and finished. As racing
    // submitters do, every eighth job reaches the log after the next one
    // — the job that completes a chunk of the fold's table among them.
    let scratch = Scratch::new("rows");
    let wal = scratch.wal();
    let before = held();
    let racing = (1..=JOBS as u64).map(|id| match id % 8 {
        0 if id < JOBS as u64 => id + 1,
        1 if id > 1 => id - 1,
        _ => id,
    });
    for job_id in racing {
        let submitted = WalEvent::Submitted {
            job_id,
            rsl: JOB_RSL.to_string(),
            owner: OWNER.to_string(),
            account: ACCOUNT.to_string(),
        };
        let finished = WalEvent::Finished {
            job_id,
            state: JobStateCode::Done,
            exit_code: Some(0),
            wall_seconds: 0.001,
        };
        wal.commit(SimTime::ZERO, &[submitted, finished]).unwrap();
    }
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per fold row: {bytes:.0} bytes, {allocs:.4} allocations");
    assert!(
        bytes <= ceiling::ROW_BYTES,
        "{bytes:.0} bytes retained per fold row"
    );
    assert!(
        allocs <= ceiling::ROW_ALLOCS,
        "{allocs:.4} allocations retained per fold row"
    );

    // A checkpoint: a copy of the table shares its chunks, and the frame
    // is measured, then encoded through one bounded buffer — here the
    // first cut of the log that holds the 2 000 jobs.
    let before = held();
    let fold = wal.with_fold(CheckpointState::clone);
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per copied row: {bytes:.2} bytes, {allocs:.4} allocations");
    assert!(
        bytes <= ceiling::COPY_BYTES,
        "a table copy took {bytes:.2} bytes per row"
    );
    assert!(
        allocs <= ceiling::COPY_ALLOCS,
        "a table copy allocated per row: {allocs:.4}"
    );
    drop(wal);
    let storage = Arc::new(FileStorage::open(scratch.0.join("jobs.wal")).unwrap());
    // Lockdep (debug builds) resolves a lock's class on its first
    // acquire: let a sync of nothing be that.
    storage.sync(1).unwrap();
    let mut sink = FrameWal::open(storage).unwrap();
    let before = REQUESTS.with(Cell::get);
    sink.install_checkpoint(&fold).unwrap();
    let requests = REQUESTS.with(Cell::get) - before;
    let frame = std::fs::metadata(scratch.0.join("jobs.wal.2"))
        .unwrap()
        .len();
    println!(
        "checkpoint of {JOBS} jobs: {requests} allocator requests, {:.0} frame bytes per job",
        frame as f64 / JOBS as f64
    );
    assert!(
        requests <= ceiling::CUT_REQUESTS,
        "{requests} allocator requests to cut a checkpoint"
    );
}

/// A file log of `jobs` jobs, submitted and finished in durable batches
/// of 100, cut into a checkpoint every 3 000 events: at any size, a
/// checkpoint and a tail of 1 000 events.
fn log_of(prefix: &std::path::Path, jobs: u64) {
    let cfg = WalConfig {
        checkpoint_every_events: 3_000,
        ..WalConfig::default()
    };
    let wal = Wal::with_config(Box::new(FileWal::open(prefix).unwrap()), cfg);
    let ids: Vec<u64> = (1..=jobs).collect();
    for batch in ids.chunks(100) {
        let events: Vec<WalEvent> = batch
            .iter()
            .flat_map(|&job_id| {
                let submitted = WalEvent::Submitted {
                    job_id,
                    rsl: JOB_RSL.to_string(),
                    owner: OWNER.to_string(),
                    account: ACCOUNT.to_string(),
                };
                let finished = WalEvent::Finished {
                    job_id,
                    state: JobStateCode::Done,
                    exit_code: Some(0),
                    wall_seconds: 0.001,
                };
                [submitted, finished]
            })
            .collect();
        wal.commit(SimTime::ZERO, &events).unwrap();
    }
}

/// (f) neither a reopen nor a checkpoint cut holds the log whole. The
/// reopen streams the segment through one read buffer and keeps the
/// table it decodes; the cut encodes the table twice, the second time
/// through one write buffer. Measured: the reopen peaks 8 643 bytes above
/// what it keeps, and the cut 8 276 above where it started, at 2 000 jobs
/// and at 8 000 alike — the buffer and a few hundred bytes. The ceiling
/// is a quarter above the buffer, whatever the table.
#[test]
fn a_reopen_and_a_cut_peak_at_a_buffer_not_at_the_table() {
    const CEILING: isize = ceiling::PEAK_BYTES;
    for jobs in [2_000, 8_000] {
        let scratch = Scratch::new(&format!("peak{jobs}"));
        let prefix = scratch.0.join("jobs.wal");
        log_of(&prefix, jobs);
        // Lockdep (debug builds) allocates per lock class on first sight:
        // let a first reopen be that.
        drop(scratch.wal());
        let before = held().0;
        let (wal, peak) = peak_of(|| scratch.wal());
        let retained = held().0 - before;
        let reopen = peak - retained;
        assert_eq!(wal.with_fold(|fold| fold.state.jobs.len()), jobs as usize);
        let fold = wal.with_fold(CheckpointState::clone);
        drop(wal);

        let mut sink = FileWal::open(&prefix).unwrap();
        let (reclaimed, cut) = peak_of(|| sink.install_checkpoint(&fold).unwrap());
        assert_eq!(reclaimed, 1);
        println!(
            "{jobs} jobs: the reopen peaks {reopen} bytes above the {retained} it keeps, \
             a checkpoint cut {cut} bytes above its start"
        );
        assert!(
            reopen <= CEILING,
            "{jobs} jobs: reopen peaks {reopen} bytes above"
        );
        assert!(cut <= CEILING, "{jobs} jobs: a cut peaks {cut} bytes above");
    }
}

/// (g) what `JobEngine::finished` does per finished job: look up
/// `jobs.done` and `jobs.wall` by name. A lookup of a known instrument
/// asks the allocator for nothing; only creating one copies its name.
#[test]
fn looking_up_a_known_instrument_allocates_nothing() {
    let world = World::new();
    let engine = world.engine(Wal::in_memory());
    let metrics = engine.metrics();
    let (done, wall) = (metrics.counter("jobs.done"), metrics.histogram("jobs.wall"));
    let before = REQUESTS.with(Cell::get);
    for _ in 0..1_000 {
        assert!(Arc::ptr_eq(&done, &metrics.counter("jobs.done")));
        assert!(Arc::ptr_eq(&wall, &metrics.histogram("jobs.wall")));
    }
    let requests = REQUESTS.with(Cell::get) - before;
    println!("2 000 known-instrument lookups: {requests} allocator requests");
    assert_eq!(requests, 0);
}

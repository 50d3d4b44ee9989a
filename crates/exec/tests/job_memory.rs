//! Memory is a contract, not an RSS reading.
//!
//! A long-running InfoGram is restarted from its log (§6, §6.1), so what
//! a *finished* job keeps costing — its row in the log fold, and what it
//! printed — decides how long the service can stay up. These tests
//! count bytes and allocations with their own allocator and hold them
//! under fixed ceilings; DESIGN §14 quotes the figures.
//!
//! The counters are per thread (the engine and the log run on the
//! caller's thread: the group-commit leader is the committer), so the
//! tests can run in parallel. The ceilings hold in debug and release
//! builds alike: lockdep allocates per lock *class*, not per job.

// Bench/example/test harness: panic-on-failure is the error policy here.
#![allow(clippy::unwrap_used)]

use infogram_exec::wal::{CheckpointState, FileWal, RecoveredState, Wal, WalEvent};
use infogram_exec::{ConnCtx, EngineConfig, ForkBackend, JobEngine};
use infogram_host::commands::{ChargeMode, CommandRegistry};
use infogram_host::machine::SimulatedHost;
use infogram_proto::message::JobStateCode;
use infogram_rsl::XrslRequest;
use infogram_sim::metrics::MetricSet;
use infogram_sim::{ManualClock, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

thread_local! {
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static LIVE_ALLOCS: Cell<isize> = const { Cell::new(0) };
    /// Calls that obtained memory (`alloc`, `realloc`), ever.
    static REQUESTS: Cell<isize> = const { Cell::new(0) };
}

fn note(bytes: isize, allocs: isize) {
    // `try_with`: a thread being torn down may free after its locals
    // are gone; those frees are nobody's measurement.
    let _ = LIVE_BYTES.try_with(|c| c.set(c.get() + bytes));
    let _ = LIVE_ALLOCS.try_with(|c| c.set(c.get() + allocs));
    if bytes > 0 {
        let _ = REQUESTS.try_with(|c| c.set(c.get() + 1));
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
            note(layout.size() as isize, 1);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout` (see `alloc`).
        unsafe { System.dealloc(ptr, layout) };
        note(-(layout.size() as isize), -1);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            note(new_size as isize - layout.size() as isize, 0);
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
/// and the host's process table while it can still change, in the log's
/// row afterwards.
///
/// Measured at 2 000 jobs: 231 bytes in 2.27 allocations per job (the
/// parent commit: 533 bytes in 3.61). The ceilings sit a quarter above.
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
    assert!(bytes <= 290.0, "{bytes:.0} bytes retained per finished job");
    assert!(
        allocs <= 2.9,
        "{allocs:.2} allocations retained per finished job"
    );

    assert_eq!(engine.live_jobs(), 0, "a finished job stayed in the table");
    assert_eq!(processes.running_count(), 0);
    assert!(processes.is_empty(), "an exited process was not reaped");
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
    // recovery is the three jobs in flight. Measured: 2 250 bytes. (The
    // parent commit re-inserts a row per finished job: a 4 096-slot
    // table of 88-byte buckets.)
    drop(engine);
    let engine = world.engine(scratch.wal());
    let before = held();
    let restarted = engine.recover();
    let bytes = held().0 - before.0;
    println!("recovering {JOBS} finished jobs + 3 in flight: {bytes} bytes retained");
    assert_eq!(restarted, in_flight);
    assert_eq!(engine.live_jobs(), 3);
    assert!(bytes <= 8 * 1024, "{bytes} bytes retained by recover()");
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
/// engine's output map, which would be 50 bytes more. Measured at 2 000
/// jobs: 120 bytes in 1.26 allocations per job — the row's xRSL, and
/// 0.26 that is no job's: the engine's event ring of 256 filling up.
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
    assert!(bytes <= 150.0, "{bytes:.0} bytes retained per silent job");
    assert!(
        allocs <= 1.57,
        "{allocs:.2} allocations retained per silent job"
    );
}

/// (c) the acked ⇒ durable check of the benchmark: reopen the log, fold
/// it, decode it again, fold that — three job tables alive at once.
///
/// Measured at 2 000 jobs: 465 bytes in 2.93 allocations per job (489
/// in 3.04 while each of the three folds also built an id index).
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
    assert!(allocs <= 3.8, "{allocs:.2} allocations per reopened job");
}

/// (d) the guard for the information workloads, which share only the
/// fold with all of the above: a fresh engine on the in-memory log plus
/// 10 000 queries counted the way a connection counts them. A query is
/// an atomic add; what is measured is the engine, its log and one
/// connection context.
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
    assert!(bytes <= 24 * 1024, "{bytes} bytes retained");
    assert!(requests <= 128, "{requests} allocator requests");
    let counted = engine
        .wal()
        .with_fold(|fold| fold.accounts[ACCOUNT].info_queries);
    assert_eq!(counted, 10_000);
}

/// (e) the same record on a file log, relaxed, one per append: its frame
/// is built in a buffer sized once. Measured: 40 037 allocator requests
/// for 10 000 records — three `String` growths in the encode, one frame
/// buffer, two checkpoints — where the parent commit asks 50 042 times
/// (the frame buffer grew from its header to header + payload). The
/// ceiling sits halfway.
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
    assert!(requests <= 45_000, "{requests} allocator requests");
}

/// The other rows of the "what a job costs" table in DESIGN §14.5: a
/// job that is still runnable, a row of the log fold by itself, and
/// cutting a checkpoint. Measured at 2 000 jobs: 916 bytes in 8.43
/// allocations per live job (its ceilings are the ones it had at 967
/// and 8.60: a live job is not what is being made cheaper, it only must
/// not rise); 130 bytes in
/// 1.00 allocations per fold row (72 bytes and no allocation to copy
/// one); 30 allocator requests to cut a checkpoint of all 2 000 (81
/// frame bytes per job). Ceilings a quarter above, as everywhere in this
/// file.
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
    assert!(bytes <= 1210.0, "{bytes:.0} bytes retained per live job");
    assert!(
        allocs <= 10.8,
        "{allocs:.2} allocations retained per live job"
    );
    drop(engine);

    // A fold row: the log by itself, submitted and finished.
    let scratch = Scratch::new("rows");
    let wal = scratch.wal();
    let before = held();
    for job_id in 1..=JOBS as u64 {
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
    println!("per fold row: {bytes:.0} bytes, {allocs:.2} allocations");
    assert!(bytes <= 163.0, "{bytes:.0} bytes retained per fold row");
    assert!(
        allocs <= 1.25,
        "{allocs:.2} allocations retained per fold row"
    );

    // A checkpoint: a copy of the table shares its text, and the frame
    // is encoded once into one buffer that grows in place.
    let before = held();
    let fold = wal.with_fold(CheckpointState::clone);
    let (bytes, allocs) = per_job(before, JOBS);
    println!("per copied row: {bytes:.0} bytes, {allocs:.4} allocations");
    assert!(
        allocs <= 0.01,
        "a table copy allocated per row: {allocs:.4}"
    );
    let mut sink = FileWal::open(scratch.0.join("cut.wal")).unwrap();
    let before = REQUESTS.with(Cell::get);
    sink.install_checkpoint(&fold).unwrap();
    let requests = REQUESTS.with(Cell::get) - before;
    let frame = std::fs::metadata(scratch.0.join("cut.wal.2"))
        .unwrap()
        .len();
    println!(
        "checkpoint of {JOBS} jobs: {requests} allocator requests, {:.0} frame bytes per job",
        frame as f64 / JOBS as f64
    );
    assert!(
        requests <= 64,
        "{requests} allocator requests to cut a checkpoint"
    );
}

//! e21 — the wire budget.
//!
//! One run = one workload in one process: set-up (timed several times
//! over, `setup_s` is the median), a 1 s untimed warm-up, twenty measured
//! slices, output checks, and — with `--trace 1` — a traced pass over the
//! real socket plus a replay of the same requests through the public
//! functions of the layers the workload crosses, which together fill the
//! budget table. See `README.md`.

mod budget;
mod gen;
mod layers;
mod load;
mod report;
mod stats;
mod trace;
mod workloads;
mod world;

use gen::{Digest, Seeds, JOB_RSL};
use load::{drive, phase_result, ClientLog, Op, Phase, PhaseResult};
use report::{json_str, peak_rss_mib, Metrics, Provenance, END_TO_END, PER_LAYER, SPEED};
use stats::{median, percentile, Stat};
use trace::{print_budget, stage_sum_us, SpanBuf};
use workloads::{
    sequence, ChurnOp, InfoOp, InfoPlan, JobOp, TracedChurnOp, TracedInfoOp, TracedJobOp, Workload,
};
use world::{ScratchDir, WalKind, World};

use infogram_client::InfoGramClient;
use infogram_exec::wal::{FileWal, RecoveredState, Wal};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Seconds one run measures; `BENCHMARK.json` carries the same number.
pub const RUN_SECONDS: u64 = 20;
/// Measured slices of a time-boxed run. A metric is the median of its
/// per-slice values.
const TIMED_SLICES: usize = 20;
/// Measured slices of a count-boxed run (fewer and larger: a p99 wants
/// ten samples beyond it, and the job count is capped, see below).
const COUNTED_SLICES: usize = 8;
/// Untimed warm-up before the first slice.
const WARMUP: Duration = Duration::from_secs(1);
/// Complete set-ups timed before the warm-up. `setup_s` is their median;
/// the last one is the world the run measures.
const SETUPS: usize = 15;
/// `job_submit` is count-boxed, so that a faster build is not charged with
/// a larger job table: every run submits the same number of jobs (all
/// clients together). 500 + 8 × 1000 keeps the run clear of the seed's
/// checkpoint cliff: once the serialized job table outgrows one 1 MiB log
/// segment (≈ 11 000 jobs), every append re-writes it and a slice that
/// took 0.5 s takes a minute.
const JOB_WARMUP_ITERS: usize = 500;
/// Iterations per measured `job_submit` slice, all clients together.
const JOB_SLICE_ITERS: usize = 1_000;

struct Args {
    workload: Workload,
    seed: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut trace = false;
    let mut out = PathBuf::from("benchmark/out");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::from_name(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            // Part of the command line BENCHMARK.json's driver uses. The
            // run length is a constant of the benchmark, not a setting.
            "--seconds" => {
                if value()?.parse() != Ok(RUN_SECONDS) {
                    return Err(format!(
                        "a run measures {RUN_SECONDS} s; --seconds cannot change that"
                    ));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not '{v}'")),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload <name> is required")?,
        seed,
        trace,
        out,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e21-wire-budget: {e}");
            eprintln!(
                "usage: e21-wire-budget --workload <{}> [--seed N] [--trace 0|1] [--out DIR]",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("e21-wire-budget: {e}");
            ExitCode::from(2)
        }
    }
}

/// Service counters read at every phase boundary.
#[derive(Debug, Clone, Copy, Default)]
struct Counters {
    net_bytes: u64,
    gram_requests: u64,
    hits: u64,
    misses: u64,
    provider_execs: u64,
    coalesced: u64,
    fsyncs: u64,
    checkpoints: u64,
    groups: u64,
    group_events: f64,
}

fn counters(world: &World) -> Counters {
    let m = &world.metrics;
    let info = world.service.info_service();
    let (mut hits, mut misses) = (0, 0);
    for k in info.keywords() {
        hits += m.counter_value(&format!("info.hits.{k}"));
        misses += m.counter_value(&format!("info.misses.{k}"));
    }
    let group = m.recorder("wal.group_size");
    Counters {
        net_bytes: world.transport.metrics().counter_value("net.bytes"),
        gram_requests: m.counter_value("gram.requests"),
        hits,
        misses,
        provider_execs: info.entries().iter().map(|e| e.execution_count()).sum(),
        coalesced: m.counter_value("info.coalesced"),
        fsyncs: m.counter_value("wal.fsyncs"),
        checkpoints: m.counter_value("wal.checkpoints"),
        groups: group.count(),
        group_events: group.mean() * group.count() as f64,
    }
}

/// Set-up number `k` of this process: a started service with `clients`
/// authenticated connections and a full cache, the log it runs on (a
/// fresh one per set-up), and how long all of that took.
fn set_up(
    seeds: &Seeds,
    workload: Workload,
    scratch: &Path,
    clients: usize,
    k: usize,
) -> Result<(World, Vec<InfoGramClient>, WalKind, f64), String> {
    let wal = match workload {
        Workload::JobSubmit => WalKind::File(scratch.join(format!("wal-{k}")).join("jobs.wal")),
        _ => WalKind::Memory,
    };
    let t0 = Instant::now();
    let world = World::start(seeds, &wal);
    let mut conns = Vec::with_capacity(clients);
    for _ in 0..clients {
        conns.push(
            world
                .connect()
                .map_err(|e| format!("set-up connect: {e}"))?,
        );
    }
    world.prime(&mut conns[0]);
    let secs = t0.elapsed().as_secs_f64();
    Ok((world, conns, wal, secs))
}

/// One `job_submit` client's submit and status latencies, by operation
/// number.
type JobSplit = (Vec<u32>, Vec<u32>);

/// What the warm-up and the measured slices of a run produced.
struct Measured {
    logs: Vec<ClientLog>,
    /// One snapshot per phase boundary: before the warm-up, before slice
    /// 1, …, after the last slice.
    snaps: Vec<Counters>,
    requests_sent: u64,
    /// `job_submit`: each client's split latencies, and every
    /// acknowledged job id.
    job_split: Vec<JobSplit>,
    acked: Vec<u64>,
}

/// Drive the untraced clients through `phases`. At every phase boundary,
/// with the clients parked, the service's counters are read.
fn measure(
    workload: Workload,
    world: &World,
    plan: &InfoPlan,
    conns: Vec<InfoGramClient>,
    seqs: &[Vec<u8>],
    phases: &[Phase],
) -> Measured {
    let snapshot = || counters(world);
    let cap = workload.samples_per_client_second();
    let (mut job_split, mut acked) = (Vec::new(), Vec::new());
    let (logs, snaps, requests_sent) = match workload {
        Workload::InfoHit | Workload::InfoWide | Workload::InfoRefresh => {
            let mut ops: Vec<InfoOp> = conns
                .into_iter()
                .zip(seqs)
                .map(|(c, s)| InfoOp::new(world, plan, c, s))
                .collect();
            let (logs, snaps) = drive(&mut ops, phases, cap, &snapshot);
            (logs, snaps, ops.iter().map(Op::requests_sent).sum())
        }
        Workload::JobSubmit => {
            let iters: usize = phases
                .iter()
                .map(|p| match p {
                    Phase::Counted(n) => *n,
                    Phase::Timed(_) => 0,
                })
                .sum();
            let mut ops: Vec<JobOp> = conns.into_iter().map(|c| JobOp::new(c, iters)).collect();
            let (logs, snaps) = drive(&mut ops, phases, cap, &snapshot);
            let sent = ops.iter().map(Op::requests_sent).sum();
            for op in ops {
                acked.extend_from_slice(&op.acked);
                job_split.push((op.submit_ns, op.status_ns));
            }
            (logs, snaps, sent)
        }
        Workload::ConnectChurn => {
            drop(conns);
            let mut ops: Vec<ChurnOp> = seqs.iter().map(|_| ChurnOp::new(world, plan)).collect();
            let (logs, snaps) = drive(&mut ops, phases, cap, &snapshot);
            (logs, snaps, ops.iter().map(Op::requests_sent).sum())
        }
    };
    Measured {
        logs,
        snaps,
        requests_sent,
        job_split,
        acked,
    }
}

/// Acked ⇒ durable: reopen the log from disk and count the acknowledged
/// jobs that recovery does not rebuild.
fn jobs_lost(wal_path: &Path, acked: &[u64]) -> Result<usize, String> {
    let sink = FileWal::open(wal_path.to_path_buf()).map_err(|e| format!("reopen WAL: {e}"))?;
    let recovered: HashSet<u64> = RecoveredState::from_events(&Wal::new(Box::new(sink)).events())
        .jobs
        .iter()
        .map(|j| j.job_id)
        .collect();
    Ok(acked.iter().filter(|id| !recovered.contains(id)).count())
}

/// Total size of the files directly inside `dir`.
fn dir_size(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn run(args: &Args) -> Result<bool, String> {
    let workload = args.workload;
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get());
    let seeds = Seeds::split(args.seed);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let scratch = ScratchDir::create(&args.out, "e21").map_err(|e| format!("scratch dir: {e}"))?;
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let (world, conns, wal) = loop {
        let (world, conns, wal, secs) =
            set_up(&seeds, workload, scratch.path(), clients, setup_secs.len())?;
        setup_secs.push(secs);
        if setup_secs.len() == SETUPS {
            break (world, conns, wal);
        }
        drop(conns);
        world.service.shutdown();
    };

    // ---- generated inputs and their digest ----
    let plan = InfoPlan::build(workload, &world);
    let seqs: Vec<Vec<u8>> = (0..clients)
        .map(|c| sequence(&plan, seeds.client(c), 1 << 16))
        .collect();
    let mut digest = Digest::default();
    digest.update_str(workload.name());
    digest.update_str(&world.user.chain[0].subject_key.0.to_string());
    for f in &world.fixture {
        digest.update_str(&f.content);
    }
    match workload {
        Workload::JobSubmit => digest.update_str(JOB_RSL),
        _ => plan.digest(&mut digest),
    }
    for s in &seqs {
        digest.update(s);
    }

    // ---- phases ----
    // A traced run spends half its time on untraced slices (the baseline
    // its overhead is judged against), a quarter on the traced pass, and
    // the rest on the per-layer replay; its count-boxed slices are halved
    // likewise.
    let halve = if args.trace { 2 } else { 1 };
    let n_slices = match workload {
        Workload::JobSubmit => COUNTED_SLICES,
        _ => TIMED_SLICES,
    };
    let slice = Duration::from_secs(RUN_SECONDS) / (halve * n_slices) as u32;
    let mut phases = Vec::with_capacity(n_slices + 1);
    match workload {
        Workload::JobSubmit => {
            phases.push(Phase::Counted(JOB_WARMUP_ITERS / clients));
            phases.extend(vec![
                Phase::Counted(JOB_SLICE_ITERS / halve / clients);
                n_slices
            ]);
        }
        _ => {
            phases.push(Phase::Timed(WARMUP));
            phases.extend(vec![Phase::Timed(slice); n_slices]);
        }
    }

    // ---- the measured run (phase 0 is the warm-up) ----
    let measured = measure(workload, &world, &plan, conns, &seqs, &phases);
    let slices: Vec<PhaseResult> = (1..=n_slices)
        .map(|k| phase_result(&measured.logs, k))
        .collect();
    let attempted: u64 = slices.iter().map(|s| s.attempted).sum();
    let mut failed: u64 = slices.iter().map(|s| s.failed).sum();
    let per_slice =
        |f: &dyn Fn(&PhaseResult) -> f64| -> Vec<f64> { slices.iter().map(f).collect() };
    let throughput = per_slice(&|s| (s.attempted - s.failed) as f64 / s.wall.as_secs_f64());
    let p50 = per_slice(&|s| percentile(&s.sorted_ns, 0.50) as f64 / 1e3);
    let p99 = per_slice(&|s| percentile(&s.sorted_ns, 0.99) as f64 / 1e3);
    let bytes_per_op: Vec<f64> = (0..n_slices)
        .map(|k| {
            (measured.snaps[k + 2].net_bytes - measured.snaps[k + 1].net_bytes) as f64
                / slices[k].attempted.max(1) as f64
        })
        .collect();
    let ok_ops = attempted - failed.min(attempted);
    let speed = |per_slice: &[f64]| Stat::of_slices(per_slice, ok_ops);
    let unsampled: u64 = slices.iter().map(|s| s.unsampled).sum();

    // ---- output checks beyond the per-reply ones ----
    let mut problems = Vec::new();
    let before_slices = measured.snaps[1];
    let last = measured.snaps[n_slices + 1];
    let counted = last.gram_requests - measured.snaps[0].gram_requests;
    if counted != measured.requests_sent {
        problems.push(format!(
            "service counted {counted} requests, clients sent {}",
            measured.requests_sent
        ));
    }
    if slices.iter().any(|s| s.sorted_ns.len() < 100) {
        problems.push("a slice completed fewer than 100 operations".to_string());
    }
    let mut wal_bytes = 0u64;
    if let WalKind::File(path) = &wal {
        world.service.shutdown();
        wal_bytes = dir_size(path.parent().expect("WAL path has a directory"));
        let lost = jobs_lost(path, &measured.acked)?;
        if lost > 0 {
            failed += lost as u64;
            problems.push(format!(
                "{lost} acknowledged jobs are not in the recovered log"
            ));
        }
    } else if !args.trace {
        world.service.shutdown();
    }

    let provenance = Provenance::collect();
    let slice_size = match phases[1] {
        Phase::Timed(d) => format!("{:.2}s", d.as_secs_f64()),
        Phase::Counted(n) => format!("{} iterations", n * clients),
    };
    println!(
        "e21 {} seed={} trace={} seconds={RUN_SECONDS} clients={clients} slices={n_slices}x{slice_size} warm-up={}",
        workload.name(),
        args.seed,
        args.trace as u8,
        match phases[0] {
            Phase::Timed(d) => format!("{}s", d.as_secs()),
            Phase::Counted(n) => format!("{} iterations", n * clients),
        }
    );
    println!(
        "git_sha={} nproc={} kernel={} rustc={}",
        provenance.git_sha, provenance.nproc, provenance.kernel, provenance.rustc
    );
    println!("workload_digest={}", digest.hex());
    println!("closed loop, {clients} clients, loopback TCP (127.0.0.1; no real link crossed)");
    for (k, s) in slices.iter().enumerate() {
        println!(
            "slice {:>2}: {} ops in {:.3} s = {:.0} ops/s, p50 {:.2} µs, p99 {:.2} µs",
            k + 1,
            s.attempted,
            s.wall.as_secs_f64(),
            throughput[k],
            p50[k],
            p99[k]
        );
    }
    if unsampled > 0 {
        println!(
            "NOTE: {unsampled} of {ok_ops} latencies were not stored (sample buffers full): the \
             percentiles come from the first operations of each slice; raise \
             Workload::samples_per_client_second"
        );
    }

    let mut speed_metrics = Metrics::new(&SPEED);
    speed_metrics.set("throughput_rps", speed(&throughput));
    speed_metrics.set("latency_p50_us", speed(&p50));
    speed_metrics.set("latency_p99_us", speed(&p99));
    let mut metrics;
    let mut budget_json = String::new();
    if !args.trace {
        metrics = Metrics::new(&END_TO_END);
        metrics.set(
            "wire_bytes_per_op",
            Stat::of_slices(&bytes_per_op, attempted),
        );
        metrics.set("peak_rss_mb", Stat::single(peak_rss_mib(), 1));
        metrics.set(
            "setup_s",
            Stat::of_slices(&setup_secs, setup_secs.len() as u64),
        );
    } else {
        metrics = Metrics::new(&PER_LAYER);
        for (name, _, stat) in speed_metrics.rows() {
            metrics.set(name, stat);
        }
        // Counts over the untraced slices, taken before anything else
        // touched the service.
        let d = |f: fn(&Counters) -> u64| (f(&last) - f(&before_slices)) as f64;
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        // A coalesced refresh waited for a provider run: the service counts
        // it as a hit, the workload's claim ("no query is served from the
        // cache") does not.
        let queries = d(|c| c.hits) + d(|c| c.misses);
        metrics.set(
            "info.hit_ratio",
            Stat::single(
                ratio(d(|c| c.hits) - d(|c| c.coalesced), queries),
                queries as u64,
            ),
        );
        metrics.set(
            "info.provider_execs",
            Stat::single(d(|c| c.provider_execs), 1),
        );
        metrics.set("info.coalesced", Stat::single(d(|c| c.coalesced), 1));
        metrics.set(
            "exec.wal_group_size",
            Stat::single(
                ratio(
                    last.group_events - before_slices.group_events,
                    d(|c| c.groups),
                ),
                d(|c| c.groups) as u64,
            ),
        );
        metrics.set(
            "exec.wal_fsyncs_per_submit",
            Stat::single(ratio(d(|c| c.fsyncs), attempted as f64), attempted),
        );
        metrics.set(
            "exec.wal_bytes_per_job",
            Stat::single(
                ratio(wal_bytes as f64, measured.acked.len() as f64),
                measured.acked.len() as u64,
            ),
        );
        metrics.set("exec.checkpoints", Stat::single(d(|c| c.checkpoints), 1));
        metrics.set(
            "exec.growth_ratio",
            Stat::single(p50[n_slices - 1] / p50[0], attempted),
        );
        let p999 = per_slice(&|s| percentile(&s.sorted_ns, 0.999) as f64 / 1e3);
        metrics.set("client.latency_p999_us", speed(&p999));
        // p50 per slice of one half of the job iteration (0 elsewhere).
        let split = |pick: fn(&JobSplit) -> &Vec<u32>| -> Stat {
            let per: Vec<f64> = (1..=n_slices)
                .map(|k| {
                    let mut v: Vec<u32> = measured
                        .job_split
                        .iter()
                        .zip(&measured.logs)
                        .flat_map(|(s, log)| {
                            let m = &log.marks[k];
                            pick(s)[m.op_lo..m.op_hi].iter().copied()
                        })
                        .collect();
                    v.sort_unstable();
                    percentile(&v, 0.5) as f64 / 1e3
                })
                .collect();
            speed(&per)
        };
        metrics.set("client.submit_p50_us", split(|s| &s.0));
        metrics.set("client.status_p50_us", split(|s| &s.1));

        // `job_submit` stopped its service for the durability check: its
        // traced pass and replay run against a fresh one on a fresh log.
        let fresh;
        let live = if matches!(wal, WalKind::File(_)) {
            let (w, conns, _, _) = set_up(&seeds, workload, scratch.path(), clients, SETUPS)?;
            drop(conns);
            fresh = w;
            &fresh
        } else {
            &world
        };
        // A quarter of the run, in slices like the untraced ones.
        let traced = traced_pass(workload, live, &plan, &seqs, &vec![phases[1]; n_slices / 2])?;
        failed += traced.failed;
        print_stages(
            &traced.buf,
            "traced wire pass (hand-rolled client, real socket)",
        );
        let mut buf = traced.buf;
        budget::measure_layers(
            &mut buf,
            workload,
            live,
            &seeds,
            scratch.path(),
            clients,
            &mut metrics,
        );
        live.service.shutdown();

        let untraced_p50 = speed(&p50).value;
        let rows = budget::rows(&buf, workload);
        print_budget(workload.name(), &rows, untraced_p50);
        let sum = stage_sum_us(&rows);
        metrics.set("trace.stage_sum_us", Stat::single(sum, 1));
        metrics.set(
            "trace.unaccounted_share",
            Stat::single(1.0 - sum / untraced_p50, 1),
        );
        metrics.set(
            "trace.overhead_share",
            Stat::single(
                (traced.p50_us - untraced_p50) / untraced_p50,
                traced.samples,
            ),
        );
        let all_attempted = attempted + traced.attempted;
        metrics.set(
            "failed_share",
            Stat::single(failed as f64 / all_attempted.max(1) as f64, all_attempted),
        );
        budget_json = rows
            .iter()
            .map(|r| {
                format!(
                    "{{\"stage\": {}, \"depth\": {}, \"p50_us\": {}, \"p99_us\": {}, \"self_us\": {}}}",
                    json_str(&r.stage),
                    r.depth,
                    r.p50_us,
                    r.p99_us,
                    r.self_us
                )
            })
            .collect::<Vec<_>>()
            .join(",\n    ");
        let trace_path = args.out.join(format!("trace_{}.json", workload.name()));
        let header = format!(
            "\"workload\": {}, \"seed\": {}, {}",
            json_str(workload.name()),
            args.seed,
            provenance.json()
        );
        buf.write_json(&trace_path, &header)
            .map_err(|e| format!("{}: {e}", trace_path.display()))?;
        println!("trace written to {}", trace_path.display());
    }
    if !metrics.all_finite() || !speed_metrics.all_finite() {
        problems.push("a metric is not a finite number".to_string());
    }
    for p in &problems {
        println!("CHECK FAILED: {p}");
    }
    let correct = problems.is_empty() && failed == 0;

    println!();
    println!("attempted={attempted} failed={failed} correct={correct}");
    if !args.trace {
        speed_metrics.print();
    }
    metrics.print();
    let result_path = args.out.join(format!(
        "result_{}_seed{}_trace{}.json",
        workload.name(),
        args.seed,
        args.trace as u8
    ));
    let file = format!(
        "{{\n  \"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {}, \"clients\": {clients},\n  \
         \"slices\": {n_slices}, \"slice_seconds\": {}, \"warmup_seconds\": {}, \"setups_timed\": {}, \"unsampled\": {unsampled},\n  \
         {},\n  \"workload_digest\": {}, \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed},\n  \
         \"metrics\": {{\n    {}\n  }},\n  \"speed\": {{\n    {}\n  }},\n  \"budget\": [\n    {budget_json}\n  ]\n}}\n",
        json_str(workload.name()),
        args.seed,
        args.trace as u8,
        RUN_SECONDS,
        slice.as_secs_f64(),
        WARMUP.as_secs(),
        setup_secs.len(),
        provenance.json(),
        json_str(&digest.hex()),
        metrics.json_full(),
        speed_metrics.json_full(),
    );
    std::fs::write(&result_path, file).map_err(|e| format!("{}: {e}", result_path.display()))?;
    drop(scratch);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.json_brief()
    );
    Ok(correct)
}

/// Print p50/p99/count of every stage in `buf`.
fn print_stages(buf: &SpanBuf, title: &str) {
    println!();
    println!("{title}");
    println!(
        "{:<34} {:>10} {:>10} {:>9}",
        "span", "p50 µs", "p99 µs", "n"
    );
    for name in buf.stage_names() {
        let s = buf.stage(name);
        println!(
            "{name:<34} {:>10.3} {:>10.3} {:>9}",
            s.p50_ns / 1e3,
            s.p99_ns / 1e3,
            s.samples
        );
    }
}

/// What the traced pass over the real socket produced.
struct Traced {
    buf: SpanBuf,
    p50_us: f64,
    samples: u64,
    attempted: u64,
    failed: u64,
}

/// The traced pass: the same closed loop, driven by the hand-rolled
/// clients over fresh connections through `phases`. Its p50 is the median
/// of the per-slice medians, as the untraced one it is compared with.
fn traced_pass(
    workload: Workload,
    world: &World,
    plan: &InfoPlan,
    seqs: &[Vec<u8>],
    phases: &[Phase],
) -> Result<Traced, String> {
    let epoch = Instant::now();
    let cap = workload.samples_per_client_second();
    let (logs, bufs): (Vec<ClientLog>, Vec<SpanBuf>) = match workload {
        Workload::InfoHit | Workload::InfoWide | Workload::InfoRefresh => {
            let mut ops = Vec::with_capacity(seqs.len());
            for (c, s) in seqs.iter().enumerate() {
                ops.push(TracedInfoOp::connect(world, plan, c, s, epoch)?);
            }
            let (logs, _) = drive(&mut ops, phases, cap, &|| ());
            (logs, ops.into_iter().map(|o| o.buf).collect())
        }
        Workload::JobSubmit => {
            let mut ops = Vec::with_capacity(seqs.len());
            for c in 0..seqs.len() {
                ops.push(TracedJobOp::connect(world, c, epoch)?);
            }
            let (logs, _) = drive(&mut ops, phases, cap, &|| ());
            (logs, ops.into_iter().map(|o| o.buf).collect())
        }
        Workload::ConnectChurn => {
            let mut ops: Vec<TracedChurnOp> = (0..seqs.len())
                .map(|c| TracedChurnOp::new(world, plan, c, epoch))
                .collect();
            let (logs, _) = drive(&mut ops, phases, cap, &|| ());
            (logs, ops.into_iter().map(|o| o.buf).collect())
        }
    };
    let slices: Vec<PhaseResult> = (0..phases.len()).map(|k| phase_result(&logs, k)).collect();
    let p50: Vec<f64> = slices
        .iter()
        .map(|s| percentile(&s.sorted_ns, 0.5) as f64 / 1e3)
        .collect();
    let mut buf = SpanBuf::new(epoch);
    for b in bufs {
        buf.absorb(b);
    }
    Ok(Traced {
        buf,
        p50_us: median(&p50),
        samples: slices.iter().map(|s| s.sorted_ns.len() as u64).sum(),
        attempted: slices.iter().map(|s| s.attempted).sum(),
        failed: slices.iter().map(|s| s.failed).sum(),
    })
}

//! The `hub_sweeps` workload: one `axi4mlir-hub` (with `--cache-dir` on
//! a fresh copy of a seeded cache fixture) fanning out to one
//! `axi4mlir-worker`, driven by a closed loop of two `HubClient`
//! connections over the `axi4mlir-hub/v1` wire protocol.

use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use axi4mlir_core::driver::Session;
use axi4mlir_core::explore::{
    measure, shard, wire, CandidateKey, ExploreReport, Explorer, Fidelity, JobSpec,
};
use axi4mlir_hub::HubClient;
use axi4mlir_interp::InterpScratch;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::axi::LoopbackAccelerator;
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::json::JsonValue;
use axi4mlir_support::proto::{write_frame, Frame, FrameReader};

use crate::stats::{self, Outcome, Tally};
use crate::trace::{Span, Tracer};

/// Load-generator connections (and threads), one per core of a two-core
/// host.
const CLIENTS: usize = 2;

/// Hub and worker set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Repetitions of each direct probe in a traced run.
const PROBES: usize = 10;

/// Jobs in one client round (see [`next_job`]).
const ROUND_JOBS: usize = 6;

/// Wall time of the large job, and of one round of both clients, on a
/// two-core Xeon host; they size a run's fixed number of rounds.
const LARGE_S: f64 = 9.0;
const ROUND_S: f64 = 1.05;

/// The deterministic part of one report: its evaluations' keys.
type ReportKey = Vec<(CandidateKey, PerfCounters, u64, bool)>;

fn report_key(report: &ExploreReport) -> ReportKey {
    report.evaluations.iter().map(|e| e.deterministic_key()).collect()
}

fn matmul(dims: (i64, i64, i64), accels: &[&str]) -> JobSpec {
    JobSpec {
        dims: Some(dims),
        accels: accels.iter().map(|a| (*a).to_owned()).collect(),
        ..JobSpec::default()
    }
}

/// The shapes the fixture caches, from tens to about a hundred
/// candidates. Each is one shard, and the hub parses every shard at
/// start-up in time that grows with the square of its size, so the
/// fixture stays small enough for `setup_s` to be more than one parse.
fn cached_shapes() -> Vec<JobSpec> {
    vec![
        matmul((16, 16, 16), &["v4_8"]),  // 32 candidates
        matmul((32, 32, 32), &["v4_16"]), // 32
        matmul((48, 48, 48), &["v4_16"]), // 32
        matmul((64, 64, 64), &["v4_16"]), // 104
    ]
}

/// The one large space of a run (1040 candidates), never cached by the
/// fixture: it is simulated once per run.
fn large_shape() -> JobSpec {
    JobSpec { sweep_options: true, ..matmul((64, 64, 64), &["v1_8", "v2_8", "v3_8", "v4_8"]) }
}

fn with_seed(spec: &JobSpec, seed: u64) -> JobSpec {
    JobSpec { seed: Some(seed), ..spec.clone() }
}

/// What kind of job an op submits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobKind {
    /// A spec the fixture already caches.
    Read,
    /// A cached shape under a new seed: every candidate is simulated and
    /// the shape's shard grows.
    Write,
    /// The large space.
    Large,
}

/// The seeds one run uses, all derived from the benchmark seed.
#[derive(Clone, Copy, Debug)]
pub struct Seeds {
    /// Data seed of every fixture (cached) spec.
    pub fixture: u64,
    /// Data seed of the large job.
    pub large: u64,
    /// First write seed; writes count up from it.
    pub write_base: u64,
}

impl Seeds {
    /// Derives the run's seeds. Every seed fits the wire's integers.
    pub fn from_bench_seed(seed: u64) -> Self {
        let base = (seed % 1_000_000) * 1_000;
        Self { fixture: base + 1, large: base + 2, write_base: base + 100 }
    }
}

/// Client `client`'s round of six jobs: four reads of small shapes, one
/// read of the medium shape and one write (`None`). Two thirds of all jobs
/// are small reads, so the median latency sits inside that group rather
/// than on the boundary between two groups. Writes rotate over the three
/// small shapes through `write_counter`, so each write uses a seed no
/// other job used.
fn next_job(
    client: usize,
    step: usize,
    seeds: Seeds,
    write_counter: &AtomicU64,
) -> (JobKind, JobSpec, usize) {
    let shapes = cached_shapes();
    const ROUND: [[Option<usize>; ROUND_JOBS]; CLIENTS] = [
        [Some(0), Some(3), Some(1), None, Some(2), Some(0)],
        [Some(1), Some(2), None, Some(0), Some(3), Some(1)],
    ];
    match ROUND[client][step % ROUND[client].len()] {
        Some(shape) => (JobKind::Read, with_seed(&shapes[shape], seeds.fixture), shape),
        None => {
            let n = write_counter.fetch_add(1, Ordering::Relaxed);
            let shape = (n % 3) as usize;
            (JobKind::Write, with_seed(&shapes[shape], seeds.write_base + n), shape)
        }
    }
}

// ---------------------------------------------------------------------
// Fixture and daemons
// ---------------------------------------------------------------------

/// Explores every cached shape in process and saves the results as a
/// sharded cache under `dir`. Returns each spec's expected report key.
///
/// # Errors
///
/// Returns the first exploration or save error.
pub fn make_fixture(dir: &Path, seeds: Seeds) -> Result<HashMap<String, ReportKey>, String> {
    let explorer = Explorer::new();
    let mut expected = HashMap::new();
    for shape in cached_shapes() {
        let spec = with_seed(&shape, seeds.fixture);
        let report = explore_in_process(&explorer, &spec)?;
        expected.insert(spec.to_json().to_json_string(), report_key(&report));
    }
    explorer.save_cache_dir(dir).map_err(|e| format!("fixture save: {}", e.message))?;
    Ok(expected)
}

fn explore_in_process(explorer: &Explorer, spec: &JobSpec) -> Result<ExploreReport, String> {
    let req = spec.build().map_err(|e| e.message)?;
    let report = explorer
        .explore_with_objectives(
            req.space.as_dyn(),
            req.prune,
            &req.search,
            CLIENTS,
            &req.objectives,
        )
        .map_err(|e| format!("in-process exploration: {}", e.message))?;
    if report.evaluations.iter().any(|e| !e.verified) {
        return Err(format!("in-process exploration of {}: unverified evaluation", report.space));
    }
    Ok(report)
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    let entries = std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Builds the daemon binaries into the target directory this benchmark
/// was built into, and returns that profile directory.
///
/// # Errors
///
/// Returns a message when the benchmark binary is not in a cargo
/// `release` directory, or when cargo fails.
pub fn build_daemons() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let profile_dir = exe.parent().ok_or("benchmark binary has no directory")?.to_path_buf();
    if profile_dir.file_name().is_none_or(|name| name != "release") {
        return Err(format!("{} is not a cargo release build", exe.display()));
    }
    let target_dir = profile_dir.parent().ok_or("benchmark binary is not in a target directory")?;
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
    let status = Command::new(cargo)
        .args(["build", "--offline", "--release", "--quiet", "--target-dir"])
        .arg(target_dir)
        .args(["--bin", "axi4mlir-hub", "--bin", "axi4mlir-worker"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the hub and worker daemons failed: {status}"));
    }
    Ok(profile_dir)
}

/// One running hub and worker pair. Dropping it kills both and waits
/// for them, so no daemon outlives a run, also on failure.
pub struct Daemons {
    children: Vec<(Child, BufReader<ChildStdout>)>,
    /// The hub's address.
    pub hub_addr: String,
    /// The worker's address.
    pub worker_addr: String,
}

fn spawn_daemon(
    bin: &Path,
    args: &[&str],
    log: &Path,
) -> Result<(Child, BufReader<ChildStdout>, String), String> {
    let log_file = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let mut child = Command::new(bin)
        .args(args)
        .stdout(Stdio::piped())
        .stderr(log_file)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let read = stdout.read_line(&mut line);
    let addr = line.trim().rsplit(' ').next().unwrap_or("").to_owned();
    if read.is_err() || !line.contains("listening on") {
        let _ = child.kill();
        let _ = child.wait();
        return Err(format!("{} did not start (see {})", bin.display(), log.display()));
    }
    Ok((child, stdout, addr))
}

impl Daemons {
    /// Starts the worker, then the hub on `cache_dir`, and waits until
    /// the hub answers `hello`. Returns the daemons and the hub's time
    /// from spawn to `hello`.
    ///
    /// # Errors
    ///
    /// Returns a message when either daemon fails to start.
    pub fn start(
        bins: &Path,
        cache_dir: &Path,
        logs: &Path,
    ) -> Result<(Daemons, Duration), String> {
        let (worker, worker_out, worker_addr) = spawn_daemon(
            &bins.join("axi4mlir-worker"),
            &["--bind", "127.0.0.1:0", "--slots", "2"],
            &logs.join("worker.log"),
        )?;
        let mut daemons =
            Daemons { children: vec![(worker, worker_out)], hub_addr: String::new(), worker_addr };
        let hub_started = Instant::now();
        let cache = cache_dir.to_str().ok_or("cache path is not UTF-8")?;
        let (hub, hub_out, hub_addr) = spawn_daemon(
            &bins.join("axi4mlir-hub"),
            &[
                "--bind",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--sim-workers",
                "2",
                "--cache-dir",
                cache,
                "--worker",
                &daemons.worker_addr,
            ],
            &logs.join("hub.log"),
        )?;
        daemons.children.push((hub, hub_out));
        daemons.hub_addr = hub_addr;
        HubClient::connect(&daemons.hub_addr).map_err(|e| e.message)?;
        Ok((daemons, hub_started.elapsed()))
    }

    /// The daemons' summed memory high-water marks, in MiB.
    ///
    /// # Errors
    ///
    /// Returns a message when `/proc` cannot be read.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        self.children.iter().map(|(c, _)| stats::peak_rss_mb(&c.id().to_string())).sum()
    }
}

impl Drop for Daemons {
    fn drop(&mut self) {
        for (child, _) in &mut self.children {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

// ---------------------------------------------------------------------
// The closed loop
// ---------------------------------------------------------------------

/// One submitted job, as the client saw it.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Sequence number (op id).
    pub op: u64,
    /// Job kind.
    pub kind: JobKind,
    /// Index of the shape in [`cached_shapes`] (the large job: usize::MAX).
    pub shape: usize,
    /// How the job ended.
    pub outcome: Outcome,
    /// Submit.
    pub submitted: Instant,
    /// `queued` event (right after the `accepted` reply).
    pub queued: Option<Instant>,
    /// `running` event.
    pub running: Option<Instant>,
    /// `done` event, parsed.
    pub done: Option<Instant>,
    /// `HubClient::run` returned, report decoded.
    pub finished: Instant,
    /// The hub's own `elapsed_ms` (running to done, inside the hub).
    pub elapsed_ms: Option<f64>,
    /// Report counters.
    pub cache_hits: usize,
    /// Simulations performed for this job.
    pub sims_performed: usize,
    /// Full-fidelity simulations performed.
    pub full_sims: usize,
    /// Nanoseconds spent in full-fidelity simulations.
    pub full_sim_nanos: u64,
    /// The optimum's simulated task clock.
    pub optimum_ms: f64,
    /// The `done` frame, kept in traced runs for the decode probe.
    pub done_frame: Option<JsonValue>,
    /// Time this op spent on work only a traced run does.
    pub trace_cost: Duration,
}

impl JobRecord {
    /// A record of a job submitted at `submitted` that nothing is known
    /// about yet.
    fn new(op: u64, kind: JobKind, shape: usize, submitted: Instant) -> Self {
        JobRecord {
            op,
            kind,
            shape,
            outcome: Outcome::Verified,
            submitted,
            queued: None,
            running: None,
            done: None,
            finished: submitted,
            elapsed_ms: None,
            cache_hits: 0,
            sims_performed: 0,
            full_sims: 0,
            full_sim_nanos: 0,
            optimum_ms: 0.0,
            done_frame: None,
            trace_cost: Duration::ZERO,
        }
    }

    /// Submit to decoded report.
    pub fn latency(&self) -> Duration {
        self.finished.duration_since(self.submitted)
    }
}

/// The poll delay: the client's `running` → `done` interval minus the
/// hub's own measurement of the same interval.
pub fn event_lag_ms(running: Instant, done: Instant, elapsed_ms: f64) -> f64 {
    done.duration_since(running).as_secs_f64() * 1e3 - elapsed_ms
}

fn ms_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// Shared state of the two client threads.
struct Loop<'a> {
    addr: &'a str,
    seeds: Seeds,
    rounds: usize,
    trace: bool,
    writes: AtomicU64,
    ops: AtomicU64,
    /// Report keys of every spec seen so far (fixture specs pre-filled).
    expected: Mutex<HashMap<String, ReportKey>>,
    /// Shapes whose `done` frame a traced run already kept.
    kept_frames: Mutex<BTreeSet<(usize, u8)>>,
}

impl Loop<'_> {
    fn run_job(
        &self,
        client: &mut HubClient,
        kind: JobKind,
        spec: &JobSpec,
        shape: usize,
    ) -> JobRecord {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        let t = Instant::now();
        let keep_frame = self.trace
            && self.kept_frames.lock().expect("frame set poisoned").insert((shape, kind as u8));
        let mut trace_cost = t.elapsed();
        let mut queued = None;
        let mut running = None;
        let mut done = None;
        let mut elapsed_ms = None;
        let mut done_frame = None;
        let submitted = Instant::now();
        let result = client.run(spec, &mut |event: &JsonValue| {
            let now = Instant::now();
            match event.get("state").and_then(JsonValue::as_str) {
                Some("queued") => queued = Some(now),
                Some("running") => running = Some(now),
                Some("done") => {
                    done = Some(now);
                    elapsed_ms = event.get("elapsed_ms").and_then(JsonValue::as_f64);
                    if keep_frame {
                        let t = Instant::now();
                        done_frame = Some(event.clone());
                        trace_cost += t.elapsed();
                    }
                }
                _ => {}
            }
        });
        let mut record = JobRecord {
            queued,
            running,
            done,
            finished: Instant::now(),
            elapsed_ms,
            done_frame,
            trace_cost,
            ..JobRecord::new(op, kind, shape, submitted)
        };
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                record.outcome = Outcome::from_error(&e.message);
                return record;
            }
        };
        record.cache_hits = report.cache_hits;
        record.sims_performed = report.sims_performed;
        record.full_sims = report.full_sims_performed;
        record.full_sim_nanos = report.full_sim_nanos;
        record.optimum_ms = report.optimum().map_or(0.0, |o| o.task_clock_ms);
        let key = report_key(&report);
        let spec_text = spec.to_json().to_json_string();
        if report.evaluations.is_empty() || report.evaluations.iter().any(|e| !e.verified) {
            record.outcome = Outcome::Unverified(format!("{spec_text}: unverified evaluation"));
        } else if elapsed_ms.is_none() || running.is_none() {
            record.outcome = Outcome::Failed(format!("{spec_text}: event stream incomplete"));
        } else {
            let mut expected = self.expected.lock().expect("expected-key map poisoned");
            match expected.get(&spec_text) {
                Some(previous) if *previous != key => {
                    record.outcome = Outcome::Unverified(format!(
                        "{spec_text}: deterministic keys differ from an earlier run of the spec"
                    ));
                }
                Some(_) => {}
                None => {
                    expected.insert(spec_text, key);
                }
            }
        }
        record
    }

    fn client(&self, client: usize) -> Vec<JobRecord> {
        let mut records = Vec::new();
        let mut conn = match HubClient::connect(self.addr) {
            Ok(conn) => conn,
            Err(e) => {
                let now = Instant::now();
                records.push(failed_record(
                    self.ops.fetch_add(1, Ordering::Relaxed),
                    &e.message,
                    now,
                ));
                return records;
            }
        };
        for step in 0..self.rounds * ROUND_JOBS {
            let (kind, spec, shape) = next_job(client, step, self.seeds, &self.writes);
            let record = self.run_job(&mut conn, kind, &spec, shape);
            let broken = matches!(record.outcome, Outcome::Failed(_));
            records.push(record);
            if broken {
                // The connection may be gone; later jobs use a new one.
                match HubClient::connect(self.addr) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => break,
                }
            }
        }
        records
    }
}

fn failed_record(op: u64, message: &str, now: Instant) -> JobRecord {
    JobRecord {
        outcome: Outcome::Failed(message.to_owned()),
        ..JobRecord::new(op, JobKind::Read, 0, now)
    }
}

// ---------------------------------------------------------------------
// The workload
// ---------------------------------------------------------------------

/// Everything a `hub_sweeps` run measured.
pub struct HubRun {
    /// Every job.
    pub jobs: Vec<JobRecord>,
    /// Wall time of the load phase.
    pub wall: Duration,
    /// Each set-up's duration (fixture copy, daemons, `hello`).
    pub setups: Vec<Duration>,
    /// Each set-up's hub spawn → `hello` time.
    pub hub_ready: Vec<Duration>,
    /// Load generator plus daemons, in MiB.
    pub peak_rss_mb: f64,
    /// The hub's `dedup_hits` after the load phase.
    pub dedup_hits: u64,
    /// Failed output checks outside the jobs.
    pub check_failures: Vec<String>,
    /// Simulated time: each cached shape's optimum plus the large job's.
    pub sim_task_clock_ms: f64,
    /// What the traced run's probes measured.
    pub probed: Option<Probed>,
    /// Spans of every job, plus the probes' in a traced run.
    pub spans: Vec<Span>,
}

/// What the traced run's direct probes measured besides their spans.
pub struct Probed {
    /// Counters of the probe candidate's decomposed driver path.
    pub counters: PerfCounters,
    /// Pass timings of the probe candidate's compile. (Evaluations the
    /// worker measured carry none on the wire.)
    pub pass_ms: Vec<(String, f64)>,
    /// Bytes of the `done` frames the decode probe parsed.
    pub frame_bytes: usize,
}

/// Runs the workload: fixture, set-ups, closed loop, checks, probes.
///
/// # Errors
///
/// Returns a message when the fixture or the daemons cannot be set up.
pub fn run(seed: u64, seconds: f64, trace: bool, out: &Path) -> Result<HubRun, String> {
    let bins = build_daemons()?;
    let seeds = Seeds::from_bench_seed(seed);
    let fixture = out.join("fixture");
    let expected = make_fixture(&fixture, seeds)?;

    let mut setups = Vec::new();
    let mut hub_ready = Vec::new();
    let mut daemons = None;
    for k in 0..SETUPS {
        drop(daemons.take());
        let dir = out.join(format!("cache-{k}"));
        let started = Instant::now();
        copy_dir(&fixture, &dir)?;
        let (d, ready) = Daemons::start(&bins, &dir, out)?;
        setups.push(started.elapsed());
        hub_ready.push(ready);
        daemons = Some(d);
    }
    let daemons = daemons.expect("at least one set-up");

    // A fixed number of rounds: a time limit would let a faster run make
    // more writes, grow the shards further and slow its own writes.
    let rounds = crate::figures::passes_for(seconds - LARGE_S, ROUND_S);
    let lp = Loop {
        addr: &daemons.hub_addr,
        seeds,
        rounds,
        trace,
        writes: AtomicU64::new(0),
        ops: AtomicU64::new(0),
        expected: Mutex::new(expected),
        kept_frames: Mutex::new(BTreeSet::new()),
    };
    // The large job runs first and alone: its client-side decode takes
    // seconds of one core, and overlapping it with the loop would make
    // both phases' timings depend on how the scheduler shares the cores.
    let started = Instant::now();
    let large = {
        let spec = with_seed(&large_shape(), seeds.large);
        match HubClient::connect(lp.addr) {
            Ok(mut conn) => lp.run_job(&mut conn, JobKind::Large, &spec, usize::MAX),
            Err(e) => failed_record(lp.ops.fetch_add(1, Ordering::Relaxed), &e.message, started),
        }
    };
    let mut jobs: Vec<JobRecord> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let lp = &lp;
                scope.spawn(move || lp.client(c))
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    jobs.push(large);
    let wall = jobs
        .iter()
        .map(|j| j.finished)
        .max()
        .map_or(Duration::ZERO, |end| end.duration_since(started));
    jobs.sort_by_key(|j| j.op);

    let mut check_failures = Vec::new();
    let dedup_hits = match HubClient::connect(&daemons.hub_addr).and_then(|mut c| c.status()) {
        Ok(status) => status.get("dedup_hits").and_then(JsonValue::as_u64).unwrap_or(0),
        Err(e) => {
            check_failures.push(format!("status request: {}", e.message));
            0
        }
    };

    // One seeded spec per run, explored in process, must match the hub.
    let check_spec = with_seed(&cached_shapes()[0], seeds.write_base);
    let hub_key = lp
        .expected
        .lock()
        .expect("expected-key map poisoned")
        .get(&check_spec.to_json().to_json_string())
        .cloned();
    match (hub_key, explore_in_process(&Explorer::new(), &check_spec)) {
        (Some(hub), Ok(local)) if hub == report_key(&local) => {}
        (Some(_), Ok(_)) => check_failures.push(
            "the hub's report differs from the in-process exploration of the same spec".to_owned(),
        ),
        (None, _) => {
            check_failures.push("the run made no write job to compare in process".to_owned())
        }
        (_, Err(e)) => check_failures.push(e),
    }

    let sim_task_clock_ms = {
        let mut per_shape: std::collections::BTreeMap<usize, f64> =
            std::collections::BTreeMap::new();
        for j in jobs.iter().filter(|j| j.kind != JobKind::Write && !j.outcome.is_failure()) {
            per_shape.entry(j.shape).or_insert(j.optimum_ms);
        }
        per_shape.values().sum()
    };

    let mut spans = job_spans(&jobs, started);
    let probed = if trace {
        let (probed, probe_spans, failures) =
            probe(&daemons, &fixture, seeds, &mut jobs, out, started)?;
        check_failures.extend(failures);
        spans = crate::trace::merge(vec![spans, probe_spans]);
        Some(probed)
    } else {
        None
    };

    let peak_rss_mb = stats::peak_rss_mb("self")? + daemons.peak_rss_mb()?;
    drop(daemons);
    Ok(HubRun {
        jobs,
        wall,
        setups,
        hub_ready,
        peak_rss_mb,
        dedup_hits,
        check_failures,
        sim_task_clock_ms,
        probed,
        spans,
    })
}

/// Spans of every job, from the arrival times of its event frames: the
/// op (submit → report decoded) with `hub.accept` (submit → `queued`),
/// `hub.queue_wait` (`queued` → `running`) and `hub.run` (`running` →
/// `done` parsed) as children.
pub fn job_spans(jobs: &[JobRecord], epoch: Instant) -> Vec<Span> {
    let mut spans = Vec::new();
    for j in jobs {
        let at = |t: Instant| t.saturating_duration_since(epoch);
        let root = spans.len();
        spans.push(Span {
            name: "op.hub_job".to_owned(),
            op: j.op,
            parent: None,
            start: at(j.submitted),
            end: at(j.finished),
        });
        let mut child = |name: &str, a: Option<Instant>, b: Option<Instant>| {
            if let (Some(a), Some(b)) = (a, b) {
                spans.push(Span {
                    name: name.to_owned(),
                    op: j.op,
                    parent: Some(root),
                    start: at(a),
                    end: at(b),
                });
            }
        };
        child("hub.accept", Some(j.submitted), j.queued);
        child("hub.queue_wait", j.queued, j.running);
        child("hub.run", j.running, j.done);
    }
    spans
}

/// The traced run's direct probes, made after the load phase on the
/// same fixture and daemons.
fn probe(
    daemons: &Daemons,
    fixture: &Path,
    seeds: Seeds,
    jobs: &mut [JobRecord],
    out: &Path,
    epoch: Instant,
) -> Result<(Probed, Vec<Span>, Vec<String>), String> {
    let mut failures = Vec::new();
    let mut tr = Tracer::new(epoch);

    // Client-side `done` decode: parse the frame text and rebuild the report.
    let mut frame_bytes = 0;
    for j in jobs.iter_mut() {
        let Some(frame) = j.done_frame.take() else { continue };
        let text = frame.to_json_string();
        frame_bytes += text.len();
        let parsed = tr.time("support.json.parse", j.op, |_| JsonValue::parse(&text));
        let ok = parsed.ok().and_then(|v| v.get("report").cloned()).map(|r| {
            tr.time("explore.wire.report_from_json", j.op, |_| wire::report_from_json(&r)).is_ok()
        });
        if ok != Some(true) {
            failures.push(format!("job {}: the kept done frame does not decode", j.op));
        }
    }

    // Cache load and save on the fixture.
    for k in 0..3 {
        let snapshot = tr
            .time("explore.cache.load", 0, |_| shard::load_dir(fixture))
            .map_err(|e| e.message)?;
        let dirty: BTreeSet<String> = shard::shard_counts(&snapshot.entries).into_keys().collect();
        let dir = out.join(format!("save-probe-{k}"));
        tr.time("explore.cache.save", 0, |_| shard::save_dir(&dir, &snapshot.entries, &dirty))
            .map_err(|e| e.message)?;
        let _ = std::fs::remove_dir_all(&dir);
    }

    // One candidate: the worker round trip against the in-process run.
    let spec = with_seed(&cached_shapes()[1], seeds.fixture);
    let req = spec.build().map_err(|e| e.message)?;
    let space = req.space.as_dyn();
    let candidates = space.enumerate().map_err(|e| e.message)?;
    let candidate = candidates.first().ok_or("empty probe space")?;
    worker_round_trips(&daemons.worker_addr, &spec, candidate, &mut tr)?;
    let mut session = Session::for_sweep();
    for _ in 0..PROBES {
        tr.time("explore.run_candidate", 0, |_| {
            measure::run_candidate(&mut session, space, candidate, Fidelity::Full)
        })
        .map_err(|e| e.message)?;
    }

    // The heuristic pick and its driver path, decomposed.
    let heuristic = tr
        .time("heuristics.choice", 0, |_| space.heuristic())
        .ok_or("probe space has no heuristic pick")?;
    let realized = space.realize(&heuristic, Fidelity::Full).map_err(|e| e.message)?;
    let reference = Session::for_sweep()
        .run(realized.workload.as_ref(), &realized.plan)
        .map_err(|e| e.message)?;
    let mut soc = Soc::new(Box::new(LoopbackAccelerator::new()));
    let mut scratch = InterpScratch::new();
    let path = tr
        .time("probe.hub_candidate", 0, |tr| {
            crate::figures::decomposed(
                tr,
                0,
                &mut soc,
                &mut scratch,
                realized.workload.as_ref(),
                &realized.plan,
            )
        })
        .map_err(|e| e.message)?;
    if path.outcome.is_failure()
        || !reference.verified
        || path.counters != reference.counters
        || path.sim_ms.to_bits() != reference.task_clock_ms.to_bits()
    {
        failures.push(
            "the decomposed driver path disagrees with Session::run on the probe candidate"
                .to_owned(),
        );
    }
    Ok((
        Probed { counters: path.counters, pass_ms: path.pass_ms, frame_bytes },
        tr.into_spans(),
        failures,
    ))
}

/// Direct `measure` exchanges with the worker, one `worker.measure` span
/// per round trip.
fn worker_round_trips(
    addr: &str,
    spec: &JobSpec,
    candidate: &axi4mlir_core::explore::Candidate,
    tr: &mut Tracer,
) -> Result<(), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("worker {addr}: {e}"))?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = FrameReader::new(BufReader::new(stream));
    let next = |reader: &mut FrameReader<BufReader<TcpStream>>| -> Result<JsonValue, String> {
        loop {
            match reader.next_frame().map_err(|e| e.message)? {
                Frame::Value(v) => return Ok(v),
                Frame::Idle => continue,
                Frame::Eof => return Err("the worker hung up".to_owned()),
            }
        }
    };
    let hello = JsonValue::object([("type".to_owned(), "hello".into())]);
    write_frame(&mut writer, &hello).map_err(|e| e.to_string())?;
    next(&mut reader)?;
    let job = spec.to_json();
    for id in 0..PROBES as u64 {
        let request = measure::measure_request(id, &job, Fidelity::Full, candidate);
        let reply = tr.time("worker.measure", id, |_| -> Result<JsonValue, String> {
            write_frame(&mut writer, &request).map_err(|e| e.to_string())?;
            next(&mut reader)
        })?;
        if reply.get("type").and_then(JsonValue::as_str) != Some("result")
            || reply.get("verified").and_then(JsonValue::as_bool) != Some(true)
        {
            return Err(format!("worker measure reply: {}", reply.to_json_string()));
        }
    }
    Ok(())
}

/// Counts the jobs into a tally.
pub fn tally(jobs: &[JobRecord], check_failures: &[String]) -> Tally {
    let mut tally = Tally::default();
    for j in jobs {
        tally.record(&j.outcome);
    }
    for failure in check_failures {
        tally.record(&Outcome::Unverified(failure.clone()));
    }
    tally
}

/// Per-layer means over the verified jobs.
pub fn job_means(jobs: &[JobRecord]) -> Vec<(&'static str, f64)> {
    let ok: Vec<&JobRecord> = jobs.iter().filter(|j| !j.outcome.is_failure()).collect();
    let mean = |f: &dyn Fn(&JobRecord) -> Option<f64>| {
        let v: Vec<f64> = ok.iter().filter_map(|j| f(j)).collect();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    let hits: usize = ok.iter().map(|j| j.cache_hits).sum();
    let sims: usize = ok.iter().map(|j| j.sims_performed).sum();
    let full: usize = ok.iter().map(|j| j.full_sims).sum();
    let nanos: u64 = ok.iter().map(|j| j.full_sim_nanos).sum();
    vec![
        ("hub.accept_ms", mean(&|j| j.queued.map(|q| ms_between(j.submitted, q)))),
        ("hub.queue_wait_ms", mean(&|j| Some(ms_between(j.queued?, j.running?)))),
        ("hub.run_ms", mean(&|j| Some(ms_between(j.running?, j.done?)))),
        ("hub.elapsed_ms", mean(&|j| j.elapsed_ms)),
        ("hub.event_lag_ms", mean(&|j| Some(event_lag_ms(j.running?, j.done?, j.elapsed_ms?)))),
        (
            "explore.cache_hit_ratio",
            if hits + sims == 0 { 0.0 } else { hits as f64 / (hits + sims) as f64 },
        ),
        ("explore.sims_performed", sims as f64),
        ("explore.sims_per_sec", if nanos == 0 { 0.0 } else { full as f64 / (nanos as f64 / 1e9) }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_lag_is_client_interval_minus_hub_elapsed() {
        let running = Instant::now();
        let done = running + Duration::from_millis(130);
        assert!((event_lag_ms(running, done, 80.0) - 50.0).abs() < 1e-9);
        // A hub that reports more than the client saw yields a negative
        // lag rather than being clamped: it is a measurement.
        assert!((event_lag_ms(running, done, 150.0) + 20.0).abs() < 1e-9);
    }

    #[test]
    fn job_means_derive_lag_from_the_event_times() {
        let t0 = Instant::now();
        let mut j = failed_record(0, "", t0);
        j.outcome = Outcome::Verified;
        j.queued = Some(t0 + Duration::from_millis(2));
        j.running = Some(t0 + Duration::from_millis(10));
        j.done = Some(t0 + Duration::from_millis(110));
        j.finished = t0 + Duration::from_millis(115);
        j.elapsed_ms = Some(60.0);
        j.cache_hits = 3;
        j.sims_performed = 1;
        let means: HashMap<&str, f64> = job_means(&[j]).into_iter().collect();
        assert!((means["hub.accept_ms"] - 2.0).abs() < 1e-6);
        assert!((means["hub.queue_wait_ms"] - 8.0).abs() < 1e-6);
        assert!((means["hub.run_ms"] - 100.0).abs() < 1e-6);
        assert!((means["hub.event_lag_ms"] - 40.0).abs() < 1e-6);
        assert!((means["explore.cache_hit_ratio"] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn job_spans_cover_the_job_with_its_phases() {
        let t0 = Instant::now();
        let mut j = failed_record(4, "", t0);
        j.queued = Some(t0 + Duration::from_millis(1));
        j.running = Some(t0 + Duration::from_millis(5));
        j.done = Some(t0 + Duration::from_millis(50));
        j.finished = t0 + Duration::from_millis(60);
        let spans = job_spans(&[j], t0);
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["op.hub_job", "hub.accept", "hub.queue_wait", "hub.run"]);
        let split = crate::trace::split(&spans);
        assert_eq!(split.uncovered, Duration::from_millis(10));
    }

    #[test]
    fn writes_never_reuse_a_seed() {
        let seeds = Seeds::from_bench_seed(5);
        let counter = AtomicU64::new(0);
        let mut seen = BTreeSet::new();
        for step in 0..60 {
            for client in 0..CLIENTS {
                let (kind, spec, _) = next_job(client, step, seeds, &counter);
                if kind == JobKind::Write {
                    assert!(seen.insert(spec.seed), "write seed reused");
                    assert_ne!(spec.seed, Some(seeds.fixture));
                }
            }
        }
        assert!(!seen.is_empty());
    }
}

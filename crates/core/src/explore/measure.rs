//! Pluggable measurement execution behind the [`Explorer`] scheduler.
//!
//! `Explorer::measure_set` owns everything that makes reports
//! deterministic and concurrent sweeps cheap — the cache partition, the
//! proxy-saturation accounting, the cross-job in-flight deduplication,
//! and index-ordered error reporting. What it delegates is only the
//! *execution* of a claimed measurement, through [`MeasureBackend`]:
//!
//! - [`LocalPool`] is the original recycled-session thread pool: `N`
//!   worker threads, one [`Session`] each, pulling claims until the
//!   queue drains;
//! - [`RemotePool`] fans claims out to `axi4mlir-worker` daemons over
//!   the [`axi4mlir_support::proto`] NDJSON framing, with a per-worker
//!   in-flight window. A worker that dies mid-rung has its outstanding
//!   claims requeued and its connection retried; a worker whose replies
//!   do not decode is dropped and retried the same way. The sweep fails
//!   only when no worker is left serving it, so a lost worker degrades
//!   throughput instead of failing the sweep.
//!
//! Both backends publish through the same [`MeasureQueue`], so a report
//! produced through a remote pool is bit-identical (excluding wall-clock
//! timing fields) to the local pool's at any worker count.
//!
//! The second half of this module is the `axi4mlir-worker/v1` wire
//! vocabulary: [`WorkerRequest`] and [`WorkerReply`], each with the one
//! encoder and decoder both the remote pool and the worker daemon use,
//! plus [`Measurement::run`], the worker-side execution that rebuilds
//! the space from the request's [`JobSpec`] and runs the candidate. A
//! space can travel because realization depends only on the problem
//! shape and data seed ([`DesignSpace::wire_spec`]); the accelerator,
//! flow, tile, and options all ride inside the candidate's key.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};
use axi4mlir_support::proto::{tagged, write_frame, write_frame_at, Frame, FrameReader};

use crate::driver::Session;

use super::cache::{self, CachedEval};
use super::space::{Candidate, CandidateKey, DesignSpace, Fidelity};
use super::{wire, Explorer, JobSpec, SweepStats};

/// One backend worker's result for one candidate index: the outcome plus
/// whether it was served from the cache by a concurrent claim.
pub(crate) type Done = (usize, Result<CachedEval, Diagnostic>, bool);

/// Executes the measurements a [`MeasureQueue`] hands out. Implementors
/// claim tasks with [`MeasureQueue::try_claim`] and must resolve every
/// claim through [`MeasureQueue::complete`] (or put it back with
/// [`MeasureQueue::requeue`] / by dropping it).
pub trait MeasureBackend: Send + Sync {
    /// The backend label reports carry (`local`, `remote:2`, …).
    fn describe(&self) -> String;

    /// Drains `queue`: returns once every pending candidate has been
    /// completed (measured, failed, or deduplicated).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] when the backend cannot finish the queue
    /// (e.g. every remote worker died with work remaining).
    fn drain(&self, queue: &MeasureQueue<'_>) -> Result<(), Diagnostic>;
}

/// One claimed measurement. Dropping a task without completing it
/// releases the claim and requeues the candidate, so an unwinding or
/// disconnected worker can never strand a measurement.
pub struct MeasureTask<'q, 'a> {
    queue: &'q MeasureQueue<'a>,
    index: usize,
}

impl MeasureTask<'_, '_> {
    /// The candidate index this task measures (stable across requeues).
    pub fn index(&self) -> usize {
        self.index
    }
}

impl Drop for MeasureTask<'_, '_> {
    fn drop(&mut self) {
        self.queue.abandon(self.index);
    }
}

/// What [`MeasureQueue::try_claim`] found.
pub enum Claimed<'q, 'a> {
    /// A candidate to measure.
    Task(MeasureTask<'q, 'a>),
    /// Work remains, but every pending key is currently claimed by a
    /// concurrent sweep (or another backend worker). Wait and retry.
    Busy,
    /// The pending queue is empty. Other workers may still hold tasks —
    /// poll [`MeasureQueue::is_drained`] to learn whether the rung is
    /// truly finished.
    Empty,
}

/// The work-distribution state for one `measure_set` rung: the pending
/// candidates, the claim/dedup logic shared with concurrent sweeps, and
/// the accounting every completed measurement flows through.
pub struct MeasureQueue<'a> {
    explorer: &'a Explorer,
    space: &'a dyn DesignSpace,
    candidates: &'a [Candidate],
    meta: &'a [(CandidateKey, u64)],
    is_full: &'a [bool],
    fidelity: Fidelity,
    stats: &'a SweepStats,
    workers: usize,
    total: usize,
    pending: Mutex<VecDeque<usize>>,
    completed: AtomicUsize,
    done: Mutex<Vec<Done>>,
}

impl<'a> MeasureQueue<'a> {
    #[allow(clippy::too_many_arguments)] // crate-internal constructor mirroring measure_set's locals
    pub(crate) fn new(
        explorer: &'a Explorer,
        space: &'a dyn DesignSpace,
        candidates: &'a [Candidate],
        meta: &'a [(CandidateKey, u64)],
        is_full: &'a [bool],
        fidelity: Fidelity,
        stats: &'a SweepStats,
        workers: usize,
        pending: Vec<usize>,
    ) -> Self {
        let total = pending.len();
        Self {
            explorer,
            space,
            candidates,
            meta,
            is_full,
            fidelity,
            stats,
            workers,
            total,
            pending: Mutex::new(pending.into()),
            completed: AtomicUsize::new(0),
            done: Mutex::new(Vec::with_capacity(total)),
        }
    }

    /// The fidelity this rung measures at.
    pub fn fidelity(&self) -> Fidelity {
        self.fidelity
    }

    /// The requested local worker-thread count (already clamped to the
    /// pending size). Remote backends may ignore it.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The candidate a task measures.
    pub fn candidate(&self, task: &MeasureTask<'_, 'a>) -> &'a Candidate {
        &self.candidates[task.index]
    }

    /// The wire recipe remote workers rebuild the space from, if this
    /// space can travel.
    pub fn wire_spec(&self) -> Option<JobSpec> {
        self.space.wire_spec()
    }

    /// The space description, for diagnostics.
    pub fn describe_space(&self) -> String {
        self.space.describe()
    }

    /// Whether every pending candidate has been completed.
    pub fn is_drained(&self) -> bool {
        self.completed.load(Ordering::Acquire) == self.total
    }

    /// Claims the next measurable candidate. Candidates whose key is
    /// already cached (a concurrent sweep landed it first) are resolved
    /// inline as dedup hits; candidates whose key is claimed elsewhere
    /// are cycled to the back of the queue.
    pub fn try_claim<'q>(&'q self) -> Claimed<'q, 'a> {
        let mut pending = self.pending.lock().expect("measure queue poisoned");
        let mut cycled = 0;
        while let Some(index) = pending.pop_front() {
            let key = &self.meta[index].0;
            let hit =
                self.explorer.cache.lock().expect("explorer cache poisoned").get(key).cloned();
            if let Some(hit) = hit {
                self.explorer.dedup_hits.fetch_add(1, Ordering::Relaxed);
                self.push_done(index, Ok(hit), true);
                continue;
            }
            if self.explorer.in_flight.claim(key) {
                return Claimed::Task(MeasureTask { queue: self, index });
            }
            pending.push_back(index);
            cycled += 1;
            if cycled >= pending.len() {
                return Claimed::Busy;
            }
        }
        Claimed::Empty
    }

    /// Resolves a claim: publishes a successful measurement to the
    /// shared cache *before* releasing the claim (so concurrent waiters
    /// find it), performs all sweep and engine accounting, and records
    /// the measuring `worker` for the report's per-worker sim counts.
    pub fn complete(
        &self,
        task: MeasureTask<'_, 'a>,
        result: Result<CachedEval, Diagnostic>,
        nanos: u64,
        worker: &str,
    ) {
        let index = task.index;
        std::mem::forget(task); // resolved: skip the requeue-on-drop path
        let key = &self.meta[index].0;
        if let Ok(eval) = &result {
            self.explorer
                .cache
                .lock()
                .expect("explorer cache poisoned")
                .insert(key.clone(), eval.clone());
            self.explorer.mark_dirty(key);
            self.explorer.evals_performed.fetch_add(1, Ordering::Relaxed);
            self.stats.record_sim(worker, self.is_full[index], nanos);
            if self.is_full[index] {
                self.explorer.full_evals_performed.fetch_add(1, Ordering::Relaxed);
                self.explorer.full_sim_nanos.fetch_add(nanos, Ordering::Relaxed);
            }
        }
        self.explorer.in_flight.release(key);
        self.push_done(index, result, false);
    }

    /// Releases a claim and puts the candidate back in the queue (used
    /// when a remote worker dies with the measurement outstanding).
    pub fn requeue(&self, task: MeasureTask<'_, 'a>) {
        drop(task); // the drop handler is exactly the requeue path
    }

    /// Records that `worker` came back after its connection was lost —
    /// surfaced as `worker_reconnects` in the sweep report.
    pub fn record_reconnect(&self, worker: &str) {
        self.stats.record_reconnect(worker);
    }

    fn abandon(&self, index: usize) {
        self.explorer.in_flight.release(&self.meta[index].0);
        self.pending.lock().expect("measure queue poisoned").push_back(index);
    }

    /// Parks briefly (≤10ms) until some in-flight claim releases — the
    /// polite way to wait out [`Claimed::Busy`].
    pub fn wait_for_progress(&self) {
        self.explorer.in_flight.wait_release_timeout(Duration::from_millis(10));
    }

    fn push_done(&self, index: usize, result: Result<CachedEval, Diagnostic>, served: bool) {
        self.done.lock().expect("result sink poisoned").push((index, result, served));
        self.completed.fetch_add(1, Ordering::Release);
    }

    pub(crate) fn into_done(self) -> Vec<Done> {
        self.done.into_inner().expect("result sink poisoned")
    }
}

// ---------------------------------------------------------------------
// Local pool
// ---------------------------------------------------------------------

/// The in-process measurement pool: `queue.workers()` threads, each
/// owning one recycled-SoC [`Session`] for the rung.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalPool;

/// The worker label local measurements are recorded under.
pub const LOCAL_WORKER: &str = "local";

impl MeasureBackend for LocalPool {
    fn describe(&self) -> String {
        LOCAL_WORKER.to_owned()
    }

    fn drain(&self, queue: &MeasureQueue<'_>) -> Result<(), Diagnostic> {
        std::thread::scope(|scope| {
            for _ in 0..queue.workers() {
                scope.spawn(|| {
                    let mut session = Session::for_sweep();
                    loop {
                        match queue.try_claim() {
                            Claimed::Task(task) => {
                                let started = Instant::now();
                                let result = run_candidate(
                                    &mut session,
                                    queue.space,
                                    queue.candidate(&task),
                                    queue.fidelity(),
                                );
                                let nanos = started.elapsed().as_nanos() as u64;
                                queue.complete(task, result, nanos, LOCAL_WORKER);
                            }
                            Claimed::Busy => queue.wait_for_progress(),
                            Claimed::Empty => break,
                        }
                    }
                });
            }
        });
        Ok(())
    }
}

/// Compiles and runs one realized candidate on `session`'s recycled SoC
/// — the execution primitive both the local pool and the worker daemon
/// share.
///
/// # Errors
///
/// Propagates realization and simulation diagnostics; a run that fails
/// verification is an error naming the candidate.
pub fn run_candidate(
    session: &mut Session,
    space: &dyn DesignSpace,
    candidate: &Candidate,
    fidelity: Fidelity,
) -> Result<CachedEval, Diagnostic> {
    let realized = space.realize(candidate, fidelity)?;
    let report = session.run(realized.workload.as_ref(), &realized.plan)?;
    if !report.verified {
        return Err(Diagnostic::error(format!(
            "candidate {} failed verification on {}",
            candidate.label(),
            realized.key.workload
        )));
    }
    Ok(CachedEval {
        counters: report.counters,
        task_clock_ms: report.task_clock_ms,
        verified: report.verified,
        pass_ms: report.pass_timings.iter().map(|t| (t.pass.clone(), t.millis)).collect(),
    })
}

// ---------------------------------------------------------------------
// Remote pool
// ---------------------------------------------------------------------

/// Consecutive failed connection attempts before a pump *may* give up —
/// and it only actually gives up while no other pool worker is
/// connected. While at least one peer is serving the queue, the pump
/// keeps retrying with backoff forever, so a worker that comes back
/// hours later still rejoins.
const RECONNECT_ATTEMPTS: usize = 3;

/// Initial pause between reconnection attempts (doubles per consecutive
/// failure, capped at [`RECONNECT_BACKOFF_CAP`]).
const RECONNECT_BACKOFF: Duration = Duration::from_millis(100);

/// Ceiling for the exponential reconnect backoff.
const RECONNECT_BACKOFF_CAP: Duration = Duration::from_millis(800);

/// How long a connection handshake may take before the worker is
/// declared unreachable.
const HELLO_DEADLINE: Duration = Duration::from_secs(5);

/// The measurement pool that fans claims out to `axi4mlir-worker`
/// daemons. One pump thread per worker keeps up to
/// [`RemotePool::in_flight`] requests outstanding; a worker that dies
/// has its claims requeued (served by the surviving workers) and its
/// address retried with exponential backoff until it re-registers —
/// a pump abandons its address only when the whole pool is unreachable.
/// Re-registrations are recorded on the queue and surface as
/// `worker_reconnects` in the report.
#[derive(Clone, Debug)]
pub struct RemotePool {
    addrs: Vec<String>,
    window: usize,
    state: Arc<PoolState>,
}

/// Liveness shared by a pool's pumps across connections and drains.
#[derive(Debug, Default)]
struct PoolState {
    /// Pumps currently holding a healthy worker connection.
    connected: AtomicUsize,
    /// Addresses whose last connection was lost. The flag outlives the
    /// rung that observed the loss, so a worker that dies late in one
    /// rung and comes back during a later one is still recorded as a
    /// re-registration.
    lost: Mutex<HashSet<String>>,
}

impl RemotePool {
    /// A pool over `addrs` with the default in-flight window of 4
    /// requests per worker.
    pub fn new(addrs: Vec<String>) -> Self {
        Self { addrs, window: 4, state: Arc::default() }
    }

    /// Overrides the per-worker in-flight window (clamped to ≥ 1).
    #[must_use]
    pub fn in_flight(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }
}

impl MeasureBackend for RemotePool {
    fn describe(&self) -> String {
        format!("remote:{}", self.addrs.len())
    }

    fn drain(&self, queue: &MeasureQueue<'_>) -> Result<(), Diagnostic> {
        if self.addrs.is_empty() {
            return Err(Diagnostic::error("remote measurement pool has no workers"));
        }
        let Some(spec) = queue.wire_spec() else {
            return Err(Diagnostic::error(format!(
                "space {} cannot be measured remotely (no wire form)",
                queue.describe_space()
            )));
        };
        let job = spec.to_json();
        // The per-job worker budget (threaded through `queue.workers()`)
        // caps each pump's in-flight window, so one huge job cannot
        // monopolize the pool's slots across rungs.
        let window = self.window.min(queue.workers().max(1));
        let failures: Vec<Diagnostic> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .addrs
                .iter()
                .map(|addr| {
                    let job = &job;
                    let state = &self.state;
                    scope.spawn(move || pump(addr, job, window, queue, state))
                })
                .collect();
            handles
                .into_iter()
                .filter_map(|handle| handle.join().expect("worker pump panicked").err())
                .collect()
        });
        if queue.is_drained() {
            // Lost workers (if any) only degraded throughput.
            return Ok(());
        }
        Err(failures.into_iter().next().unwrap_or_else(|| {
            Diagnostic::error("remote measurement workers lost with work remaining")
        }))
    }
}

struct Conn {
    reader: FrameReader<BufReader<TcpStream>>,
    writer: TcpStream,
}

fn io_err(addr: &str, what: impl std::fmt::Display) -> Diagnostic {
    Diagnostic::error(format!("worker {addr}: {what}"))
}

fn connect(addr: &str) -> Result<Conn, Diagnostic> {
    let stream =
        TcpStream::connect(addr).map_err(|err| io_err(addr, format!("cannot connect: {err}")))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|err| io_err(addr, format!("cannot set read timeout: {err}")))?;
    let writer = stream.try_clone().map_err(|err| io_err(addr, err))?;
    let mut conn = Conn { reader: FrameReader::new(BufReader::new(stream)), writer };
    write_frame(&mut conn.writer, &WorkerRequest::Hello.to_json())
        .map_err(|err| io_err(addr, format!("hello failed: {err}")))?;
    let deadline = Instant::now() + HELLO_DEADLINE;
    loop {
        match conn.reader.next_frame() {
            Ok(Frame::Value(frame)) => {
                return match WorkerReply::from_json(&frame) {
                    Ok(WorkerReply::Hello { .. }) => Ok(conn),
                    Ok(_) => Err(io_err(addr, "answered hello with another frame")),
                    Err(err) => Err(io_err(addr, err.message)),
                };
            }
            Ok(Frame::Idle) if Instant::now() < deadline => continue,
            Ok(Frame::Idle) | Ok(Frame::Eof) => {
                return Err(io_err(addr, "closed during handshake"))
            }
            Err(err) => return Err(io_err(addr, err.message)),
        }
    }
}

/// Why [`serve_worker`] returned.
enum Served {
    /// The queue drained while this connection was healthy.
    Drained,
    /// The connection died (EOF or an I/O or framing error);
    /// outstanding claims were requeued by drop.
    Lost,
    /// The worker sent a frame that does not decode: dropped like a lost
    /// connection, but counted as a failed connect.
    Malformed(Diagnostic),
}

/// Drives one worker address for the life of the rung. A lost connection
/// requeues its outstanding claims (by drop) and reconnects at once; a
/// reconnect after a loss re-registers the worker via
/// [`MeasureQueue::record_reconnect`]. Failed connects and undecodable
/// replies back off exponentially, and the pump abandons the address
/// only after [`RECONNECT_ATTEMPTS`] of them in a row *while* no other
/// pump is connected — a dead worker can rejoin whenever it comes back.
fn pump(
    addr: &str,
    job: &JsonValue,
    window: usize,
    queue: &MeasureQueue<'_>,
    state: &PoolState,
) -> Result<(), Diagnostic> {
    let mut failures = 0usize;
    loop {
        if queue.is_drained() {
            return Ok(());
        }
        let err = match connect(addr) {
            Err(err) => err,
            Ok(mut conn) => {
                // The loss flag lives on the pool, not this pump: a
                // worker that died in an earlier rung and reconnects
                // here is still a re-registration.
                if state.lost.lock().expect("pool state poisoned").remove(addr) {
                    queue.record_reconnect(addr);
                }
                state.connected.fetch_add(1, Ordering::AcqRel);
                let served = serve_worker(addr, &mut conn, job, window, queue);
                state.connected.fetch_sub(1, Ordering::AcqRel);
                if matches!(served, Served::Drained) {
                    return Ok(());
                }
                state.lost.lock().expect("pool state poisoned").insert(addr.to_owned());
                match served {
                    Served::Malformed(err) => err,
                    _ => {
                        failures = 0;
                        continue;
                    }
                }
            }
        };
        failures += 1;
        if failures >= RECONNECT_ATTEMPTS && state.connected.load(Ordering::Acquire) == 0 {
            return Err(err);
        }
        let backoff = RECONNECT_BACKOFF
            .saturating_mul(1 << (failures - 1).min(4) as u32)
            .min(RECONNECT_BACKOFF_CAP);
        std::thread::sleep(backoff);
    }
}

/// Runs one healthy connection until the queue drains or the connection
/// dies. Outstanding claims are requeued (by drop) on every exit path
/// that loses the connection, so no candidate is ever lost to a worker
/// death.
fn serve_worker(
    addr: &str,
    conn: &mut Conn,
    job: &JsonValue,
    window: usize,
    queue: &MeasureQueue<'_>,
) -> Served {
    let mut next_id: u64 = 1;
    let mut outstanding = HashMap::new();
    loop {
        // Keep the in-flight window full.
        let mut starved = false;
        while outstanding.len() < window {
            match queue.try_claim() {
                Claimed::Task(task) => {
                    let frame =
                        measure_request(next_id, job, queue.fidelity(), queue.candidate(&task));
                    if write_frame_at("pool.send", &mut conn.writer, &frame).is_err() {
                        // `task` and `outstanding` requeue on drop.
                        return Served::Lost;
                    }
                    outstanding.insert(next_id, task);
                    next_id += 1;
                }
                Claimed::Busy | Claimed::Empty => {
                    starved = true;
                    break;
                }
            }
        }
        if outstanding.is_empty() {
            if queue.is_drained() {
                return Served::Drained;
            }
            if starved {
                // Work remains, but none is claimable by us right
                // now (held by concurrent sweeps or other pumps
                // whose death would requeue it). Stay alive.
                queue.wait_for_progress();
                continue;
            }
        }
        match conn.reader.next_frame() {
            Ok(Frame::Idle) => continue,
            Ok(Frame::Value(frame)) => match WorkerReply::from_json(&frame) {
                Ok(WorkerReply::Result { id, eval, nanos }) => {
                    if let Some(task) = outstanding.remove(&id) {
                        queue.complete(task, Ok(eval), nanos, addr);
                    }
                }
                Ok(WorkerReply::Failed { id, reason }) => {
                    if let Some(task) = outstanding.remove(&id) {
                        queue.complete(task, Err(Diagnostic::error(reason)), 0, addr);
                    }
                }
                Ok(_) => {} // not an answer to a measure
                Err(err) => return Served::Malformed(io_err(addr, err.message)),
            },
            Ok(Frame::Eof) | Err(_) => return Served::Lost,
        }
    }
}

// ---------------------------------------------------------------------
// The axi4mlir-worker/v1 wire vocabulary
// ---------------------------------------------------------------------

/// The worker protocol schema tag, exchanged in `hello`.
pub const WORKER_SCHEMA: &str = "axi4mlir-worker/v1";

/// A frame a scheduler sends a worker.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerRequest {
    /// Identify the worker: its schema and slot count.
    Hello,
    /// Simulate one candidate.
    Measure(Box<Measurement>),
    /// Barrier: answer every accepted `measure` before `drained`.
    Drain,
}

/// One `measure` request: simulate `candidate` at `fidelity` in the
/// space rebuilt from `job`.
#[derive(Clone, Debug, PartialEq)]
pub struct Measurement {
    /// Request id, echoed by the reply.
    pub id: u64,
    /// The sweep the candidate belongs to.
    pub job: JobSpec,
    /// How faithfully to measure.
    pub fidelity: Fidelity,
    /// The candidate to simulate.
    pub candidate: Candidate,
}

/// Encodes a `measure` request, with the job already in its JSON form:
/// a pool encodes its job once per rung, not once per candidate.
pub fn measure_request(
    id: u64,
    job: &JsonValue,
    fidelity: Fidelity,
    candidate: &Candidate,
) -> JsonValue {
    tagged(
        "measure",
        [
            ("id", id.into()),
            ("job", job.clone()),
            ("fidelity", fidelity.label().into()),
            ("candidate", wire::candidate_to_json(candidate)),
        ],
    )
}

impl WorkerRequest {
    /// Encodes the request frame.
    pub fn to_json(&self) -> JsonValue {
        match self {
            WorkerRequest::Hello => tagged("hello", []),
            WorkerRequest::Measure(m) => {
                measure_request(m.id, &m.job.to_json(), m.fidelity, &m.candidate)
            }
            WorkerRequest::Drain => tagged("drain", []),
        }
    }

    /// Decodes a request frame.
    ///
    /// # Errors
    ///
    /// Returns the reply the worker answers with instead: `failed` for a
    /// `measure` frame whose members do not decode (under its `id`, when
    /// it has one), `error` for a frame that is no request at all.
    #[allow(clippy::result_large_err)] // the reply is sent at once, never propagated
    pub fn from_json(value: &JsonValue) -> Result<WorkerRequest, WorkerReply> {
        let tag = Members::of(value, "request").and_then(|m| m.req::<&str>("type"));
        match tag.map_err(|err| WorkerReply::Error { reason: err.message })? {
            "hello" => Ok(WorkerRequest::Hello),
            "drain" => Ok(WorkerRequest::Drain),
            "measure" => {
                let m = Members::of(value, "measure").expect("a typed frame is an object");
                let measurement = || -> Result<Box<Measurement>, Diagnostic> {
                    let id = m.req("id")?;
                    let job = JobSpec::from_json(m.value("job")?)?;
                    let label = m.req("fidelity")?;
                    let fidelity = Fidelity::parse(label).ok_or_else(|| {
                        m.invalid("fidelity", format!("`{label}` is not full|proxy:N"))
                    })?;
                    let candidate = wire::candidate_from_json(m.value("candidate")?)?;
                    Ok(Box::new(Measurement { id, job, fidelity, candidate }))
                };
                measurement().map(WorkerRequest::Measure).map_err(|err| WorkerReply::Failed {
                    id: m.opt("id").ok().flatten().unwrap_or(0),
                    reason: err.message,
                })
            }
            other => Err(WorkerReply::Error { reason: format!("unknown request `{other}`") }),
        }
    }
}

impl Measurement {
    /// The worker-side execution: rebuild the space from the job, realize
    /// the candidate at the requested fidelity, and run it on `session`.
    /// Every failure becomes a `failed` reply; transport never sees Rust
    /// errors.
    pub fn run(&self, session: &mut Session) -> WorkerReply {
        let measured = self.job.build().and_then(|request| {
            let started = Instant::now();
            let eval =
                run_candidate(session, request.space.as_dyn(), &self.candidate, self.fidelity)?;
            Ok((eval, started.elapsed().as_nanos() as u64))
        });
        match measured {
            Ok((eval, nanos)) => WorkerReply::Result { id: self.id, eval, nanos },
            Err(diag) => WorkerReply::Failed { id: self.id, reason: diag.message },
        }
    }
}

/// A frame a worker sends its scheduler.
#[derive(Clone, Debug, PartialEq)]
pub enum WorkerReply {
    /// The answer to `hello`, under [`WORKER_SCHEMA`].
    Hello {
        /// Concurrent measurement slots.
        slots: usize,
    },
    /// The measurement of request `id`. Pass timings stay off the wire.
    Result {
        /// The request id.
        id: u64,
        /// Counters, task-clock and verification flag.
        eval: CachedEval,
        /// Simulator wall-clock nanoseconds.
        nanos: u64,
    },
    /// Request `id` could not be measured.
    Failed {
        /// The request id.
        id: u64,
        /// Why.
        reason: String,
    },
    /// Every `measure` accepted before a `drain` has been answered.
    Drained,
    /// A frame that is no request.
    Error {
        /// Why.
        reason: String,
    },
}

impl WorkerReply {
    /// Encodes the reply frame.
    pub fn to_json(&self) -> JsonValue {
        match self {
            WorkerReply::Hello { slots } => {
                tagged("hello", [("schema", WORKER_SCHEMA.into()), ("slots", (*slots).into())])
            }
            WorkerReply::Result { id, eval, nanos } => tagged(
                "result",
                [
                    ("id", (*id).into()),
                    ("counters", cache::counters_to_json(&eval.counters)),
                    ("task_clock_ms", eval.task_clock_ms.into()),
                    ("verified", eval.verified.into()),
                    ("nanos", (*nanos).into()),
                ],
            ),
            WorkerReply::Failed { id, reason } => {
                tagged("failed", [("id", (*id).into()), ("reason", reason.as_str().into())])
            }
            WorkerReply::Drained => tagged("drained", []),
            WorkerReply::Error { reason } => tagged("error", [("reason", reason.as_str().into())]),
        }
    }

    /// Decodes a reply frame. A `hello` under another schema than
    /// [`WORKER_SCHEMA`] does not decode.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] naming the missing or malformed member,
    /// or the unknown `type`.
    pub fn from_json(value: &JsonValue) -> Result<WorkerReply, Diagnostic> {
        let tag: &str = Members::of(value, "worker reply")?.req("type")?;
        let m = Members::of(value, tag)?;
        match tag {
            "hello" => {
                let schema: &str = m.req("schema")?;
                if schema != WORKER_SCHEMA {
                    return Err(m.invalid("schema", format!("`{schema}` is not {WORKER_SCHEMA}")));
                }
                Ok(WorkerReply::Hello { slots: m.req("slots")? })
            }
            "result" => Ok(WorkerReply::Result {
                id: m.req("id")?,
                eval: CachedEval::from_members(&m)?,
                nanos: m.req("nanos")?,
            }),
            "failed" => Ok(WorkerReply::Failed { id: m.req("id")?, reason: m.req("reason")? }),
            "drained" => Ok(WorkerReply::Drained),
            "error" => Ok(WorkerReply::Error { reason: m.req("reason")? }),
            other => Err(Diagnostic::error(format!("unknown worker reply `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_workloads::matmul::MatMulProblem;

    #[test]
    fn measure_frames_round_trip_through_the_worker_entry_point() {
        let space = super::super::MatMulSpace::new(MatMulProblem::new(8, 8, 8)).seed(7);
        let candidate = space.enumerate().unwrap().into_iter().next().unwrap();
        let job = space.wire_spec().unwrap().to_json();
        let request = measure_request(42, &job, Fidelity::Full, &candidate);
        let Ok(WorkerRequest::Measure(measurement)) = WorkerRequest::from_json(&request) else {
            panic!("expected a measure request")
        };
        let mut session = Session::for_sweep();
        let reply = measurement.run(&mut session).to_json();
        let Ok(WorkerReply::Result { id, eval, nanos }) = WorkerReply::from_json(&reply) else {
            panic!("expected a result")
        };
        assert_eq!(id, 42);
        assert!(eval.verified);
        assert!(nanos > 0);

        // The measurement equals a direct local run, bit for bit.
        let direct = run_candidate(&mut session, &space, &candidate, Fidelity::Full).unwrap();
        assert_eq!(eval.counters, direct.counters);
        assert_eq!(eval.task_clock_ms.to_bits(), direct.task_clock_ms.to_bits());
    }

    #[test]
    fn malformed_measure_frames_fail_with_the_id_echoed() {
        let bad = tagged("measure", [("id", 9u64.into())]);
        let Err(WorkerReply::Failed { id, reason }) = WorkerRequest::from_json(&bad) else {
            panic!("expected a failed reply")
        };
        assert_eq!(id, 9);
        assert!(reason.contains("job"));
    }
}

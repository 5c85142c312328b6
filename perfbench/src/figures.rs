//! The paper-figure workload `resnet_conv`: Fig. 16's ResNet18 layers,
//! generated driver against the manual one.
//!
//! An untraced op is one `Session::run` or one `run_manual_conv` call.
//! A traced op runs the same input twice: once through `Session::run`
//! (untimed by spans, to pair wall times and to check counters) and once
//! through [`decomposed`], which calls the public functions
//! `Session::run` calls, one span per call.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use axi4mlir_baselines::run_manual_conv;
use axi4mlir_config::KernelKind;
use axi4mlir_core::driver::{CompilePlan, ConvWorkload, PipelineBuilder, Session, Workload};
use axi4mlir_core::options::CacheTiling;
use axi4mlir_core::pipeline::instantiate_accelerator;
use axi4mlir_heuristics::select_cache_tile;
use axi4mlir_interp::{run_func_with_scratch, InterpScratch};
use axi4mlir_ir::ops::Module;
use axi4mlir_runtime::soc::Soc;
use axi4mlir_sim::axi::{LoopbackAccelerator, StreamAccelerator};
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_workloads::resnet::{resnet18_layers, ConvLayer};

use crate::stats::Outcome;
use crate::trace::{Span, Tracer};

/// One op of the figure workload.
#[derive(Clone, Copy, Debug)]
pub enum FigOp {
    /// `Session::run(ConvWorkload, CompilePlan::for_conv_layer)`.
    Generated(ConvLayer),
    /// `baselines::run_manual_conv`.
    Manual(ConvLayer),
}

impl FigOp {
    /// The op span's name.
    fn span_name(&self) -> &'static str {
        match self {
            FigOp::Generated(_) => "op.generated_conv",
            FigOp::Manual(_) => "op.manual_conv",
        }
    }

    /// The layer the op runs.
    fn layer(&self) -> ConvLayer {
        match self {
            FigOp::Generated(layer) | FigOp::Manual(layer) => *layer,
        }
    }
}

/// Every ResNet18 layer of Fig. 16, once per driver, largest first:
/// dealing the ops out longest-first keeps the two lanes' finishing
/// times close on every run.
pub fn resnet_ops() -> Vec<FigOp> {
    let mut ops: Vec<FigOp> = resnet18_layers()
        .into_iter()
        .flat_map(|layer| [FigOp::Generated(layer), FigOp::Manual(layer)])
        .collect();
    ops.sort_by_key(|op| std::cmp::Reverse(op.layer().macs()));
    ops
}

/// What one op produced.
#[derive(Clone, Debug)]
pub struct OpResult {
    /// Index into the op list.
    pub index: usize,
    /// The pass the op ran in (0-based).
    pub pass: usize,
    /// Wall time of the op (the traced path in a traced run).
    pub latency: Duration,
    /// Wall time of the same op through `Session::run` in a traced run.
    pub untraced: Option<Duration>,
    /// How the op ended.
    pub outcome: Outcome,
    /// Simulated task clock, in milliseconds.
    pub sim_ms: f64,
    /// Simulated counters.
    pub counters: PerfCounters,
    /// Pass timings of the traced compile.
    pub pass_ms: Vec<(String, f64)>,
}

/// One thread's executors: the sessions untraced ops run on, and the
/// SoC the decomposed path drives.
struct Lane {
    accel: Session,
    soc: Soc,
    scratch: InterpScratch,
}

impl Lane {
    fn new() -> Self {
        Self {
            accel: Session::for_sweep(),
            soc: Soc::new(Box::new(LoopbackAccelerator::new())),
            scratch: InterpScratch::new(),
        }
    }
}

/// What a driver-path run reports.
pub struct DriverRun {
    /// Whether the run completed and matched the reference.
    pub outcome: Outcome,
    /// Simulated task clock, in milliseconds.
    pub sim_ms: f64,
    /// Simulated counters.
    pub counters: PerfCounters,
    /// Wall time of each compiler pass (decomposed runs only).
    pub pass_ms: Vec<(String, f64)>,
}

fn from_report(verified: bool, what: &str, sim_ms: f64, counters: PerfCounters) -> DriverRun {
    let outcome = if verified {
        Outcome::Verified
    } else {
        Outcome::Unverified(format!("{what}: result differs from the reference"))
    };
    DriverRun { outcome, sim_ms, counters, pass_ms: Vec::new() }
}

fn failed(message: String) -> DriverRun {
    DriverRun {
        outcome: Outcome::Failed(message),
        sim_ms: 0.0,
        counters: PerfCounters::new(),
        pass_ms: Vec::new(),
    }
}

/// The plan a generated-driver op compiles with.
fn generated_plan(layer: ConvLayer, seed: u64) -> CompilePlan {
    CompilePlan::for_conv_layer(layer).seed(seed)
}

/// Runs `op` the way a user of the library would: no spans.
fn run_untraced(lane: &mut Lane, op: &FigOp, seed: u64) -> DriverRun {
    match op {
        FigOp::Manual(layer) => match run_manual_conv(*layer, seed) {
            Ok(r) => from_report(r.verified, &layer.label(), r.task_clock_ms, r.counters),
            Err(e) => failed(format!("manual {layer}: {}", e.message)),
        },
        FigOp::Generated(layer) => {
            let workload = ConvWorkload::new(*layer);
            match lane.accel.run(&workload, &generated_plan(*layer, seed)) {
                Ok(r) => from_report(r.verified, &workload.name(), r.task_clock_ms, r.counters),
                Err(e) => failed(format!("{}: {}", workload.name(), e.message)),
            }
        }
    }
}

/// The cache tile `Session::run` resolves for a plan (its private
/// `resolve_cache_tile`, restated from the public pieces).
fn cache_tile(workload: &dyn Workload, plan: &CompilePlan) -> Option<i64> {
    let Some(config) = &plan.config else { return plan.cpu_tile };
    if config.kernel != KernelKind::MatMul {
        return None;
    }
    let [tm, tn, tk, ..] = config.accel_dims[..] else { return None };
    match plan.options.cache_tiling {
        CacheTiling::Off => None,
        CacheTiling::Fixed(t) => Some(t),
        CacheTiling::Auto => {
            workload.matmul_dims().and_then(|dims| select_cache_tile(&plan.cpu, dims, (tm, tn, tk)))
        }
    }
}

/// The compile `Session::run` makes: `build_module`, then the pass
/// pipeline the plan configures. Returns the module and each pass's
/// wall time.
///
/// # Errors
///
/// Propagates pass failures.
fn compile(
    workload: &dyn Workload,
    plan: &CompilePlan,
) -> Result<(Module, Vec<(String, f64)>), Diagnostic> {
    let mut builder = PipelineBuilder::new()
        .cache_tile(cache_tile(workload, plan))
        .coalesce(plan.options.coalesce_transfers)
        .lower(plan.options.lower_to_runtime_calls)
        .capture_ir(plan.options.capture_ir);
    if let Some(config) = &plan.config {
        builder = builder.accelerator(config.clone());
    }
    let mut module = workload.build_module();
    let mut pm = builder.build();
    pm.run(&mut module)?;
    let pass_ms = pm.timings().iter().map(|t| (t.pass.clone(), t.millis)).collect();
    Ok((module, pass_ms))
}

/// `Session::run`, decomposed into the public calls it makes, one span
/// per layer: compile (`build_module` + `PassManager::run`), bind
/// without and with the reference result, interpreter execution, and
/// verification. Reports the same counters and task clock
/// `Session::run` does.
///
/// # Errors
///
/// Propagates compile, interpreter and accelerator-protocol errors.
pub fn decomposed(
    tr: &mut Tracer,
    op: u64,
    soc: &mut Soc,
    scratch: &mut InterpScratch,
    workload: &dyn Workload,
    plan: &CompilePlan,
) -> Result<DriverRun, Diagnostic> {
    let (module, pass_ms) = tr.time("core.compile", op, |_| compile(workload, plan))?;
    let device: Box<dyn StreamAccelerator> = match &plan.config {
        Some(config) => instantiate_accelerator(config),
        None => Box::new(LoopbackAccelerator::new()),
    };
    soc.replace_accelerator(device);
    tr.time("workloads.bind", op, |_| {
        soc.recycle();
        workload.bind(soc, plan.seed, false)
    });
    let buffers = tr.time("workloads.bind_with_reference", op, |_| {
        soc.recycle();
        workload.bind(soc, plan.seed, plan.options.verify_result)
    });
    soc.reset_run_state();
    let copy = plan.copy_override.unwrap_or_else(|| plan.options.copy_strategy(&soc.cost));
    tr.time("interp.execute", op, |_| {
        run_func_with_scratch(soc, &module, workload.entry_func(), buffers.args, copy, scratch)
    })
    .map_err(Diagnostic::from)?;
    if soc.accel.protocol_errors() > 0 {
        return Err(Diagnostic::error(format!(
            "accelerator {} observed {} protocol errors",
            soc.accel.name(),
            soc.accel.protocol_errors()
        )));
    }
    let verified = tr.time("core.verify", op, |_| {
        let mut result = Vec::new();
        for output in &buffers.outputs {
            result.extend(soc.mem.load_i32_slice(output.base, output.num_elements() as usize));
        }
        buffers.expected.as_ref().is_some_and(|expected| *expected == result)
    });
    Ok(DriverRun {
        pass_ms,
        ..from_report(verified, &workload.name(), soc.task_clock_ms(), soc.counters)
    })
}

/// Runs `op` traced; the untraced `Session::run` of the same input is
/// timed alongside, and its counters must equal the decomposed path's.
/// Returns the run and, for paired ops, the traced and untraced wall times.
fn run_traced(
    lane: &mut Lane,
    tr: &mut Tracer,
    id: u64,
    op: &FigOp,
    seed: u64,
) -> (DriverRun, Option<(Duration, Duration)>) {
    if matches!(op, FigOp::Manual(_)) {
        let run = tr.time(op.span_name(), id, |tr| {
            tr.time("baselines.manual_conv", id, |_| run_untraced(lane, op, seed))
        });
        return (run, None);
    }
    // Alternate which path of the pair runs first, so warm-up favours
    // neither side of the overhead figure.
    let untraced_first = id.is_multiple_of(2);
    let mut reference = None;
    let mut untraced = Duration::ZERO;
    let mut run_reference = |lane: &mut Lane| {
        let started = Instant::now();
        reference = Some(run_untraced(lane, op, seed));
        untraced = started.elapsed();
    };
    if untraced_first {
        run_reference(lane);
    }
    let layer = op.layer();
    let started = Instant::now();
    let traced = tr.time(op.span_name(), id, |tr| {
        let workload = ConvWorkload::new(layer);
        let plan = generated_plan(layer, seed);
        decomposed(tr, id, &mut lane.soc, &mut lane.scratch, &workload, &plan)
            .unwrap_or_else(|e| failed(format!("{} (decomposed): {}", workload.name(), e.message)))
    });
    let traced_wall = started.elapsed();
    if !untraced_first {
        run_reference(lane);
    }
    let reference = reference.expect("the untraced path ran");
    let mut run = traced;
    if !run.outcome.is_failure()
        && (run.counters != reference.counters
            || run.sim_ms.to_bits() != reference.sim_ms.to_bits())
    {
        run.outcome = Outcome::Unverified(format!(
            "{}: decomposed driver path counters differ from Session::run's",
            op.span_name()
        ));
    }
    if reference.outcome.is_failure() {
        run.outcome = reference.outcome;
    }
    (run, Some((traced_wall, untraced)))
}

/// What a figure workload run produced.
pub struct FigRun {
    /// Every op, grouped by lane.
    pub results: Vec<OpResult>,
    /// Summed wall time of the passes.
    pub wall: Duration,
    /// Spans (traced runs only).
    pub spans: Vec<Span>,
    /// One [`time_set_up`] per op, timed on the op's thread just before
    /// the op, so their median samples the host across the whole run.
    pub setups: Vec<Result<Duration, String>>,
}

/// The lane that runs op `index`: the longest-first list is dealt out in
/// a snake order (0, 1, 1, 0, 0, 1, ...), which balances the lanes. The
/// assignment is fixed, so every run gives each lane the same sequence
/// of ops and the same session state before each op.
pub fn lane_of(index: usize, lanes: usize) -> usize {
    let turn = index % lanes;
    if (index / lanes).is_multiple_of(2) {
        turn
    } else {
        lanes - 1 - turn
    }
}

/// Repetitions of a unit of work a run of `seconds` makes: as many as fit
/// at `nominal_s` (the unit's wall time on a two-core Xeon host), at
/// least one. The count depends on nothing measured, so
/// every run of one length does the same work and a faster program shows
/// as a shorter wall time.
pub fn passes_for(seconds: f64, nominal_s: f64) -> usize {
    ((seconds / nominal_s).floor() as usize).max(1)
}

/// Runs `passes` whole passes over `ops` on `lanes` threads (see
/// [`lane_of`]).
pub fn run(ops: &[FigOp], seed: u64, passes: usize, trace: bool, lanes: usize) -> FigRun {
    let epoch = Instant::now();
    let mut results = Vec::new();
    let mut span_lists = Vec::new();
    let mut wall = Duration::ZERO;
    let mut all_setups = Vec::new();
    for pass in 0..passes {
        let started = Instant::now();
        let done = Mutex::new(Vec::new());
        let pass_spans = Mutex::new(Vec::new());
        let pass_setups = Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for lane_index in 0..lanes {
                let (done, pass_spans, pass_setups) = (&done, &pass_spans, &pass_setups);
                scope.spawn(move || {
                    // The simulated SoC is not `Send`: each thread builds
                    // its own sessions.
                    let lane = &mut Lane::new();
                    let mut tr = Tracer::new(epoch);
                    let mut mine = Vec::new();
                    let mut setups = Vec::new();
                    for (index, op) in ops.iter().enumerate() {
                        if lane_of(index, lanes) != lane_index {
                            continue;
                        }
                        setups.push(time_set_up(lanes, seed));
                        let id = (pass * ops.len() + index) as u64;
                        let t = Instant::now();
                        let (run, pair) = if trace {
                            run_traced(lane, &mut tr, id, op, seed)
                        } else {
                            (run_untraced(lane, op, seed), None)
                        };
                        let (latency, untraced) = match pair {
                            Some((traced, untraced)) => (traced, Some(untraced)),
                            None => (t.elapsed(), None),
                        };
                        mine.push(OpResult {
                            index,
                            pass,
                            latency,
                            untraced,
                            outcome: run.outcome,
                            sim_ms: run.sim_ms,
                            counters: run.counters,
                            pass_ms: run.pass_ms,
                        });
                    }
                    done.lock().expect("op results lock poisoned").extend(mine);
                    pass_setups.lock().expect("set-up lock poisoned").extend(setups);
                    pass_spans.lock().expect("span lock poisoned").push(tr.into_spans());
                });
            }
        });
        let pass_wall = started.elapsed();
        wall += pass_wall;
        all_setups.extend(pass_setups.into_inner().expect("set-up lock poisoned"));
        results.extend(done.into_inner().expect("op results lock poisoned"));
        span_lists.extend(pass_spans.into_inner().expect("span lock poisoned"));
    }
    FigRun { results, wall, spans: crate::trace::merge(span_lists), setups: all_setups }
}

/// Simulated time of pass 0: the generated drivers' summed task clock.
pub fn sim_task_clock_ms(ops: &[FigOp], results: &[OpResult]) -> f64 {
    results
        .iter()
        .filter(|r| r.pass == 0 && matches!(ops[r.index], FigOp::Generated(_)))
        .map(|r| r.sim_ms)
        .sum()
}

/// Counters summed over pass 0's ops.
pub fn pass0_counters(results: &[OpResult]) -> PerfCounters {
    let mut sum = PerfCounters::new();
    for r in results.iter().filter(|r| r.pass == 0) {
        sum += r.counters;
    }
    sum
}

/// Mean milliseconds per compile for each pass name.
pub fn pass_means(results: &[OpResult]) -> BTreeMap<String, f64> {
    let mut sums: BTreeMap<String, (f64, u64)> = BTreeMap::new();
    for (pass, ms) in results.iter().flat_map(|r| &r.pass_ms) {
        let entry = sums.entry(pass.clone()).or_default();
        entry.0 += ms;
        entry.1 += 1;
    }
    sums.into_iter().map(|(k, (sum, n))| (k, sum / n as f64)).collect()
}

/// Does what the workload does before its first op can start, and
/// returns how long it took: the op list, one lane's sessions per
/// thread, and the first op's compile (`build_module` and the pass
/// pipeline), which stands for the library's start-up work.
///
/// # Errors
///
/// Returns a message when the compile fails.
pub fn time_set_up(lanes: usize, seed: u64) -> Result<Duration, String> {
    let started = Instant::now();
    let ops = resnet_ops();
    let built: Vec<Lane> = (0..lanes).map(|_| Lane::new()).collect();
    let layer = ops[0].layer();
    let compiled =
        compile(&ConvWorkload::new(layer), &generated_plan(layer, seed)).map_err(|e| e.message)?;
    let took = started.elapsed();
    std::hint::black_box((&built, &compiled));
    Ok(took)
}

//! `axi4mlir-explore`: parallel design-space exploration over workloads,
//! accelerator generations, flows, tiles, and pipeline options, with a
//! machine-readable `BENCH_explore.json` report and a persistent result
//! cache.
//!
//! Usage:
//! `cargo run --release -p axi4mlir-bench --bin axi4mlir-explore -- \
//!     [--smoke] [--workload matmul|conv|batched] [--accel v1..v4[:SIZE],...] \
//!     [--search exhaustive|halving] [--cache-dir DIR] [--warm-start] \
//!     [--hub ADDR] [--objectives clock,traffic,transactions,occupancy] \
//!     [--dims MxNxK] [--batch N] [--layer iHW_iC_fHW_oC_stride] \
//!     [--base B] [--capacity WORDS] [--sweep-options] \
//!     [--sweep-cache-tiling] [--cpu pynq_z2|zcu102|desktop,...] \
//!     [--workers N] [--prune none|keep:N|factor:F] [--seed S] [--json [DIR]]`
//!
//! The flags become one [`JobSpec`] — the same wire-form job the hub
//! accepts — and [`JobSpec::build`] validates it, so the CLI and the
//! daemon reject a bad job with the same field-naming error. The CLI adds
//! only its own defaults: the `--smoke` shapes, `--base` as the size of
//! an `--accel` generation given without one, and the `v4:8` → `v4_8`
//! label spelling.
//!
//! `--smoke` is the CI entry point: a tiny space that sweeps in well
//! under a second but exercises the whole engine — enumeration, pruning,
//! the search strategy, the parallel session pool, the result cache, and
//! the JSON reporter. With `--cache-dir`, results persist sharded by
//! workload signature (`DIR/<shard>.json`, order-invariant merge,
//! dirty-shard-only saves), so a repeated invocation reports 0 new
//! simulations. A legacy `BENCH_cache.json` dropped into the directory
//! migrates losslessly on the next save.
//!
//! `--objectives` turns the sweep multi-objective: every evaluation is
//! scored under each named objective (the first is the primary the prune
//! and halving rank by), and `BENCH_explore.json` gains a top-level
//! `pareto` section listing the non-dominated front plus context members
//! locating the paper's analytical pick relative to it.
//!
//! `--warm-start` fits the cross-problem transfer model from the loaded
//! `--cache-dir` and ranks the halving search by its calibrated clock
//! predictions: measurements banked on *other* problem shapes cut both
//! the proxy rungs and the full-fidelity finalist count on this one.
//! `--sweep-cache-tiling` and `--cpu` widen the options axis with the
//! cache-hierarchy tiling levels (off/auto/fixed 16-64) and named host
//! CPUs (meaningful under auto tiling only; illegal combinations are
//! dropped by the per-candidate legality rules).
//!
//! `--hub ADDR` runs the sweep on a running `axi4mlir-hub` daemon
//! instead of in-process: the same job is submitted over the
//! `axi4mlir-hub/v1` protocol (see `docs/PROTOCOL.md`), progress events
//! stream to stdout, and the `done` event's report renders the *same*
//! `BENCH_explore.json` the local path writes. The hub owns the result
//! cache, so `--cache-dir`/`--warm-start` are rejected alongside `--hub`.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use axi4mlir_bench::report::{BenchEntry, BenchReport};
use axi4mlir_core::explore::jobspec::parse_dims;
use axi4mlir_core::explore::{ExploreReport, Explorer, JobSpec, ProgressEvent};
use axi4mlir_hub::protocol::{EventState, Reply};
use axi4mlir_hub::{run_resilient, HubClient};
use axi4mlir_support::fmtutil::{fmt_ms, TextTable};
use axi4mlir_support::json::JsonValue;

/// The smoke-scale conv layer (the Fig. 16 quick shape), also the conv
/// default without `--layer`.
const SMOKE_LAYER: &str = "10_64_3_16_1";

/// Flags without a value.
const SWITCHES: [&str; 4] = ["--smoke", "--warm-start", "--sweep-options", "--sweep-cache-tiling"];

/// Flags taking one value.
const VALUED: [&str; 15] = [
    "--workload",
    "--accel",
    "--search",
    "--cache-dir",
    "--hub",
    "--objectives",
    "--dims",
    "--batch",
    "--layer",
    "--base",
    "--capacity",
    "--cpu",
    "--workers",
    "--prune",
    "--seed",
];

/// What one invocation asks for: the job plus how to run it.
struct Request {
    job: JobSpec,
    workers: usize,
    /// Load the cache from, and persist it sharded into, this directory.
    cache_dir: Option<PathBuf>,
    /// Fit the transfer model from the loaded cache before the sweep.
    warm_start: bool,
    /// Run on this `axi4mlir-hub` daemon instead of in-process.
    hub: Option<String>,
    /// Where `BENCH_explore.json` lands.
    json_dir: PathBuf,
}

/// Splits argv into `flag -> value` (empty for switches). Unknown flags
/// and stray arguments are rejected, so a typo (`--objective`) cannot
/// silently fall back to a default sweep.
fn parse_flags(args: &[String]) -> Result<HashMap<&str, String>, String> {
    let mut flags = HashMap::new();
    let mut rest = args.iter().peekable();
    while let Some(flag) = rest.next() {
        let flag = flag.as_str();
        let value = if SWITCHES.contains(&flag) {
            String::new()
        } else if VALUED.contains(&flag) {
            rest.next().cloned().ok_or_else(|| format!("{flag} needs a value"))?
        } else if flag == "--json" {
            rest.next_if(|dir| !dir.starts_with("--")).cloned().unwrap_or_else(|| ".".to_owned())
        } else if flag.starts_with("--") {
            let known: Vec<&str> =
                SWITCHES.iter().chain(&VALUED).copied().chain(["--json"]).collect();
            return Err(format!("unknown flag `{flag}` (known: {})", known.join(" ")));
        } else {
            return Err(format!("unexpected argument `{flag}`"));
        };
        flags.insert(flag, value);
    }
    Ok(flags)
}

/// A comma list, trimmed per item.
fn list(text: &str) -> Vec<String> {
    text.split(',').map(|item| item.trim().to_owned()).collect()
}

fn number<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("invalid {flag} `{text}`"))
}

fn request_from_args(args: &[String]) -> Result<Request, String> {
    let flags = parse_flags(args)?;
    let get = |flag: &str| flags.get(flag).map(String::as_str);
    let smoke = flags.contains_key("--smoke");
    let mut job = JobSpec {
        workload: get("--workload").unwrap_or("matmul").to_owned(),
        sweep_options: flags.contains_key("--sweep-options"),
        sweep_cache_tiling: flags.contains_key("--sweep-cache-tiling"),
        cpus: get("--cpu").map(list).unwrap_or_default(),
        search: get("--search").unwrap_or("exhaustive").to_owned(),
        prune: get("--prune").unwrap_or("none").to_owned(),
        objectives: get("--objectives").map(list).unwrap_or_default(),
        seed: get("--seed").map(|text| number("--seed", text)).transpose()?,
        ..JobSpec::default()
    };
    if job.workload == "conv" {
        for flag in ["--accel", "--dims", "--capacity", "--base", "--batch"] {
            if flags.contains_key(flag) {
                eprintln!(
                    "axi4mlir-explore: note: {flag} is ignored for conv (the \u{a7}IV-D \
                     accelerator is configured by the layer; use --layer)"
                );
            }
        }
        if job.sweep_cache_tiling || !job.cpus.is_empty() {
            eprintln!(
                "axi4mlir-explore: note: conv kernels never cache-tile; the tiling/host axes \
                 are dropped by the conv legality rules"
            );
        }
        job.layer = Some(get("--layer").unwrap_or(SMOKE_LAYER).to_owned());
    } else {
        let base: i64 = match get("--base") {
            Some(text) => number("--base", text)?,
            None if smoke => 8,
            None => 16,
        };
        // `v3` takes `--base` as its size; `v4:8` is the `v4_8` label.
        let accel_label = |token: String| match token.split_once(':') {
            Some((name, size)) => format!("{name}_{size}"),
            None => format!("{token}_{base}"),
        };
        job.accels = get("--accel")
            .map_or_else(|| vec!["v4".to_owned()], list)
            .into_iter()
            .map(accel_label)
            .collect();
        job.dims = Some(match get("--dims") {
            Some(text) => {
                let p = parse_dims(text).ok_or(format!("invalid --dims `{text}` (want MxNxK)"))?;
                (p.m, p.n, p.k)
            }
            None if smoke && job.workload == "batched" => (8, 8, 8),
            None if smoke => (16, 16, 16),
            None => (256, 256, 256),
        });
        job.batch = match get("--batch") {
            Some(text) => Some(number("--batch", text)?),
            None => (smoke && job.workload == "batched").then_some(2),
        };
        job.capacity_words =
            get("--capacity").map(|text| number("--capacity", text)).transpose()?;
    }

    let cache_dir = get("--cache-dir").map(PathBuf::from);
    let warm_start = flags.contains_key("--warm-start");
    if warm_start && cache_dir.is_none() {
        return Err("--warm-start fits from the loaded cache; pass --cache-dir DIR".to_owned());
    }
    let hub = get("--hub").map(str::to_owned);
    if hub.is_some() && (cache_dir.is_some() || warm_start) {
        return Err("--hub is incompatible with --cache-dir/--warm-start (the hub owns the \
                    shared cache; configure it on the daemon)"
            .to_owned());
    }
    let max_default_workers = if smoke { 2 } else { 8 };
    let workers = match get("--workers") {
        Some(text) => number("--workers", text)?,
        None => {
            std::thread::available_parallelism().map_or(2, |n| n.get()).min(max_default_workers)
        }
    };
    let json_dir = PathBuf::from(get("--json").unwrap_or("."));
    Ok(Request { job, workers, cache_dir, warm_start, hub, json_dir })
}

/// Runs the job on a hub daemon, streaming progress to stdout, and
/// returns the report the `done` event carried. The sweep itself goes
/// through [`run_resilient`]: a dropped event stream is recovered by
/// reconnecting and `follow`ing the job, so a long sweep survives the
/// network hiccups the chaos suite injects.
fn run_on_hub(addr: &str, job: &JobSpec) -> Result<ExploreReport, String> {
    let fail = |diag: axi4mlir_support::diag::Diagnostic| diag.message;
    {
        // A short-lived connection for the handshake banner; the job
        // runs on `run_resilient`'s own (reconnectable) connections.
        let client = HubClient::connect(addr).map_err(fail)?;
        println!(
            "hub {addr}: {} cached results, {} workers, queue capacity {}",
            client.info().cache_entries,
            client.info().workers,
            client.info().queue_capacity
        );
    }
    let mut on_event = |frame: &JsonValue| {
        let Ok(Reply::Event { job, state }) = Reply::from_json(frame) else { return };
        match state {
            EventState::Queued => println!("hub: job {job} queued"),
            EventState::Running { .. } => println!("hub: job {job} running"),
            EventState::Progress(ProgressEvent::SpaceReady { space_size, survivors }) => println!(
                "hub: space ready — {space_size} legal candidates, {survivors} survive the prune"
            ),
            EventState::Progress(ProgressEvent::RungComplete {
                fidelity,
                survivors,
                sims_performed,
                cache_hits,
                full_sims_performed,
            }) => println!(
                "hub: rung {} complete — {sims_performed} sims ({full_sims_performed} full), \
                 {cache_hits} cache hits, {survivors} survivors",
                fidelity.label()
            ),
            EventState::Done { full_sims_performed, .. } => {
                println!("hub: job {job} done — {full_sims_performed} full sims")
            }
            _ => {}
        }
    };
    run_resilient(addr, job, 3, &mut on_event).map_err(fail)
}

/// Converts an exploration into the `BENCH_explore.json` document:
/// per-candidate cycles and transfers, per-pass compile timing, the
/// best-choice-vs-explored-optimum gap in the context block, and (since
/// schema v2) a top-level `pareto` section with the non-dominated front
/// under the requested objectives.
fn to_report(workers: usize, report: &ExploreReport, front: &[usize]) -> BenchReport {
    let mut out = BenchReport::new("explore")
        .context("workload", report.workload.clone())
        .context("space", report.space.clone())
        .context("search", report.search.clone())
        .context("workers", workers)
        .context("objectives", objectives_json(report))
        .context("space_size", report.space_size)
        .context("pruned_out", report.pruned_out)
        .context("lint_rejected", report.lint_rejected)
        .context("measured", report.evaluations.len())
        .context("cache_hits", report.cache_hits)
        .context("sims_performed", report.sims_performed)
        .context("full_sims_performed", report.full_sims_performed)
        .context("warm_start", report.warm_started)
        .context("warm_informed", report.warm_informed)
        .context("measure_backend", report.measure_backend.clone());
    // Per-worker simulation counts (worker address -> sims), present
    // whenever this sweep ran simulations; `bench-compare` keeps gating
    // on the aggregate `sims_per_sec` regardless of the backend.
    if !report.worker_sims.is_empty() {
        out = out.context(
            "worker_sims",
            JsonValue::object(
                report.worker_sims.iter().map(|(worker, sims)| (worker.clone(), (*sims).into())),
            ),
        );
    }
    // Per-worker re-registration counts (worker address -> reconnects),
    // present only when the sweep actually lost and recovered workers —
    // a fault-free run must keep emitting byte-identical context.
    if !report.worker_reconnects.is_empty() {
        out = out.context(
            "worker_reconnects",
            JsonValue::object(
                report.worker_reconnects.iter().map(|(worker, n)| (worker.clone(), (*n).into())),
            ),
        );
    }
    // Simulator throughput over this sweep's full-fidelity runs — the
    // hot-path regression metric `bench-compare` gates on. Absent when
    // every candidate came out of the cache.
    if let Some(rate) = report.sims_per_sec() {
        out = out.context("sims_per_sec", rate);
    }
    if let Some(optimum) = report.optimum() {
        out = out
            .context("optimum_config", optimum.candidate.label())
            .context("optimum_ms", optimum.task_clock_ms);
    }
    if let (Some(h), Some(eval)) = (&report.heuristic, &report.heuristic_eval) {
        out =
            out.context("heuristic_config", h.label()).context("heuristic_ms", eval.task_clock_ms);
    }
    if let Some(gap) = report.heuristic_gap() {
        out = out.context("heuristic_gap", gap);
    }
    // Where the paper's analytical pick lands relative to the front.
    if let Some(dominated_by) = report.heuristic_dominated_by() {
        out = out
            .context("heuristic_on_front", dominated_by == 0)
            .context("heuristic_dominated_by", dominated_by);
    }
    for (index, eval) in report.evaluations.iter().enumerate() {
        let c = &eval.counters;
        let key = &eval.candidate.key;
        let pass_ms =
            JsonValue::object(eval.pass_ms.iter().map(|(p, ms)| (p.clone(), (*ms).into())));
        let mut entry = BenchEntry::new(eval.candidate.label())
            .metric("accel", key.accel.clone())
            .metric("flow", key.flow.clone())
            .metric("tile_m", key.tile.0)
            .metric("tile_n", key.tile.1)
            .metric("tile_k", key.tile.2)
            .metric("coalesce", key.options.coalesce)
            .metric("specialized_copies", key.options.specialized_copies)
            .metric("cache_tiling", key.options.cache_tiling.label())
            .metric("cpu", key.options.cpu.label())
            .metric("estimated_words", eval.candidate.estimate.words_total())
            .metric("estimated_transactions", eval.candidate.estimate.transactions)
            .metric("task_clock_ms", eval.task_clock_ms)
            .metric("host_cycles", c.host_cycles)
            .metric("device_cycles", c.device_cycles)
            .metric("cache_references", c.cache_references)
            .metric("dma_bytes_to_accel", c.dma_bytes_to_accel)
            .metric("dma_bytes_from_accel", c.dma_bytes_from_accel)
            .metric("dma_transactions", c.dma_transactions)
            .metric("dma_words", eval.dma_words())
            .metric("occupancy", eval.occupancy())
            .metric("accel_macs", c.accel_macs)
            .metric("verified", eval.verified)
            .metric("from_cache", eval.from_cache)
            .metric("on_pareto_front", front.contains(&index));
        entry = entry.metric("compile_ms", eval.pass_ms.iter().map(|(_, ms)| ms).sum::<f64>());
        entry = entry.metric("pass_ms", pass_ms);
        out.push(entry);
    }
    out.section("pareto", pareto_section(report, front))
}

/// The report's objective labels as a JSON array (shared by the context
/// block and the `pareto` section).
fn objectives_json(report: &ExploreReport) -> JsonValue {
    JsonValue::Array(report.objectives.iter().map(|o| JsonValue::from(o.label())).collect())
}

/// The `pareto` section: the objectives and, per front member, its label
/// and minimized score under each objective. Scores are keyed by
/// [`Objective::metric_key`], so clock/traffic/transactions line up with
/// the entry metrics of the same name while occupancy's score — the
/// *idle* fraction — is distinguished from the raw `occupancy` entry
/// metric.
///
/// [`Objective::metric_key`]: axi4mlir_core::explore::Objective::metric_key
fn pareto_section(report: &ExploreReport, front: &[usize]) -> JsonValue {
    let members: Vec<JsonValue> = front
        .iter()
        .map(|&index| {
            let eval = &report.evaluations[index];
            let mut fields = vec![("id", JsonValue::from(eval.candidate.label()))];
            fields.extend(report.objectives.iter().map(|&objective| {
                (objective.metric_key(), JsonValue::Float(eval.objective_value(objective)))
            }));
            JsonValue::object(fields)
        })
        .collect();
    JsonValue::object([
        ("objectives", objectives_json(report)),
        ("size", JsonValue::from(front.len() as u64)),
        ("front", JsonValue::Array(members)),
    ])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("axi4mlir-explore: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let request = request_from_args(args)?;
    let explore = request.job.build().map_err(|diag| diag.to_string())?;

    if let Some(addr) = &request.hub {
        let report = run_on_hub(addr, &request.job)?;
        return render(&report, request.workers, &request.json_dir);
    }

    let mut explorer = match &request.cache_dir {
        Some(dir) => {
            let explorer = Explorer::with_cache_dir(dir).map_err(|diag| diag.to_string())?;
            let shards = explorer.shard_counts();
            println!(
                "loaded {} cached results across {} shards from {}",
                explorer.cache_len(),
                shards.len(),
                dir.display()
            );
            for (shard, count) in &shards {
                println!("  shard {shard}: {count} entries");
            }
            explorer
        }
        None => Explorer::new(),
    };
    if request.warm_start {
        let model = explorer.transfer_model();
        if model.is_empty() {
            println!("warm start: no usable observations in the cache (running cold)");
        } else {
            println!("warm start: {} observations fitted from the cache", model.observations());
            explorer.set_warm_start(model);
        }
    }

    let objective_labels: Vec<&str> = explore.objectives.iter().map(|o| o.label()).collect();
    println!(
        "exploring {} ({} search, {} workers, prune {:?}, objectives {})\n",
        explore.space.as_dyn().describe(),
        explore.search.label(),
        request.workers,
        explore.prune,
        objective_labels.join("+"),
    );
    let report = explorer
        .explore_with_objectives(
            explore.space.as_dyn(),
            explore.prune,
            &explore.search,
            request.workers,
            &explore.objectives,
        )
        .map_err(|diag| diag.to_string())?;
    render(&report, request.workers, &request.json_dir)?;

    if let Some(dir) = &request.cache_dir {
        persist_cache(&explorer, dir)?;
    }
    Ok(())
}

/// Checkpoints the explorer's cache into its shard directory (dirty
/// shards only) and lists the shards.
fn persist_cache(explorer: &Explorer, dir: &Path) -> Result<(), String> {
    let stats =
        explorer.save_cache_dir(dir).map_err(|diag| format!("saving the cache failed: {diag}"))?;
    println!(
        "cache: {} results persisted to {} ({} shards written, {} clean)",
        stats.entries,
        dir.display(),
        stats.written.len(),
        stats.skipped
    );
    for (shard, count) in explorer.shard_counts() {
        println!("  shard {shard}: {count} entries");
    }
    Ok(())
}

/// Renders the human summary and writes `BENCH_explore.json`. Shared
/// verbatim by the local and `--hub` paths: the output document cannot
/// depend on where the sweep ran. The report is written before the
/// local path persists its cache, so the sweep's output survives even
/// when cache persistence fails.
fn render(report: &ExploreReport, workers: usize, json_dir: &Path) -> Result<(), String> {
    let objective_labels: Vec<&str> = report.objectives.iter().map(|o| o.label()).collect();
    // The measured space, best first.
    let mut ranked: Vec<_> = report.evaluations.iter().collect();
    ranked.sort_by(|a, b| a.task_clock_ms.total_cmp(&b.task_clock_ms));
    let mut table =
        TextTable::new(vec!["config", "est. words", "task-clock [ms]", "dma bytes", "dma txns"]);
    for eval in ranked.iter().take(10) {
        table.row(vec![
            eval.candidate.label(),
            eval.candidate.estimate.words_total().to_string(),
            fmt_ms(eval.task_clock_ms),
            eval.counters.dma_bytes_total().to_string(),
            eval.counters.dma_transactions.to_string(),
        ]);
    }
    println!("{}", table.render());
    if ranked.len() > 10 {
        println!("({} more candidates measured)", ranked.len() - 10);
    }
    println!(
        "space: {} legal, {} lint-rejected, {} pruned, {} measured — {} new simulations \
         ({} at full fidelity), {} cache hits",
        report.space_size,
        report.lint_rejected,
        report.pruned_out,
        report.evaluations.len(),
        report.sims_performed,
        report.full_sims_performed,
        report.cache_hits,
    );
    if report.warm_started {
        // `warm_informed` counts over the field the search actually
        // ranked: the post-prune survivors, not the whole space.
        println!(
            "warm start: the transfer model was informed about {} of {} surviving candidates",
            report.warm_informed,
            report.space_size - report.lint_rejected - report.pruned_out
        );
    }
    if let Some(optimum) = report.optimum() {
        println!(
            "explored optimum: {} at {}",
            optimum.candidate.label(),
            fmt_ms(optimum.task_clock_ms)
        );
    }
    let front = report.pareto_front();
    if report.objectives.len() > 1 {
        println!(
            "pareto front ({}): {} of {} measured candidates",
            objective_labels.join(" vs "),
            front.len(),
            report.evaluations.len()
        );
        for &index in &front {
            let eval = &report.evaluations[index];
            let scores: Vec<String> = report
                .objectives
                .iter()
                .map(|&o| format!("{}={:.6}", o.label(), eval.objective_value(o)))
                .collect();
            println!("  {}  {}", eval.candidate.label(), scores.join(" "));
        }
    }
    match (&report.heuristic, report.heuristic_gap()) {
        (Some(h), Some(gap)) => {
            println!("heuristic pick: {} — gap vs optimum: {gap:.3}x", h.label());
            if let Some(dominated_by) = report.heuristic_dominated_by() {
                if dominated_by == 0 {
                    println!("the analytical pick is on the Pareto front");
                } else {
                    println!(
                        "the analytical pick is dominated by {dominated_by} measured \
                         configuration(s)"
                    );
                }
            }
        }
        _ => println!("this space has no analytical heuristic pick"),
    }

    let path = to_report(workers, report, &front)
        .write_to_dir(json_dir)
        .map_err(|err| format!("writing the report failed: {err}"))?;
    println!("wrote {}", path.display());
    Ok(())
}

//! The repository benchmark.
//!
//! ```text
//! perfbench --workload resnet_conv|hub_sweeps|all
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line of
//! standard output, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics traced). Exits non-zero when any output check
//! fails. `perfbench/METRICS.md` is the metric catalogue.

mod figures;
mod service;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use axi4mlir_sim::counters::PerfCounters;

use stats::{Latency, Tally};
use trace::Split;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 2] = ["resnet_conv", "hub_sweeps"];

/// The end-to-end metrics (untraced runs), with units.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics (traced runs), with units. A layer a workload
/// never calls reads 0 on that workload.
const PER_LAYER: [(&str, &str); 40] = [
    ("core.compile_ms", "ms"),
    ("ir.pass.axi4mlir-match-and-annotate_ms", "ms"),
    ("ir.pass.axi4mlir-generate-driver_ms", "ms"),
    ("ir.pass.axi4mlir-lower-to-runtime_ms", "ms"),
    ("ir.pass.verify-dialects_ms", "ms"),
    ("workloads.bind_ms", "ms"),
    ("runtime.reference_ms", "ms"),
    ("interp.execute_ms", "ms"),
    ("interp.execute_ns_per_instruction", "ns"),
    ("core.verify_ms", "ms"),
    ("baselines.manual_conv_ms", "ms"),
    ("heuristics.choice_ms", "ms"),
    ("interp.instructions", "count"),
    ("sim.branch_instructions", "count"),
    ("sim.cache.references", "count"),
    ("sim.cache.l1_hit_ratio", "ratio"),
    ("sim.cache.l2_misses", "count"),
    ("sim.dma.bytes", "bytes"),
    ("sim.dma.transactions", "count"),
    ("accelerators.macs", "count"),
    ("runtime.uncached_accesses", "count"),
    ("sim_task_clock_ms", "sim_ms"),
    ("hub.ready_s", "s"),
    ("explore.cache.load_ms", "ms"),
    ("explore.cache.save_ms", "ms"),
    ("support.json.report_decode_ms", "ms"),
    ("support.json.parse_mb_per_s", "MB/s"),
    ("hub.accept_ms", "ms"),
    ("hub.queue_wait_ms", "ms"),
    ("hub.run_ms", "ms"),
    ("hub.elapsed_ms", "ms"),
    ("hub.event_lag_ms", "ms"),
    ("explore.cache_hit_ratio", "ratio"),
    ("explore.dedup_hits", "count"),
    ("explore.sims_performed", "count"),
    ("explore.sims_per_sec", "1/s"),
    ("worker.measure_rtt_ms", "ms"),
    ("explore.run_candidate_ms", "ms"),
    ("trace.overhead_ms", "ms"),
    ("trace.uncovered_pct", "%"),
];

/// Wall time of one `resnet_conv` pass on a two-core Xeon host.
const RESNET_PASS_S: f64 = 28.0;

const USAGE: &str = "usage: perfbench --workload resnet_conv|hub_sweeps|all \
                     --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds needs a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One workload's result.
struct Outcomes {
    tally: Tally,
    /// Metric name → (value, unit), in report order.
    metrics: Vec<(String, f64, String)>,
    /// Human-readable lines printed before the metrics.
    notes: String,
}

impl Outcomes {
    fn correct(&self) -> bool {
        self.tally.failed == 0
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|(n, _)| *n == name).map_or("", |(_, u)| u)
}

/// Collects metrics, then emits exactly the names the mode reports
/// (missing per-layer names read 0: the workload never called that layer).
struct Metrics {
    values: Vec<(String, f64)>,
}

impl Metrics {
    fn new() -> Self {
        Self { values: Vec::new() }
    }

    fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "metric {name} is not a finite number: {value}");
        self.values.retain(|(n, _)| n != name);
        self.values.push((name.to_owned(), value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    fn finish(self, trace: bool) -> Vec<(String, f64, String)> {
        let names: Vec<&str> = if trace {
            PER_LAYER.iter().map(|(n, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|(n, _)| *n).collect()
        };
        names
            .into_iter()
            .map(|n| (n.to_owned(), self.get(n).unwrap_or(0.0), unit_of(n).to_owned()))
            .collect()
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn median_secs(samples: &[Duration]) -> f64 {
    stats::median(&samples.iter().map(|d| secs(*d)).collect::<Vec<_>>())
}

fn latency_note(lat: &Latency) -> String {
    format!(
        "latency over {} ops: p50 {:.3} ms, tail p{:.1} {:.3} ms\n",
        lat.samples, lat.p50_ms, lat.tail_pct, lat.tail_ms
    )
}

fn set_latency(m: &mut Metrics, lat: &Latency) {
    m.set("latency_ms_p50", lat.p50_ms);
    m.set("latency_ms_tail", lat.tail_ms);
}

fn set_counters(m: &mut Metrics, c: &PerfCounters) {
    m.set("interp.instructions", c.instructions as f64);
    m.set("sim.branch_instructions", c.branch_instructions as f64);
    m.set("sim.cache.references", c.cache_references as f64);
    let l1_hits = c.cache_references.saturating_sub(c.l1_misses);
    m.set(
        "sim.cache.l1_hit_ratio",
        if c.cache_references == 0 { 0.0 } else { l1_hits as f64 / c.cache_references as f64 },
    );
    m.set("sim.cache.l2_misses", c.l2_misses as f64);
    m.set("sim.dma.bytes", c.dma_bytes_total() as f64);
    m.set("sim.dma.transactions", c.dma_transactions as f64);
    m.set("accelerators.macs", c.accel_macs as f64);
    m.set("runtime.uncached_accesses", c.uncached_accesses as f64);
}

/// The driver-path layer means from a split.
fn set_driver_layers(m: &mut Metrics, split: &Split, instructions: u64) {
    let execute = split.layer("interp.execute");
    let bind = split.layer("workloads.bind");
    m.set("core.compile_ms", split.layer("core.compile").mean_ms());
    m.set("workloads.bind_ms", bind.mean_ms());
    m.set(
        "runtime.reference_ms",
        split.layer("workloads.bind_with_reference").mean_ms() - bind.mean_ms(),
    );
    m.set("interp.execute_ms", execute.mean_ms());
    if instructions > 0 {
        m.set(
            "interp.execute_ns_per_instruction",
            execute.total.as_nanos() as f64 / instructions as f64,
        );
    }
    m.set("core.verify_ms", split.layer("core.verify").mean_ms());
    m.set("baselines.manual_conv_ms", split.layer("baselines.manual_conv").mean_ms());
    m.set("heuristics.choice_ms", split.layer("heuristics.choice").mean_ms());
}

fn set_pass_means(m: &mut Metrics, passes: &std::collections::BTreeMap<String, f64>) {
    for (pass, ms) in passes {
        m.set(&format!("ir.pass.{pass}_ms"), *ms);
    }
}

fn run_figure(workload: &str, args: &Args) -> Result<Outcomes, String> {
    let lanes = std::thread::available_parallelism().map_or(1, |n| n.get()).min(2);
    let ops = figures::resnet_ops();
    // A traced run makes one pass: its per-layer counts cover one pass.
    let passes = if args.trace { 1 } else { figures::passes_for(args.seconds, RESNET_PASS_S) };
    let run = figures::run(&ops, args.seed, passes, args.trace, lanes);
    let setups: Vec<Duration> = run.setups.iter().cloned().collect::<Result<_, _>>()?;

    let mut tally = Tally::default();
    let mut latencies = Vec::new();
    for r in &run.results {
        tally.record(&r.outcome);
        if !r.outcome.is_failure() {
            latencies.push(r.latency);
        }
    }
    let mut notes = String::new();
    let _ = writeln!(
        notes,
        "{workload}: {} ops in {passes} pass(es) on {lanes} thread(s), {:.3} s wall",
        run.results.len(),
        secs(run.wall)
    );
    let sim_ms = figures::sim_task_clock_ms(&ops, &run.results);
    let _ = writeln!(notes, "sim_task_clock_ms (simulated, deterministic) = {sim_ms}");

    let mut m = Metrics::new();
    m.set("setup_s", median_secs(&setups));
    let verified = latencies.len();
    m.set("throughput_ops_per_s", verified as f64 / secs(run.wall));
    if !latencies.is_empty() {
        let lat = stats::latency(&latencies);
        notes.push_str(&latency_note(&lat));
        set_latency(&mut m, &lat);
    }
    m.set("peak_rss_mb", stats::peak_rss_mb("self")?);
    m.set("sim_task_clock_ms", sim_ms);

    if args.trace {
        let split = trace::split(&run.spans);
        let counters = figures::pass0_counters(&run.results);
        let driver_instructions: u64 = run
            .results
            .iter()
            .filter(|r| !matches!(ops[r.index], figures::FigOp::Manual(_)))
            .map(|r| r.counters.instructions)
            .sum();
        set_driver_layers(&mut m, &split, driver_instructions);
        set_pass_means(&mut m, &figures::pass_means(&run.results));
        set_counters(&mut m, &counters);
        let paired: Vec<f64> = run
            .results
            .iter()
            .filter_map(|r| r.untraced.map(|u| secs(r.latency) - secs(u)))
            .collect();
        if !paired.is_empty() {
            m.set("trace.overhead_ms", 1e3 * paired.iter().sum::<f64>() / paired.len() as f64);
        }
        m.set("trace.uncovered_pct", split.uncovered_pct());
        let _ = writeln!(
            notes,
            "per-layer split (traced):\n{}",
            trace::render_split(&split, &run.spans)
        );
        write_spans(workload, args.seed, &run.spans, &mut notes);
    }
    Ok(Outcomes { tally, metrics: m.finish(args.trace), notes })
}

fn write_spans(workload: &str, seed: u64, spans: &[trace::Span], notes: &mut String) {
    let path = Path::new("perfbench/out").join(format!("spans-{workload}-seed{seed}.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => {
            let _ = writeln!(notes, "{} spans written to {}", spans.len(), path.display());
        }
        Err(e) => {
            let _ = writeln!(notes, "spans not written: {e}");
        }
    }
}

fn run_hub(args: &Args, out: &Path) -> Result<Outcomes, String> {
    let run = service::run(args.seed, args.seconds, args.trace, out)?;
    let tally = service::tally(&run.jobs, &run.check_failures);
    let verified: Vec<Duration> = run
        .jobs
        .iter()
        .filter(|j| !j.outcome.is_failure())
        .map(service::JobRecord::latency)
        .collect();
    let mut notes = String::new();
    let writes = run.jobs.iter().filter(|j| j.kind == service::JobKind::Write).count();
    let _ = writeln!(
        notes,
        "hub_sweeps: {} jobs ({writes} writes) from 2 clients in {:.3} s",
        run.jobs.len(),
        secs(run.wall)
    );
    for kind in [service::JobKind::Read, service::JobKind::Write, service::JobKind::Large] {
        let of_kind: Vec<Duration> = run
            .jobs
            .iter()
            .filter(|j| j.kind == kind && !j.outcome.is_failure())
            .map(service::JobRecord::latency)
            .collect();
        if !of_kind.is_empty() {
            let lat = stats::latency(&of_kind);
            let _ = writeln!(notes, "  {kind:?} jobs: {}", latency_note(&lat).trim_end());
        }
    }
    let _ =
        writeln!(notes, "sim_task_clock_ms (simulated, deterministic) = {}", run.sim_task_clock_ms);
    let mut m = Metrics::new();
    m.set("setup_s", median_secs(&run.setups));
    m.set("throughput_ops_per_s", verified.len() as f64 / secs(run.wall));
    if !verified.is_empty() {
        let lat = stats::latency(&verified);
        notes.push_str(&latency_note(&lat));
        set_latency(&mut m, &lat);
    }
    m.set("peak_rss_mb", run.peak_rss_mb);
    m.set("sim_task_clock_ms", run.sim_task_clock_ms);
    m.set("hub.ready_s", median_secs(&run.hub_ready));
    m.set("explore.dedup_hits", run.dedup_hits as f64);
    for (name, value) in service::job_means(&run.jobs) {
        m.set(name, value);
    }
    if let Some(probed) = &run.probed {
        let split = trace::split(&run.spans);
        set_driver_layers(&mut m, &split, probed.counters.instructions);
        set_counters(&mut m, &probed.counters);
        let parse = split.layer("support.json.parse");
        let decode = parse.total + split.layer("explore.wire.report_from_json").total;
        if parse.calls > 0 {
            m.set("support.json.report_decode_ms", decode.as_secs_f64() * 1e3 / parse.calls as f64);
            m.set(
                "support.json.parse_mb_per_s",
                probed.frame_bytes as f64 / 1e6 / secs(parse.total),
            );
        }
        for (metric, span) in [
            ("explore.cache.load_ms", "explore.cache.load"),
            ("explore.cache.save_ms", "explore.cache.save"),
            ("worker.measure_rtt_ms", "worker.measure"),
            ("explore.run_candidate_ms", "explore.run_candidate"),
        ] {
            m.set(metric, split.layer(span).mean_ms());
        }
        set_pass_means(&mut m, &probed.pass_ms.iter().cloned().collect());
        let ops = run.jobs.len().max(1) as f64;
        let cost: f64 = run.jobs.iter().map(|j| secs(j.trace_cost)).sum();
        m.set("trace.overhead_ms", 1e3 * cost / ops);
        m.set("trace.uncovered_pct", split.uncovered_pct());
        let _ = writeln!(
            notes,
            "per-layer split (traced):\n{}",
            trace::render_split(&split, &run.spans)
        );
        write_spans("hub_sweeps", args.seed, &run.spans, &mut notes);
    }
    Ok(Outcomes { tally, metrics: m.finish(args.trace), notes })
}

fn run_workload(workload: &str, args: &Args) -> Result<Outcomes, String> {
    let out = PathBuf::from("perfbench/out").join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let result =
        if workload == "hub_sweeps" { run_hub(args, &out) } else { run_figure(workload, args) };
    let _ = std::fs::remove_dir_all(&out);
    result
}

/// The result line. Written by hand rather than through `support::json`,
/// so the benchmark's output never depends on the codec it measures.
fn json_line(correct: bool, tally: &Tally, metrics: &[(String, f64, String)]) -> String {
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(body, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let workloads: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };
    let mut total = Tally::default();
    let mut all_metrics = Vec::new();
    for workload in &workloads {
        let outcomes = match run_workload(workload, &args) {
            Ok(o) => o,
            Err(message) => {
                eprintln!("perfbench: {workload}: {message}");
                return ExitCode::FAILURE;
            }
        };
        print!("{}", outcomes.notes);
        println!(
            "error_rate = {} ({} failed of {} attempted)",
            outcomes.tally.error_rate(),
            outcomes.tally.failed,
            outcomes.tally.attempted
        );
        for reason in &outcomes.tally.reasons {
            println!("FAILED CHECK: {reason}");
        }
        for (name, value, unit) in &outcomes.metrics {
            println!("{workload} {name} = {value} {unit}");
        }
        if !outcomes.correct() {
            eprintln!("perfbench: {workload}: output checks failed");
        }
        total.attempted += outcomes.tally.attempted;
        total.failed += outcomes.tally.failed;
        let prefix = if workloads.len() > 1 { format!("{workload}.") } else { String::new() };
        all_metrics
            .extend(outcomes.metrics.into_iter().map(|(n, v, u)| (format!("{prefix}{n}"), v, u)));
    }
    let correct = total.failed == 0;
    println!("{}", json_line(correct, &total, &all_metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stats::Outcome;

    /// The metric lists here and in `BENCHMARK.json` must name the same
    /// metrics with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let json = axi4mlir_support::json::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(|v| v.as_array())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| ((*n).to_owned(), (*u).to_owned())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        for workload in json.get("workloads").and_then(|v| v.as_array()).expect("workloads") {
            let name = workload.get("name").and_then(|v| v.as_str()).expect("workload name");
            assert!(WORKLOADS.contains(&name), "unknown workload {name}");
        }
    }

    #[test]
    fn missing_per_layer_metrics_read_zero_and_extras_are_dropped() {
        let mut m = Metrics::new();
        m.set("core.compile_ms", 1.5);
        m.set("not_a_metric", 3.0);
        let out = m.finish(true);
        assert_eq!(out.len(), PER_LAYER.len());
        assert_eq!(out[0], ("core.compile_ms".to_owned(), 1.5, "ms".to_owned()));
        assert!(out.iter().all(|(n, _, _)| n != "not_a_metric"));
        assert_eq!(out.iter().find(|(n, _, _)| n == "hub.run_ms").unwrap().1, 0.0);
    }

    #[test]
    fn the_result_line_is_json_with_the_four_keys() {
        let mut tally = Tally::default();
        tally.record(&Outcome::Verified);
        let line = json_line(true, &tally, &[("setup_s".into(), 0.25, "s".into())]);
        let json = axi4mlir_support::json::JsonValue::parse(&line).unwrap();
        let keys: Vec<&str> = json.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(|v| v.as_f64()), Some(0.25));
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| s.split(' ').map(str::to_owned).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload hub_sweeps --seed 3 --seconds 10 --trace 1")).is_ok());
        assert!(parse_args(&args("--workload nope --seed 3 --seconds 10 --trace 1")).is_err());
        assert!(parse_args(&args("--workload all --seed 3 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--workload all --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&args("--workload all --seed 3 --trace 0")).is_err());
    }
}

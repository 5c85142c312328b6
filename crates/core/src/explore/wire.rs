//! Wire form of an [`ExploreReport`], for the hub protocol.
//!
//! The hub daemon finishes a job with a `done` event carrying the full
//! report; the client on the other end of the socket (the
//! `axi4mlir-explore --hub` mode) rebuilds an [`ExploreReport`] from it
//! and renders `BENCH_explore.json` with the *same* local code the
//! non-hub path uses — which is what makes the two paths byte-identical
//! by construction. Candidate keys and counters reuse the persistent
//! cache's spellings ([`cache::key_to_json`] and friends), so the wire
//! and the cache never drift apart. Decoding goes through
//! [`Members`], so every error names the member at fault.
//!
//! [`cache::key_to_json`]: super::cache::key_to_json

use axi4mlir_heuristics::TransferEstimate;
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};

use super::cache::{counters_to_json, key_from_json, key_to_json, CachedEval};
use super::space::Candidate;
use super::{Evaluation, ExploreReport, Objective};

/// Serializes a candidate (key plus analytical estimate) in the wire
/// spelling shared by the hub's report frames and the remote measurement
/// protocol (see [`super::measure`]).
pub fn candidate_to_json(candidate: &Candidate) -> JsonValue {
    JsonValue::object([
        ("key", key_to_json(&candidate.key)),
        (
            "estimate",
            JsonValue::object([
                ("words_to_accel", candidate.estimate.words_to_accel.into()),
                ("words_from_accel", candidate.estimate.words_from_accel.into()),
                ("transactions", candidate.estimate.transactions.into()),
            ]),
        ),
    ])
}

/// Parses a candidate serialized by [`candidate_to_json`].
///
/// # Errors
///
/// Returns a [`Diagnostic`] naming the missing or malformed member.
pub fn candidate_from_json(value: &JsonValue) -> Result<Candidate, Diagnostic> {
    let m = Members::of(value, "candidate")?;
    let estimate = m.object("estimate")?;
    Ok(Candidate {
        key: key_from_json(m.value("key")?, false)?,
        estimate: TransferEstimate {
            words_to_accel: estimate.req("words_to_accel")?,
            words_from_accel: estimate.req("words_from_accel")?,
            transactions: estimate.req("transactions")?,
        },
    })
}

fn evaluation_to_json(eval: &Evaluation) -> JsonValue {
    JsonValue::object([
        ("candidate", candidate_to_json(&eval.candidate)),
        ("counters", counters_to_json(&eval.counters)),
        ("task_clock_ms", eval.task_clock_ms.into()),
        ("verified", eval.verified.into()),
        ("work", eval.work.into()),
        ("pass_ms", eval.pass_ms.clone().into()),
        ("from_cache", eval.from_cache.into()),
    ])
}

fn evaluation_from_json(value: &JsonValue) -> Result<Evaluation, Diagnostic> {
    let m = Members::of(value, "evaluation")?;
    let candidate = candidate_from_json(m.value("candidate")?)?;
    let CachedEval { counters, task_clock_ms, verified, .. } = CachedEval::from_members(&m)?;
    Ok(Evaluation {
        candidate,
        counters,
        task_clock_ms,
        verified,
        work: m.req("work")?,
        pass_ms: m.opt("pass_ms")?.unwrap_or_default(),
        from_cache: m.req("from_cache")?,
    })
}

/// Serializes a report as the JSON object a hub `done` event carries.
pub fn report_to_json(report: &ExploreReport) -> JsonValue {
    let objectives: Vec<&str> = report.objectives.iter().map(Objective::label).collect();
    let evaluations: Vec<JsonValue> = report.evaluations.iter().map(evaluation_to_json).collect();
    let mut members = vec![
        ("space", report.space.as_str().into()),
        ("workload", report.workload.as_str().into()),
        ("search", report.search.as_str().into()),
        ("space_size", report.space_size.into()),
        ("pruned_out", report.pruned_out.into()),
        ("lint_rejected", report.lint_rejected.into()),
        ("cache_hits", report.cache_hits.into()),
        ("sims_performed", report.sims_performed.into()),
        ("full_sims_performed", report.full_sims_performed.into()),
        ("full_sim_nanos", report.full_sim_nanos.into()),
        ("warm_started", report.warm_started.into()),
        ("warm_informed", report.warm_informed.into()),
        ("measure_backend", report.measure_backend.as_str().into()),
        ("worker_sims", report.worker_sims.clone().into()),
        ("objectives", objectives.into()),
        ("evaluations", evaluations.into()),
    ];
    // Omitted when empty (local sweeps, fault-free remote sweeps) so
    // fault-free documents are byte-identical to pre-reconnect ones.
    if !report.worker_reconnects.is_empty() {
        members.push(("worker_reconnects", report.worker_reconnects.clone().into()));
    }
    members.extend(report.heuristic.as_ref().map(|c| ("heuristic", candidate_to_json(c))));
    members
        .extend(report.heuristic_eval.as_ref().map(|e| ("heuristic_eval", evaluation_to_json(e))));
    JsonValue::object(members)
}

/// Rebuilds a report from its wire form.
///
/// # Errors
///
/// Returns a [`Diagnostic`] naming the first malformed member.
pub fn report_from_json(value: &JsonValue) -> Result<ExploreReport, Diagnostic> {
    let m = Members::of(value, "wire report")?;
    let objectives = m
        .req::<Vec<&str>>("objectives")?
        .into_iter()
        .map(|label| {
            Objective::parse(label)
                .ok_or_else(|| m.invalid("objectives", format!("holds an unknown label `{label}`")))
        })
        .collect::<Result<_, _>>()?;
    let evaluations = m.req::<Vec<_>>("evaluations")?;
    let evaluations =
        evaluations.into_iter().map(evaluation_from_json).collect::<Result<_, _>>()?;
    Ok(ExploreReport {
        space: m.req("space")?,
        workload: m.req("workload")?,
        search: m.req("search")?,
        space_size: m.req("space_size")?,
        pruned_out: m.req("pruned_out")?,
        // Absent in pre-audit wire reports; those rejected nothing.
        lint_rejected: m.opt("lint_rejected")?.unwrap_or(0),
        cache_hits: m.req("cache_hits")?,
        sims_performed: m.req("sims_performed")?,
        full_sims_performed: m.req("full_sims_performed")?,
        full_sim_nanos: m.req("full_sim_nanos")?,
        warm_started: m.req("warm_started")?,
        warm_informed: m.req("warm_informed")?,
        measure_backend: m.req("measure_backend")?,
        worker_sims: m.req("worker_sims")?,
        // Absent for fault-free sweeps and pre-reconnect wire reports.
        worker_reconnects: m.opt("worker_reconnects")?.unwrap_or_default(),
        evaluations,
        objectives,
        heuristic: m.get("heuristic").map(candidate_from_json).transpose()?,
        heuristic_eval: m.get("heuristic_eval").map(evaluation_from_json).transpose()?,
    })
}

#[cfg(test)]
mod tests {
    use super::super::{AccelInstance, Explorer, MatMulSpace, Prune, Search};
    use super::*;
    use axi4mlir_workloads::matmul::MatMulProblem;

    #[test]
    fn reports_round_trip_through_the_wire() {
        let space = MatMulSpace::new(MatMulProblem::new(16, 16, 16))
            .accels(vec![AccelInstance::v4(8)])
            .seed(7);
        let report = Explorer::new()
            .explore_with_objectives(&space, Prune::KeepBest(3), &Search::Exhaustive, 1, &[])
            .unwrap();
        assert!(report.heuristic.is_some() && report.heuristic_eval.is_some());

        let wire = report_to_json(&report);
        let back = report_from_json(&wire).unwrap();
        // Serializing the rebuilt report again must yield the identical
        // document — every field survived, including float metrics.
        assert_eq!(wire.to_json_string(), report_to_json(&back).to_json_string());
        assert_eq!(back.evaluations.len(), report.evaluations.len());
        assert_eq!(back.optimum().unwrap().candidate.key, report.optimum().unwrap().candidate.key);
        assert_eq!(back.sims_per_sec().is_some(), report.sims_per_sec().is_some());
    }

    #[test]
    fn malformed_wire_reports_are_diagnostics() {
        let space = MatMulSpace::new(MatMulProblem::new(8, 8, 8));
        let report = Explorer::new()
            .explore_with_objectives(&space, Prune::None, &Search::Exhaustive, 1, &[])
            .unwrap();
        let wire = report_to_json(&report);
        // Drop one required member at a time; each must fail by name.
        for member in ["workload", "evaluations", "objectives", "full_sim_nanos", "measure_backend"]
        {
            let pruned = JsonValue::object(
                wire.as_object().unwrap().iter().filter(|(name, _)| name != member).cloned(),
            );
            let err = report_from_json(&pruned).unwrap_err();
            assert!(err.message.contains(member), "`{}` should blame {member}", err.message);
        }
        assert!(report_from_json(&JsonValue::Null).is_err());
    }
}

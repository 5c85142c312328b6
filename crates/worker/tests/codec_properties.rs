//! Property tests for the wire codecs of both protocols.
//!
//! - Random `JobSpec`, hub `Request` and `Reply`, worker request and
//!   reply, and `ExploreReport` values survive `to_json` →
//!   `to_json_string` → `parse` → `from_json` unchanged.
//! - Removing any one required member from any encoded frame, at any
//!   depth, fails to decode with a diagnostic that names that member.
//!   Only the members the protocol documents as optional may go.

use std::borrow::Cow;

use proptest::collection::vec;
use proptest::prelude::*;

use axi4mlir_config::{CacheTiling, CpuModel};
use axi4mlir_core::explore::cache::CachedEval;
use axi4mlir_core::explore::measure::{Measurement, WorkerReply, WorkerRequest};
use axi4mlir_core::explore::{
    wire, Candidate, CandidateKey, Evaluation, ExploreReport, Fidelity, JobSpec, Objective,
    OptionsPoint, ProgressEvent,
};
use axi4mlir_heuristics::TransferEstimate;
use axi4mlir_hub::protocol::{EventState, HubInfo, HubStatus, Reply, Request};
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_support::json::JsonValue;

/// Members a frame may lack: the protocol documents them as optional.
/// Every `job` member is optional too, so `job` objects are not pruned.
const OPTIONAL: [&str; 8] = [
    "priority",
    "sim_workers",
    "sims_per_sec",
    "lint_rejected",
    "worker_reconnects",
    "heuristic",
    "heuristic_eval",
    "pass_ms",
];

fn text() -> BoxedStrategy<String> {
    prop_oneof![Just("v4_8".to_owned()), "[ -~]{0,12}", "\\PC{0,6}"].boxed()
}

fn opt<T: Clone + 'static>(
    strategy: impl Strategy<Value = T> + 'static,
) -> BoxedStrategy<Option<T>> {
    prop_oneof![Just(None), strategy.prop_map(Some)].boxed()
}

/// Finite floats, integral ones included.
fn float() -> BoxedStrategy<f64> {
    (any::<i64>(), 1u64..1000).prop_map(|(n, d)| n as f64 / d as f64).boxed()
}

fn job_spec() -> impl Strategy<Value = JobSpec> {
    let dims = opt((any::<i64>(), any::<i64>(), any::<i64>()));
    (
        (text(), dims, opt(any::<i64>()), opt(text()), vec(text(), 0..3), opt(any::<u64>())),
        (any::<bool>(), any::<bool>(), vec(text(), 0..3), text(), text()),
        (vec(text(), 0..3), opt(any::<u64>())),
    )
        .prop_map(
            |(
                (workload, dims, batch, layer, accels, capacity_words),
                (sweep_options, sweep_cache_tiling, cpus, search, prune),
                (objectives, seed),
            )| JobSpec {
                workload,
                dims,
                batch,
                layer,
                accels,
                capacity_words,
                sweep_options,
                sweep_cache_tiling,
                cpus,
                search,
                prune,
                objectives,
                seed,
            },
        )
}

fn fidelity() -> BoxedStrategy<Fidelity> {
    prop_oneof![Just(Fidelity::Full), (1u8..=255).prop_map(|level| Fidelity::Proxy { level })]
        .boxed()
}

fn candidate() -> impl Strategy<Value = Candidate> {
    let cache_tiling = prop_oneof![
        Just(CacheTiling::Off),
        Just(CacheTiling::Auto),
        (1i64..=4096).prop_map(CacheTiling::Fixed),
    ];
    let cpu = prop_oneof![Just(CpuModel::PynqZ2), Just(CpuModel::Zcu102), Just(CpuModel::Desktop)];
    let options = (any::<bool>(), any::<bool>(), cache_tiling, cpu).prop_map(
        |(coalesce, specialized_copies, cache_tiling, cpu)| OptionsPoint {
            coalesce,
            specialized_copies,
            cache_tiling,
            cpu,
        },
    );
    (
        (text(), text(), text()),
        (any::<i64>(), any::<i64>(), any::<i64>()),
        options,
        any::<u64>(),
        (any::<u64>(), any::<u64>(), any::<u64>()),
    )
        .prop_map(
            |((workload, accel, flow), tile, options, seed, (to, from, transactions))| Candidate {
                key: CandidateKey { workload, accel, flow, tile, options, seed },
                estimate: TransferEstimate {
                    words_to_accel: to,
                    words_from_accel: from,
                    transactions,
                },
            },
        )
}

fn counters() -> impl Strategy<Value = PerfCounters> {
    vec(any::<u64>(), 13..14).prop_map(|c| PerfCounters {
        host_cycles: c[0],
        device_cycles: c[1],
        cache_references: c[2],
        l1_misses: c[3],
        l2_misses: c[4],
        branch_instructions: c[5],
        instructions: c[6],
        uncached_accesses: c[7],
        dma_bytes_to_accel: c[8],
        dma_bytes_from_accel: c[9],
        dma_transactions: c[10],
        accel_compute_cycles: c[11],
        accel_macs: c[12],
    })
}

fn evaluation() -> impl Strategy<Value = Evaluation> {
    (
        candidate(),
        counters(),
        (float(), any::<bool>(), any::<u64>()),
        vec((text(), float()), 0..3),
        any::<bool>(),
    )
        .prop_map(
            |(candidate, counters, (task_clock_ms, verified, work), pass_ms, from_cache)| {
                Evaluation {
                    candidate,
                    counters,
                    task_clock_ms,
                    verified,
                    work,
                    pass_ms,
                    from_cache,
                }
            },
        )
}

fn report() -> impl Strategy<Value = ExploreReport> {
    let objective = prop_oneof![
        Just(Objective::TaskClock),
        Just(Objective::DmaWords),
        Just(Objective::DmaTransactions),
        Just(Objective::Occupancy),
    ];
    let counts = vec(0usize..100_000, 7..8);
    (
        (text(), text(), text(), text()),
        (counts, any::<u64>(), any::<bool>()),
        (vec((text(), 0usize..1000), 0..3), vec((text(), 0usize..1000), 0..3)),
        vec(evaluation(), 0..3),
        vec(objective, 0..3),
        (opt(candidate()), opt(evaluation())),
    )
        .prop_map(
            |(
                (space, workload, search, measure_backend),
                (counts, full_sim_nanos, warm_started),
                (worker_sims, worker_reconnects),
                evaluations,
                objectives,
                (heuristic, heuristic_eval),
            )| ExploreReport {
                space,
                workload,
                search,
                space_size: counts[0],
                pruned_out: counts[1],
                lint_rejected: counts[2],
                cache_hits: counts[3],
                sims_performed: counts[4],
                full_sims_performed: counts[5],
                full_sim_nanos,
                warm_started,
                warm_informed: counts[6],
                measure_backend,
                worker_sims,
                worker_reconnects,
                evaluations,
                objectives,
                heuristic,
                heuristic_eval,
            },
        )
}

fn request() -> BoxedStrategy<Request> {
    prop_oneof![
        Just(Request::Hello),
        Just(Request::Status),
        Just(Request::Shutdown),
        any::<u64>().prop_map(|job| Request::Follow { job }),
        (job_spec(), any::<i64>(), opt(1usize..64)).prop_map(|(spec, priority, sim_workers)| {
            Request::Submit { spec: Box::new(spec), priority, sim_workers }
        }),
    ]
    .boxed()
}

fn event_state() -> BoxedStrategy<EventState<'static>> {
    let counts = vec(0usize..10_000, 4..5);
    prop_oneof![
        Just(EventState::Queued),
        (1usize..64).prop_map(|sim_workers| EventState::Running { sim_workers }),
        (0usize..10_000, 0usize..10_000).prop_map(|(space_size, survivors)| {
            EventState::Progress(ProgressEvent::SpaceReady { space_size, survivors })
        }),
        (fidelity(), counts).prop_map(|(fidelity, c)| {
            EventState::Progress(ProgressEvent::RungComplete {
                fidelity,
                survivors: c[0],
                sims_performed: c[1],
                cache_hits: c[2],
                full_sims_performed: c[3],
            })
        }),
        (0usize..10_000, opt(float()), float(), report()).prop_map(
            |(full_sims_performed, sims_per_sec, elapsed_ms, report)| EventState::Done {
                full_sims_performed,
                sims_per_sec,
                elapsed_ms,
                report: Cow::Owned(wire::report_to_json(&report)),
            }
        ),
        text().prop_map(|reason| EventState::Failed { reason }),
        Just(EventState::Detached),
    ]
    .boxed()
}

fn reply() -> BoxedStrategy<Reply<'static>> {
    let counts = vec(0usize..10_000, 6..7);
    prop_oneof![
        (text(), 0usize..100, 0usize..100, 0usize..100).prop_map(
            |(schema, cache_entries, queue_capacity, workers)| {
                Reply::Hello(HubInfo { schema, cache_entries, queue_capacity, workers })
            }
        ),
        (any::<u64>(), 0usize..100)
            .prop_map(|(job, queued_ahead)| Reply::Accepted { job, queued_ahead }),
        (text(), 0usize..100, 0usize..100).prop_map(|(reason, queued, queue_capacity)| {
            Reply::Rejected { reason, queued, queue_capacity }
        }),
        (any::<u64>(), 0usize..100).prop_map(|(job, replayed)| Reply::Following { job, replayed }),
        text().prop_map(|reason| Reply::Error { reason }),
        counts.prop_map(|c| Reply::Status(HubStatus {
            queued: c[0],
            running: c[1],
            completed: c[2],
            failed: c[3],
            cache_entries: c[4],
            dedup_hits: c[5],
        })),
        Just(Reply::ShuttingDown),
        (any::<u64>(), event_state()).prop_map(|(job, state)| Reply::Event { job, state }),
    ]
    .boxed()
}

fn worker_request() -> BoxedStrategy<WorkerRequest> {
    prop_oneof![
        Just(WorkerRequest::Hello),
        Just(WorkerRequest::Drain),
        (any::<u64>(), job_spec(), fidelity(), candidate()).prop_map(
            |(id, job, fidelity, candidate)| {
                WorkerRequest::Measure(Box::new(Measurement { id, job, fidelity, candidate }))
            }
        ),
    ]
    .boxed()
}

fn worker_reply() -> BoxedStrategy<WorkerReply> {
    prop_oneof![
        (1usize..64).prop_map(|slots| WorkerReply::Hello { slots }),
        (any::<u64>(), counters(), float(), any::<bool>(), any::<u64>()).prop_map(
            |(id, counters, task_clock_ms, verified, nanos)| WorkerReply::Result {
                id,
                eval: CachedEval { counters, task_clock_ms, verified, pass_ms: Vec::new() },
                nanos,
            }
        ),
        (any::<u64>(), text()).prop_map(|(id, reason)| WorkerReply::Failed { id, reason }),
        Just(WorkerReply::Drained),
        text().prop_map(|reason| WorkerReply::Error { reason }),
    ]
    .boxed()
}

/// The frame as the peer reads it: compact text, parsed back.
fn over_the_wire(frame: &JsonValue) -> Result<JsonValue, TestCaseError> {
    JsonValue::parse(&frame.to_json_string()).map_err(|e| TestCaseError::fail(e.message))
}

/// Every copy of `value` with exactly one object member removed, at any
/// depth, paired with the removed member's name. Only the first element
/// of an array is descended into, and `job` objects are not.
fn prunings(value: &JsonValue) -> Vec<(String, JsonValue)> {
    match value {
        JsonValue::Object(members) => {
            let mut out = Vec::new();
            for (at, (name, child)) in members.iter().enumerate() {
                let mut pruned = members.clone();
                pruned.remove(at);
                out.push((name.clone(), JsonValue::Object(pruned)));
                if name == "job" {
                    continue;
                }
                for (inner, replaced) in prunings(child) {
                    let mut copy = members.clone();
                    copy[at].1 = replaced;
                    out.push((inner, JsonValue::Object(copy)));
                }
            }
            out
        }
        JsonValue::Array(items) if !items.is_empty() => prunings(&items[0])
            .into_iter()
            .map(|(inner, replaced)| {
                let mut copy = items.clone();
                copy[0] = replaced;
                (inner, JsonValue::Array(copy))
            })
            .collect(),
        _ => Vec::new(),
    }
}

/// Checks that every required member of `frame` is required by
/// `decode`, and that its error names the member.
fn every_required_member_is_named(
    frame: &JsonValue,
    decode: impl Fn(&JsonValue) -> Result<(), String>,
) -> Result<(), TestCaseError> {
    prop_assert!(decode(frame).is_ok(), "the intact frame decodes: {}", frame.to_json_string());
    for (member, pruned) in prunings(frame) {
        if OPTIONAL.contains(&member.as_str()) {
            continue;
        }
        match decode(&pruned) {
            Ok(()) => {
                return Err(TestCaseError::fail(format!(
                    "decoded without `{member}`: {}",
                    pruned.to_json_string()
                )))
            }
            Err(message) => {
                prop_assert!(message.contains(&format!("`{member}`")), "`{message}` for {member}")
            }
        }
    }
    Ok(())
}

fn decode_reply(frame: &JsonValue) -> Result<(), String> {
    match Reply::from_json(frame).map_err(|e| e.message)? {
        Reply::Event { state: EventState::Done { report, .. }, .. } => {
            wire::report_from_json(&report).map(drop).map_err(|e| e.message)
        }
        _ => Ok(()),
    }
}

fn decode_worker_request(frame: &JsonValue) -> Result<(), String> {
    match WorkerRequest::from_json(frame) {
        Ok(_) => Ok(()),
        Err(WorkerReply::Failed { reason, .. } | WorkerReply::Error { reason }) => Err(reason),
        Err(other) => Err(format!("unexpected reply {other:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn job_specs_round_trip(spec in job_spec()) {
        let back = JobSpec::from_json(&over_the_wire(&spec.to_json())?);
        prop_assert_eq!(back.map_err(|e| TestCaseError::fail(e.message))?, spec);
    }

    #[test]
    fn hub_requests_round_trip(request in request()) {
        let frame = over_the_wire(&request.to_json())?;
        let back = Request::from_json(&frame).map_err(|e| TestCaseError::fail(e.message))?;
        prop_assert_eq!(back, request);
        every_required_member_is_named(&frame, |f| {
            Request::from_json(f).map(drop).map_err(|e| e.message)
        })?;
    }

    #[test]
    fn hub_replies_round_trip(reply in reply()) {
        let frame = over_the_wire(&reply.clone().into_json())?;
        let back = Reply::from_json(&frame).map_err(|e| TestCaseError::fail(e.message))?;
        prop_assert_eq!(back, reply);
        every_required_member_is_named(&frame, decode_reply)?;
    }

    #[test]
    fn worker_requests_round_trip(request in worker_request()) {
        let frame = over_the_wire(&request.to_json())?;
        let back = WorkerRequest::from_json(&frame)
            .map_err(|reply| TestCaseError::fail(format!("{reply:?}")))?;
        prop_assert_eq!(back, request);
        every_required_member_is_named(&frame, decode_worker_request)?;
    }

    #[test]
    fn worker_replies_round_trip(reply in worker_reply()) {
        let frame = over_the_wire(&reply.to_json())?;
        let back = WorkerReply::from_json(&frame).map_err(|e| TestCaseError::fail(e.message))?;
        prop_assert_eq!(back, reply);
        every_required_member_is_named(&frame, |f| {
            WorkerReply::from_json(f).map(drop).map_err(|e| e.message)
        })?;
    }

    #[test]
    fn reports_round_trip(report in report()) {
        let encoded = wire::report_to_json(&report);
        let frame = over_the_wire(&encoded)?;
        let back = wire::report_from_json(&frame).map_err(|e| TestCaseError::fail(e.message))?;
        // `ExploreReport` has no `PartialEq`: re-encoding the decoded
        // report must give the same document, floats to the bit.
        prop_assert_eq!(wire::report_to_json(&back).to_json_string(), encoded.to_json_string());
        prop_assert_eq!(back.evaluations.len(), report.evaluations.len());
        every_required_member_is_named(&frame, |f| {
            wire::report_from_json(f).map(drop).map_err(|e| e.message)
        })?;
    }
}

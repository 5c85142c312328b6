//! The `axi4mlir-hub/v1` wire vocabulary.
//!
//! Every message is one JSON object per line (see
//! [`axi4mlir_support::proto`] for the framing), discriminated by its
//! `type` member. Clients send [`Request`]s; the server answers with
//! [`Reply`] frames (`hello`, `accepted`, `rejected`, `following`,
//! `error`, `status`, `shutting_down`) and streams `event` frames for
//! submitted jobs. Each type has one encoder and one decoder, which the
//! server and the client share; decoders read members through
//! [`Members`], so every error names the member at fault. The full
//! protocol, field by field, is documented in `docs/PROTOCOL.md` — and
//! a transcript from that document is replayed against a live hub by the
//! integration tests, so the prose cannot drift from this code.

use std::borrow::Cow;

use axi4mlir_core::explore::{Fidelity, JobSpec, ProgressEvent};
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::json::{JsonValue, Members};
use axi4mlir_support::proto::tagged;

/// The protocol schema tag, exchanged in `hello`.
pub const SCHEMA: &str = "axi4mlir-hub/v1";

/// One client request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Identify the hub: schema, cache size, queue capacity, workers.
    Hello,
    /// Queue one exploration job at a priority (default 0; higher runs
    /// first, ties run in submission order).
    Submit {
        /// The job to queue.
        spec: Box<JobSpec>,
        /// Scheduling priority; the executor pool always takes the
        /// highest-priority queued job, FIFO within a priority.
        priority: i64,
        /// Requested per-job simulation-worker budget. `None` accepts
        /// the hub's fair share; `Some(n)` caps this job at `n` workers
        /// (further clamped to the hub's `--sim-workers`).
        sim_workers: Option<usize>,
    },
    /// Resume a job's event stream on this connection: replay the
    /// buffered events, then stream live ones (the reconnect path for a
    /// client whose connection died mid-job).
    Follow {
        /// The job id an earlier `accepted` reply named.
        job: u64,
    },
    /// Report queue/cache counters.
    Status,
    /// Ask the hub to shut down gracefully.
    Shutdown,
}

impl Request {
    /// Parses one request frame.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for non-objects, unknown `type` tags,
    /// and malformed `submit` jobs. These are *application* errors: the
    /// server replies with an `error` frame and keeps the connection.
    pub fn from_json(value: &JsonValue) -> Result<Request, Diagnostic> {
        let tag: &str = Members::of(value, "request")?.req("type")?;
        let m = Members::of(value, tag)?;
        match tag {
            "hello" => Ok(Request::Hello),
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "submit" => {
                let job = m.value("job")?;
                let priority = m.opt("priority")?.unwrap_or(0);
                let sim_workers = m.opt("sim_workers")?;
                if sim_workers == Some(0) {
                    return Err(m.invalid("sim_workers", "must be a positive integer"));
                }
                Ok(Request::Submit {
                    spec: Box::new(JobSpec::from_json(job)?),
                    priority,
                    sim_workers,
                })
            }
            "follow" => Ok(Request::Follow { job: m.req("job")? }),
            other => Err(Diagnostic::error(format!("unknown request type `{other}`"))),
        }
    }

    /// Serializes the request (the client side of [`Request::from_json`]).
    pub fn to_json(&self) -> JsonValue {
        match self {
            Request::Hello => tagged("hello", []),
            Request::Status => tagged("status", []),
            Request::Shutdown => tagged("shutdown", []),
            Request::Submit { spec, priority, sim_workers } => {
                let mut members = vec![("job", spec.to_json())];
                // Priority 0 is the default; omitting it keeps the
                // frame identical to a pre-priority client's. Likewise
                // an unset worker budget stays off the wire.
                if *priority != 0 {
                    members.push(("priority", (*priority).into()));
                }
                if let Some(budget) = sim_workers {
                    members.push(("sim_workers", (*budget).into()));
                }
                tagged("submit", members)
            }
            Request::Follow { job } => tagged("follow", [("job", (*job).into())]),
        }
    }
}

/// What the hub says about itself in its `hello` reply.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HubInfo {
    /// The hub's protocol schema.
    pub schema: String,
    /// Result-cache entries the hub holds.
    pub cache_entries: usize,
    /// The hub's job-queue capacity.
    pub queue_capacity: usize,
    /// The hub's executor-thread count.
    pub workers: usize,
}

/// The hub's live counters, as a `status` reply carries them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HubStatus {
    /// Jobs waiting in the queue.
    pub queued: usize,
    /// Jobs an executor is running.
    pub running: usize,
    /// Jobs that finished with a report.
    pub completed: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Result-cache entries.
    pub cache_entries: usize,
    /// Measurements one job took from another job's simulation.
    pub dedup_hits: usize,
}

/// One server → client frame: a reply to a request, or a job event.
#[derive(Clone, Debug, PartialEq)]
pub enum Reply<'a> {
    /// The answer to `hello`.
    Hello(HubInfo),
    /// The job is queued.
    Accepted {
        /// The job's id.
        job: u64,
        /// Queued jobs that run before it.
        queued_ahead: usize,
    },
    /// Backpressure: the queue is full.
    Rejected {
        /// Why.
        reason: String,
        /// Jobs in the queue.
        queued: usize,
        /// The queue's capacity.
        queue_capacity: usize,
    },
    /// A `follow` re-attached the job's stream; the replay follows.
    Following {
        /// The job's id.
        job: u64,
        /// Buffered events about to be replayed.
        replayed: usize,
    },
    /// The request was malformed or its job invalid.
    Error {
        /// Why.
        reason: String,
    },
    /// The answer to `status`.
    Status(HubStatus),
    /// Goodbye: the hub closes the connection after it.
    ShuttingDown,
    /// Progress of a job.
    Event {
        /// The job's id.
        job: u64,
        /// Where the job is.
        state: EventState<'a>,
    },
}

/// The `state` of a job event, with the members that state carries.
#[derive(Clone, Debug, PartialEq)]
pub enum EventState<'a> {
    /// Accepted into the queue.
    Queued,
    /// An executor picked the job up.
    Running {
        /// The granted per-job worker budget.
        sim_workers: usize,
    },
    /// A sweep milestone: `space-ready` or `rung-complete`.
    Progress(ProgressEvent),
    /// Terminal: the sweep finished.
    Done {
        /// Full-fidelity simulations the job performed.
        full_sims_performed: usize,
        /// Full simulations per second; `None` when there were none.
        sims_per_sec: Option<f64>,
        /// Running-to-done wall time inside the hub.
        elapsed_ms: f64,
        /// The report in its [`axi4mlir_core::explore::wire`] form, kept
        /// as JSON: a client decodes it only for its own job.
        report: Cow<'a, JsonValue>,
    },
    /// Terminal: the sweep failed or was cancelled.
    Failed {
        /// Why.
        reason: String,
    },
    /// Another connection `follow`ed the job away from this one.
    Detached,
}

impl Reply<'_> {
    /// Encodes the frame, moving a `done` report into it.
    pub fn into_json(self) -> JsonValue {
        match self {
            Reply::Hello(info) => tagged(
                "hello",
                [
                    ("schema", info.schema.into()),
                    ("cache_entries", info.cache_entries.into()),
                    ("queue_capacity", info.queue_capacity.into()),
                    ("workers", info.workers.into()),
                ],
            ),
            Reply::Accepted { job, queued_ahead } => {
                tagged("accepted", [("job", job.into()), ("queued_ahead", queued_ahead.into())])
            }
            Reply::Rejected { reason, queued, queue_capacity } => tagged(
                "rejected",
                [
                    ("reason", reason.into()),
                    ("queued", queued.into()),
                    ("queue_capacity", queue_capacity.into()),
                ],
            ),
            Reply::Following { job, replayed } => {
                tagged("following", [("job", job.into()), ("replayed", replayed.into())])
            }
            Reply::Error { reason } => tagged("error", [("reason", reason.into())]),
            Reply::Status(status) => tagged(
                "status",
                [
                    ("queued", status.queued.into()),
                    ("running", status.running.into()),
                    ("completed", status.completed.into()),
                    ("failed", status.failed.into()),
                    ("cache_entries", status.cache_entries.into()),
                    ("dedup_hits", status.dedup_hits.into()),
                ],
            ),
            Reply::ShuttingDown => tagged("shutting_down", []),
            Reply::Event { job, state } => {
                let (state, members) = match state {
                    EventState::Queued => ("queued", vec![]),
                    EventState::Running { sim_workers } => {
                        ("running", vec![("sim_workers", sim_workers.into())])
                    }
                    EventState::Progress(ProgressEvent::SpaceReady { space_size, survivors }) => (
                        "space-ready",
                        vec![("space_size", space_size.into()), ("survivors", survivors.into())],
                    ),
                    EventState::Progress(ProgressEvent::RungComplete {
                        fidelity,
                        survivors,
                        sims_performed,
                        cache_hits,
                        full_sims_performed,
                    }) => (
                        "rung-complete",
                        vec![
                            ("fidelity", fidelity.label().into()),
                            ("survivors", survivors.into()),
                            ("sims_performed", sims_performed.into()),
                            ("cache_hits", cache_hits.into()),
                            ("full_sims_performed", full_sims_performed.into()),
                        ],
                    ),
                    EventState::Done { full_sims_performed, sims_per_sec, elapsed_ms, report } => (
                        "done",
                        vec![
                            ("full_sims_performed", full_sims_performed.into()),
                            ("sims_per_sec", sims_per_sec.map_or(JsonValue::Null, Into::into)),
                            ("elapsed_ms", elapsed_ms.into()),
                            ("report", report.into_owned()),
                        ],
                    ),
                    EventState::Failed { reason } => ("failed", vec![("reason", reason.into())]),
                    EventState::Detached => ("detached", vec![]),
                };
                let head = [("job", job.into()), ("state", state.into())];
                tagged("event", head.into_iter().chain(members))
            }
        }
    }
}

impl<'a> Reply<'a> {
    /// Decodes one frame. A `done` event borrows its report from
    /// `value`.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] naming the missing or malformed member,
    /// or the unknown `type` or `state`.
    pub fn from_json(value: &'a JsonValue) -> Result<Reply<'a>, Diagnostic> {
        let tag: &str = Members::of(value, "hub reply")?.req("type")?;
        let m = Members::of(value, tag)?;
        Ok(match tag {
            "hello" => Reply::Hello(HubInfo {
                schema: m.req("schema")?,
                cache_entries: m.req("cache_entries")?,
                queue_capacity: m.req("queue_capacity")?,
                workers: m.req("workers")?,
            }),
            "accepted" => {
                Reply::Accepted { job: m.req("job")?, queued_ahead: m.req("queued_ahead")? }
            }
            "rejected" => Reply::Rejected {
                reason: m.req("reason")?,
                queued: m.req("queued")?,
                queue_capacity: m.req("queue_capacity")?,
            },
            "following" => Reply::Following { job: m.req("job")?, replayed: m.req("replayed")? },
            "error" => Reply::Error { reason: m.req("reason")? },
            "status" => Reply::Status(HubStatus {
                queued: m.req("queued")?,
                running: m.req("running")?,
                completed: m.req("completed")?,
                failed: m.req("failed")?,
                cache_entries: m.req("cache_entries")?,
                dedup_hits: m.req("dedup_hits")?,
            }),
            "shutting_down" => Reply::ShuttingDown,
            "event" => {
                let state = match m.req("state")? {
                    "queued" => EventState::Queued,
                    "running" => EventState::Running { sim_workers: m.req("sim_workers")? },
                    "space-ready" => EventState::Progress(ProgressEvent::SpaceReady {
                        space_size: m.req("space_size")?,
                        survivors: m.req("survivors")?,
                    }),
                    "rung-complete" => {
                        let label = m.req("fidelity")?;
                        EventState::Progress(ProgressEvent::RungComplete {
                            fidelity: Fidelity::parse(label).ok_or_else(|| {
                                m.invalid("fidelity", format!("`{label}` is not full|proxy:N"))
                            })?,
                            survivors: m.req("survivors")?,
                            sims_performed: m.req("sims_performed")?,
                            cache_hits: m.req("cache_hits")?,
                            full_sims_performed: m.req("full_sims_performed")?,
                        })
                    }
                    "done" => EventState::Done {
                        full_sims_performed: m.req("full_sims_performed")?,
                        sims_per_sec: m.opt("sims_per_sec")?,
                        elapsed_ms: m.req("elapsed_ms")?,
                        report: Cow::Borrowed(m.value("report")?),
                    },
                    "failed" => EventState::Failed { reason: m.req("reason")? },
                    "detached" => EventState::Detached,
                    other => return Err(m.invalid("state", format!("`{other}` is unknown"))),
                };
                Reply::Event { job: m.req("job")?, state }
            }
            other => return Err(Diagnostic::error(format!("unknown hub reply `{other}`"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let spec = JobSpec { dims: Some((8, 8, 8)), ..JobSpec::default() };
        for request in [
            Request::Hello,
            Request::Status,
            Request::Shutdown,
            Request::Follow { job: 12 },
            Request::Submit { spec: Box::new(spec.clone()), priority: 0, sim_workers: None },
            Request::Submit { spec: Box::new(spec.clone()), priority: -3, sim_workers: None },
            Request::Submit { spec: Box::new(spec), priority: 0, sim_workers: Some(2) },
        ] {
            assert_eq!(Request::from_json(&request.to_json()).unwrap(), request);
        }
    }

    #[test]
    fn default_priority_stays_off_the_wire() {
        let spec = JobSpec { dims: Some((8, 8, 8)), ..JobSpec::default() };
        let plain =
            Request::Submit { spec: Box::new(spec.clone()), priority: 0, sim_workers: None }
                .to_json();
        assert!(plain.get("priority").is_none(), "priority 0 is implicit");
        assert!(plain.get("sim_workers").is_none(), "unset budget is implicit");
        let urgent =
            Request::Submit { spec: Box::new(spec), priority: 7, sim_workers: Some(3) }.to_json();
        assert_eq!(urgent.get("priority").unwrap().as_i64(), Some(7));
        assert_eq!(urgent.get("sim_workers").unwrap().as_u64(), Some(3));
        let fractional = JsonValue::parse(r#"{"type": "submit", "job": {}, "priority": 1.5}"#);
        let err = Request::from_json(&fractional.unwrap()).unwrap_err();
        assert!(err.message.contains("integer"));
        let zero = JsonValue::parse(r#"{"type": "submit", "job": {}, "sim_workers": 0}"#);
        let err = Request::from_json(&zero.unwrap()).unwrap_err();
        assert!(err.message.contains("sim_workers"));
    }

    #[test]
    fn follow_requires_a_job_id() {
        let bare = JsonValue::parse(r#"{"type": "follow"}"#).unwrap();
        assert!(Request::from_json(&bare).unwrap_err().message.contains("job"));
        let named = JsonValue::parse(r#"{"type": "follow", "job": 4}"#).unwrap();
        assert_eq!(Request::from_json(&named).unwrap(), Request::Follow { job: 4 });
    }

    #[test]
    fn bad_requests_are_application_errors() {
        let unknown = JsonValue::parse(r#"{"type": "teleport"}"#).unwrap();
        assert!(Request::from_json(&unknown).unwrap_err().message.contains("teleport"));
        let untyped = JsonValue::parse(r#"{"job": {}}"#).unwrap();
        assert!(Request::from_json(&untyped).is_err());
        let jobless = JsonValue::parse(r#"{"type": "submit"}"#).unwrap();
        assert!(Request::from_json(&jobless).unwrap_err().message.contains("job"));
    }

    #[test]
    fn progress_events_carry_the_rung_counters() {
        let progress = ProgressEvent::RungComplete {
            fidelity: Fidelity::Proxy { level: 2 },
            survivors: 8,
            sims_performed: 10,
            cache_hits: 6,
            full_sims_performed: 0,
        };
        let frame = Reply::Event { job: 3, state: EventState::Progress(progress) }.into_json();
        assert_eq!(frame.get("type").unwrap().as_str(), Some("event"));
        assert_eq!(frame.get("state").unwrap().as_str(), Some("rung-complete"));
        assert_eq!(frame.get("fidelity").unwrap().as_str(), Some("proxy:2"));
        assert_eq!(frame.get("cache_hits").unwrap().as_u64(), Some(6));
        let event = Reply::from_json(&frame).unwrap();
        assert_eq!(event, Reply::Event { job: 3, state: EventState::Progress(progress) });
    }
}

//! Golden wire bytes: one fixed value of every frame kind of both
//! protocols, encoded and compared with a literal string.
//!
//! The transcript replays (`protocol_transcript.rs` in this crate and in
//! the hub crate) match frames member by member and ignore member order,
//! so they would not notice a reordered or re-spelled frame. These
//! literals pin the exact bytes: member order, number formatting and
//! which optional members stay off the wire.
//!
//! Encoders with a public entry point (hub requests, `JobSpec`, the
//! `measure` request, the `done` report, the cache document) are called
//! directly. Frames that only a daemon writes (hub replies and events,
//! worker replies, the scheduler's `hello`) are read raw off the socket
//! of a live in-process daemon, or of a scripted fake worker. Members
//! whose values are wall-clock timings are pinned by everything around
//! them instead.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;

use axi4mlir_config::{CacheTiling, CpuModel};
use axi4mlir_core::explore::{
    cache, measure, wire, Candidate, CandidateKey, Evaluation, ExploreReport, Explorer, Fidelity,
    JobSpec, MatMulSpace, Objective, OptionsPoint, Prune, RemotePool, Search,
};
use axi4mlir_heuristics::TransferEstimate;
use axi4mlir_hub::protocol::Request;
use axi4mlir_hub::{Hub, HubConfig};
use axi4mlir_sim::counters::PerfCounters;
use axi4mlir_worker::{Worker, WorkerConfig};
use axi4mlir_workloads::matmul::MatMulProblem;

/// A `JobSpec` with every optional member set.
fn full_spec() -> JobSpec {
    JobSpec {
        workload: "batched".to_owned(),
        dims: Some((16, 8, 32)),
        batch: Some(3),
        layer: Some("10_64_3_16_1".to_owned()),
        accels: vec!["v4_8".to_owned(), "v2_4".to_owned()],
        capacity_words: Some(4096),
        sweep_options: true,
        sweep_cache_tiling: true,
        cpus: vec!["pynq_z2".to_owned(), "desktop".to_owned()],
        search: "halving".to_owned(),
        prune: "keep:12".to_owned(),
        objectives: vec!["clock".to_owned(), "traffic".to_owned()],
        seed: Some(11),
    }
}

fn candidate() -> Candidate {
    Candidate {
        key: CandidateKey {
            workload: "matmul 16x8x32".to_owned(),
            accel: "v4_8".to_owned(),
            flow: "Cs".to_owned(),
            tile: (16, 8, 8),
            options: OptionsPoint {
                coalesce: true,
                specialized_copies: false,
                cache_tiling: CacheTiling::Fixed(64),
                cpu: CpuModel::Desktop,
            },
            seed: 11,
        },
        estimate: TransferEstimate {
            words_to_accel: 1280,
            words_from_accel: 128,
            transactions: 21,
        },
    }
}

fn counters() -> PerfCounters {
    PerfCounters {
        host_cycles: 1,
        device_cycles: 2,
        cache_references: 3,
        l1_misses: 4,
        l2_misses: 5,
        branch_instructions: 6,
        instructions: 7,
        uncached_accesses: 8,
        dma_bytes_to_accel: 9,
        dma_bytes_from_accel: 10,
        dma_transactions: 11,
        accel_compute_cycles: 12,
        accel_macs: u64::MAX,
    }
}

fn evaluation(from_cache: bool) -> Evaluation {
    Evaluation {
        candidate: candidate(),
        counters: counters(),
        task_clock_ms: 0.1 + 0.2,
        verified: true,
        work: 4096,
        pass_ms: vec![("annotate".to_owned(), 0.5), ("lower".to_owned(), 2.0)],
        from_cache,
    }
}

/// A report with every optional member set.
fn full_report() -> ExploreReport {
    ExploreReport {
        space: "matmul 16x8x32 [v4_8]".to_owned(),
        workload: "matmul".to_owned(),
        search: "halving".to_owned(),
        space_size: 40,
        pruned_out: 8,
        lint_rejected: 2,
        cache_hits: 5,
        sims_performed: 25,
        full_sims_performed: 10,
        full_sim_nanos: 123_456_789,
        warm_started: true,
        warm_informed: 3,
        measure_backend: "remote:2".to_owned(),
        worker_sims: vec![("127.0.0.1:7001".to_owned(), 15), ("127.0.0.1:7002".to_owned(), 10)],
        worker_reconnects: vec![("127.0.0.1:7002".to_owned(), 1)],
        evaluations: vec![evaluation(false), evaluation(true)],
        objectives: vec![Objective::TaskClock, Objective::DmaWords],
        heuristic: Some(candidate()),
        heuristic_eval: Some(evaluation(true)),
    }
}

const JOB: &str = r#"{"workload":"batched","dims":[16,8,32],"batch":3,"layer":"10_64_3_16_1","accels":["v4_8","v2_4"],"capacity_words":4096,"sweep_options":true,"sweep_cache_tiling":true,"cpus":["pynq_z2","desktop"],"search":"halving","prune":"keep:12","objectives":["clock","traffic"],"seed":11}"#;

const CANDIDATE: &str = r#"{"key":{"workload":"matmul 16x8x32","accel":"v4_8","flow":"Cs","tile":[16,8,8],"coalesce":true,"specialized_copies":false,"cache_tiling":"fixed:64","cpu":"desktop","seed":11},"estimate":{"words_to_accel":1280,"words_from_accel":128,"transactions":21}}"#;

const COUNTERS: &str = r#"{"host_cycles":1,"device_cycles":2,"cache_references":3,"l1_misses":4,"l2_misses":5,"branch_instructions":6,"instructions":7,"uncached_accesses":8,"dma_bytes_to_accel":9,"dma_bytes_from_accel":10,"dma_transactions":11,"accel_compute_cycles":12,"accel_macs":18446744073709551615}"#;

#[test]
fn a_job_spec_with_every_member_set_encodes_to_the_golden_bytes() {
    assert_eq!(full_spec().to_json().to_json_string(), JOB);
    // Unset optional members stay off the wire.
    let sparse = JobSpec { dims: Some((8, 8, 8)), ..JobSpec::default() };
    assert_eq!(
        sparse.to_json().to_json_string(),
        r#"{"workload":"matmul","dims":[8,8,8],"search":"exhaustive","prune":"none"}"#
    );
}

#[test]
fn hub_requests_encode_to_the_golden_bytes() {
    let cases = [
        (Request::Hello, r#"{"type":"hello"}"#.to_owned()),
        (Request::Status, r#"{"type":"status"}"#.to_owned()),
        (Request::Shutdown, r#"{"type":"shutdown"}"#.to_owned()),
        (Request::Follow { job: 42 }, r#"{"type":"follow","job":42}"#.to_owned()),
        (
            Request::Submit { spec: Box::new(full_spec()), priority: -2, sim_workers: Some(3) },
            format!(r#"{{"type":"submit","job":{JOB},"priority":-2,"sim_workers":3}}"#),
        ),
        (
            Request::Submit { spec: Box::new(full_spec()), priority: 0, sim_workers: None },
            format!(r#"{{"type":"submit","job":{JOB}}}"#),
        ),
    ];
    for (request, golden) in cases {
        assert_eq!(request.to_json().to_json_string(), golden);
    }
}

#[test]
fn the_measure_request_encodes_to_the_golden_bytes() {
    let job = full_spec().to_json();
    let frame = measure::measure_request(5, &job, Fidelity::Proxy { level: 2 }, &candidate());
    assert_eq!(
        frame.to_json_string(),
        format!(
            r#"{{"type":"measure","id":5,"job":{JOB},"fidelity":"proxy:2","candidate":{CANDIDATE}}}"#
        )
    );
}

#[test]
fn a_done_report_encodes_to_the_golden_bytes() {
    let evaluation = |from_cache: bool| {
        format!(
            r#"{{"candidate":{CANDIDATE},"counters":{COUNTERS},"task_clock_ms":0.30000000000000004,"verified":true,"work":4096,"pass_ms":[["annotate",0.5],["lower",2.0]],"from_cache":{from_cache}}}"#
        )
    };
    let golden = format!(
        r#"{{"space":"matmul 16x8x32 [v4_8]","workload":"matmul","search":"halving","space_size":40,"pruned_out":8,"lint_rejected":2,"cache_hits":5,"sims_performed":25,"full_sims_performed":10,"full_sim_nanos":123456789,"warm_started":true,"warm_informed":3,"measure_backend":"remote:2","worker_sims":[["127.0.0.1:7001",15],["127.0.0.1:7002",10]],"objectives":["clock","traffic"],"evaluations":[{},{}],"worker_reconnects":[["127.0.0.1:7002",1]],"heuristic":{CANDIDATE},"heuristic_eval":{}}}"#,
        evaluation(false),
        evaluation(true),
        evaluation(true),
    );
    assert_eq!(wire::report_to_json(&full_report()).to_json_string(), golden);
}

#[test]
fn a_cache_document_renders_to_the_golden_bytes() {
    let eval = cache::CachedEval {
        counters: counters(),
        task_clock_ms: 0.1 + 0.2,
        verified: true,
        pass_ms: vec![("annotate".to_owned(), 0.5)],
    };
    let entries = HashMap::from([(candidate().key, eval)]);
    let golden = r#"{
  "schema": "axi4mlir-explore-cache/v2",
  "entries": [
    {
      "key": {
        "workload": "matmul 16x8x32",
        "accel": "v4_8",
        "flow": "Cs",
        "tile": [
          16,
          8,
          8
        ],
        "coalesce": true,
        "specialized_copies": false,
        "cache_tiling": "fixed:64",
        "cpu": "desktop",
        "seed": 11
      },
      "counters": {
        "host_cycles": 1,
        "device_cycles": 2,
        "cache_references": 3,
        "l1_misses": 4,
        "l2_misses": 5,
        "branch_instructions": 6,
        "instructions": 7,
        "uncached_accesses": 8,
        "dma_bytes_to_accel": 9,
        "dma_bytes_from_accel": 10,
        "dma_transactions": 11,
        "accel_compute_cycles": 12,
        "accel_macs": 18446744073709551615
      },
      "task_clock_ms": 0.30000000000000004,
      "verified": true
    }
  ]
}
"#;
    assert_eq!(cache::render(&entries), golden);
}

/// One raw NDJSON connection: literal lines out, raw lines back.
struct Raw {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Raw {
    fn connect(addr: &str) -> Raw {
        let stream = TcpStream::connect(addr).expect("connect");
        Raw { writer: stream.try_clone().expect("clone"), reader: BufReader::new(stream) }
    }

    fn send(&mut self, line: &str) {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send");
    }

    fn line(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read");
        assert!(line.ends_with('\n'), "the peer hung up mid-frame: {line:?}");
        line.pop();
        line
    }

    fn expect(&mut self, golden: &str) {
        assert_eq!(self.line(), golden);
    }
}

/// Starts an in-process hub; it serves until a client sends `shutdown`.
fn start_hub(config: HubConfig) -> (String, std::thread::JoinHandle<()>) {
    let hub = Hub::bind(config).expect("bind hub");
    let addr = hub.local_addr().to_string();
    (
        addr,
        std::thread::spawn(move || {
            hub.run().expect("hub run");
        }),
    )
}

const SMALL_JOB: &str = r#"{"workload":"matmul","dims":[8,8,8],"accels":["v4_8"],"search":"exhaustive","prune":"none","seed":7}"#;

#[test]
fn hub_replies_and_events_go_out_as_the_golden_bytes() {
    let (addr, hub) = start_hub(HubConfig { workers: 1, sim_workers: 1, ..HubConfig::default() });
    let mut c = Raw::connect(&addr);
    c.send(r#"{"type":"hello"}"#);
    c.expect(
        r#"{"type":"hello","schema":"axi4mlir-hub/v1","cache_entries":0,"queue_capacity":16,"workers":1}"#,
    );
    c.send(&format!(r#"{{"type":"submit","job":{SMALL_JOB}}}"#));
    c.expect(r#"{"type":"accepted","job":1,"queued_ahead":0}"#);
    let stream = [
        r#"{"type":"event","job":1,"state":"queued"}"#,
        r#"{"type":"event","job":1,"state":"running","sim_workers":1}"#,
        r#"{"type":"event","job":1,"state":"space-ready","space_size":4,"survivors":4}"#,
        r#"{"type":"event","job":1,"state":"rung-complete","fidelity":"full","survivors":4,"sims_performed":4,"cache_hits":0,"full_sims_performed":4}"#,
    ];
    for golden in stream {
        c.expect(golden);
    }
    // The `done` event: `sims_per_sec` and `elapsed_ms` are wall-clock,
    // and the report's bytes are pinned above; the rest is literal.
    let done = c.line();
    let prefix =
        r#"{"type":"event","job":1,"state":"done","full_sims_performed":4,"sims_per_sec":"#;
    assert!(done.starts_with(prefix), "{done}");
    let rest = &done[prefix.len()..];
    let elapsed = rest.find(r#","elapsed_ms":"#).expect("elapsed_ms follows sims_per_sec");
    let report = rest.find(r#","report":{"space":"#).expect("the report is the last member");
    assert!(elapsed < report && done.ends_with("}}"), "{done}");
    c.send(r#"{"type":"status"}"#);
    c.expect(
        r#"{"type":"status","queued":0,"running":0,"completed":1,"failed":0,"cache_entries":4,"dedup_hits":0}"#,
    );
    c.send(r#"{"type":"follow","job":1}"#);
    c.expect(r#"{"type":"following","job":1,"replayed":5}"#);
    for golden in stream {
        c.expect(golden);
    }
    assert_eq!(c.line(), done, "a replayed event is the buffered bytes");
    c.expect(r#"{"type":"event","job":1,"state":"detached"}"#);
    c.send(r#"{"type":"follow","job":99}"#);
    c.expect(
        r#"{"type":"error","reason":"follow `job` 99 is unknown (never submitted, or its events were evicted)"}"#,
    );
    c.send(r#"{"type":"shutdown"}"#);
    c.expect(r#"{"type":"shutting_down"}"#);
    hub.join().unwrap();
}

#[test]
fn backpressure_and_shutdown_failures_go_out_as_the_golden_bytes() {
    // No executors: the first job waits in the one queue slot forever.
    let (addr, hub) =
        start_hub(HubConfig { workers: 0, queue_capacity: 1, ..HubConfig::default() });
    let mut c = Raw::connect(&addr);
    c.send(&format!(r#"{{"type":"submit","job":{SMALL_JOB},"priority":3,"sim_workers":2}}"#));
    c.expect(r#"{"type":"accepted","job":1,"queued_ahead":0}"#);
    c.expect(r#"{"type":"event","job":1,"state":"queued"}"#);
    c.send(&format!(r#"{{"type":"submit","job":{SMALL_JOB}}}"#));
    c.expect(r#"{"type":"rejected","reason":"queue full","queued":1,"queue_capacity":1}"#);
    c.send(r#"{"type":"submit","job":{"workload":"gemv"}}"#);
    c.expect(
        r#"{"type":"error","reason":"invalid job: workload `gemv` is not one of matmul|batched|conv"}"#,
    );
    c.send(r#"{"type":"shutdown"}"#);
    c.expect(r#"{"type":"event","job":1,"state":"failed","reason":"hub shutting down"}"#);
    c.expect(r#"{"type":"shutting_down"}"#);
    hub.join().unwrap();
}

#[test]
fn worker_replies_go_out_as_the_golden_bytes() {
    static NEVER_STOP: AtomicBool = AtomicBool::new(false);
    let worker =
        Worker::bind(WorkerConfig { slots: 1, stop: Some(&NEVER_STOP), ..WorkerConfig::default() })
            .expect("bind worker");
    let addr = worker.local_addr().to_string();
    std::thread::spawn(move || worker.run().expect("worker run"));

    let space = MatMulSpace::new(MatMulProblem::new(8, 8, 8)).seed(7);
    let job = JobSpec { dims: Some((8, 8, 8)), seed: Some(7), ..JobSpec::default() }.to_json();
    let first = axi4mlir_core::explore::DesignSpace::enumerate(&space).unwrap().remove(0);
    let measure = measure::measure_request(1, &job, Fidelity::Full, &first).to_json_string();

    let mut c = Raw::connect(&addr);
    c.send(r#"{"type":"hello"}"#);
    c.expect(r#"{"type":"hello","schema":"axi4mlir-worker/v1","slots":1}"#);
    c.send(&measure);
    // Counters and task-clock are deterministic; `nanos` is wall-clock.
    let result = c.line();
    let prefix = r#"{"type":"result","id":1,"counters":{"host_cycles":"#;
    assert!(result.starts_with(prefix), "{result}");
    let suffix = r#","task_clock_ms":"#;
    let at = result.find(suffix).expect("task_clock_ms follows counters");
    let tail = &result[at + suffix.len()..];
    let (clock, tail) = tail.split_once(r#","verified":true,"nanos":"#).expect("verified, nanos");
    assert!(clock.parse::<f64>().is_ok() && clock.contains('.'), "{result}");
    assert!(tail.strip_suffix('}').is_some_and(|n| n.parse::<u64>().is_ok()), "{result}");
    c.send(r#"{"type":"measure","id":2}"#);
    c.expect(r#"{"type":"failed","id":2,"reason":"measure requires a `job`"}"#);
    c.send(r#"{"type":"ponder"}"#);
    c.expect(r#"{"type":"error","reason":"unknown request `ponder`"}"#);
    c.send(r#"{"type":"drain"}"#);
    c.expect(r#"{"type":"drained"}"#);
}

#[test]
fn the_scheduler_hello_goes_out_as_the_golden_bytes() {
    // A scripted worker records what a `RemotePool` writes, answers the
    // handshake, and fails the one measurement it is sent.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let fake = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        let mut c = Raw { writer: stream.try_clone().unwrap(), reader: BufReader::new(stream) };
        let hello = c.line();
        c.send(r#"{"type":"hello","schema":"axi4mlir-worker/v1","slots":1}"#);
        let measure = c.line();
        c.send(r#"{"type":"failed","id":1,"reason":"scripted"}"#);
        (hello, measure)
    });
    let space = MatMulSpace::new(MatMulProblem::new(8, 8, 8)).seed(3);
    let mut explorer = Explorer::new();
    explorer.set_measure_backend(Box::new(RemotePool::new(vec![addr]).in_flight(1)));
    let outcome =
        explorer.explore_with_objectives(&space, Prune::None, &Search::Exhaustive, 1, &[]);
    assert!(outcome.is_err(), "the scripted failure fails the sweep");
    let (hello, measure) = fake.join().unwrap();
    assert_eq!(hello, r#"{"type":"hello"}"#);
    assert!(
        measure
            .starts_with(r#"{"type":"measure","id":1,"job":{"workload":"matmul","dims":[8,8,8],"#),
        "{measure}"
    );
}

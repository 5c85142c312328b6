//! The `axi4mlir-worker` measurement daemon: remote simulation slots
//! for distributed design-space exploration.
//!
//! A worker is deliberately dumb. It holds no cache, no queue of its
//! own, and no knowledge of the sweep: it accepts connections from a
//! scheduler (an [`Explorer`] whose backend is a `RemotePool` — usually
//! inside an `axi4mlir-hub` started with `--worker ADDR`), answers
//! `hello` with its protocol schema and slot count, and turns each
//! `measure` frame into one simulator run on a recycled-SoC
//! [`Session`], replying `result` (bit-identical counters plus its own
//! measured wall-clock nanos) or `failed`. All deduplication, caching,
//! ordering, and retry policy stay scheduler-side — which is what
//! keeps reports bit-identical to local runs at any worker count, and
//! makes killing a worker mid-sweep safe (the scheduler requeues its
//! outstanding claims elsewhere).
//!
//! The framing is the NDJSON [`axi4mlir_support::proto`] transport and
//! the frame vocabulary lives in
//! [`axi4mlir_core::explore::measure`] (`axi4mlir-worker/v1`); see
//! `docs/PROTOCOL.md` for field tables and a worked transcript.
//!
//! [`Explorer`]: axi4mlir_core::explore::Explorer
//! [`Session`]: axi4mlir_core::driver::Session

#![deny(missing_docs)]

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use axi4mlir_core::driver::Session;
use axi4mlir_core::explore::measure::{Measurement, WorkerReply, WorkerRequest};
use axi4mlir_support::diag::Diagnostic;
use axi4mlir_support::fault::{self, FaultAction};
use axi4mlir_support::proto::{write_frame, write_frame_at, Frame, FrameReader};

/// How the daemon is set up.
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// The address to listen on; port 0 picks a free port (the bound
    /// address is on [`Worker::local_addr`]).
    pub bind: String,
    /// Concurrent measurement slots per connection (each owns one
    /// recycled-SoC session), advertised in the `hello` reply.
    pub slots: usize,
    /// An external stop flag (the binary's signal handler sets it);
    /// polled alongside the internal accept loop.
    pub stop: Option<&'static AtomicBool>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_owned(),
            slots: std::thread::available_parallelism().map_or(1, |n| n.get().min(4)),
            stop: None,
        }
    }
}

/// What [`Worker::run`] hands back after a graceful stop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Connections served over the daemon's lifetime.
    pub connections: usize,
    /// `measure` frames executed (successes and failures alike).
    pub measured: usize,
}

/// Totals shared by every connection thread.
#[derive(Default)]
struct Totals {
    connections: AtomicUsize,
    measured: AtomicUsize,
}

/// A bound worker daemon, not yet serving.
pub struct Worker {
    listener: TcpListener,
    addr: SocketAddr,
    config: WorkerConfig,
}

impl Worker {
    /// Binds the listener.
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for bind failures.
    pub fn bind(config: WorkerConfig) -> Result<Worker, Diagnostic> {
        let listener = TcpListener::bind(&config.bind)
            .map_err(|err| Diagnostic::error(format!("cannot bind {}: {err}", config.bind)))?;
        let addr = listener
            .local_addr()
            .map_err(|err| Diagnostic::error(format!("cannot resolve bound address: {err}")))?;
        Ok(Worker { listener, addr, config })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serves until the external stop flag is raised, then joins the
    /// open connections (each drains its in-flight measurements).
    ///
    /// # Errors
    ///
    /// Returns a [`Diagnostic`] for listener failures. Per-connection
    /// errors close that connection only; the scheduler requeues and
    /// reconnects.
    pub fn run(self) -> Result<WorkerSummary, Diagnostic> {
        self.listener
            .set_nonblocking(true)
            .map_err(|err| Diagnostic::error(format!("cannot poll the listener: {err}")))?;
        let totals = Arc::new(Totals::default());
        let slots = self.config.slots.max(1);
        let stopping = || self.config.stop.is_some_and(|flag| flag.load(Ordering::SeqCst));
        let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
        while !stopping() {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let totals = Arc::clone(&totals);
                    connections.push(std::thread::spawn(move || {
                        // A connection error affects one scheduler only;
                        // the daemon keeps serving.
                        let _ = serve_connection(stream, slots, &totals);
                    }));
                    connections.retain(|handle| !handle.is_finished());
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(err) => return Err(Diagnostic::error(format!("listener failed: {err}"))),
            }
        }
        for connection in connections {
            let _ = connection.join();
        }
        Ok(WorkerSummary {
            connections: totals.connections.load(Ordering::Relaxed),
            measured: totals.measured.load(Ordering::Relaxed),
        })
    }
}

/// Serves one scheduler connection: one reader (this thread) feeding
/// `slots` measurement threads through a queue, all sharing the write
/// half (frames are written whole under the lock, so replies never
/// interleave).
fn serve_connection(stream: TcpStream, slots: usize, totals: &Totals) -> Result<(), Diagnostic> {
    let fail = |err: std::io::Error| Diagnostic::error(format!("connection setup failed: {err}"));
    stream.set_nonblocking(false).map_err(fail)?;
    stream.set_nodelay(true).ok();
    // Short read timeouts keep the reader polling for shutdown even
    // against an idle scheduler.
    stream.set_read_timeout(Some(Duration::from_millis(50))).map_err(fail)?;
    let writer = Mutex::new(stream.try_clone().map_err(fail)?);
    let mut reader = FrameReader::new(BufReader::new(stream));
    totals.connections.fetch_add(1, Ordering::Relaxed);

    // The slots take turns waiting on the queue; closing it (dropping
    // `inbox`) ends them once it is empty.
    let (inbox, queue) = mpsc::channel::<Box<Measurement>>();
    let queue = Mutex::new(queue);
    let accepted = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let send = |reply: &WorkerReply| -> Result<(), Diagnostic> {
        write_frame(&mut *writer.lock().expect("worker writer poisoned"), &reply.to_json())
            .map_err(|err| Diagnostic::error(format!("connection write failed: {err}")))
    };
    // Measurement replies carry the `worker.reply` fault site, so a
    // chaos plan can tear or drop a result frame without touching the
    // hello/drained control traffic.
    let send_reply = |reply: &WorkerReply| -> Result<(), Diagnostic> {
        let mut writer = writer.lock().expect("worker writer poisoned");
        write_frame_at("worker.reply", &mut *writer, &reply.to_json())
            .map_err(|err| Diagnostic::error(format!("connection write failed: {err}")))
    };

    std::thread::scope(|scope| {
        for _ in 0..slots {
            scope.spawn(|| {
                let mut session = Session::for_sweep();
                loop {
                    let Ok(measurement) = queue.lock().expect("worker queue poisoned").recv()
                    else {
                        break;
                    };
                    let reply = measurement.run(&mut session);
                    totals.measured.fetch_add(1, Ordering::Relaxed);
                    // Count the completion even if the scheduler hung
                    // up mid-measure — `drain` must never wedge.
                    if send_reply(&reply).is_err() {
                        // An undeliverable reply (real breakage or an
                        // injected drop/tear) would leave the scheduler
                        // waiting on a frame that never comes: reset
                        // the connection so it requeues and reconnects
                        // instead.
                        let _ = writer
                            .lock()
                            .expect("worker writer poisoned")
                            .shutdown(std::net::Shutdown::Both);
                    }
                    completed.fetch_add(1, Ordering::Release);
                }
            });
        }
        let outcome = (|| -> Result<(), Diagnostic> {
            loop {
                match reader.next_frame() {
                    Ok(Frame::Idle) => continue,
                    Ok(Frame::Eof) => return Ok(()),
                    Ok(Frame::Value(frame)) => match WorkerRequest::from_json(&frame) {
                        Ok(WorkerRequest::Hello) => send(&WorkerReply::Hello { slots })?,
                        Ok(WorkerRequest::Measure(measurement)) => {
                            // The `worker.measure` site counts accepted
                            // measures; a scripted crash here models a
                            // worker dying mid-sweep with claims open.
                            if let Some(plan) = fault::active() {
                                match plan.tick("worker.measure") {
                                    Some(FaultAction::Crash(code)) => std::process::exit(code),
                                    Some(FaultAction::Delay(pause)) => std::thread::sleep(pause),
                                    _ => {}
                                }
                            }
                            accepted.fetch_add(1, Ordering::Relaxed);
                            let _ = inbox.send(measurement);
                        }
                        Ok(WorkerRequest::Drain) => {
                            // Barrier: every accepted measure has been
                            // answered before `drained` goes out.
                            while completed.load(Ordering::Acquire)
                                < accepted.load(Ordering::Relaxed)
                            {
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            send(&WorkerReply::Drained)?;
                        }
                        // A `failed` for a malformed measure, an `error`
                        // for anything else.
                        Err(reply) => send(&reply)?,
                    },
                    Err(err) => return Err(err),
                }
            }
        })();
        drop(inbox);
        outcome
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use axi4mlir_core::explore::measure::{measure_request, WORKER_SCHEMA};
    use axi4mlir_core::explore::{DesignSpace, Fidelity, MatMulSpace};
    use axi4mlir_support::json::JsonValue;
    use axi4mlir_workloads::matmul::MatMulProblem;

    fn start() -> (SocketAddr, std::thread::JoinHandle<WorkerSummary>) {
        static STOP: AtomicBool = AtomicBool::new(false);
        let worker =
            Worker::bind(WorkerConfig { slots: 2, stop: Some(&STOP), ..WorkerConfig::default() })
                .unwrap();
        let addr = worker.local_addr();
        (addr, std::thread::spawn(move || worker.run().unwrap()))
    }

    fn read_value(reader: &mut FrameReader<BufReader<TcpStream>>) -> JsonValue {
        loop {
            match reader.next_frame().unwrap() {
                Frame::Idle => continue,
                Frame::Value(value) => return value,
                Frame::Eof => panic!("worker hung up"),
            }
        }
    }

    #[test]
    fn a_worker_answers_hello_measure_and_drain() {
        let (addr, _serving) = start();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = FrameReader::new(BufReader::new(stream));

        write_frame(&mut writer, &WorkerRequest::Hello.to_json()).unwrap();
        let hello = read_value(&mut reader);
        assert_eq!(hello.get("schema").and_then(JsonValue::as_str), Some(WORKER_SCHEMA));
        assert_eq!(hello.get("slots").and_then(JsonValue::as_u64), Some(2));

        let space = MatMulSpace::new(MatMulProblem::new(8, 8, 8)).seed(3);
        let job = space.wire_spec().unwrap().to_json();
        for (id, candidate) in space.enumerate().unwrap().iter().take(3).enumerate() {
            let request = measure_request(id as u64 + 1, &job, Fidelity::Full, candidate);
            write_frame(&mut writer, &request).unwrap();
        }
        write_frame(&mut writer, &WorkerRequest::Drain.to_json()).unwrap();

        let mut results = 0;
        loop {
            let frame = read_value(&mut reader);
            match frame.get("type").and_then(JsonValue::as_str) {
                Some("result") => {
                    assert!(frame.get("verified").and_then(JsonValue::as_bool).unwrap());
                    assert!(frame.get("nanos").and_then(JsonValue::as_u64).unwrap() > 0);
                    results += 1;
                }
                Some("drained") => break,
                other => panic!("unexpected frame type {other:?}"),
            }
        }
        assert_eq!(results, 3, "drained arrived only after every result");
    }

    #[test]
    fn unknown_frames_get_an_error_reply_and_bad_jobs_fail_cleanly() {
        let (addr, _serving) = start();
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = FrameReader::new(BufReader::new(stream));

        write_frame(&mut writer, &JsonValue::object([("type", "launch".into())])).unwrap();
        let error = read_value(&mut reader);
        assert_eq!(error.get("type").and_then(JsonValue::as_str), Some("error"));
        assert!(error.get("reason").and_then(JsonValue::as_str).unwrap().contains("launch"));

        // A measure with a broken job spec answers `failed`, not a hangup.
        let bad = JsonValue::object([("type", "measure".into()), ("id", 7u64.into())]);
        write_frame(&mut writer, &bad).unwrap();
        let failed = read_value(&mut reader);
        assert_eq!(failed.get("type").and_then(JsonValue::as_str), Some("failed"));
        assert_eq!(failed.get("id").and_then(JsonValue::as_u64), Some(7));
    }
}

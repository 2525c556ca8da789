//! Open-loop load generator for `serve-mpc`: one TCP connection, a
//! scheduled sender thread and a receiver thread.
//!
//! Each request is timed from when it was *due*, not from when it was
//! sent, so a sender that stalls charges the wait to the requests behind
//! it instead of hiding it. How late the sender ran and how many requests
//! were outstanding are recorded, so a stalled client is never read as a
//! slow server.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use paradmm_core::SolveRequest;
use paradmm_graph::io::{read_frame_or_cancel, write_frame, FrameError};
use paradmm_graph::FactorGraph;
use paradmm_serve::protocol::{decode_response, encode_request, response_id};
use paradmm_serve::ServedOutcome;

/// How long the receiver waits for stragglers after the last send.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What came back for one request.
#[derive(Debug)]
pub struct Received {
    /// Seconds after the schedule start.
    pub at_s: f64,
    /// The decoded response, or the server's error message.
    pub result: Result<ServedOutcome, String>,
    /// Response frame payload size.
    pub bytes: usize,
    /// Seconds spent in `decode_response`.
    pub decode_s: f64,
}

/// The record of one open-loop run.
#[derive(Debug)]
pub struct OpenLoopRun {
    /// When each request was due, seconds after the schedule start.
    pub due_s: Vec<f64>,
    /// When each request was actually written, seconds after the start.
    pub sent_s: Vec<f64>,
    /// Seconds spent in `encode_request`, per request.
    pub encode_s: Vec<f64>,
    /// Request frame payloads, kept when asked for (traced run).
    pub payloads: Vec<Vec<u8>>,
    /// Response per request, `None` when it never came back.
    pub received: Vec<Option<Received>>,
    /// Outstanding requests (sent − received) at each send.
    pub outstanding: Vec<usize>,
    /// Outstanding requests when the last request was sent.
    pub outstanding_at_end: usize,
    /// Transport or framing failure that ended the run early, if any.
    pub transport_error: Option<String>,
}

impl OpenLoopRun {
    /// Seconds the sender ran behind schedule, per request.
    pub fn lateness_s(&self) -> Vec<f64> {
        self.sent_s
            .iter()
            .zip(&self.due_s)
            .map(|(s, d)| (s - d).max(0.0))
            .collect()
    }

    /// Whether the backlog grew over the schedule: the mean number of
    /// outstanding requests over its last quarter exceeds twice that of
    /// its second quarter by more than a few requests.
    pub fn backlog_grew(&self) -> bool {
        let n = self.outstanding.len();
        if n < 8 {
            return false;
        }
        let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
        let second = mean(&self.outstanding[n / 4..n / 2]);
        let last = mean(&self.outstanding[3 * n / 4..]);
        last > 2.0 * second + 4.0
    }
}

/// Sends `requests` over one connection to `addr` at their `due_s`
/// times (seconds after the call starts) and collects every response.
pub fn run_open_loop(
    stream: TcpStream,
    requests: &[(SolveRequest, bool)],
    due_s: &[f64],
    keep_payloads: bool,
) -> OpenLoopRun {
    let n = requests.len();
    let graphs: Vec<FactorGraph> = requests
        .iter()
        .map(|(r, _)| r.problem().graph().clone())
        .collect();
    let received: Vec<Mutex<Option<Received>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let received_count = AtomicUsize::new(0);
    let sender_done_at = Mutex::new(None::<Instant>);
    let transport_error = Mutex::new(None::<String>);
    let mut read_half = stream.try_clone().expect("clone the client socket");
    read_half
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("set a read timeout");
    let mut write_half = stream;
    let start = Instant::now();

    let (sent_s, encode_s, payloads, outstanding, outstanding_at_end) = std::thread::scope(|s| {
        s.spawn(|| {
            let deadline_passed = || {
                sender_done_at
                    .lock()
                    .expect("no panics while holding the lock")
                    .is_some_and(|t| t.elapsed() > DRAIN_TIMEOUT)
            };
            while received_count.load(Ordering::SeqCst) < n {
                match read_frame_or_cancel(&mut read_half, &deadline_passed) {
                    Ok(Some(payload)) => {
                        let at_s = start.elapsed().as_secs_f64();
                        let Ok(id) = response_id(&payload) else {
                            *transport_error.lock().expect("lock") =
                                Some("undecodable response id".into());
                            break;
                        };
                        let Some(i) = (id as usize).checked_sub(1).filter(|&i| i < n) else {
                            // A server-level error for an unparseable
                            // frame carries no usable id.
                            *transport_error.lock().expect("lock") =
                                Some(format!("response for unknown id {id}"));
                            break;
                        };
                        let t = Instant::now();
                        let decoded = decode_response(&payload, Some(&graphs[i]));
                        let decode_s = t.elapsed().as_secs_f64();
                        let result = match decoded {
                            Ok((_, result)) => result,
                            Err(e) => Err(format!("undecodable response: {e}")),
                        };
                        *received[i].lock().expect("lock") = Some(Received {
                            at_s,
                            result,
                            bytes: payload.len(),
                            decode_s,
                        });
                        received_count.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(None) => break,
                    Err(FrameError::Io(e))
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) =>
                    {
                        if deadline_passed() {
                            break;
                        }
                    }
                    Err(e) => {
                        *transport_error.lock().expect("lock") = Some(e.to_string());
                        break;
                    }
                }
            }
        });

        let mut sent_s = Vec::with_capacity(n);
        let mut encode_s = Vec::with_capacity(n);
        let mut payloads = Vec::new();
        let mut outstanding = Vec::with_capacity(n);
        for (i, (request, use_cache)) in requests.iter().enumerate() {
            let due = Duration::from_secs_f64(due_s[i]);
            if let Some(wait) = due.checked_sub(start.elapsed()) {
                std::thread::sleep(wait);
            }
            let t = Instant::now();
            let payload = encode_request(i as u64 + 1, request, *use_cache)
                .expect("workload requests encode");
            encode_s.push(t.elapsed().as_secs_f64());
            let sent = start.elapsed().as_secs_f64();
            if let Err(e) = write_frame(&mut write_half, &payload) {
                *transport_error.lock().expect("lock") = Some(e.to_string());
                break;
            }
            sent_s.push(sent);
            outstanding.push(i + 1 - received_count.load(Ordering::SeqCst));
            if keep_payloads {
                payloads.push(payload);
            }
        }
        let at_end = sent_s.len() - received_count.load(Ordering::SeqCst).min(sent_s.len());
        *sender_done_at.lock().expect("lock") = Some(Instant::now());
        (sent_s, encode_s, payloads, outstanding, at_end)
    });
    // Close the connection so the server's reader for it exits.
    let _ = write_half.shutdown(std::net::Shutdown::Both);

    OpenLoopRun {
        due_s: due_s.to_vec(),
        sent_s,
        encode_s,
        payloads,
        received: received
            .into_iter()
            .map(|m| m.into_inner().expect("no panics while holding the lock"))
            .collect(),
        outstanding,
        outstanding_at_end,
        transport_error: transport_error.into_inner().expect("lock"),
    }
}

/// Connects to the server at `addr`.
pub fn connect(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).expect("connect to the local server");
    stream.set_nodelay(true).expect("disable Nagle");
    stream
}

/// Goodput latency limit: a response counts toward goodput only if it
/// comes back correct within this long after its due time.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// A sender whose 99th-percentile lateness exceeds this has fallen
/// behind its schedule.
pub const SENDER_BEHIND_MS: f64 = 10.0;

/// One checked response.
#[derive(Debug, Clone, Copy)]
pub struct Served {
    /// Index of the request in the schedule.
    pub index: usize,
    /// Due time to receipt, ms.
    pub latency_ms: f64,
    /// Send to receipt, ms.
    pub round_trip_ms: f64,
    /// Server-reported admission-to-completion time, ms.
    pub elapsed_ms: f64,
    /// Lane that served it.
    pub lane: paradmm_serve::Lane,
    /// Whether the server seeded it from its cache.
    pub warm_started: bool,
    /// Iterations the server ran.
    pub iterations: usize,
    /// Whether it passed the correctness gate.
    pub correct: bool,
}

/// Checks every response of `run` against the serial references: cold
/// results bit for bit, warm-started ones to tolerance. Returns the
/// checked responses; failures go into `f`.
pub fn check_served(
    w: &crate::workloads::Workload,
    run: &OpenLoopRun,
    refs: &[crate::paths::Reference],
    f: &mut crate::paths::Failures,
) -> Vec<Served> {
    let mut out = Vec::new();
    for (i, spec) in w.requests.iter().enumerate() {
        let Some(got) = run.received.get(i).and_then(Option::as_ref) else {
            f.attempted += 1;
            f.missing += 1;
            continue;
        };
        let outcome = match &got.result {
            Ok(outcome) => outcome,
            Err(_) => {
                f.attempted += 1;
                f.error += 1;
                continue;
            }
        };
        let r = &refs[spec.problem];
        let before = f.total();
        if outcome.warm_started {
            f.check_close(outcome.iterations, outcome.stop_reason, &outcome.store.z, r);
        } else {
            f.check_identical(outcome.iterations, outcome.stop_reason, &outcome.store.z, r);
        }
        out.push(Served {
            index: i,
            latency_ms: (got.at_s - run.due_s[i]) * 1e3,
            round_trip_ms: (got.at_s - run.sent_s[i]) * 1e3,
            elapsed_ms: outcome.elapsed.as_secs_f64() * 1e3,
            lane: outcome.lane,
            warm_started: outcome.warm_started,
            iterations: outcome.iterations,
            correct: f.total() == before,
        });
    }
    out
}

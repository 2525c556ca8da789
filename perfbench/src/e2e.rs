//! The untraced run: end-to-end metrics as a user of each path sees
//! them.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::time::Instant;

use paradmm_core::SolveRequest;
use paradmm_serve::{ServerConfig, ServerHandle};

use crate::paths::{self, Failures, PathRun, Reference};
use crate::provenance::peak_rss_mb;
use crate::report::Report;
use crate::serve_load::{self, LATENCY_LIMIT_MS, SENDER_BEHIND_MS};
use crate::stats::{median, minimum, percentile, sum_of_fastest, tail};
use crate::workloads::Workload;

/// Set-up repetitions per run; `setup_s` is their median. They are
/// spread evenly over the offline passes, so that they span the run's
/// phases of host load.
pub const SETUP_REPS: usize = 25;

/// The offline paths with an end-to-end metric, in the order they are
/// cycled through. The one-request-at-a-time parallel backends
/// (`rayon:2`, `barrier:2`, `worksteal:2`) are not among them: they
/// launch threads per pass or per block, and on the 2-core VM the
/// benchmark was sized on their wall-clock moved with the host's load by
/// a quartile spread of 0.25-0.34 over ten runs, more than any
/// regression bound may absorb. Nor are `fleet` and `percore_serial`,
/// which keep both cores busy at once: even as the fastest of their
/// passes their spread over five runs was 0.24 on `serve-mpc`. `batch`
/// is left out so that `serial` gets every pass the budget holds: on
/// `svm-large` both are one 2-second call, whose fastest of a dozen
/// passes still had a spread of 0.27. The traced run reports all of
/// them per layer.
pub const OFFLINE_PATHS: [&str; 1] = ["serial"];

/// Builds every request of `w` through the family builders.
pub fn build_all(w: &Workload) -> Vec<(SolveRequest, bool)> {
    (0..w.requests.len())
        .map(|i| (w.build_request(i), w.requests[i].use_cache))
        .collect()
}

/// Seconds to build every request of `w`.
pub fn setup_offline(w: &Workload) -> f64 {
    let t = Instant::now();
    std::hint::black_box(build_all(w));
    t.elapsed().as_secs_f64()
}

/// A served workload ready to run: its requests, a server and a
/// connection to it.
pub struct ServeSetup {
    /// Requests with their `use_cache` flags, in schedule order.
    pub requests: Vec<(SolveRequest, bool)>,
    /// The running server.
    pub server: ServerHandle,
    /// The client connection.
    pub stream: TcpStream,
}

/// One set-up of a served workload: build every request, spawn a server
/// with the default configuration and connect to it. Returns its
/// seconds and the set-up.
pub fn setup_serve(w: &Workload) -> (f64, ServeSetup) {
    let t = Instant::now();
    let requests = build_all(w);
    let server =
        ServerHandle::spawn("127.0.0.1:0", ServerConfig::default()).expect("bind a local port");
    let stream = serve_load::connect(server.addr());
    let seconds = t.elapsed().as_secs_f64();
    (
        seconds,
        ServeSetup {
            requests,
            server,
            stream,
        },
    )
}

/// One set-up of a served workload, timed and torn down.
fn setup_serve_discarded(w: &Workload) -> f64 {
    let (seconds, setup) = setup_serve(w);
    drop(setup.stream);
    setup.server.shutdown();
    seconds
}

/// Runs one offline path over `set`.
pub fn run_path(
    name: &str,
    w: &Workload,
    set: &[usize],
    refs: &[Reference],
    f: &mut Failures,
) -> PathRun {
    match name {
        "fleet" => paths::fleet(w, set, refs, f),
        "batch" => paths::batch(w, set, refs, f),
        "percore_serial" => paths::percore_serial(w, set, refs, f),
        "serial" => paths::solo(w, set, paths::spec("serial"), refs, f),
        other => unreachable!("no offline path named {other}"),
    }
}

/// Offline path samples of one run.
#[derive(Debug, Default)]
pub struct OfflineSamples {
    /// Per path, the wall-clock of each pass over the set.
    pub pass_s: BTreeMap<&'static str, Vec<f64>>,
    /// Per path, per call into the public API (see
    /// [`PathRun::call_s`]), its wall-clock over every pass.
    pub call_s: BTreeMap<&'static str, Vec<Vec<f64>>>,
    /// Iterations over the set (identical on every path).
    pub iterations: usize,
}

impl OfflineSamples {
    /// A path's metric: the sum over its calls of each call's fastest
    /// pass.
    pub fn fastest_s(&self, path: &str) -> f64 {
        sum_of_fastest(&self.call_s[path]).expect("one pass at least")
    }

    /// Fastest serial solve of each request, ms.
    pub fn serial_request_ms(&self) -> Vec<f64> {
        self.call_s["serial"]
            .iter()
            .map(|samples| minimum(samples).expect("one pass at least") * 1e3)
            .collect()
    }
}

/// Cycles through [`OFFLINE_PATHS`], one pass over `set` at a time,
/// until every path has a sample and the next pass (estimated by that
/// path's previous one) would end after `budget_s`. Between passes it
/// runs `setup` [`SETUP_REPS`] times in all, evenly over the budget,
/// and returns those set-up times too.
///
/// A path's metric is the sum over its calls into the public API of
/// each call's fastest time. On a shared host the neighbours' load slows
/// a solve by up to half again, in phases of tens of seconds, and never
/// speeds it up: the median of a run follows the host, while the fastest
/// time of a call, taken over many short calls, follows the program.
pub fn offline_samples(
    w: &Workload,
    set: &[usize],
    refs: &[Reference],
    budget_s: f64,
    f: &mut Failures,
    setup: &mut dyn FnMut() -> f64,
) -> (OfflineSamples, Vec<f64>) {
    let mut s = OfflineSamples::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let start = Instant::now();
    for (k, &name) in OFFLINE_PATHS.iter().cycle().enumerate() {
        let due = setup_s.len() as f64 * budget_s / SETUP_REPS as f64;
        if setup_s.len() < SETUP_REPS && start.elapsed().as_secs_f64() >= due {
            setup_s.push(setup());
        }
        if k >= OFFLINE_PATHS.len() {
            let estimate = s.pass_s[name].last().copied().unwrap_or(0.0);
            if start.elapsed().as_secs_f64() + estimate > budget_s {
                break;
            }
        }
        let run = run_path(name, w, set, refs, f);
        s.pass_s.entry(name).or_default().push(run.seconds);
        let calls = s.call_s.entry(name).or_default();
        calls.resize(run.call_s.len(), Vec::new());
        for (samples, t) in calls.iter_mut().zip(&run.call_s) {
            samples.push(*t);
        }
        s.iterations = run.iterations;
    }
    while setup_s.len() < SETUP_REPS {
        setup_s.push(setup());
    }
    (s, setup_s)
}

fn add_path_metrics(report: &mut Report, s: &OfflineSamples) {
    for name in OFFLINE_PATHS {
        let passes = &s.pass_s[name];
        report.note(format!(
            "{name}: passes median {:.6} s, fastest {:.6} s, slowest {:.6} s over {} passes",
            median(passes).expect("one pass at least"),
            minimum(passes).expect("one pass at least"),
            passes.iter().copied().fold(f64::NAN, f64::max),
            passes.len()
        ));
        report.add(
            format!("{name}_s"),
            s.fastest_s(name),
            "s",
            s.pass_s[name].len(),
        );
    }
}

fn add_latency_metrics(
    report: &mut Report,
    latencies_ms: &[f64],
    p95: (f64, f64),
    goodput: f64,
    goodput_n: usize,
) {
    report.add(
        "latency_p50_ms",
        percentile(latencies_ms, 50.0).unwrap_or(f64::NAN),
        "ms",
        latencies_ms.len(),
    );
    report.add("latency_p95_ms", p95.1, "ms", latencies_ms.len());
    if p95.0 != 95.0 {
        report.note(format!(
            "latency_p95_ms reports p{} of {} samples",
            p95.0,
            latencies_ms.len()
        ));
    }
    report.add("goodput_rps", goodput, "1/s", goodput_n);
}

/// End-to-end run of `svm-large` or `mpc-fleet`. With no server in the
/// path, a request's latency is its fastest serial solve, and goodput is
/// requests per second of `serial_s`. A fleet of a dozen requests has no
/// tail with ten samples beyond it, so `latency_p95_ms` is the
/// nearest-rank p95 over requests: the slowest.
pub fn run_offline(w: &Workload, seconds: f64, report: &mut Report) {
    let set = w.offline_set();
    let refs = paths::references(w);
    let mut f = Failures::default();
    let (s, setup_s) = offline_samples(w, &set, &refs, seconds, &mut f, &mut || setup_offline(w));
    report.add(
        "setup_s",
        median(&setup_s).expect("SETUP_REPS > 0"),
        "s",
        setup_s.len(),
    );
    add_path_metrics(report, &s);
    let per_request = s.serial_request_ms();
    add_latency_metrics(
        report,
        &per_request,
        (
            95.0,
            percentile(&per_request, 95.0).expect("one request at least"),
        ),
        set.len() as f64 / s.fastest_s("serial"),
        s.pass_s["serial"].len(),
    );
    report.add("iterations", s.iterations as f64, "count", set.len());
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.failures.merge(&f);
}

/// Share of the run spent re-solving the mix offline, the rest going
/// to the open-loop schedule.
pub const SERVE_OFFLINE_SHARE: f64 = 0.5;

/// Length of the `serve-mpc` schedule for a run of `seconds`.
pub fn serve_schedule_s(seconds: f64) -> f64 {
    (seconds * (1.0 - SERVE_OFFLINE_SHARE) - 2.0).max(2.0)
}

/// End-to-end run of `serve-mpc`.
pub fn run_serve(w: &Workload, seconds: f64, report: &mut Report) {
    let refs = paths::references(w);
    let mut f = Failures::default();
    let set = w.offline_set();
    let budget_s = seconds * SERVE_OFFLINE_SHARE;
    let (s, mut setup_s) = offline_samples(w, &set, &refs, budget_s, &mut f, &mut || {
        setup_serve_discarded(w)
    });
    // The set-up the schedule runs on is timed with the others.
    let (kept_s, setup) = setup_serve(w);
    setup_s.push(kept_s);

    let due: Vec<f64> = w.requests.iter().map(|r| r.due_s).collect();
    let run = serve_load::run_open_loop(setup.stream, &setup.requests, &due, false);
    setup.server.shutdown();
    let served = serve_load::check_served(w, &run, &refs, &mut f);
    if let Some(e) = &run.transport_error {
        report.check_failures.push(format!("transport: {e}"));
    }

    let latencies: Vec<f64> = served.iter().map(|x| x.latency_ms).collect();
    let good = served
        .iter()
        .filter(|x| x.correct && x.latency_ms <= LATENCY_LIMIT_MS)
        .count();
    // The schedule as it played out: until the last response arrived.
    let played_s = run
        .received
        .iter()
        .flatten()
        .map(|r| r.at_s)
        .fold(w.schedule_s, f64::max);
    report.add(
        "setup_s",
        median(&setup_s).expect("SETUP_REPS > 0"),
        "s",
        setup_s.len(),
    );
    add_path_metrics(report, &s);
    add_latency_metrics(
        report,
        &latencies,
        tail(&latencies, 95.0).unwrap_or((0.0, f64::NAN)),
        good as f64 / played_s,
        served.len(),
    );
    report.add(
        "iterations",
        served.iter().map(|x| x.iterations).sum::<usize>() as f64,
        "count",
        served.len(),
    );
    report.add("peak_rss_mb", peak_rss_mb(), "MB", 1);
    report.failures.merge(&f);
    note_open_loop_health(report, &run);
    check_latency_order(report, &served);
}

/// Prints how late the sender ran and whether the backlog grew, and
/// flags a run whose client, not server, set the pace.
pub fn note_open_loop_health(report: &mut Report, run: &serve_load::OpenLoopRun) {
    let late_ms: Vec<f64> = run.lateness_s().iter().map(|s| s * 1e3).collect();
    let max = late_ms.iter().copied().fold(0.0, f64::max);
    let (p, p_late) = tail(&late_ms, 99.0).unwrap_or((0.0, 0.0));
    report.note(format!(
        "open loop: sender late max {max:.3} ms, p{p} {p_late:.3} ms; {} outstanding at end of schedule",
        run.outstanding_at_end
    ));
    if p_late > SENDER_BEHIND_MS {
        report.note("FLAG: the sender fell behind its schedule; latencies include client stalls");
    }
    if run.backlog_grew() {
        report.note("FLAG: the backlog grew over the schedule; the offered rate exceeds capacity");
    }
}

/// Every response must arrive no sooner than the server says it took.
pub fn check_latency_order(report: &mut Report, served: &[serve_load::Served]) {
    // The server reports `elapsed` in whole microseconds.
    let bad = served
        .iter()
        .filter(|x| x.round_trip_ms + 1e-3 < x.elapsed_ms)
        .count();
    if bad > 0 {
        report.check_failures.push(format!(
            "{bad} responses arrived sooner than their server elapsed time"
        ));
    }
}

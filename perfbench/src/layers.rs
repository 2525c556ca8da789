//! The traced run: per-layer metrics, each timed from outside around
//! calls into the layer's public functions.

use std::time::Instant;

use paradmm_core::{
    AdmmProblem, BatchSolver, FleetSolver, Residuals, SolveRequest, StopReason, StoppingCriteria,
    SweepExecutor, UpdateKind, UpdateTimings,
};
use paradmm_graph::VarStore;
use paradmm_serve::protocol::{decode_request, encode_response};
use paradmm_serve::{Engine, EngineRequest, Lane, ServerConfig};

use crate::e2e;
use crate::paths::{self, Failures, Reference, WORKERS};
use crate::report::Report;
use crate::serve_load::{self, SENDER_BEHIND_MS};
use crate::stats::{closure_ok, closure_ratio, minimum, percentile, tail};
use crate::trace::{SpanId, Tracer};
use crate::workloads::Workload;

/// Executors traced one request at a time, by metric suffix and backend.
pub const EXECUTORS: [(&str, &str); 5] = [
    ("serial", "serial"),
    ("rayon", "rayon:2"),
    ("barrier", "barrier:2"),
    ("worksteal", "worksteal:2"),
    ("fleet", "fleet:2"),
];

/// Iterations of the long block the launch ratio compares against.
pub const LONG_BLOCK: usize = 1000;

/// Multi-instance paths with no end-to-end metric (see
/// [`e2e::OFFLINE_PATHS`]), timed here over the offline set.
pub const TRACED_PATHS: [&str; 3] = ["batch", "fleet", "percore_serial"];

/// Passes of each of [`TRACED_PATHS`]; `paths.<path>_s` is the fastest.
pub const TRACED_PATH_PASSES: usize = 3;

/// One solve driven block by block, the way `Solver::run` drives it.
#[derive(Debug, Clone)]
pub struct TracedSolve {
    /// Iterations run.
    pub iterations: usize,
    /// Why it stopped.
    pub stop_reason: StopReason,
    /// Final state.
    pub store: VarStore,
    /// Sweep timings the backend reported.
    pub timings: UpdateTimings,
    /// `run_block` calls.
    pub blocks: usize,
    /// Seconds inside `run_block`.
    pub run_block_s: f64,
    /// Seconds inside `Residuals::compute` and the convergence test.
    pub residual_s: f64,
    /// Seconds of the whole traced solve.
    pub wall_s: f64,
}

impl TracedSolve {
    /// Σ run_block + Σ residuals ÷ wall-clock.
    pub fn closure(&self) -> f64 {
        closure_ratio(self.run_block_s + self.residual_s, self.wall_s)
    }
}

/// Solves `problem` from zeros on `backend` with `Solver::run`'s block
/// schedule: blocks of `check_every` iterations, a residual check after
/// each, stop at convergence or budget. Reproduces `Solver::run`'s
/// iterates and iteration count bit for bit.
pub fn traced_solve(
    problem: &AdmmProblem,
    stopping: &StoppingCriteria,
    backend: &mut dyn SweepExecutor,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    request: u64,
) -> TracedSolve {
    let graph = problem.graph();
    let n_components = graph.num_edges() * graph.dims();
    let mut store = VarStore::zeros(graph);
    let mut timings = UpdateTimings::new();
    let (mut done, mut blocks) = (0, 0);
    let (mut run_block_s, mut residual_s) = (0.0, 0.0);
    let mut stop_reason = StopReason::MaxIterations;
    // Room for every span the solve can open, so recording allocates
    // nothing inside it.
    tracer.reserve(2 * stopping.max_iters.div_ceil(stopping.check_every.max(1)) + 1);
    // The span covers what `Solver::run` times: the block loop, not the
    // state allocation `Solver::from_problem` does.
    let solve = tracer.begin("solver.solve", parent, request);
    if stopping.max_iters > 0 {
        let mut span = tracer.begin("solver.run_block", Some(solve), request);
        loop {
            let block = stopping.check_every.max(1).min(stopping.max_iters - done);
            backend.run_block(problem, &mut store, block, &mut timings);
            let (took, next) = tracer.switch(span, "solver.residuals");
            run_block_s += took;
            span = next;
            done += block;
            blocks += 1;
            let r = Residuals::compute(graph, problem.params(), &store);
            if r.converged(n_components, stopping.eps_abs, stopping.eps_rel) {
                stop_reason = StopReason::Converged;
            }
            if stop_reason == StopReason::Converged || done >= stopping.max_iters {
                residual_s += tracer.end(span);
                break;
            }
            let (took, next) = tracer.switch(span, "solver.run_block");
            residual_s += took;
            span = next;
        }
    }
    let wall_s = tracer.end(solve);
    TracedSolve {
        iterations: done,
        stop_reason,
        store,
        timings,
        blocks,
        run_block_s,
        residual_s,
        wall_s,
    }
}

/// Per-iteration wall-clock of `check_every`-iteration blocks ÷ that of
/// one [`LONG_BLOCK`]-iteration block, both from the zero state of
/// `problem`: how much of a real solve's block cadence goes to
/// launching and joining the backend's workers.
pub fn launch_ratio(
    problem: &AdmmProblem,
    backend: &mut dyn SweepExecutor,
    check_every: usize,
) -> f64 {
    let zero = VarStore::zeros(problem.graph());
    let mut timings = UpdateTimings::new();
    let mut store = zero.clone();
    let t = Instant::now();
    for _ in 0..LONG_BLOCK / check_every {
        backend.run_block(problem, &mut store, check_every, &mut timings);
    }
    let short = t.elapsed().as_secs_f64();
    let mut store = zero;
    let t = Instant::now();
    backend.run_block(problem, &mut store, LONG_BLOCK, &mut timings);
    short / t.elapsed().as_secs_f64()
}

/// Bytes one iteration reads and writes, computed from array sizes
/// (f64 state; cache behaviour ignored): x reads n and writes x (2·E·d);
/// m reads x, u and writes m (3·E·d); z reads m and ρ and writes z and
/// z_prev (E·d + E + 2·V·d); u reads u, x, z and writes u (4·E·d); n
/// reads z, u and writes n (3·E·d).
pub fn bytes_per_iteration(edges: usize, vars: usize, dims: usize) -> f64 {
    8.0 * (13 * edges * dims + edges + 2 * vars * dims) as f64
}

#[derive(Debug, Default, Clone)]
struct ExecutorTotals {
    run_block_s: f64,
    timed_s: f64,
    blocks: usize,
    residual_s: f64,
    wall_s: f64,
    iterations: usize,
    bytes: f64,
    timings: UpdateTimings,
    worst_closure: f64,
}

/// The full traced run of any workload.
pub fn run_traced(w: &Workload, seed: u64, report: &mut Report) {
    let mut tracer = Tracer::new();
    let mut f = Failures::default();
    let root = tracer.begin("run", None, u64::MAX);

    // Problem build (mpc, svm, graph): every request, once.
    let (mut build_s, mut edges, mut state_bytes) = (0.0, 0usize, 0usize);
    for i in 0..w.requests.len() {
        let span = tracer.begin("build", Some(root), i as u64);
        let problem = w.problems[w.requests[i].problem].build();
        build_s += tracer.end(span);
        let g = problem.graph();
        edges += g.num_edges();
        state_bytes += 8 * g.dims() * (4 * g.num_edges() + 2 * g.num_vars());
    }
    report.add("build.s", build_s, "s", w.requests.len());
    report.add("build.edges", edges as f64, "count", w.requests.len());
    report.add(
        "build.state_bytes",
        state_bytes as f64,
        "B",
        w.requests.len(),
    );

    let span = tracer.begin("reference", Some(root), u64::MAX);
    let refs = paths::references(w);
    tracer.end(span);
    let set = w.offline_set();

    // Untraced serial over the set, for the tracing overhead.
    let untraced_serial_s = paths::solo(w, &set, paths::spec("serial"), &refs, &mut f).seconds;

    // Solver, executors and kernels.
    let mut totals: Vec<ExecutorTotals> = Vec::new();
    for (label, backend) in EXECUTORS {
        let mut t = ExecutorTotals {
            worst_closure: 1.0,
            ..Default::default()
        };
        let span = tracer.begin(format!("executor.{label}"), Some(root), u64::MAX);
        for &p in &set {
            let problem = w.problems[p].build();
            let mut exec = paths::spec(backend).to_backend();
            let s = traced_solve(
                &problem,
                &w.stopping,
                exec.as_mut(),
                &mut tracer,
                Some(span),
                p as u64,
            );
            let r = &refs[p];
            f.check_identical(s.iterations, s.stop_reason, &s.store.z, r);
            let closure = s.closure();
            if !closure_ok(closure) {
                report.check_failures.push(format!(
                    "closure {closure:.4} on {label} request {p}: Σ run_block + Σ residuals is not within 5% of the traced solve"
                ));
            }
            if (closure - 1.0).abs() > (t.worst_closure - 1.0).abs() {
                t.worst_closure = closure;
            }
            let g = problem.graph();
            t.run_block_s += s.run_block_s;
            t.timed_s += s.timings.total_seconds();
            t.blocks += s.blocks;
            t.residual_s += s.residual_s;
            t.wall_s += s.wall_s;
            t.iterations += s.iterations;
            t.bytes +=
                s.iterations as f64 * bytes_per_iteration(g.num_edges(), g.num_vars(), g.dims());
            t.timings.merge(&s.timings);
        }
        tracer.end(span);
        totals.push(t);
    }
    let serial = &totals[0];
    report.add("solver.blocks", serial.blocks as f64, "count", set.len());
    for ((label, _), t) in EXECUTORS.iter().zip(&totals) {
        report.add(
            format!("solver.sweep_s.{label}"),
            t.run_block_s,
            "s",
            t.blocks,
        );
    }
    report.add("solver.residual_s", serial.residual_s, "s", serial.blocks);
    report.add(
        "solver.closure",
        closure_ratio(serial.run_block_s + serial.residual_s, serial.wall_s),
        "ratio",
        set.len(),
    );
    report.note(format!(
        "closure: worst per-solve ratio {} over {} traced solves on {} executors",
        totals
            .iter()
            .map(|t| format!("{:.4}", t.worst_closure))
            .collect::<Vec<_>>()
            .join("/"),
        set.len() * EXECUTORS.len(),
        EXECUTORS.len()
    ));
    report.add(
        "trace.overhead_s",
        serial.wall_s - untraced_serial_s,
        "s",
        set.len(),
    );

    let largest = *set
        .iter()
        .max_by_key(|&&p| w.problems[p].build().graph().num_edges())
        .expect("non-empty set");
    let largest_problem = w.problems[largest].build();
    for ((label, backend), t) in EXECUTORS.iter().zip(&totals).skip(1) {
        let mut exec = paths::spec(backend).to_backend();
        let span = tracer.begin(
            format!("executor.launch.{label}"),
            Some(root),
            largest as u64,
        );
        let ratio = launch_ratio(&largest_problem, exec.as_mut(), w.stopping.check_every);
        tracer.end(span);
        report.add(format!("executor.launch_ratio.{label}"), ratio, "ratio", 2);
        report.add(
            format!("executor.efficiency.{label}"),
            serial.run_block_s / (WORKERS as f64 * t.run_block_s),
            "ratio",
            t.blocks,
        );
        report.add(
            format!("executor.unattributed_frac.{label}"),
            1.0 - t.timed_s / t.run_block_s,
            "ratio",
            t.blocks,
        );
    }
    let iters = serial.timings.iterations.max(1) as f64;
    for (name, kind) in [
        ("x", UpdateKind::X),
        ("m", UpdateKind::M),
        ("z", UpdateKind::Z),
        ("u", UpdateKind::U),
        ("n", UpdateKind::N),
    ] {
        report.add(
            format!("kernels.{name}_s"),
            serial.timings.seconds(kind) / iters,
            "s",
            serial.iterations,
        );
    }
    report.add(
        "kernels.gbps_computed",
        serial.bytes / serial.timed_s / 1e9,
        "GB/s",
        serial.iterations,
    );

    // Fleet scheduler.
    let reqs = paths::requests(w, &set, paths::spec("fleet:2"));
    let span = tracer.begin("fleet.run", Some(root), u64::MAX);
    let mut fleet = FleetSolver::from_requests(reqs);
    let fleet_report = fleet.run_default();
    tracer.end(span);
    for (k, &p) in set.iter().enumerate() {
        let r = &fleet_report.instances[k];
        let reference = &refs[p];
        f.check_identical(r.iterations, r.stop_reason, &fleet.store(k).z, reference);
    }
    report.add(
        "fleet.migrations",
        fleet.diagnostics().total_migrations() as f64,
        "count",
        1,
    );
    report.add(
        "fleet.idle_spins",
        fleet.diagnostics().total_idle_spins() as f64,
        "count",
        1,
    );

    for name in TRACED_PATHS {
        let span = tracer.begin(format!("paths.{name}"), Some(root), u64::MAX);
        let passes: Vec<f64> = (0..TRACED_PATH_PASSES)
            .map(|_| e2e::run_path(name, w, &set, &refs, &mut f).seconds)
            .collect();
        tracer.end(span);
        report.add(
            format!("paths.{name}_s"),
            minimum(&passes).expect("TRACED_PATH_PASSES > 0"),
            "s",
            passes.len(),
        );
    }

    // Batch engine, one batch per dims.
    let (mut plans, mut batch_sweep_s) = (0usize, 0.0);
    for group in paths::dims_groups(w, &set) {
        let reqs = paths::requests(w, &group, paths::spec(paths::BATCH_BACKEND));
        let span = tracer.begin("batch.run", Some(root), u64::MAX);
        let mut batch = BatchSolver::from_requests(reqs);
        let batch_report = batch.run_default();
        tracer.end(span);
        for (k, &p) in group.iter().enumerate() {
            let r = &batch_report.instances[k];
            let reference = &refs[p];
            f.check_identical(r.iterations, r.stop_reason, &batch.store(k).z, reference);
        }
        plans += batch.plans_built();
        batch_sweep_s += batch.timings().total_seconds();
    }
    report.add("batch.plans_built", plans as f64, "count", 1);
    report.add("batch.sweep_s", batch_sweep_s, "s", 1);

    if w.schedule_s > 0.0 {
        served_layers(w, &refs, &mut tracer, root, &mut f, report);
    } else {
        engine_layers(w, &set, &refs, &mut tracer, root, &mut f, report);
    }

    report.add(
        "failed.error",
        f.error as f64,
        "count",
        f.attempted as usize,
    );
    report.add(
        "failed.missing",
        f.missing as f64,
        "count",
        f.attempted as usize,
    );
    report.add(
        "failed.not_converged",
        f.not_converged as f64,
        "count",
        f.attempted as usize,
    );
    report.add(
        "failed.mismatch",
        f.mismatch as f64,
        "count",
        f.attempted as usize,
    );
    report.add(
        "failed_frac",
        f.total() as f64 / f.attempted.max(1) as f64,
        "ratio",
        f.attempted as usize,
    );
    report.failures.merge(&f);
    tracer.end(root);
    write_spans(w, seed, &tracer, report);
}

fn p50_p99(report: &mut Report, name: &str, samples: &[f64]) {
    report.add(
        format!("{name}_p50"),
        percentile(samples, 50.0).unwrap_or(0.0),
        "ms",
        samples.len(),
    );
    report.add(
        format!("{name}_p99"),
        tail(samples, 99.0).map_or(0.0, |(_, v)| v),
        "ms",
        samples.len(),
    );
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Per-request engine view shared by the in-process and served runs.
struct EngineView {
    elapsed_ms: Vec<f64>,
    queue_wait_ms: Vec<f64>,
    lanes: Vec<Lane>,
    latency_batch_ms: Vec<f64>,
    latency_fleet_ms: Vec<f64>,
    stats: paradmm_serve::EngineStats,
}

fn add_engine_metrics(report: &mut Report, v: &EngineView) {
    p50_p99(report, "engine.elapsed_ms", &v.elapsed_ms);
    p50_p99(report, "engine.queue_wait_ms", &v.queue_wait_ms);
    let n = v.lanes.len().max(1) as f64;
    let share = |lane: Lane| v.lanes.iter().filter(|l| **l == lane).count() as f64 / n;
    report.add(
        "engine.batch_frac",
        share(Lane::Batch),
        "ratio",
        v.lanes.len(),
    );
    report.add(
        "engine.fleet_frac",
        share(Lane::Fleet),
        "ratio",
        v.lanes.len(),
    );
    let completed = v.stats.completed.max(1) as f64;
    report.add(
        "engine.repacks_per_req",
        v.stats.repacks as f64 / completed,
        "ratio",
        v.lanes.len(),
    );
    report.add(
        "engine.joins_per_req",
        v.stats.joins as f64 / completed,
        "ratio",
        v.lanes.len(),
    );
    report.add("engine.max_pack", v.stats.max_pack as f64, "count", 1);
    report.add(
        "engine.latency_ms_p99.batch",
        tail(&v.latency_batch_ms, 99.0).map_or(0.0, |(_, x)| x),
        "ms",
        v.latency_batch_ms.len(),
    );
    report.add(
        "engine.latency_ms_p99.fleet",
        tail(&v.latency_fleet_ms, 99.0).map_or(0.0, |(_, x)| x),
        "ms",
        v.latency_fleet_ms.len(),
    );
}

/// Metrics of the layers a workload does not reach, reported as zero
/// so every traced run carries the same metric set.
fn add_unexercised(report: &mut Report, names: &[(&str, &'static str)]) {
    for (name, unit) in names {
        report.add(*name, 0.0, unit, 0);
    }
}

const PROTOCOL_AND_SERVER: [(&str, &str); 8] = [
    ("protocol.encode_request_us", "us"),
    ("protocol.decode_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.decode_response_us", "us"),
    ("protocol.request_bytes", "B"),
    ("protocol.response_bytes", "B"),
    ("server.transport_ms_p50", "ms"),
    ("server.transport_ms_p99", "ms"),
];

const LOADGEN: [(&str, &str); 4] = [
    ("loadgen.late_ms_max", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.outstanding_at_end", "count"),
    ("loadgen.stalled", "count"),
];

/// Offline workloads reach the engine in-process: every request
/// submitted at once to an `Engine` with the server's defaults.
fn engine_layers(
    w: &Workload,
    set: &[usize],
    refs: &[Reference],
    tracer: &mut Tracer,
    root: SpanId,
    f: &mut Failures,
    report: &mut Report,
) {
    let mut engine = Engine::new(ServerConfig::default().engine);
    let span = tracer.begin("engine.run", Some(root), u64::MAX);
    for (id, &p) in set.iter().enumerate() {
        engine.submit(EngineRequest {
            id: id as u64,
            request: SolveRequest::new(w.problems[p].build()).with_stopping(w.stopping),
            use_cache: false,
        });
    }
    let completions = engine.run_until_idle();
    tracer.end(span);
    let mut v = EngineView {
        elapsed_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        lanes: Vec::new(),
        latency_batch_ms: Vec::new(),
        latency_fleet_ms: Vec::new(),
        stats: *engine.stats(),
    };
    for c in &completions {
        let p = set[c.id as usize];
        let r = &refs[p];
        f.check_identical(
            c.outcome.iterations,
            c.outcome.stop_reason,
            &c.outcome.store.z,
            r,
        );
        let ms = c.outcome.elapsed.as_secs_f64() * 1e3;
        v.elapsed_ms.push(ms);
        v.queue_wait_ms.push(ms - r.solo_s * 1e3);
        v.lanes.push(c.lane);
        match c.lane {
            Lane::Fleet => v.latency_fleet_ms.push(ms),
            _ => v.latency_batch_ms.push(ms),
        }
    }
    f.missing += (set.len() - completions.len().min(set.len())) as u64;
    add_unexercised(report, &PROTOCOL_AND_SERVER);
    add_engine_metrics(report, &v);
    report.add("cache.hit_frac", 0.0, "ratio", 0);
    add_unexercised(report, &LOADGEN);
}

/// `serve-mpc` reaches every serving layer over TCP.
fn served_layers(
    w: &Workload,
    refs: &[Reference],
    tracer: &mut Tracer,
    root: SpanId,
    f: &mut Failures,
    report: &mut Report,
) {
    let (_, setup) = e2e::setup_serve(w);
    let due: Vec<f64> = w.requests.iter().map(|r| r.due_s).collect();
    let schedule_start = tracer.now();
    let run = serve_load::run_open_loop(setup.stream, &setup.requests, &due, true);
    let engine = setup.server.shutdown();
    let served = serve_load::check_served(w, &run, refs, f);
    if let Some(e) = &run.transport_error {
        report.check_failures.push(format!("transport: {e}"));
    }
    e2e::check_latency_order(report, &served);
    e2e::note_open_loop_health(report, &run);

    for x in &served {
        let at = |s: f64| schedule_start + s;
        let sent = run.sent_s[x.index];
        let recv = run.due_s[x.index] + x.latency_ms / 1e3;
        let span = tracer.record(
            "serve.request",
            at(run.due_s[x.index]),
            at(recv),
            Some(root),
            x.index as u64,
        );
        tracer.record(
            "protocol.encode_request",
            at(sent - run.encode_s[x.index]),
            at(sent),
            Some(span),
            x.index as u64,
        );
        if let Some(got) = &run.received[x.index] {
            tracer.record(
                "protocol.decode_response",
                at(recv),
                at(recv + got.decode_s),
                Some(span),
                x.index as u64,
            );
        }
    }

    let decode_request_s: Vec<f64> = run
        .payloads
        .iter()
        .map(|payload| {
            let t = Instant::now();
            let decoded = decode_request(payload);
            let s = t.elapsed().as_secs_f64();
            assert!(decoded.is_ok(), "the benchmark's own requests decode");
            s
        })
        .collect();
    let received: Vec<&serve_load::Received> = run.received.iter().flatten().collect();
    let encode_response_s: Vec<f64> = received
        .iter()
        .enumerate()
        .map(|(i, got)| {
            let t = Instant::now();
            std::hint::black_box(encode_response(i as u64, &got.result));
            t.elapsed().as_secs_f64()
        })
        .collect();
    let decode_response_s: Vec<f64> = received.iter().map(|g| g.decode_s).collect();
    let response_bytes: Vec<f64> = received.iter().map(|g| g.bytes as f64).collect();
    let request_bytes: Vec<f64> = run.payloads.iter().map(|p| p.len() as f64).collect();
    let us = |s: &[f64]| mean(s) * 1e6;
    report.add(
        "protocol.encode_request_us",
        us(&run.encode_s),
        "us",
        run.encode_s.len(),
    );
    report.add(
        "protocol.decode_request_us",
        us(&decode_request_s),
        "us",
        decode_request_s.len(),
    );
    report.add(
        "protocol.encode_response_us",
        us(&encode_response_s),
        "us",
        encode_response_s.len(),
    );
    report.add(
        "protocol.decode_response_us",
        us(&decode_response_s),
        "us",
        decode_response_s.len(),
    );
    report.add(
        "protocol.request_bytes",
        mean(&request_bytes),
        "B",
        request_bytes.len(),
    );
    report.add(
        "protocol.response_bytes",
        mean(&response_bytes),
        "B",
        response_bytes.len(),
    );
    let transport: Vec<f64> = served
        .iter()
        .map(|x| x.round_trip_ms - x.elapsed_ms)
        .collect();
    p50_p99(report, "server.transport_ms", &transport);

    let mut v = EngineView {
        elapsed_ms: Vec::new(),
        queue_wait_ms: Vec::new(),
        lanes: Vec::new(),
        latency_batch_ms: Vec::new(),
        latency_fleet_ms: Vec::new(),
        stats: *engine.stats(),
    };
    for x in &served {
        v.elapsed_ms.push(x.elapsed_ms);
        if !x.warm_started {
            let r = &refs[w.requests[x.index].problem];
            v.queue_wait_ms.push(x.elapsed_ms - r.solo_s * 1e3);
        }
        v.lanes.push(x.lane);
        match x.lane {
            Lane::Fleet => v.latency_fleet_ms.push(x.latency_ms),
            _ => v.latency_batch_ms.push(x.latency_ms),
        }
    }
    add_engine_metrics(report, &v);

    let repeats = w.requests.iter().filter(|r| r.use_cache).count();
    let warm = served.iter().filter(|x| x.warm_started).count();
    report.add(
        "cache.hit_frac",
        warm as f64 / repeats.max(1) as f64,
        "ratio",
        repeats,
    );

    let late_ms: Vec<f64> = run.lateness_s().iter().map(|s| s * 1e3).collect();
    let late_p99 = tail(&late_ms, 99.0).map_or(0.0, |(_, v)| v);
    report.add(
        "loadgen.late_ms_max",
        late_ms.iter().copied().fold(0.0, f64::max),
        "ms",
        late_ms.len(),
    );
    report.add("loadgen.late_ms_p99", late_p99, "ms", late_ms.len());
    report.add(
        "loadgen.outstanding_at_end",
        run.outstanding_at_end as f64,
        "count",
        1,
    );
    let stalled = late_p99 > SENDER_BEHIND_MS || run.backlog_grew();
    report.add("loadgen.stalled", f64::from(u8::from(stalled)), "count", 1);
}

/// Writes every span to `perfbench/out/trace-<workload>-<seed>.json`
/// under the working directory.
fn write_spans(w: &Workload, seed: u64, tracer: &Tracer, report: &mut Report) {
    let dir = std::path::Path::new("perfbench/out");
    let path = dir.join(format!("trace-{}-{seed}.json", w.name));
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.to_json()));
    match written {
        Ok(()) => report.note(format!(
            "spans: {} written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => report.note(format!("spans: not written ({e})")),
    }
    for (name, (count, total, self_s)) in tracer.totals_by_name() {
        report.note(format!(
            "span {name:<28} x{count:<6} total {total:>10.6} s  self {self_s:>10.6} s"
        ));
    }
}

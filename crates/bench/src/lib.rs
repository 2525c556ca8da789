//! Shared harness for the paper-reproduction benchmarks.
//!
//! Every figure binary follows the same recipe:
//!
//! 1. build the real factor-graph problem at a sweep of sizes,
//! 2. extract its per-task [`WorkloadProfile`],
//! 3. price one iteration on the machine models
//!    ([`SimtDevice::tesla_k40`] / [`CpuModel::opteron_6300`]),
//! 4. **calibrate** the CPU model against a real measured serial run of
//!    the actual engine (so the "CPU time" column is anchored to this
//!    machine, not to guessed constants), and
//! 5. print the same series the paper plots.
//!
//! Run any binary with `--help` for its options. All binaries accept
//! `--paper-scale` to extend sweeps toward the paper's full sizes (more
//! memory / time).

pub mod compare;

use std::io::Write as _;
use std::time::Instant;

use paradmm_core::{
    set_kernel_dispatch, AdmmProblem, AutoBackend, BackendSpec, BarrierBackend, BatchSolver,
    FleetSolver, KernelDispatch, Planner, RayonBackend, SerialBackend, Solver, SolverOptions,
    StaleBoundedBackend, StoppingCriteria, SweepExecutor, SweepPlan, UpdateKind, UpdateTimings,
    WorkStealingBackend,
};
use paradmm_gpusim::{CpuModel, GpuAdmmEngine, MultiDevice, SimtDevice, WorkloadProfile};
use paradmm_graph::{Partition, PartitionStats, Reordering, VarStore};

/// One row of a GPU-vs-serial-CPU figure.
#[derive(Debug, Clone)]
pub struct GpuRow {
    /// Problem-size parameter (N circles, K horizon, N data points).
    pub size: usize,
    /// Edge count of the built graph.
    pub edges: usize,
    /// Modeled (calibrated) serial CPU seconds per iteration.
    pub cpu_s_per_iter: f64,
    /// Modeled GPU seconds per iteration.
    pub gpu_s_per_iter: f64,
    /// Combined speedup.
    pub speedup: f64,
    /// Per-update-kind speedups in x, m, z, u, n order.
    pub per_update: [f64; 5],
    /// GPU time fraction per update kind (x, m, z, u, n).
    pub gpu_fraction: [f64; 5],
}

/// One row of a multicore figure.
#[derive(Debug, Clone)]
pub struct CpuRow {
    /// Problem-size parameter.
    pub size: usize,
    /// Core count.
    pub cores: usize,
    /// Modeled seconds per iteration at `cores`.
    pub s_per_iter: f64,
    /// Speedup over one core.
    pub speedup: f64,
    /// Per-update-kind speedups.
    pub per_update: [f64; 5],
    /// Time fraction per update kind at `cores`.
    pub fraction: [f64; 5],
}

/// Measures the real engine's serial seconds-per-iteration (used to anchor
/// the CPU model). Runs enough iterations to cross `min_seconds`.
pub fn measure_serial_s_per_iter(problem: &AdmmProblem, min_seconds: f64) -> f64 {
    measure_backend_s_per_iter(problem, &mut SerialBackend, min_seconds)
}

/// Measures any backend's real seconds-per-iteration on `problem`. Runs a
/// short warm-up, then doubles the block size until `min_seconds` of
/// wall-clock is covered.
pub fn measure_backend_s_per_iter(
    problem: &AdmmProblem,
    backend: &mut dyn SweepExecutor,
    min_seconds: f64,
) -> f64 {
    let mut store = VarStore::zeros(problem.graph());
    let mut timings = UpdateTimings::new();
    // Warm-up.
    backend.run_block(problem, &mut store, 2, &mut timings);
    let mut iters = 4usize;
    loop {
        let mut t = UpdateTimings::new();
        let start = Instant::now();
        backend.run_block(problem, &mut store, iters, &mut t);
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= min_seconds || iters >= 1 << 20 {
            return elapsed / iters as f64;
        }
        iters *= 2;
    }
}

/// Calibration result: multiply model CPU times by `scale` to match the
/// measured engine.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    /// measured / modeled serial seconds-per-iteration.
    pub scale: f64,
    /// The measured value, for reporting.
    pub measured_s_per_iter: f64,
    /// The uncalibrated model value, for reporting.
    pub modeled_s_per_iter: f64,
}

/// Calibrates `cpu` against a real serial run of `problem`.
pub fn calibrate(problem: &AdmmProblem, cpu: &CpuModel, min_seconds: f64) -> Calibration {
    let profile = WorkloadProfile::from_problem(problem);
    let modeled = cpu.iteration_time(&profile, 1);
    let measured = measure_serial_s_per_iter(problem, min_seconds);
    Calibration {
        scale: measured / modeled,
        measured_s_per_iter: measured,
        modeled_s_per_iter: modeled,
    }
}

/// Prices `problem` on the GPU model vs the (calibrated) serial CPU model.
pub fn gpu_row(
    problem: &AdmmProblem,
    size: usize,
    device: &SimtDevice,
    cpu: &CpuModel,
    cal_scale: f64,
    tune: bool,
) -> GpuRow {
    let profile = WorkloadProfile::from_problem(problem);
    let edges = problem.graph().num_edges();
    let cpu_total = cpu.iteration_time(&profile, 1) * cal_scale;

    // Kernel times at ntb = 32 (the paper's default) or tuned per kernel.
    let mut gpu_seconds = [0.0f64; 5];
    for (i, sweep) in profile.sweeps.iter().enumerate() {
        let ntb = if tune {
            device.tune_ntb(&sweep.tasks)
        } else {
            32
        };
        gpu_seconds[i] = device.kernel_time(&sweep.tasks, ntb).seconds;
    }
    let gpu_total: f64 = gpu_seconds.iter().sum();

    let mut per_update = [0.0f64; 5];
    let mut gpu_fraction = [0.0f64; 5];
    for (i, sweep) in profile.sweeps.iter().enumerate() {
        let cpu_sweep = cpu.sweep_time(sweep, 1) * cal_scale;
        per_update[i] = cpu_sweep / gpu_seconds[i];
        gpu_fraction[i] = gpu_seconds[i] / gpu_total;
    }

    GpuRow {
        size,
        edges,
        cpu_s_per_iter: cpu_total,
        gpu_s_per_iter: gpu_total,
        speedup: cpu_total / gpu_total,
        per_update,
        gpu_fraction,
    }
}

/// Prices `problem` on the multicore model at `cores`.
pub fn cpu_row(
    problem: &AdmmProblem,
    size: usize,
    cpu: &CpuModel,
    cal_scale: f64,
    cores: usize,
) -> CpuRow {
    let profile = WorkloadProfile::from_problem(problem);
    let t1 = cpu.iteration_time(&profile, 1) * cal_scale;
    let tp = cpu.iteration_time(&profile, cores) * cal_scale;
    let mut per_update = [0.0f64; 5];
    let mut fraction = [0.0f64; 5];
    for (i, sweep) in profile.sweeps.iter().enumerate() {
        per_update[i] = cpu.sweep_time(sweep, 1) / cpu.sweep_time(sweep, cores);
        fraction[i] = cpu.sweep_time(sweep, cores) * cal_scale / tp;
    }
    CpuRow {
        size,
        cores,
        s_per_iter: tp,
        speedup: t1 / tp,
        per_update,
        fraction,
    }
}

/// Builds a GPU engine with tuned ntb, for experiments that need one.
pub fn tuned_engine(problem: AdmmProblem, device: SimtDevice) -> GpuAdmmEngine {
    let mut engine = GpuAdmmEngine::new(problem, device);
    engine.tune_ntb();
    engine
}

/// Prints a header + aligned CSV-ish rows.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}");
    println!("{}", header.join(","));
    for row in rows {
        println!("{}", row.join(","));
    }
}

/// Formats the five per-update values as strings.
pub fn fmt_per_update(values: &[f64; 5]) -> Vec<String> {
    values.iter().map(|v| format!("{v:.2}")).collect()
}

/// Formats seconds with sensible precision.
pub fn fmt_s(v: f64) -> String {
    format!("{v:.6}")
}

/// Common CLI flags for the figure binaries.
#[derive(Debug, Clone)]
pub struct FigArgs {
    /// Extend sweeps toward the paper's full problem sizes.
    pub paper_scale: bool,
    /// Auto-tune ntb per kernel instead of the default 32.
    pub tune: bool,
    /// Anchor the CPU model to a measured serial run on *this* host
    /// instead of the paper's 2.8 GHz Opteron model. Off by default: the
    /// paper's speedups are relative to its own Opteron baseline, so the
    /// unscaled model is the faithful denominator; `--calibrate` answers
    /// "what would the K40 buy over *my* CPU".
    pub calibrate: bool,
    /// Destination override for the `BENCH_*.json` artefact (`--out`);
    /// `None` keeps the legacy `BENCH_<figure>.json` in the CWD.
    pub out: Option<std::path::PathBuf>,
}

impl FigArgs {
    /// Parses `--paper-scale` / `--tune` / `--calibrate` / `--out <path>`
    /// from `std::env::args`.
    pub fn parse() -> Self {
        let mut a = FigArgs {
            paper_scale: false,
            tune: false,
            calibrate: false,
            out: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--paper-scale" => a.paper_scale = true,
                "--tune" => a.tune = true,
                "--calibrate" => a.calibrate = true,
                "--out" => a.out = Some(parse_out_value(&mut it)),
                "--help" | "-h" => {
                    println!(
                        "flags: --paper-scale (full paper problem sizes), --tune (auto-tune ntb), --calibrate (anchor CPU model to this host), --out <path> (BENCH json destination file or directory; default: BENCH_<figure>.json in the CWD)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown flag {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        a
    }

    /// Calibration scale per the `--calibrate` flag: measures the real
    /// engine when requested, otherwise 1.0 (pure Opteron model).
    pub fn cal_scale(&self, problem: &AdmmProblem, cpu: &CpuModel) -> f64 {
        if self.calibrate {
            let cal = calibrate(problem, cpu, 0.2);
            println!(
                "# calibration: measured {:.3e} s/iter vs modeled {:.3e} (scale {:.3})",
                cal.measured_s_per_iter, cal.modeled_s_per_iter, cal.scale
            );
            cal.scale
        } else {
            let cal = calibrate(problem, cpu, 0.05);
            println!(
                "# CPU denominator: Opteron 6300 model (this host measured {:.3e} s/iter vs model {:.3e}; pass --calibrate to anchor to host)",
                cal.measured_s_per_iter, cal.modeled_s_per_iter
            );
            1.0
        }
    }
}

/// One machine-readable benchmark record, serialized into the
/// `BENCH_*.json` artefacts that track the perf trajectory across PRs.
#[derive(Debug, Clone)]
pub struct BenchJsonRow {
    /// Problem-size parameter (N circles, K horizon, N data points).
    pub size: usize,
    /// Edge count of the built graph.
    pub edges: usize,
    /// Backend / model the time belongs to (e.g. `"cpu-model"`,
    /// `"gpusim"`, `"serial"`, `"rayon"`).
    pub backend: String,
    /// Seconds per iteration under that backend.
    pub seconds_per_iteration: f64,
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Writes `rows` as `BENCH_<figure>.json` in the working directory and
/// returns the path. The format is one self-describing object:
/// `{"figure": ..., "rows": [{"size", "edges", "backend",
/// "seconds_per_iteration"}, ...]}` — stable keys so tooling can diff the
/// perf trajectory from PR 1 onward.
pub fn write_bench_json(
    figure: &str,
    rows: &[BenchJsonRow],
) -> std::io::Result<std::path::PathBuf> {
    write_bench_json_with_meta(figure, rows, &[])
}

/// Like [`write_bench_json`], but with an extra flat `"meta"` object of
/// named scalars (partition quality metrics, exchange volumes, …) so
/// regressions in quantities that aren't seconds-per-iteration still
/// show up in the `BENCH_*` trajectory.
pub fn write_bench_json_with_meta(
    figure: &str,
    rows: &[BenchJsonRow],
    meta: &[(String, f64)],
) -> std::io::Result<std::path::PathBuf> {
    write_bench_json_with_meta_to(None, figure, rows, meta)
}

/// [`write_bench_json`] with an explicit destination — the `--out` flag
/// every JSON-writing bench bin shares, so CI and local runs stop
/// clobbering each other's artefacts in the CWD.
pub fn write_bench_json_to(
    out: Option<&std::path::Path>,
    figure: &str,
    rows: &[BenchJsonRow],
) -> std::io::Result<std::path::PathBuf> {
    write_bench_json_with_meta_to(out, figure, rows, &[])
}

/// [`write_bench_json_with_meta`] with an explicit destination:
///
/// * `None` — legacy behaviour, `BENCH_<figure>.json` in the CWD;
/// * `Some(dir)` (existing directory, or a path ending in `/`) —
///   `BENCH_<figure>.json` inside that directory;
/// * `Some(file)` — exactly that file.
///
/// Parent directories are created as needed.
pub fn write_bench_json_with_meta_to(
    out: Option<&std::path::Path>,
    figure: &str,
    rows: &[BenchJsonRow],
    meta: &[(String, f64)],
) -> std::io::Result<std::path::PathBuf> {
    let default_name = format!("BENCH_{figure}.json");
    let path = match out {
        None => std::path::PathBuf::from(&default_name),
        Some(p) => {
            let is_dir = p.is_dir()
                || p.as_os_str()
                    .to_string_lossy()
                    .ends_with(std::path::MAIN_SEPARATOR);
            if is_dir {
                p.join(&default_name)
            } else {
                p.to_path_buf()
            }
        }
    };
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    let mut f = std::fs::File::create(&path)?;
    f.write_all(bench_json_string_with_meta(figure, rows, meta).as_bytes())?;
    Ok(path)
}

/// Pulls the value of an `--out` flag from an argument iterator (shared
/// by the bins that hand-roll their CLI parsing).
pub fn parse_out_value(it: &mut impl Iterator<Item = String>) -> std::path::PathBuf {
    match it.next() {
        Some(v) if !v.starts_with('-') => std::path::PathBuf::from(v),
        _ => {
            eprintln!("--out needs a path (file, or directory for the default file name)");
            std::process::exit(2);
        }
    }
}

/// The JSON document [`write_bench_json`] emits, as a string.
pub fn bench_json_string(figure: &str, rows: &[BenchJsonRow]) -> String {
    bench_json_string_with_meta(figure, rows, &[])
}

/// The JSON document [`write_bench_json_with_meta`] emits, as a string.
/// An empty `meta` omits the `"meta"` key entirely, so the PR 1 format
/// is preserved byte-for-byte for the existing figures.
pub fn bench_json_string_with_meta(
    figure: &str,
    rows: &[BenchJsonRow],
    meta: &[(String, f64)],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\n  \"figure\": \"{}\",\n  \"rows\": [\n",
        json_escape(figure)
    ));
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"size\": {}, \"edges\": {}, \"backend\": \"{}\", \"seconds_per_iteration\": {:e}}}{}\n",
            r.size,
            r.edges,
            json_escape(&r.backend),
            r.seconds_per_iteration,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    if meta.is_empty() {
        out.push_str("  ]\n}\n");
    } else {
        out.push_str("  ],\n  \"meta\": {\n");
        for (i, (k, v)) in meta.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {:e}{}\n",
                json_escape(k),
                v,
                if i + 1 == meta.len() { "" } else { "," }
            ));
        }
        out.push_str("  }\n}\n");
    }
    out
}

/// Builds the two standard JSON rows (CPU model + GPU model) for one
/// [`GpuRow`] of a figure sweep.
pub fn gpu_row_json(row: &GpuRow) -> [BenchJsonRow; 2] {
    [
        BenchJsonRow {
            size: row.size,
            edges: row.edges,
            backend: "cpu-model".into(),
            seconds_per_iteration: row.cpu_s_per_iter,
        },
        BenchJsonRow {
            size: row.size,
            edges: row.edges,
            backend: "gpusim".into(),
            seconds_per_iteration: row.gpu_s_per_iter,
        },
    ]
}

/// Builds a degree-imbalanced consensus problem that static per-thread
/// ranges handle badly: `hubs` hub variables, **all at the front of the
/// variable order**, each connected to `hub_degree` leaf variables by
/// degree-2 quadratic factors. A static z-update partition gives the
/// first worker every hub (its z work is `hub_degree`× a leaf worker's),
/// so Barrier workers straggle exactly as the paper's conclusion
/// describes; chunk-claiming backends rebalance.
pub fn imbalanced_problem(hubs: usize, hub_degree: usize) -> AdmmProblem {
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};
    let mut b = GraphBuilder::new(1);
    // Hubs first: clusters the heavy z-updates into the lowest variable
    // indices, the worst case for a contiguous static split.
    let hub_vars = b.add_vars(hubs);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for (h, &hub) in hub_vars.iter().enumerate() {
        for l in 0..hub_degree {
            let leaf = b.add_var();
            b.add_factor(&[hub, leaf]);
            let t = ((h * hub_degree + l) as f64 * 0.13).sin();
            proxes.push(Box::new(QuadraticProx::isotropic(2, 1.0, &[t, -t])));
        }
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

/// Result of one [`worksteal_ablation`] problem: the measured JSON rows
/// plus the numbers the acceptance checks care about.
#[derive(Debug, Clone)]
pub struct WorkstealAblation {
    /// One row per backend (`serial`, `rayon`, `barrier`, `worksteal`,
    /// `auto:<selected>`).
    pub rows: Vec<BenchJsonRow>,
    /// Measured barrier seconds per iteration.
    pub barrier_s: f64,
    /// Measured work-stealing seconds per iteration.
    pub worksteal_s: f64,
    /// Backend name [`AutoBackend`] locked in. (The probe's own report
    /// always ranks this candidate first by construction, so the
    /// meaningful acceptance number is
    /// [`WorkstealAblation::auto_measured_ratio`], not anything derived
    /// from the probe.)
    pub auto_selected: String,
    /// Names of the candidates auto's probe measured, in probe order —
    /// every name [`WorkstealAblation::auto_selected`] can take.
    pub auto_probed: Vec<String>,
    /// Auto's independently measured steady-state s/iter divided by the
    /// best independently measured candidate s/iter. This is the honest
    /// "auto never costs more than 1.1× the best backend" check: it
    /// catches a probe that mispicked on its short warmup, which the
    /// probe's own report cannot. When [`WorkstealAblation::auto_selected`]
    /// equals [`WorkstealAblation::best_measured`], any excess over 1.0 is
    /// pure run-to-run noise between two measurements of the same backend.
    pub auto_measured_ratio: f64,
    /// Name of the backend with the best independently measured s/iter.
    pub best_measured: String,
}

/// Measures serial / rayon / barrier / worksteal plus [`AutoBackend`]'s
/// pick on `problem`, labelling rows with `size`. Every backend runs
/// through [`measure_backend_s_per_iter`] three times with the same
/// `min_seconds` budget, keeping the **minimum** — timing noise on a
/// shared machine is strictly additive, so min-of-repeats estimates each
/// backend's true floor and keeps the cross-backend ratios honest.
/// `threads` configures all parallel candidates.
pub fn worksteal_ablation(
    problem: &AdmmProblem,
    size: usize,
    threads: usize,
    min_seconds: f64,
) -> WorkstealAblation {
    const REPEATS: usize = 3;
    let min_of_repeats = |b: &mut dyn SweepExecutor| {
        (0..REPEATS)
            .map(|_| measure_backend_s_per_iter(problem, b, min_seconds))
            .fold(f64::INFINITY, f64::min)
    };
    let edges = problem.graph().num_edges();
    let row = |backend: String, s: f64| BenchJsonRow {
        size,
        edges,
        backend,
        seconds_per_iteration: s,
    };
    let mut rows = Vec::new();
    let mut backends: Vec<Box<dyn SweepExecutor>> = vec![
        Box::new(SerialBackend),
        Box::new(RayonBackend::new(Some(threads))),
        Box::new(BarrierBackend::new(threads)),
        Box::new(WorkStealingBackend::new(threads)),
    ];
    let mut by_name = std::collections::HashMap::new();
    for backend in backends.iter_mut() {
        let s = min_of_repeats(backend.as_mut());
        by_name.insert(backend.name(), s);
        rows.push(row(backend.name().to_string(), s));
    }

    let mut auto = AutoBackend::new(threads);
    let auto_s = min_of_repeats(&mut auto);
    let selected = auto.selected().expect("measurement triggers the probe");
    rows.push(row(format!("auto:{selected}"), auto_s));
    let (best_measured_name, best_measured_s) = by_name
        .iter()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(&name, &s)| (name, s))
        .expect("four backends measured");

    WorkstealAblation {
        rows,
        barrier_s: by_name["barrier"],
        worksteal_s: by_name["worksteal"],
        auto_selected: selected.to_string(),
        auto_probed: auto
            .probe_report()
            .iter()
            .map(|&(name, _)| name.to_string())
            .collect(),
        auto_measured_ratio: auto_s / best_measured_s,
        best_measured: best_measured_name.to_string(),
    }
}

/// One backend's fused-vs-unfused measurement in a [`FusedAblation`].
#[derive(Debug, Clone)]
pub struct FusedPoint {
    /// Backend label (`serial`, `barrier`, `worksteal`).
    pub backend: String,
    /// Min-of-repeats s/iter under the default fused three-pass plan.
    pub fused_s: f64,
    /// Min-of-repeats s/iter under the explicit unfused five-pass plan
    /// (the seed schedule).
    pub unfused_s: f64,
}

/// Result of [`fused_ablation`]: the SweepPlan fusion ablation on one
/// problem.
#[derive(Debug, Clone)]
pub struct FusedAblation {
    /// One row per (backend, plan) pair, named `<backend>[fused]` /
    /// `<backend>[unfused]`, plus `barrier[planned]` for the
    /// measured-cost planner. Labels carry no thread count — the worker
    /// count is host configuration, and the perf gate matches rows by
    /// name across hosts.
    pub rows: Vec<BenchJsonRow>,
    /// Flat metrics: per-backend `*_fused_speedup` (unfused ÷ fused, > 1
    /// means fusion won) and the two plans' barrier counts.
    pub meta: Vec<(String, f64)>,
    /// The per-backend measurements.
    pub points: Vec<FusedPoint>,
    /// Serial fused s/iter — the family-level acceptance number (serial
    /// is the least noisy backend, so the fused ≤ unfused check uses it).
    pub serial_fused_s: f64,
    /// Serial unfused s/iter.
    pub serial_unfused_s: f64,
    /// Measured-cost planner's plan on the barrier backend (weighted
    /// splits + measured chunks), for comparison against the uniform
    /// fused plan's `barrier[t]` row.
    pub barrier_planned_s: f64,
    /// Barriers per iteration under the fused / unfused plans.
    pub barriers: (usize, usize),
}

/// Measures serial / barrier / work-stealing s/iter under the default
/// fused plan vs the explicit unfused (seed) plan — min-of-`3`
/// repetitions through [`measure_backend_s_per_iter`], like every other
/// ablation harness — plus the measured-cost [`Planner`] plan on the
/// barrier backend. The problem's installed plan is restored to the
/// default on return.
pub fn fused_ablation(
    problem: &mut AdmmProblem,
    size: usize,
    threads: usize,
    min_seconds: f64,
) -> FusedAblation {
    const REPEATS: usize = 3;
    let edges = problem.graph().num_edges();
    let barriers = (
        SweepPlan::fused(problem).barriers_per_iteration(),
        SweepPlan::unfused(problem).barriers_per_iteration(),
    );
    let row = |backend: String, s: f64| BenchJsonRow {
        size,
        edges,
        backend,
        seconds_per_iteration: s,
    };

    let mut rows = Vec::new();
    let mut meta = Vec::new();
    let mut points = Vec::new();
    type BackendFactory = Box<dyn Fn() -> Box<dyn SweepExecutor>>;
    let backends: Vec<(String, BackendFactory)> = vec![
        ("serial".to_string(), Box::new(|| Box::new(SerialBackend))),
        (
            "barrier".to_string(),
            Box::new(move || Box::new(BarrierBackend::new(threads))),
        ),
        (
            "worksteal".to_string(),
            Box::new(move || Box::new(WorkStealingBackend::new(threads))),
        ),
    ];
    let min_of_repeats = |problem: &AdmmProblem, b: &mut dyn SweepExecutor| {
        (0..REPEATS)
            .map(|_| measure_backend_s_per_iter(problem, b, min_seconds))
            .fold(f64::INFINITY, f64::min)
    };

    let mut serial_fused_s = 0.0;
    let mut serial_unfused_s = 0.0;
    for (name, make) in &backends {
        problem.clear_plan(); // default fused three-pass schedule
        let fused_s = min_of_repeats(problem, make().as_mut());
        problem.set_plan(SweepPlan::unfused(problem));
        let unfused_s = min_of_repeats(problem, make().as_mut());
        rows.push(row(format!("{name}[fused]"), fused_s));
        rows.push(row(format!("{name}[unfused]"), unfused_s));
        meta.push((format!("{name}_fused_speedup"), unfused_s / fused_s));
        if name == "serial" {
            serial_fused_s = fused_s;
            serial_unfused_s = unfused_s;
        }
        points.push(FusedPoint {
            backend: name.clone(),
            fused_s,
            unfused_s,
        });
    }

    // The measured-cost planner: per-operator timings → weighted splits
    // and measured chunk sizes, exercised on the static-split backend
    // that benefits from them.
    let planned = Planner::new().plan(problem);
    problem.set_plan(planned);
    let barrier_planned_s = min_of_repeats(problem, &mut BarrierBackend::new(threads));
    rows.push(row("barrier[planned]".to_string(), barrier_planned_s));
    problem.clear_plan();

    meta.push(("barriers_per_iter_fused".to_string(), barriers.0 as f64));
    meta.push(("barriers_per_iter_unfused".to_string(), barriers.1 as f64));
    FusedAblation {
        rows,
        meta,
        points,
        serial_fused_s,
        serial_unfused_s,
        barrier_planned_s,
        barriers,
    }
}

/// Builds an MPC-like chain of `n` pairwise quadratic factors — the
/// graph family that splits across shards with an O(1) halo.
pub fn chain_problem(n: usize) -> AdmmProblem {
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};
    let mut b = GraphBuilder::new(4);
    let vs = b.add_vars(n + 1);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for i in 0..n {
        b.add_factor(&[vs[i], vs[i + 1]]);
        let t = (i as f64 * 0.19).sin();
        proxes.push(Box::new(QuadraticProx::isotropic(8, 1.0, &[t; 8])));
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

/// Builds a packing-like all-pairs problem over `n` variables — the
/// graph family whose halo is essentially every variable, the worst case
/// for sharding.
pub fn all_pairs_problem(n: usize) -> AdmmProblem {
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};
    let mut b = GraphBuilder::new(2);
    let vs = b.add_vars(n);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            b.add_factor(&[vs[i], vs[j]]);
            proxes.push(Box::new(QuadraticProx::isotropic(
                4,
                1.0,
                &[i as f64 * 0.01, 0.0, j as f64 * 0.01, 0.0],
            )));
        }
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

/// Result of [`simd_ablation`]: the kernel-specialization × locality
/// ablation on one problem.
#[derive(Debug, Clone)]
pub struct SimdAblation {
    /// One row per (dispatch, ordering) cell, named `serial[scalar]`,
    /// `serial[simd]`, `serial[scalar+rcm]`, `serial[simd+rcm]`. Serial
    /// backend only — the ablation isolates kernel and layout effects
    /// from scheduling noise, and the perf gate matches rows by name.
    pub rows: Vec<BenchJsonRow>,
    /// Flat metrics: full-iteration `simd_speedup` / `rcm_speedup`,
    /// per-kernel `kernel_speedup_*` (scalar ÷ specialized per-item
    /// cost), per-kernel `*_gbps_simd` / `*_gbps_scalar` effective
    /// throughput, and the `fold_span_*` locality figures.
    pub meta: Vec<(String, f64)>,
    /// Serial s/iter, scalar dispatch, natural order.
    pub scalar_s: f64,
    /// Serial s/iter, specialized dispatch, natural order.
    pub simd_s: f64,
    /// Serial s/iter, specialized dispatch, RCM order.
    pub rcm_simd_s: f64,
    /// Aggregate element-wise speedup: total measured scalar kernel time
    /// per iteration ÷ total specialized time (m+z+u+n, item-weighted).
    /// The acceptance check reads this rather than the full-iteration
    /// ratio, which dilutes the kernels with prox time on operator-heavy
    /// families (x dominates MPC, for instance).
    pub elementwise_speedup: f64,
    /// Per-kernel scalar ÷ specialized per-item cost, in m, z, u, n order.
    pub kernel_speedups: [f64; 4],
}

/// `num / den`, zero when the denominator is degenerate (keeps the bench
/// JSON free of NaN/inf).
fn safe_ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Measures the serial backend's s/iter over the 2×2 grid
/// {scalar, specialized kernel dispatch} × {natural, RCM order} —
/// min-of-`3` repetitions through [`measure_backend_s_per_iter`], like
/// every other ablation harness — plus [`Planner::measure`]'s per-kernel
/// per-item costs under both dispatch modes, turned into per-kernel
/// speedups and effective GB/s.
///
/// Consumes the problem: [`AdmmProblem::reordered`] moves the proximal
/// operators into the RCM layout. The global kernel dispatch is restored
/// to the engine default ([`KernelDispatch::Specialized`]) on return;
/// flipping it mid-measurement never changes any iterate (both paths are
/// bit-identical — `tests/` pin this), only throughput.
pub fn simd_ablation(problem: AdmmProblem, size: usize, min_seconds: f64) -> SimdAblation {
    const REPEATS: usize = 3;
    let g = problem.graph();
    let edges = g.num_edges();
    let (nv, ne, d) = (g.num_vars(), g.num_edges(), g.dims());
    let mean_deg = if nv == 0 { 0.0 } else { ne as f64 / nv as f64 };
    let row = |backend: &str, s: f64| BenchJsonRow {
        size,
        edges,
        backend: backend.to_string(),
        seconds_per_iteration: s,
    };
    let min_of_repeats = |problem: &AdmmProblem| {
        (0..REPEATS)
            .map(|_| measure_backend_s_per_iter(problem, &mut SerialBackend, min_seconds))
            .fold(f64::INFINITY, f64::min)
    };

    let rcm = Reordering::rcm(g);
    let fold_span_natural = Reordering::identity(g).fold_span(g);
    let fold_span_rcm = rcm.fold_span(g);

    set_kernel_dispatch(KernelDispatch::Scalar);
    let scalar_s = min_of_repeats(&problem);
    let costs_scalar = Planner::new().measure(&problem);
    set_kernel_dispatch(KernelDispatch::Specialized);
    let simd_s = min_of_repeats(&problem);
    let costs_simd = Planner::new().measure(&problem);

    let reordered = problem.reordered(&rcm);
    set_kernel_dispatch(KernelDispatch::Scalar);
    let rcm_scalar_s = min_of_repeats(&reordered);
    set_kernel_dispatch(KernelDispatch::Specialized); // engine default
    let rcm_simd_s = min_of_repeats(&reordered);

    // Per-item measured costs → per-kernel speedups and effective GB/s.
    // Byte counts mirror `paradmm_core::diagnostics`: doubles each kernel
    // body touches per item (m 3d, z deg·(d+1)+2d at mean degree, u 4d,
    // n 3d), not cache-line traffic.
    let per_item =
        |c: &paradmm_core::SweepCosts| [c.m_per_edge, c.z_per_var, c.u_per_edge, c.n_per_edge];
    let sc = per_item(&costs_scalar);
    let sp = per_item(&costs_simd);
    let kernel_speedups = [
        safe_ratio(sc[0], sp[0]),
        safe_ratio(sc[1], sp[1]),
        safe_ratio(sc[2], sp[2]),
        safe_ratio(sc[3], sp[3]),
    ];
    let items = [ne as f64, nv as f64, ne as f64, ne as f64];
    let iter_total = |c: &[f64; 4]| {
        c.iter()
            .zip(items.iter())
            .map(|(per, n)| per * n)
            .sum::<f64>()
    };
    let elementwise_speedup = safe_ratio(iter_total(&sc), iter_total(&sp));
    let bytes_per_item = [
        (3 * d * 8) as f64,
        (mean_deg * (d + 1) as f64 + (2 * d) as f64) * 8.0,
        (4 * d * 8) as f64,
        (3 * d * 8) as f64,
    ];

    let rows = vec![
        row("serial[scalar]", scalar_s),
        row("serial[simd]", simd_s),
        row("serial[scalar+rcm]", rcm_scalar_s),
        row("serial[simd+rcm]", rcm_simd_s),
    ];
    let mut meta: Vec<(String, f64)> = vec![
        ("simd_speedup".to_string(), safe_ratio(scalar_s, simd_s)),
        (
            "simd_speedup_rcm".to_string(),
            safe_ratio(rcm_scalar_s, rcm_simd_s),
        ),
        ("rcm_speedup".to_string(), safe_ratio(simd_s, rcm_simd_s)),
        ("elementwise_simd_speedup".to_string(), elementwise_speedup),
        ("fold_span_natural".to_string(), fold_span_natural),
        ("fold_span_rcm".to_string(), fold_span_rcm),
    ];
    for (i, kernel) in ["m", "z", "u", "n"].iter().enumerate() {
        meta.push((format!("kernel_speedup_{kernel}"), kernel_speedups[i]));
        meta.push((
            format!("{kernel}_gbps_simd"),
            safe_ratio(bytes_per_item[i], sp[i]) / 1e9,
        ));
        meta.push((
            format!("{kernel}_gbps_scalar"),
            safe_ratio(bytes_per_item[i], sc[i]) / 1e9,
        ));
    }

    SimdAblation {
        rows,
        meta,
        scalar_s,
        simd_s,
        rcm_simd_s,
        elementwise_speedup,
        kernel_speedups,
    }
}

/// One shard count's measurements in a [`ShardedAblation`].
#[derive(Debug, Clone)]
pub struct ShardedPoint {
    /// Number of shards (and of barrier-backend threads it is compared
    /// against).
    pub parts: usize,
    /// Measured sharded seconds per iteration (min of repeats).
    pub sharded_s: f64,
    /// Measured barrier seconds per iteration at the same thread count.
    pub barrier_s: f64,
    /// Halo bytes per iteration the backend actually moved.
    pub measured_bytes: f64,
    /// Halo bytes per iteration [`MultiDevice`] predicts from the shared
    /// exchange plan on the same partition.
    pub predicted_bytes: f64,
    /// Partition quality metrics for the grown partition.
    pub stats: PartitionStats,
}

/// Result of one [`sharded_ablation`] problem: JSON rows, partition-
/// quality meta entries, and the per-shard-count numbers the acceptance
/// checks read.
#[derive(Debug, Clone)]
pub struct ShardedAblation {
    /// One row per `(backend, shard count)` pair.
    pub rows: Vec<BenchJsonRow>,
    /// Flat meta scalars (`<label>/parts=<p>/<metric>`) for the bench
    /// JSON: halo variables, cut edges, edge balance, measured and
    /// predicted exchange bytes.
    pub meta: Vec<(String, f64)>,
    /// Measurements per shard count, in the order requested.
    pub points: Vec<ShardedPoint>,
}

/// Measures the sharded [`StaleBoundedBackend`] (`k = 0`, the executor
/// `sharded:N` builds) against [`BarrierBackend`] on `problem`
/// at every shard count in `shard_counts`, comparing the exchange volume
/// the sharded run actually moves against the [`MultiDevice`] model's
/// prediction on the *same* grown partition. Min-of-`REPEATS`
/// measurements, like [`worksteal_ablation`].
pub fn sharded_ablation(
    problem: &AdmmProblem,
    label: &str,
    size: usize,
    shard_counts: &[usize],
    min_seconds: f64,
) -> ShardedAblation {
    const REPEATS: usize = 3;
    let min_of_repeats = |b: &mut dyn SweepExecutor| {
        (0..REPEATS)
            .map(|_| measure_backend_s_per_iter(problem, b, min_seconds))
            .fold(f64::INFINITY, f64::min)
    };
    let g = problem.graph();
    let edges = g.num_edges();
    let mut rows = Vec::new();
    let mut meta = Vec::new();
    let mut points = Vec::new();
    for &parts in shard_counts {
        let partition = Partition::grow(g, parts);
        let stats = PartitionStats::compute(g, &partition);
        let predicted = MultiDevice::k40s(parts.max(1)).predicted_exchange_bytes(g, &partition);

        let mut sharded = StaleBoundedBackend::with_partition(partition, 0);
        let sharded_s = min_of_repeats(&mut sharded);
        let measured = if sharded.iterations() > 0 {
            sharded.measured_halo_bytes() as f64 / sharded.iterations() as f64
        } else {
            0.0
        };
        let mut barrier = BarrierBackend::new(parts);
        let barrier_s = min_of_repeats(&mut barrier);

        rows.push(BenchJsonRow {
            size,
            edges,
            backend: format!("{label}/sharded[{parts}]"),
            seconds_per_iteration: sharded_s,
        });
        rows.push(BenchJsonRow {
            size,
            edges,
            backend: format!("{label}/barrier[{parts}]"),
            seconds_per_iteration: barrier_s,
        });
        let key = |metric: &str| format!("{label}/parts={parts}/{metric}");
        meta.push((key("halo_vars"), stats.halo_vars as f64));
        meta.push((key("cut_edges"), stats.cut_edges as f64));
        meta.push((key("edge_balance"), stats.edge_balance));
        meta.push((key("measured_halo_bytes"), measured));
        meta.push((key("predicted_halo_bytes"), predicted as f64));
        points.push(ShardedPoint {
            parts,
            sharded_s,
            barrier_s,
            measured_bytes: measured,
            predicted_bytes: predicted as f64,
            stats,
        });
    }
    ShardedAblation { rows, meta, points }
}

/// One staleness point of [`async_ablation`].
#[derive(Debug, Clone, Copy)]
pub struct AsyncPoint {
    /// Staleness bound `k` (0 = synchronous-equivalent).
    pub k: usize,
    /// Measured seconds per iteration at this bound.
    pub stale_s: f64,
    /// Iterations to reach the tolerance (== `max_iters` if it never
    /// converged within the budget).
    pub iters_to_tol: usize,
    /// `stale_s * iters_to_tol`: the number the staleness trade-off is
    /// judged on — stale iterates are cheaper but may need more of them.
    pub time_to_tol: f64,
    /// Largest halo-read staleness the run actually observed (≤ `k`).
    pub max_skew: usize,
}

/// Result of one [`async_ablation`] problem.
#[derive(Debug, Clone)]
pub struct AsyncAblation {
    /// One row per staleness bound plus the barrier/sharded floors.
    pub rows: Vec<BenchJsonRow>,
    /// Per-k convergence/skew metadata for the BENCH json.
    pub meta: Vec<(String, f64)>,
    /// One point per requested `k`.
    pub points: Vec<AsyncPoint>,
    /// Barrier backend floor at the same thread count (s/iter).
    pub barrier_s: f64,
    /// Sharded (barrier-free but synchronous) floor (s/iter).
    pub sharded_s: f64,
}

/// Iterations `backend` needs to reach `stopping`'s tolerance from
/// zeros, checking residuals on the stopping schedule. Returns
/// `stopping.max_iters` when the budget runs out first.
pub fn iterations_to_tolerance(
    problem: &AdmmProblem,
    backend: &mut dyn SweepExecutor,
    stopping: &StoppingCriteria,
) -> usize {
    use paradmm_core::Residuals;
    let mut store = VarStore::zeros(problem.graph());
    let mut t = UpdateTimings::new();
    let n_components = problem.graph().num_edges() * problem.graph().dims();
    let ce = stopping.check_every.max(1);
    let mut done = 0usize;
    while done < stopping.max_iters {
        let block = ce.min(stopping.max_iters - done);
        backend.run_block(problem, &mut store, block, &mut t);
        done += block;
        let r = Residuals::compute(problem.graph(), problem.params(), &store);
        if r.converged(n_components, stopping.eps_abs, stopping.eps_rel) {
            return done;
        }
    }
    stopping.max_iters
}

/// Convergence-vs-staleness sweep: measures the bounded-staleness
/// backend at each `k` against the barrier and sharded synchronous
/// floors at the same worker count, and counts the iterations each
/// bound needs to hit `stopping`'s tolerance. `k = 0` is the
/// bit-identical sanity anchor; `k ≥ 1` trades iterate freshness for
/// never waiting at the halo exchange, which pays exactly on problems
/// whose shards straggle (e.g. [`imbalanced_problem`]).
pub fn async_ablation(
    problem: &AdmmProblem,
    label: &str,
    size: usize,
    parts: usize,
    ks: &[usize],
    min_seconds: f64,
    stopping: &StoppingCriteria,
) -> AsyncAblation {
    const REPEATS: usize = 3;
    let min_of_repeats = |b: &mut dyn SweepExecutor| {
        (0..REPEATS)
            .map(|_| measure_backend_s_per_iter(problem, b, min_seconds))
            .fold(f64::INFINITY, f64::min)
    };
    let edges = problem.graph().num_edges();
    let mut rows = Vec::new();
    let mut meta = Vec::new();
    let mut points = Vec::new();

    let barrier_s = min_of_repeats(&mut BarrierBackend::new(parts));
    let sharded_s = min_of_repeats(&mut StaleBoundedBackend::new(parts, 0));
    rows.push(BenchJsonRow {
        size,
        edges,
        backend: format!("{label}/barrier[{parts}]"),
        seconds_per_iteration: barrier_s,
    });
    rows.push(BenchJsonRow {
        size,
        edges,
        backend: format!("{label}/sharded[{parts}]"),
        seconds_per_iteration: sharded_s,
    });

    for &k in ks {
        let mut backend = StaleBoundedBackend::new(parts, k);
        let stale_s = min_of_repeats(&mut backend);
        let iters_to_tol = iterations_to_tolerance(problem, &mut backend, stopping);
        let max_skew = backend.max_observed_skew();
        assert!(
            max_skew <= k,
            "{label}: observed skew {max_skew} above bound k={k}"
        );
        rows.push(BenchJsonRow {
            size,
            edges,
            backend: format!("{label}/stale[k={k},{parts}]"),
            seconds_per_iteration: stale_s,
        });
        let key = |metric: &str| format!("{label}/k={k}/{metric}");
        meta.push((key("iters_to_tol"), iters_to_tol as f64));
        meta.push((key("time_to_tol"), stale_s * iters_to_tol as f64));
        meta.push((key("max_skew"), max_skew as f64));
        points.push(AsyncPoint {
            k,
            stale_s,
            iters_to_tol,
            time_to_tol: stale_s * iters_to_tol as f64,
            max_skew,
        });
    }
    AsyncAblation {
        rows,
        meta,
        points,
        barrier_s,
        sharded_s,
    }
}

/// A proximal operator whose cost is controlled by a shared phase knob:
/// heavy when the knob's parity matches `heavy_phase`, near-free
/// otherwise. Flipping the knob mid-run moves the expensive half of the
/// x-sweep from one end of the factor order to the other — the drifting
/// workload an online [`ReplanPolicy`](paradmm_core::ReplanPolicy) must
/// chase and a frozen measured plan cannot.
pub struct DriftingProx {
    dims: usize,
    heavy_phase: usize,
    heavy_spins: usize,
    phase: std::sync::Arc<std::sync::atomic::AtomicUsize>,
}

impl DriftingProx {
    /// Operator heavy when `phase % 2 == heavy_phase`, spinning
    /// `heavy_spins` dependent `sin` evaluations per activation.
    pub fn new(
        dims: usize,
        heavy_phase: usize,
        heavy_spins: usize,
        phase: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) -> Self {
        DriftingProx {
            dims,
            heavy_phase,
            heavy_spins,
            phase,
        }
    }
}

impl paradmm_prox::ProxOp for DriftingProx {
    fn prox(&self, ctx: &mut paradmm_prox::ProxCtx<'_>) {
        let heavy = self.phase.load(std::sync::atomic::Ordering::Relaxed) % 2 == self.heavy_phase;
        let spins = if heavy { self.heavy_spins } else { 4 };
        // Dependent chain of opaque libm calls: real, unskippable work.
        let mut acc = 0.1f64;
        for _ in 0..spins {
            acc = (acc + 0.7).sin();
        }
        std::hint::black_box(acc);
        // The actual operator is the identity (consensus average drives
        // convergence); cost, not math, is what this operator varies.
        ctx.copy_n_to_x();
        let _ = self.dims;
    }

    fn name(&self) -> &'static str {
        "drifting"
    }
}

/// Consensus problem of `factors` unary [`DriftingProx`] operators on a
/// shared variable chain: the first half is heavy in phase 0, the
/// second half in phase 1, so flipping `phase` migrates the entire
/// expensive region across the factor order.
pub fn drifting_problem(
    factors: usize,
    heavy_spins: usize,
    phase: std::sync::Arc<std::sync::atomic::AtomicUsize>,
) -> AdmmProblem {
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::ProxOp;
    let mut b = GraphBuilder::new(1);
    let vars = b.add_vars(factors);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for (i, &v) in vars.iter().enumerate() {
        b.add_factor(&[v]);
        let heavy_phase = usize::from(i >= factors / 2);
        proxes.push(Box::new(DriftingProx::new(
            1,
            heavy_phase,
            heavy_spins,
            phase.clone(),
        )));
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

/// Modeled per-iteration critical path of `plan` on `threads`
/// barrier-synchronized workers under the measured `costs`: for each
/// pass, the busiest worker's share (everyone waits for it at the
/// barrier), summed over passes.
///
/// This is the same device-model idiom the GPU ablations use
/// (`SimtDevice::kernel_time`): per-item costs are *measured* on the
/// real machine, only the parallel composition is modeled — so the
/// number reflects the schedule's balance even when the host cannot run
/// the workers truly concurrently (CI containers are often 1-core,
/// where every split has identical wall-clock).
pub fn modeled_makespan(
    problem: &AdmmProblem,
    plan: &SweepPlan,
    costs: &paradmm_core::SweepCosts,
    threads: usize,
) -> f64 {
    use paradmm_core::PassKind;
    use paradmm_graph::FactorId;
    let g = problem.graph();
    let mut total = 0.0f64;
    for pass in plan.passes() {
        let mut worst = 0.0f64;
        for tid in 0..threads {
            let (lo, hi) = pass.split(tid, threads);
            let span = (hi - lo) as f64;
            let share = match pass.kind() {
                PassKind::X => costs.factor_seconds[lo..hi].iter().sum(),
                PassKind::Xm => (lo..hi)
                    .map(|a| {
                        costs.factor_seconds[a]
                            + g.factor_degree(FactorId::from_usize(a)) as f64 * costs.m_per_edge
                    })
                    .sum(),
                PassKind::M => span * costs.m_per_edge,
                PassKind::Z => span * costs.z_per_var,
                PassKind::U => span * costs.u_per_edge,
                PassKind::N => span * costs.n_per_edge,
                PassKind::Un => span * (costs.u_per_edge + costs.n_per_edge),
            };
            worst = worst.max(share);
        }
        total += worst;
    }
    total
}

/// Result of [`replan_drift_ablation`]: frozen-plan vs online-replan
/// cost on the drifting-cost scenario.
#[derive(Debug, Clone)]
pub struct ReplanDriftAblation {
    /// Modeled parallel seconds (per-block critical path × iterations)
    /// for the post-drift run under the frozen (stale) plan.
    pub frozen_s: f64,
    /// Same model with the [`ReplanPolicy`](paradmm_core::ReplanPolicy)
    /// active, **plus** the online run's real re-measurement overhead —
    /// the replans must pay for themselves.
    pub online_s: f64,
    /// `frozen_s / online_s` — the acceptance number (≥ 1.1 expected).
    pub speedup: f64,
    /// Replans the online run actually installed after its baseline.
    pub replans: usize,
    /// JSON rows (`drift/frozen`, `drift/online`).
    pub rows: Vec<BenchJsonRow>,
}

/// The drifting-cost replan scenario: compile a measured (weighted)
/// plan, then flip the cost knob so the expensive half of the x-sweep
/// migrates. The frozen run keeps executing the now-wrong static split
/// (one worker owns nearly every heavy operator); the online run
/// re-measures on the [`ReplanPolicy`](paradmm_core::ReplanPolicy)
/// cadence, detects the drift, and re-splits. Both runs execute the
/// same `iters` post-drift iterations on a [`BarrierBackend`] with
/// `threads` workers; the reported seconds are the
/// [`modeled_makespan`] of whichever plan was live in each block
/// (measured per-factor costs, modeled parallel composition), plus —
/// for the online run — the real wall-clock cost of its re-measures.
pub fn replan_drift_ablation(
    factors: usize,
    heavy_spins: usize,
    threads: usize,
    iters: usize,
) -> ReplanDriftAblation {
    use paradmm_core::{ReplanPolicy, ReplanState};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    let blocks = 8usize;
    let per_block = (iters / blocks).max(1);
    let run = |online: bool| -> (f64, usize) {
        let phase = Arc::new(AtomicUsize::new(0));
        let mut problem = drifting_problem(factors, heavy_spins, phase.clone());
        let planner = Planner::new();
        // Cadence 2, threshold 0.5: the flip registers ≈ 2.0 drift (the
        // entire heavy mass migrates), while repeat measures of an
        // unchanged phase jitter well below 0.5 — no churn.
        let policy = ReplanPolicy::new(2, 0.5);
        let mut state = ReplanState::default();
        // Compile the pre-drift measured plan — for the online run via
        // the policy itself (installing its cost baseline), for the
        // frozen run directly.
        if online {
            state.blocks_seen = policy.every_blocks - 1;
            let installed = policy.maybe_replan(&mut state, &mut problem);
            assert!(installed.is_some(), "first measurement must install");
        } else {
            let costs = planner.measure(&problem);
            problem.set_plan(planner.plan_from_costs(&problem, &costs));
        }
        let mut backend = BarrierBackend::new(threads);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(&problem, &mut store, 2, &mut t); // warm-up
                                                            // The ramp: operator costs flip mid-run.
        phase.store(1, Ordering::SeqCst);
        // Ground-truth post-flip costs for the makespan model, measured
        // once up front (outside either run's accounted time).
        let truth = planner.measure(&problem);
        let mut modeled = 0.0f64;
        let mut overhead = 0.0f64;
        for _ in 0..blocks {
            let plan = problem.plan().expect("measured plan installed").clone();
            modeled += per_block as f64 * modeled_makespan(&problem, &plan, &truth, threads);
            backend.run_block(&problem, &mut store, per_block, &mut t);
            if online {
                let s = Instant::now();
                if let Some(costs) = policy.maybe_replan(&mut state, &mut problem) {
                    backend.repartition(&problem, &costs);
                }
                overhead += s.elapsed().as_secs_f64();
            }
        }
        (modeled + overhead, state.replans)
    };

    let (frozen_s, _) = run(false);
    let (online_s, replans) = run(true);
    let total = (blocks * per_block) as f64;
    let rows = vec![
        BenchJsonRow {
            size: factors,
            edges: factors,
            backend: "drift/frozen".into(),
            seconds_per_iteration: frozen_s / total,
        },
        BenchJsonRow {
            size: factors,
            edges: factors,
            backend: "drift/online".into(),
            seconds_per_iteration: online_s / total,
        },
    ];
    ReplanDriftAblation {
        frozen_s,
        online_s,
        speedup: frozen_s / online_s.max(1e-12),
        replans,
        rows,
    }
}

/// `n` small independent MPC instances (dims = 5): horizons cycle
/// through `base_horizon .. base_horizon+4` (mixed sizes, so batched
/// early-exit freezing has stragglers) and each instance gets its own
/// deterministic initial state — one pendulum per user.
pub fn many_mpc(n: usize, base_horizon: usize) -> Vec<AdmmProblem> {
    use paradmm_mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.37;
            let mut cfg = MpcConfig::new(base_horizon + (i % 5));
            cfg.q0 = [
                0.1 + 0.05 * t.sin(),
                0.02 * t.cos(),
                0.05 - 0.03 * (1.3 * t).sin(),
                0.01 * (0.7 * t).cos(),
            ];
            let (_, admm) = MpcProblem::build(cfg, paper_plant());
            admm
        })
        .collect()
}

/// `n` small independent 4×4 Sudoku instances (dims = 4): each blanks a
/// different 5-cell pattern of one solved base grid — one puzzle per
/// request.
pub fn many_sudoku(n: usize) -> Vec<AdmmProblem> {
    use paradmm_sudoku::{Grid, SudokuConfig, SudokuProblem};
    const BASE: [u8; 16] = [1, 2, 3, 4, 3, 4, 1, 2, 2, 1, 4, 3, 4, 3, 2, 1];
    (0..n)
        .map(|i| {
            let mut cells = BASE.to_vec();
            for k in 0..5usize {
                cells[(i * 7 + k * 3) % 16] = 0;
            }
            let grid = Grid::new(2, cells);
            let (_, admm) = SudokuProblem::build(&grid, &SudokuConfig::default());
            admm
        })
        .collect()
}

/// `n` independent MPC instances (dims = 5) with a **long-tail**
/// horizon distribution: most instances are short (horizons 5–20), a
/// deterministic minority stretches toward 200 — the heterogeneous
/// regime where a pack-wide barrier would let one big instance stall
/// the whole fleet. Reused by the fleet ablation and the equivalence
/// tests.
pub fn mixed_fleet_mpc(n: usize) -> Vec<AdmmProblem> {
    use paradmm_mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
    (0..n)
        .map(|i| {
            let horizon = match i % 7 {
                0 => 40 + (i * 23) % 161, // the tail: 40..=200
                1 | 2 => 12 + (i * 5) % 9,
                _ => 5 + i % 7, // the bulk: 5..=11
            };
            let t = i as f64 * 0.37;
            let mut cfg = MpcConfig::new(horizon);
            cfg.q0 = [
                0.1 + 0.05 * t.sin(),
                0.02 * t.cos(),
                0.05 - 0.03 * (1.3 * t).sin(),
                0.01 * (0.7 * t).cos(),
            ];
            let (_, admm) = MpcProblem::build(cfg, paper_plant());
            admm
        })
        .collect()
}

/// `n` independent instances mixing circle packing (dims = 2) and SVM
/// (dims = 3) at long-tail sizes. The mixed `dims` makes the fleet
/// **unfusable**: [`BatchSolver`] rejects it outright, so this is the
/// fleet scheduler's headline scenario — only unfused per-instance
/// execution can serve it at all. Deterministic (seeded per instance).
pub fn mixed_fleet_pack_svm(n: usize) -> Vec<AdmmProblem> {
    use paradmm_packing::{PackingConfig, PackingProblem};
    use paradmm_svm::{gaussian_mixture, SvmConfig, SvmProblem};
    use rand::SeedableRng as _;
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                let circles = if i % 8 == 0 {
                    40 + (i * 13) % 111 // the tail
                } else {
                    6 + i % 10
                };
                PackingProblem::build(PackingConfig::new(circles)).1
            } else {
                let points = if i % 9 == 1 {
                    200 + (i * 31) % 301 // the tail
                } else {
                    20 + i % 30
                };
                let mut rng = rand::rngs::StdRng::seed_from_u64(1000 + i as u64);
                let data = gaussian_mixture(points, 2, 4.0, &mut rng);
                SvmProblem::build(&data, SvmConfig::default()).1
            }
        })
        .collect()
}

/// Result of one [`batch_throughput`] scenario: JSON rows + meta, the
/// three measured throughputs, and the acceptance numbers.
///
/// The JSON rows reuse the standard schema with `seconds_per_iteration`
/// holding **seconds per instance solve** (wall / N) for each path —
/// the batch figure is a throughput figure, and the true
/// instances-per-second numbers live in the `"meta"` object under
/// `<label>/*_instances_per_sec` keys.
#[derive(Debug, Clone)]
pub struct BatchThroughput {
    /// One row per execution path (`batched[...]`, `solo[...]`,
    /// `solo[serial]`).
    pub rows: Vec<BenchJsonRow>,
    /// Flat meta scalars for the bench JSON (throughputs, speedups,
    /// bit-identity, convergence counts).
    pub meta: Vec<(String, f64)>,
    /// Number of instances per batch.
    pub instances: usize,
    /// Batched instances/second (min-of-repeats wall clock).
    pub batched_instances_per_sec: f64,
    /// Sequential solo instances/second on the *same* backend the batch
    /// used — the apples-to-apples baseline that isolates per-instance
    /// sweep-launch overhead.
    pub solo_same_instances_per_sec: f64,
    /// Sequential solo instances/second on [`SerialBackend`] — the
    /// single-core floor (no launch overhead to amortize).
    pub solo_serial_instances_per_sec: f64,
    /// `batched / solo-same-backend` throughput ratio (the acceptance
    /// number: packing must amortize the launch overhead).
    pub speedup_vs_solo_same: f64,
    /// `batched / solo-serial` throughput ratio (informational; on a
    /// single-core host this hovers near 1, on multicore it approaches
    /// the core count).
    pub speedup_vs_solo_serial: f64,
    /// Whether every batched instance's final state matched its solo
    /// serial solve bit-for-bit (iterates *and* iteration counts).
    pub bit_identical: bool,
    /// Instances that converged within the budget (same count for
    /// batched and solo, by bit-identity).
    pub converged: usize,
}

/// Measures batched vs sequential-solo throughput on one scenario.
///
/// `make` rebuilds the instance set (problems are not cloneable — the
/// proximal operators are boxed trait objects), `backend` names the
/// backend under test for both the batched path and the solo
/// same-backend path, and `stopping`/`max_iters` drive every path
/// identically so the three measurements solve exactly the same
/// iterations. Each path is measured `REPEATS` times keeping the
/// **minimum** wall-clock (timing noise is additive, as in
/// [`worksteal_ablation`]); bit-identity against solo serial is checked
/// once, untimed.
pub fn batch_throughput(
    make: &dyn Fn() -> Vec<AdmmProblem>,
    label: &str,
    size: usize,
    backend: BackendSpec,
    stopping: StoppingCriteria,
    max_iters: usize,
) -> BatchThroughput {
    const REPEATS: usize = 3;
    let options = SolverOptions {
        backend,
        stopping,
        ..SolverOptions::default()
    };
    let serial_options = SolverOptions {
        backend: BackendSpec::Serial,
        stopping,
        ..SolverOptions::default()
    };

    let probe = make();
    let instances = probe.len();
    assert!(instances > 0, "scenario produced no instances");
    let total_edges: usize = probe.iter().map(|p| p.graph().num_edges()).sum();
    let backend_name = backend.to_backend().name();
    drop(probe);

    let min_wall =
        |run: &dyn Fn() -> f64| (0..REPEATS).map(|_| run()).fold(f64::INFINITY, f64::min);

    // Batched: one fused solve through the backend, freezing included.
    let batched_s = min_wall(&|| {
        let mut solver = BatchSolver::new(make(), options);
        let t0 = Instant::now();
        solver.run(max_iters);
        t0.elapsed().as_secs_f64()
    });
    // Sequential solo on the same backend: one full solve per instance,
    // each paying its own backend launch per block.
    let solo_with = |opts: SolverOptions| {
        let problems = make();
        let t0 = Instant::now();
        for p in problems {
            let mut solver = Solver::from_problem(p, opts);
            solver.run(max_iters);
        }
        t0.elapsed().as_secs_f64()
    };
    let solo_same_s = min_wall(&|| solo_with(options));
    let solo_serial_s = min_wall(&|| solo_with(serial_options));

    // Bit-identity + convergence accounting (untimed).
    let mut batch = BatchSolver::new(make(), options);
    let report = batch.run(max_iters);
    let mut bit_identical = true;
    for (i, p) in make().into_iter().enumerate() {
        let mut solo = Solver::from_problem(p, serial_options);
        let solo_report = solo.run(max_iters);
        bit_identical &= solo_report.iterations == report.instances[i].iterations
            && batch.store(i).z == solo.store().z
            && batch.store(i).x == solo.store().x
            && batch.store(i).u == solo.store().u
            && batch.store(i).n == solo.store().n;
    }
    let converged = report.converged_count();

    let ips = |wall: f64| instances as f64 / wall;
    let (batched_ips, solo_same_ips, solo_serial_ips) =
        (ips(batched_s), ips(solo_same_s), ips(solo_serial_s));
    let row = |backend: String, wall: f64| BenchJsonRow {
        size,
        edges: total_edges,
        backend,
        seconds_per_iteration: wall / instances as f64,
    };
    let rows = vec![
        row(format!("{label}/batched[{backend_name}]"), batched_s),
        row(format!("{label}/solo[{backend_name}]"), solo_same_s),
        row(format!("{label}/solo[serial]"), solo_serial_s),
    ];
    let key = |metric: &str| format!("{label}/{metric}");
    let meta = vec![
        (key("batched_instances_per_sec"), batched_ips),
        (key("solo_same_backend_instances_per_sec"), solo_same_ips),
        (key("solo_serial_instances_per_sec"), solo_serial_ips),
        (
            key("speedup_vs_solo_same_backend"),
            batched_ips / solo_same_ips,
        ),
        (key("speedup_vs_solo_serial"), batched_ips / solo_serial_ips),
        (key("bit_identical"), f64::from(bit_identical)),
        (key("converged_instances"), converged as f64),
    ];
    BatchThroughput {
        rows,
        meta,
        instances,
        batched_instances_per_sec: batched_ips,
        solo_same_instances_per_sec: solo_same_ips,
        solo_serial_instances_per_sec: solo_serial_ips,
        speedup_vs_solo_same: batched_ips / solo_same_ips,
        speedup_vs_solo_serial: batched_ips / solo_serial_ips,
        bit_identical,
        converged,
    }
}

/// Result of one [`fleet_ablation`] scenario: JSON rows + meta, the
/// measured throughputs of every path, the acceptance ratios, and the
/// assist telemetry from the untimed verification run.
///
/// As in [`BatchThroughput`], rows reuse the standard schema with
/// `seconds_per_iteration` holding seconds per instance solve
/// (wall / N); the true throughputs live in the meta under
/// `<label>/*_instances_per_sec` keys (which the compare gate treats as
/// higher-is-better).
#[derive(Debug, Clone)]
pub struct FleetAblation {
    /// One row per execution path (`fleet`, `batched[...]`,
    /// `solo[...]`, `solo[serial]`).
    pub rows: Vec<BenchJsonRow>,
    /// Flat meta scalars for the bench JSON.
    pub meta: Vec<(String, f64)>,
    /// Instances in the fleet.
    pub instances: usize,
    /// Work-assisting fleet instances/second (min-of-repeats).
    pub fleet_instances_per_sec: f64,
    /// Block-diagonal batch instances/second on the same worker count;
    /// `None` when the fleet mixes `dims` and cannot be fused at all.
    pub batch_instances_per_sec: Option<f64>,
    /// Sequential solo instances/second on the same parallel backend
    /// (work-stealing, same worker count).
    pub solo_same_instances_per_sec: f64,
    /// Sequential solo instances/second on [`SerialBackend`].
    pub solo_serial_instances_per_sec: f64,
    /// `fleet / batch` throughput ratio (when batching applies).
    pub speedup_vs_batch: Option<f64>,
    /// `fleet / solo-same-backend` throughput ratio (the acceptance
    /// number: assisting must beat per-instance sequential launches).
    pub speedup_vs_solo_same: f64,
    /// `fleet / solo-serial` throughput ratio (informational).
    pub speedup_vs_solo_serial: f64,
    /// Whether every fleet instance's final state, iteration count, and
    /// stop reason matched its solo serial solve bit-for-bit.
    pub bit_identical: bool,
    /// Instances that converged within the budget.
    pub converged: usize,
    /// Assist migrations observed in the untimed verification run.
    pub migrations: u64,
    /// Empty assist scans observed in the untimed verification run.
    pub idle_spins: u64,
}

/// Measures work-assisting fleet throughput against sequential-solo and
/// (when the fleet is fusable) block-diagonal batch on one scenario.
///
/// `make` rebuilds the instance set each run (problems are not
/// cloneable), `threads` is the worker count given identically to the
/// fleet, the batch backend (work-stealing), and the solo same-backend
/// path, and `stopping`/`max_iters` drive every path identically. Each
/// path is measured `REPEATS` times keeping the minimum wall-clock;
/// bit-identity against solo serial (iterates, iteration counts, *and*
/// stop reasons) is checked once, untimed, on a run that also collects
/// the assist telemetry. Pass `batchable = false` for fleets that mix
/// `dims` — [`BatchSolver`] rejects those, which is precisely the
/// fleet scheduler's point.
pub fn fleet_ablation(
    make: &dyn Fn() -> Vec<AdmmProblem>,
    label: &str,
    size: usize,
    threads: usize,
    batchable: bool,
    stopping: StoppingCriteria,
    max_iters: usize,
) -> FleetAblation {
    const REPEATS: usize = 3;
    let fleet_options = SolverOptions {
        backend: BackendSpec::Fleet {
            threads: Some(threads),
        },
        stopping,
        ..SolverOptions::default()
    };
    let ws_options = SolverOptions {
        backend: BackendSpec::WorkSteal {
            threads: Some(threads),
        },
        stopping,
        ..SolverOptions::default()
    };
    let serial_options = SolverOptions {
        backend: BackendSpec::Serial,
        stopping,
        ..SolverOptions::default()
    };

    let probe = make();
    let instances = probe.len();
    assert!(instances > 0, "scenario produced no instances");
    let total_edges: usize = probe.iter().map(|p| p.graph().num_edges()).sum();
    drop(probe);

    let min_wall =
        |run: &dyn Fn() -> f64| (0..REPEATS).map(|_| run()).fold(f64::INFINITY, f64::min);

    // Fleet: all instances advance together, workers assist.
    let fleet_s = min_wall(&|| {
        let mut solver = FleetSolver::new(make(), fleet_options);
        let t0 = Instant::now();
        solver.run(max_iters);
        t0.elapsed().as_secs_f64()
    });
    // Block-diagonal batch on the same worker count (when fusable).
    let batch_s = batchable.then(|| {
        min_wall(&|| {
            let mut solver = BatchSolver::new(make(), ws_options);
            let t0 = Instant::now();
            solver.run(max_iters);
            t0.elapsed().as_secs_f64()
        })
    });
    // Sequential solo: one full solve per instance.
    let solo_with = |opts: SolverOptions| {
        let problems = make();
        let t0 = Instant::now();
        for p in problems {
            let mut solver = Solver::from_problem(p, opts);
            solver.run(max_iters);
        }
        t0.elapsed().as_secs_f64()
    };
    let solo_same_s = min_wall(&|| solo_with(ws_options));
    let solo_serial_s = min_wall(&|| solo_with(serial_options));

    // Bit-identity + convergence + telemetry (untimed).
    let mut fleet = FleetSolver::new(make(), fleet_options);
    let report = fleet.run(max_iters);
    let mut bit_identical = true;
    for (i, p) in make().into_iter().enumerate() {
        let mut solo = Solver::from_problem(p, serial_options);
        let solo_report = solo.run(max_iters);
        bit_identical &= solo_report.iterations == report.instances[i].iterations
            && solo_report.stop_reason == report.instances[i].stop_reason
            && fleet.store(i).z == solo.store().z
            && fleet.store(i).x == solo.store().x
            && fleet.store(i).u == solo.store().u
            && fleet.store(i).n == solo.store().n;
    }
    let converged = report.converged_count();
    let migrations = fleet.diagnostics().total_migrations();
    let idle_spins = fleet.diagnostics().total_idle_spins();

    let ips = |wall: f64| instances as f64 / wall;
    let fleet_ips = ips(fleet_s);
    let batch_ips = batch_s.map(ips);
    let solo_same_ips = ips(solo_same_s);
    let solo_serial_ips = ips(solo_serial_s);
    let row = |backend: String, wall: f64| BenchJsonRow {
        size,
        edges: total_edges,
        backend,
        seconds_per_iteration: wall / instances as f64,
    };
    let mut rows = vec![row(format!("{label}/fleet[{threads}t]"), fleet_s)];
    if let Some(s) = batch_s {
        rows.push(row(format!("{label}/batched[worksteal]"), s));
    }
    rows.push(row(format!("{label}/solo[worksteal]"), solo_same_s));
    rows.push(row(format!("{label}/solo[serial]"), solo_serial_s));

    let key = |metric: &str| format!("{label}/{metric}");
    let mut meta = vec![
        (key("fleet_instances_per_sec"), fleet_ips),
        (key("solo_same_backend_instances_per_sec"), solo_same_ips),
        (key("solo_serial_instances_per_sec"), solo_serial_ips),
        (
            key("speedup_vs_solo_same_backend"),
            fleet_ips / solo_same_ips,
        ),
        (key("speedup_vs_solo_serial"), fleet_ips / solo_serial_ips),
        (key("bit_identical"), f64::from(bit_identical)),
        (key("converged_instances"), converged as f64),
        (key("assist_migrations"), migrations as f64),
        (key("assist_idle_spins"), idle_spins as f64),
    ];
    if let Some(b) = batch_ips {
        meta.push((key("batch_instances_per_sec"), b));
        meta.push((key("speedup_vs_batch"), fleet_ips / b));
    }
    FleetAblation {
        rows,
        meta,
        instances,
        fleet_instances_per_sec: fleet_ips,
        batch_instances_per_sec: batch_ips,
        solo_same_instances_per_sec: solo_same_ips,
        solo_serial_instances_per_sec: solo_serial_ips,
        speedup_vs_batch: batch_ips.map(|b| fleet_ips / b),
        speedup_vs_solo_same: fleet_ips / solo_same_ips,
        speedup_vs_solo_serial: fleet_ips / solo_serial_ips,
        bit_identical,
        converged,
        migrations,
        idle_spins,
    }
}

/// Names of the five update kinds in order, for table headers.
pub const KIND_LABELS: [&str; 5] = ["x", "m", "z", "u", "n"];

/// Returns all five kinds in order.
pub fn kinds() -> [UpdateKind; 5] {
    UpdateKind::ALL
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn tiny_problem(n: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(1);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for _ in 0..n {
            let v = b.add_var();
            b.add_factor(&[v]);
            proxes.push(Box::new(QuadraticProx::isotropic(1, 1.0, &[1.0])));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    #[test]
    fn measurement_returns_positive_time() {
        let p = tiny_problem(100);
        let s = measure_serial_s_per_iter(&p, 0.01);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn calibration_scale_positive() {
        let p = tiny_problem(500);
        let cal = calibrate(&p, &CpuModel::opteron_6300(), 0.01);
        assert!(cal.scale > 0.0);
        assert!(cal.measured_s_per_iter > 0.0);
        assert!(cal.modeled_s_per_iter > 0.0);
    }

    #[test]
    fn gpu_row_fields_consistent() {
        let p = tiny_problem(2000);
        let row = gpu_row(
            &p,
            2000,
            &SimtDevice::tesla_k40(),
            &CpuModel::opteron_6300(),
            1.0,
            false,
        );
        assert_eq!(row.size, 2000);
        assert_eq!(row.edges, 2000);
        assert!(row.speedup > 0.0);
        let fsum: f64 = row.gpu_fraction.iter().sum();
        assert!((fsum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cpu_row_single_core_speedup_is_one() {
        let p = tiny_problem(1000);
        let row = cpu_row(&p, 1000, &CpuModel::opteron_6300(), 1.0, 1);
        assert!((row.speedup - 1.0).abs() < 1e-12);
    }

    #[test]
    fn backend_measurement_works_for_parallel_backends() {
        let p = tiny_problem(200);
        let mut backend = paradmm_core::RayonBackend::new(Some(2));
        let s = measure_backend_s_per_iter(&p, &mut backend, 0.01);
        assert!(s > 0.0 && s < 1.0);
    }

    #[test]
    fn imbalanced_problem_shape() {
        let p = imbalanced_problem(4, 10);
        let g = p.graph();
        assert_eq!(g.num_vars(), 4 + 40);
        assert_eq!(g.num_factors(), 40);
        assert_eq!(g.num_edges(), 80);
        // Hubs sit at the front with heavy degree.
        assert_eq!(g.var_degree(paradmm_graph::VarId(0)), 10);
        assert_eq!(g.var_degree(paradmm_graph::VarId(4)), 1);
    }

    /// Tiny-size smoke of the work-stealing ablation — the same code path
    /// `ablation_worksteal` runs at full size, so the bin can't bit-rot.
    /// CI runs this under `cargo test --release`.
    #[test]
    fn worksteal_ablation_smoke() {
        let p = imbalanced_problem(6, 8);
        let r = worksteal_ablation(&p, 6, 2, 0.002);
        assert_eq!(r.rows.len(), 5, "serial/rayon/barrier/worksteal/auto");
        assert!(r.rows.iter().all(|x| x.seconds_per_iteration > 0.0));
        assert!(r.barrier_s > 0.0 && r.worksteal_s > 0.0);
        assert!(
            r.auto_probed.contains(&r.auto_selected),
            "auto selected {} outside its probe report {:?}",
            r.auto_selected,
            r.auto_probed
        );
        // Measured ratio is noise-prone at smoke sizes — only sanity-check
        // it here; the full-size bin run enforces the 1.1× bound.
        assert!(
            r.auto_measured_ratio.is_finite() && r.auto_measured_ratio > 0.0,
            "auto measured ratio {} not a sane measurement",
            r.auto_measured_ratio
        );
        assert!(
            ["serial", "rayon", "barrier", "worksteal"].contains(&r.best_measured.as_str()),
            "best measured backend {} unknown",
            r.best_measured
        );
        let doc = bench_json_string("worksteal_smoke", &r.rows);
        assert!(doc.contains("\"backend\": \"worksteal\""));
        assert!(doc.contains("auto:"));
    }

    /// Tiny-size smoke of the sharded ablation — the same code path
    /// `ablation_sharded` runs at full size, so the bin can't bit-rot.
    /// CI runs this under `cargo test --release`.
    #[test]
    fn sharded_ablation_smoke() {
        let p = chain_problem(24);
        let r = sharded_ablation(&p, "mpc_chain", 24, &[1, 2], 0.002);
        assert_eq!(r.rows.len(), 4, "sharded+barrier at two shard counts");
        assert!(r.rows.iter().all(|x| x.seconds_per_iteration > 0.0));
        assert_eq!(r.points.len(), 2);
        for pt in &r.points {
            assert!(pt.sharded_s > 0.0 && pt.barrier_s > 0.0);
            if pt.parts == 1 {
                assert_eq!(pt.measured_bytes, 0.0);
                assert_eq!(pt.predicted_bytes, 0.0);
            } else {
                // Executed exchange volume must track the model's
                // prediction from the shared plan (10% acceptance bound;
                // exact equality is expected).
                assert!(pt.predicted_bytes > 0.0);
                assert!(
                    (pt.measured_bytes - pt.predicted_bytes).abs() <= 0.1 * pt.predicted_bytes,
                    "measured {} vs predicted {}",
                    pt.measured_bytes,
                    pt.predicted_bytes
                );
                assert!(pt.stats.halo_vars > 0);
                assert!(pt.stats.cut_edges >= pt.stats.halo_vars);
            }
        }
        let doc = bench_json_string_with_meta("sharded_smoke", &r.rows, &r.meta);
        assert!(doc.contains("\"mpc_chain/sharded[2]\""));
        assert!(doc.contains("\"meta\""));
        assert!(doc.contains("mpc_chain/parts=2/halo_vars"));
    }

    /// Tiny-size smoke of the staleness sweep — the same code path the
    /// `ablation_async` bin runs at full size. CI runs this under
    /// `cargo test --release`.
    #[test]
    fn async_ablation_smoke() {
        let p = imbalanced_problem(4, 7);
        let stopping = StoppingCriteria {
            max_iters: 400,
            eps_abs: 1e-6,
            eps_rel: 1e-4,
            check_every: 20,
        };
        let r = async_ablation(&p, "hub", 4, 2, &[0, 1, 2], 0.002, &stopping);
        assert_eq!(r.rows.len(), 5, "barrier + sharded + three k points");
        assert!(r.rows.iter().all(|x| x.seconds_per_iteration > 0.0));
        assert_eq!(r.points.len(), 3);
        assert!(r.barrier_s > 0.0 && r.sharded_s > 0.0);
        for pt in &r.points {
            assert!(pt.stale_s > 0.0);
            assert!(pt.max_skew <= pt.k, "skew {} above k={}", pt.max_skew, pt.k);
            // Every bound must actually converge within the budget —
            // the staleness trade-off is time, never correctness.
            assert!(
                pt.iters_to_tol < stopping.max_iters,
                "k={} never converged",
                pt.k
            );
            assert!(pt.time_to_tol > 0.0);
        }
        let doc = bench_json_string_with_meta("async_smoke", &r.rows, &r.meta);
        assert!(doc.contains("\"hub/stale[k=1,2]\""));
        assert!(doc.contains("hub/k=1/iters_to_tol"));
    }

    /// Smoke of the drifting-cost replan scenario: both runs finish and
    /// the online run detects the drift. (The ≥1.1× speedup bound is
    /// enforced by the full-size bin run, not at smoke sizes.)
    #[test]
    fn replan_drift_smoke() {
        let r = replan_drift_ablation(16, 400, 2, 64);
        assert!(r.frozen_s > 0.0 && r.online_s > 0.0);
        assert!(r.speedup.is_finite() && r.speedup > 0.0);
        assert!(
            r.replans >= 1,
            "online run must detect the mid-run cost flip"
        );
        assert_eq!(r.rows.len(), 2);
    }

    /// The drifting operator's cost really moves with the knob: the
    /// measured x-pass cost profile shifts its heavy half when the
    /// phase flips, which is what the drift detector keys on.
    #[test]
    fn drifting_problem_costs_follow_the_knob() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let phase = Arc::new(AtomicUsize::new(0));
        let problem = drifting_problem(8, 3000, phase.clone());
        let planner = Planner::new();
        let before = planner.measure(&problem);
        phase.store(1, Ordering::SeqCst);
        let after = planner.measure(&problem);
        let half: f64 = before.factor_seconds[..4].iter().sum();
        let other: f64 = before.factor_seconds[4..].iter().sum();
        assert!(half > other, "phase 0 must weight the first half");
        let half_after: f64 = after.factor_seconds[..4].iter().sum();
        let other_after: f64 = after.factor_seconds[4..].iter().sum();
        assert!(other_after > half_after, "phase 1 must weight the second");
        assert!(
            after.drift(&before) > 0.25,
            "the flip must register as drift: {}",
            after.drift(&before)
        );
    }

    /// Tiny-size smoke of the fused-plan ablation — the same code path
    /// `fused_ablation` (the bin) runs at full size, so it can't bit-rot.
    /// CI runs this under `cargo test --release`.
    #[test]
    fn fused_ablation_smoke() {
        let mut p = chain_problem(24);
        let r = fused_ablation(&mut p, 24, 2, 0.002);
        assert_eq!(
            r.rows.len(),
            7,
            "3 backends × fused/unfused + barrier[planned]"
        );
        assert!(r.rows.iter().all(|x| x.seconds_per_iteration > 0.0));
        assert_eq!(r.points.len(), 3);
        assert!(r.serial_fused_s > 0.0 && r.serial_unfused_s > 0.0);
        assert!(r.barrier_planned_s > 0.0);
        // The structural claim is exact regardless of timing noise: the
        // fused plan costs 3 synchronization points, the seed schedule 5.
        assert_eq!(r.barriers, (3, 5));
        assert!(p.plan().is_none(), "harness must restore the default plan");
        let doc = bench_json_string_with_meta("fused_smoke", &r.rows, &r.meta);
        assert!(doc.contains("\"serial[fused]\""));
        assert!(doc.contains("\"barrier[planned]\""));
        assert!(doc.contains("serial_fused_speedup"));
        assert!(doc.contains("barriers_per_iter_fused"));
    }

    /// Tiny-size smoke of the SIMD/layout ablation — the same code path
    /// `ablation_simd` (the bin) runs at full size, so it can't bit-rot.
    /// CI runs this under `cargo test --release`.
    #[test]
    fn simd_ablation_smoke() {
        let p = chain_problem(24);
        let r = simd_ablation(p, 24, 0.002);
        assert_eq!(r.rows.len(), 4, "2 dispatch modes × 2 orderings");
        assert!(r.rows.iter().all(|x| x.seconds_per_iteration > 0.0));
        assert!(r.scalar_s > 0.0 && r.simd_s > 0.0 && r.rcm_simd_s > 0.0);
        assert!(r.elementwise_speedup > 0.0);
        assert!(r.kernel_speedups.iter().all(|&s| s > 0.0));
        assert!(
            matches!(
                paradmm_core::kernel_dispatch(),
                paradmm_core::KernelDispatch::Specialized
            ),
            "harness must restore the default dispatch"
        );
        let doc = bench_json_string_with_meta("simd_smoke", &r.rows, &r.meta);
        assert!(doc.contains("\"serial[scalar]\""));
        assert!(doc.contains("\"serial[simd+rcm]\""));
        assert!(doc.contains("simd_speedup"));
        assert!(doc.contains("elementwise_simd_speedup"));
        assert!(doc.contains("kernel_speedup_z"));
        assert!(doc.contains("m_gbps_simd"));
        assert!(doc.contains("fold_span_rcm"));
    }

    /// Tiny-size smoke of the batch-throughput harness — the same code
    /// path `throughput_batch` runs at full size, so the bin can't
    /// bit-rot. CI runs this under `cargo test --release`.
    #[test]
    fn batch_throughput_smoke() {
        let stopping = StoppingCriteria {
            max_iters: 400,
            eps_abs: 1e-6,
            eps_rel: 1e-4,
            check_every: 25,
        };
        let r = batch_throughput(
            &|| many_mpc(6, 3),
            "many_mpc",
            6,
            BackendSpec::WorkSteal { threads: Some(2) },
            stopping,
            400,
        );
        assert_eq!(r.instances, 6);
        assert_eq!(r.rows.len(), 3, "batched + solo-same + solo-serial");
        assert!(r.rows.iter().all(|x| x.seconds_per_iteration > 0.0));
        assert!(
            r.bit_identical,
            "batched iterates must match solo serial bit-for-bit"
        );
        assert!(r.batched_instances_per_sec > 0.0);
        assert!(r.speedup_vs_solo_same.is_finite() && r.speedup_vs_solo_same > 0.0);
        let doc = bench_json_string_with_meta("batch_smoke", &r.rows, &r.meta);
        assert!(doc.contains("many_mpc/batched[worksteal]"));
        assert!(doc.contains("many_mpc/batched_instances_per_sec"));
        assert!(doc.contains("many_mpc/bit_identical"));
    }

    /// Tiny-size smoke of the fleet-ablation harness — the same code
    /// path `ablation_fleet` runs at full size, so the bin can't
    /// bit-rot. CI runs this under `cargo test --release`.
    #[test]
    fn fleet_ablation_smoke() {
        let stopping = StoppingCriteria {
            max_iters: 400,
            eps_abs: 1e-6,
            eps_rel: 1e-4,
            check_every: 25,
        };
        let r = fleet_ablation(
            &|| mixed_fleet_mpc(6),
            "mixed_mpc",
            6,
            2,
            true,
            stopping,
            400,
        );
        assert_eq!(r.instances, 6);
        assert_eq!(r.rows.len(), 4, "fleet + batched + solo-same + solo-serial");
        assert!(r.rows.iter().all(|x| x.seconds_per_iteration > 0.0));
        assert!(
            r.bit_identical,
            "fleet iterates must match solo serial bit-for-bit"
        );
        assert!(r.fleet_instances_per_sec > 0.0);
        assert!(r.batch_instances_per_sec.unwrap() > 0.0);
        assert!(r.speedup_vs_batch.unwrap().is_finite());
        assert!(r.speedup_vs_solo_same.is_finite() && r.speedup_vs_solo_same > 0.0);
        let doc = bench_json_string_with_meta("fleet_smoke", &r.rows, &r.meta);
        assert!(doc.contains("mixed_mpc/fleet[2t]"));
        assert!(doc.contains("mixed_mpc/fleet_instances_per_sec"));
        assert!(doc.contains("mixed_mpc/speedup_vs_batch"));
        assert!(doc.contains("mixed_mpc/bit_identical"));

        // The unfusable mixed-dims fleet: batch path skipped entirely.
        let r2 = fleet_ablation(
            &|| mixed_fleet_pack_svm(4),
            "mixed_pack_svm",
            4,
            2,
            false,
            stopping,
            400,
        );
        assert_eq!(r2.rows.len(), 3, "no batched row without fusion");
        assert!(r2.batch_instances_per_sec.is_none());
        assert!(r2.bit_identical);
    }

    #[test]
    fn fleet_scenario_generators_have_expected_shape() {
        let mpc = mixed_fleet_mpc(14);
        assert_eq!(mpc.len(), 14);
        assert!(mpc.iter().all(|p| p.graph().dims() == 5));
        let edges: Vec<usize> = mpc.iter().map(|p| p.graph().num_edges()).collect();
        let max = *edges.iter().max().unwrap();
        let mean = edges.iter().sum::<usize>() as f64 / edges.len() as f64;
        assert!(
            max as f64 > 2.0 * mean,
            "long tail expected: max {max} vs mean {mean}"
        );
        // Deterministic: same call, same fleet.
        let again: Vec<usize> = mixed_fleet_mpc(14)
            .iter()
            .map(|p| p.graph().num_edges())
            .collect();
        assert_eq!(edges, again);

        let mixed = mixed_fleet_pack_svm(8);
        assert_eq!(mixed.len(), 8);
        let dims: Vec<usize> = mixed.iter().map(|p| p.graph().dims()).collect();
        assert!(dims.contains(&2) && dims.contains(&3), "dims = {dims:?}");
    }

    #[test]
    fn batch_scenario_generators_have_expected_shape() {
        let mpc = many_mpc(7, 4);
        assert_eq!(mpc.len(), 7);
        assert!(mpc.iter().all(|p| p.graph().dims() == 5));
        // Horizons cycle, so sizes are mixed.
        let edges: Vec<usize> = mpc.iter().map(|p| p.graph().num_edges()).collect();
        assert!(edges.windows(2).any(|w| w[0] != w[1]), "sizes must mix");

        let sudoku = many_sudoku(5);
        assert_eq!(sudoku.len(), 5);
        assert!(sudoku.iter().all(|p| p.graph().dims() == 4));
        // 16 cells + 12 group factors (4 rows + 4 cols + 4 boxes).
        assert!(sudoku.iter().all(|p| p.graph().num_vars() == 16));
        assert!(sudoku.iter().all(|p| p.graph().num_factors() == 12 + 16));
    }

    #[test]
    fn out_path_plumbing_resolves_files_and_dirs() {
        let tmp = std::env::temp_dir().join(format!("paradmm_bench_out_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&tmp);
        let rows = vec![BenchJsonRow {
            size: 1,
            edges: 1,
            backend: "serial".into(),
            seconds_per_iteration: 1.0,
        }];
        // Explicit file path, parent auto-created.
        let file = tmp.join("nested").join("custom.json");
        let got = write_bench_json_to(Some(&file), "figx", &rows).unwrap();
        assert_eq!(got, file);
        assert!(got.is_file());
        // Existing directory: default file name inside it.
        let got2 = write_bench_json_to(Some(&tmp), "figx", &rows).unwrap();
        assert_eq!(got2, tmp.join("BENCH_figx.json"));
        assert!(got2.is_file());
        assert_eq!(
            std::fs::read_to_string(&got).unwrap(),
            std::fs::read_to_string(&got2).unwrap()
        );
        let _ = std::fs::remove_dir_all(&tmp);
    }

    #[test]
    fn problem_generators_have_expected_shape() {
        let chain = chain_problem(10);
        assert_eq!(chain.graph().num_factors(), 10);
        assert_eq!(chain.graph().num_edges(), 20);
        let dense = all_pairs_problem(6);
        assert_eq!(dense.graph().num_factors(), 15);
        assert_eq!(dense.graph().num_vars(), 6);
    }

    #[test]
    fn bench_json_is_well_formed() {
        let rows = vec![
            BenchJsonRow {
                size: 100,
                edges: 420,
                backend: "cpu-model".into(),
                seconds_per_iteration: 1.25e-4,
            },
            BenchJsonRow {
                size: 100,
                edges: 420,
                backend: "gpusim".into(),
                seconds_per_iteration: 2.5e-5,
            },
        ];
        let doc = bench_json_string("fig99_test", &rows);
        assert!(doc.starts_with("{\n"));
        assert!(doc.trim_end().ends_with('}'));
        assert!(doc.contains("\"figure\": \"fig99_test\""));
        assert!(doc.contains("\"backend\": \"gpusim\""));
        assert!(doc.contains("\"seconds_per_iteration\": 2.5e-5"));
        // Exactly one trailing comma between the two rows, none after the
        // last (the strictness JSON parsers care about).
        assert_eq!(doc.matches("},").count(), 1);
    }

    #[test]
    fn json_escaping_handles_quotes_and_controls() {
        let row = BenchJsonRow {
            size: 1,
            edges: 1,
            backend: "we\"ird\\name\n".into(),
            seconds_per_iteration: 1.0,
        };
        let doc = bench_json_string("f", &[row]);
        assert!(doc.contains(r#"we\"ird\\name\u000a"#));
    }
}

//! Throughput — batched multi-instance serving vs sequential solo
//! solves.
//!
//! The paper saturates hardware with five sweeps over one *large*
//! factor-graph; a serving workload is many *small* independent
//! instances, where each solo solve pays the backend's sweep-launch
//! overhead (thread spawns and barriers here, kernel launches on a real
//! device) over and over. `BatchSolver` packs the instances into one
//! block-diagonal fused store and launches the sweeps **once per
//! batch**, with per-instance residual tracking and early-exit freezing
//! — this binary measures what that amortization buys.
//!
//! Unlike the `fig*` and `ablation_*` binaries, the metric here is
//! **instances/second**, not seconds/iteration. Three paths per
//! scenario, all solving the identical iterations (min-of-3 wall
//! clock):
//!
//! * `batched[<backend>]` — one fused solve with freezing;
//! * `solo[<backend>]` — the same backend, one full solve per instance
//!   (the apples-to-apples baseline that isolates launch overhead);
//! * `solo[serial]` — the single-core floor, no launches to amortize.
//!
//! Scenarios: `many_mpc` (64 pendulum-MPC horizons, mixed sizes) and
//! `many_sudoku` (32 4×4 puzzles). Flags: `--smoke` (tiny sizes, CI),
//! `--threads N`, `--out <path>`.
//!
//! Emits `BENCH_batch.json` (rows = seconds per instance solve; meta =
//! instances/sec, speedups, bit-identity) and prints PASS/FAIL for the
//! acceptance checks: per-instance iterates bit-identical to solo
//! serial solves everywhere, and batched ≥ 3× solo-same-backend
//! instances/sec on the MPC scenario (≥ 1.5× on Sudoku, whose
//! permutation proxes leave less launch overhead to amortize).

use paradmm_bench::{
    batch_throughput, many_mpc, many_sudoku, parse_out_value, print_table,
    write_bench_json_with_meta_to, BatchThroughput,
};
use paradmm_core::{BackendSpec, StoppingCriteria};

struct Args {
    smoke: bool,
    threads: usize,
    out: Option<std::path::PathBuf>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        threads: 2,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--threads" => {
                args.threads = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&t| t >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--threads needs a positive integer");
                        std::process::exit(2);
                    });
            }
            "--out" => args.out = Some(parse_out_value(&mut it)),
            "--help" | "-h" => {
                println!(
                    "flags: --smoke (tiny sizes for CI), --threads N (worker count, default 2), --out <path> (BENCH json destination)"
                );
                std::process::exit(0);
            }
            other => {
                eprintln!("unknown flag {other}; try --help");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let backend = BackendSpec::WorkSteal {
        threads: Some(args.threads),
    };
    // Identical stopping for every path: looser-than-default tolerances
    // keep small-instance solves in the hundreds of iterations so the
    // bench measures serving throughput, not asymptotic polish.
    let mpc_stopping = StoppingCriteria {
        max_iters: 3000,
        eps_abs: 1e-6,
        eps_rel: 1e-4,
        check_every: 25,
    };
    let sudoku_stopping = StoppingCriteria {
        max_iters: 1500,
        eps_abs: 1e-6,
        eps_rel: 1e-4,
        check_every: 50,
    };
    let (mpc_n, mpc_h, sudoku_n) = if args.smoke {
        (12usize, 3usize, 6usize)
    } else {
        (64, 4, 32)
    };

    let scenarios: Vec<(&str, BatchThroughput, f64)> = vec![
        (
            "many_mpc",
            batch_throughput(
                &|| many_mpc(mpc_n, mpc_h),
                "many_mpc",
                mpc_n,
                backend,
                mpc_stopping,
                mpc_stopping.max_iters,
            ),
            3.0,
        ),
        (
            "many_sudoku",
            batch_throughput(
                &|| many_sudoku(sudoku_n),
                "many_sudoku",
                sudoku_n,
                backend,
                sudoku_stopping,
                sudoku_stopping.max_iters,
            ),
            1.5,
        ),
    ];

    let mut table = Vec::new();
    let mut json_rows = Vec::new();
    let mut meta = Vec::new();
    let mut checks: Vec<(String, bool)> = Vec::new();
    for (label, r, speedup_bound) in &scenarios {
        for row in &r.rows {
            table.push(vec![
                row.backend.clone(),
                r.instances.to_string(),
                row.edges.to_string(),
                format!("{:.3e}", row.seconds_per_iteration),
            ]);
        }
        table.push(vec![
            format!("{label} instances/sec"),
            format!("batched {:.1}", r.batched_instances_per_sec),
            format!("solo-same {:.1}", r.solo_same_instances_per_sec),
            format!("solo-serial {:.1}", r.solo_serial_instances_per_sec),
        ]);
        json_rows.extend(r.rows.iter().cloned());
        meta.extend(r.meta.iter().cloned());
        checks.push((
            format!(
                "{label}: batched per-instance iterates bit-identical to solo serial \
                 ({}/{} converged)",
                r.converged, r.instances
            ),
            r.bit_identical,
        ));
        checks.push((
            format!(
                "{label}: batched {:.1} inst/s ≥ {speedup_bound}× solo-same-backend \
                 {:.1} inst/s (ratio {:.2})",
                r.batched_instances_per_sec, r.solo_same_instances_per_sec, r.speedup_vs_solo_same
            ),
            r.speedup_vs_solo_same >= *speedup_bound,
        ));
    }

    print_table(
        &format!(
            "Batched serving throughput ({} threads, worksteal backend): seconds per instance solve",
            args.threads
        ),
        &["path", "instances", "total_edges", "s_per_solve"],
        &table,
    );

    println!();
    let mut all_pass = true;
    for (msg, pass) in &checks {
        println!("# {}: {msg}", if *pass { "PASS" } else { "FAIL" });
        all_pass &= *pass;
    }

    match write_bench_json_with_meta_to(args.out.as_deref(), "batch", &json_rows, &meta) {
        Ok(path) => println!("# machine-readable series written to {}", path.display()),
        Err(e) => eprintln!("# failed to write BENCH json: {e}"),
    }
    if !all_pass && !args.smoke {
        // Smoke sizes are too tiny for stable throughput ratios; only
        // full-size runs enforce the speedup bounds. Bit-identity is
        // checked (and must hold) at every size — but a tiny-size FAIL
        // still prints above for debugging without failing CI twice.
        std::process::exit(1);
    }
    // Bit-identity is exact regardless of size: enforce it even in smoke.
    if checks
        .iter()
        .any(|(msg, pass)| !pass && msg.contains("bit-identical"))
    {
        std::process::exit(1);
    }
}

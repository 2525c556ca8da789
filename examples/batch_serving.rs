//! Batch serving: pack many small independent problems into one fused
//! store and solve them together through a single backend.
//!
//! A serving workload — one MPC horizon per user, one puzzle per
//! request — is the opposite shape of the paper's benchmarks: instead
//! of one large factor-graph, many tiny ones, where each solo solve
//! pays the backend's sweep-launch overhead over and over.
//! `BatchSolver` packs the instances block-diagonally (`BatchStore`),
//! launches the sweeps once per batch, tracks residuals **per
//! instance**, and freezes converged instances early so stragglers keep
//! the hardware to themselves. Each instance's iterates are
//! bit-identical to a solo serial solve.
//!
//! Run: `cargo run --release --example batch_serving [backend]` where
//! `backend` is a `BackendSpec` string (`serial`, `rayon:2`,
//! `worksteal:4`, `auto`, …); the default is `worksteal:2`.

use std::time::Instant;

use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::prelude::*;

fn build_instances(n: usize) -> Vec<(MpcProblem, AdmmProblem)> {
    (0..n)
        .map(|i| {
            let t = i as f64 * 0.37;
            // Every "user" flies the same pendulum from a different
            // state, over a different horizon.
            let mut cfg = MpcConfig::new(4 + (i % 5));
            cfg.q0 = [
                0.1 + 0.05 * t.sin(),
                0.02 * t.cos(),
                0.05 - 0.03 * (1.3 * t).sin(),
                0.01 * (0.7 * t).cos(),
            ];
            MpcProblem::build(cfg, paper_plant())
        })
        .collect()
}

fn main() {
    let spec = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "worksteal:2".into());
    let backend = match spec.parse::<BackendSpec>() {
        Ok(spec) => spec,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let n = 24;
    let options = SolverOptions {
        backend,
        stopping: StoppingCriteria {
            max_iters: 3000,
            eps_abs: 1e-6,
            eps_rel: 1e-4,
            check_every: 25,
        },
        ..SolverOptions::default()
    };

    // Batched: one fused solve, per-instance freezing.
    let (mpcs, problems): (Vec<_>, Vec<_>) = build_instances(n).into_iter().unzip();
    let mut batch = BatchSolver::new(problems, options);
    let t0 = Instant::now();
    let report = batch.run_default();
    let batched_s = t0.elapsed().as_secs_f64();

    println!("batched {n} MPC instances on `{}`:", batch.backend_name());
    for (i, (mpc, r)) in mpcs.iter().zip(&report.instances).enumerate() {
        let traj = mpc.extract(batch.store(i));
        println!(
            "  user {i:2}: horizon {:2}, {:4} iterations, {:?}, u(0) = {:+.4}",
            mpc.config().horizon,
            r.iterations,
            r.stop_reason,
            traj.inputs[0],
        );
    }
    println!(
        "  → {}/{} converged, {:.1} instances/sec (straggler ran {} iterations)",
        report.converged_count(),
        n,
        report.instances_per_second(),
        report.max_iterations(),
    );

    // The same work as sequential solo solves, for contrast.
    let (_, problems): (Vec<_>, Vec<_>) = build_instances(n).into_iter().unzip();
    let t0 = Instant::now();
    for p in problems {
        let mut solver = Solver::from_problem(p, options);
        solver.run_default();
    }
    let solo_s = t0.elapsed().as_secs_f64();
    println!(
        "sequential solo on the same backend: {:.1} instances/sec → batching bought {:.2}×",
        n as f64 / solo_s,
        solo_s / batched_s,
    );
}

//! Quickstart: solve a tiny consensus problem with the factor-graph ADMM.
//!
//! Minimizes `(s − 1)² + (s − 5)² + |s|` over a single scalar by wiring
//! three factors (two quadratics and an ℓ₁ term) to one variable node —
//! the smallest possible demonstration of the paper's workflow: build a
//! graph with `addNode`-style calls, supply serial proximal operators,
//! and let the engine iterate.
//!
//! Run: `cargo run --example quickstart`

use paradmm::prelude::*;

fn main() {
    // 1. Topology: one variable, three factors touching it.
    let mut builder = GraphBuilder::new(1);
    let s = builder.add_var();
    builder.add_factor(&[s]);
    builder.add_factor(&[s]);
    builder.add_factor(&[s]);
    let graph = builder.build();

    // 2. One proximal operator per factor (all closed-form, all serial).
    let proxes: Vec<Box<dyn ProxOp>> = vec![
        Box::new(QuadraticProx::isotropic(1, 2.0, &[1.0])), // (s−1)²
        Box::new(QuadraticProx::isotropic(1, 2.0, &[5.0])), // (s−5)²
        Box::new(L1Prox::new(1.0)),                         // |s|
    ];

    // 3. Solve. Swap `BackendSpec::Serial` for `BackendSpec::Rayon { threads:
    //    None }` and the same serial operators run data-parallel.
    let options = SolverOptions {
        backend: BackendSpec::Serial,
        rho: 1.0,
        alpha: 1.0,
        stopping: StoppingCriteria {
            max_iters: 2000,
            eps_abs: 1e-10,
            eps_rel: 1e-8,
            check_every: 10,
        },
    };
    let mut solver = Solver::new(graph, proxes, options);
    let report = solver.run_default();

    let z = solver.store().z_var(VarId(0))[0];
    println!(
        "stopped after {} iterations ({:?})",
        report.iterations, report.stop_reason
    );
    println!("update-time breakdown: {}", report.timings.breakdown());
    println!("minimizer z = {z:.6}");
    // Analytic optimum: d/ds [(s−1)² + (s−5)² + |s|] = 0 → s = 11/4.
    println!("analytic    = {:.6}", 11.0 / 4.0);
    assert!((z - 2.75).abs() < 1e-4, "should match the analytic optimum");
}

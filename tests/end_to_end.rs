//! Cross-crate integration tests: the full pipeline (problem construction
//! → engine → extraction) for all three paper domains, across all
//! schedulers and the simulated GPU.

use paradmm::core::{
    BackendSpec, SerialBackend, Solver, SolverOptions, StoppingCriteria, SweepExecutor,
    UpdateTimings,
};
use paradmm::gpusim::{GpuAdmmEngine, SimtDevice};
use paradmm::graph::VarStore;
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::packing::{PackingConfig, PackingProblem, Polygon};
use paradmm::svm::{gaussian_mixture, SvmConfig, SvmProblem};
use rand::SeedableRng;

#[test]
fn packing_all_schedulers_identical() {
    let solve = |backend| {
        let (sol, _) = PackingProblem::solve(PackingConfig::new(6), 300, 17, backend);
        sol
    };
    let serial = solve(BackendSpec::Serial);
    let rayon = solve(BackendSpec::Rayon { threads: Some(2) });
    let barrier = solve(BackendSpec::Barrier { threads: Some(3) });
    for i in 0..6 {
        assert_eq!(serial.disks[i].c, rayon.disks[i].c);
        assert_eq!(serial.disks[i].r, rayon.disks[i].r);
        assert_eq!(serial.disks[i].c, barrier.disks[i].c);
        assert_eq!(serial.disks[i].r, barrier.disks[i].r);
    }
}

#[test]
fn gpu_engine_matches_serial_on_mpc() {
    let (_, admm_a) = MpcProblem::build(MpcConfig::new(12), paper_plant());
    let mut gpu = GpuAdmmEngine::new(admm_a, SimtDevice::tesla_k40());
    gpu.run(100);

    let (_, admm_b) = MpcProblem::build(MpcConfig::new(12), paper_plant());
    let mut store = VarStore::zeros(admm_b.graph());
    let mut t = UpdateTimings::new();
    SerialBackend.run_block(&admm_b, &mut store, 100, &mut t);

    assert_eq!(gpu.store().z, store.z);
    assert!(gpu.simulated_seconds() > 0.0);
}

#[test]
fn svm_end_to_end_classifies() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let data = gaussian_mixture(80, 2, 6.0, &mut rng);
    let (model, _) = SvmProblem::train(&data, SvmConfig::default(), 2500, BackendSpec::Serial);
    assert!(data.accuracy(&model.w, model.b) > 0.95);
}

#[test]
fn packing_respects_constraints_in_square() {
    let config = PackingConfig {
        n_disks: 4,
        container: Polygon::square(1.0),
        rho: 2.0,
        alpha: 1.0,
    };
    let container = config.container.clone();
    let (sol, _) = PackingProblem::solve(config, 5000, 5, BackendSpec::Serial);
    assert!(
        sol.worst_overlap() > -0.03,
        "overlap {}",
        sol.worst_overlap()
    );
    assert!(sol.worst_wall_violation(&container) > -0.03);
    let coverage = sol.covered_area() / container.area();
    assert!(coverage > 0.3 && coverage < 1.0, "coverage {coverage}");
}

#[test]
fn mpc_receding_horizon_keeps_pole_up() {
    // Closed-loop: re-plan every cycle, apply the first input. The open-
    // loop plant doubles its tilt every ~0.15 s, so staying near upright
    // over 1 s of simulated time requires working control. (The cart
    // position drifts by design — only the pole angle is the stability
    // criterion; the exact QP controller behaves the same.)
    let sys = paper_plant();
    let mut q = [0.1, 0.0, 0.06, 0.0];
    let mut max_theta = 0.0_f64;
    for _ in 0..25 {
        let mut c = MpcConfig::new(15);
        c.q0 = q;
        let (mpc, admm) = MpcProblem::build(c.clone(), paper_plant());
        let options = SolverOptions {
            backend: BackendSpec::Serial,
            rho: c.rho,
            alpha: c.alpha,
            stopping: StoppingCriteria::fixed_iterations(3000),
        };
        let mut solver = Solver::from_problem(admm, options);
        solver.run(3000);
        let traj = mpc.extract(solver.store());
        let next = sys.step(&q, &[traj.inputs[0]]);
        q = [next[0], next[1], next[2], next[3]];
        max_theta = max_theta.max(q[2].abs());
    }
    assert!(
        max_theta < 0.1,
        "pole must stay near upright, max |θ| = {max_theta}"
    );
    assert!(
        q[2].abs() < 0.06,
        "final tilt {} should be controlled",
        q[2]
    );
}

#[test]
fn umbrella_prelude_exposes_needed_types() {
    // Compile-time check that the prelude covers the quickstart workflow.
    use paradmm::prelude::*;
    let mut b = GraphBuilder::new(1);
    let v = b.add_var();
    b.add_factor(&[v]);
    let proxes: Vec<Box<dyn ProxOp>> = vec![Box::new(ZeroProx)];
    let mut solver = Solver::new(b.build(), proxes, SolverOptions::default());
    let report = solver.run(3);
    assert_eq!(report.iterations, 3);
}

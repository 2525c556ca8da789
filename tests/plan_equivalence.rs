//! SweepPlan-equivalence suite.
//!
//! The `SweepPlan` IR's whole contract is that the schedule is a pure
//! throughput knob: **any** legal plan — fused or unfused passes, any
//! chunk size, uniform or arbitrarily weighted static splits — executed
//! by any synchronous backend must produce iterates bit-identical to the
//! seed five-sweep serial schedule. This suite property-tests that
//! contract on the paper's problem families (MPC, packing) and on a
//! degree-imbalanced hub graph, across the serial, barrier,
//! work-stealing, rayon, and sharded executors.

use proptest::prelude::*;

use paradmm::core::{
    AdmmProblem, BackendSpec, BarrierBackend, Pass, PassKind, Planner, RayonBackend, SerialBackend,
    SweepExecutor, SweepPlan, UpdateTimings, WorkStealingBackend,
};
use paradmm::graph::VarStore;
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::packing::{PackingConfig, PackingProblem};

const ITERS: usize = 25;

/// Runs `iters` iterations from a deterministic non-zero state.
fn run(problem: &AdmmProblem, backend: &mut dyn SweepExecutor, iters: usize) -> VarStore {
    let mut store = VarStore::zeros(problem.graph());
    for (i, v) in store.n.iter_mut().enumerate() {
        *v = (i as f64 * 0.37).sin();
    }
    for (i, v) in store.z.iter_mut().enumerate() {
        *v = (i as f64 * 0.11).cos();
    }
    store.snapshot_z();
    let mut t = UpdateTimings::new();
    backend.run_block(problem, &mut store, iters, &mut t);
    store
}

/// The three problem families the suite sweeps.
fn problems() -> Vec<(&'static str, AdmmProblem)> {
    let (_, packing) = PackingProblem::build(PackingConfig::new(7));
    let (_, mpc) = MpcProblem::build(MpcConfig::new(10), paper_plant());
    let hub = paradmm_bench::imbalanced_problem(4, 9);
    vec![("packing", packing), ("mpc", mpc), ("hub", hub)]
}

/// One random-but-legal plan: fusion shape from two booleans, chunk
/// sizes cycled from `chunks`, and (when `weighted`) a pseudo-random
/// positive cost profile derived from `seed` so static splits land on
/// arbitrary boundaries.
fn build_plan(
    problem: &AdmmProblem,
    xm: bool,
    un: bool,
    chunks: &[usize],
    weighted: bool,
    seed: u64,
) -> SweepPlan {
    let g = problem.graph();
    let mut next = {
        let mut i = 0usize;
        let chunks = chunks.to_vec();
        move || {
            let c = chunks[i % chunks.len()];
            i += 1;
            c
        }
    };
    let costs = |items: usize, salt: u64| -> Vec<f64> {
        (0..items)
            .map(|j| {
                let h = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .wrapping_add(salt)
                    .wrapping_add(j as u64)
                    .wrapping_mul(0x2545f4914f6cdd1d);
                1e-8 + (h % 997) as f64 * 1e-9
            })
            .collect()
    };
    let mk = |kind: PassKind, items: usize, chunk: usize, salt: u64| {
        if weighted {
            Pass::weighted(kind, chunk, &costs(items, salt))
        } else {
            Pass::uniform(kind, items, chunk)
        }
    };
    let (nf, nv, ne) = (g.num_factors(), g.num_vars(), g.num_edges());
    let mut passes = Vec::new();
    if xm {
        passes.push(mk(PassKind::Xm, nf, next(), 1));
    } else {
        passes.push(mk(PassKind::X, nf, next(), 2));
        passes.push(mk(PassKind::M, ne, next(), 3));
    }
    passes.push(mk(PassKind::Z, nv, next(), 4));
    if un {
        passes.push(mk(PassKind::Un, ne, next(), 5));
    } else {
        passes.push(mk(PassKind::U, ne, next(), 6));
        passes.push(mk(PassKind::N, ne, next(), 7));
    }
    SweepPlan::from_passes(passes).expect("generated shape is legal by construction")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any legal plan on any backend equals the unfused serial schedule,
    /// bit for bit, on all three problem families.
    #[test]
    fn any_legal_plan_is_bit_identical_to_unfused_serial(
        xm_bit in 0u32..2,
        un_bit in 0u32..2,
        weighted_bit in 0u32..2,
        chunks in proptest::collection::vec(1usize..=97, 1..=5),
        seed in 0u64..u64::MAX,
    ) {
        let (xm, un, weighted) = (xm_bit == 1, un_bit == 1, weighted_bit == 1);
        for (label, mut problem) in problems() {
            // Reference: the seed five-sweep schedule on the serial
            // backend.
            let unfused = SweepPlan::unfused(&problem);
            problem.set_plan(unfused);
            let reference = run(&problem, &mut SerialBackend, ITERS);

            let plan = build_plan(&problem, xm, un, &chunks, weighted, seed);
            prop_assert!(plan.matches(problem.graph()));
            problem.set_plan(plan);

            let mut backends: Vec<(&str, Box<dyn SweepExecutor>)> = vec![
                ("serial", Box::new(SerialBackend)),
                ("rayon", Box::new(RayonBackend::new(Some(2)))),
                ("barrier", Box::new(BarrierBackend::new(3))),
                ("worksteal", Box::new(WorkStealingBackend::new(2))),
                ("sharded", BackendSpec::Sharded { parts: Some(2) }.to_backend()),
            ];
            for (name, backend) in backends.iter_mut() {
                let got = run(&problem, backend.as_mut(), ITERS);
                prop_assert_eq!(&got.x, &reference.x, "{}/{} x", label, name);
                prop_assert_eq!(&got.m, &reference.m, "{}/{} m", label, name);
                prop_assert_eq!(&got.z, &reference.z, "{}/{} z", label, name);
                prop_assert_eq!(&got.u, &reference.u, "{}/{} u", label, name);
                prop_assert_eq!(&got.n, &reference.n, "{}/{} n", label, name);
                prop_assert_eq!(
                    &got.z_prev, &reference.z_prev,
                    "{}/{} z_prev", label, name
                );
            }
        }
    }
}

/// The measuring planner's output is just another legal plan: its
/// weighted splits and measured chunks must not perturb iterates.
#[test]
fn measured_planner_output_is_bit_identical() {
    for (label, mut problem) in problems() {
        problem.set_plan(SweepPlan::unfused(&problem));
        let reference = run(&problem, &mut SerialBackend, ITERS);

        let plan = Planner::new().plan(&problem);
        assert_eq!(plan.barriers_per_iteration(), 3, "{label}");
        problem.set_plan(plan);
        for threads in [1usize, 3] {
            let got = run(&problem, &mut BarrierBackend::new(threads), ITERS);
            assert_eq!(got.z, reference.z, "{label} barrier({threads})");
            assert_eq!(got.u, reference.u, "{label} barrier({threads})");
        }
        let got = run(&problem, &mut SerialBackend, ITERS);
        assert_eq!(got.n, reference.n, "{label} serial");
    }
}

/// Odd/even block boundaries: the parity-swapped z buffers must
/// normalize at every block edge so residual checks (which read z and
/// z_prev between blocks) see exactly the copying schedule's values.
#[test]
fn odd_block_lengths_keep_z_buffers_normalized() {
    let (_, problem) = PackingProblem::build(PackingConfig::new(6));
    let mut unfused_problem = {
        let (_, p) = PackingProblem::build(PackingConfig::new(6));
        p
    };
    unfused_problem.set_plan(SweepPlan::unfused(&unfused_problem));

    let mut fused_stores = (VarStore::zeros(problem.graph()), UpdateTimings::new());
    let mut ref_stores = (VarStore::zeros(problem.graph()), UpdateTimings::new());
    let mut barrier = BarrierBackend::new(3);
    let mut worksteal = WorkStealingBackend::with_chunk(2, 1);
    for block in [1usize, 3, 2, 7, 1] {
        SerialBackend.run_block(
            &unfused_problem,
            &mut ref_stores.0,
            block,
            &mut ref_stores.1,
        );
        barrier.run_block(&problem, &mut fused_stores.0, block, &mut fused_stores.1);
        assert_eq!(ref_stores.0.z, fused_stores.0.z, "barrier after {block}");
        assert_eq!(
            ref_stores.0.z_prev, fused_stores.0.z_prev,
            "barrier z_prev after {block}"
        );
    }
    let mut ws_store = VarStore::zeros(problem.graph());
    let mut t = UpdateTimings::new();
    let mut ref2 = VarStore::zeros(problem.graph());
    let mut t2 = UpdateTimings::new();
    for block in [1usize, 5, 2] {
        worksteal.run_block(&problem, &mut ws_store, block, &mut t);
        SerialBackend.run_block(&unfused_problem, &mut ref2, block, &mut t2);
        assert_eq!(ref2.z, ws_store.z, "worksteal after {block}");
        assert_eq!(ref2.z_prev, ws_store.z_prev, "worksteal z_prev {block}");
    }
}

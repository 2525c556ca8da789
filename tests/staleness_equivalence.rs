//! Bounded-staleness equivalence suite.
//!
//! [`StaleBoundedBackend`] runs the sharded halo protocol without global
//! barriers: shards publish per-iteration progress watermarks and halo
//! reads may consume neighbor state up to `k` iterations stale. The
//! contract this suite pins:
//!
//! * **`k = 0` is bit-identical** to the serial five-sweep reference
//!   on every problem — with the
//!   waits tightened to "neighbor finished this iteration", the
//!   barrier-free protocol replays the exact synchronous fold, on all
//!   three paper generators plus the degree-imbalanced hub graph, for
//!   BFS-grown and contiguous partitions alike.
//! * **`k ≥ 1` converges** to the same fixed point on convex instances
//!   (the iterates differ — freshness was traded for zero wait — but
//!   the optimum may not move).
//! * The **observed skew never exceeds `k`**, and the watermark words
//!   shards publish are strictly monotone in `(iteration, phase)` — the
//!   two invariants the wait loops rest on (property-tested below).

use paradmm::core::{
    watermark, AdmmProblem, BackendSpec, SerialBackend, StaleBoundedBackend, SweepExecutor,
    SweepPlan, UpdateTimings,
};
use paradmm::graph::{Partition, VarStore};
use paradmm::mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm::packing::{PackingConfig, PackingProblem};
use paradmm::svm::{gaussian_mixture, SvmConfig, SvmProblem};
use proptest::prelude::*;
use rand::SeedableRng;

/// Runs `iters` iterations from a deterministic non-zero state.
fn run_from_seeded_state(
    problem: &AdmmProblem,
    backend: &mut dyn SweepExecutor,
    iters: usize,
) -> VarStore {
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
    assert_eq!(t.iterations, iters, "backend must account its iterations");
    store
}

/// Asserts k=0 stale execution is bit-identical to the serial
/// five-sweep reference across part counts and partition styles, under
/// fused and unfused plans.
fn assert_k0_bit_identical(problem: &mut AdmmProblem, iters: usize, label: &str) {
    problem.set_plan(SweepPlan::unfused(problem));
    let serial = run_from_seeded_state(problem, &mut SerialBackend, iters);
    problem.clear_plan();

    let assert_matches = |got: &VarStore, which: &str| {
        assert_eq!(serial.x, got.x, "{which}: x diverged from serial");
        assert_eq!(serial.z, got.z, "{which}: z diverged from serial");
        assert_eq!(serial.u, got.u, "{which}: u diverged from serial");
        assert_eq!(serial.n, got.n, "{which}: n diverged from serial");
        assert_eq!(
            serial.z_prev, got.z_prev,
            "{which}: z_prev diverged from serial"
        );
    };
    for fused in [true, false] {
        if fused {
            problem.clear_plan();
        } else {
            problem.set_plan(SweepPlan::unfused(problem));
        }
        let plan_label = if fused { "fused" } else { "unfused" };
        for parts in [1usize, 2, 4] {
            let mut stale = StaleBoundedBackend::new(parts, 0);
            let got = run_from_seeded_state(problem, &mut stale, iters);
            let which = format!("{label}[{plan_label}] stale({parts}, k=0)");
            assert_matches(&got, &which);
            assert_eq!(stale.max_observed_skew(), 0, "{which}: k=0 must not skew");

            // Contiguous partitions interleave a halo variable's edges
            // across shards — the hard case for the ordered reduce.
            let contiguous = Partition::contiguous(problem.graph(), parts);
            let mut stale_cont = StaleBoundedBackend::with_partition(contiguous, 0);
            let got_cont = run_from_seeded_state(problem, &mut stale_cont, iters);
            let which = format!("{label}[{plan_label}] stale({parts}, contiguous, k=0)");
            assert_matches(&got_cont, &which);
        }
    }
    problem.clear_plan();
}

#[test]
fn packing_k0_bit_identical() {
    let (_, mut problem) = PackingProblem::build(PackingConfig::new(10));
    assert_k0_bit_identical(&mut problem, 60, "packing");
}

#[test]
fn mpc_k0_bit_identical() {
    let (_, mut problem) = MpcProblem::build(MpcConfig::new(25), paper_plant());
    assert_k0_bit_identical(&mut problem, 60, "mpc");
}

#[test]
fn svm_k0_bit_identical() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
    let data = gaussian_mixture(60, 2, 4.0, &mut rng);
    let (_, mut problem) = SvmProblem::build(&data, SvmConfig::default());
    assert_k0_bit_identical(&mut problem, 60, "svm");
}

#[test]
fn imbalanced_hub_k0_bit_identical() {
    // Hub variables sit at the front of the variable order, so static
    // partitions straggle — exactly the shape the barrier-free protocol
    // exists for; at k=0 it must still replay the synchronous fold.
    let mut problem = paradmm_bench::imbalanced_problem(7, 23);
    assert_k0_bit_identical(&mut problem, 60, "imbalanced");
}

#[test]
fn stale_iterates_converge_to_serial_optimum() {
    // A strongly convex MPC tracking QP: for k ≥ 1 the iterates differ
    // from the synchronous schedule, but the fixed point may not.
    let run_from_zeros = |problem: &AdmmProblem, backend: &mut dyn SweepExecutor, iters| {
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(problem, &mut store, iters, &mut t);
        store
    };
    let config = MpcConfig::new(8);
    let (mpc, problem) = MpcProblem::build(config.clone(), paper_plant());
    let sync_store = run_from_zeros(&problem, &mut SerialBackend, 20_000);
    let sync_traj = mpc.extract(&sync_store);

    for k in [1usize, 4] {
        let (mpc_k, problem_k) = MpcProblem::build(config.clone(), paper_plant());
        let mut backend = StaleBoundedBackend::new(3, k);
        let stale_store = run_from_zeros(&problem_k, &mut backend, 20_000);
        let stale_traj = mpc_k.extract(&stale_store);
        assert!(
            backend.max_observed_skew() <= k,
            "k={k}: observed skew {} above the bound",
            backend.max_observed_skew()
        );
        for t in 0..=8 {
            for i in 0..4 {
                let (a, s) = (stale_traj.states[t][i], sync_traj.states[t][i]);
                assert!(
                    (a - s).abs() < 5e-3,
                    "k={k} vs serial state mismatch at t={t} i={i}: {a} vs {s}"
                );
            }
        }
    }
}

#[test]
fn async_backend_routes_to_bounded_staleness() {
    // `async[:N]` and `sharded[:N]` both build the bounded-staleness
    // executor, at k = 1 and k = 0; each reports the family that built it.
    for (text, k) in [("async:3", 1usize), ("sharded:3", 0)] {
        let spec: BackendSpec = text.parse().unwrap();
        assert_eq!(spec.to_backend().name(), spec.family());
        let backend = StaleBoundedBackend::new(3, k);
        assert_eq!(backend.name(), spec.family());
        assert_eq!(backend.parts(), 3);
        assert_eq!(backend.staleness(), k);
    }
}

#[test]
fn observed_skew_stays_within_bound_on_hub_graph() {
    let problem = paradmm_bench::imbalanced_problem(5, 17);
    for k in [0usize, 1, 2, 4] {
        let mut backend = StaleBoundedBackend::new(4, k);
        let _ = run_from_seeded_state(&problem, &mut backend, 200);
        assert!(
            backend.max_observed_skew() <= k,
            "k={k}: skew {} exceeded the staleness bound",
            backend.max_observed_skew()
        );
    }
}

proptest! {
    /// Watermark words are strictly monotone in (iteration, phase):
    /// progress can be compared with a plain integer compare, which is
    /// exactly what the wait loops do.
    #[test]
    fn watermark_words_are_monotone_in_progress(
        i1 in 1u64..=u32::MAX as u64,
        p1 in watermark::PHASE_STAGED..=watermark::PHASE_DONE,
        i2 in 1u64..=u32::MAX as u64,
        p2 in watermark::PHASE_STAGED..=watermark::PHASE_DONE,
    ) {
        let w1 = watermark::encode(i1, p1);
        let w2 = watermark::encode(i2, p2);
        prop_assert_eq!(w1.cmp(&w2), (i1, p1).cmp(&(i2, p2)));
    }

    /// The phase extractors answer "how many iterations of this phase
    /// have fully completed": staged counts the current iteration once
    /// STAGED is reached, reduced/done only from their own phase on.
    #[test]
    fn watermark_extractors_count_completed_phases(
        iter in 1u64..=u32::MAX as u64,
        phase in watermark::PHASE_STAGED..=watermark::PHASE_DONE,
    ) {
        let w = watermark::encode(iter, phase);
        prop_assert_eq!(watermark::staged_iter(w), iter);
        let expect_reduced = if phase >= watermark::PHASE_REDUCED { iter } else { iter - 1 };
        prop_assert_eq!(watermark::reduced_iter(w), expect_reduced);
        let expect_done = if phase >= watermark::PHASE_DONE { iter } else { iter - 1 };
        prop_assert_eq!(watermark::done_iter(w), expect_done);
        // A reader bounded by `k` therefore never sees state older than
        // `iter - k` once the writer has published `w`.
        prop_assert!(watermark::done_iter(w) + 1 >= watermark::staged_iter(w));
    }

    /// Random chain consensus problems: k=0 equivalence and the skew
    /// bound hold for arbitrary sizes, part counts, and bounds — not
    /// just the hand-picked fixtures above.
    #[test]
    fn random_chains_hold_k0_identity_and_skew_bound(
        n in 2usize..10,
        parts in 1usize..5,
        k in 0usize..4,
        iters in 1usize..40,
    ) {
        use paradmm::graph::GraphBuilder;
        use paradmm::prox::{ConsensusEqualityProx, ProxOp, QuadraticProx};
        let mut b = GraphBuilder::new(1);
        let vars = b.add_vars(n);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            b.add_factor(&[v]);
            proxes.push(Box::new(QuadraticProx::isotropic(1, 1.0, &[i as f64])));
        }
        for i in 0..n - 1 {
            b.add_factor(&[vars[i], vars[i + 1]]);
            proxes.push(Box::new(ConsensusEqualityProx));
        }
        let problem = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);

        let mut backend = StaleBoundedBackend::new(parts, k);
        let got = run_from_seeded_state(&problem, &mut backend, iters);
        prop_assert!(backend.max_observed_skew() <= k);
        if k == 0 {
            let reference = run_from_seeded_state(&problem, &mut SerialBackend, iters);
            prop_assert_eq!(&reference.x, &got.x);
            prop_assert_eq!(&reference.z, &got.z);
            prop_assert_eq!(&reference.u, &got.u);
            prop_assert_eq!(&reference.n, &got.n);
            prop_assert_eq!(&reference.z_prev, &got.z_prev);
        }
    }
}

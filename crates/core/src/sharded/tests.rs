//! The `sharded[:N]` family as [`BackendSpec`] builds it: the
//! stale-bounded executor at k = 0, which must replay the serial
//! iteration bit for bit.

use crate::{
    AdmmProblem, BackendSpec, SerialBackend, StaleBoundedBackend, SweepExecutor, UpdateTimings,
};
use paradmm_graph::{GraphBuilder, Partition, VarStore};
use paradmm_prox::{ProxOp, QuadraticProx};

/// Chain of `n` pairwise quadratic factors — splits with a tiny halo.
fn chain_problem(n: usize) -> AdmmProblem {
    let mut b = GraphBuilder::new(2);
    let vs = b.add_vars(n + 1);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for i in 0..n {
        b.add_factor(&[vs[i], vs[i + 1]]);
        let t = (i as f64 * 0.23).sin();
        proxes.push(Box::new(QuadraticProx::isotropic(4, 1.0, &[t, -t, t, -t])));
    }
    AdmmProblem::new(b.build(), proxes, 1.2, 0.9)
}

/// All-pairs problem — every variable is halo under any real split.
fn dense_problem(n: usize) -> AdmmProblem {
    let mut b = GraphBuilder::new(1);
    let vs = b.add_vars(n);
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for i in 0..n {
        for j in i + 1..n {
            b.add_factor(&[vs[i], vs[j]]);
            proxes.push(Box::new(QuadraticProx::isotropic(
                2,
                1.0,
                &[i as f64 * 0.1, j as f64 * 0.1],
            )));
        }
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

/// The executor `sharded:{parts}` names.
fn sharded(parts: usize) -> Box<dyn SweepExecutor> {
    BackendSpec::Sharded { parts: Some(parts) }.to_backend()
}

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

#[test]
fn bit_identical_to_serial_on_chain() {
    let problem = chain_problem(23);
    let serial = run(&problem, &mut SerialBackend, 40);
    for parts in [1usize, 2, 3, 4] {
        let got = run(&problem, sharded(parts).as_mut(), 40);
        assert_eq!(serial.z, got.z, "parts={parts} z diverged");
        assert_eq!(serial.x, got.x, "parts={parts} x diverged");
        assert_eq!(serial.u, got.u, "parts={parts} u diverged");
        assert_eq!(serial.n, got.n, "parts={parts} n diverged");
        assert_eq!(serial.z_prev, got.z_prev, "parts={parts} z_prev diverged");
    }
}

#[test]
fn bit_identical_on_dense_graph_with_contiguous_partition() {
    // Contiguous splits interleave a variable's edges across shards —
    // the ordered reduce must still replay the serial fold exactly.
    let problem = dense_problem(9);
    let serial = run(&problem, &mut SerialBackend, 30);
    for parts in [2usize, 4] {
        let partition = Partition::contiguous(problem.graph(), parts);
        let mut sb = StaleBoundedBackend::with_partition(partition, 0);
        assert_eq!(sb.name(), "sharded");
        let got = run(&problem, &mut sb, 30);
        assert_eq!(serial.z, got.z, "parts={parts}");
        assert_eq!(serial.u, got.u, "parts={parts}");
    }
}

#[test]
fn rebuilds_when_params_change() {
    let mut a = chain_problem(10);
    let mut sb = sharded(2);
    let before = run(&a, sb.as_mut(), 15);
    a.params_mut().scale_rho(3.0);
    let serial = run(&a, &mut SerialBackend, 15);
    let after = run(&a, sb.as_mut(), 15);
    assert_eq!(after.z, serial.z, "stale rho must not survive a rebuild");
    assert_ne!(before.z, after.z, "rho change must alter iterates");
}

#[test]
fn blocks_resume_bit_identically() {
    // Scatter/gather at block boundaries must be lossless: many small
    // blocks equal one big serial run.
    let problem = chain_problem(12);
    let mut sb = sharded(3);
    let mut sharded_store = VarStore::zeros(problem.graph());
    let mut serial_store = VarStore::zeros(problem.graph());
    let mut t = UpdateTimings::new();
    for block in [1usize, 4, 2, 7] {
        sb.run_block(&problem, &mut sharded_store, block, &mut t);
        SerialBackend.run_block(&problem, &mut serial_store, block, &mut t);
        assert_eq!(serial_store.z, sharded_store.z, "after block {block}");
        assert_eq!(serial_store.n, sharded_store.n, "after block {block}");
    }
}

#[test]
fn zero_iterations_is_a_no_op() {
    let problem = chain_problem(5);
    let mut sb = StaleBoundedBackend::new(2, 0);
    let mut store = VarStore::zeros(problem.graph());
    store.z.fill(2.5);
    let before = store.clone();
    let mut t = UpdateTimings::new();
    sb.run_block(&problem, &mut store, 0, &mut t);
    assert_eq!(store.z, before.z);
    assert!(sb.partition().is_none(), "no build without iterations");
}

#[test]
#[should_panic(expected = "at least one shard")]
fn zero_parts_rejected() {
    let _ = sharded(0);
}

#[test]
fn name_is_stable() {
    assert_eq!(sharded(2).name(), "sharded");
    let bare: BackendSpec = "sharded".parse().unwrap();
    assert_eq!(bare.to_backend().name(), "sharded");
}

//! Batched multi-instance execution: N independent problems fused into
//! one block-diagonal store, served through any [`SweepExecutor`].
//!
//! The paper's sweeps saturate hardware on one *large* factor-graph; a
//! serving workload is the opposite shape — many *small* independent
//! instances, where per-instance sweep-launch overhead (thread spawns,
//! barriers, kernel launches on a real device) dominates the math.
//! [`BatchSolver`] packs the instances with
//! [`paradmm_graph::BatchStore`] and drives the fused problem through
//! one backend, so every launch is amortized over the whole batch.
//!
//! Two contracts:
//!
//! * **Bit-identity** — the fused graph is block-diagonal, so under any
//!   backend that is bit-identical to [`crate::SerialBackend`] each
//!   instance's iterates equal a solo serial solve of that instance,
//!   bit for bit, including residual checks and stop iterations
//!   (pinned by `tests/backend_equivalence.rs`).
//! * **Early-exit freezing** — residuals are tracked *per instance*
//!   every `check_every` iterations; converged instances are frozen
//!   (state extracted, later sweeps never touch them) and the
//!   survivors are repacked into a smaller dense batch, so backends
//!   keep their ordinary `assign_range` / chunk-claim scheduling with
//!   no holes to skip — stragglers get the whole machine.
//!
//! Instances are natural shards: with [`BackendSpec::Sharded`], each
//! (re)pack installs a fresh sharded [`StaleBoundedBackend`] (`k = 0`)
//! over the layout's **zero-cut** partition (whole instances per shard,
//! empty halo).
//!
//! Each (re)pack installs the default fused three-pass
//! [`crate::SweepPlan`] on the fused problem at pack time, cached by
//! the pass-shape fingerprint `(num_factors, num_vars, num_edges)`: a
//! repack whose fused topology keeps the same pass shape reuses the
//! previous plan outright, and either way per-block resolution borrows
//! the installed plan instead of re-deriving the default every block.
//! The plan is the same one solo solves resolve, so bit-identity is
//! unaffected, and the fused store's `z_prev` stays materialized under
//! the buffer-swap z pass, so
//! [`paradmm_graph::BatchLayout::extract_store`] / `write_store`
//! slicing is unaffected.

use std::time::{Duration, Instant};

use paradmm_graph::{BatchInstance, BatchLayout, BatchStore, EdgeParams, FactorGraph, VarStore};
use paradmm_prox::ProxOp;

use crate::backend::SweepExecutor;
use crate::plan::SweepPlan;
use crate::problem::AdmmProblem;
use crate::residuals::Residuals;
use crate::solver::{SolverOptions, StopReason};
use crate::spec::{default_threads, BackendSpec};
use crate::stale::StaleBoundedBackend;
use crate::timing::UpdateTimings;

/// Per-instance outcome of a batched solve.
#[derive(Debug, Clone)]
pub struct InstanceReport {
    /// Iterations this instance executed before freezing or stopping.
    pub iterations: usize,
    /// Why this instance stopped.
    pub stop_reason: StopReason,
    /// Residuals at the instance's final check (if any check ran).
    pub final_residuals: Option<Residuals>,
}

/// Outcome of [`BatchSolver::run`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// One report per instance, in pack order.
    pub instances: Vec<InstanceReport>,
    /// Total wall-clock time spent inside [`BatchSolver::run`].
    pub elapsed: Duration,
}

impl BatchReport {
    /// Number of instances that converged.
    pub fn converged_count(&self) -> usize {
        self.instances
            .iter()
            .filter(|r| r.stop_reason == StopReason::Converged)
            .count()
    }

    /// Whether every instance converged.
    pub fn all_converged(&self) -> bool {
        self.converged_count() == self.instances.len()
    }

    /// The largest per-instance iteration count (what the straggler
    /// cost).
    pub fn max_iterations(&self) -> usize {
        self.instances
            .iter()
            .map(|r| r.iterations)
            .max()
            .unwrap_or(0)
    }

    /// Instances per second of wall-clock — the throughput metric of
    /// batched serving.
    pub fn instances_per_second(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.instances.len() as f64 / s
        } else {
            0.0
        }
    }
}

/// One packed instance's bookkeeping. The graph and parameters stay
/// here for the lifetime of the solver (repacks re-read them); the
/// proximal operators migrate into the fused [`AdmmProblem`] and come
/// back through `into_parts` on every repack.
struct Slot {
    graph: FactorGraph,
    params: EdgeParams,
    proxes: Option<Vec<Box<dyn ProxOp>>>,
    initial_store: Option<VarStore>,
    iterations: usize,
    stop_reason: Option<StopReason>,
    final_residuals: Option<Residuals>,
    result_store: Option<VarStore>,
}

/// The currently executing fused batch (only non-frozen instances).
struct ActiveSet {
    problem: AdmmProblem,
    store: VarStore,
    layout: BatchLayout,
    /// Slot index of each packed position.
    members: Vec<usize>,
}

/// Packs N independent [`AdmmProblem`]s into one fused store and runs
/// them to convergence through a single backend, with per-instance
/// residual tracking and early-exit freezing. See the module docs for
/// the two contracts (bit-identity, freezing).
///
/// [`BatchSolver::run`] is one-shot: it drives every instance to
/// convergence or to the iteration budget, then finalizes. Per-instance
/// results are read back with [`BatchSolver::store`] /
/// [`BatchSolver::report`].
pub struct BatchSolver {
    options: SolverOptions,
    backend: Box<dyn SweepExecutor>,
    /// `Some(parts)` when the descriptor asked for sharded execution:
    /// each (re)pack installs a fresh backend over the layout's
    /// zero-cut partition.
    sharded_parts: Option<usize>,
    slots: Vec<Slot>,
    active: Option<ActiveSet>,
    /// Fused [`SweepPlan`] keyed by the pass-shape fingerprint
    /// `(num_factors, num_vars, num_edges)` of the fused graph it was
    /// built for — the only inputs [`SweepPlan::fused`] reads. Repacks
    /// whose fused topology keeps the same pass shape reuse the cached
    /// plan instead of rebuilding it.
    plan_cache: Option<((usize, usize, usize), SweepPlan)>,
    /// Plans actually constructed (cache misses) — telemetry for the
    /// skip path.
    plans_built: usize,
    started: bool,
    done: usize,
    timings: UpdateTimings,
    elapsed: Duration,
}

impl BatchSolver {
    /// Batches `problems` with zero-initialized state; the backend comes
    /// from [`SolverOptions::backend`]. With [`BackendSpec::Sharded`],
    /// the shard partition is the layout's zero-cut instance partition
    /// instead of BFS growing.
    ///
    /// # Panics
    /// If `problems` is empty or the instances disagree on `dims`.
    pub fn new(problems: Vec<AdmmProblem>, options: SolverOptions) -> Self {
        let sharded_parts = match options.backend {
            BackendSpec::Sharded { parts } => Some(parts.unwrap_or_else(default_threads)),
            _ => None,
        };
        // The sharded backend is (re)built per pack; install a serial
        // placeholder until then.
        let backend: Box<dyn SweepExecutor> = if sharded_parts.is_some() {
            Box::new(crate::backend::SerialBackend)
        } else {
            options.backend.to_backend()
        };
        Self::build(problems, options, backend, sharded_parts)
    }

    /// Batches `problems` behind an explicit backend.
    /// [`SolverOptions::backend`] is ignored. The backend must
    /// tolerate the executed problem changing shape across blocks
    /// (every built-in backend does; a
    /// [`StaleBoundedBackend::with_partition`] pinned to one topology
    /// does not — use [`BackendSpec::Sharded`] through
    /// [`BatchSolver::new`] for sharded batching instead).
    ///
    /// # Panics
    /// If `problems` is empty or the instances disagree on `dims`.
    pub fn with_backend(
        problems: Vec<AdmmProblem>,
        options: SolverOptions,
        backend: Box<dyn SweepExecutor>,
    ) -> Self {
        Self::build(problems, options, backend, None)
    }

    fn build(
        problems: Vec<AdmmProblem>,
        options: SolverOptions,
        backend: Box<dyn SweepExecutor>,
        sharded_parts: Option<usize>,
    ) -> Self {
        assert!(!problems.is_empty(), "batch needs at least one instance");
        let dims = problems[0].graph().dims();
        let slots: Vec<Slot> = problems
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                assert_eq!(
                    p.graph().dims(),
                    dims,
                    "instance {i} disagrees on dims with the batch"
                );
                let (graph, proxes, params) = p.into_parts();
                Slot {
                    graph,
                    params,
                    proxes: Some(proxes),
                    initial_store: None,
                    iterations: 0,
                    stop_reason: None,
                    final_residuals: None,
                    result_store: None,
                }
            })
            .collect();
        BatchSolver {
            options,
            backend,
            sharded_parts,
            slots,
            active: None,
            plan_cache: None,
            plans_built: 0,
            started: false,
            done: 0,
            timings: UpdateTimings::new(),
            elapsed: Duration::ZERO,
        }
    }

    /// Batches a group of [`crate::SolveRequest`]s: the unified-API
    /// entry point. The group must agree on stopping criteria and
    /// backend (one fused execution has one of each — the serving
    /// layer's admission queue groups requests accordingly); warm
    /// starts are applied per request, and deadline/priority hints are
    /// scheduling metadata for the caller, not this engine. Plan
    /// overrides are ignored: the fused problem resolves its own fused
    /// plan (identical numerics either way).
    ///
    /// # Panics
    /// As [`BatchSolver::new`], plus if the group disagrees on
    /// stopping criteria or backend.
    pub fn from_requests(requests: Vec<crate::SolveRequest>) -> Self {
        let (problems, warm, stopping, backend) = crate::request::group_parts(requests);
        let options = SolverOptions {
            backend,
            stopping,
            ..SolverOptions::default()
        };
        let mut batch = Self::new(problems, options);
        for (i, ws) in warm.into_iter().enumerate() {
            if let Some(store) = ws {
                batch.warm_start(i, store);
            }
        }
        batch
    }

    /// Runs a request group to completion and returns one
    /// [`crate::SolveOutcome`] per request, in order — the thin-adapter
    /// form of batched execution ([`BatchSolver::from_requests`] +
    /// [`BatchSolver::run_default`] + per-instance readback).
    pub fn solve_requests(requests: Vec<crate::SolveRequest>) -> Vec<crate::SolveOutcome> {
        let mut batch = Self::from_requests(requests);
        let report = batch.run_default();
        (0..batch.num_instances())
            .map(|i| {
                let r = &report.instances[i];
                crate::SolveOutcome {
                    store: batch.store(i).clone(),
                    iterations: r.iterations,
                    stop_reason: r.stop_reason,
                    final_residuals: r.final_residuals,
                    residual_trace: Vec::new(),
                    elapsed: report.elapsed,
                }
            })
            .collect()
    }

    /// Number of batched instances.
    pub fn num_instances(&self) -> usize {
        self.slots.len()
    }

    /// The configured options.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Accumulated sweep timings over the fused execution.
    pub fn timings(&self) -> &UpdateTimings {
        &self.timings
    }

    /// The executing backend's stable name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Seeds instance `i` with `store` instead of zeros (warm start).
    ///
    /// # Panics
    /// If called after [`BatchSolver::run`] started, or the store is
    /// not shaped for instance `i`.
    pub fn warm_start(&mut self, i: usize, store: VarStore) {
        assert!(!self.started, "warm starts must precede run()");
        let g = &self.slots[i].graph;
        assert_eq!(store.dims(), g.dims(), "warm start dims mismatch");
        assert_eq!(store.num_edges(), g.num_edges(), "warm start edge count");
        assert_eq!(store.num_vars(), g.num_vars(), "warm start var count");
        self.slots[i].initial_store = Some(store);
    }

    /// Final state of instance `i`.
    ///
    /// # Panics
    /// If [`BatchSolver::run`] has not completed.
    pub fn store(&self, i: usize) -> &VarStore {
        self.slots[i]
            .result_store
            .as_ref()
            .expect("instance state is available after run()")
    }

    /// Report for instance `i` (available after [`BatchSolver::run`]).
    pub fn report(&self, i: usize) -> InstanceReport {
        let s = &self.slots[i];
        InstanceReport {
            iterations: s.iterations,
            stop_reason: s.stop_reason.unwrap_or(StopReason::MaxIterations),
            final_residuals: s.final_residuals,
        }
    }

    /// Runs every instance for at most `max_iters` iterations, checking
    /// per-instance residuals every
    /// [`crate::StoppingCriteria::check_every`] iterations and freezing
    /// converged instances (they stop contributing work; stragglers
    /// keep the backend saturated). Mirrors [`crate::Solver::run`]'s
    /// block schedule exactly, which is what makes per-instance
    /// iteration counts and final states bit-identical to solo solves.
    pub fn run(&mut self, max_iters: usize) -> BatchReport {
        let start = Instant::now();
        if !self.started {
            self.started = true;
            let members: Vec<usize> = (0..self.slots.len()).collect();
            let mut states = Vec::with_capacity(members.len());
            let mut proxes = Vec::with_capacity(members.len());
            for slot in self.slots.iter_mut() {
                let state = slot
                    .initial_store
                    .take()
                    .unwrap_or_else(|| VarStore::zeros(&slot.graph));
                states.push(state);
                proxes.push(slot.proxes.take().expect("proxes present before start"));
            }
            self.pack(members, states, proxes);
        }
        let stopping = self.options.stopping;
        let check_every = stopping.check_every;

        while let Some(active) = self.active.as_mut() {
            if self.done >= max_iters {
                break;
            }
            let block = if check_every == usize::MAX {
                max_iters - self.done
            } else {
                check_every.max(1).min(max_iters - self.done)
            };
            self.backend
                .run_block(&active.problem, &mut active.store, block, &mut self.timings);
            self.done += block;

            let mut to_freeze: Vec<usize> = Vec::new();
            if check_every != usize::MAX {
                let d = active.layout.dims();
                for pos in 0..active.members.len() {
                    let er = active.layout.edge_range(pos);
                    let r = Residuals::compute_edge_range(
                        active.problem.graph(),
                        active.problem.params(),
                        &active.store,
                        er.start,
                        er.end,
                    );
                    let conv = r.converged(er.len() * d, stopping.eps_abs, stopping.eps_rel);
                    let slot = &mut self.slots[active.members[pos]];
                    slot.iterations = self.done;
                    slot.final_residuals = Some(r);
                    if conv {
                        slot.stop_reason = Some(StopReason::Converged);
                        to_freeze.push(pos);
                    }
                }
            } else {
                for &m in &active.members {
                    self.slots[m].iterations = self.done;
                }
            }
            if !to_freeze.is_empty() {
                self.freeze_and_repack(&to_freeze);
            }
        }

        self.finalize();
        self.elapsed += start.elapsed();
        self.build_report()
    }

    /// Runs with the options' own `max_iters` budget.
    pub fn run_default(&mut self) -> BatchReport {
        self.run(self.options.stopping.max_iters)
    }

    /// Builds the fused problem over `members` (slot indices, ascending)
    /// with the given per-member states and proximal operators, and
    /// installs it as the active set.
    fn pack(
        &mut self,
        members: Vec<usize>,
        states: Vec<VarStore>,
        proxes: Vec<Vec<Box<dyn ProxOp>>>,
    ) {
        let batch = {
            let views: Vec<BatchInstance<'_>> = members
                .iter()
                .zip(&states)
                .map(|(&m, state)| BatchInstance {
                    graph: &self.slots[m].graph,
                    params: &self.slots[m].params,
                    store: state,
                })
                .collect();
            BatchStore::pack(&views).expect("instances were validated at construction")
        };
        let (graph, params, store, layout) = batch.into_parts();
        let fused_proxes: Vec<Box<dyn ProxOp>> = proxes.into_iter().flatten().collect();
        let mut problem = AdmmProblem::with_params(graph, fused_proxes, params);
        problem.set_plan(self.fused_plan_for(&problem));
        if let Some(parts) = self.sharded_parts {
            // Instances are natural shards: a fresh backend over the
            // zero-cut instance partition, rebuilt because the fused
            // topology changes on every repack.
            self.backend = Box::new(StaleBoundedBackend::with_partition(
                layout.partition(parts),
                0,
            ));
        }
        self.active = Some(ActiveSet {
            problem,
            store,
            layout,
            members,
        });
    }

    /// The fused plan for `problem`'s pass shape, reusing the cached
    /// plan when the fingerprint matches (a repack that kept the fused
    /// topology's pass shape skips the rebuild entirely). Installing
    /// the plan at pack time also means every subsequent block's
    /// resolve borrows it instead of re-deriving the default.
    fn fused_plan_for(&mut self, problem: &AdmmProblem) -> SweepPlan {
        let g = problem.graph();
        let fingerprint = (g.num_factors(), g.num_vars(), g.num_edges());
        match &self.plan_cache {
            Some((fp, plan)) if *fp == fingerprint => plan.clone(),
            _ => {
                self.plans_built += 1;
                let plan = SweepPlan::fused(problem);
                self.plan_cache = Some((fingerprint, plan.clone()));
                plan
            }
        }
    }

    /// Fused plans constructed so far (plan-cache misses); packs whose
    /// pass shape matched the previous pack reuse the cached plan and
    /// do not count.
    pub fn plans_built(&self) -> usize {
        self.plans_built
    }

    /// Extracts the state of the given active positions (ascending) into
    /// their slots and repacks the survivors into a smaller dense batch.
    fn freeze_and_repack(&mut self, frozen_positions: &[usize]) {
        let ActiveSet {
            problem,
            store,
            layout,
            members,
        } = self.active.take().expect("freeze requires an active set");
        let (_graph, all_proxes, _params) = problem.into_parts();

        let mut prox_iter = all_proxes.into_iter();
        let mut frozen = frozen_positions.iter().copied().peekable();
        let mut surv_members = Vec::new();
        let mut surv_states = Vec::new();
        let mut surv_proxes = Vec::new();
        for (pos, &member) in members.iter().enumerate() {
            let segment: Vec<Box<dyn ProxOp>> = prox_iter
                .by_ref()
                .take(layout.factor_range(pos).len())
                .collect();
            let state = layout.extract_store(&store, pos);
            if frozen.peek() == Some(&pos) {
                frozen.next();
                self.slots[member].result_store = Some(state);
            } else {
                surv_members.push(member);
                surv_states.push(state);
                surv_proxes.push(segment);
            }
        }
        debug_assert!(prox_iter.next().is_none());
        if !surv_members.is_empty() {
            self.pack(surv_members, surv_states, surv_proxes);
        }
    }

    /// Extracts every still-active instance and stamps its stop reason.
    fn finalize(&mut self) {
        if let Some(active) = self.active.take() {
            for (pos, &member) in active.members.iter().enumerate() {
                let slot = &mut self.slots[member];
                slot.result_store = Some(active.layout.extract_store(&active.store, pos));
                if slot.stop_reason.is_none() {
                    slot.stop_reason = Some(StopReason::MaxIterations);
                }
            }
        }
        for slot in &mut self.slots {
            if slot.stop_reason.is_none() {
                slot.stop_reason = Some(StopReason::MaxIterations);
            }
        }
    }

    fn build_report(&self) -> BatchReport {
        BatchReport {
            instances: (0..self.slots.len()).map(|i| self.report(i)).collect(),
            elapsed: self.elapsed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::WorkStealingBackend;
    use crate::residuals::StoppingCriteria;
    use crate::solver::Solver;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    /// Consensus of `k` quadratics over one variable; optimum is the
    /// mean of the targets. Varying `k` gives mixed-size instances.
    fn consensus_problem(targets: &[f64]) -> AdmmProblem {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for &t in targets {
            b.add_factor(&[v]);
            proxes.push(Box::new(QuadraticProx::isotropic(1, 2.0, &[t])));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    fn mixed_instances() -> Vec<AdmmProblem> {
        vec![
            consensus_problem(&[1.0, 5.0, 9.0]),
            consensus_problem(&[2.0, 4.0]),
            consensus_problem(&[-3.0, 0.0, 3.0, 6.0]),
        ]
    }

    fn solo_solve(
        problem: AdmmProblem,
        options: SolverOptions,
        max_iters: usize,
    ) -> (VarStore, usize, StopReason) {
        let mut solver = Solver::from_problem(problem, options);
        let report = solver.run(max_iters);
        (
            solver.store().clone(),
            report.iterations,
            report.stop_reason,
        )
    }

    #[test]
    fn plan_cache_skips_rebuild_for_matching_pass_shape() {
        // Two same-shape instances: packing either one alone produces
        // the same fused fingerprint, so the second pack must hit the
        // cache; a different shape must miss it.
        let mut batch = BatchSolver::new(
            vec![consensus_problem(&[1.0, 5.0])],
            SolverOptions::default(),
        );
        let p1 = consensus_problem(&[1.0, 5.0]);
        assert_eq!(batch.plans_built(), 0);
        batch.fused_plan_for(&p1);
        assert_eq!(batch.plans_built(), 1);
        batch.fused_plan_for(&p1); // same fingerprint → cache hit
        assert_eq!(batch.plans_built(), 1);
        let bigger = consensus_problem(&[1.0, 5.0, 9.0]);
        batch.fused_plan_for(&bigger); // new shape → rebuild
        assert_eq!(batch.plans_built(), 2);
    }

    #[test]
    fn packed_problem_carries_the_fused_plan() {
        let mut batch = BatchSolver::new(mixed_instances(), SolverOptions::default());
        batch.run(5);
        assert!(batch.plans_built() >= 1);
        // Every pack so far had a distinct shrinking topology, but the
        // plan itself must be installed (resolution borrows it).
    }

    #[test]
    fn batch_matches_solo_serial_bitwise() {
        let options = SolverOptions::default();
        let mut batch = BatchSolver::new(mixed_instances(), options);
        let report = batch.run(1000);
        assert!(report.all_converged());

        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let (solo, iters, reason) = solo_solve(problem, options, 1000);
            assert_eq!(reason, StopReason::Converged);
            assert_eq!(report.instances[i].iterations, iters, "instance {i}");
            let got = batch.store(i);
            assert_eq!(got.z, solo.z, "instance {i} z");
            assert_eq!(got.x, solo.x, "instance {i} x");
            assert_eq!(got.u, solo.u, "instance {i} u");
            assert_eq!(got.n, solo.n, "instance {i} n");
            assert_eq!(got.m, solo.m, "instance {i} m");
        }
    }

    #[test]
    fn freezing_lets_stragglers_continue() {
        // Tight tolerances on a slow instance, loose on fast ones: the
        // fast ones must freeze earlier than the straggler's stop.
        let options = SolverOptions {
            stopping: StoppingCriteria {
                max_iters: 2000,
                eps_abs: 1e-10,
                eps_rel: 1e-9,
                check_every: 5,
            },
            ..SolverOptions::default()
        };
        let instances = vec![
            consensus_problem(&[2.0, 2.0]), // converges almost immediately
            consensus_problem(&[1.0, 5.0, 9.0, -7.0, 3.0]),
        ];
        let mut batch = BatchSolver::new(instances, options);
        let report = batch.run(2000);
        assert!(report.all_converged());
        assert!(
            report.instances[0].iterations < report.instances[1].iterations,
            "fast instance must freeze first ({} vs {})",
            report.instances[0].iterations,
            report.instances[1].iterations
        );
        assert_eq!(report.max_iterations(), report.instances[1].iterations);
    }

    #[test]
    fn batch_matches_solo_on_every_sync_descriptor() {
        let options_for = |backend: &str| SolverOptions {
            backend: backend.parse().unwrap(),
            ..SolverOptions::default()
        };
        let solo: Vec<(VarStore, usize)> = mixed_instances()
            .into_iter()
            .map(|p| {
                let (s, it, _) = solo_solve(p, SolverOptions::default(), 600);
                (s, it)
            })
            .collect();
        for backend in [
            "serial",
            "rayon:2",
            "barrier:2",
            "worksteal:2",
            "sharded:2",
            "auto:2",
        ] {
            let mut batch = BatchSolver::new(mixed_instances(), options_for(backend));
            let report = batch.run(600);
            for (i, (store, iters)) in solo.iter().enumerate() {
                assert_eq!(
                    report.instances[i].iterations, *iters,
                    "{backend} instance {i} iterations"
                );
                assert_eq!(batch.store(i).z, store.z, "{backend} instance {i}");
                assert_eq!(batch.store(i).u, store.u, "{backend} instance {i}");
            }
        }
    }

    #[test]
    fn fixed_iteration_mode_runs_every_instance_to_budget() {
        let options = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(37),
            ..SolverOptions::default()
        };
        let mut batch = BatchSolver::new(mixed_instances(), options);
        let report = batch.run(37);
        for (i, r) in report.instances.iter().enumerate() {
            assert_eq!(r.iterations, 37, "instance {i}");
            assert_eq!(r.stop_reason, StopReason::MaxIterations);
            assert!(r.final_residuals.is_none());
        }
        // Bitwise equal to solo fixed runs.
        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let (solo, _, _) = solo_solve(problem, options, 37);
            assert_eq!(batch.store(i).z, solo.z, "instance {i}");
        }
    }

    #[test]
    fn warm_start_carries_into_the_fused_solve() {
        let options = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(25),
            ..SolverOptions::default()
        };
        // Solo: seeded state, 25 iterations.
        let problem = consensus_problem(&[1.0, 5.0]);
        let mut seed = VarStore::zeros(problem.graph());
        for (j, v) in seed.n.iter_mut().enumerate() {
            *v = (j as f64 * 0.51).sin();
        }
        seed.snapshot_z();
        let mut solo = Solver::from_problem(problem, options);
        *solo.store_mut() = seed.clone();
        solo.run(25);

        let mut batch = BatchSolver::new(
            vec![consensus_problem(&[1.0, 5.0]), consensus_problem(&[7.0])],
            options,
        );
        batch.warm_start(0, seed);
        batch.run(25);
        assert_eq!(batch.store(0).z, solo.store().z);
        assert_eq!(batch.store(0).n, solo.store().n);
    }

    #[test]
    fn explicit_backend_is_used() {
        let options = SolverOptions::default();
        let mut batch = BatchSolver::with_backend(
            mixed_instances(),
            options,
            Box::new(WorkStealingBackend::new(2)),
        );
        assert_eq!(batch.backend_name(), "worksteal");
        let report = batch.run(1000);
        assert!(report.all_converged());
        let (solo, _, _) = solo_solve(consensus_problem(&[1.0, 5.0, 9.0]), options, 1000);
        assert_eq!(batch.store(0).z, solo.z);
    }

    #[test]
    fn sharded_descriptor_uses_zero_cut_partition() {
        let options = SolverOptions {
            backend: BackendSpec::Sharded { parts: Some(2) },
            ..SolverOptions::default()
        };
        let mut batch = BatchSolver::new(mixed_instances(), options);
        let report = batch.run(1000);
        assert_eq!(batch.backend_name(), "sharded");
        assert!(report.all_converged());
        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let (solo, iters, _) = solo_solve(problem, SolverOptions::default(), 1000);
            assert_eq!(report.instances[i].iterations, iters);
            assert_eq!(batch.store(i).z, solo.z, "instance {i}");
        }
    }

    #[test]
    fn report_throughput_accessors() {
        let mut batch = BatchSolver::new(mixed_instances(), SolverOptions::default());
        assert_eq!(batch.num_instances(), 3);
        let report = batch.run(1000);
        assert_eq!(report.instances.len(), 3);
        assert_eq!(report.converged_count(), 3);
        assert!(report.instances_per_second() > 0.0);
        assert!(batch.timings().iterations > 0);
    }

    #[test]
    fn request_group_adapter_matches_solo_requests() {
        use crate::request::SolveRequest;
        let outcomes = BatchSolver::solve_requests(
            mixed_instances()
                .into_iter()
                .map(SolveRequest::new)
                .collect(),
        );
        assert_eq!(outcomes.len(), 3);
        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let solo = SolveRequest::new(problem).solve();
            assert_eq!(outcomes[i].iterations, solo.iterations, "instance {i}");
            assert_eq!(outcomes[i].stop_reason, solo.stop_reason);
            assert_eq!(outcomes[i].store.z, solo.store.z, "instance {i}");
        }
    }

    #[test]
    #[should_panic(expected = "disagrees on stopping")]
    fn request_group_requires_uniform_stopping() {
        use crate::request::SolveRequest;
        let _ = BatchSolver::from_requests(vec![
            SolveRequest::new(consensus_problem(&[1.0])),
            SolveRequest::new(consensus_problem(&[2.0]))
                .with_stopping(StoppingCriteria::fixed_iterations(5)),
        ]);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_batch_rejected() {
        let _ = BatchSolver::new(Vec::new(), SolverOptions::default());
    }

    #[test]
    #[should_panic(expected = "disagrees on dims")]
    fn mixed_dims_rejected() {
        let mut b = GraphBuilder::new(2);
        let v = b.add_var();
        b.add_factor(&[v]);
        let other = AdmmProblem::new(
            b.build(),
            vec![Box::new(QuadraticProx::isotropic(2, 1.0, &[0.0, 0.0])) as Box<dyn ProxOp>],
            1.0,
            1.0,
        );
        let _ = BatchSolver::new(
            vec![consensus_problem(&[1.0]), other],
            SolverOptions::default(),
        );
    }
}

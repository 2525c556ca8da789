//! High-level driver: iterate Algorithm 2 until convergence or budget.

use std::time::{Duration, Instant};

use paradmm_graph::{FactorGraph, VarStore};
use paradmm_prox::ProxOp;

use crate::backend::SweepExecutor;
use crate::plan::{ReplanPolicy, ReplanState};
use crate::problem::AdmmProblem;
use crate::residuals::{Residuals, StoppingCriteria};
use crate::spec::BackendSpec;
use crate::timing::UpdateTimings;

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolverOptions {
    /// Which built-in backend to construct (ignored by
    /// [`Solver::with_backend`], which receives one directly).
    pub backend: BackendSpec,
    /// Uniform penalty weight ρ (ignored by
    /// [`Solver::from_problem`], which takes parameters from the problem).
    pub rho: f64,
    /// Uniform dual step α.
    pub alpha: f64,
    /// Convergence / budget policy.
    pub stopping: StoppingCriteria,
}

impl Default for SolverOptions {
    fn default() -> Self {
        SolverOptions {
            backend: BackendSpec::Serial,
            rho: 1.0,
            alpha: 1.0,
            stopping: StoppingCriteria::default(),
        }
    }
}

/// Why the solver stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// Residuals fell below tolerance.
    Converged,
    /// The iteration budget was exhausted.
    MaxIterations,
}

/// Outcome of a solve.
#[derive(Debug, Clone)]
pub struct SolverReport {
    /// Iterations executed.
    pub iterations: usize,
    /// Why iteration stopped.
    pub stop_reason: StopReason,
    /// Total wall-clock time inside update sweeps.
    pub elapsed: Duration,
    /// Per-update-kind timing breakdown.
    pub timings: UpdateTimings,
    /// Residuals at the final check (if any check ran).
    pub final_residuals: Option<Residuals>,
}

impl SolverReport {
    /// Seconds per iteration, the paper's primary metric.
    pub fn seconds_per_iteration(&self) -> f64 {
        if self.iterations == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() / self.iterations as f64
        }
    }
}

/// Owns the problem, the ADMM state, and the execution backend.
///
/// Generic over the backend so callers that need a concrete one (e.g.
/// `paradmm-gpusim`'s engine querying its simulated clock) keep typed
/// access via [`Solver::backend`]; the default `dyn SweepExecutor` form
/// is what [`Solver::new`] / [`Solver::from_problem`] build from the
/// [`SolverOptions::backend`] descriptor.
pub struct Solver<B: SweepExecutor + ?Sized = dyn SweepExecutor> {
    problem: AdmmProblem,
    store: VarStore,
    options: SolverOptions,
    replan: Option<(ReplanPolicy, ReplanState)>,
    backend: Box<B>,
}

impl Solver {
    /// Builds a solver from a graph and per-factor operators, with uniform
    /// `ρ/α` taken from `options` and the backend from
    /// [`SolverOptions::backend`].
    pub fn new(graph: FactorGraph, proxes: Vec<Box<dyn ProxOp>>, options: SolverOptions) -> Self {
        let problem = AdmmProblem::new(graph, proxes, options.rho, options.alpha);
        Self::from_problem(problem, options)
    }

    /// Builds a solver from a fully-specified problem (custom per-edge
    /// parameters preserved), backend from [`SolverOptions::backend`].
    pub fn from_problem(problem: AdmmProblem, options: SolverOptions) -> Self {
        let store = VarStore::zeros(problem.graph());
        let backend = options.backend.to_backend();
        Solver {
            problem,
            store,
            options,
            replan: None,
            backend,
        }
    }

    /// Builds a solver from a problem and an already-boxed backend.
    /// [`SolverOptions::backend`] is ignored — `backend` is the
    /// execution strategy.
    pub fn from_problem_with_backend(
        problem: AdmmProblem,
        options: SolverOptions,
        backend: Box<dyn SweepExecutor>,
    ) -> Self {
        let store = VarStore::zeros(problem.graph());
        Solver {
            problem,
            store,
            options,
            replan: None,
            backend,
        }
    }

    /// Replaces the backend by descriptor (e.g. to compare strategies on
    /// one state).
    pub fn set_backend_spec(&mut self, spec: BackendSpec) {
        self.options.backend = spec;
        self.backend = spec.to_backend();
    }

    /// Replaces the backend with any [`SweepExecutor`] implementation.
    pub fn set_backend(&mut self, backend: Box<dyn SweepExecutor>) {
        self.backend = backend;
    }
}

impl<B: SweepExecutor> Solver<B> {
    /// Builds a solver around a concrete backend, keeping typed access to
    /// it through [`Solver::backend`] / [`Solver::backend_mut`].
    pub fn with_backend(problem: AdmmProblem, options: SolverOptions, backend: B) -> Solver<B> {
        let store = VarStore::zeros(problem.graph());
        Solver {
            problem,
            store,
            options,
            replan: None,
            backend: Box::new(backend),
        }
    }
}

impl<B: SweepExecutor + ?Sized> Solver<B> {
    /// The execution backend.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access (tuning knobs on concrete backends).
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// The ADMM state.
    pub fn store(&self) -> &VarStore {
        &self.store
    }

    /// Mutable ADMM state (warm starts, custom initialization).
    pub fn store_mut(&mut self) -> &mut VarStore {
        &mut self.store
    }

    /// The problem definition.
    pub fn problem(&self) -> &AdmmProblem {
        &self.problem
    }

    /// Mutable problem (adaptive-ρ schemes).
    pub fn problem_mut(&mut self) -> &mut AdmmProblem {
        &mut self.problem
    }

    /// Simultaneous shared problem + mutable store access (custom
    /// initialization that reads the topology while writing state).
    pub fn problem_and_store_mut(&mut self) -> (&AdmmProblem, &mut VarStore) {
        (&self.problem, &mut self.store)
    }

    /// Simultaneous mutable access to problem and store (operator
    /// refresh + warm-start in one step, e.g. receding-horizon MPC).
    pub fn parts_mut(&mut self) -> (&mut AdmmProblem, &mut VarStore) {
        (&mut self.problem, &mut self.store)
    }

    /// The configured options.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Installs an explicit [`crate::SweepPlan`] on the problem; every
    /// backend executes it from the next block on.
    ///
    /// # Panics
    /// If the plan was built for a different graph shape.
    pub fn set_plan(&mut self, plan: crate::SweepPlan) {
        self.problem.set_plan(plan);
    }

    /// Measures this problem's per-operator and per-sweep costs with
    /// `planner`, compiles the measured fused plan, installs it, and
    /// returns the installed plan — the one-call route to cost-model
    /// scheduling (the paper's future-work item 2).
    pub fn plan_measured(&mut self, planner: &crate::Planner) -> &crate::SweepPlan {
        let plan = planner.plan(&self.problem);
        self.problem.set_plan(plan);
        self.problem.plan().expect("plan was just installed")
    }

    /// Enables online re-planning: at each residual check the policy
    /// counts the block, periodically re-measures sweep costs, and on
    /// drift recompiles the plan and asks the backend to
    /// [`SweepExecutor::repartition`] — the planner kept live across the
    /// whole solve instead of frozen at startup. See
    /// [`crate::ReplanPolicy`].
    pub fn set_replan_policy(&mut self, policy: ReplanPolicy) {
        self.replan = Some((policy, ReplanState::default()));
    }

    /// Disables online re-planning (the currently installed plan stays).
    pub fn clear_replan_policy(&mut self) {
        self.replan = None;
    }

    /// Replan bookkeeping (blocks seen, replans installed), when a
    /// policy is active.
    pub fn replan_state(&self) -> Option<&ReplanState> {
        self.replan.as_ref().map(|(_, s)| s)
    }

    /// Randomizes all state uniformly in `[lo, hi)` from a deterministic
    /// seed — the analogue of the paper's `initialize_X_N_Z_M_U_rand`.
    pub fn init_random(&mut self, lo: f64, hi: f64, seed: u64) {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).max(1);
        self.store.init_uniform(lo, hi, move || {
            // xorshift64*: fast, deterministic, good enough for init noise.
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            (s.wrapping_mul(0x2545f4914f6cdd1d) >> 11) as f64 / (1_u64 << 53) as f64
        });
    }

    /// Current residuals (an O(|E|·d) sweep).
    pub fn residuals(&self) -> Residuals {
        Residuals::compute(self.problem.graph(), self.problem.params(), &self.store)
    }

    /// Runs at most `max_iters` iterations, checking the configured
    /// stopping criteria every `check_every` iterations.
    pub fn run(&mut self, max_iters: usize) -> SolverReport {
        self.run_impl(max_iters, None)
    }

    /// Like [`Solver::run`], additionally appending `(iteration,
    /// residuals)` to `trace` at every convergence check — the residual
    /// trace a [`crate::SolveOutcome`] carries.
    pub fn run_traced(
        &mut self,
        max_iters: usize,
        trace: &mut Vec<(usize, Residuals)>,
    ) -> SolverReport {
        self.run_impl(max_iters, Some(trace))
    }

    fn run_impl(
        &mut self,
        max_iters: usize,
        mut trace: Option<&mut Vec<(usize, Residuals)>>,
    ) -> SolverReport {
        let stopping = self.options.stopping;
        let check_every = stopping.check_every;
        let n_components = self.problem.graph().num_edges() * self.problem.graph().dims();
        let mut timings = UpdateTimings::new();
        let mut done = 0usize;
        let mut final_residuals = None;
        let start = Instant::now();
        let mut stop_reason = StopReason::MaxIterations;

        while done < max_iters {
            let block = if check_every == usize::MAX {
                max_iters - done
            } else {
                check_every.max(1).min(max_iters - done)
            };
            self.backend
                .run_block(&self.problem, &mut self.store, block, &mut timings);
            done += block;
            if check_every != usize::MAX {
                let r = self.residuals();
                let conv = r.converged(n_components, stopping.eps_abs, stopping.eps_rel);
                if let Some(t) = trace.as_deref_mut() {
                    t.push((done, r));
                }
                final_residuals = Some(r);
                if conv {
                    stop_reason = StopReason::Converged;
                    break;
                }
                // Online replan between blocks only — never mid-block,
                // so in-flight iterations are undisturbed and the next
                // block starts from a coherent gathered state.
                if let Some((policy, state)) = self.replan.as_mut() {
                    if let Some(costs) = policy.maybe_replan(state, &mut self.problem) {
                        self.backend.repartition(&self.problem, &costs);
                    }
                }
            }
        }
        SolverReport {
            iterations: done,
            stop_reason,
            elapsed: start.elapsed(),
            timings,
            final_residuals,
        }
    }

    /// Runs with the options' own `max_iters` budget.
    pub fn run_default(&mut self) -> SolverReport {
        self.run(self.options.stopping.max_iters)
    }

    /// Consumes the solver and returns the final ADMM state without
    /// copying it — how [`crate::SolveRequest::solve`] hands the state
    /// to its [`crate::SolveOutcome`].
    pub fn into_store(self) -> VarStore {
        self.store
    }

    /// Serializes the full ADMM state (x, m, u, n, z) into a byte buffer
    /// — a mid-solve checkpoint for warm restarts across processes.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        let mut out = Vec::new();
        paradmm_graph::io::encode_store(&self.store, &mut out);
        out
    }

    /// Restores a checkpoint previously produced by
    /// [`Solver::save_checkpoint`] for the same graph shape.
    pub fn load_checkpoint(&mut self, bytes: &[u8]) -> Result<(), paradmm_graph::io::IoError> {
        let store = paradmm_graph::io::decode_store(bytes, self.problem.graph())?;
        self.store = store;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BarrierBackend, RayonBackend, SerialBackend};
    use paradmm_graph::{GraphBuilder, VarId};
    use paradmm_prox::{ProxOp, QuadraticProx};

    fn two_quadratics() -> (FactorGraph, Vec<Box<dyn ProxOp>>) {
        let mut b = GraphBuilder::new(1);
        let v = b.add_var();
        b.add_factor(&[v]);
        b.add_factor(&[v]);
        let proxes: Vec<Box<dyn ProxOp>> = vec![
            Box::new(QuadraticProx::isotropic(1, 1.0, &[1.0])),
            Box::new(QuadraticProx::isotropic(1, 1.0, &[5.0])),
        ];
        (b.build(), proxes)
    }

    #[test]
    fn converges_and_reports() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        let report = solver.run(1000);
        assert_eq!(report.stop_reason, StopReason::Converged);
        assert!(report.iterations < 1000);
        assert!(report.final_residuals.is_some());
        let z = solver.store().z_var(VarId(0));
        assert!((z[0] - 3.0).abs() < 1e-5, "z = {}", z[0]);
    }

    #[test]
    fn fixed_iteration_mode_never_converges_early() {
        let (g, p) = two_quadratics();
        let opts = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(37),
            ..SolverOptions::default()
        };
        let mut solver = Solver::new(g, p, opts);
        let report = solver.run(37);
        assert_eq!(report.iterations, 37);
        assert_eq!(report.stop_reason, StopReason::MaxIterations);
        assert!(report.final_residuals.is_none());
    }

    #[test]
    fn seconds_per_iteration_sane() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        let report = solver.run(20);
        assert!(report.seconds_per_iteration() >= 0.0);
        assert!(report.elapsed.as_secs_f64() < 10.0);
    }

    #[test]
    fn init_random_is_deterministic() {
        let (g, p) = two_quadratics();
        let mut s1 = Solver::new(g, p, SolverOptions::default());
        s1.init_random(-1.0, 1.0, 42);
        let z1 = s1.store().z.clone();

        let (g2, p2) = two_quadratics();
        let mut s2 = Solver::new(g2, p2, SolverOptions::default());
        s2.init_random(-1.0, 1.0, 42);
        assert_eq!(z1, s2.store().z);

        let (g3, p3) = two_quadratics();
        let mut s3 = Solver::new(g3, p3, SolverOptions::default());
        s3.init_random(-1.0, 1.0, 43);
        assert_ne!(z1, s3.store().z);
    }

    #[test]
    fn random_init_still_converges_to_optimum() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        solver.init_random(-10.0, 10.0, 7);
        let report = solver.run(2000);
        assert_eq!(report.stop_reason, StopReason::Converged);
        assert!((solver.store().z_var(VarId(0))[0] - 3.0).abs() < 1e-4);
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identically() {
        let (g, p) = two_quadratics();
        let mut a = Solver::new(g, p, SolverOptions::default());
        a.run(25);
        let snapshot = a.save_checkpoint();
        a.run(25);
        let z_final = a.store().z.clone();

        let (g2, p2) = two_quadratics();
        let mut b = Solver::new(g2, p2, SolverOptions::default());
        b.load_checkpoint(&snapshot).unwrap();
        b.run(25);
        assert_eq!(b.store().z, z_final, "resumed run must be bit-identical");
    }

    #[test]
    fn checkpoint_shape_mismatch_rejected() {
        let (g, p) = two_quadratics();
        let a = Solver::new(g, p, SolverOptions::default());
        let snapshot = a.save_checkpoint();

        let mut builder = paradmm_graph::GraphBuilder::new(2);
        let v = builder.add_var();
        builder.add_factor(&[v]);
        let other: Vec<Box<dyn ProxOp>> = vec![Box::new(paradmm_prox::ZeroProx)];
        let mut b = Solver::new(builder.build(), other, SolverOptions::default());
        assert!(b.load_checkpoint(&snapshot).is_err());
    }

    #[test]
    fn scheduler_swap_preserves_state() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        solver.run(10);
        let z_mid = solver.store().z[0];
        solver.set_backend_spec(BackendSpec::Rayon { threads: Some(2) });
        solver.run(10);
        // State continued from z_mid, not reset.
        assert_ne!(solver.store().z[0], 0.0);
        let _ = z_mid;
    }

    #[test]
    fn with_backend_keeps_typed_access() {
        let (g, p) = two_quadratics();
        let problem = AdmmProblem::new(g, p, 1.0, 1.0);
        let mut solver = Solver::with_backend(
            problem,
            SolverOptions::default(),
            RayonBackend::new(Some(2)),
        );
        assert_eq!(solver.backend().threads(), Some(2));
        let report = solver.run(500);
        assert_eq!(report.stop_reason, StopReason::Converged);
    }

    #[test]
    fn set_backend_swaps_execution_strategy() {
        let (g, p) = two_quadratics();
        let mut solver = Solver::new(g, p, SolverOptions::default());
        solver.run(5);
        solver.set_backend(Box::new(BarrierBackend::new(2)));
        assert_eq!(solver.backend().name(), "barrier");
        solver.set_backend(Box::new(SerialBackend));
        let report = solver.run(1000);
        assert_eq!(report.stop_reason, StopReason::Converged);
    }

    #[test]
    fn all_synchronous_backends_agree_through_solver() {
        let run_with = |backend: &str| {
            let (g, p) = two_quadratics();
            let opts = SolverOptions {
                backend: backend.parse().unwrap(),
                stopping: StoppingCriteria::fixed_iterations(40),
                ..SolverOptions::default()
            };
            let mut solver = Solver::new(g, p, opts);
            solver.run(40);
            solver.store().z.clone()
        };
        let serial = run_with("serial");
        for backend in [
            "rayon:2",
            "barrier:2",
            "worksteal:2",
            "sharded:2",
            "fleet:2",
            "auto:2",
        ] {
            assert_eq!(serial, run_with(backend), "{backend}");
        }
    }

    #[test]
    fn sharded_solver_converges_with_residual_checks() {
        // Residuals are computed from the global store between blocks;
        // the sharded backend's scatter/gather must keep that store (and
        // z_prev, which the dual residual reads) exact.
        use crate::stale::StaleBoundedBackend;
        let (g, p) = two_quadratics();
        let problem = AdmmProblem::new(g, p, 1.0, 1.0);
        let mut solver = Solver::with_backend(
            problem,
            SolverOptions::default(),
            StaleBoundedBackend::new(2, 0),
        );
        let report = solver.run(1000);
        assert_eq!(report.stop_reason, StopReason::Converged);
        assert!(report.final_residuals.is_some());
        let z = solver.store().z_var(VarId(0));
        assert!((z[0] - 3.0).abs() < 1e-5, "z = {}", z[0]);

        // Block-by-block residuals must match a serial solve exactly.
        let (g2, p2) = two_quadratics();
        let mut serial = Solver::new(g2, p2, SolverOptions::default());
        let serial_report = serial.run(1000);
        assert_eq!(report.iterations, serial_report.iterations);
        let (a, b) = (
            report.final_residuals.unwrap(),
            serial_report.final_residuals.unwrap(),
        );
        assert_eq!(a.primal, b.primal);
        assert_eq!(a.dual, b.dual);
    }

    #[test]
    fn auto_backend_typed_access_reports_selection() {
        use crate::backend::AutoBackend;
        let (g, p) = two_quadratics();
        let problem = AdmmProblem::new(g, p, 1.0, 1.0);
        let mut solver =
            Solver::with_backend(problem, SolverOptions::default(), AutoBackend::new(2));
        assert_eq!(solver.backend().selected(), None);
        let report = solver.run(500);
        assert_eq!(report.stop_reason, StopReason::Converged);
        let selected = solver.backend().selected().expect("probe ran");
        assert!(solver
            .backend()
            .probe_report()
            .iter()
            .any(|&(name, _)| name == selected));
    }

    #[test]
    fn replan_policy_measures_and_keeps_iterates_bit_identical() {
        use crate::plan::ReplanPolicy;
        // Replanning changes scheduling only: a replanning solve must be
        // bit-identical to a frozen one on a synchronous backend.
        let (g, p) = two_quadratics();
        let opts = SolverOptions {
            stopping: StoppingCriteria {
                check_every: 5,
                ..StoppingCriteria::fixed_iterations(60)
            },
            ..SolverOptions::default()
        };
        let mut replanned = Solver::new(g, p, opts);
        replanned.set_replan_policy(ReplanPolicy::new(2, 0.25));
        replanned.run(60);
        let state = replanned.replan_state().expect("policy installed");
        assert!(state.blocks_seen >= 2, "policy must see the blocks");
        assert!(state.baseline.is_some(), "cadence must have measured");
        assert!(
            replanned.problem().plan().is_some(),
            "first measurement installs a plan"
        );

        let (g2, p2) = two_quadratics();
        let mut frozen = Solver::new(g2, p2, opts);
        frozen.run(60);
        assert_eq!(frozen.store().z, replanned.store().z);
        assert_eq!(frozen.store().u, replanned.store().u);
    }

    #[test]
    fn worksteal_solver_converges_and_checkpoints() {
        use crate::backend::WorkStealingBackend;
        let (g, p) = two_quadratics();
        let problem = AdmmProblem::new(g, p, 1.0, 1.0);
        let mut solver = Solver::with_backend(
            problem,
            SolverOptions::default(),
            WorkStealingBackend::new(3),
        );
        solver.run(25);
        let snapshot = solver.save_checkpoint();
        solver.run(25);
        let z_final = solver.store().z.clone();

        let (g2, p2) = two_quadratics();
        let problem2 = AdmmProblem::new(g2, p2, 1.0, 1.0);
        let mut resumed = Solver::with_backend(
            problem2,
            SolverOptions::default(),
            WorkStealingBackend::new(3),
        );
        resumed.load_checkpoint(&snapshot).unwrap();
        resumed.run(25);
        assert_eq!(resumed.store().z, z_final);
    }
}

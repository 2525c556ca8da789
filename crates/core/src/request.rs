//! The unified solve-request API: one description of "solve this
//! problem, this way" shared by every execution path.
//!
//! [`Solver`] (solo), [`crate::BatchSolver`] (block-diagonal fusion),
//! [`crate::FleetSolver`] (work-assisting fleets) and the
//! `paradmm-serve` service all consume the same [`SolveRequest`] and
//! produce the same [`SolveOutcome`], so callers pick an execution
//! strategy without changing how they describe work:
//!
//! ```
//! use paradmm_core::{AdmmProblem, SolveRequest, StopReason, StoppingCriteria};
//! use paradmm_graph::GraphBuilder;
//! use paradmm_prox::{ProxOp, QuadraticProx};
//!
//! let mut b = GraphBuilder::new(1);
//! let v = b.add_var();
//! b.add_factor(&[v]);
//! b.add_factor(&[v]);
//! let proxes: Vec<Box<dyn ProxOp>> = vec![
//!     Box::new(QuadraticProx::isotropic(1, 1.0, &[1.0])),
//!     Box::new(QuadraticProx::isotropic(1, 1.0, &[5.0])),
//! ];
//! let problem = AdmmProblem::new(b.build(), proxes, 1.0, 1.0);
//!
//! let outcome = SolveRequest::new(problem)
//!     .with_stopping(StoppingCriteria::default())
//!     .with_backend("serial".parse().unwrap())
//!     .solve();
//! assert_eq!(outcome.stop_reason, StopReason::Converged);
//! ```
//!
//! Deadlines and priorities are *scheduling hints*: they never change
//! the numerics (a request's iterates stay bit-identical to a solo
//! serial solve regardless), only the order and lane in which the
//! serving engine runs requests.

use std::time::Duration;

use paradmm_graph::VarStore;

use crate::plan::SweepPlan;
use crate::problem::AdmmProblem;
use crate::residuals::{Residuals, StoppingCriteria};
use crate::solver::{Solver, SolverOptions, StopReason};
use crate::spec::BackendSpec;

/// Scheduling urgency of a request — a hint consumed by the serving
/// engine's admission queue (higher priorities join batches first;
/// `Critical` skips batch coalescing entirely). Ordered: `Low <
/// Normal < High < Critical`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Background work; yields to everything else.
    Low,
    /// The default.
    #[default]
    Normal,
    /// Jumps ahead of normal traffic at repack boundaries.
    High,
    /// Latency-critical: served on a dedicated fleet round instead of
    /// waiting for batch coalescing.
    Critical,
}

impl Priority {
    /// Stable wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
            Priority::Critical => 3,
        }
    }

    /// Inverse of [`Priority::as_u8`].
    pub fn from_u8(v: u8) -> Option<Priority> {
        match v {
            0 => Some(Priority::Low),
            1 => Some(Priority::Normal),
            2 => Some(Priority::High),
            3 => Some(Priority::Critical),
            _ => None,
        }
    }
}

/// One unit of solve work: a problem plus every option that shapes how
/// it is executed. Built with `with_*` chaining; consumed by
/// [`SolveRequest::solve`] (solo), the batch/fleet adapters
/// ([`crate::BatchSolver::solve_requests`],
/// [`crate::FleetSolver::solve_requests`]), or the serving engine.
pub struct SolveRequest {
    problem: AdmmProblem,
    stopping: StoppingCriteria,
    backend: BackendSpec,
    warm_start: Option<VarStore>,
    plan: Option<SweepPlan>,
    deadline: Option<Duration>,
    priority: Priority,
}

/// [`SolveRequest`] destructured into its fields — what an execution
/// engine takes ownership of (the request type keeps its fields
/// private so the builder stays the only construction path).
pub struct SolveRequestParts {
    /// The problem to solve.
    pub problem: AdmmProblem,
    /// Convergence/budget policy.
    pub stopping: StoppingCriteria,
    /// Execution backend descriptor.
    pub backend: BackendSpec,
    /// Initial state instead of zeros.
    pub warm_start: Option<VarStore>,
    /// Explicit iteration schedule override.
    pub plan: Option<SweepPlan>,
    /// Completion deadline relative to admission (scheduling hint).
    pub deadline: Option<Duration>,
    /// Scheduling urgency (hint).
    pub priority: Priority,
}

impl SolveRequest {
    /// A request with default options: default stopping criteria,
    /// serial backend, zero initialization, no deadline, normal
    /// priority.
    pub fn new(problem: AdmmProblem) -> Self {
        SolveRequest {
            problem,
            stopping: StoppingCriteria::default(),
            backend: BackendSpec::Serial,
            warm_start: None,
            plan: None,
            deadline: None,
            priority: Priority::Normal,
        }
    }

    /// Sets the convergence/budget policy.
    pub fn with_stopping(mut self, stopping: StoppingCriteria) -> Self {
        self.stopping = stopping;
        self
    }

    /// Sets the execution backend.
    pub fn with_backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Seeds the solve with `store` instead of zeros.
    ///
    /// # Panics
    /// If the store is not shaped for this request's graph.
    pub fn with_warm_start(mut self, store: VarStore) -> Self {
        let g = self.problem.graph();
        assert_eq!(store.dims(), g.dims(), "warm start dims mismatch");
        assert_eq!(store.num_edges(), g.num_edges(), "warm start edge count");
        assert_eq!(store.num_vars(), g.num_vars(), "warm start var count");
        self.warm_start = Some(store);
        self
    }

    /// Installs an explicit iteration schedule (a measured
    /// [`SweepPlan`]) instead of the default fused plan.
    pub fn with_plan(mut self, plan: SweepPlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// Declares a completion deadline relative to admission — a
    /// scheduling hint for the serving engine (deadline-aware join
    /// ordering), never a mid-solve abort.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the scheduling urgency.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// The problem to solve.
    pub fn problem(&self) -> &AdmmProblem {
        &self.problem
    }

    /// The convergence/budget policy.
    pub fn stopping(&self) -> &StoppingCriteria {
        &self.stopping
    }

    /// The execution backend descriptor.
    pub fn backend(&self) -> BackendSpec {
        self.backend
    }

    /// The warm-start state, if any.
    pub fn warm_start(&self) -> Option<&VarStore> {
        self.warm_start.as_ref()
    }

    /// The deadline hint, if any.
    pub fn deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// The scheduling urgency.
    pub fn priority(&self) -> Priority {
        self.priority
    }

    /// Destructures the request for an execution engine.
    pub fn into_parts(self) -> SolveRequestParts {
        SolveRequestParts {
            problem: self.problem,
            stopping: self.stopping,
            backend: self.backend,
            warm_start: self.warm_start,
            plan: self.plan,
            deadline: self.deadline,
            priority: self.priority,
        }
    }

    /// Solves this request solo on its configured backend, recording
    /// the residual trace — the reference execution path every other
    /// engine (batch, fleet, serving) is bit-identical to.
    pub fn solve(self) -> SolveOutcome {
        let parts = self.into_parts();
        let options = SolverOptions {
            backend: parts.backend,
            stopping: parts.stopping,
            ..SolverOptions::default()
        };
        let mut problem = parts.problem;
        if let Some(plan) = parts.plan {
            problem.set_plan(plan);
        }
        let mut solver = Solver::from_problem(problem, options);
        if let Some(ws) = parts.warm_start {
            *solver.store_mut() = ws;
        }
        let mut trace = Vec::new();
        let report = solver.run_traced(parts.stopping.max_iters, &mut trace);
        SolveOutcome {
            store: solver.into_store(),
            iterations: report.iterations,
            stop_reason: report.stop_reason,
            final_residuals: report.final_residuals,
            residual_trace: trace,
            elapsed: report.elapsed,
        }
    }
}

/// Destructures a request group into the inputs a multi-instance
/// engine needs, enforcing that the group agrees on stopping criteria
/// and backend (one fused/fleet execution has one of each). Returns
/// `(problems, warm_starts, stopping, backend)`.
///
/// # Panics
/// If `requests` is empty or any request disagrees with the first on
/// stopping criteria or backend.
pub(crate) fn group_parts(
    requests: Vec<SolveRequest>,
) -> (
    Vec<AdmmProblem>,
    Vec<Option<VarStore>>,
    StoppingCriteria,
    BackendSpec,
) {
    assert!(
        !requests.is_empty(),
        "request group needs at least one request"
    );
    let stopping = requests[0].stopping;
    let backend = requests[0].backend;
    let mut problems = Vec::with_capacity(requests.len());
    let mut warm = Vec::with_capacity(requests.len());
    for (i, request) in requests.into_iter().enumerate() {
        assert_eq!(
            request.stopping, stopping,
            "request {i} disagrees on stopping criteria with the group"
        );
        assert_eq!(
            request.backend, backend,
            "request {i} disagrees on backend with the group"
        );
        let parts = request.into_parts();
        problems.push(parts.problem);
        warm.push(parts.warm_start);
    }
    (problems, warm, stopping, backend)
}

/// What came back from executing a [`SolveRequest`], whichever engine
/// ran it.
#[derive(Debug, Clone)]
pub struct SolveOutcome {
    /// Final ADMM state.
    pub store: VarStore,
    /// Iterations executed.
    pub iterations: usize,
    /// Why iteration stopped.
    pub stop_reason: StopReason,
    /// Residuals at the final check (if any check ran).
    pub final_residuals: Option<Residuals>,
    /// `(iteration, residuals)` at every convergence check, in order.
    /// Solo solves record the full trace; batch/fleet/serving engines
    /// (which check per-instance residuals out-of-line) leave it empty
    /// and report only `final_residuals`.
    pub residual_trace: Vec<(usize, Residuals)>,
    /// Wall-clock time of the execution that produced this outcome (for
    /// batched engines: the whole batch's wall clock, not a
    /// per-instance share).
    pub elapsed: Duration,
}

impl SolveOutcome {
    /// Whether the solve converged.
    pub fn converged(&self) -> bool {
        self.stop_reason == StopReason::Converged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

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

    #[test]
    fn request_solve_matches_solver_run_bitwise() {
        let mut solver = Solver::from_problem(
            consensus_problem(&[1.0, 5.0, 9.0]),
            SolverOptions::default(),
        );
        let report = solver.run(1000);

        let outcome = SolveRequest::new(consensus_problem(&[1.0, 5.0, 9.0])).solve();
        assert_eq!(outcome.iterations, report.iterations);
        assert_eq!(outcome.stop_reason, report.stop_reason);
        assert_eq!(outcome.store.z, solver.store().z);
        assert_eq!(outcome.store.u, solver.store().u);
        let (a, b) = (
            outcome.final_residuals.unwrap(),
            report.final_residuals.unwrap(),
        );
        assert_eq!(a.primal, b.primal);
        assert_eq!(a.dual, b.dual);
    }

    #[test]
    fn residual_trace_covers_every_check() {
        let stopping = StoppingCriteria {
            max_iters: 100,
            eps_abs: 1e-12,
            eps_rel: 1e-12,
            check_every: 10,
        };
        let outcome = SolveRequest::new(consensus_problem(&[1.0, 5.0]))
            .with_stopping(stopping)
            .solve();
        let iters: Vec<usize> = outcome.residual_trace.iter().map(|(i, _)| *i).collect();
        let checks = outcome.iterations / 10;
        assert!(checks >= 2, "expected several checks, got {iters:?}");
        assert_eq!(iters, (1..=checks).map(|k| k * 10).collect::<Vec<_>>());
        let (last_iter, last_r) = outcome.residual_trace.last().unwrap();
        assert_eq!(*last_iter, outcome.iterations);
        assert_eq!(last_r.primal, outcome.final_residuals.unwrap().primal);
    }

    #[test]
    fn fixed_iteration_requests_skip_checks() {
        let outcome = SolveRequest::new(consensus_problem(&[1.0, 5.0]))
            .with_stopping(StoppingCriteria::fixed_iterations(23))
            .solve();
        assert_eq!(outcome.iterations, 23);
        assert_eq!(outcome.stop_reason, StopReason::MaxIterations);
        assert!(outcome.residual_trace.is_empty());
        assert!(outcome.final_residuals.is_none());
    }

    #[test]
    fn warm_start_continues_a_cold_run() {
        let stopping = StoppingCriteria::fixed_iterations(50);
        let full = SolveRequest::new(consensus_problem(&[1.0, 5.0, 9.0]))
            .with_stopping(stopping)
            .solve();

        let half = SolveRequest::new(consensus_problem(&[1.0, 5.0, 9.0]))
            .with_stopping(StoppingCriteria::fixed_iterations(25))
            .solve();
        let resumed = SolveRequest::new(consensus_problem(&[1.0, 5.0, 9.0]))
            .with_stopping(StoppingCriteria::fixed_iterations(25))
            .with_warm_start(half.store)
            .solve();
        assert_eq!(resumed.store.z, full.store.z);
        assert_eq!(resumed.store.n, full.store.n);
    }

    #[test]
    fn backend_spec_is_honored() {
        let serial = SolveRequest::new(consensus_problem(&[1.0, 5.0, 9.0])).solve();
        let parallel = SolveRequest::new(consensus_problem(&[1.0, 5.0, 9.0]))
            .with_backend("worksteal:2".parse().unwrap())
            .solve();
        assert_eq!(serial.store.z, parallel.store.z, "bit-identical backends");
        assert_eq!(serial.iterations, parallel.iterations);
    }

    #[test]
    fn priority_ordering_and_wire_encoding() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert!(Priority::High < Priority::Critical);
        for p in [
            Priority::Low,
            Priority::Normal,
            Priority::High,
            Priority::Critical,
        ] {
            assert_eq!(Priority::from_u8(p.as_u8()), Some(p));
        }
        assert_eq!(Priority::from_u8(9), None);
    }

    #[test]
    #[should_panic(expected = "warm start")]
    fn misshapen_warm_start_rejected() {
        let other = consensus_problem(&[1.0]);
        let store = VarStore::zeros(other.graph());
        let _ = SolveRequest::new(consensus_problem(&[1.0, 5.0])).with_warm_start(store);
    }
}

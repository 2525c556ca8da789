//! The message-passing ADMM engine (the paper's Algorithm 2).
//!
//! Each iteration performs five sweeps over the factor graph, every one of
//! them embarrassingly parallel:
//!
//! ```text
//! for a ∈ F:      x(a,∂a) ← Prox_{f_a, ρ(a,·)}(n(a,·))      // x-update
//! for (a,b) ∈ E:  m(a,b) ← x(a,b) + u(a,b)                  // m-update
//! for b ∈ V:      z_b ← Σ_{a∈∂b} ρ(a,b) m(a,b) / Σ ρ(a,b)   // z-update
//! for (a,b) ∈ E:  u(a,b) ← u(a,b) + α(a,b)(x(a,b) − z_b)    // u-update
//! for (a,b) ∈ E:  n(a,b) ← z_b − u(a,b)                     // n-update
//! ```
//!
//! The iteration is *compiled*, not hardcoded: a [`SweepPlan`] (see
//! [`plan`]) groups the five sweeps into fused passes — by default
//! `x+m | z | u+n`, three synchronization points instead of five, with
//! a double-buffered `z`/`z_prev` swap in place of the per-iteration
//! snapshot copy — and a measuring [`Planner`] can weight its chunking
//! and static splits with per-operator costs. A [`SweepExecutor`]
//! *backend* decides how the plan's passes map onto hardware:
//!
//! * [`SerialBackend`] — the optimized single-core baseline the paper
//!   measures speedups against,
//! * [`RayonBackend`] — one parallel loop per pass (the paper's
//!   faster OpenMP approach #1),
//! * [`BarrierBackend`] — persistent workers with barrier
//!   synchronization between passes (OpenMP approach #2,
//!   implemented to reproduce the paper's finding that it is slower),
//! * [`WorkStealingBackend`] — persistent workers claiming each pass's
//!   chunks from a shared atomic work index (fixes approach #2's
//!   static-range straggler problem),
//! * [`StaleBoundedBackend`] — partition-local stores with one worker
//!   per shard, a real per-iteration halo exchange, and progress
//!   watermarks instead of barriers (the paper's multi-device
//!   future-work item 3, executed instead of priced). Halo reads may be
//!   up to `k` iterations stale: `k = 0` is the bit-identical `sharded`
//!   executor, `k = 1` the convergent `async` one (future-work item 1),
//! * [`FleetBackend`] — barrier-free work-assisting workers claiming
//!   chunks from a per-instance watermarked counter; the same scheduler
//!   runs whole heterogeneous fleets through [`FleetSolver`],
//! * [`AutoBackend`] — probes the synchronous backends on the actual
//!   problem and locks in the fastest (the paper's "automatic tuning"
//!   future-work made concrete),
//! * `paradmm-gpusim`'s adapter — the same numerics against a simulated
//!   SIMT device clock, one kernel launch per pass.
//!
//! [`BackendSpec`] is the one descriptor for the built-in backends: its
//! text form (`serial`, `sharded:4`, `auto`, …) parses, displays and
//! builds the executor it names. New execution strategies implement
//! [`SweepExecutor`] and plug into the same [`Solver`] loop.
//!
//! For many *small independent* problems (batched serving), the
//! [`BatchSolver`] packs instances into one block-diagonal fused store
//! and drives it through any backend, with per-instance residual
//! tracking and early-exit freezing — see [`batch`]. For
//! *heterogeneous* fleets (mixed sizes, even mixed `dims`), the
//! work-assisting [`FleetSolver`] keeps instances separate and lets
//! idle workers assist whichever instance still has sweep work — see
//! [`fleet`].
//!
//! Users write only serial proximal operators ([`paradmm_prox::ProxOp`]);
//! no parallel code is ever required — the paper's headline usability
//! claim.

pub mod adaptive;
pub mod backend;
pub mod batch;
pub mod diagnostics;
pub mod fleet;
pub mod kernels;
pub mod naive;
pub mod plan;
pub mod problem;
pub mod request;
pub mod residuals;
pub mod solver;
pub mod spec;
pub mod stale;
pub mod timing;
pub mod twa;

pub use adaptive::ResidualBalancing;
pub use backend::{
    barriers_per_iteration, AutoBackend, BarrierBackend, RayonBackend, SerialBackend,
    SweepExecutor, WorkStealingBackend, DEFAULT_STEAL_CHUNK,
};
pub use batch::{BatchReport, BatchSolver, InstanceReport};
pub use diagnostics::{
    fleet_report, plan_report, run_trace_json, FleetDiagnostics, FleetWorkerStats, Trace,
    TracePoint,
};
pub use fleet::{FleetBackend, FleetSolver};
pub use kernels::{kernel_dispatch, set_kernel_dispatch, KernelDispatch, UpdateKind};
pub use paradmm_prox::{ProxCtx, ProxOp};
pub use plan::{
    Pass, PassKind, PassSpace, PlanError, Planner, ReplanPolicy, ReplanState, SweepPlan,
};
pub use problem::AdmmProblem;
pub use request::{Priority, SolveOutcome, SolveRequest, SolveRequestParts};
pub use residuals::{Residuals, StoppingCriteria};
pub use solver::{Solver, SolverOptions, SolverReport, StopReason};
pub use spec::{BackendSpec, ParseBackendSpecError, BACKEND_FAMILIES};
pub use stale::{watermark, StaleBoundedBackend};
pub use timing::{SweepCosts, UpdateTimings};
pub use twa::{TwaWeights, WeightClass};

/// Tests of the `sharded[:N]` backend family built through [`BackendSpec`].
#[cfg(test)]
mod sharded {
    mod tests;
}

//! Work-assisting two-level scheduler for heterogeneous instance
//! fleets: outer parallelism *across* independent problems, inner
//! parallelism *within* whichever problem still has sweep work.
//!
//! [`crate::BatchSolver`] (block-diagonal fusion) is the right tool for
//! fleets of near-uniform instances: one fused store, one barrier per
//! pass, launches amortized over everything. Its weakness is exactly
//! the heterogeneous case — a pack-wide barrier means one large or
//! slow-converging instance stalls every worker, and every early-exit
//! freeze pays a dense repack (full state copy + fused-graph rebuild).
//! This module keeps the instances **separate** and replaces the
//! pack-wide barrier with per-instance watermarks:
//!
//! * **Outer level** — each instance is a unit of work with its own
//!   resolved [`SweepPlan`], its own claim counters, and its own
//!   pass/iteration watermark, so synchronization is instance-local:
//!   workers advancing instance A never wait on instance B.
//! * **Inner level** — when a worker finds its claimed instance's
//!   current pass exhausted, it *assists*: an atomic fleet work-index
//!   seeds the initial assignment and an assist scan routes the worker
//!   to the instance with the most remaining chunks in its open pass,
//!   so big instances attract many workers while small ones run solo.
//!   Converged instances simply retire from the scan — no repack.
//!
//! The per-instance scheduling state is one `AtomicU64` encoding
//! `(seq << 32) | next_chunk`, where `seq = iter · n_passes + pass`
//! is the instance's watermark. Claims CAS the low half (the
//! work-stealing chunk-counter idiom lifted from per-pass to
//! per-instance-per-pass; the sequence number in the same word kills
//! the ABA hazard a stalled worker would otherwise pose), and a pair
//! of parity-indexed completion counters detects the last chunk of a
//! pass, whose finisher advances the watermark with a release store —
//! cross-pass happens-before without any barrier. See the
//! `InstanceExec` internals for the full protocol argument.
//!
//! Execution goes through the shared `SweepArrays::run_pass` kernel
//! dispatcher, so scalar/specialized kernels, fused passes, and the
//! z-buffer parity rotation all carry over unchanged — per-instance
//! iterates are **bit-identical** to a solo serial solve (chunks tile
//! each pass exactly, passes run in plan order per instance, and
//! Algorithm 2's Jacobi data flow is schedule-independent), which
//! `tests/backend_equivalence.rs` pins.
//!
//! Two entry points: [`FleetBackend`] runs a single problem as a
//! one-instance fleet (a barrier-free [`SweepExecutor`], also an
//! [`crate::AutoBackend`] candidate), and [`FleetSolver`] drives a
//! whole fleet with per-instance residuals and stop reasons — unlike
//! [`crate::BatchSolver`], the instances may even disagree on `dims`,
//! since nothing is fused.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use paradmm_graph::{FleetLayout, VarStore};

use crate::backend::{SweepArrays, SweepExecutor};
use crate::batch::{BatchReport, InstanceReport};
use crate::diagnostics::{FleetDiagnostics, FleetWorkerStats};
use crate::kernels::UpdateKind;
use crate::plan::SweepPlan;
use crate::problem::AdmmProblem;
use crate::residuals::Residuals;
use crate::solver::{SolverOptions, StopReason};
use crate::spec::{default_threads, BackendSpec};
use crate::timing::UpdateTimings;

/// Outcome of one claim attempt on an instance.
enum Claim {
    /// A chunk was claimed and executed; the instance may have more.
    Ran,
    /// The open pass is fully claimed (chunks may still be in flight);
    /// nothing to do here until the watermark advances.
    Drained,
    /// The instance reached its round target; it has retired.
    Finished,
}

/// One active instance's scheduling state for a round of `iters`
/// iterations.
///
/// # Concurrency protocol
///
/// `state` encodes `(seq << 32) | next_chunk` with
/// `seq = iter · n_passes + pass_index` — the instance-local watermark.
/// Workers claim with a CAS of the whole word (`state → state + 1`), so
/// a claim is valid only for the exact `(seq, chunk)` it observed; a
/// stalled worker's stale CAS fails because `seq` is monotone (the ABA
/// the plain double-buffered counter idiom would suffer when lifted off
/// its barrier). After executing its chunk, a worker bumps
/// `done[seq & 1]` with an `AcqRel` RMW; the worker whose bump reaches
/// the pass's chunk count is the *finisher*: it zeroes the other parity
/// buffer (safe — that buffer's pass completed one watermark ago and
/// every claimed chunk increments exactly once, so no late increments
/// exist) and advances `state` to `(seq + 1) << 32` with a release
/// store.
///
/// Happens-before: each chunk's array writes precede its `done` RMW;
/// the RMW chain transfers them to the finisher; the finisher's release
/// store on `state` transfers the whole pass to any worker whose
/// acquire load (or CAS) observes `seq + 1`. So every write of pass `k`
/// is visible to every reader in pass `k + 1` — the obligation
/// [`SweepArrays::run_pass`] states — with no barrier anywhere.
///
/// Empty passes still cost one no-op chunk (`n_chunks ≥ 1`), so the
/// watermark always has a finisher and can never deadlock.
struct InstanceExec<'a> {
    arrays: SweepArrays<'a>,
    plan: std::borrow::Cow<'a, SweepPlan>,
    n_passes: usize,
    /// Per-pass claim granularity (graph elements per chunk).
    chunks: Vec<usize>,
    /// Per-pass chunk count (`≥ 1` even for empty passes).
    n_chunks: Vec<usize>,
    /// `iters · n_passes`: the watermark value at which this round's
    /// work for the instance is complete.
    target_seq: u64,
    /// `(seq << 32) | next_chunk` — see the protocol above.
    state: AtomicU64,
    /// Completed-chunk counters, indexed by `seq & 1`.
    done: [AtomicUsize; 2],
    /// Fleet-wide instance id, for telemetry.
    global: usize,
}

impl InstanceExec<'_> {
    /// Claimable chunks remaining in the open pass (0 when finished or
    /// drained) — the assist-routing heuristic. Relaxed loads suffice:
    /// any actual claim re-validates through the CAS.
    fn remaining_chunks(&self) -> u64 {
        let (seq, c) = decode(self.state.load(Ordering::Relaxed));
        if seq >= self.target_seq {
            return 0;
        }
        let p = (seq % self.n_passes as u64) as usize;
        (self.n_chunks[p] as u64).saturating_sub(c)
    }

    /// Whether the instance completed its round target.
    fn finished(&self) -> bool {
        decode(self.state.load(Ordering::Acquire)).0 >= self.target_seq
    }

    /// Attempts to claim and execute one chunk of the open pass.
    fn try_chunk(&self, stats: &mut FleetWorkerStats) -> Claim {
        loop {
            let s = self.state.load(Ordering::Acquire);
            let (seq, c) = decode(s);
            if seq >= self.target_seq {
                return Claim::Finished;
            }
            let p = (seq % self.n_passes as u64) as usize;
            if c >= self.n_chunks[p] as u64 {
                return Claim::Drained;
            }
            if self
                .state
                .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                continue; // lost the race (or advanced) — re-read
            }
            let pass = &self.plan.passes()[p];
            let iter = (seq / self.n_passes as u64) as usize;
            let chunk = self.chunks[p];
            let lo = ((c as usize) * chunk).min(pass.items());
            let hi = (lo + chunk).min(pass.items());
            // SAFETY: the CAS ticket makes (seq, c) unique, so chunk
            // ranges within a pass are pairwise disjoint and tile the
            // pass exactly; passes of this instance are totally ordered
            // by the watermark with the release/acquire edge documented
            // on the struct standing in for a barrier; `iter` derives
            // the z-buffer parity from the shared watermark, so every
            // worker agrees on it. Other instances' workers touch other
            // stores entirely.
            unsafe { self.arrays.run_pass(pass, iter, lo, hi) };
            stats.chunks_by_instance[self.global] += 1;

            let parity = (seq & 1) as usize;
            let finished = self.done[parity].fetch_add(1, Ordering::AcqRel) + 1;
            if finished == self.n_chunks[p] {
                // Last chunk of the pass: recycle the other parity
                // buffer for pass seq+1 (its previous user, pass seq−1,
                // fully completed before pass seq could open), then
                // publish the advanced watermark.
                self.done[parity ^ 1].store(0, Ordering::Relaxed);
                self.state.store((seq + 1) << 32, Ordering::Release);
            }
            return Claim::Ran;
        }
    }
}

fn decode(state: u64) -> (u64, u64) {
    (state >> 32, state & 0xffff_ffff)
}

/// One instance's view handed to [`run_round`]: the problem, its
/// mutable state, and its fleet-wide id for telemetry.
pub(crate) struct RoundInstance<'a> {
    pub(crate) global: usize,
    pub(crate) problem: &'a AdmmProblem,
    pub(crate) store: &'a mut VarStore,
}

/// Claims chunks across `execs` until every instance reaches its round
/// target. Workers stick to their current instance while it has
/// claimable work (locality), then assist the instance with the most
/// remaining chunks in its open pass; with nothing claimable anywhere
/// they spin briefly and yield (some chunks are still in flight).
fn worker_loop(
    execs: &[InstanceExec<'_>],
    cursor: &AtomicUsize,
    n_globals: usize,
) -> FleetWorkerStats {
    let mut stats = FleetWorkerStats::new(n_globals);
    let mut cur = cursor.fetch_add(1, Ordering::Relaxed) % execs.len();
    let mut spins = 0u32;
    loop {
        match execs[cur].try_chunk(&mut stats) {
            Claim::Ran => spins = 0,
            Claim::Drained | Claim::Finished => {
                // Assist routing: most remaining chunks wins, so big
                // instances attract many workers while small ones run
                // (nearly) solo. Ties break toward the lowest index.
                let mut best: Option<(usize, u64)> = None;
                for (j, e) in execs.iter().enumerate() {
                    let r = e.remaining_chunks();
                    if r > 0 && best.is_none_or(|(_, br)| r > br) {
                        best = Some((j, r));
                    }
                }
                match best {
                    Some((j, _)) => {
                        if j != cur {
                            stats.migrations += 1;
                            cur = j;
                        }
                        spins = 0;
                    }
                    None => {
                        if execs.iter().all(|e| e.finished()) {
                            break;
                        }
                        // Open passes exist but are fully claimed — the
                        // last chunks are in flight on other workers.
                        // Spin briefly, then yield the core to them
                        // (essential on oversubscribed hosts).
                        stats.idle_spins += 1;
                        spins += 1;
                        if spins < 16 {
                            std::hint::spin_loop();
                        } else {
                            std::thread::yield_now();
                        }
                    }
                }
            }
        }
    }
    stats
}

/// Runs `iters` iterations of every instance with `threads` persistent
/// workers and work-assisting scheduling; the shared round driver under
/// both [`FleetBackend`] and [`FleetSolver`].
///
/// Each instance resolves its own [`SweepPlan`] and advances through it
/// independently; an odd `iters` leaves every instance's iterate in the
/// `z_prev` buffer (the parity rotation's other half), which is
/// normalized here per instance, as the barrier/worksteal drivers do.
pub(crate) fn run_round(
    instances: &mut [RoundInstance<'_>],
    iters: usize,
    threads: usize,
    chunk_override: Option<usize>,
    diag: &mut FleetDiagnostics,
) {
    if instances.is_empty() || iters == 0 {
        return;
    }
    assert!(threads >= 1, "fleet scheduling needs at least one worker");
    let n_globals = instances.iter().map(|r| r.global + 1).max().unwrap_or(0);
    let execs: Vec<InstanceExec<'_>> = instances
        .iter_mut()
        .map(|ri| {
            let problem = ri.problem;
            let plan = SweepPlan::resolve(problem);
            let arrays = SweepArrays::new(problem, ri.store);
            let n_passes = plan.passes().len();
            let chunks: Vec<usize> = plan
                .passes()
                .iter()
                .map(|p| chunk_override.unwrap_or_else(|| p.chunk()))
                .collect();
            let n_chunks: Vec<usize> = plan
                .passes()
                .iter()
                .zip(&chunks)
                .map(|(p, &c)| p.items().div_ceil(c).max(1))
                .collect();
            assert!(
                iters as u64 * n_passes as u64 <= u32::MAX as u64,
                "round too long for the 32-bit watermark"
            );
            InstanceExec {
                arrays,
                plan,
                n_passes,
                chunks,
                n_chunks,
                target_seq: (iters * n_passes) as u64,
                state: AtomicU64::new(0),
                done: Default::default(),
                global: ri.global,
            }
        })
        .collect();

    // The fleet work-index: seeds each worker's starting instance
    // round-robin; reassignment afterwards is the assist scan.
    let cursor = AtomicUsize::new(0);
    let per_worker: Vec<FleetWorkerStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let execs = &execs;
                let cursor = &cursor;
                scope.spawn(move || worker_loop(execs, cursor, n_globals))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("fleet worker panicked"))
            .collect()
    });
    drop(execs); // release the raw array views before touching stores
    if iters % 2 == 1 {
        for ri in instances.iter_mut() {
            ri.store.swap_z();
        }
    }
    diag.record_round(per_worker);
}

/// The work-assisting scheduler as a [`SweepExecutor`]: a single
/// problem run as a one-instance fleet. No barriers — workers claim
/// chunks from the instance's watermarked counter and the pass advances
/// when its last chunk completes, so a straggling worker never idles
/// the others at a synchronization point. Bit-identical to
/// [`crate::SerialBackend`] (see the module docs).
///
/// Wall time is recorded under [`UpdateKind::X`]: workers interleave
/// passes, so per-kind attribution is not separable.
#[derive(Debug)]
pub struct FleetBackend {
    threads: usize,
    chunk: Option<usize>,
    diagnostics: FleetDiagnostics,
}

impl FleetBackend {
    /// Backend with `threads` work-assisting workers claiming each
    /// pass's own [`crate::Pass::chunk`] granularity.
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "fleet backend needs at least one thread");
        FleetBackend {
            threads,
            chunk: None,
            diagnostics: FleetDiagnostics::new(),
        }
    }

    /// Backend with an explicit chunk size overriding every pass's own
    /// granularity (smaller chunks rebalance harder).
    ///
    /// # Panics
    /// If `threads == 0` or `chunk == 0`.
    pub fn with_chunk(threads: usize, chunk: usize) -> Self {
        assert!(threads >= 1, "fleet backend needs at least one thread");
        assert!(chunk >= 1, "chunk size must be positive");
        FleetBackend {
            threads,
            chunk: Some(chunk),
            diagnostics: FleetDiagnostics::new(),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Accumulated per-worker assist telemetry (chunks claimed,
    /// migrations, idle spins) — see [`crate::diagnostics::fleet_report`].
    pub fn diagnostics(&self) -> &FleetDiagnostics {
        &self.diagnostics
    }
}

impl SweepExecutor for FleetBackend {
    fn name(&self) -> &'static str {
        "fleet"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        let t0 = Instant::now();
        let mut round = [RoundInstance {
            global: 0,
            problem,
            store,
        }];
        run_round(
            &mut round,
            iters,
            self.threads,
            self.chunk,
            &mut self.diagnostics,
        );
        t.add(UpdateKind::X, t0.elapsed());
    }
}

/// One fleet instance's problem, state, and bookkeeping.
struct FleetSlot {
    problem: AdmmProblem,
    store: VarStore,
    active: bool,
    iterations: usize,
    stop_reason: Option<StopReason>,
    final_residuals: Option<Residuals>,
    /// Per-instance replan bookkeeping (costs drift independently per
    /// instance, so each keeps its own baseline and cadence counter).
    replan_state: crate::plan::ReplanState,
}

/// Drives a fleet of independent [`AdmmProblem`]s to convergence with
/// the work-assisting scheduler — the heterogeneous-fleet counterpart
/// of [`crate::BatchSolver`].
///
/// Differences from batching, all consequences of *not* fusing:
///
/// * instances may disagree on `dims` (nothing is packed);
/// * residual checks are instance-local and a converged instance
///   retires from the assist index immediately — no freeze, no dense
///   repack, no copy;
/// * synchronization is per instance, so one big straggler never
///   stalls the others at a pack-wide barrier — idle workers assist it
///   instead.
///
/// The block schedule mirrors [`crate::Solver::run`] exactly (blocks of
/// `check_every`, residual check after each), which is what makes
/// per-instance iteration counts, stop reasons, and final states
/// bit-identical to solo serial solves. Returns the same
/// [`BatchReport`] shape as batching, so harnesses compare the two
/// directly.
pub struct FleetSolver {
    options: SolverOptions,
    threads: usize,
    chunk: Option<usize>,
    slots: Vec<FleetSlot>,
    /// Largest-cost-first instance order for round construction: big
    /// instances open first, so early claims land where assistance
    /// will be needed.
    order: Vec<usize>,
    layout: FleetLayout,
    started: bool,
    done: usize,
    timings: UpdateTimings,
    diagnostics: FleetDiagnostics,
    elapsed: Duration,
    replan: Option<crate::plan::ReplanPolicy>,
}

impl FleetSolver {
    /// Builds a fleet over `problems` with zero-initialized state. The
    /// worker count comes from [`BackendSpec::Fleet`] when the options
    /// name it with a count, else from the host's available parallelism.
    ///
    /// # Panics
    /// If `problems` is empty.
    pub fn new(problems: Vec<AdmmProblem>, options: SolverOptions) -> Self {
        let threads = match options.backend {
            BackendSpec::Fleet {
                threads: Some(threads),
            } => threads,
            _ => default_threads(),
        };
        Self::with_threads(problems, options, threads)
    }

    /// Builds a fleet with an explicit worker count.
    ///
    /// # Panics
    /// If `problems` is empty or `threads == 0`.
    pub fn with_threads(
        problems: Vec<AdmmProblem>,
        options: SolverOptions,
        threads: usize,
    ) -> Self {
        assert!(!problems.is_empty(), "fleet needs at least one instance");
        assert!(threads >= 1, "fleet needs at least one worker");
        let layout = {
            let graphs: Vec<&paradmm_graph::FactorGraph> =
                problems.iter().map(|p| p.graph()).collect();
            FleetLayout::new(&graphs)
        };
        let order = layout.schedule_order();
        let slots: Vec<FleetSlot> = problems
            .into_iter()
            .map(|problem| {
                let store = VarStore::zeros(problem.graph());
                FleetSlot {
                    problem,
                    store,
                    active: true,
                    iterations: 0,
                    stop_reason: None,
                    final_residuals: None,
                    replan_state: crate::plan::ReplanState::default(),
                }
            })
            .collect();
        FleetSolver {
            options,
            threads,
            chunk: None,
            slots,
            order,
            layout,
            started: false,
            done: 0,
            timings: UpdateTimings::new(),
            diagnostics: FleetDiagnostics::new(),
            elapsed: Duration::ZERO,
            replan: None,
        }
    }

    /// Builds a fleet from a group of [`crate::SolveRequest`]s: the
    /// unified-API entry point. The group must agree on stopping
    /// criteria and backend; unlike [`crate::BatchSolver`] the
    /// instances may disagree on `dims` (nothing is fused). Warm
    /// starts are applied per request; deadline/priority hints are
    /// scheduling metadata for the caller; plan overrides are ignored
    /// (each instance resolves its own plan — identical numerics).
    ///
    /// # Panics
    /// As [`FleetSolver::new`], plus if the group disagrees on
    /// stopping criteria or backend.
    pub fn from_requests(requests: Vec<crate::SolveRequest>) -> Self {
        let (problems, warm, stopping, backend) = crate::request::group_parts(requests);
        let options = SolverOptions {
            backend,
            stopping,
            ..SolverOptions::default()
        };
        let mut fleet = Self::new(problems, options);
        for (i, ws) in warm.into_iter().enumerate() {
            if let Some(store) = ws {
                fleet.warm_start(i, store);
            }
        }
        fleet
    }

    /// Runs a request group to completion and returns one
    /// [`crate::SolveOutcome`] per request, in order — the thin-adapter
    /// form of fleet execution.
    pub fn solve_requests(requests: Vec<crate::SolveRequest>) -> Vec<crate::SolveOutcome> {
        let mut fleet = Self::from_requests(requests);
        let report = fleet.run_default();
        (0..fleet.num_instances())
            .map(|i| {
                let r = &report.instances[i];
                crate::SolveOutcome {
                    store: fleet.store(i).clone(),
                    iterations: r.iterations,
                    stop_reason: r.stop_reason,
                    final_residuals: r.final_residuals,
                    residual_trace: Vec::new(),
                    elapsed: report.elapsed,
                }
            })
            .collect()
    }

    /// Overrides every pass's claim granularity (the
    /// [`FleetBackend::with_chunk`] knob for the whole fleet).
    ///
    /// # Panics
    /// If `chunk == 0`.
    pub fn set_chunk(&mut self, chunk: usize) {
        assert!(chunk >= 1, "chunk size must be positive");
        self.chunk = Some(chunk);
    }

    /// Enables online re-planning for every instance: each slot keeps
    /// its own [`crate::ReplanState`] (baselines drift independently)
    /// and re-measures/recompiles its plan at block boundaries per
    /// `policy`. Replans change scheduling only, so fleet iterates stay
    /// bit-identical to solo solves.
    pub fn set_replan_policy(&mut self, policy: crate::plan::ReplanPolicy) {
        self.replan = Some(policy);
    }

    /// Replan bookkeeping for instance `i`, when a policy is active.
    pub fn replan_state(&self, i: usize) -> Option<&crate::plan::ReplanState> {
        self.replan.map(|_| &self.slots[i].replan_state)
    }

    /// Number of fleet instances.
    pub fn num_instances(&self) -> usize {
        self.slots.len()
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The configured options.
    pub fn options(&self) -> &SolverOptions {
        &self.options
    }

    /// Size statistics over the fleet (per-instance costs, imbalance).
    pub fn layout(&self) -> &FleetLayout {
        &self.layout
    }

    /// Accumulated sweep timings (fleet rounds are recorded under
    /// [`UpdateKind::X`] — workers interleave passes).
    pub fn timings(&self) -> &UpdateTimings {
        &self.timings
    }

    /// Accumulated per-worker assist telemetry.
    pub fn diagnostics(&self) -> &FleetDiagnostics {
        &self.diagnostics
    }

    /// Seeds instance `i` with `store` instead of zeros (warm start).
    ///
    /// # Panics
    /// If called after [`FleetSolver::run`] started, or the store is
    /// not shaped for instance `i`.
    pub fn warm_start(&mut self, i: usize, store: VarStore) {
        assert!(!self.started, "warm starts must precede run()");
        let g = self.slots[i].problem.graph();
        assert_eq!(store.dims(), g.dims(), "warm start dims mismatch");
        assert_eq!(store.num_edges(), g.num_edges(), "warm start edge count");
        assert_eq!(store.num_vars(), g.num_vars(), "warm start var count");
        self.slots[i].store = store;
    }

    /// Current state of instance `i` (always accessible — nothing is
    /// packed away).
    pub fn store(&self, i: usize) -> &VarStore {
        &self.slots[i].store
    }

    /// Report for instance `i`.
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
    /// [`crate::StoppingCriteria::check_every`] iterations; converged
    /// instances retire from the assist index (no repack) and the
    /// stragglers keep every worker. Mirrors [`crate::Solver::run`]'s
    /// block schedule exactly — the bit-identity contract.
    pub fn run(&mut self, max_iters: usize) -> BatchReport {
        let start = Instant::now();
        self.started = true;
        let stopping = self.options.stopping;
        let check_every = stopping.check_every;

        while self.done < max_iters && self.slots.iter().any(|s| s.active) {
            let block = if check_every == usize::MAX {
                max_iters - self.done
            } else {
                check_every.max(1).min(max_iters - self.done)
            };
            let mut rank = vec![0usize; self.order.len()];
            for (pos, &i) in self.order.iter().enumerate() {
                rank[i] = pos;
            }
            let mut round: Vec<RoundInstance<'_>> = self
                .slots
                .iter_mut()
                .enumerate()
                .filter(|(_, s)| s.active)
                .map(|(i, slot)| RoundInstance {
                    global: i,
                    problem: &slot.problem,
                    store: &mut slot.store,
                })
                .collect();
            // Largest-cost-first: early claims land on the instances
            // that will need assistance.
            round.sort_by_key(|ri| rank[ri.global]);
            let t0 = Instant::now();
            run_round(
                &mut round,
                block,
                self.threads,
                self.chunk,
                &mut self.diagnostics,
            );
            drop(round);
            self.timings.add(UpdateKind::X, t0.elapsed());
            self.timings.iterations += block;
            self.done += block;

            if check_every != usize::MAX {
                for slot in self.slots.iter_mut().filter(|s| s.active) {
                    let g = slot.problem.graph();
                    let r = Residuals::compute(g, slot.problem.params(), &slot.store);
                    let conv =
                        r.converged(g.num_edges() * g.dims(), stopping.eps_abs, stopping.eps_rel);
                    slot.iterations = self.done;
                    slot.final_residuals = Some(r);
                    if conv {
                        slot.stop_reason = Some(StopReason::Converged);
                        slot.active = false; // retires — no repack
                    }
                }
                // Online replan per still-active instance: drifting
                // operator costs recompile that instance's plan at the
                // block boundary (the fleet scheduler claims chunks from
                // each instance's own plan, so no backend state needs
                // rebuilding).
                if let Some(policy) = self.replan {
                    for slot in self.slots.iter_mut().filter(|s| s.active) {
                        let _ = policy.maybe_replan(&mut slot.replan_state, &mut slot.problem);
                    }
                }
            } else {
                for slot in self.slots.iter_mut().filter(|s| s.active) {
                    slot.iterations = self.done;
                }
            }
        }

        for slot in &mut self.slots {
            if slot.stop_reason.is_none() {
                slot.stop_reason = Some(StopReason::MaxIterations);
            }
            slot.active = false;
        }
        self.elapsed += start.elapsed();
        BatchReport {
            instances: (0..self.slots.len()).map(|i| self.report(i)).collect(),
            elapsed: self.elapsed,
        }
    }

    /// Runs with the options' own `max_iters` budget.
    pub fn run_default(&mut self) -> BatchReport {
        self.run(self.options.stopping.max_iters)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SerialBackend;
    use crate::residuals::StoppingCriteria;
    use crate::solver::Solver;
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

    fn mixed_instances() -> Vec<AdmmProblem> {
        vec![
            consensus_problem(&[1.0, 5.0, 9.0]),
            consensus_problem(&[2.0, 4.0]),
            consensus_problem(&[-3.0, 0.0, 3.0, 6.0, -1.0]),
        ]
    }

    fn solve_with(backend: &mut dyn SweepExecutor, iters: usize) -> f64 {
        let problem = consensus_problem(&[1.0, 5.0, 9.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(&problem, &mut store, iters, &mut t);
        assert_eq!(t.iterations, iters);
        store.z[0]
    }

    #[test]
    fn request_group_adapter_matches_solo_requests() {
        use crate::request::SolveRequest;
        let backend: crate::BackendSpec = "fleet:2".parse().unwrap();
        let outcomes = FleetSolver::solve_requests(
            mixed_instances()
                .into_iter()
                .map(|p| SolveRequest::new(p).with_backend(backend))
                .collect(),
        );
        assert_eq!(outcomes.len(), 3);
        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let solo = SolveRequest::new(problem).solve();
            assert_eq!(outcomes[i].iterations, solo.iterations, "instance {i}");
            assert_eq!(outcomes[i].store.z, solo.store.z, "instance {i}");
        }
    }

    #[test]
    fn fleet_backend_matches_serial_exactly() {
        for threads in [1usize, 2, 3, 5] {
            let a = solve_with(&mut SerialBackend, 50);
            let b = solve_with(&mut FleetBackend::new(threads), 50);
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn fleet_backend_tiny_chunks_force_contention() {
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut FleetBackend::with_chunk(8, 1), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn fleet_backend_odd_blocks_keep_parity() {
        // Odd block lengths exercise the watermark/parity rotation
        // across run_block boundaries (the round restarts at seq 0).
        let problem = consensus_problem(&[1.0, 5.0, 9.0]);
        let mut serial_store = VarStore::zeros(problem.graph());
        let mut fleet_store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        let mut fleet = FleetBackend::with_chunk(3, 1);
        for block in [1usize, 3, 7, 2, 5] {
            SerialBackend.run_block(&problem, &mut serial_store, block, &mut t);
            fleet.run_block(&problem, &mut fleet_store, block, &mut t);
            assert_eq!(serial_store.z, fleet_store.z, "after block {block}");
            assert_eq!(serial_store.u, fleet_store.u, "after block {block}");
            assert_eq!(serial_store.n, fleet_store.n, "after block {block}");
        }
    }

    #[test]
    fn fleet_backend_records_telemetry() {
        let mut fleet = FleetBackend::new(2);
        let _ = solve_with(&mut fleet, 10);
        let d = fleet.diagnostics();
        assert_eq!(d.workers().len(), 2);
        assert!(d.rounds() >= 1);
        assert!(d.total_chunks() > 0, "workers must have claimed chunks");
        let report = crate::diagnostics::fleet_report(d);
        assert!(report.contains("chunks"), "{report}");
    }

    #[test]
    fn fleet_solver_matches_solo_serial_bitwise() {
        let stopping = StoppingCriteria {
            max_iters: 1000,
            eps_abs: 1e-8,
            eps_rel: 1e-6,
            check_every: 10,
        };
        let options = SolverOptions {
            stopping,
            ..SolverOptions::default()
        };
        let mut fleet = FleetSolver::with_threads(mixed_instances(), options, 2);
        let report = fleet.run(1000);
        assert!(report.all_converged());

        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let mut solo = Solver::from_problem(problem, options);
            let solo_report = solo.run(1000);
            assert_eq!(
                report.instances[i].iterations, solo_report.iterations,
                "instance {i} iterations"
            );
            assert_eq!(report.instances[i].stop_reason, solo_report.stop_reason);
            let got = fleet.store(i);
            assert_eq!(got.z, solo.store().z, "instance {i} z");
            assert_eq!(got.x, solo.store().x, "instance {i} x");
            assert_eq!(got.u, solo.store().u, "instance {i} u");
            assert_eq!(got.n, solo.store().n, "instance {i} n");
            assert_eq!(got.m, solo.store().m, "instance {i} m");
            let (a, b) = (
                report.instances[i].final_residuals.unwrap(),
                solo_report.final_residuals.unwrap(),
            );
            assert_eq!(a.primal, b.primal, "instance {i} primal");
            assert_eq!(a.dual, b.dual, "instance {i} dual");
        }
    }

    #[test]
    fn fleet_solver_mixed_dims_unsupported_by_batching() {
        // dims=1 and dims=2 instances in one fleet — BatchSolver
        // rejects this shape outright; the fleet solves both.
        let mut b = GraphBuilder::new(2);
        let v = b.add_var();
        b.add_factor(&[v]);
        let two_d = AdmmProblem::new(
            b.build(),
            vec![Box::new(QuadraticProx::isotropic(2, 1.0, &[1.0, -2.0])) as Box<dyn ProxOp>],
            1.0,
            1.0,
        );
        let options = SolverOptions::default();
        let mut fleet =
            FleetSolver::with_threads(vec![consensus_problem(&[1.0, 5.0]), two_d], options, 2);
        let report = fleet.run(2000);
        assert!(report.all_converged());
        assert!((fleet.store(0).z[0] - 3.0).abs() < 1e-5);
        assert!((fleet.store(1).z[0] - 1.0).abs() < 1e-5);
        assert!((fleet.store(1).z[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn fleet_solver_fixed_iteration_mode() {
        let options = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(37),
            ..SolverOptions::default()
        };
        let mut fleet = FleetSolver::with_threads(mixed_instances(), options, 3);
        let report = fleet.run(37);
        for (i, r) in report.instances.iter().enumerate() {
            assert_eq!(r.iterations, 37, "instance {i}");
            assert_eq!(r.stop_reason, StopReason::MaxIterations);
            assert!(r.final_residuals.is_none());
        }
        for (i, problem) in mixed_instances().into_iter().enumerate() {
            let mut solo = Solver::from_problem(problem, options);
            solo.run(37);
            assert_eq!(fleet.store(i).z, solo.store().z, "instance {i}");
        }
    }

    #[test]
    fn fleet_solver_warm_start_carries() {
        let options = SolverOptions {
            stopping: StoppingCriteria::fixed_iterations(25),
            ..SolverOptions::default()
        };
        let problem = consensus_problem(&[1.0, 5.0]);
        let mut seed = VarStore::zeros(problem.graph());
        for (j, v) in seed.n.iter_mut().enumerate() {
            *v = (j as f64 * 0.51).sin();
        }
        seed.snapshot_z();
        let mut solo = Solver::from_problem(problem, options);
        *solo.store_mut() = seed.clone();
        solo.run(25);

        let mut fleet = FleetSolver::with_threads(
            vec![consensus_problem(&[1.0, 5.0]), consensus_problem(&[7.0])],
            options,
            2,
        );
        fleet.warm_start(0, seed);
        fleet.run(25);
        assert_eq!(fleet.store(0).z, solo.store().z);
        assert_eq!(fleet.store(0).n, solo.store().n);
    }

    #[test]
    fn fleet_solver_stragglers_retire_independently() {
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
        let mut fleet = FleetSolver::with_threads(instances, options, 2);
        let report = fleet.run(2000);
        assert!(report.all_converged());
        assert!(
            report.instances[0].iterations < report.instances[1].iterations,
            "fast instance must retire first ({} vs {})",
            report.instances[0].iterations,
            report.instances[1].iterations
        );
    }

    #[test]
    fn fleet_solver_report_accessors() {
        let mut fleet = FleetSolver::with_threads(mixed_instances(), SolverOptions::default(), 2);
        assert_eq!(fleet.num_instances(), 3);
        assert_eq!(fleet.threads(), 2);
        let report = fleet.run(1000);
        assert_eq!(report.instances.len(), 3);
        assert!(report.instances_per_second() > 0.0);
        assert!(fleet.timings().iterations > 0);
        assert!(fleet.layout().imbalance() >= 1.0);
        assert!(fleet.diagnostics().total_chunks() > 0);
    }

    #[test]
    #[should_panic(expected = "at least one instance")]
    fn empty_fleet_rejected() {
        let _ = FleetSolver::with_threads(Vec::new(), SolverOptions::default(), 2);
    }
}

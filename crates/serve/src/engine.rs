//! The continuous-batching serve engine.
//!
//! [`Engine`] is the deterministic, single-threaded scheduling core of
//! the service (the server wraps it in one thread; tests drive it
//! directly with [`Engine::step`]). It maintains:
//!
//! * an **admission queue** ordered by ([`Priority`] descending,
//!   earliest deadline, arrival order),
//! * one **fused batch** ("the pack") of in-flight instances sharing
//!   `dims`, block-diagonally fused with
//!   [`paradmm_graph::BatchStore::pack`] and driven through a single
//!   backend, and
//! * a **fleet lane**: [`FleetSolver`] rounds for requests that cannot
//!   join the pack (mismatched `dims`) or should not wait for it
//!   ([`Priority::Critical`]).
//!
//! # Continuous batching and the per-instance block rule
//!
//! Unlike [`paradmm_core::BatchSolver`] — which runs a *closed* batch
//! with one global iteration counter — pack members here carry their
//! own `done` counters so requests can join mid-flight. Each
//! [`Engine::step`]:
//!
//! 1. splices queued compatible requests into the pack (a *join*, at a
//!    repack boundary only),
//! 2. runs one fused block of `min over members of (next_event_i −
//!    done_i)` iterations, where `next_event_i` is member *i*'s next
//!    solo residual-check point (`check_every_i` multiples, capped at
//!    `max_iters_i`; for fixed-iteration requests, `max_iters_i`),
//! 3. checks per-member residuals exactly when `done_i` lands on a
//!    check point, retiring converged/budget-exhausted members and
//!    repacking the survivors.
//!
//! Because the fused graph is block-diagonal, iterate sequences are
//! unaffected by how iterations are partitioned into blocks; the rule
//! above makes each member's *residual-check schedule* (and therefore
//! its stop iteration) land exactly on its solo
//! [`paradmm_core::Solver::run`] schedule. Together these give the
//! serving bit-identity contract: every served request returns the
//! bit-identical store and iteration count of a solo serial solve with
//! the same warm start — regardless of who else was in the pack, when
//! they joined, or which backend executed the fused blocks.

use std::time::Instant;

use paradmm_core::{
    AdmmProblem, BackendSpec, FleetSolver, Priority, ReplanPolicy, ReplanState, Residuals,
    SolveOutcome, SolveRequest, SolverOptions, StopReason, StoppingCriteria, SweepExecutor,
    SweepPlan, UpdateTimings,
};
use paradmm_graph::{BatchInstance, BatchLayout, BatchStore, EdgeParams, FactorGraph, VarStore};
use paradmm_prox::ProxOp;

use crate::cache::WarmStartCache;
use crate::protocol::request_fingerprint;

/// Which execution path served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// One-at-a-time execution ([`ServeMode::Solo`], the ablation
    /// baseline).
    Solo,
    /// The continuously-batched fused pack.
    Batch,
    /// A dedicated [`FleetSolver`] round (mixed `dims` or
    /// [`Priority::Critical`]).
    Fleet,
}

impl Lane {
    /// Stable wire encoding.
    pub fn as_u8(self) -> u8 {
        match self {
            Lane::Solo => 0,
            Lane::Batch => 1,
            Lane::Fleet => 2,
        }
    }

    /// Inverse of [`Lane::as_u8`].
    pub fn from_u8(v: u8) -> Option<Lane> {
        match v {
            0 => Some(Lane::Solo),
            1 => Some(Lane::Batch),
            2 => Some(Lane::Fleet),
            _ => None,
        }
    }
}

/// How the engine executes admitted requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Continuous batching (the point of this crate).
    #[default]
    Batched,
    /// One request at a time, in queue order — the per-request serving
    /// baseline the batched mode is benchmarked against.
    Solo,
}

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Execution mode.
    pub mode: ServeMode,
    /// Backend running the fused pack (and solo-mode requests).
    /// Bit-identity holds for any synchronous backend.
    pub backend: BackendSpec,
    /// Worker threads for fleet-lane rounds.
    pub fleet_threads: usize,
    /// Maximum instances fused into the pack at once; further
    /// compatible requests wait in the queue for a retire.
    pub max_batch: usize,
    /// Warm-start cache entries (`0` disables the cache).
    pub cache_capacity: usize,
    /// Online replanning for the fused pack: re-measure per-pass costs
    /// on this cadence and re-plan (and ask the backend to re-partition)
    /// when operator costs drift — see [`ReplanPolicy`]. `None` keeps
    /// the shape-cached fused plan frozen between repacks. Replans
    /// change scheduling only, never iterates, so the serving
    /// bit-identity contract is unaffected.
    pub replan: Option<ReplanPolicy>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mode: ServeMode::Batched,
            backend: BackendSpec::Serial,
            fleet_threads: 2,
            max_batch: 64,
            cache_capacity: 128,
            replan: None,
        }
    }
}

/// A request under a server-assigned id.
pub struct EngineRequest {
    /// Engine-scoped id echoed back on the [`Completion`].
    pub id: u64,
    /// The work.
    pub request: SolveRequest,
    /// Whether the warm-start cache may seed this solve (ignored when
    /// the request carries an explicit warm start).
    pub use_cache: bool,
}

/// A finished request.
pub struct Completion {
    /// Id from the [`EngineRequest`].
    pub id: u64,
    /// The solve result; `elapsed` covers admission to completion.
    pub outcome: SolveOutcome,
    /// Which lane served it.
    pub lane: Lane,
    /// Whether the solve was seeded from the warm-start cache.
    pub warm_started: bool,
}

/// Counters describing what the engine has done so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests completed (all lanes).
    pub completed: u64,
    /// Completions served by the fused pack.
    pub batch_served: u64,
    /// Completions served by fleet rounds.
    pub fleet_served: u64,
    /// Completions served one-at-a-time ([`ServeMode::Solo`]).
    pub solo_served: u64,
    /// Requests spliced into an *already running* pack.
    pub joins: u64,
    /// Pack rebuilds (joins and retires both repack).
    pub repacks: u64,
    /// Warm-start cache hits.
    pub cache_hits: u64,
    /// Largest pack size observed.
    pub max_pack: usize,
}

/// An admitted request waiting for a lane.
struct Pending {
    id: u64,
    seq: u64,
    graph: FactorGraph,
    params: EdgeParams,
    proxes: Vec<Box<dyn ProxOp>>,
    stopping: StoppingCriteria,
    priority: Priority,
    /// Absolute deadline (admission time + requested budget) — EDF
    /// ordering must compare these, not raw budgets, or a request that
    /// has already burned most of its budget waiting sorts behind a
    /// fresh one with a nominally tighter budget.
    deadline_at: Option<Instant>,
    warm: Option<VarStore>,
    warm_started: bool,
    /// Warm-start cache key covering topology, ρ/α *and* the prox
    /// operators; `None` (closure-backed operator, no stable encoding)
    /// bypasses the cache entirely.
    fingerprint: Option<u64>,
    admitted: Instant,
}

/// A pack member's bookkeeping (graph/params retained for repacks; the
/// proxes live inside the fused problem between repacks).
struct Member {
    id: u64,
    graph: FactorGraph,
    params: EdgeParams,
    stopping: StoppingCriteria,
    done: usize,
    final_residuals: Option<Residuals>,
    warm_started: bool,
    fingerprint: Option<u64>,
    admitted: Instant,
}

/// The fused in-flight batch.
struct Pack {
    problem: AdmmProblem,
    store: VarStore,
    layout: BatchLayout,
    members: Vec<Member>,
}

/// Member `i`'s next solo-schedule event after `done` iterations: its
/// next residual-check point, or `max_iters` for fixed-iteration
/// requests (retire without a check).
fn next_event(done: usize, s: &StoppingCriteria) -> usize {
    if s.check_every == usize::MAX {
        s.max_iters
    } else {
        let ce = s.check_every.max(1);
        ((done / ce) + 1).saturating_mul(ce).min(s.max_iters)
    }
}

/// The deterministic, steppable continuous-batching core. See the
/// module docs for the scheduling rules.
pub struct Engine {
    config: EngineConfig,
    cache: WarmStartCache,
    queue: Vec<Pending>,
    pack: Option<Pack>,
    backend: Box<dyn SweepExecutor>,
    plan_cache: Option<((usize, usize, usize), SweepPlan)>,
    /// Replan counters/baseline for the *current* pack composition;
    /// reset at every repack boundary (the fused problem — and with it
    /// the cost profile the baseline describes — changes there).
    replan_state: ReplanState,
    timings: UpdateTimings,
    seq: u64,
    stats: EngineStats,
}

impl Engine {
    /// An idle engine with the given configuration.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            cache: WarmStartCache::new(config.cache_capacity),
            backend: config.backend.to_backend(),
            config,
            queue: Vec::new(),
            pack: None,
            plan_cache: None,
            replan_state: ReplanState::default(),
            timings: UpdateTimings::new(),
            seq: 0,
            stats: EngineStats::default(),
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// The warm-start cache (hit/miss counters, size).
    pub fn cache(&self) -> &WarmStartCache {
        &self.cache
    }

    /// Replan counters for the current pack composition (resets at
    /// every repack boundary). Always default when
    /// [`EngineConfig::replan`] is `None`.
    pub fn replan_state(&self) -> &ReplanState {
        &self.replan_state
    }

    /// Whether no work is queued or in flight.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.pack.is_none()
    }

    /// Queued requests not yet in any lane.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Instances currently fused in the pack.
    pub fn pack_len(&self) -> usize {
        self.pack.as_ref().map_or(0, |p| p.members.len())
    }

    /// Admits a request: resolves its warm start (explicit beats
    /// cache), then places it in the admission queue.
    pub fn submit(&mut self, req: EngineRequest) {
        let EngineRequest {
            id,
            request,
            use_cache,
        } = req;
        let parts = request.into_parts();
        let (graph, proxes, params) = parts.problem.into_parts();
        // Key the cache on the full problem — structure, ρ/α and prox
        // operators — never on shape alone: two MPC ticks share a
        // controller but not targets, and one client's solution must
        // not seed another client's different problem.
        let fingerprint = request_fingerprint(&graph, &params, &proxes);
        let mut warm = parts.warm_start;
        let mut warm_started = false;
        if warm.is_none() && use_cache {
            if let Some(cached) = fingerprint.and_then(|fp| self.cache.get(fp)) {
                // Fingerprints hash the problem, they don't prove it;
                // verify the shape before seeding.
                if cached.dims() == graph.dims()
                    && cached.num_edges() == graph.num_edges()
                    && cached.num_vars() == graph.num_vars()
                {
                    warm = Some(cached);
                    warm_started = true;
                    self.stats.cache_hits += 1;
                }
            }
        }
        self.seq += 1;
        self.stats.submitted += 1;
        let admitted = Instant::now();
        self.queue.push(Pending {
            id,
            seq: self.seq,
            graph,
            params,
            proxes,
            stopping: parts.stopping,
            priority: parts.priority,
            deadline_at: parts.deadline.and_then(|d| admitted.checked_add(d)),
            warm,
            warm_started,
            fingerprint,
            admitted,
        });
    }

    /// Runs one scheduling cycle and returns the requests that finished
    /// during it. In [`ServeMode::Batched`]: admit joiners → run any
    /// fleet round → run one fused block → check/retire/repack. In
    /// [`ServeMode::Solo`]: serve the whole queue one request at a
    /// time. Call repeatedly until [`Engine::is_idle`].
    pub fn step(&mut self) -> Vec<Completion> {
        let completions = match self.config.mode {
            ServeMode::Solo => self.step_solo(),
            ServeMode::Batched => self.step_batched(),
        };
        self.stats.completed += completions.len() as u64;
        completions
    }

    /// Convenience driver: steps until idle, collecting completions.
    pub fn run_until_idle(&mut self) -> Vec<Completion> {
        let mut all = Vec::new();
        while !self.is_idle() {
            all.extend(self.step());
        }
        all
    }

    /// Admission-queue ordering: priority descending, then earliest
    /// *absolute* deadline — admission time plus budget, so a request
    /// that has already waited keeps its urgency (requests without a
    /// deadline sort last) — then arrival.
    fn sort_queue(&mut self) {
        use std::cmp::Ordering;
        self.queue.sort_by(|a, b| {
            b.priority
                .cmp(&a.priority)
                .then_with(|| match (a.deadline_at, b.deadline_at) {
                    (Some(da), Some(db)) => da.cmp(&db),
                    (Some(_), None) => Ordering::Less,
                    (None, Some(_)) => Ordering::Greater,
                    (None, None) => Ordering::Equal,
                })
                .then_with(|| a.seq.cmp(&b.seq))
        });
    }

    fn step_solo(&mut self) -> Vec<Completion> {
        self.sort_queue();
        let pending = std::mem::take(&mut self.queue);
        let mut completions = Vec::with_capacity(pending.len());
        for p in pending {
            if p.stopping.max_iters == 0 {
                completions.push(Self::empty_budget_completion(p, Lane::Solo));
                continue;
            }
            let problem = AdmmProblem::with_params(p.graph, p.proxes, p.params);
            let options = SolverOptions {
                backend: self.config.backend,
                stopping: p.stopping,
                ..SolverOptions::default()
            };
            let mut solver = paradmm_core::Solver::from_problem(problem, options);
            if let Some(ws) = p.warm {
                *solver.store_mut() = ws;
            }
            let report = solver.run_default();
            let store = solver.into_store();
            if report.stop_reason == StopReason::Converged {
                if let Some(fp) = p.fingerprint {
                    self.cache.insert(fp, store.clone());
                }
            }
            self.stats.solo_served += 1;
            completions.push(Completion {
                id: p.id,
                outcome: SolveOutcome {
                    store,
                    iterations: report.iterations,
                    stop_reason: report.stop_reason,
                    final_residuals: report.final_residuals,
                    residual_trace: Vec::new(),
                    elapsed: p.admitted.elapsed(),
                },
                lane: Lane::Solo,
                warm_started: p.warm_started,
            });
        }
        completions
    }

    fn step_batched(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        self.sort_queue();

        // Route the queue: batch joiners share the pack's dims (or, with
        // no pack, the dims of the highest-priority queued request);
        // Critical requests and dims misfits go to a fleet round now.
        let pack_dims = self
            .pack
            .as_ref()
            .map(|p| p.layout.dims())
            .or_else(|| self.queue.first().map(|p| p.graph.dims()));
        let mut joiners: Vec<Pending> = Vec::new();
        let mut fleet: Vec<Pending> = Vec::new();
        let mut still_queued: Vec<Pending> = Vec::new();
        let room = self.config.max_batch.saturating_sub(self.pack_len());
        for p in std::mem::take(&mut self.queue) {
            if p.stopping.max_iters == 0 {
                completions.push(Self::empty_budget_completion(p, Lane::Batch));
            } else if p.priority == Priority::Critical || Some(p.graph.dims()) != pack_dims {
                fleet.push(p);
            } else if joiners.len() < room {
                joiners.push(p);
            } else {
                still_queued.push(p);
            }
        }
        self.queue = still_queued;

        if !fleet.is_empty() {
            completions.extend(self.run_fleet_round(fleet));
        }

        if !joiners.is_empty() {
            if self.pack.is_some() {
                self.stats.joins += joiners.len() as u64;
            }
            self.repack_with(joiners);
        }

        if self.pack.is_some() {
            completions.extend(self.run_pack_block());
        }

        completions
    }

    /// A request admitted with `max_iters == 0`: complete immediately
    /// (the solo loop never enters its body either).
    fn empty_budget_completion(p: Pending, lane: Lane) -> Completion {
        let store = p.warm.unwrap_or_else(|| VarStore::zeros(&p.graph));
        Completion {
            id: p.id,
            outcome: SolveOutcome {
                store,
                iterations: 0,
                stop_reason: StopReason::MaxIterations,
                final_residuals: None,
                residual_trace: Vec::new(),
                elapsed: p.admitted.elapsed(),
            },
            lane,
            warm_started: p.warm_started,
        }
    }

    /// Serves `batch` on dedicated [`FleetSolver`] rounds, one round
    /// per distinct stopping criteria (a fleet run has one stopping
    /// policy; fleets handle mixed graph shapes and `dims` natively).
    fn run_fleet_round(&mut self, mut batch: Vec<Pending>) -> Vec<Completion> {
        let mut completions = Vec::new();
        while !batch.is_empty() {
            let stopping = batch[0].stopping;
            let (round, rest): (Vec<_>, Vec<_>) =
                batch.into_iter().partition(|p| p.stopping == stopping);
            batch = rest;

            let options = SolverOptions {
                stopping,
                ..SolverOptions::default()
            };
            struct FleetMeta {
                id: u64,
                warm: Option<VarStore>,
                warm_started: bool,
                fingerprint: Option<u64>,
                admitted: Instant,
            }
            let mut problems = Vec::with_capacity(round.len());
            let mut meta = Vec::with_capacity(round.len());
            for p in round {
                problems.push(AdmmProblem::with_params(p.graph, p.proxes, p.params));
                meta.push(FleetMeta {
                    id: p.id,
                    warm: p.warm,
                    warm_started: p.warm_started,
                    fingerprint: p.fingerprint,
                    admitted: p.admitted,
                });
            }
            let mut fleet =
                FleetSolver::with_threads(problems, options, self.config.fleet_threads.max(1));
            for (i, m) in meta.iter_mut().enumerate() {
                if let Some(ws) = m.warm.take() {
                    fleet.warm_start(i, ws);
                }
            }
            let report = fleet.run_default();
            for (i, m) in meta.into_iter().enumerate() {
                let r = &report.instances[i];
                let store = fleet.store(i).clone();
                if r.stop_reason == StopReason::Converged {
                    if let Some(fp) = m.fingerprint {
                        self.cache.insert(fp, store.clone());
                    }
                }
                self.stats.fleet_served += 1;
                completions.push(Completion {
                    id: m.id,
                    outcome: SolveOutcome {
                        store,
                        iterations: r.iterations,
                        stop_reason: r.stop_reason,
                        final_residuals: r.final_residuals,
                        residual_trace: Vec::new(),
                        elapsed: m.admitted.elapsed(),
                    },
                    lane: Lane::Fleet,
                    warm_started: m.warm_started,
                });
            }
        }
        completions
    }

    /// Rebuilds the fused pack from the current members' extracted
    /// states plus `joiners` (a repack boundary).
    fn repack_with(&mut self, joiners: Vec<Pending>) {
        let mut members: Vec<Member> = Vec::new();
        let mut states: Vec<VarStore> = Vec::new();
        let mut proxes: Vec<Vec<Box<dyn ProxOp>>> = Vec::new();

        if let Some(pack) = self.pack.take() {
            let Pack {
                problem,
                store,
                layout,
                members: old,
            } = pack;
            let (_graph, fused_proxes, _params) = problem.into_parts();
            let mut prox_iter = fused_proxes.into_iter();
            for (pos, member) in old.into_iter().enumerate() {
                let segment: Vec<Box<dyn ProxOp>> = prox_iter
                    .by_ref()
                    .take(layout.factor_range(pos).len())
                    .collect();
                states.push(layout.extract_store(&store, pos));
                proxes.push(segment);
                members.push(member);
            }
            debug_assert!(prox_iter.next().is_none());
            self.stats.repacks += 1;
        }

        for p in joiners {
            states.push(p.warm.unwrap_or_else(|| VarStore::zeros(&p.graph)));
            proxes.push(p.proxes);
            members.push(Member {
                id: p.id,
                graph: p.graph,
                params: p.params,
                stopping: p.stopping,
                done: 0,
                final_residuals: None,
                warm_started: p.warm_started,
                fingerprint: p.fingerprint,
                admitted: p.admitted,
            });
        }

        if members.is_empty() {
            self.replan_state = ReplanState::default();
            return;
        }
        // New fused problem, new cost profile: the replan baseline from
        // the previous composition no longer describes anything.
        self.replan_state = ReplanState::default();
        self.stats.max_pack = self.stats.max_pack.max(members.len());
        self.pack = Some(Self::pack_members(
            members,
            states,
            proxes,
            &mut self.plan_cache,
        ));
    }

    fn pack_members(
        members: Vec<Member>,
        states: Vec<VarStore>,
        proxes: Vec<Vec<Box<dyn ProxOp>>>,
        plan_cache: &mut Option<((usize, usize, usize), SweepPlan)>,
    ) -> Pack {
        let batch = {
            let views: Vec<BatchInstance<'_>> = members
                .iter()
                .zip(&states)
                .map(|(m, state)| BatchInstance {
                    graph: &m.graph,
                    params: &m.params,
                    store: state,
                })
                .collect();
            BatchStore::pack(&views).expect("members share dims by admission routing")
        };
        let (graph, params, store, layout) = batch.into_parts();
        let fused_proxes: Vec<Box<dyn ProxOp>> = proxes.into_iter().flatten().collect();
        let mut problem = AdmmProblem::with_params(graph, fused_proxes, params);
        // Same fused-plan cache as BatchSolver: keyed by pass shape, so
        // a repack with unchanged fused topology skips the rebuild.
        let g = problem.graph();
        let fp = (g.num_factors(), g.num_vars(), g.num_edges());
        let plan = match plan_cache {
            Some((cached_fp, plan)) if *cached_fp == fp => plan.clone(),
            _ => {
                let plan = SweepPlan::fused(&problem);
                *plan_cache = Some((fp, plan.clone()));
                plan
            }
        };
        problem.set_plan(plan);
        Pack {
            problem,
            store,
            layout,
            members,
        }
    }

    /// Runs one fused block sized to the nearest member event, then
    /// checks/retires members whose `done` landed on their own solo
    /// check schedule. Returns completions for retired members.
    fn run_pack_block(&mut self) -> Vec<Completion> {
        let mut completions = Vec::new();
        let Some(pack) = self.pack.as_mut() else {
            return completions;
        };

        let block = pack
            .members
            .iter()
            .map(|m| next_event(m.done, &m.stopping) - m.done)
            .min()
            .expect("pack is never empty");
        debug_assert!(block >= 1, "members at max_iters retire before packing");

        self.backend
            .run_block(&pack.problem, &mut pack.store, block, &mut self.timings);

        // Online replanning at the block boundary: re-measure per-pass
        // costs on the policy's cadence and, when the profile drifted,
        // install a fresh measured plan and let the backend re-partition
        // its shard assignment. The shape-keyed plan cache must follow,
        // or the next same-shape repack would reinstall the stale plan.
        if let Some(policy) = self.config.replan {
            if policy
                .maybe_replan(&mut self.replan_state, &mut pack.problem)
                .map(|costs| self.backend.repartition(&pack.problem, &costs))
                .is_some()
            {
                let g = pack.problem.graph();
                let fp = (g.num_factors(), g.num_vars(), g.num_edges());
                if let Some(plan) = pack.problem.plan() {
                    self.plan_cache = Some((fp, plan.clone()));
                }
            }
        }

        let d = pack.layout.dims();
        let mut retired: Vec<(usize, StopReason)> = Vec::new();
        for pos in 0..pack.members.len() {
            let m = &mut pack.members[pos];
            m.done += block;
            let s = m.stopping;
            let checks = s.check_every != usize::MAX;
            let at_check = checks && (m.done % s.check_every.max(1) == 0 || m.done == s.max_iters);
            let mut converged = false;
            if at_check {
                let er = pack.layout.edge_range(pos);
                let r = Residuals::compute_edge_range(
                    pack.problem.graph(),
                    pack.problem.params(),
                    &pack.store,
                    er.start,
                    er.end,
                );
                converged = r.converged(er.len() * d, s.eps_abs, s.eps_rel);
                m.final_residuals = Some(r);
            }
            if converged {
                retired.push((pos, StopReason::Converged));
            } else if m.done >= s.max_iters {
                retired.push((pos, StopReason::MaxIterations));
            }
        }

        if retired.is_empty() {
            return completions;
        }

        // Extract every member's state, complete the retired ones, and
        // repack the survivors (another repack boundary).
        let Pack {
            problem,
            store,
            layout,
            members,
        } = self.pack.take().expect("pack was just borrowed");
        let (_graph, fused_proxes, _params) = problem.into_parts();
        let mut prox_iter = fused_proxes.into_iter();
        let mut retired_iter = retired.iter().peekable();
        let mut surv_members = Vec::new();
        let mut surv_states = Vec::new();
        let mut surv_proxes = Vec::new();
        for (pos, member) in members.into_iter().enumerate() {
            let segment: Vec<Box<dyn ProxOp>> = prox_iter
                .by_ref()
                .take(layout.factor_range(pos).len())
                .collect();
            let state = layout.extract_store(&store, pos);
            if retired_iter.peek().map(|(p, _)| *p) == Some(pos) {
                let (_, stop_reason) = *retired_iter.next().expect("peeked");
                if stop_reason == StopReason::Converged {
                    if let Some(fp) = member.fingerprint {
                        self.cache.insert(fp, state.clone());
                    }
                }
                self.stats.batch_served += 1;
                completions.push(Completion {
                    id: member.id,
                    outcome: SolveOutcome {
                        store: state,
                        iterations: member.done,
                        stop_reason,
                        final_residuals: member.final_residuals,
                        residual_trace: Vec::new(),
                        elapsed: member.admitted.elapsed(),
                    },
                    lane: Lane::Batch,
                    warm_started: member.warm_started,
                });
            } else {
                surv_members.push(member);
                surv_states.push(state);
                surv_proxes.push(segment);
            }
        }
        debug_assert!(prox_iter.next().is_none());
        // Retire is a repack boundary too: whatever survives is a new
        // fused problem with a new cost profile.
        self.replan_state = ReplanState::default();
        if !surv_members.is_empty() {
            self.stats.repacks += 1;
            self.stats.max_pack = self.stats.max_pack.max(surv_members.len());
            self.pack = Some(Self::pack_members(
                surv_members,
                surv_states,
                surv_proxes,
                &mut self.plan_cache,
            ));
        }
        completions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_core::Solver;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::QuadraticProx;
    use std::time::Duration;

    /// Consensus of `k` quadratics over one variable (dims
    /// configurable); the optimum is the mean of the targets.
    fn consensus(dims: usize, targets: &[f64]) -> AdmmProblem {
        let mut b = GraphBuilder::new(dims);
        let v = b.add_var();
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for &t in targets {
            b.add_factor(&[v]);
            let target: Vec<f64> = (0..dims).map(|c| t + c as f64).collect();
            proxes.push(Box::new(QuadraticProx::isotropic(dims, 2.0, &target)));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    fn request(dims: usize, targets: &[f64], stopping: StoppingCriteria) -> SolveRequest {
        SolveRequest::new(consensus(dims, targets)).with_stopping(stopping)
    }

    fn solo(dims: usize, targets: &[f64], stopping: StoppingCriteria) -> SolveOutcome {
        request(dims, targets, stopping).solve()
    }

    fn tight() -> StoppingCriteria {
        StoppingCriteria {
            max_iters: 2000,
            eps_abs: 1e-10,
            eps_rel: 1e-9,
            check_every: 10,
        }
    }

    fn by_id(mut completions: Vec<Completion>) -> Vec<Completion> {
        completions.sort_by_key(|c| c.id);
        completions
    }

    #[test]
    fn batched_stream_matches_solo_bitwise() {
        let mut engine = Engine::new(EngineConfig::default());
        let workloads: Vec<&[f64]> = vec![
            &[1.0, 5.0, 9.0],
            &[2.0, 4.0],
            &[-3.0, 0.0, 3.0, 6.0],
            &[7.0],
        ];
        for (i, t) in workloads.iter().enumerate() {
            engine.submit(EngineRequest {
                id: i as u64,
                request: request(1, t, tight()),
                use_cache: false,
            });
        }
        let completions = by_id(engine.run_until_idle());
        assert_eq!(completions.len(), workloads.len());
        for (c, t) in completions.iter().zip(&workloads) {
            let reference = solo(1, t, tight());
            assert_eq!(c.lane, Lane::Batch);
            assert_eq!(c.outcome.iterations, reference.iterations, "id {}", c.id);
            assert_eq!(c.outcome.stop_reason, reference.stop_reason);
            assert_eq!(c.outcome.store.z, reference.store.z, "id {}", c.id);
            assert_eq!(c.outcome.store.x, reference.store.x, "id {}", c.id);
            assert_eq!(c.outcome.store.u, reference.store.u, "id {}", c.id);
            assert_eq!(c.outcome.store.n, reference.store.n, "id {}", c.id);
            let (a, b) = (
                c.outcome.final_residuals.unwrap(),
                reference.final_residuals.unwrap(),
            );
            assert_eq!(a.primal, b.primal, "id {}", c.id);
            assert_eq!(a.dual, b.dual, "id {}", c.id);
        }
        assert!(engine.stats().batch_served == workloads.len() as u64);
    }

    #[test]
    fn mid_flight_join_stays_bit_identical() {
        let mut engine = Engine::new(EngineConfig::default());
        // A slow request enters alone...
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0, 9.0, -7.0, 3.0], tight()),
            use_cache: false,
        });
        let mut completions = engine.step();
        assert!(completions.is_empty(), "slow request is still in flight");
        assert_eq!(engine.pack_len(), 1);
        // ...then a second request joins the running pack mid-flight.
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()),
            use_cache: false,
        });
        completions.extend(engine.run_until_idle());
        let completions = by_id(completions);
        assert_eq!(completions.len(), 2);
        assert!(engine.stats().joins >= 1, "second request joined in flight");

        let ref1 = solo(1, &[1.0, 5.0, 9.0, -7.0, 3.0], tight());
        let ref2 = solo(1, &[2.0, 4.0], tight());
        assert_eq!(completions[0].outcome.iterations, ref1.iterations);
        assert_eq!(completions[0].outcome.store.z, ref1.store.z);
        assert_eq!(completions[0].outcome.store.u, ref1.store.u);
        assert_eq!(completions[1].outcome.iterations, ref2.iterations);
        assert_eq!(completions[1].outcome.store.z, ref2.store.z);
        assert_eq!(completions[1].outcome.store.u, ref2.store.u);
    }

    #[test]
    fn mixed_check_schedules_coexist_in_one_pack() {
        // Different check_every / max_iters per member: the per-member
        // block rule must reproduce each one's solo check schedule.
        let s1 = StoppingCriteria {
            max_iters: 500,
            eps_abs: 1e-9,
            eps_rel: 1e-8,
            check_every: 7,
        };
        let s2 = StoppingCriteria {
            max_iters: 64,
            eps_abs: 0.0,
            eps_rel: 0.0,
            check_every: 25, // checks at 25, 50, 64; never converges
        };
        let s3 = StoppingCriteria::fixed_iterations(33);
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0, 9.0], s1),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], s2),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 3,
            request: request(1, &[8.0], s3),
            use_cache: false,
        });
        let completions = by_id(engine.run_until_idle());
        assert_eq!(completions.len(), 3);

        for (c, reference) in completions.iter().zip([
            solo(1, &[1.0, 5.0, 9.0], s1),
            solo(1, &[2.0, 4.0], s2),
            solo(1, &[8.0], s3),
        ]) {
            assert_eq!(c.outcome.iterations, reference.iterations, "id {}", c.id);
            assert_eq!(c.outcome.stop_reason, reference.stop_reason, "id {}", c.id);
            assert_eq!(c.outcome.store.z, reference.store.z, "id {}", c.id);
            assert_eq!(
                c.outcome.final_residuals.map(|r| (r.primal, r.dual)),
                reference.final_residuals.map(|r| (r.primal, r.dual)),
                "id {}",
                c.id
            );
        }
    }

    #[test]
    fn mixed_dims_requests_route_to_fleet_lane() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 2,
            request: request(3, &[2.0, 4.0], tight()),
            use_cache: false,
        });
        let completions = by_id(engine.run_until_idle());
        assert_eq!(completions[0].lane, Lane::Batch);
        assert_eq!(
            completions[1].lane,
            Lane::Fleet,
            "dims misfit takes the fleet lane"
        );
        let reference = solo(3, &[2.0, 4.0], tight());
        assert_eq!(completions[1].outcome.iterations, reference.iterations);
        assert_eq!(completions[1].outcome.store.z, reference.store.z);
        assert_eq!(completions[1].outcome.store.u, reference.store.u);
        assert_eq!(engine.stats().fleet_served, 1);
    }

    #[test]
    fn critical_priority_skips_batch_coalescing() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()).with_priority(Priority::Critical),
            use_cache: false,
        });
        // The critical request completes on the very first step, before
        // the batch lane finishes anything.
        let first = engine.step();
        assert_eq!(first.len(), 1);
        assert_eq!(first[0].id, 2);
        assert_eq!(first[0].lane, Lane::Fleet);
        let reference = solo(1, &[2.0, 4.0], tight());
        assert_eq!(first[0].outcome.iterations, reference.iterations);
        assert_eq!(first[0].outcome.store.z, reference.store.z);
        let rest = engine.run_until_idle();
        assert_eq!(rest.len(), 1);
    }

    #[test]
    fn warm_start_cache_seeds_resubmission() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0, 9.0], tight()),
            use_cache: true,
        });
        let first = engine.run_until_idle();
        assert!(!first[0].warm_started);
        assert!(first[0].outcome.stop_reason == StopReason::Converged);

        // The identical problem again: seeded from the cache, and
        // bit-identical to a solo solve given the same warm start.
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[1.0, 5.0, 9.0], tight()),
            use_cache: true,
        });
        let second = engine.run_until_idle();
        assert!(second[0].warm_started, "cache hit seeds the solve");
        assert_eq!(second[0].outcome.stop_reason, StopReason::Converged);
        assert_eq!(engine.stats().cache_hits, 1);

        let reference = request(1, &[1.0, 5.0, 9.0], tight())
            .with_warm_start(first[0].outcome.store.clone())
            .solve();
        assert_eq!(second[0].outcome.iterations, reference.iterations);
        assert_eq!(second[0].outcome.store.z, reference.store.z);
        assert!(
            second[0].outcome.iterations <= first[0].outcome.iterations,
            "warm start cannot be slower than cold on an already-converged state"
        );

        // A *different* problem must not hit the cache.
        engine.submit(EngineRequest {
            id: 3,
            request: request(1, &[6.0, 6.5], tight()),
            use_cache: true,
        });
        let third = engine.run_until_idle();
        assert!(!third[0].warm_started);
    }

    #[test]
    fn same_shape_different_objective_misses_the_cache() {
        // The MPC trap: identical topology and ρ/α, different prox
        // targets. Shape-only fingerprinting would collide here and
        // leak one problem's solution into the other's trajectory.
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()),
            use_cache: true,
        });
        let first = engine.run_until_idle();
        assert_eq!(first[0].outcome.stop_reason, StopReason::Converged);

        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()),
            use_cache: true,
        });
        let second = engine.run_until_idle();
        assert!(
            !second[0].warm_started,
            "same shape, different targets: no cache hit"
        );
        assert_eq!(engine.stats().cache_hits, 0);
        // And the result is the cold solo reference, untouched by the
        // cached solution of the other problem.
        let reference = solo(1, &[2.0, 4.0], tight());
        assert_eq!(second[0].outcome.iterations, reference.iterations);
        assert_eq!(second[0].outcome.store.z, reference.store.z);

        // The exact same problem still hits.
        engine.submit(EngineRequest {
            id: 3,
            request: request(1, &[1.0, 5.0], tight()),
            use_cache: true,
        });
        let third = engine.run_until_idle();
        assert!(third[0].warm_started);
        assert_eq!(engine.stats().cache_hits, 1);
    }

    #[test]
    fn closure_prox_requests_bypass_the_cache() {
        // NumericProx has no ProxSpec, hence no stable identity: the
        // request must solve fine but never seed or populate the cache.
        fn numeric_request() -> SolveRequest {
            let mut b = GraphBuilder::new(1);
            let v = b.add_var();
            b.add_factor(&[v]);
            let proxes: Vec<Box<dyn ProxOp>> =
                vec![Box::new(paradmm_prox::NumericProx::new(|s: &[f64]| {
                    (s[0] - 2.0) * (s[0] - 2.0)
                }))];
            SolveRequest::new(AdmmProblem::new(b.build(), proxes, 1.0, 1.0)).with_stopping(tight())
        }
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: numeric_request(),
            use_cache: true,
        });
        let first = engine.run_until_idle();
        assert_eq!(first.len(), 1);
        assert!(engine.cache().is_empty(), "no key, nothing cached");

        engine.submit(EngineRequest {
            id: 2,
            request: numeric_request(),
            use_cache: true,
        });
        let second = engine.run_until_idle();
        assert!(!second[0].warm_started);
        assert_eq!(engine.stats().cache_hits, 0);
    }

    #[test]
    fn online_replan_keeps_batched_serving_bit_identical() {
        // Cadence-1 policy: measure after every fused block. Replans
        // change scheduling only, so the completion must still be the
        // bit-identical solo reference.
        let config = EngineConfig {
            replan: Some(ReplanPolicy::new(1, 0.25)),
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0, 9.0], tight()),
            use_cache: false,
        });
        let mut completions = Vec::new();
        let mut measured_in_flight = false;
        while !engine.is_idle() {
            completions.extend(engine.step());
            if engine.pack_len() > 0 {
                measured_in_flight |= engine.replan_state().baseline.is_some();
            }
        }
        assert!(
            measured_in_flight,
            "cadence-1 policy must measure between blocks while the pack is live"
        );
        assert_eq!(
            engine.replan_state().blocks_seen,
            0,
            "replan state resets at the final repack boundary"
        );
        let reference = solo(1, &[1.0, 5.0, 9.0], tight());
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].outcome.iterations, reference.iterations);
        assert_eq!(completions[0].outcome.store.z, reference.store.z);
        assert_eq!(completions[0].outcome.store.u, reference.store.u);
    }

    #[test]
    fn edf_orders_by_absolute_deadline_not_raw_budget() {
        let config = EngineConfig {
            mode: ServeMode::Solo,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        // Request 1 carries the nominally looser 900ms budget...
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()).with_deadline(Duration::from_millis(900)),
            use_cache: false,
        });
        // ...but has been waiting so long that only 50ms of it remain
        // (simulated by backdating its admission-time deadline).
        engine.queue[0].deadline_at = Some(Instant::now() + Duration::from_millis(50));
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()).with_deadline(Duration::from_millis(100)),
            use_cache: false,
        });
        let order: Vec<u64> = engine.run_until_idle().iter().map(|c| c.id).collect();
        assert_eq!(
            order,
            vec![1, 2],
            "the nearer absolute deadline wins, regardless of raw budget"
        );
    }

    #[test]
    fn explicit_warm_start_beats_cache() {
        let mut engine = Engine::new(EngineConfig::default());
        let seed = {
            let mut s = VarStore::zeros(consensus(1, &[1.0, 5.0]).graph());
            s.n[0] = 0.7;
            s.snapshot_z();
            s
        };
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()).with_warm_start(seed.clone()),
            use_cache: true,
        });
        let done = engine.run_until_idle();
        assert!(
            !done[0].warm_started,
            "explicit warm start is not a cache hit"
        );
        let reference = request(1, &[1.0, 5.0], tight())
            .with_warm_start(seed)
            .solve();
        assert_eq!(done[0].outcome.iterations, reference.iterations);
        assert_eq!(done[0].outcome.store.z, reference.store.z);
    }

    #[test]
    fn max_batch_defers_overflow_to_the_queue() {
        let config = EngineConfig {
            max_batch: 2,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        for i in 0..5 {
            engine.submit(EngineRequest {
                id: i,
                request: request(1, &[1.0 + i as f64, 5.0], tight()),
                use_cache: false,
            });
        }
        let mut served = 0;
        while !engine.is_idle() {
            assert!(engine.pack_len() <= 2, "pack never exceeds max_batch");
            served += engine.step().len();
        }
        assert_eq!(served, 5);
        // Everything still matches solo.
        assert_eq!(engine.stats().batch_served, 5);
    }

    #[test]
    fn solo_mode_serves_in_priority_then_deadline_order() {
        let config = EngineConfig {
            mode: ServeMode::Solo,
            ..EngineConfig::default()
        };
        let mut engine = Engine::new(config);
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], tight()).with_deadline(Duration::from_millis(900)),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 2,
            request: request(1, &[2.0, 4.0], tight()).with_deadline(Duration::from_millis(100)),
            use_cache: false,
        });
        engine.submit(EngineRequest {
            id: 3,
            request: request(1, &[3.0, 3.5], tight()).with_priority(Priority::High),
            use_cache: false,
        });
        let completions = engine.run_until_idle();
        let order: Vec<u64> = completions.iter().map(|c| c.id).collect();
        assert_eq!(
            order,
            vec![3, 2, 1],
            "priority first, then earliest deadline"
        );
        assert!(completions.iter().all(|c| c.lane == Lane::Solo));
        let reference = solo(1, &[2.0, 4.0], tight());
        let c2 = completions.iter().find(|c| c.id == 2).unwrap();
        assert_eq!(c2.outcome.store.z, reference.store.z);
        assert_eq!(c2.outcome.iterations, reference.iterations);
    }

    #[test]
    fn empty_iteration_budget_completes_immediately() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.submit(EngineRequest {
            id: 1,
            request: request(1, &[1.0, 5.0], StoppingCriteria::fixed_iterations(0)),
            use_cache: false,
        });
        let completions = engine.run_until_idle();
        assert_eq!(completions.len(), 1);
        assert_eq!(completions[0].outcome.iterations, 0);
        assert_eq!(
            completions[0].outcome.stop_reason,
            StopReason::MaxIterations
        );
    }

    #[test]
    fn worksteal_backend_pack_stays_bit_identical() {
        for backend in ["worksteal:2", "sharded:2"] {
            let config = EngineConfig {
                backend: backend.parse().unwrap(),
                ..EngineConfig::default()
            };
            let mut engine = Engine::new(config);
            for (i, t) in [[1.0, 5.0], [2.0, 4.0]].iter().enumerate() {
                // A request's own backend string is carried, not obeyed:
                // the engine executes on its configured backend.
                let own = ["sharded:2", "async:2"][i];
                engine.submit(EngineRequest {
                    id: i as u64,
                    request: request(1, t, tight()).with_backend(own.parse().unwrap()),
                    use_cache: false,
                });
            }
            for c in by_id(engine.run_until_idle()) {
                let t = [[1.0, 5.0], [2.0, 4.0]][c.id as usize];
                let reference = solo(1, &t, tight());
                assert_eq!(c.outcome.iterations, reference.iterations, "{backend}");
                assert_eq!(c.outcome.store.z, reference.store.z, "{backend}");
            }
        }
    }

    #[test]
    fn next_event_follows_the_solo_schedule() {
        let s = StoppingCriteria {
            max_iters: 60,
            eps_abs: 0.0,
            eps_rel: 0.0,
            check_every: 25,
        };
        assert_eq!(next_event(0, &s), 25);
        assert_eq!(next_event(3, &s), 25);
        assert_eq!(next_event(25, &s), 50);
        assert_eq!(next_event(50, &s), 60, "final partial block checks at max");
        let fixed = StoppingCriteria::fixed_iterations(40);
        assert_eq!(next_event(0, &fixed), 40);
        assert_eq!(next_event(17, &fixed), 40);
    }

    #[test]
    fn engine_uses_solver_reference_solo_path() {
        // Sanity-pin the reference: SolveRequest::solve and a raw
        // Solver::run agree, so the engine's contract is anchored to
        // the primary solver loop.
        let outcome = solo(1, &[1.0, 5.0, 9.0], tight());
        let mut solver = Solver::from_problem(
            consensus(1, &[1.0, 5.0, 9.0]),
            SolverOptions {
                stopping: tight(),
                ..SolverOptions::default()
            },
        );
        let report = solver.run(2000);
        assert_eq!(outcome.iterations, report.iterations);
        assert_eq!(outcome.store.z, solver.store().z);
    }
}

//! The execution-backend abstraction: one trait, many ways to run one
//! compiled [`SweepPlan`].
//!
//! Every strategy for executing an ADMM iteration — serial loops, rayon
//! data-parallel loops, persistent barrier-synchronized workers, atomic
//! work-stealing workers, partition-local sharded workers with halo
//! exchange ([`crate::StaleBoundedBackend`]), probe-and-lock auto
//! selection, the simulated GPU in `paradmm-gpusim`, and any future
//! backend (real CUDA) — implements
//! [`SweepExecutor`]. The [`crate::Solver`] drives whichever backend it
//! is given through the same convergence loop, so a new backend is a
//! drop-in `impl`, not another enum arm.
//!
//! Since the SweepPlan refactor, no backend open-codes the five-sweep
//! schedule: each block resolves the problem's [`SweepPlan`] (the
//! default is the fused three-pass `x+m | z | u+n` schedule — see
//! [`SweepPlan::fused`]) and executes its passes, one synchronization
//! point per pass. The barrier and work-stealing workers share one
//! unsafe pass dispatcher (`SweepArrays::run_pass`), so every fusion —
//! including the u+n fusion the work-stealing backend used to hand-roll
//! — exists exactly once, in [`crate::kernels`].
//!
//! The synchronous backends (serial, rayon, barrier, work-stealing,
//! sharded — the bounded-staleness executor at `k = 0` — fleet, and
//! auto, which locks in one of them) are *bit-identical* to each other
//! by construction (the z-average is deterministic per variable
//! regardless of scheduling); `async` — the same executor at `k ≥ 1` —
//! is not, and converges instead — see [`StaleBoundedBackend`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use rayon::prelude::*;

use paradmm_graph::{EdgeStream, FactorId, VarStore};

use crate::kernels::{self, split_factor_blocks, x_update_factor};
use crate::plan::{Pass, PassKind, SweepPlan};
use crate::problem::AdmmProblem;
use crate::stale::StaleBoundedBackend;
use crate::timing::{SweepCosts, UpdateTimings};

/// A way to execute blocks of ADMM iterations (the five x/m/z/u/n sweeps)
/// and report how long each update kind took.
///
/// Implementations own whatever execution resources they need (thread
/// pools, device handles, simulated clocks); the [`crate::Solver`] owns
/// one backend and calls [`SweepExecutor::run_block`] between residual
/// checks.
///
/// # Scheduling contract (chunk size and fairness)
///
/// Algorithm 2 is a Jacobi-style schedule: within one sweep every task
/// reads only arrays the sweep does not write, so *any* partition of a
/// sweep's tasks into chunks, claimed by any worker in any order,
/// produces bit-identical iterates. Implementations are therefore free
/// to choose chunk size and assignment policy purely for throughput:
///
/// * **chunk size** trades claim overhead against load balance — a chunk
///   is the unit of work a worker acquires at once, so larger chunks
///   amortize coordination while smaller chunks let slow/unlucky workers
///   shed load (see [`WorkStealingBackend::with_chunk`]);
/// * **fairness** is not required — a backend may give one worker all
///   the work (as [`SerialBackend`] trivially does) or rebalance every
///   sweep; correctness never depends on who executed which chunk;
/// * the only hard rules are that every task of a pass is executed
///   **exactly once** per iteration, passes execute in the plan's order
///   (which [`SweepPlan::from_passes`] constrains to the x→m→z→u→n data
///   order, with adjacent same-space sweeps optionally fused: see
///   [`kernels::xm_update_range`] / [`kernels::un_update_edge`]), and
///   all writes of a pass are visible before the next pass reads them.
///
/// # Schedule resolution
///
/// Backends execute the [`SweepPlan`] the problem carries
/// ([`AdmmProblem::plan`]), falling back to the default fused three-pass
/// schedule ([`SweepPlan::fused`]) — use [`SweepPlan::resolve`] for the
/// shared rule. Any legal plan yields bit-identical iterates, so plan
/// choice is purely a throughput knob.
pub trait SweepExecutor: Send {
    /// Short stable label for reports and bench tables (e.g. `"serial"`,
    /// `"rayon"`).
    fn name(&self) -> &'static str;

    /// Whether this backend can execute `problem` at all. Defaults to
    /// `true`; backends priced or compiled for one specific problem
    /// (e.g. `paradmm-gpusim`'s adapter, whose kernel prices come from a
    /// profiled workload) return `false` on a mismatch so probing
    /// drivers like [`AutoBackend`] can fall through to a general
    /// backend instead of panicking mid-probe.
    fn supports(&self, _problem: &AdmmProblem) -> bool {
        true
    }

    /// Runs exactly `iters` complete iterations on `store`, adding
    /// per-update-kind durations into `timings`. Implementations must not
    /// touch `timings.iterations`; [`SweepExecutor::run_block`] accounts
    /// it centrally.
    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        timings: &mut UpdateTimings,
    );

    /// Runs a block of `iters` iterations and accounts them in `timings`.
    /// Callers use this; implementors override [`SweepExecutor::execute`].
    fn run_block(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        timings: &mut UpdateTimings,
    ) {
        self.execute(problem, store, iters, timings);
        timings.iterations += iters;
    }

    /// Asks the backend to re-balance its internal work split for
    /// freshly measured per-pass `costs` (an online replan — see
    /// [`crate::ReplanPolicy`]). Returns `true` if the backend changed
    /// anything. The default is a no-op: most backends split work from
    /// the (already cost-aware) [`SweepPlan`] each block, so a replan
    /// that installs a new plan on the problem reaches them with no
    /// backend-side state to rebuild. The partition-holding
    /// [`StaleBoundedBackend`] overrides this to re-grow their factor partition under the new
    /// weights.
    fn repartition(&mut self, _problem: &AdmmProblem, _costs: &SweepCosts) -> bool {
        false
    }
}

/// Minimum scalars per rayon work item for the cheap element-wise sweeps;
/// keeps task overhead negligible on large graphs.
const MIN_CHUNK: usize = 1024;

/// Optimized single-core loops — the paper's serial C baseline and the
/// denominator of every speedup it reports. Executes the problem's
/// [`SweepPlan`] pass by pass; under the default fused plan that is one
/// combined x+m traversal, a z pass on swapped buffers (no `z_prev`
/// copy), and one fused u+n traversal.
#[derive(Debug, Default, Clone, Copy)]
pub struct SerialBackend;

/// Builds the dense per-edge parameter stream the specialized u/n kernels
/// consume, or `None` under scalar dispatch. Executors call this once per
/// block — adaptive-ρ policies mutate `params` *between* blocks, so the
/// snapshot stays valid for the whole block.
fn block_stream(problem: &AdmmProblem) -> Option<EdgeStream> {
    kernels::specialized().then(|| EdgeStream::build(problem.graph(), problem.params()))
}

/// Runs one pass of a plan serially over its full index range.
/// Exhaustively dispatches every [`PassKind`]; the Z pass swaps the
/// `z`/`z_prev` buffers in place of the seed's snapshot copy (identical
/// values — see [`kernels::z_update_swapped_range`]).
fn run_pass_serial(
    problem: &AdmmProblem,
    store: &mut VarStore,
    pass: &Pass,
    stream: Option<&EdgeStream>,
) {
    let g = problem.graph();
    let params = problem.params();
    let items = pass.items();
    match pass.kind() {
        PassKind::X => kernels::x_update_range(
            g,
            problem.proxes(),
            params,
            &store.n,
            &mut store.x,
            0,
            items,
        ),
        PassKind::M => {
            kernels::m_update_range(&store.x, &store.u, &mut store.m, 0, items * g.dims())
        }
        PassKind::Xm => kernels::xm_update_range(
            g,
            problem.proxes(),
            params,
            &store.n,
            &store.u,
            &mut store.x,
            &mut store.m,
            0,
            items,
        ),
        PassKind::Z => {
            store.swap_z();
            kernels::z_update_swapped_range(
                g,
                params,
                &store.m,
                &store.z_prev,
                &mut store.z,
                0,
                items,
            );
        }
        PassKind::U => match stream {
            Some(s) => {
                kernels::u_update_range_stream(s, &store.x, &store.z, &mut store.u, 0, items)
            }
            None => kernels::u_update_range(g, params, &store.x, &store.z, &mut store.u, 0, items),
        },
        PassKind::N => match stream {
            Some(s) => {
                kernels::n_update_range_stream(s, &store.z, &store.u, &mut store.n, 0, items)
            }
            None => kernels::n_update_range(g, &store.z, &store.u, &mut store.n, 0, items),
        },
        PassKind::Un => match stream {
            Some(s) => kernels::un_update_range_stream(
                s,
                &store.x,
                &store.z,
                &mut store.u,
                &mut store.n,
                0,
                items,
            ),
            None => kernels::un_update_range(
                g,
                params,
                &store.x,
                &store.z,
                &mut store.u,
                &mut store.n,
                0,
                items,
            ),
        },
    }
}

impl SweepExecutor for SerialBackend {
    fn name(&self) -> &'static str {
        "serial"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        let plan = SweepPlan::resolve(problem);
        let stream = block_stream(problem);
        for _ in 0..iters {
            for pass in plan.passes() {
                let t0 = Instant::now();
                run_pass_serial(problem, store, pass, stream.as_ref());
                t.add(pass.kind().timing_kind(), t0.elapsed());
            }
        }
    }
}

/// Five data-parallel loops per iteration on the rayon pool — the paper's
/// OpenMP approach #1, one `#pragma omp parallel for` ≙ one parallel
/// iterator.
pub struct RayonBackend {
    threads: Option<usize>,
    pool: Option<rayon::ThreadPool>,
}

impl RayonBackend {
    /// Backend on a dedicated pool of `threads` workers; `None` uses the
    /// global pool.
    pub fn new(threads: Option<usize>) -> Self {
        let pool = threads.map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("failed to build rayon pool")
        });
        RayonBackend { threads, pool }
    }

    /// The configured worker count (`None` = rayon's default).
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }
}

impl SweepExecutor for RayonBackend {
    fn name(&self) -> &'static str {
        "rayon"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        match &self.pool {
            Some(p) => p.install(|| run_rayon(problem, store, iters, t)),
            None => run_rayon(problem, store, iters, t),
        }
    }
}

fn run_rayon(problem: &AdmmProblem, store: &mut VarStore, iters: usize, t: &mut UpdateTimings) {
    let plan = SweepPlan::resolve(problem);
    let stream = block_stream(problem);
    for _ in 0..iters {
        for pass in plan.passes() {
            let t0 = Instant::now();
            run_pass_rayon(problem, store, pass, stream.as_ref());
            t.add(pass.kind().timing_kind(), t0.elapsed());
        }
    }
}

/// Runs one pass of a plan as rayon data-parallel loops (one
/// `par_iter` ≙ one `#pragma omp parallel for` of the paper's approach
/// #1). Granularity comes from [`MIN_CHUNK`], not the pass's dynamic
/// chunk size — rayon's join splitting already rebalances. The
/// element-wise sweeps hand each parallel chunk to the block-relative
/// range kernels, so chunk shape only affects task boundaries, never any
/// per-element operation order.
fn run_pass_rayon(
    problem: &AdmmProblem,
    store: &mut VarStore,
    pass: &Pass,
    stream: Option<&EdgeStream>,
) {
    let g = problem.graph();
    let params = problem.params();
    let d = g.dims();
    let chunk = MIN_CHUNK.max(d);
    let var_chunk = (MIN_CHUNK / d.max(1)).max(1) * d;

    match pass.kind() {
        // x-update: one task per factor (each owns a contiguous x block).
        PassKind::X => {
            let n = &store.n;
            let blocks = split_factor_blocks(g, &mut store.x);
            blocks
                .into_par_iter()
                .enumerate()
                .with_min_len(8)
                .for_each(|(a, xb)| {
                    let fa = FactorId::from_usize(a);
                    x_update_factor(g, problem.prox(fa), params, n, xb, fa);
                });
        }
        // m-update: element-wise m = x + u over flat chunks.
        PassKind::M => {
            let x = &store.x;
            let u = &store.u;
            store
                .m
                .par_chunks_mut(chunk)
                .enumerate()
                .for_each(|(i, mc)| {
                    let lo = i * chunk;
                    kernels::m_update_range(
                        &x[lo..lo + mc.len()],
                        &u[lo..lo + mc.len()],
                        mc,
                        0,
                        mc.len(),
                    );
                });
        }
        // Fused x+m: one task per factor writing its own x *and* m block.
        PassKind::Xm => {
            let n = &store.n;
            let u = &store.u;
            let x_blocks = split_factor_blocks(g, &mut store.x);
            let m_blocks = split_factor_blocks(g, &mut store.m);
            x_blocks
                .into_par_iter()
                .zip(m_blocks.into_par_iter())
                .enumerate()
                .with_min_len(8)
                .for_each(|(a, (xb, mb))| {
                    let fa = FactorId::from_usize(a);
                    x_update_factor(g, problem.prox(fa), params, n, xb, fa);
                    let lo = g.factor_edge_range(fa).start * d;
                    kernels::m_update_range(xb, &u[lo..lo + mb.len()], mb, 0, mb.len());
                });
        }
        // z-update on swapped buffers: variable-aligned chunks, no z_prev
        // copy (degree-0 variables carry forward from z_prev).
        PassKind::Z => {
            store.swap_z();
            let m = &store.m;
            let z_old = &store.z_prev;
            store
                .z
                .par_chunks_mut(var_chunk)
                .enumerate()
                .for_each(|(i, zc)| {
                    let b_lo = i * var_chunk / d;
                    kernels::z_update_swapped_block(
                        g,
                        params,
                        m,
                        z_old,
                        zc,
                        b_lo,
                        b_lo + zc.len() / d,
                    );
                });
        }
        // u-update: edge-aligned chunks.
        PassKind::U => {
            let x = &store.x;
            let z = &store.z;
            store
                .u
                .par_chunks_mut(var_chunk)
                .enumerate()
                .for_each(|(i, uc)| {
                    let e_lo = i * var_chunk / d;
                    let e_hi = e_lo + uc.len() / d;
                    match stream {
                        Some(s) => kernels::u_update_range_stream(s, x, z, uc, e_lo, e_hi),
                        None => {
                            for e in e_lo..e_hi {
                                let off = (e - e_lo) * d;
                                kernels::u_update_edge(
                                    g,
                                    params,
                                    x,
                                    z,
                                    &mut uc[off..off + d],
                                    paradmm_graph::EdgeId::from_usize(e),
                                );
                            }
                        }
                    }
                });
        }
        // n-update: edge-aligned chunks.
        PassKind::N => {
            let z = &store.z;
            let u = &store.u;
            store
                .n
                .par_chunks_mut(var_chunk)
                .enumerate()
                .for_each(|(i, nc)| {
                    let e_lo = i * var_chunk / d;
                    let e_hi = e_lo + nc.len() / d;
                    match stream {
                        Some(s) => kernels::n_update_range_stream(s, z, u, nc, e_lo, e_hi),
                        None => {
                            for e in e_lo..e_hi {
                                let off = (e - e_lo) * d;
                                kernels::n_update_edge(
                                    g,
                                    z,
                                    u,
                                    &mut nc[off..off + d],
                                    paradmm_graph::EdgeId::from_usize(e),
                                );
                            }
                        }
                    }
                });
        }
        // Fused u+n: edge-aligned chunks writing both u and n blocks.
        PassKind::Un => {
            let x = &store.x;
            let z = &store.z;
            store
                .u
                .par_chunks_mut(var_chunk)
                .zip(store.n.par_chunks_mut(var_chunk))
                .enumerate()
                .for_each(|(i, (uc, nc))| {
                    let e_lo = i * var_chunk / d;
                    let e_hi = e_lo + uc.len() / d;
                    match stream {
                        Some(s) => kernels::un_update_range_stream(s, x, z, uc, nc, e_lo, e_hi),
                        None => {
                            for e in e_lo..e_hi {
                                let off = (e - e_lo) * d;
                                kernels::un_update_edge(
                                    g,
                                    params,
                                    x,
                                    z,
                                    &mut uc[off..off + d],
                                    &mut nc[off..off + d],
                                    paradmm_graph::EdgeId::from_usize(e),
                                );
                            }
                        }
                    }
                });
        }
    }
}

/// Persistent threads + barrier per update kind — the paper's OpenMP
/// approach #2, implemented to reproduce the finding that it is *slower*
/// than approach #1 on all three problems.
#[derive(Debug, Clone, Copy)]
pub struct BarrierBackend {
    threads: usize,
}

impl BarrierBackend {
    /// Backend with `threads` persistent workers (static index partition
    /// per worker, one barrier between update kinds).
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "barrier backend needs at least one thread");
        BarrierBackend { threads }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

impl SweepExecutor for BarrierBackend {
    fn name(&self) -> &'static str {
        "barrier"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        run_barrier(problem, store, iters, self.threads, t);
    }
}

/// Raw shared view of an `f64` array, handed to barrier / work-stealing
/// workers.
///
/// # Safety contract
/// Each pass writes a set of per-worker ranges that are pairwise disjoint
/// (static [`Pass::split`] partitions for the barrier backend; unique
/// atomically-claimed chunks for the work-stealing backend), and never
/// reads data that another worker writes in the same pass (verified
/// against Algorithm 2's data flow per [`PassKind`]: X reads n/writes x;
/// M reads x,u/writes m; the fused X+M pass writes x,m but each factor's
/// m reads only `u` — not written that pass — and the factor's own x,
/// written by the same worker in the same call; Z reads m and the
/// previous-iterate z buffer / writes the other z buffer; U reads
/// x,z/writes u; N reads z,u/writes n; the fused U+N pass writes u,n but
/// each `n_e` reads only `z` — not written that pass — and the same
/// edge's `u_e`, written by the same worker within the same chunk).
/// Barriers separate passes, establishing happens-before edges for all
/// cross-thread visibility.
#[derive(Clone, Copy)]
struct RawArray {
    ptr: *mut f64,
    len: usize,
}

unsafe impl Send for RawArray {}
unsafe impl Sync for RawArray {}

impl RawArray {
    fn new(data: &mut [f64]) -> Self {
        RawArray {
            ptr: data.as_mut_ptr(),
            len: data.len(),
        }
    }

    /// # Safety
    /// Caller must guarantee `[lo, hi)` is in-bounds and not aliased by any
    /// concurrent write, per the struct-level contract.
    #[allow(clippy::mut_from_ref)]
    unsafe fn range_mut(&self, lo: usize, hi: usize) -> &mut [f64] {
        debug_assert!(lo <= hi && hi <= self.len);
        std::slice::from_raw_parts_mut(self.ptr.add(lo), hi - lo)
    }

    /// # Safety
    /// Caller must guarantee no concurrent writes to the array during this
    /// borrow, per the struct-level contract.
    unsafe fn whole(&self) -> &[f64] {
        std::slice::from_raw_parts(self.ptr, self.len)
    }
}

/// The shared state a persistent-worker backend hands every worker: raw
/// views of all six ADMM arrays plus the problem context, with one method
/// per pass kind executing an element *range*. The barrier backend
/// calls these with its static per-thread splits, the work-stealing
/// backend with atomically claimed chunks — the unsafe bodies (and their
/// aliasing reasoning, see [`RawArray`]) exist exactly once, and every
/// fusion they dispatch to lives in [`crate::kernels`].
///
/// The two z buffers are held as a parity-indexed pair: workers cannot
/// swap the `Vec`s mid-block (raw pointers are captured once), so the Z
/// pass of iteration `k` writes buffer `(k+1) & 1` while buffer `k & 1`
/// becomes `z_prev` — the same double-buffer rotation
/// [`paradmm_graph::VarStore::swap_z`] performs, expressed as pointer
/// parity. The block driver normalizes the `Vec`s afterwards when the
/// iteration count is odd.
pub(crate) struct SweepArrays<'a> {
    problem: &'a AdmmProblem,
    g: &'a paradmm_graph::FactorGraph,
    params: &'a paradmm_graph::EdgeParams,
    d: usize,
    nf: usize,
    ne: usize,
    x: RawArray,
    m: RawArray,
    u: RawArray,
    n: RawArray,
    /// `[0]` views `store.z`, `[1]` views `store.z_prev`; which one holds
    /// the current iterate alternates per iteration (see struct docs).
    z_bufs: [RawArray; 2],
    /// Dense per-edge parameter snapshot for the specialized u/n bodies
    /// (`None` under scalar dispatch), captured once per block like the
    /// raw pointers.
    stream: Option<EdgeStream>,
}

impl<'a> SweepArrays<'a> {
    pub(crate) fn new(problem: &'a AdmmProblem, store: &mut VarStore) -> Self {
        let g = problem.graph();
        SweepArrays {
            problem,
            g,
            params: problem.params(),
            d: g.dims(),
            nf: g.num_factors(),
            ne: g.num_edges(),
            x: RawArray::new(&mut store.x),
            m: RawArray::new(&mut store.m),
            u: RawArray::new(&mut store.u),
            n: RawArray::new(&mut store.n),
            z_bufs: [
                RawArray::new(&mut store.z),
                RawArray::new(&mut store.z_prev),
            ],
            stream: block_stream(problem),
        }
    }

    /// Runs one pass's `[lo, hi)` item range at iteration `iter` (0-based
    /// within the block; it selects the z buffer parity).
    ///
    /// # Safety
    /// The per-phase obligations below apply to the dispatched kind; all
    /// callers must additionally guarantee disjoint item ranges within a
    /// phase, exactly-once coverage, and barrier separation between
    /// passes (see [`RawArray`]).
    pub(crate) unsafe fn run_pass(&self, pass: &Pass, iter: usize, lo: usize, hi: usize) {
        let z_old = iter & 1;
        let z_new = z_old ^ 1;
        match pass.kind() {
            PassKind::X => self.x_phase(lo, hi),
            PassKind::M => self.m_phase(lo, hi),
            PassKind::Xm => self.xm_phase(lo, hi),
            PassKind::Z => self.z_phase_swapped(lo, hi, z_old, z_new),
            PassKind::U => self.u_phase(lo, hi, z_new),
            PassKind::N => self.n_phase(lo, hi, z_new),
            PassKind::Un => self.un_phase(lo, hi, z_new),
        }
    }

    /// X sweep over factors `[f_lo, f_hi)` (their x-block is contiguous
    /// because factor edge ranges are contiguous and ordered).
    ///
    /// # Safety
    /// Writes x for exactly these factors; reads n, not written this
    /// phase. No other worker may execute an overlapping factor range in
    /// the same phase, and a barrier must separate this phase from any
    /// phase writing n or reading x.
    unsafe fn x_phase(&self, f_lo: usize, f_hi: usize) {
        let d = self.d;
        let flat = |f: usize| {
            if f < self.nf {
                self.g.factor_edge_range(FactorId::from_usize(f)).start * d
            } else {
                self.ne * d
            }
        };
        let x_block = self.x.range_mut(flat(f_lo), flat(f_hi));
        let n_all = self.n.whole();
        let mut offset = 0usize;
        for a in f_lo..f_hi {
            let fa = FactorId::from_usize(a);
            let len = self.g.factor_degree(fa) * d;
            x_update_factor(
                self.g,
                self.problem.prox(fa),
                self.params,
                n_all,
                &mut x_block[offset..offset + len],
                fa,
            );
            offset += len;
        }
    }

    /// Fused x+m pass over factors `[f_lo, f_hi)`: each factor's proximal
    /// operator followed by `m = x + u` for its own contiguous edge
    /// block (see [`kernels::xm_update_range`] for the bit-identity
    /// argument).
    ///
    /// # Safety
    /// Writes x and m for exactly these factors' edges; reads n and u,
    /// written by neither constituent sweep, plus the factor's own
    /// freshly written x (same worker, same call). Same disjointness and
    /// barrier-separation obligations as [`SweepArrays::x_phase`].
    unsafe fn xm_phase(&self, f_lo: usize, f_hi: usize) {
        let d = self.d;
        let flat = |f: usize| {
            if f < self.nf {
                self.g.factor_edge_range(FactorId::from_usize(f)).start * d
            } else {
                self.ne * d
            }
        };
        let base = flat(f_lo);
        let x_block = self.x.range_mut(base, flat(f_hi));
        let m_block = self.m.range_mut(base, flat(f_hi));
        let n_all = self.n.whole();
        let u_all = self.u.whole();
        let mut offset = 0usize;
        for a in f_lo..f_hi {
            let fa = FactorId::from_usize(a);
            let len = self.g.factor_degree(fa) * d;
            let xb = &mut x_block[offset..offset + len];
            x_update_factor(self.g, self.problem.prox(fa), self.params, n_all, xb, fa);
            kernels::m_update_range(
                xb,
                &u_all[base + offset..base + offset + len],
                &mut m_block[offset..offset + len],
                0,
                len,
            );
            offset += len;
        }
    }

    /// M sweep (`m = x + u`) over edges `[e_lo, e_hi)`.
    ///
    /// # Safety
    /// Writes m for exactly these edges; reads x, u. Same disjointness
    /// and barrier-separation obligations as [`SweepArrays::x_phase`].
    unsafe fn m_phase(&self, e_lo: usize, e_hi: usize) {
        let d = self.d;
        let m_block = self.m.range_mut(e_lo * d, e_hi * d);
        let x_all = self.x.whole();
        let u_all = self.u.whole();
        kernels::m_update_range(
            &x_all[e_lo * d..e_hi * d],
            &u_all[e_lo * d..e_hi * d],
            m_block,
            0,
            (e_hi - e_lo) * d,
        );
    }

    /// Z pass on swapped buffers over variables `[v_lo, v_hi)`: the
    /// fresh average is written into buffer `z_new` while buffer `z_old`
    /// (the previous iterate) plays `z_prev` — no snapshot copy.
    /// Degree-0 variables are copied forward from `z_old`.
    ///
    /// # Safety
    /// Writes buffer `z_new` for exactly these variables; reads m and
    /// buffer `z_old`, neither written this phase (`z_new ≠ z_old` is the
    /// caller's parity invariant; `z_old` was last written two phases —
    /// two barriers — ago). Same obligations as
    /// [`SweepArrays::x_phase`].
    unsafe fn z_phase_swapped(&self, v_lo: usize, v_hi: usize, z_old: usize, z_new: usize) {
        debug_assert_ne!(z_old, z_new);
        let d = self.d;
        let z_block = self.z_bufs[z_new].range_mut(v_lo * d, v_hi * d);
        let z_old_all = self.z_bufs[z_old].whole();
        let m_all = self.m.whole();
        kernels::z_update_swapped_block(self.g, self.params, m_all, z_old_all, z_block, v_lo, v_hi);
    }

    /// U sweep (dual ascent) over edges `[e_lo, e_hi)`, reading z from
    /// buffer `zi` (the one the Z pass of this iteration wrote).
    ///
    /// # Safety
    /// Writes u for exactly these edges; reads x and z buffer `zi`. Same
    /// obligations as [`SweepArrays::x_phase`].
    unsafe fn u_phase(&self, e_lo: usize, e_hi: usize, zi: usize) {
        let d = self.d;
        let u_block = self.u.range_mut(e_lo * d, e_hi * d);
        let x_all = self.x.whole();
        let z_all = self.z_bufs[zi].whole();
        match &self.stream {
            Some(s) => kernels::u_update_range_stream(s, x_all, z_all, u_block, e_lo, e_hi),
            None => {
                for e in e_lo..e_hi {
                    let ue = &mut u_block[(e - e_lo) * d..(e - e_lo + 1) * d];
                    kernels::u_update_edge(
                        self.g,
                        self.params,
                        x_all,
                        z_all,
                        ue,
                        paradmm_graph::EdgeId::from_usize(e),
                    );
                }
            }
        }
    }

    /// N sweep (`n = z − u`) over edges `[e_lo, e_hi)`, reading z from
    /// buffer `zi`.
    ///
    /// # Safety
    /// Writes n for exactly these edges; reads z buffer `zi`, u. Same
    /// obligations as [`SweepArrays::x_phase`].
    unsafe fn n_phase(&self, e_lo: usize, e_hi: usize, zi: usize) {
        let d = self.d;
        let n_block = self.n.range_mut(e_lo * d, e_hi * d);
        let z_all = self.z_bufs[zi].whole();
        let u_all = self.u.whole();
        match &self.stream {
            Some(s) => kernels::n_update_range_stream(s, z_all, u_all, n_block, e_lo, e_hi),
            None => {
                for e in e_lo..e_hi {
                    let nb = &mut n_block[(e - e_lo) * d..(e - e_lo + 1) * d];
                    kernels::n_update_edge(
                        self.g,
                        z_all,
                        u_all,
                        nb,
                        paradmm_graph::EdgeId::from_usize(e),
                    );
                }
            }
        }
    }

    /// Fused u+n pass over edges `[e_lo, e_hi)`, reading z from buffer
    /// `zi` — see [`kernels::un_update_edge`] for why fusion is
    /// bit-identical.
    ///
    /// # Safety
    /// Writes u and n for exactly these edges; reads x, z buffer `zi`,
    /// and each edge's own freshly written u (same worker, same call) —
    /// see [`RawArray`]'s contract on the fused phase. Same obligations
    /// as [`SweepArrays::x_phase`].
    unsafe fn un_phase(&self, e_lo: usize, e_hi: usize, zi: usize) {
        let d = self.d;
        let u_block = self.u.range_mut(e_lo * d, e_hi * d);
        let n_block = self.n.range_mut(e_lo * d, e_hi * d);
        let x_all = self.x.whole();
        let z_all = self.z_bufs[zi].whole();
        match &self.stream {
            Some(s) => {
                kernels::un_update_range_stream(s, x_all, z_all, u_block, n_block, e_lo, e_hi)
            }
            None => {
                for e in e_lo..e_hi {
                    let off = (e - e_lo) * d;
                    kernels::un_update_edge(
                        self.g,
                        self.params,
                        x_all,
                        z_all,
                        &mut u_block[off..off + d],
                        &mut n_block[off..off + d],
                        paradmm_graph::EdgeId::from_usize(e),
                    );
                }
            }
        }
    }
}

fn run_barrier(
    problem: &AdmmProblem,
    store: &mut VarStore,
    iters: usize,
    threads: usize,
    t: &mut UpdateTimings,
) {
    assert!(threads >= 1, "barrier backend needs at least one thread");
    let plan = SweepPlan::resolve(problem);
    let plan = plan.as_ref();

    let arrays = SweepArrays::new(problem, store);
    let barrier = Barrier::new(threads);
    let mut collected = UpdateTimings::new();

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let barrier = &barrier;
            let arrays = &arrays;
            handles.push(scope.spawn(move || {
                let mut local = UpdateTimings::new();
                // Static partitions, fixed for the whole run (the paper's
                // AssignThreads, cost-weighted when the plan carries a
                // measured profile). SAFETY (all passes): Pass::split
                // tiles each pass into pairwise-disjoint per-thread
                // ranges, every worker derives the same z-buffer parity
                // from the shared iteration counter, and a barrier
                // separates consecutive passes — exactly the obligations
                // the SweepArrays pass methods state.
                let splits: Vec<(usize, usize)> = plan
                    .passes()
                    .iter()
                    .map(|p| p.split(tid, threads))
                    .collect();
                for k in 0..iters {
                    for (pass, &(lo, hi)) in plan.passes().iter().zip(&splits) {
                        let t0 = Instant::now();
                        unsafe { arrays.run_pass(pass, k, lo, hi) };
                        barrier.wait();
                        if tid == 0 {
                            local.add(pass.kind().timing_kind(), t0.elapsed());
                        }
                    }
                }
                local
            }));
        }
        for h in handles {
            let local = h.join().expect("barrier worker panicked");
            collected.merge(&local);
        }
    });
    // An odd iteration count leaves the final iterate in the z_prev Vec
    // (the parity rotation's other buffer); one O(1) swap restores the
    // z = current / z_prev = previous naming.
    if iters % 2 == 1 {
        store.swap_z();
    }
    collected.iterations = 0; // accounted centrally by run_block
    t.merge(&collected);
}

/// Default chunk size (graph elements per claim) for
/// [`WorkStealingBackend`] — small enough that a straggling worker sheds
/// load mid-sweep, large enough that the claim `fetch_add` is noise.
pub const DEFAULT_STEAL_CHUNK: usize = 64;

/// Persistent workers that *claim* fixed-size chunks of every pass from
/// a shared atomic work index instead of owning a static range — the
/// dynamic-scheduling answer to the straggler problem the paper pins on
/// approach #2 (static per-thread ranges leave cores idle whenever the
/// factor graph's degree distribution is lumpy).
///
/// Each iteration runs the plan's passes (three under the default fused
/// plan: x+m, z, u+n — this backend pioneered the u+n fusion, which now
/// lives in the shared [`SweepPlan`] machinery instead of being
/// hand-rolled here). Within a pass, every worker repeatedly
/// `fetch_add`s a shared chunk counter and executes the claimed chunk of
/// factors / edges / variables, so a worker stuck on a heavy chunk simply
/// claims fewer chunks while the others drain the rest — the atomic
/// work-index idiom of work-assisting runtimes, applied per pass. The
/// claim granularity is each pass's [`Pass::chunk`] unless an explicit
/// [`WorkStealingBackend::with_chunk`] override is set.
///
/// Iterates are **bit-identical** to [`SerialBackend`]: chunks partition
/// each pass exactly, every task runs exactly once, and Algorithm 2's
/// Jacobi data flow makes the result independent of which worker ran
/// which chunk (see the trait-level scheduling contract).
///
/// Fused passes are accounted under their first constituent in the
/// timings (x+m under [`crate::UpdateKind::X`], u+n under
/// [`crate::UpdateKind::U`])
/// since the constituents are no longer separable.
#[derive(Debug, Clone, Copy)]
pub struct WorkStealingBackend {
    threads: usize,
    chunk: Option<usize>,
}

impl WorkStealingBackend {
    /// Backend with `threads` workers claiming each pass's
    /// [`Pass::chunk`]-sized chunks ([`DEFAULT_STEAL_CHUNK`] under an
    /// unmeasured plan).
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        assert!(
            threads >= 1,
            "work-stealing backend needs at least one thread"
        );
        WorkStealingBackend {
            threads,
            chunk: None,
        }
    }

    /// Backend with an explicit chunk size (graph elements per claim)
    /// overriding every pass's own granularity. Smaller chunks rebalance
    /// harder; larger chunks claim less often.
    ///
    /// # Panics
    /// If `threads == 0` or `chunk == 0`.
    pub fn with_chunk(threads: usize, chunk: usize) -> Self {
        assert!(
            threads >= 1,
            "work-stealing backend needs at least one thread"
        );
        assert!(chunk >= 1, "chunk size must be positive");
        WorkStealingBackend {
            threads,
            chunk: Some(chunk),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Graph elements claimed per atomic increment ([`DEFAULT_STEAL_CHUNK`]
    /// when no override is set — the per-pass plan granularity applies).
    pub fn chunk(&self) -> usize {
        self.chunk.unwrap_or(DEFAULT_STEAL_CHUNK)
    }
}

impl SweepExecutor for WorkStealingBackend {
    fn name(&self) -> &'static str {
        "worksteal"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        run_worksteal(problem, store, iters, self.threads, self.chunk, t);
    }
}

/// How many synchronization points per iteration a barrier-style backend
/// pays for `problem` — the plan's pass count (see
/// [`SweepPlan::barriers_per_iteration`]). Exposed so gates and benches
/// can assert the fused schedule's ≤ 3 barriers without re-deriving the
/// resolution rule.
pub fn barriers_per_iteration(problem: &AdmmProblem) -> usize {
    SweepPlan::resolve(problem).barriers_per_iteration()
}

fn run_worksteal(
    problem: &AdmmProblem,
    store: &mut VarStore,
    iters: usize,
    threads: usize,
    chunk_override: Option<usize>,
    t: &mut UpdateTimings,
) {
    let plan = SweepPlan::resolve(problem);
    let plan = plan.as_ref();
    // Per-pass claim granularity: the plan's (possibly measured) chunk
    // size unless the backend was built with an explicit override.
    let chunks: Vec<usize> = plan
        .passes()
        .iter()
        .map(|p| chunk_override.unwrap_or_else(|| p.chunk()))
        .collect();

    let arrays = SweepArrays::new(problem, store);
    let barrier = Barrier::new(threads);
    // One claim counter per pass, double-buffered by iteration parity:
    // iteration k claims from buffer `k & 1` while the barrier leader
    // zeroes buffer `k+1 & 1` for the next iteration. The buffer being
    // reset was last claimed from in iteration k−1, and its next use (in
    // k+1) is separated from the reset by at least one full barrier, so
    // the reset never races a claim.
    let counters: Vec<[AtomicUsize; 2]> =
        plan.passes().iter().map(|_| Default::default()).collect();
    let mut collected = UpdateTimings::new();

    // Claims chunk after chunk of `n_items` from `counter` and runs
    // `body(lo, hi)` on each; the unique `fetch_add` ticket makes claimed
    // ranges pairwise disjoint across workers — the disjointness the
    // SweepArrays pass methods require.
    let steal =
        |counter: &AtomicUsize, n_items: usize, chunk: usize, body: &dyn Fn(usize, usize)| loop {
            let c = counter.fetch_add(1, Ordering::Relaxed);
            let lo = c * chunk;
            if lo >= n_items {
                break;
            }
            body(lo, (lo + chunk).min(n_items));
        };

    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for tid in 0..threads {
            let barrier = &barrier;
            let counters = &counters;
            let chunks = &chunks;
            let arrays = &arrays;
            let steal = &steal;
            handles.push(scope.spawn(move || {
                let mut local = UpdateTimings::new();
                for k in 0..iters {
                    let buf = k & 1;
                    // SAFETY (all passes): chunk claims are disjoint (see
                    // `steal`), every element of a pass is claimed exactly
                    // once per iteration, every worker derives the same
                    // z-buffer parity from the shared iteration counter,
                    // and a barrier separates passes.
                    for (pi, pass) in plan.passes().iter().enumerate() {
                        let t0 = Instant::now();
                        steal(
                            &counters[pi][buf],
                            pass.items(),
                            chunks[pi],
                            &|lo, hi| unsafe { arrays.run_pass(pass, k, lo, hi) },
                        );
                        if barrier.wait().is_leader() {
                            counters[pi][buf ^ 1].store(0, Ordering::Relaxed);
                        }
                        if tid == 0 {
                            local.add(pass.kind().timing_kind(), t0.elapsed());
                        }
                    }
                }
                local
            }));
        }
        for h in handles {
            let local = h.join().expect("work-stealing worker panicked");
            collected.merge(&local);
        }
    });
    // Odd iteration counts leave the final iterate in the z_prev Vec —
    // normalize, as in run_barrier.
    if iters % 2 == 1 {
        store.swap_z();
    }
    collected.iterations = 0; // accounted centrally by run_block
    t.merge(&collected);
}

/// Self-tuning backend: probes every candidate on a short warmup of the
/// *actual* problem, locks in the fastest, and runs it from then on —
/// the paper's "automatic per-operator tuning" future-work item made
/// concrete for backend selection.
///
/// The first [`SweepExecutor::run_block`] call triggers the probe: each
/// candidate that [`SweepExecutor::supports`] the problem runs a few
/// iterations on a **clone** of the state (so probing never perturbs the
/// caller's iterates) through the standard [`UpdateTimings`]-accounted
/// block path, ranked by **wall-clock** seconds per iteration — the cost
/// the caller will actually pay on subsequent blocks. (Ranking on each
/// backend's own [`UpdateTimings`] would compare incommensurable clocks:
/// a simulated-device candidate like `paradmm-gpusim`'s reports device
/// time there, which says nothing about its real host cost.) The fastest
/// candidate wins and owns all subsequent blocks; the choice is
/// permanent for the backend's lifetime. If no candidate supports the
/// problem, the probe falls through to [`SerialBackend`], which supports
/// everything.
///
/// The default candidate set ([`AutoBackend::new`]) is the six
/// synchronous CPU backends — Serial, Rayon, Barrier, WorkStealing,
/// Fleet (whose single-instance degenerate form is a barrier-free
/// chunk-claiming executor), and the sharded bounded-staleness executor
/// at `k = 0` (watermark waits instead of barriers, still the
/// synchronous schedule) — all bit-identical by construction, so
/// whichever one wins, the iterates match [`SerialBackend`] exactly.
/// Custom candidate sets ([`AutoBackend::with_candidates`]) carry
/// whatever equivalence their members guarantee.
pub struct AutoBackend {
    probe_iters: usize,
    candidates: Vec<Box<dyn SweepExecutor>>,
    chosen: Option<Box<dyn SweepExecutor>>,
    probe_report: Vec<(&'static str, f64)>,
}

impl AutoBackend {
    /// Auto-selection over the six synchronous CPU backends, each
    /// configured for `threads` workers (the sharded candidate runs one
    /// shard per worker at `k = 0`, its bit-identical configuration).
    ///
    /// # Panics
    /// If `threads == 0`.
    pub fn new(threads: usize) -> Self {
        Self::with_candidates(vec![
            Box::new(SerialBackend),
            Box::new(RayonBackend::new(Some(threads))),
            Box::new(BarrierBackend::new(threads)),
            Box::new(WorkStealingBackend::new(threads)),
            Box::new(crate::fleet::FleetBackend::new(threads)),
            Box::new(StaleBoundedBackend::new(threads, 0)),
        ])
    }

    /// Auto-selection over an arbitrary candidate set. Candidates that
    /// don't [`SweepExecutor::supports`] the probed problem are skipped;
    /// an empty or fully-unsupported set falls through to
    /// [`SerialBackend`].
    pub fn with_candidates(candidates: Vec<Box<dyn SweepExecutor>>) -> Self {
        AutoBackend {
            probe_iters: 6,
            candidates,
            chosen: None,
            probe_report: Vec::new(),
        }
    }

    /// Sets how many iterations each candidate runs during the probe.
    ///
    /// # Panics
    /// If `iters == 0`.
    pub fn set_probe_iters(&mut self, iters: usize) {
        assert!(iters >= 1, "probe needs at least one iteration");
        self.probe_iters = iters;
    }

    /// Name of the backend the probe locked in, or `None` before the
    /// first block runs.
    pub fn selected(&self) -> Option<&'static str> {
        self.chosen.as_ref().map(|b| b.name())
    }

    /// Probe measurements as `(backend name, wall-clock seconds per
    /// iteration)`, in candidate order (skipped candidates absent). Empty
    /// until the first block runs.
    pub fn probe_report(&self) -> &[(&'static str, f64)] {
        &self.probe_report
    }

    fn probe(&mut self, problem: &AdmmProblem, store: &VarStore) {
        let mut best: Option<(usize, f64)> = None;
        for (i, cand) in self.candidates.iter_mut().enumerate() {
            if !cand.supports(problem) {
                continue;
            }
            // Probe on a clone: candidate iterations must not advance (or
            // corrupt, for non-bit-identical candidates) the real state.
            let mut scratch = store.clone();
            let mut timings = UpdateTimings::new();
            let wall = Instant::now();
            cand.run_block(problem, &mut scratch, self.probe_iters, &mut timings);
            // Rank by wall clock — the cost the caller pays — never by the
            // candidate's own accounting, which for simulated-device
            // backends reports a different clock entirely.
            let s_per_iter = wall.elapsed().as_secs_f64() / self.probe_iters as f64;
            self.probe_report.push((cand.name(), s_per_iter));
            if best.is_none_or(|(_, b)| s_per_iter < b) {
                best = Some((i, s_per_iter));
            }
        }
        self.chosen = Some(match best {
            Some((i, _)) => self.candidates.swap_remove(i),
            None => Box::new(SerialBackend),
        });
        self.candidates.clear(); // losing candidates release their pools
    }
}

impl SweepExecutor for AutoBackend {
    fn name(&self) -> &'static str {
        "auto"
    }

    fn execute(
        &mut self,
        problem: &AdmmProblem,
        store: &mut VarStore,
        iters: usize,
        t: &mut UpdateTimings,
    ) {
        if self.chosen.is_none() {
            self.probe(problem, store);
        }
        self.chosen
            .as_mut()
            .expect("probe always locks in a backend")
            .execute(problem, store, iters, t);
    }

    fn repartition(&mut self, problem: &AdmmProblem, costs: &SweepCosts) -> bool {
        match self.chosen.as_mut() {
            Some(b) => b.repartition(problem, costs),
            None => false, // nothing locked in yet; nothing to rebuild
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx, ZeroProx};

    /// Consensus of quadratic factors: minimize Σ (s − tᵢ)² over one
    /// shared scalar variable. Optimum is the mean of the targets.
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

    fn solve_with(backend: &mut dyn SweepExecutor, iters: usize) -> f64 {
        let problem = consensus_problem(&[1.0, 5.0, 9.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        backend.run_block(&problem, &mut store, iters, &mut t);
        assert_eq!(t.iterations, iters);
        store.z[0]
    }

    #[test]
    fn serial_converges_to_mean() {
        let z = solve_with(&mut SerialBackend, 300);
        assert!((z - 5.0).abs() < 1e-6, "z = {z}");
    }

    #[test]
    fn rayon_matches_serial_exactly() {
        // Same fixed-point iteration → identical iterates (the z-average is
        // deterministic per variable regardless of scheduling).
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut RayonBackend::new(None), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn rayon_with_explicit_threads() {
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut RayonBackend::new(Some(2)), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn barrier_matches_serial_exactly() {
        for threads in [1, 2, 3, 5] {
            let a = solve_with(&mut SerialBackend, 50);
            let b = solve_with(&mut BarrierBackend::new(threads), 50);
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn barrier_more_threads_than_work() {
        // 3 factors, 1 variable, 3 edges but 8 threads: empty partitions
        // must be handled.
        let problem = consensus_problem(&[2.0, 4.0, 6.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        BarrierBackend::new(8).run_block(&problem, &mut store, 100, &mut t);
        assert!((store.z[0] - 4.0).abs() < 1e-4);
    }

    #[test]
    fn worksteal_matches_serial_exactly() {
        for threads in [1, 2, 3, 5] {
            let a = solve_with(&mut SerialBackend, 50);
            let b = solve_with(&mut WorkStealingBackend::new(threads), 50);
            assert_eq!(a, b, "threads = {threads}");
        }
    }

    #[test]
    fn worksteal_tiny_chunks_force_real_stealing() {
        // chunk = 1 on a 3-factor problem with more threads than work:
        // every chunk is contended, empty claims abound, and iterates must
        // still be bit-identical to serial.
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut WorkStealingBackend::with_chunk(8, 1), 50);
        assert_eq!(a, b);
    }

    #[test]
    fn worksteal_odd_iteration_counts_reset_counters_correctly() {
        // Blocks of odd length exercise the double-buffered claim
        // counters across run_block boundaries (parity restarts at 0 each
        // block).
        let problem = consensus_problem(&[1.0, 5.0, 9.0]);
        let mut serial_store = VarStore::zeros(problem.graph());
        let mut ws_store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        let mut ws = WorkStealingBackend::with_chunk(3, 1);
        for block in [1usize, 3, 7, 2, 5] {
            SerialBackend.run_block(&problem, &mut serial_store, block, &mut t);
            ws.run_block(&problem, &mut ws_store, block, &mut t);
            assert_eq!(serial_store.z, ws_store.z, "after block {block}");
            assert_eq!(serial_store.u, ws_store.u, "after block {block}");
            assert_eq!(serial_store.n, ws_store.n, "after block {block}");
        }
    }

    #[test]
    fn auto_backend_locks_in_a_candidate_and_matches_serial() {
        let mut auto = AutoBackend::new(2);
        assert_eq!(auto.selected(), None);
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut auto, 50);
        assert_eq!(a, b);
        let name = auto.selected().expect("probe must lock in");
        assert!(auto.probe_report().iter().any(|&(n, _)| n == name));
        assert!(auto.probe_report().iter().all(|&(_, s)| s > 0.0));
        // The probe picks the argmin of its own report.
        let best = auto
            .probe_report()
            .iter()
            .fold(f64::INFINITY, |acc, &(_, s)| acc.min(s));
        let sel = auto
            .probe_report()
            .iter()
            .find(|&&(n, _)| n == name)
            .map(|&(_, s)| s)
            .unwrap();
        assert_eq!(sel, best, "selected candidate must be the fastest probed");
    }

    #[test]
    fn auto_backend_probe_does_not_perturb_state() {
        // Two identical stores, one driven by auto and one by serial:
        // after the same number of iterations the iterates agree, i.e.
        // the probe's warmup iterations ran on clones, not on the state.
        let problem = consensus_problem(&[2.0, 4.0]);
        let mut auto_store = VarStore::zeros(problem.graph());
        let mut serial_store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        AutoBackend::new(2).run_block(&problem, &mut auto_store, 13, &mut t);
        SerialBackend.run_block(&problem, &mut serial_store, 13, &mut t);
        assert_eq!(auto_store.z, serial_store.z);
        assert_eq!(auto_store.u, serial_store.u);
    }

    #[test]
    fn auto_backend_empty_candidates_falls_back_to_serial() {
        let mut auto = AutoBackend::with_candidates(Vec::new());
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut auto, 50);
        assert_eq!(a, b);
        assert_eq!(auto.selected(), Some("serial"));
        assert!(auto.probe_report().is_empty());
    }

    /// A backend that supports nothing — exercises the probe's skip path.
    struct UnsupportedBackend;

    impl SweepExecutor for UnsupportedBackend {
        fn name(&self) -> &'static str {
            "unsupported"
        }

        fn supports(&self, _problem: &AdmmProblem) -> bool {
            false
        }

        fn execute(
            &mut self,
            _problem: &AdmmProblem,
            _store: &mut VarStore,
            _iters: usize,
            _timings: &mut UpdateTimings,
        ) {
            panic!("unsupported backend must never execute");
        }
    }

    #[test]
    fn auto_backend_skips_unsupported_candidates() {
        let mut auto = AutoBackend::with_candidates(vec![
            Box::new(UnsupportedBackend),
            Box::new(SerialBackend),
        ]);
        let a = solve_with(&mut SerialBackend, 50);
        let b = solve_with(&mut auto, 50);
        assert_eq!(a, b);
        assert_eq!(auto.selected(), Some("serial"));
        assert!(auto
            .probe_report()
            .iter()
            .all(|&(name, _)| name != "unsupported"));
    }

    #[test]
    fn auto_backend_all_unsupported_falls_back_to_serial() {
        let mut auto = AutoBackend::with_candidates(vec![Box::new(UnsupportedBackend)]);
        let z = solve_with(&mut auto, 300);
        assert!((z - 5.0).abs() < 1e-6, "z = {z}");
        assert_eq!(auto.selected(), Some("serial"));
    }

    #[test]
    fn async_backend_converges_to_mean() {
        let z = solve_with(&mut StaleBoundedBackend::new(2, 1), 800);
        assert!((z - 5.0).abs() < 1e-4, "z = {z}");
    }

    #[test]
    fn async_backend_tolerates_inconsistent_seeded_z() {
        // Hand-seed z to garbage while m stays zero: execute() must
        // restore z = ρ-avg(m) = 0 before activating, so the run still
        // converges to the mean instead of carrying the offset forever.
        let problem = consensus_problem(&[1.0, 5.0, 9.0]);
        let mut store = VarStore::zeros(problem.graph());
        store.z.fill(1e3);
        let mut t = UpdateTimings::new();
        StaleBoundedBackend::new(2, 1).run_block(&problem, &mut store, 800, &mut t);
        assert!((store.z[0] - 5.0).abs() < 1e-4, "z = {}", store.z[0]);
    }

    #[test]
    fn zero_prox_is_fixed_point_at_zero() {
        // With f ≡ 0 and zero init, every sweep keeps state at zero.
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(2);
        b.add_factor(&[vs[0], vs[1]]);
        let problem = AdmmProblem::new(b.build(), vec![Box::new(ZeroProx)], 1.0, 1.0);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(&problem, &mut store, 10, &mut t);
        assert!(store.z.iter().all(|&v| v == 0.0));
        assert!(store.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn timings_record_all_kinds() {
        let problem = consensus_problem(&[1.0, 2.0]);
        let mut store = VarStore::zeros(problem.graph());
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(&problem, &mut store, 5, &mut t);
        assert!(t.total_seconds() > 0.0);
        assert_eq!(t.iterations, 5);
    }

    #[test]
    fn backend_names_are_stable() {
        assert_eq!(SerialBackend.name(), "serial");
        assert_eq!(RayonBackend::new(None).name(), "rayon");
        assert_eq!(BarrierBackend::new(2).name(), "barrier");
        assert_eq!(StaleBoundedBackend::new(2, 1).name(), "async");
        assert_eq!(WorkStealingBackend::new(2).name(), "worksteal");
        assert_eq!(AutoBackend::new(2).name(), "auto");
        assert_eq!(StaleBoundedBackend::new(2, 0).name(), "sharded");
        assert_eq!(crate::fleet::FleetBackend::new(2).name(), "fleet");
    }

    #[test]
    fn worksteal_accessors() {
        let b = WorkStealingBackend::with_chunk(3, 17);
        assert_eq!(b.threads(), 3);
        assert_eq!(b.chunk(), 17);
        assert_eq!(WorkStealingBackend::new(2).chunk(), DEFAULT_STEAL_CHUNK);
    }
}

//! The user-facing solve paths, timed untraced, and the correctness
//! gate every timed result passes through.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use paradmm_core::{BackendSpec, BatchSolver, FleetSolver, SolveOutcome, SolveRequest, StopReason};
use paradmm_graph::EdgeId;

use crate::workloads::Workload;

/// Worker count of every parallel path: the core count of the 2-core
/// host the benchmark was sized on, fixed so that results compare
/// across hosts.
pub const WORKERS: usize = 2;

/// Backend of the `batch` path: the serving engine's default, so the
/// path times the fused pack the way the server's batch lane runs it. On
/// `worksteal:2`, per-block thread launch made its wall-clock swing with
/// the host's load (quartile spread 0.20 over ten runs on `serve-mpc`).
pub const BATCH_BACKEND: &str = "serial";

/// Parses a backend descriptor this file names.
pub fn spec(s: &str) -> BackendSpec {
    s.parse().expect("benchmark backend descriptors parse")
}

/// What a serial solo solve of a problem returned, recorded once.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Iterations to stop.
    pub iterations: usize,
    /// Why it stopped.
    pub stop_reason: StopReason,
    /// Final consensus iterate.
    pub z: Vec<f64>,
    /// Wall-clock of the solve, seconds.
    pub solo_s: f64,
    /// How far one more iteration may move `z` after the reference's
    /// last check. ADMM's fixed-point residual never grows (He and Yuan
    /// 2015), so every later step is bounded by that check's primal and
    /// dual tolerances combined: `hypot(eps_dual / ρ_min, eps_pri)`.
    pub step_tolerance: f64,
}

/// Serial reference solve of every distinct problem of `w`, indexed
/// like `w.problems`.
pub fn references(w: &Workload) -> Vec<Reference> {
    let mut refs = Vec::with_capacity(w.problems.len());
    for spec in &w.problems {
        let problem = spec.build();
        let g = problem.graph();
        let components = (g.num_edges() * g.dims()) as f64;
        let rho_min = (0..g.num_edges())
            .map(|e| problem.params().rho(EdgeId::from_usize(e)))
            .fold(f64::INFINITY, f64::min);
        let request = SolveRequest::new(problem).with_stopping(w.stopping);
        let t = Instant::now();
        let out = request.solve();
        let solo_s = t.elapsed().as_secs_f64();
        let floor = components.sqrt() * w.stopping.eps_abs;
        let (eps_pri, eps_dual) = out.final_residuals.map_or((floor, floor), |r| {
            (
                floor + w.stopping.eps_rel * r.x_norm.max(r.z_norm),
                floor + w.stopping.eps_rel * r.u_norm,
            )
        });
        refs.push(Reference {
            solo_s,
            step_tolerance: (eps_dual / rho_min).hypot(eps_pri),
            iterations: out.iterations,
            stop_reason: out.stop_reason,
            z: out.store.z.to_vec(),
        });
    }
    refs
}

/// Failure counts, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Failures {
    /// Results checked.
    pub attempted: u64,
    /// Error responses.
    pub error: u64,
    /// Requests that never got a response.
    pub missing: u64,
    /// Solves that did not converge within budget.
    pub not_converged: u64,
    /// Results that differ from the reference.
    pub mismatch: u64,
}

impl Failures {
    /// Failures of every kind.
    pub fn total(&self) -> u64 {
        self.error + self.missing + self.not_converged + self.mismatch
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Failures) {
        self.attempted += other.attempted;
        self.error += other.error;
        self.missing += other.missing;
        self.not_converged += other.not_converged;
        self.mismatch += other.mismatch;
    }

    /// Checks a cold result: it must have converged and match the serial
    /// reference bit for bit (iterations, stop reason and `z`).
    pub fn check_identical(
        &mut self,
        iterations: usize,
        stop_reason: StopReason,
        z: &[f64],
        r: &Reference,
    ) {
        self.attempted += 1;
        if stop_reason != StopReason::Converged {
            self.not_converged += 1;
        } else if iterations != r.iterations || stop_reason != r.stop_reason || !bits_equal(z, &r.z)
        {
            self.mismatch += 1;
        }
    }

    /// Checks a result warm-started from the reference's final state: it
    /// must converge, and its `z` may lie no farther from the reference
    /// than its `iterations` steps of at most
    /// [`Reference::step_tolerance`] each can carry it.
    pub fn check_close(
        &mut self,
        iterations: usize,
        stop_reason: StopReason,
        z: &[f64],
        r: &Reference,
    ) {
        self.attempted += 1;
        if stop_reason != StopReason::Converged {
            self.not_converged += 1;
        } else if z.len() != r.z.len() || distance(z, &r.z) > iterations as f64 * r.step_tolerance {
            self.mismatch += 1;
        }
    }
}

/// Whether two slices hold the same bits.
pub fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Euclidean distance.
pub fn distance(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The timed result of one path over a request set.
#[derive(Debug, Clone, Default)]
pub struct PathRun {
    /// Wall-clock to solve every request, seconds.
    pub seconds: f64,
    /// ADMM iterations over every request.
    pub iterations: usize,
    /// Wall-clock of each call into the public API, seconds, in call
    /// order: one per request on the one-at-a-time paths; on the others
    /// one entry, the whole pass.
    pub call_s: Vec<f64>,
}

/// Builds requests for problems `set` of `w`, on `backend`.
pub fn requests(w: &Workload, set: &[usize], backend: BackendSpec) -> Vec<SolveRequest> {
    set.iter()
        .map(|&p| {
            SolveRequest::new(w.problems[p].build())
                .with_stopping(w.stopping)
                .with_backend(backend)
        })
        .collect()
}

fn check_all(set: &[usize], outs: &[SolveOutcome], refs: &[Reference], f: &mut Failures) -> usize {
    let mut iterations = 0;
    for (&p, out) in set.iter().zip(outs) {
        let r = &refs[p];
        f.check_identical(out.iterations, out.stop_reason, &out.store.z, r);
        iterations += out.iterations;
    }
    f.missing += (set.len() - outs.len().min(set.len())) as u64;
    iterations
}

/// `SolveRequest::solve` on `backend`, one request at a time.
pub fn solo(
    w: &Workload,
    set: &[usize],
    backend: BackendSpec,
    refs: &[Reference],
    f: &mut Failures,
) -> PathRun {
    let reqs = requests(w, set, backend);
    let mut call_s = Vec::with_capacity(reqs.len());
    let mut outs = Vec::with_capacity(reqs.len());
    let t = Instant::now();
    for req in reqs {
        let t_req = Instant::now();
        outs.push(req.solve());
        call_s.push(t_req.elapsed().as_secs_f64());
    }
    let seconds = t.elapsed().as_secs_f64();
    PathRun {
        seconds,
        iterations: check_all(set, &outs, refs, f),
        call_s,
    }
}

/// `FleetSolver::solve_requests` over the whole set with 2 workers.
pub fn fleet(w: &Workload, set: &[usize], refs: &[Reference], f: &mut Failures) -> PathRun {
    let reqs = requests(
        w,
        set,
        BackendSpec::Fleet {
            threads: Some(WORKERS),
        },
    );
    let t = Instant::now();
    let outs = FleetSolver::solve_requests(reqs);
    let seconds = t.elapsed().as_secs_f64();
    PathRun {
        seconds,
        iterations: check_all(set, &outs, refs, f),
        call_s: vec![seconds],
    }
}

/// Splits `set` into groups of equal `dims` (a fused batch needs one),
/// preserving order.
pub fn dims_groups(w: &Workload, set: &[usize]) -> Vec<Vec<usize>> {
    let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
    for &p in set {
        let d = w.problems[p].dims();
        match groups.iter_mut().find(|(gd, _)| *gd == d) {
            Some((_, g)) => g.push(p),
            None => groups.push((d, vec![p])),
        }
    }
    groups.into_iter().map(|(_, g)| g).collect()
}

/// `BatchSolver::solve_requests` on [`BATCH_BACKEND`], one batch per `dims`.
pub fn batch(w: &Workload, set: &[usize], refs: &[Reference], f: &mut Failures) -> PathRun {
    let groups = dims_groups(w, set);
    let reqs: Vec<Vec<SolveRequest>> = groups
        .iter()
        .map(|g| requests(w, g, spec(BATCH_BACKEND)))
        .collect();
    let t = Instant::now();
    let outs: Vec<Vec<SolveOutcome>> = reqs.into_iter().map(BatchSolver::solve_requests).collect();
    let seconds = t.elapsed().as_secs_f64();
    let iterations = groups
        .iter()
        .zip(&outs)
        .map(|(g, o)| check_all(g, o, refs, f))
        .sum();
    PathRun {
        seconds,
        iterations,
        call_s: vec![seconds],
    }
}

/// The simplest strong baseline for many instances: independent serial
/// solves on 2 threads, each claiming the largest remaining request.
pub fn percore_serial(
    w: &Workload,
    set: &[usize],
    refs: &[Reference],
    f: &mut Failures,
) -> PathRun {
    let reqs = requests(w, set, BackendSpec::Serial);
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(reqs[i].problem().graph().num_edges()));
    let slots: Vec<Mutex<Option<SolveRequest>>> =
        reqs.into_iter().map(|r| Mutex::new(Some(r))).collect();
    let results: Vec<Mutex<Option<SolveOutcome>>> =
        slots.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| {
                while let Some(&i) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let req = slots[i].lock().expect("no solver panics").take();
                    let out = req.expect("each request is claimed once").solve();
                    *results[i].lock().expect("no solver panics") = Some(out);
                }
            });
        }
    });
    let seconds = t.elapsed().as_secs_f64();
    let outs: Vec<SolveOutcome> = results
        .into_iter()
        .filter_map(|m| m.into_inner().expect("no solver panics"))
        .collect();
    PathRun {
        seconds,
        iterations: check_all(set, &outs, refs, f),
        call_s: vec![seconds],
    }
}

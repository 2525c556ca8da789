//! Seeded workload generators. They live here, not in a library crate,
//! so that no change elsewhere in the repository can change a workload.
//!
//! Each generator draws its inputs from [`SplitMix64`] seeded by the
//! benchmark's `--seed`, so the same seed gives byte-identical inputs.
//! Quantities that set the total amount of work are drawn so that
//! every seed gets a different input of the same shape and the work per
//! run barely moves with the seed: the SVM points are a seeded rotation
//! of one point set, the fleet horizons are stratified. Run-to-run
//! spread then measures the program and not the draw.

use paradmm_core::{AdmmProblem, Priority, SolveRequest, StoppingCriteria};
use paradmm_graph::GraphBuilder;
use paradmm_mpc::{pendulum::paper_plant, MpcConfig, MpcProblem};
use paradmm_prox::{BoxProx, ConsensusEqualityProx, ProxOp, QuadraticProx};
use paradmm_svm::{Dataset, SvmConfig, SvmProblem};

use crate::rng::SplitMix64;

/// Points in the `svm-large` training set.
pub const SVM_POINTS: usize = 4000;
/// Distance between the two Gaussian class means (unit variance), chosen
/// so that a solve to [`offline_stopping`] takes about 2.2k iterations.
pub const SVM_SEPARATION: f64 = 3.5;
/// Instances in the `mpc-fleet` workload.
pub const FLEET_INSTANCES: usize = 14;
/// Cold requests of the `serve-mpc` mix that the offline solve paths
/// (serial, rayon, …, per-core serial) re-solve one at a time.
pub const SERVE_OFFLINE_REQUESTS: usize = 48;
/// Offered request rate of `serve-mpc`, requests per second. The mix
/// saturates at roughly 200 req/s on the 2-core host it was sized on, but
/// at 100 req/s the backlog grew in one of five trial runs, when the host
/// slowed multi-threaded work about threefold; 60 req/s keeps headroom
/// for that and still gives the 25-second schedule over a thousand
/// latency samples, enough for a p99 with ten samples beyond it.
pub const SERVE_RATE: f64 = 60.0;

/// The workload names the benchmark accepts.
pub const WORKLOADS: [&str; 3] = ["svm-large", "mpc-fleet", "serve-mpc"];

/// Tolerance of the offline workloads (`svm-large`, `mpc-fleet`).
pub fn offline_stopping() -> StoppingCriteria {
    StoppingCriteria {
        max_iters: 20_000,
        eps_abs: 1e-5,
        eps_rel: 1e-3,
        check_every: 10,
    }
}

/// Tolerance of the served requests, as in the serving examples.
pub fn serve_stopping() -> StoppingCriteria {
    StoppingCriteria {
        max_iters: 5_000,
        eps_abs: 1e-6,
        eps_rel: 1e-4,
        check_every: 10,
    }
}

/// One distinct problem, kept as the inputs of its family builder so it
/// can be rebuilt for every path (an [`AdmmProblem`] is consumed by a
/// solve and cannot be cloned).
#[derive(Debug, Clone)]
pub enum ProblemSpec {
    /// Soft-margin SVM, replicated topology (dims = d + 1).
    Svm(Dataset),
    /// Pendulum MPC over a horizon (dims = 5).
    Mpc(MpcConfig),
    /// A dims-2 chain of tracking costs, box limits and consensus links
    /// built only from wire-encodable operators.
    Chain(Vec<[f64; 2]>),
}

impl ProblemSpec {
    /// Components per variable of the built problem.
    pub fn dims(&self) -> usize {
        match self {
            ProblemSpec::Svm(data) => data.dim + 1,
            ProblemSpec::Mpc(_) => 5,
            ProblemSpec::Chain(_) => 2,
        }
    }

    /// Runs the family builder.
    pub fn build(&self) -> AdmmProblem {
        match self {
            ProblemSpec::Svm(data) => SvmProblem::build(data, SvmConfig::default()).1,
            ProblemSpec::Mpc(cfg) => MpcProblem::build(cfg.clone(), paper_plant()).1,
            ProblemSpec::Chain(targets) => chain_problem(targets),
        }
    }
}

fn chain_problem(targets: &[[f64; 2]]) -> AdmmProblem {
    let mut b = GraphBuilder::new(2);
    let vars = b.add_vars(targets.len());
    let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
    for (v, t) in vars.iter().zip(targets) {
        b.add_factor(&[*v]);
        proxes.push(Box::new(QuadraticProx::isotropic(2, 1.0, t)));
        b.add_factor(&[*v]);
        proxes.push(Box::new(BoxProx::new(-1.0, 1.0)));
    }
    for w in vars.windows(2) {
        b.add_factor(w);
        proxes.push(Box::new(ConsensusEqualityProx));
    }
    AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
}

/// One request of a workload.
#[derive(Debug, Clone, Copy)]
pub struct RequestSpec {
    /// Index into [`Workload::problems`].
    pub problem: usize,
    /// Scheduling priority sent with the request.
    pub priority: Priority,
    /// Whether the server may warm-start it from its cache (set on
    /// resubmissions only).
    pub use_cache: bool,
    /// Open-loop send time after the schedule starts, in seconds
    /// (always 0 for the offline workloads).
    pub due_s: f64,
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Why the workload is in the benchmark.
    pub why: &'static str,
    /// Distinct problems; each gets one serial reference solve.
    pub problems: Vec<ProblemSpec>,
    /// Requests in submission order. For the offline workloads there is
    /// one per problem.
    pub requests: Vec<RequestSpec>,
    /// Tolerance of every request.
    pub stopping: StoppingCriteria,
    /// Length of the open-loop schedule in seconds (0 when offline).
    pub schedule_s: f64,
}

impl Workload {
    /// Generates workload `name` from `seed`; `seconds` sets the length of
    /// the `serve-mpc` schedule.
    pub fn generate(name: &str, seed: u64, seconds: f64) -> Option<Workload> {
        let mut rng = SplitMix64::new(seed);
        match name {
            "svm-large" => Some(svm_large(&mut rng)),
            "mpc-fleet" => Some(mpc_fleet(&mut rng, FLEET_INSTANCES)),
            "serve-mpc" => Some(serve_mpc(&mut rng, SERVE_RATE, seconds)),
            _ => None,
        }
    }

    /// Builds request `i` through its family builder.
    pub fn build_request(&self, i: usize) -> SolveRequest {
        let spec = &self.requests[i];
        SolveRequest::new(self.problems[spec.problem].build())
            .with_stopping(self.stopping)
            .with_priority(spec.priority)
    }

    /// The problems the offline solve paths run: every problem of an
    /// offline workload; for `serve-mpc`, the first
    /// [`SERVE_OFFLINE_REQUESTS`] problems of the mix.
    pub fn offline_set(&self) -> Vec<usize> {
        let n = if self.schedule_s > 0.0 {
            SERVE_OFFLINE_REQUESTS.min(self.problems.len())
        } else {
            self.problems.len()
        };
        (0..n).collect()
    }
}

/// Two unit-variance Gaussian classes in d = 2, means
/// [`SVM_SEPARATION`] apart. Points come from a low-discrepancy (R2)
/// sequence mapped through Box–Muller, and the seed draws a rotation of
/// the whole set about the origin. The SVM objective and ADMM's updates
/// commute with rotations of the data, so every seed gets fresh
/// coordinates for the same problem geometry and, up to rounding, the
/// same iteration count; a seeded shift of the sequence instead moved
/// the count by ±6 %, and the solve time with it.
fn svm_large(rng: &mut SplitMix64) -> Workload {
    const A1: f64 = 0.754_877_666_246_692_8;
    const A2: f64 = 0.569_840_290_998_053_2;
    let (sin, cos) = rng.uniform(0.0, 2.0 * std::f64::consts::PI).sin_cos();
    let mut points = Vec::with_capacity(SVM_POINTS);
    let mut labels = Vec::with_capacity(SVM_POINTS);
    for i in 0..SVM_POINTS {
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        let k = (i / 2) as f64 + 0.5;
        let u1 = (k * A1 + if i % 2 == 0 { 0.0 } else { 0.5 })
            .fract()
            .max(1e-12);
        let u2 = (k * A2).fract();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let (x0, x1) = (r * theta.cos() + y * SVM_SEPARATION / 2.0, r * theta.sin());
        points.push(vec![cos * x0 - sin * x1, sin * x0 + cos * x1]);
        labels.push(y);
    }
    let data = Dataset {
        points,
        labels,
        dim: 2,
    };
    Workload {
        name: "svm-large",
        why: "one 24k-edge solve whose x-prox and z sweeps dominate; each 10-iteration block \
              lasts milliseconds, so kernels and in-pass sync show and thread launch barely does",
        problems: vec![ProblemSpec::Svm(data)],
        requests: vec![RequestSpec {
            problem: 0,
            priority: Priority::Normal,
            use_cache: false,
            due_s: 0.0,
        }],
        stopping: offline_stopping(),
        schedule_s: 0.0,
    }
}

fn pendulum_config(rng: &mut SplitMix64, horizon: usize) -> MpcConfig {
    let mut cfg = MpcConfig::new(horizon);
    cfg.q0 = [
        rng.uniform(0.05, 0.15),
        rng.uniform(-0.02, 0.02),
        rng.uniform(0.02, 0.08),
        rng.uniform(-0.01, 0.01),
    ];
    cfg
}

/// `count` integers stratified over `lo..=hi`: one uniform draw per
/// equal-width stratum, shuffled.
fn stratified(rng: &mut SplitMix64, count: usize, lo: usize, hi: usize) -> Vec<usize> {
    let width = (hi - lo + 1) as f64;
    let mut values: Vec<usize> = (0..count)
        .map(|k| lo + (width * (k as f64 + rng.unit()) / count as f64) as usize)
        .map(|v| v.min(hi))
        .collect();
    rng.shuffle(&mut values);
    values
}

/// The long-tail fleet: every 7th instance has horizon 40–200, the rest
/// 5–20, and every instance its own initial state.
fn mpc_fleet(rng: &mut SplitMix64, n: usize) -> Workload {
    let tail_count = n.div_ceil(7);
    let mut tail = stratified(rng, tail_count, 40, 200).into_iter();
    let mut bulk = stratified(rng, n - tail_count, 5, 20).into_iter();
    let problems: Vec<ProblemSpec> = (0..n)
        .map(|i| {
            let horizon = if i % 7 == 0 { tail.next() } else { bulk.next() };
            let horizon = horizon.expect("one horizon per instance");
            ProblemSpec::Mpc(pendulum_config(rng, horizon))
        })
        .collect();
    let requests = (0..n)
        .map(|problem| RequestSpec {
            problem,
            priority: Priority::Normal,
            use_cache: false,
            due_s: 0.0,
        })
        .collect();
    Workload {
        name: "mpc-fleet",
        why: "thousands of sub-millisecond blocks on 17-602-edge graphs: thread launch, residual \
              checks and straggler balance dominate; fleet, batch and per-core serial compete",
        problems,
        requests,
        stopping: offline_stopping(),
        schedule_s: 0.0,
    }
}

/// Open-loop Poisson arrivals of small requests: `rate × seconds`
/// arrivals (rounded) at sorted uniform times, which is a Poisson
/// process conditioned on its count, so every seed offers the same
/// load. By position `k` in the schedule: `k % 4 == 3` resubmits one
/// of the 32 most recent distinct problems with `use_cache`; otherwise
/// `k % 8 == 1` is a dims-2 chain of 4–12 links, `k % 16 == 2` a
/// Critical MPC request and the rest normal MPC requests with horizons
/// 3–8. Horizons and chain lengths come in shuffled blocks holding
/// every value once, so each stretch of the schedule has the same mix.
fn serve_mpc(rng: &mut SplitMix64, rate: f64, seconds: f64) -> Workload {
    let count = (rate * seconds).round() as usize;
    let mut due: Vec<f64> = (0..count).map(|_| rng.uniform(0.0, seconds)).collect();
    due.sort_by(f64::total_cmp);
    let mut horizons = Vec::new();
    let mut lengths = Vec::new();
    let mut problems = Vec::new();
    let mut requests = Vec::new();
    for (k, &t) in due.iter().enumerate() {
        let spec = if k % 4 == 3 && !problems.is_empty() {
            let recent = problems.len().min(32);
            RequestSpec {
                problem: problems.len() - 1 - rng.below(recent),
                priority: Priority::Normal,
                use_cache: true,
                due_s: t,
            }
        } else {
            let (problem, priority) = if k % 8 == 1 {
                let len = balanced(rng, &mut lengths, 4, 12);
                let targets = (0..len)
                    .map(|_| [rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)])
                    .collect();
                (ProblemSpec::Chain(targets), Priority::Normal)
            } else {
                let horizon = balanced(rng, &mut horizons, 3, 8);
                let priority = if k % 16 == 2 {
                    Priority::Critical
                } else {
                    Priority::Normal
                };
                (ProblemSpec::Mpc(pendulum_config(rng, horizon)), priority)
            };
            problems.push(problem);
            RequestSpec {
                problem: problems.len() - 1,
                priority,
                use_cache: false,
                due_s: t,
            }
        };
        requests.push(spec);
    }
    Workload {
        name: "serve-mpc",
        why: "few-millisecond requests over TCP at a fixed offered rate: codec, transport, \
              admission, pack/repack, lane routing and the warm-start cache dominate",
        problems,
        requests,
        stopping: serve_stopping(),
        schedule_s: seconds,
    }
}

/// Next value of `lo..=hi` from `pool`, a shuffled block holding every
/// value once, refilled when empty.
fn balanced(rng: &mut SplitMix64, pool: &mut Vec<usize>, lo: usize, hi: usize) -> usize {
    if pool.is_empty() {
        pool.extend(lo..=hi);
        rng.shuffle(pool);
    }
    pool.pop().expect("refilled when empty")
}

/// The measured shape of a generated workload.
#[derive(Debug, Clone, Default)]
pub struct Shape {
    /// Requests in the workload.
    pub requests: usize,
    /// Distinct problems.
    pub problems: usize,
    /// Edges over all distinct problems.
    pub edges: usize,
    /// Smallest and largest edge count of one problem.
    pub edges_min_max: (usize, usize),
    /// `(dims, problems)` pairs, ascending by dims.
    pub dims_mix: Vec<(usize, usize)>,
    /// Share of requests sent as Critical.
    pub critical_share: f64,
    /// Share of requests the server routes to its fleet lane (Critical
    /// or not of the majority dims).
    pub fleet_lane_share: f64,
    /// Share of requests that resubmit an earlier problem.
    pub repeat_share: f64,
}

impl Shape {
    /// Builds every distinct problem once and measures it.
    pub fn measure(w: &Workload) -> Shape {
        let built: Vec<AdmmProblem> = w.problems.iter().map(ProblemSpec::build).collect();
        let mut dims_mix: Vec<(usize, usize)> = Vec::new();
        for p in &built {
            let d = p.graph().dims();
            match dims_mix.iter_mut().find(|(dd, _)| *dd == d) {
                Some(entry) => entry.1 += 1,
                None => dims_mix.push((d, 1)),
            }
        }
        dims_mix.sort();
        let major = dims_mix.iter().max_by_key(|(_, c)| *c).map(|(d, _)| *d);
        let n = w.requests.len().max(1) as f64;
        let share = |f: &dyn Fn(&RequestSpec) -> bool| {
            w.requests.iter().filter(|r| f(r)).count() as f64 / n
        };
        let edges: Vec<usize> = built.iter().map(|p| p.graph().num_edges()).collect();
        Shape {
            requests: w.requests.len(),
            problems: w.problems.len(),
            edges: edges.iter().sum(),
            edges_min_max: (
                edges.iter().copied().min().unwrap_or(0),
                edges.iter().copied().max().unwrap_or(0),
            ),
            critical_share: share(&|r| r.priority == Priority::Critical),
            fleet_lane_share: share(&|r| {
                r.priority == Priority::Critical || Some(built[r.problem].graph().dims()) != major
            }),
            repeat_share: share(&|r| r.use_cache),
            dims_mix,
        }
    }
}

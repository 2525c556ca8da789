//! Factor-graph construction for the packing problem (paper Figure 6).

use paradmm_core::{
    AdmmProblem, BackendSpec, ProxOp, Solver, SolverOptions, StoppingCriteria, SweepExecutor,
};
use paradmm_graph::{GraphBuilder, VarId, VarStore};
use paradmm_prox::{HalfspaceProx, QuadraticProx};
use rand::Rng;

use crate::geometry::{Disk, Polygon};
use crate::prox::CollisionProx;

/// Parameters of a packing instance.
#[derive(Debug, Clone)]
pub struct PackingConfig {
    /// Number of disks `N`.
    pub n_disks: usize,
    /// The convex container (the paper uses a triangle, `S = 3`).
    pub container: Polygon,
    /// Penalty weight ρ. Must exceed 1: the radius-maximization operator
    /// `argmin −½r² + ρ/2(r − n)²` is only bounded for ρ > 1.
    pub rho: f64,
    /// Dual step α.
    pub alpha: f64,
}

impl PackingConfig {
    /// Paper-style defaults: `n` disks in a unit-ish triangle.
    pub fn new(n_disks: usize) -> Self {
        PackingConfig {
            n_disks,
            container: Polygon::triangle(1.0),
            rho: 2.0,
            alpha: 1.0,
        }
    }
}

/// A built packing instance: the factor graph plus variable bookkeeping.
pub struct PackingProblem {
    config: PackingConfig,
    center_vars: Vec<VarId>,
    radius_vars: Vec<VarId>,
}

/// Extracted solution.
#[derive(Debug, Clone)]
pub struct PackingSolution {
    /// One disk per index.
    pub disks: Vec<Disk>,
}

impl PackingSolution {
    /// Total covered area `Σ π rᵢ²`.
    pub fn covered_area(&self) -> f64 {
        self.disks.iter().map(Disk::area).sum()
    }

    /// Most negative pairwise gap (≥ ~0 means collision-free).
    pub fn worst_overlap(&self) -> f64 {
        let mut worst = f64::INFINITY;
        for i in 0..self.disks.len() {
            for j in i + 1..self.disks.len() {
                worst = worst.min(self.disks[i].gap(&self.disks[j]));
            }
        }
        worst
    }

    /// Most negative wall clearance (≥ ~0 means all disks inside).
    pub fn worst_wall_violation(&self, container: &Polygon) -> f64 {
        container.min_clearance(&self.disks)
    }
}

impl PackingProblem {
    /// Builds the factor graph of paper Figure 6:
    /// `2N` variable nodes, `N(N−1)/2` collision factors, `N` radius
    /// factors, `N·S` wall factors; `dims = 2` (radius blocks use
    /// component 0).
    pub fn build(config: PackingConfig) -> (Self, AdmmProblem) {
        assert!(config.n_disks >= 1, "need at least one disk");
        assert!(
            config.rho > 1.0,
            "rho must exceed 1 for the radius operator"
        );
        let n = config.n_disks;
        let s = config.container.walls.len();
        let mut b =
            GraphBuilder::with_capacity(2, n * (n - 1) / 2 + n + n * s, 2 * n * n - n + 2 * n * s);
        let center_vars = b.add_vars(n);
        let radius_vars = b.add_vars(n);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::with_capacity(n * (n - 1) / 2 + n + n * s);

        // Collision factors (i < j): edges (c_i, r_i, c_j, r_j).
        for i in 0..n {
            for j in i + 1..n {
                b.add_factor(&[
                    center_vars[i],
                    radius_vars[i],
                    center_vars[j],
                    radius_vars[j],
                ]);
                proxes.push(Box::new(CollisionProx));
            }
        }
        // Radius-maximization factors: f(r) = −½ r² on component 0.
        for i in 0..n {
            b.add_factor(&[radius_vars[i]]);
            proxes.push(Box::new(QuadraticProx::diagonal(
                vec![-1.0, 0.0],
                vec![0.0, 0.0],
            )));
        }
        // Wall factors: Qᵀ(c − V) ≥ r ⇔ (Q, −1)·(c, r) ≥ QᵀV, blocks (c_i, r_i).
        for i in 0..n {
            for wall in &config.container.walls {
                b.add_factor(&[center_vars[i], radius_vars[i]]);
                let a = vec![wall.q[0], wall.q[1], -1.0, 0.0];
                let bias = wall.q[0] * wall.v[0] + wall.q[1] * wall.v[1];
                proxes.push(Box::new(HalfspaceProx::new(a, bias)));
            }
        }

        let graph = b.build();
        debug_assert_eq!(graph.num_edges(), 2 * n * n - n + 2 * n * s);
        debug_assert_eq!(graph.num_vars(), 2 * n);
        let problem = AdmmProblem::new(graph, proxes, config.rho, config.alpha);
        (
            PackingProblem {
                config,
                center_vars,
                radius_vars,
            },
            problem,
        )
    }

    /// The instance parameters.
    pub fn config(&self) -> &PackingConfig {
        &self.config
    }

    /// Initializes `store` with centers sampled inside the container and
    /// small positive radii (the paper initializes uniformly at random).
    pub fn init_store(&self, store: &mut VarStore, rng: &mut impl Rng) {
        let poly = &self.config.container;
        let verts = &poly.vertices;
        let n = self.config.n_disks;
        let r0 = (poly.area() / (n as f64 * 8.0)).sqrt();
        for i in 0..n {
            // Rejection-free interior sample: random convex combination.
            let mut w: Vec<f64> = (0..verts.len()).map(|_| rng.gen_range(0.01..1.0)).collect();
            let total: f64 = w.iter().sum();
            w.iter_mut().for_each(|v| *v /= total);
            let mut p = [0.0, 0.0];
            for (wk, vert) in w.iter().zip(verts) {
                p[0] += wk * vert[0];
                p[1] += wk * vert[1];
            }
            let zc = store.var_range(self.center_vars[i]);
            store.z[zc.start] = p[0];
            store.z[zc.start + 1] = p[1];
            let zr = store.var_range(self.radius_vars[i]);
            store.z[zr.start] = r0 * rng.gen_range(0.5..1.5);
            store.z[zr.start + 1] = 0.0;
        }
        store.snapshot_z();
    }

    /// Broadcasts the current `z` into every edge's `n` (and zeroes `u`),
    /// so iteration starts from the initialized consensus values.
    pub fn broadcast_z(&self, problem: &AdmmProblem, store: &mut VarStore) {
        let g = problem.graph();
        let d = g.dims();
        for e in g.edges() {
            let b = g.edge_var(e);
            let (lo, vlo) = (e.idx() * d, b.idx() * d);
            for c in 0..d {
                store.n[lo + c] = store.z[vlo + c];
                store.m[lo + c] = store.z[vlo + c];
                store.x[lo + c] = store.z[vlo + c];
                store.u[lo + c] = 0.0;
            }
        }
    }

    /// Reads the disks out of the consensus variables.
    pub fn extract(&self, store: &VarStore) -> PackingSolution {
        let disks = (0..self.config.n_disks)
            .map(|i| {
                let zc = store.z_var(self.center_vars[i]);
                let zr = store.z_var(self.radius_vars[i]);
                Disk {
                    c: [zc[0], zc[1]],
                    r: zr[0],
                }
            })
            .collect();
        PackingSolution { disks }
    }

    /// Convenience: build, initialize, and solve with `iters` iterations.
    pub fn solve(
        config: PackingConfig,
        iters: usize,
        seed: u64,
        backend: BackendSpec,
    ) -> (PackingSolution, PackingProblem) {
        Self::solve_with_backend(config, iters, seed, backend.to_backend())
    }

    /// Build, randomly initialize, and run `iters` iterations on any
    /// [`SweepExecutor`] backend.
    pub fn solve_with_backend(
        config: PackingConfig,
        iters: usize,
        seed: u64,
        backend: Box<dyn SweepExecutor>,
    ) -> (PackingSolution, PackingProblem) {
        use rand::SeedableRng;
        let (packing, admm) = PackingProblem::build(config);
        let options = SolverOptions {
            backend: BackendSpec::Serial, // ignored by from_problem_with_backend
            rho: packing.config.rho,
            alpha: packing.config.alpha,
            stopping: StoppingCriteria::fixed_iterations(iters),
        };
        let mut solver = Solver::from_problem_with_backend(admm, options, backend);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        packing.init_store(solver.store_mut(), &mut rng);
        // Split the borrows: broadcast needs the graph (shared) and the
        // store (mutable) at once.
        {
            let (problem_ref, store_ref) = solver.problem_and_store_mut();
            packing.broadcast_z(problem_ref, store_ref);
        }
        solver.run(iters);
        let solution = packing.extract(solver.store());
        (solution, packing)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_counts_match_paper_formulas() {
        for n in [1usize, 2, 5, 12] {
            let (_, admm) = PackingProblem::build(PackingConfig::new(n));
            let g = admm.graph();
            let s = 3;
            assert_eq!(g.num_vars(), 2 * n);
            assert_eq!(g.num_edges(), 2 * n * n - n + 2 * n * s, "n = {n}");
            assert_eq!(g.num_factors(), n * (n - 1) / 2 + n + n * s);
        }
    }

    #[test]
    fn single_disk_fills_triangle_incircle() {
        // One disk in a triangle converges to (approximately) the incircle.
        let config = PackingConfig {
            n_disks: 1,
            container: Polygon::triangle(1.0),
            rho: 2.0,
            alpha: 1.0,
        };
        let (solution, packing) = PackingProblem::solve(config, 3000, 7, BackendSpec::Serial);
        let d = &solution.disks[0];
        // Equilateral triangle side 1: inradius = 1/(2√3) ≈ 0.2887.
        let inradius = 1.0 / (2.0 * 3.0_f64.sqrt());
        assert!(
            (d.r - inradius).abs() < 0.02,
            "radius {} should approach inradius {inradius}",
            d.r
        );
        assert!(
            solution.worst_wall_violation(&packing.config().container) > -0.02,
            "disk must stay (approximately) inside"
        );
    }

    #[test]
    fn two_disks_dont_overlap() {
        let config = PackingConfig {
            n_disks: 2,
            container: Polygon::triangle(1.0),
            rho: 2.5,
            alpha: 1.0,
        };
        let (solution, packing) = PackingProblem::solve(config, 4000, 3, BackendSpec::Serial);
        assert!(
            solution.worst_overlap() > -0.02,
            "overlap {}",
            solution.worst_overlap()
        );
        assert!(solution.worst_wall_violation(&packing.config().container) > -0.02);
        assert!(
            solution.disks.iter().all(|d| d.r > 0.01),
            "radii should be positive"
        );
    }

    #[test]
    fn five_disks_in_square_cover_something() {
        let config = PackingConfig {
            n_disks: 5,
            container: Polygon::square(1.0),
            rho: 2.0,
            alpha: 1.0,
        };
        let (solution, packing) = PackingProblem::solve(config, 4000, 11, BackendSpec::Serial);
        assert!(solution.worst_overlap() > -0.05);
        assert!(solution.worst_wall_violation(&packing.config().container) > -0.05);
        let coverage = solution.covered_area() / packing.config().container.area();
        assert!(
            coverage > 0.25,
            "coverage {coverage} too low — solver not making progress"
        );
        assert!(
            coverage < 1.0,
            "coverage {coverage} impossible — constraints violated"
        );
    }

    #[test]
    fn rayon_scheduler_gives_identical_result() {
        let c1 = PackingConfig::new(4);
        let c2 = PackingConfig::new(4);
        let (a, _) = PackingProblem::solve(c1, 200, 5, BackendSpec::Serial);
        let (b, _) = PackingProblem::solve(c2, 200, 5, BackendSpec::Rayon { threads: Some(2) });
        for (da, db) in a.disks.iter().zip(&b.disks) {
            assert_eq!(da.c, db.c);
            assert_eq!(da.r, db.r);
        }
    }

    #[test]
    #[should_panic(expected = "rho must exceed 1")]
    fn small_rho_rejected() {
        let mut c = PackingConfig::new(2);
        c.rho = 0.5;
        let _ = PackingProblem::build(c);
    }

    #[test]
    fn extract_reads_consensus() {
        let (packing, admm) = PackingProblem::build(PackingConfig::new(2));
        let mut store = VarStore::zeros(admm.graph());
        // Manually set z for disk 1.
        let zc = store.var_range(VarId(1));
        store.z[zc.start] = 0.3;
        store.z[zc.start + 1] = 0.4;
        let zr = store.var_range(VarId(3));
        store.z[zr.start] = 0.1;
        let sol = packing.extract(&store);
        assert_eq!(sol.disks[1].c, [0.3, 0.4]);
        assert_eq!(sol.disks[1].r, 0.1);
    }
}

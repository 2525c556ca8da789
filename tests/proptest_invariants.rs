//! Property-based tests on the core invariants, with randomly generated
//! topologies, parameters, and states.

use proptest::prelude::*;

use paradmm::core::{
    AdmmProblem, BackendSpec, FleetSolver, Residuals, SerialBackend, Solver, SolverOptions,
    StoppingCriteria, SweepExecutor, UpdateTimings,
};
use paradmm::graph::{
    EdgeParams, FactorGraph, GraphBuilder, GraphStats, Partition, PartitionStats, VarId, VarStore,
};
use paradmm::prox::{ConsensusEqualityProx, ProxCtx, ProxOp, QuadraticProx, ZeroProx};

/// Strategy: a random factor graph with exactly `dims` components, up to
/// `max_vars` variables and `max_factors` factors, each factor touching
/// a random distinct subset.
fn arb_graph_with_dims(
    dims: usize,
    max_vars: usize,
    max_factors: usize,
) -> impl Strategy<Value = FactorGraph> {
    (1usize..=max_vars).prop_flat_map(move |nv| {
        let factor = proptest::collection::btree_set(0..nv, 1..=nv.min(4));
        proptest::collection::vec(factor, 1..=max_factors).prop_map(move |factors| {
            let mut b = GraphBuilder::new(dims);
            let vars = b.add_vars(nv);
            for f in &factors {
                let vs: Vec<VarId> = f.iter().map(|&i| vars[i]).collect();
                b.add_factor(&vs);
            }
            b.build()
        })
    })
}

/// Strategy: a random factor graph with random `dims` ∈ 1..=3.
fn arb_graph(max_vars: usize, max_factors: usize) -> impl Strategy<Value = FactorGraph> {
    (1usize..=3).prop_flat_map(move |dims| arb_graph_with_dims(dims, max_vars, max_factors))
}

/// Strategy: 1–4 random graphs sharing one `dims` — a packable batch.
fn arb_batch_graphs(
    max_vars: usize,
    max_factors: usize,
) -> impl Strategy<Value = Vec<FactorGraph>> {
    (1usize..=3).prop_flat_map(move |dims| {
        proptest::collection::vec(arb_graph_with_dims(dims, max_vars, max_factors), 1..=4)
    })
}

/// Deterministically fills a store's six arrays with distinct values.
fn seeded_store(g: &FactorGraph, seed: u64, salt: f64) -> VarStore {
    let mut s = VarStore::zeros(g);
    let fill = |arr: &mut [f64], phase: f64| {
        for (j, v) in arr.iter_mut().enumerate() {
            *v = (seed as f64 * 0.013 + salt + phase + j as f64 * 0.71).sin();
        }
    };
    fill(&mut s.x, 0.1);
    fill(&mut s.m, 0.2);
    fill(&mut s.u, 0.3);
    fill(&mut s.n, 0.4);
    fill(&mut s.z, 0.5);
    fill(&mut s.z_prev, 0.6);
    s
}

fn zero_problem(graph: FactorGraph) -> AdmmProblem {
    let proxes: Vec<Box<dyn ProxOp>> = (0..graph.num_factors())
        .map(|_| Box::new(ZeroProx) as Box<dyn ProxOp>)
        .collect();
    AdmmProblem::new(graph, proxes, 1.0, 1.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSR invariants hold for every generated topology.
    #[test]
    fn graph_validates(g in arb_graph(8, 12)) {
        prop_assert!(g.validate().is_ok());
        // Degree sums agree in both directions.
        let fsum: usize = g.factors().map(|a| g.factor_degree(a)).sum();
        let vsum: usize = g.vars().map(|b| g.var_degree(b)).sum();
        prop_assert_eq!(fsum, g.num_edges());
        prop_assert_eq!(vsum, g.num_edges());
    }

    /// Degree statistics are consistent with brute-force recounts.
    #[test]
    fn stats_match_brute_force(g in arb_graph(8, 12)) {
        let s = GraphStats::compute(&g);
        let max_v = g.vars().map(|b| g.var_degree(b)).max().unwrap_or(0);
        prop_assert_eq!(s.max_var_degree, max_v);
        prop_assert!(s.var_imbalance >= 1.0 - 1e-12);
        let hist = GraphStats::var_degree_histogram(&g);
        prop_assert_eq!(hist.iter().sum::<usize>(), g.num_vars());
    }

    /// Balanced grouping is a partition of the variables.
    #[test]
    fn grouping_is_partition(g in arb_graph(10, 14), k in 1usize..6) {
        let groups = GraphStats::balanced_var_groups(&g, k);
        let mut seen: Vec<u32> = groups.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..g.num_vars() as u32).collect();
        prop_assert_eq!(seen, expect);
    }

    /// All three schedulers produce bit-identical iterates on random
    /// problems (quadratic factors with random targets).
    #[test]
    fn schedulers_agree(
        g in arb_graph(6, 8),
        seed in 0u64..1000,
        threads in 1usize..4,
    ) {
        let make = || {
            let proxes: Vec<Box<dyn ProxOp>> = g
                .factors()
                .map(|a| {
                    let len = g.factor_degree(a) * g.dims();
                    let t: Vec<f64> = (0..len)
                        .map(|i| ((seed as f64 + i as f64) * 0.61).sin())
                        .collect();
                    Box::new(QuadraticProx::isotropic(len, 1.0, &t)) as Box<dyn ProxOp>
                })
                .collect();
            AdmmProblem::new(g.clone(), proxes, 1.5, 0.9)
        };
        let run = |p: &AdmmProblem, s: BackendSpec| {
            let mut store = VarStore::zeros(p.graph());
            let mut t = UpdateTimings::new();
            s.to_backend().run_block(p, &mut store, 7, &mut t);
            store.z
        };
        let pa = make();
        let pb = make();
        let pc = make();
        let pd = make();
        let z_serial = run(&pa, BackendSpec::Serial);
        let z_rayon = run(&pb, BackendSpec::Rayon { threads: Some(threads) });
        let z_barrier = run(&pc, BackendSpec::Barrier { threads: Some(threads) });
        let z_worksteal = run(&pd, BackendSpec::WorkSteal { threads: Some(threads) });
        let z_sharded = run(&make(), BackendSpec::Sharded { parts: Some(threads) });
        prop_assert_eq!(&z_serial, &z_rayon);
        prop_assert_eq!(&z_serial, &z_barrier);
        prop_assert_eq!(&z_serial, &z_worksteal);
        prop_assert_eq!(&z_serial, &z_sharded);
    }

    /// The work-assisting fleet solver is bit-identical to solo serial
    /// solves on random fleets: random shapes, random `dims` *per
    /// instance* (no shared-dims constraint — nothing is fused), random
    /// worker counts, and random claim-chunk sizes. Iterates, iteration
    /// counts, and stop reasons must all match.
    #[test]
    fn fleet_solver_matches_solo_serial(
        graphs in proptest::collection::vec(arb_graph(5, 6), 1..=4),
        seed in 0u64..1000,
        threads in 1usize..4,
        chunk in 1usize..8,
    ) {
        let stopping = StoppingCriteria {
            max_iters: 60,
            eps_abs: 1e-6,
            eps_rel: 1e-4,
            check_every: 10,
        };
        let make_problem = |g: &FactorGraph| {
            let proxes: Vec<Box<dyn ProxOp>> = g
                .factors()
                .map(|a| {
                    let len = g.factor_degree(a) * g.dims();
                    let t: Vec<f64> = (0..len)
                        .map(|i| ((seed as f64 + i as f64) * 0.61).sin())
                        .collect();
                    Box::new(QuadraticProx::isotropic(len, 1.0, &t)) as Box<dyn ProxOp>
                })
                .collect();
            AdmmProblem::new(g.clone(), proxes, 1.5, 0.9)
        };
        let options = SolverOptions {
            backend: BackendSpec::Fleet { threads: Some(threads) },
            stopping,
            ..SolverOptions::default()
        };
        let mut fleet = FleetSolver::new(graphs.iter().map(&make_problem).collect(), options);
        fleet.set_chunk(chunk);
        let report = fleet.run(stopping.max_iters);
        for (i, g) in graphs.iter().enumerate() {
            let solo_options = SolverOptions {
                stopping,
                ..SolverOptions::default()
            };
            let mut solver = Solver::from_problem(make_problem(g), solo_options);
            let solo_report = solver.run(stopping.max_iters);
            prop_assert_eq!(report.instances[i].iterations, solo_report.iterations);
            prop_assert_eq!(report.instances[i].stop_reason, solo_report.stop_reason);
            prop_assert_eq!(&fleet.store(i).z, &solver.store().z);
            prop_assert_eq!(&fleet.store(i).x, &solver.store().x);
            prop_assert_eq!(&fleet.store(i).u, &solver.store().u);
            prop_assert_eq!(&fleet.store(i).n, &solver.store().n);
            prop_assert_eq!(&fleet.store(i).m, &solver.store().m);
        }
    }

    /// `BatchStore` pack/unpack round-trip: per-instance slices recover
    /// the original stores and parameters exactly, the offset maps are
    /// monotone with totals summing to the instance sums, the fused
    /// topology validates and stays block-diagonal, and the zero-cut
    /// instance partition really has an empty halo.
    #[test]
    fn batch_pack_unpack_roundtrip(
        graphs in arb_batch_graphs(6, 8),
        seed in 0u64..1000,
        parts in 1usize..6,
    ) {
        use paradmm::graph::{BatchInstance, BatchStore, EdgeId};
        let instances: Vec<(FactorGraph, EdgeParams, VarStore)> = graphs
            .into_iter()
            .enumerate()
            .map(|(i, g)| {
                let mut p = EdgeParams::uniform(&g, 1.0, 1.0);
                for (j, r) in p.rho.iter_mut().enumerate() {
                    *r = 0.5 + ((seed as usize + i * 31 + j) % 7) as f64 * 0.3;
                }
                for (j, a) in p.alpha.iter_mut().enumerate() {
                    *a = 0.4 + ((seed as usize + i * 17 + j) % 5) as f64 * 0.2;
                }
                let s = seeded_store(&g, seed, i as f64 * 2.3);
                (g, p, s)
            })
            .collect();
        let views: Vec<BatchInstance> = instances
            .iter()
            .map(|(g, p, s)| BatchInstance { graph: g, params: p, store: s })
            .collect();
        let batch = BatchStore::pack(&views).unwrap();
        let layout = batch.layout();

        // Offsets monotone and totals sum to the instance sums.
        prop_assert!(batch.graph().validate().is_ok());
        let mut prev = (0usize, 0usize, 0usize);
        for i in 0..instances.len() {
            let (vr, fr, er) = (layout.var_range(i), layout.factor_range(i), layout.edge_range(i));
            prop_assert_eq!(vr.start, prev.0);
            prop_assert_eq!(fr.start, prev.1);
            prop_assert_eq!(er.start, prev.2);
            prop_assert_eq!(vr.len(), instances[i].0.num_vars());
            prop_assert_eq!(fr.len(), instances[i].0.num_factors());
            prop_assert_eq!(er.len(), instances[i].0.num_edges());
            prev = (vr.end, fr.end, er.end);
        }
        prop_assert_eq!(prev.0, batch.graph().num_vars());
        prop_assert_eq!(prev.1, batch.graph().num_factors());
        prop_assert_eq!(prev.2, batch.graph().num_edges());

        // Per-instance slices recover the original stores and params.
        let unpacked = batch.unpack();
        for (i, (_, p, s)) in instances.iter().enumerate() {
            prop_assert_eq!(&unpacked[i].x, &s.x);
            prop_assert_eq!(&unpacked[i].m, &s.m);
            prop_assert_eq!(&unpacked[i].u, &s.u);
            prop_assert_eq!(&unpacked[i].n, &s.n);
            prop_assert_eq!(&unpacked[i].z, &s.z);
            prop_assert_eq!(&unpacked[i].z_prev, &s.z_prev);
            let er = layout.edge_range(i);
            prop_assert_eq!(&batch.params().rho[er.clone()], &p.rho[..]);
            prop_assert_eq!(&batch.params().alpha[er], &p.alpha[..]);
        }

        // Block-diagonal: every edge stays within its instance.
        for e in batch.graph().edges() {
            let (ie, local) = layout.instance_of_edge(e);
            prop_assert_eq!(layout.global_edge(ie, local), e);
            let (iv, _) = layout.instance_of_var(batch.graph().edge_var(e));
            prop_assert_eq!(ie, iv);
        }
        let _ = EdgeId(0);

        // Zero-cut partition: whole instances, empty halo, loads sum.
        let partition = layout.partition(parts);
        prop_assert!(partition.parts >= 1 && partition.parts <= instances.len());
        prop_assert!(partition.validate(batch.graph()).is_ok());
        prop_assert!(partition.halo_vars(batch.graph()).is_empty());
        prop_assert_eq!(
            partition.edge_loads(batch.graph()).iter().sum::<usize>(),
            batch.graph().num_edges()
        );
        for i in 0..instances.len() {
            let fr = layout.factor_range(i);
            if !fr.is_empty() {
                let first = partition.assignment[fr.start];
                prop_assert!(partition.assignment[fr].iter().all(|&x| x == first));
            }
        }
    }

    /// `Partition::grow` invariants on arbitrary (frequently
    /// disconnected) topologies: every factor assigned exactly once to
    /// an in-range part, per-part edge loads within 2× of the ideal
    /// budget (or of the largest indivisible factor), and `parts == 1`
    /// always yields the single part 0 — the guard on the
    /// `queue.clear()` frontier-discard path.
    #[test]
    fn partition_grow_invariants(g in arb_graph(10, 14), parts in 1usize..6) {
        let p = Partition::grow(&g, parts);
        prop_assert_eq!(p.parts, parts);
        prop_assert_eq!(p.assignment.len(), g.num_factors());
        prop_assert!(p.assignment.iter().all(|&a| (a as usize) < parts));
        prop_assert!(p.validate(&g).is_ok());

        let loads = p.edge_loads(&g);
        prop_assert_eq!(loads.iter().sum::<usize>(), g.num_edges());
        let budget = g.num_edges().div_ceil(parts).max(1);
        let max_degree = g.factors().map(|a| g.factor_degree(a)).max().unwrap_or(0);
        for (i, &load) in loads.iter().enumerate() {
            prop_assert!(
                load <= 2 * budget.max(max_degree),
                "part {} load {} exceeds 2x budget {} (max factor degree {})",
                i, load, budget, max_degree
            );
        }

        if parts == 1 {
            prop_assert!(p.assignment.iter().all(|&a| a == 0));
            prop_assert!(p.halo_vars(&g).is_empty());
        }

        // Quality metrics agree with the partition's own accounting.
        let stats = PartitionStats::compute(&g, &p);
        prop_assert_eq!(stats.halo_vars, p.halo_vars(&g).len());
        prop_assert_eq!(stats.edge_loads, loads);
        prop_assert!(stats.cut_edges >= stats.halo_vars);
    }

    /// The partition codec round-trips every grown partition against its
    /// graph and rejects truncation at every cut point.
    #[test]
    fn partition_codec_roundtrip_and_truncation(
        g in arb_graph(8, 10),
        parts in 1usize..5,
        frac in 0.0f64..1.0,
    ) {
        use paradmm::graph::io::{decode_partition, encode_partition};
        let p = Partition::grow(&g, parts);
        let mut buf = Vec::new();
        encode_partition(&p, &mut buf);
        let back = decode_partition(&buf, &g).unwrap();
        prop_assert_eq!(back.parts, p.parts);
        prop_assert_eq!(&back.assignment, &p.assignment);

        let cut = (buf.len() as f64 * frac) as usize;
        if cut < buf.len() {
            prop_assert!(decode_partition(&buf[..cut], &g).is_err());
        }
        prop_assert!(decode_partition(&buf[..buf.len() - 1], &g).is_err());
    }

    /// With f ≡ 0, the consensus z equals the ρ-weighted average of
    /// messages no matter the topology (conservation property of the
    /// z-update), and residuals are finite.
    #[test]
    fn zero_prox_fixed_point_and_finite_residuals(
        g in arb_graph(6, 8),
        init in -5.0f64..5.0,
    ) {
        let p = zero_problem(g);
        let mut store = VarStore::zeros(p.graph());
        store.fill(init);
        // A consensus state is a fixed point only with zero duals.
        store.u.fill(0.0);
        let mut t = UpdateTimings::new();
        SerialBackend.run_block(&p, &mut store, 5, &mut t);
        // f = 0 and uniform init is a fixed point: z stays at init.
        for &z in &store.z {
            prop_assert!((z - init).abs() < 1e-9);
        }
        let r = Residuals::compute(p.graph(), p.params(), &store);
        prop_assert!(r.primal.is_finite() && r.dual.is_finite());
        prop_assert!(r.primal < 1e-9);
    }

    /// The consensus prox output always has equal blocks, equal to the
    /// ρ-weighted mean.
    #[test]
    fn consensus_prox_property(
        vals in proptest::collection::vec(-10.0f64..10.0, 2..6),
        rhos in proptest::collection::vec(0.1f64..10.0, 2..6),
    ) {
        let k = vals.len().min(rhos.len());
        let n: Vec<f64> = vals[..k].to_vec();
        let rho: Vec<f64> = rhos[..k].to_vec();
        let mut x = vec![0.0; k];
        let mut ctx = ProxCtx::new(&n, &rho, &mut x, 1);
        ConsensusEqualityProx.prox(&mut ctx);
        let expect: f64 = n.iter().zip(&rho).map(|(a, b)| a * b).sum::<f64>()
            / rho.iter().sum::<f64>();
        for &xi in x.iter() {
            prop_assert!((xi - expect).abs() < 1e-9);
        }
    }

    /// EdgeParams validation accepts everything `uniform` produces and
    /// scaling preserves validity.
    #[test]
    fn edge_params_valid(g in arb_graph(6, 8), rho in 0.01f64..100.0, s in 0.1f64..10.0) {
        let mut p = EdgeParams::uniform(&g, rho, 1.0);
        prop_assert!(p.validate(&g).is_ok());
        p.scale_rho(s);
        prop_assert!(p.validate(&g).is_ok());
    }

    /// The binary graph codec round-trips every generated topology to
    /// structural equality: same shape, same factor edge ranges, same
    /// edge→variable map.
    #[test]
    fn graph_codec_roundtrip(g in arb_graph(10, 14)) {
        use paradmm::graph::io::{decode_graph, encode_graph};
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        let back = decode_graph(&buf).unwrap();
        prop_assert!(back.validate().is_ok());
        prop_assert_eq!(back.dims(), g.dims());
        prop_assert_eq!(back.num_vars(), g.num_vars());
        prop_assert_eq!(back.num_factors(), g.num_factors());
        prop_assert_eq!(back.num_edges(), g.num_edges());
        for a in g.factors() {
            prop_assert_eq!(back.factor_edge_range(a), g.factor_edge_range(a));
        }
        for e in g.edges() {
            prop_assert_eq!(back.edge_var(e), g.edge_var(e));
        }
        for b in g.vars() {
            prop_assert_eq!(back.var_edges(b), g.var_edges(b));
        }
    }

    /// Per-edge ρ/α survive the codec bit-for-bit against the decoded
    /// graph's own validation.
    #[test]
    fn params_codec_roundtrip(
        g in arb_graph(8, 10),
        seed in 0u64..1000,
    ) {
        use paradmm::graph::io::{decode_params, encode_params};
        let mut p = EdgeParams::uniform(&g, 1.0, 1.0);
        for (i, r) in p.rho.iter_mut().enumerate() {
            *r = 0.01 + (seed as f64 + i as f64 * 0.7).sin().abs() * 10.0;
        }
        for (i, a) in p.alpha.iter_mut().enumerate() {
            *a = 0.01 + (seed as f64 + i as f64 * 1.3).cos().abs() * 2.0;
        }
        let mut buf = Vec::new();
        encode_params(&p, &mut buf);
        let back = decode_params(&buf, &g).unwrap();
        prop_assert_eq!(&back.rho, &p.rho);
        prop_assert_eq!(&back.alpha, &p.alpha);
    }

    /// A full ADMM state checkpoint round-trips bit-for-bit (including
    /// z_prev, negative zeros and all), so warm restarts resume on
    /// exactly the iterate that was saved.
    #[test]
    fn store_codec_roundtrip(
        g in arb_graph(8, 10),
        seed in 0u64..1000,
    ) {
        use paradmm::graph::io::{decode_store, encode_store};
        let mut store = VarStore::zeros(&g);
        let mut k = 0usize;
        for arr in [&mut store.x, &mut store.m, &mut store.u, &mut store.n, &mut store.z] {
            for v in arr.iter_mut() {
                *v = (seed as f64 * 0.11 + k as f64 * 0.37).sin() * 1e3;
                k += 1;
            }
        }
        store.snapshot_z();
        store.z_prev[0] = -0.0; // sign-of-zero must survive
        let mut buf = Vec::new();
        encode_store(&store, &mut buf);
        let back = decode_store(&buf, &g).unwrap();
        prop_assert_eq!(&back.x, &store.x);
        prop_assert_eq!(&back.m, &store.m);
        prop_assert_eq!(&back.u, &store.u);
        prop_assert_eq!(&back.n, &store.n);
        prop_assert_eq!(&back.z, &store.z);
        for (a, b) in back.z_prev.iter().zip(&store.z_prev) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    /// Truncating an encoded graph anywhere must error, never panic or
    /// yield a structurally invalid graph. `frac` spans the whole buffer,
    /// so cut lengths from 0 through `len − 1` (dropping only the final
    /// byte) are all generated.
    #[test]
    fn graph_codec_rejects_truncation(g in arb_graph(6, 8), frac in 0.0f64..1.0) {
        use paradmm::graph::io::{decode_graph, encode_graph};
        let mut buf = Vec::new();
        encode_graph(&g, &mut buf);
        let cut = (buf.len() as f64 * frac) as usize;
        prop_assert!(decode_graph(&buf[..cut]).is_err());
        // The single-byte truncation must always be exercised: the last
        // byte is load-bearing (it ends the edge-target array).
        prop_assert!(decode_graph(&buf[..buf.len() - 1]).is_err());
    }
}

//! Multi-device execution model (paper future-work 3).
//!
//! Prices one ADMM iteration over `count` identical devices: each device
//! runs the five kernels on its factor partition's tasks, then the
//! devices exchange the *halo* variables (those touched by more than one
//! part) over the host link — weighted `ρ·(x+u)` messages gathered per
//! incident edge and the combined `z` broadcast back to every replica.
//! The exchange volume is computed from the **same**
//! [`HaloExchangePlan`] the real sharded execution backend
//! (`paradmm_core::StaleBoundedBackend`, built by `sharded:N`) walks,
//! so model-predicted bytes and executed bytes are directly comparable
//! (the `ablation_sharded` bench asserts they agree). The model exposes the paper's implicit
//! intuition: chain graphs (MPC) split almost freely, while dense graphs
//! (packing's all-pairs collisions) put every variable in the halo and
//! gain little.

use paradmm_core::UpdateKind;
use paradmm_graph::{FactorGraph, HaloExchangePlan, Partition};

use crate::device::SimtDevice;
use crate::tasks::{TaskCost, WorkloadProfile};
use crate::transfer::PcieLink;

/// A set of identical devices connected through one host link.
#[derive(Debug, Clone)]
pub struct MultiDevice {
    /// The per-device model.
    pub device: SimtDevice,
    /// Number of devices.
    pub count: usize,
    /// Host↔device link used for halo exchanges.
    pub link: PcieLink,
}

/// Per-iteration timing of a partitioned run.
#[derive(Debug, Clone)]
pub struct MultiIteration {
    /// Slowest device's kernel time (the barrier each iteration).
    pub compute_seconds: f64,
    /// Halo-exchange time per iteration.
    pub exchange_seconds: f64,
    /// Number of halo variables.
    pub halo_vars: usize,
    /// Predicted exchange bytes per iteration (gather + broadcast),
    /// derived from the shared [`HaloExchangePlan`].
    pub exchange_bytes: usize,
    /// Per-part kernel seconds.
    pub per_part: Vec<f64>,
}

impl MultiIteration {
    /// Total seconds per iteration.
    pub fn total(&self) -> f64 {
        self.compute_seconds + self.exchange_seconds
    }
}

impl MultiDevice {
    /// `count` Tesla K40s on a shared PCIe 3.0 link.
    pub fn k40s(count: usize) -> Self {
        assert!(count >= 1);
        MultiDevice {
            device: SimtDevice::tesla_k40(),
            count,
            link: PcieLink::pcie3_x16(),
        }
    }

    /// Prices one iteration of `profile` under `partition` (which must
    /// have `count` parts), with `ntb = 32` everywhere.
    pub fn iteration_time(
        &self,
        graph: &FactorGraph,
        profile: &WorkloadProfile,
        partition: &Partition,
    ) -> MultiIteration {
        assert_eq!(
            partition.parts, self.count,
            "partition must match device count"
        );
        let d = graph.dims();

        // Split every sweep's tasks by owning part. Factor tasks follow the
        // assignment directly; edge tasks follow their factor; variable
        // tasks go to the part owning their first incident edge (halo
        // variables are *also* reduced on the link, priced below).
        let mut part_tasks: Vec<[Vec<TaskCost>; 5]> = (0..self.count)
            .map(|_| std::array::from_fn(|_| Vec::new()))
            .collect();
        for a in graph.factors() {
            let p = partition.part_of(a) as usize;
            part_tasks[p][UpdateKind::X.index()].push(profile.sweep(UpdateKind::X).tasks[a.idx()]);
        }
        for e in graph.edges() {
            let p = partition.part_of(graph.edge_factor(e)) as usize;
            for kind in [UpdateKind::M, UpdateKind::U, UpdateKind::N] {
                part_tasks[p][kind.index()].push(profile.sweep(kind).tasks[e.idx()]);
            }
        }
        for b in graph.vars() {
            let edges = graph.var_edges(b);
            let p = edges
                .first()
                .map(|&e| partition.part_of(graph.edge_factor(e)) as usize)
                .unwrap_or(0);
            part_tasks[p][UpdateKind::Z.index()].push(profile.sweep(UpdateKind::Z).tasks[b.idx()]);
        }

        let per_part: Vec<f64> = part_tasks
            .iter()
            .map(|sweeps| {
                sweeps
                    .iter()
                    .map(|tasks| self.device.kernel_time(tasks, 32).seconds)
                    .sum()
            })
            .collect();
        let compute = per_part.iter().cloned().fold(0.0, f64::max);

        // Price the halo exchange from the same plan the real sharded
        // backend executes: one gathered ρ·(x+u) message per halo-
        // incident edge, one broadcast z per replica.
        let plan = HaloExchangePlan::build(graph, partition);
        let exchange = if self.count > 1 && plan.halo_var_count() > 0 {
            self.link.transfer_time(plan.gather_doubles() as f64 * 8.0)
                + self
                    .link
                    .transfer_time(plan.broadcast_doubles() as f64 * 8.0)
        } else {
            0.0
        };
        debug_assert_eq!(d, plan.dims());
        MultiIteration {
            compute_seconds: compute,
            exchange_seconds: exchange,
            halo_vars: plan.halo_var_count(),
            exchange_bytes: plan.bytes_per_iteration(),
            per_part,
        }
    }

    /// Exchange bytes per iteration this model predicts for `partition`
    /// on `graph` — derived from the same [`HaloExchangePlan`] the real
    /// sharded backend counts its measured bytes against.
    pub fn predicted_exchange_bytes(&self, graph: &FactorGraph, partition: &Partition) -> usize {
        HaloExchangePlan::build(graph, partition).bytes_per_iteration()
    }

    /// Speedup of this device group over a single device of the same kind.
    pub fn speedup(
        &self,
        graph: &FactorGraph,
        profile: &WorkloadProfile,
        partition: &Partition,
    ) -> f64 {
        let single = MultiDevice {
            device: self.device.clone(),
            count: 1,
            link: self.link.clone(),
        };
        let single_part = Partition::contiguous(graph, 1);
        let t1 = single.iteration_time(graph, profile, &single_part).total();
        let tn = self.iteration_time(graph, profile, partition).total();
        t1 / tn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paradmm_core::AdmmProblem;
    use paradmm_graph::GraphBuilder;
    use paradmm_prox::{ProxOp, QuadraticProx};

    /// MPC-like chain: n pairwise factors, each moderately expensive.
    fn chain_problem(n: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(4);
        let vs = b.add_vars(n + 1);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..n {
            b.add_factor(&[vs[i], vs[i + 1]]);
            proxes.push(Box::new(QuadraticProx::isotropic(8, 1.0, &[0.0; 8])));
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    /// Packing-like dense graph.
    fn dense_problem(n: usize) -> AdmmProblem {
        let mut b = GraphBuilder::new(2);
        let vs = b.add_vars(n);
        let mut proxes: Vec<Box<dyn ProxOp>> = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                b.add_factor(&[vs[i], vs[j]]);
                proxes.push(Box::new(QuadraticProx::isotropic(4, 1.0, &[0.0; 4])));
            }
        }
        AdmmProblem::new(b.build(), proxes, 1.0, 1.0)
    }

    #[test]
    fn chain_scales_with_devices() {
        let p = chain_problem(60_000);
        let profile = WorkloadProfile::from_problem(&p);
        let part2 = Partition::grow(p.graph(), 2);
        let md = MultiDevice::k40s(2);
        let s = md.speedup(p.graph(), &profile, &part2);
        assert!(s > 1.4, "chain should split well across 2 GPUs, got {s:.2}");
        let it = md.iteration_time(p.graph(), &profile, &part2);
        assert!(it.halo_vars <= 3);
    }

    #[test]
    fn dense_graph_scales_poorly() {
        let chain = chain_problem(60_000);
        let chain_profile = WorkloadProfile::from_problem(&chain);
        let chain_s = MultiDevice::k40s(2).speedup(
            chain.graph(),
            &chain_profile,
            &Partition::grow(chain.graph(), 2),
        );

        let dense = dense_problem(300);
        let dense_profile = WorkloadProfile::from_problem(&dense);
        let dense_s = MultiDevice::k40s(2).speedup(
            dense.graph(),
            &dense_profile,
            &Partition::grow(dense.graph(), 2),
        );
        assert!(
            dense_s < chain_s,
            "dense halo must hurt: dense {dense_s:.2} vs chain {chain_s:.2}"
        );
    }

    #[test]
    fn single_device_matches_direct_price() {
        let p = chain_problem(10_000);
        let profile = WorkloadProfile::from_problem(&p);
        let md = MultiDevice::k40s(1);
        let part = Partition::contiguous(p.graph(), 1);
        let it = md.iteration_time(p.graph(), &profile, &part);
        assert_eq!(it.exchange_seconds, 0.0);
        let direct: f64 = profile
            .sweeps
            .iter()
            .map(|s| md.device.kernel_time(&s.tasks, 32).seconds)
            .sum();
        assert!((it.total() - direct).abs() < 1e-12);
    }

    #[test]
    fn predicted_exchange_bytes_come_from_the_shared_plan() {
        let p = chain_problem(5_000);
        let g = p.graph();
        let profile = WorkloadProfile::from_problem(&p);
        let part = Partition::grow(g, 2);
        let md = MultiDevice::k40s(2);
        let plan = HaloExchangePlan::build(g, &part);
        let predicted = md.predicted_exchange_bytes(g, &part);
        assert_eq!(predicted, plan.bytes_per_iteration());
        let it = md.iteration_time(g, &profile, &part);
        assert_eq!(it.exchange_bytes, predicted);
        assert!(it.exchange_seconds > 0.0);
        // Gather ships one message per halo-incident edge, broadcast one
        // z per replica — strictly more than the old 2·|halo| floor
        // whenever a halo variable has degree > 1.
        assert!(predicted >= 2 * it.halo_vars * g.dims() * 8);
    }

    #[test]
    fn per_part_times_cover_all_parts() {
        let p = chain_problem(20_000);
        let profile = WorkloadProfile::from_problem(&p);
        let part = Partition::grow(p.graph(), 4);
        let it = MultiDevice::k40s(4).iteration_time(p.graph(), &profile, &part);
        assert_eq!(it.per_part.len(), 4);
        assert!(it.per_part.iter().all(|&t| t > 0.0));
    }
}

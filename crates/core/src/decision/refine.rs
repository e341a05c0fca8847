//! CPU backfill: a third decision phase extending the paper's two-phase
//! algorithm.
//!
//! Algorithm 1 only considers GPU options and Algorithm 2 only offloads
//! tensors Algorithm 1 chose to compress ("tensors with no compression are
//! ruled out for CPU offloading", section 4.4.3). Under cost regimes where
//! GPU compression of a tensor never pays (e.g. top-k kernels with large
//! launch overheads contending with a busy backward pass) but
//! contention-free CPU compression would, the two-phase search leaves
//! throughput on the table.
//!
//! This pass walks the still-uncompressed tensors in Algorithm 1's
//! priority order and offers each the CPU-compressed candidates, keeping
//! any strict improvement of `F(S)`. It is monotone — the strategy only
//! changes when the simulated iteration time drops — so it preserves every
//! guarantee of the first two phases while closing the gap to the Upper
//! Bound. Documented as an extension in `DESIGN.md`.

use std::sync::Arc;

use espresso_gc::Device;
use espresso_sim::{DeltaSim, Simulator};
use espresso_strategy::{CompressionOption, Strategy};

use super::{stage, Evaluator};
use crate::parallel::EvalPool;

/// Outcome of the backfill pass.
#[derive(Debug, Clone)]
pub struct RefineDecision {
    /// The refined strategy.
    pub strategy: Strategy,
    /// Its iteration time.
    pub iteration_time: f64,
    /// Tensors newly compressed (on CPU) by this pass.
    pub backfilled: Vec<usize>,
    /// Candidate simulations performed.
    pub simulations: usize,
}

/// The backfill pass on the planner fast path, with the same
/// delta-pricing, pruning, and optional pool fan-out as
/// [`crate::decision::gpu::decide_fast`].
pub fn cpu_backfill_fast(
    sim: &Simulator,
    base: &Strategy,
    compressed_options: &[Arc<CompressionOption>],
    pool: &EvalPool,
) -> RefineDecision {
    cpu_backfill_with::<DeltaSim>(sim, base, compressed_options, pool)
}

/// Runs the CPU backfill over `base`, drawing candidates from
/// `compressed_options` (each moved wholly to the CPU), priced by `E`.
///
/// An uncompressed incumbent is never in the CPU-compressed candidate
/// set, so `best_swap` runs with `skip_current` off.
pub(crate) fn cpu_backfill_with<'s, E: Evaluator<'s>>(
    sim: &'s Simulator,
    base: &Strategy,
    compressed_options: &[Arc<CompressionOption>],
    pool: &EvalPool,
) -> RefineDecision {
    let job = sim.job();
    let n = job.num_tensors();
    // CPU variants, deduplicated.
    let mut cpu: Vec<Arc<CompressionOption>> = compressed_options
        .iter()
        .map(|o| o.with_device(Device::Cpu))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    cpu.retain(|o| o.compresses());

    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        let (sa, sb) = (job.model.tensors[a].elems, job.model.tensors[b].elems);
        sb.cmp(&sa).then(b.cmp(&a))
    });

    let mut strategy = base.clone();
    let mut simulations = 1usize;
    let mut backfilled = Vec::new();
    let best_time = stage::<E, _>(sim, base, pool, cpu.len(), |mut eval| {
        let mut best_time = eval.base_time();
        for &idx in &order {
            if strategy.option(idx).compresses() {
                continue;
            }
            let best_option = eval.best_swap(
                &strategy,
                idx,
                &cpu,
                false,
                &mut best_time,
                &mut simulations,
            );
            if let Some(opt) = best_option {
                strategy.set_option(idx, opt);
                backfilled.push(idx);
                eval.rebase(&strategy, best_time);
            }
        }
        best_time
    });
    RefineDecision {
        strategy,
        iteration_time: best_time,
        backfilled,
        simulations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::{gpu, offload};
    use espresso_cluster::Cluster;
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;
    use espresso_sim::{Job, SimConfig};
    use espresso_strategy::OptionSpace;

    #[test]
    fn backfill_never_hurts_and_only_adds_cpu_options() {
        let job = Job::new(
            Model::Vgg16.profile(),
            Cluster::pcie_25g(8, 8),
            GcAlgorithm::dgc_1pct(),
        );
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let pool = EvalPool::default();
        let g = gpu::decide_fast(&sim, &space.gpu_compressed(), &pool);
        let off = offload::decide_fast(&sim, &g.strategy, 100_000);
        let refined = cpu_backfill_fast(&sim, &off.strategy, &space.compressed(), &pool);
        assert!(refined.iteration_time <= off.iteration_time + 1e-12);
        for &t in &refined.backfilled {
            assert!(!off.strategy.option(t).compresses());
            assert!(refined.strategy.option(t).compresses());
            assert!(!refined.strategy.option(t).gpu_only());
        }
    }

    #[test]
    fn backfill_is_a_noop_when_everything_is_compressed() {
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::nvlink_100g(4, 4),
            GcAlgorithm::EfSignSgd,
        );
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let space = OptionSpace::enumerate(&job.cluster);
        let all = Strategy::uniform(
            job.num_tensors(),
            space.gpu_compressed()[0].clone(),
        );
        let refined = cpu_backfill_fast(&sim, &all, &space.compressed(), &EvalPool::default());
        assert!(refined.backfilled.is_empty());
        assert_eq!(refined.strategy, all);
    }
}

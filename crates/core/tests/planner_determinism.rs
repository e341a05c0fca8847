//! Parallel candidate evaluation must be invisible: the same selected
//! strategy and the same deterministic report fields, bit for bit,
//! whatever the planner width and however many times the selection is
//! repeated. Replicas share each position's trials out but the results
//! are folded in canonical candidate order, so scheduling between
//! workers can never reorder an accept decision — these tests hold that
//! claim against real selections, at widths up to one wider than the
//! candidate list. The reference evaluator (every trial simulated from
//! scratch, serially) is the oracle every fast-path run must match.

use espresso::decision::{gpu, offload, refine};
use espresso::robust::RobustSelector;
use espresso::{Espresso, EvalPool, PlannerMode, Report, Strategy};
use espresso_cluster::{Cluster, ClusterHealth};
use espresso_gc::GcAlgorithm;
use espresso_models::{Model, ModelKind, ModelProfile, TensorProfile};
use espresso_sim::{Job, SimConfig, Simulator};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

const WORKER_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// [`WORKER_COUNTS`] plus a width one wider than the largest candidate
/// list, which a stage caps.
fn widths(espresso: &Espresso) -> Vec<usize> {
    let mut widths = WORKER_COUNTS.to_vec();
    widths.push(espresso.space().compressed().len() + 1);
    widths
}

fn random_model(tensors: usize, seed: u64) -> ModelProfile {
    let mut rng = StdRng::seed_from_u64(seed);
    let list = (0..tensors)
        .map(|i| TensorProfile {
            name: format!("t{i}"),
            elems: rng.random_range(500_000usize..16_000_000),
            compute_time: rng.random_range(1e-4f64..4e-3),
        })
        .collect();
    ModelProfile::new("rand", ModelKind::Nlp, 8, 4e-3, list)
}

/// The deterministic slice of a report (wall-clock telemetry excluded),
/// bit-encoded so plain equality is bit equality.
fn report_key(r: &Report) -> (u64, u64, [usize; 6]) {
    (
        r.iteration_time.to_bits(),
        r.gpu_stage_time.to_bits(),
        [
            r.compressed_tensors,
            r.offloaded_tensors,
            r.backfilled_tensors,
            r.ruled_out_tensors,
            r.gpu_simulations,
            r.offload_combinations,
        ],
    )
}

/// Selects at every width in `widths` (twice each) and asserts one
/// outcome, identical to the reference planner's.
fn assert_invariant_across_pools(espresso: &Espresso, widths: &[usize]) -> (Strategy, Report) {
    let (s1, r1) = espresso.select_strategy_with(PlannerMode::Reference, &EvalPool::new(1));
    for &workers in widths {
        let pool = EvalPool::new(workers);
        for rep in 0..2 {
            let (s, r) = espresso.select_strategy_with(PlannerMode::Fast, &pool);
            assert_eq!(
                s, s1,
                "fast strategy differs from reference at {workers} workers (rep {rep})"
            );
            assert_eq!(
                report_key(&r),
                report_key(&r1),
                "fast report differs from reference at {workers} workers (rep {rep})"
            );
        }
    }
    (s1, r1)
}

#[test]
fn paper_models_select_identically_across_worker_counts() {
    for (model, algo) in [
        (Model::Lstm, GcAlgorithm::randomk_1pct()),
        (Model::Vgg16, GcAlgorithm::dgc_1pct()),
    ] {
        let job = Job::new(model.profile(), Cluster::pcie_25g(2, 4), algo);
        let espresso = Espresso::new(job);
        let (_, report) = assert_invariant_across_pools(&espresso, &widths(&espresso));
        assert!(report.gpu_simulations > 0);
    }
}

#[test]
fn greedy_offload_selects_identically_across_worker_counts() {
    // A one-combination cap forces Algorithm 2 onto its greedy traversal.
    let job = Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 4),
        GcAlgorithm::dgc_1pct(),
    );
    let mut espresso = Espresso::new(job);
    espresso.max_offload_combinations = 1;
    let (_, report) = assert_invariant_across_pools(&espresso, &widths(&espresso));
    assert!(report.compressed_tensors > 0, "Algorithm 2 must have groups");
}

#[test]
fn robust_selection_is_identical_across_worker_counts() {
    let job = Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 4),
        GcAlgorithm::EfSignSgd,
    );
    let selector = RobustSelector::new(job, ClusterHealth::inter_degraded(2.0));
    let first = selector
        .select_with(PlannerMode::Reference, &EvalPool::new(1))
        .expect("selection succeeds");
    for workers in WORKER_COUNTS {
        let pool = EvalPool::new(workers);
        for rep in 0..2 {
            let sel = selector
                .select_with(PlannerMode::Fast, &pool)
                .expect("selection succeeds");
            assert_eq!(sel.strategy, first.strategy, "{workers} workers, rep {rep}");
            assert_eq!(sel.chosen, first.chosen, "{workers} workers, rep {rep}");
            assert_eq!(
                sel.mean_time.to_bits(),
                first.mean_time.to_bits(),
                "{workers} workers, rep {rep}"
            );
            assert_eq!(
                sel.worst_time.to_bits(),
                first.worst_time.to_bits(),
                "{workers} workers, rep {rep}"
            );
            let scores: Vec<_> = sel
                .candidates
                .iter()
                .map(|c| (c.name.clone(), c.mean.to_bits(), c.worst.to_bits(), c.admitted))
                .collect();
            let expected: Vec<_> = first
                .candidates
                .iter()
                .map(|c| (c.name.clone(), c.mean.to_bits(), c.worst.to_bits(), c.admitted))
                .collect();
            assert_eq!(scores, expected, "{workers} workers, rep {rep}");
        }
    }
}

/// Runs Algorithm 1, Algorithm 2 and the backfill stage by stage at every
/// width and asserts each stage's strategy, time and simulation count
/// equal the serial run's.
fn assert_stages_invariant(job: Job) {
    let espresso = Espresso::new(job.clone());
    let space = espresso.space();
    let run = |workers: usize| {
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let pool = EvalPool::new(workers);
        let g = gpu::decide_fast(&sim, &space.gpu_compressed(), &pool);
        let off = offload::decide_fast(&sim, &g.strategy, espresso.max_offload_combinations);
        let r = refine::cpu_backfill_fast(&sim, &off.strategy, &space.compressed(), &pool);
        (
            (g.strategy, g.iteration_time.to_bits(), g.ruled_out, g.simulations),
            (r.strategy, r.iteration_time.to_bits(), r.backfilled, r.simulations),
        )
    };
    let serial = run(1);
    assert!(serial.1 .3 > 1, "the backfill priced candidates");
    for workers in widths(&espresso) {
        let wide = run(workers);
        assert_eq!(wide.0, serial.0, "Algorithm 1 at {workers} workers");
        assert_eq!(wide.1, serial.1, "backfill at {workers} workers");
    }
}

#[test]
fn stages_count_identically_across_widths() {
    // Multi-machine option spaces, wide enough for every width to fan
    // out. Both jobs have pairs of CPU options that price a tensor to the
    // bit against the uncompressed incumbent.
    assert_stages_invariant(Job::new(
        Model::Lstm.profile(),
        Cluster::pcie_25g(2, 4),
        GcAlgorithm::EfSignSgd,
    ));
    assert_stages_invariant(Job::new(
        Model::Vgg16.profile(),
        Cluster::pcie_25g(2, 2),
        GcAlgorithm::randomk_1pct(),
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random small jobs: selection and report are pool-invariant.
    #[test]
    fn random_jobs_select_identically_across_worker_counts(
        tensors in 3usize..8,
        model_seed in 0u64..200,
        machines in 1usize..3,
        gpus in 2usize..5,
    ) {
        let job = Job::new(
            random_model(tensors, model_seed),
            Cluster::pcie_25g(machines, gpus),
            GcAlgorithm::randomk_1pct(),
        );
        assert_invariant_across_pools(&Espresso::new(job), &WORKER_COUNTS);
    }
}

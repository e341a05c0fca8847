//! Espresso's compression decision algorithms (paper section 4.4).
//!
//! Each algorithm — Algorithm 1 ([`gpu`]), Algorithm 2 ([`offload`]) and
//! the CPU backfill ([`refine`]) — is written once, generic over an
//! [`Evaluator`] that prices its trials. [`DeltaSim`] is the planner fast
//! path (suffix re-simulation, certified pruning, exact memo), which a
//! [`Stage`] replicates onto helper threads to scan each tensor's
//! candidates in parallel; [`FullSim`] prices every trial from scratch,
//! serially, and is the independent oracle the differential sweep checks
//! the fast path against. The loops see the same accept outcome from
//! either, at every width, so the selected strategy and every
//! deterministic counter agree bit for bit.

pub mod gpu;
pub mod offload;
pub mod refine;

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};

use espresso_sim::{simulate, DeltaSim, Job, SimConfig, SimResult, Simulator};
use espresso_strategy::{CompressionOption, Strategy};

use crate::parallel::EvalPool;

/// The objective `F(S)`: the iteration time of `job` under strategy `S`
/// (section 4.4.1). One-shot convenience; the algorithms themselves run
/// against a cached [`espresso_sim::Simulator`].
pub fn iteration_time(job: &Job, strategy: &Strategy, config: &SimConfig) -> f64 {
    simulate(job, strategy, config).iteration_time
}

/// How a decision loop prices its trials against an incumbent strategy.
///
/// Every method must answer as a from-scratch simulation would, up to the
/// contract of [`Evaluator::eval_bounded`]: a `None` certifies the trial
/// cannot beat the threshold, which an accept loop treats exactly like a
/// simulated rejection.
pub(crate) trait Evaluator<'s>: Sized {
    /// Whether a [`Stage`] may fan this evaluator's candidate scans out
    /// to [`DeltaSim`] replicas on helper threads.
    const REPLICATE: bool;

    /// Anchors an evaluator at `base` on `sim`.
    fn anchor(sim: &'s Simulator, base: &Strategy) -> Self;

    /// `F(incumbent)`.
    fn base_time(&self) -> f64;

    /// Full-timeline simulation of `strategy` (the bubble rule-out).
    fn simulate(&self, strategy: &Strategy) -> SimResult;

    /// `F(trial)`, or `None` when it provably cannot be below
    /// `threshold`.
    fn eval_bounded(&self, trial: &Strategy, threshold: f64) -> Option<f64>;

    /// `F` of the incumbent with tensor `idx` swapped to `option`, under
    /// the [`Evaluator::eval_bounded`] contract.
    fn eval_swap(&self, idx: usize, option: &Arc<CompressionOption>, threshold: f64)
        -> Option<f64>;

    /// Re-anchors at `new_base`, whose exact `F` is `new_time`.
    fn rebase(&mut self, new_base: &Strategy, new_time: f64);
}

impl<'s> Evaluator<'s> for DeltaSim<'s> {
    const REPLICATE: bool = true;

    fn anchor(sim: &'s Simulator, base: &Strategy) -> Self {
        sim.delta(base)
    }

    fn base_time(&self) -> f64 {
        DeltaSim::base_time(self)
    }

    fn simulate(&self, strategy: &Strategy) -> SimResult {
        DeltaSim::simulate(self, strategy)
    }

    fn eval_bounded(&self, trial: &Strategy, threshold: f64) -> Option<f64> {
        DeltaSim::eval_bounded(self, trial, threshold)
    }

    fn eval_swap(
        &self,
        idx: usize,
        option: &Arc<CompressionOption>,
        threshold: f64,
    ) -> Option<f64> {
        DeltaSim::eval_swap(self, idx, option, threshold)
    }

    fn rebase(&mut self, new_base: &Strategy, new_time: f64) {
        DeltaSim::rebase(self, new_base, new_time);
    }
}

/// One position's trials, shared by the caller and every replica.
///
/// Each worker repeatedly claims the lowest unclaimed trial and prices it
/// through [`Evaluator::eval_swap`] against its own running threshold,
/// which starts at `threshold` (the position-entry best less the accept
/// epsilon) and drops to every exact `F` that worker finds. A worker
/// claims in increasing order, so every `F` behind its threshold belongs
/// to an earlier trial, and each such `F` is at least the canonical
/// fold's best at the current trial less the epsilon (an accepted `F`
/// *is* that best; a rejected one failed the epsilon-strict test) — as is
/// the entry threshold. So a pruned trial is certified `F >=` the
/// threshold one serial scan would have used, and the fold in
/// [`Stage::best_swap`] accepts exactly what that scan accepts, however
/// the trials were shared out.
///
/// Both atomics are `Relaxed`: `next` only hands out claims, and a
/// helper's `times` stores reach the caller through the `done` channel
/// (a send happens-before the matching receive), after which the caller
/// folds.
struct Scan {
    idx: usize,
    trials: Vec<Arc<CompressionOption>>,
    threshold: f64,
    next: AtomicUsize,
    /// Each trial's `F` bits, or [`PRUNED`].
    times: Vec<AtomicU64>,
}

/// A `times` entry whose trial was pruned (never a finite `F`'s bits).
const PRUNED: u64 = u64::MAX;

impl Scan {
    /// The scan of `trials` as swaps at tensor `idx`, against an
    /// incumbent at `best_time`.
    fn new(idx: usize, trials: Vec<Arc<CompressionOption>>, best_time: f64) -> Self {
        Self {
            idx,
            threshold: best_time - 1e-12,
            next: AtomicUsize::new(0),
            times: trials.iter().map(|_| AtomicU64::new(PRUNED)).collect(),
            trials,
        }
    }

    /// Folds the priced trials in canonical order under the accept rule
    /// `t < best_time - 1e-12`, tightening `best_time`; returns the last
    /// accepted option.
    fn fold(&self, best_time: &mut f64) -> Option<Arc<CompressionOption>> {
        let mut best_option = None;
        for (cand, t) in self.trials.iter().zip(&self.times) {
            let t = t.load(Ordering::Relaxed);
            if t != PRUNED && f64::from_bits(t) < *best_time - 1e-12 {
                *best_time = f64::from_bits(t);
                best_option = Some(cand.clone());
            }
        }
        best_option
    }

    /// Prices claimed trials until none is left.
    fn run<'s, E: Evaluator<'s>>(&self, eval: &E) {
        let mut threshold = self.threshold;
        loop {
            let j = self.next.fetch_add(1, Ordering::Relaxed);
            let Some(cand) = self.trials.get(j) else {
                return;
            };
            if let Some(t) = eval.eval_swap(self.idx, cand, threshold) {
                threshold = threshold.min(t);
                self.times[j].store(t.to_bits(), Ordering::Relaxed);
            }
        }
    }
}

/// A request to a helper replica.
enum Msg {
    /// Join this position's scan, then reply.
    Scan(Arc<Scan>),
    /// Re-anchor at this accepted strategy and its exact `F`.
    Rebase(Arc<Strategy>, f64),
}

/// The caller's end of one helper thread.
struct Replica {
    requests: mpsc::Sender<Msg>,
    done: mpsc::Receiver<()>,
}

/// One decision stage's evaluator: the caller's `E` plus, when the stage
/// runs wider than one worker, helper threads that each own a
/// [`Simulator`] and a [`DeltaSim`] replica kept anchored at the same
/// incumbent. Built by [`stage`].
pub(crate) struct Stage<E> {
    eval: E,
    replicas: Vec<Replica>,
}

/// The fewest trials per position each worker of a stage must have to
/// pay for a replica: its anchor, a rebase per accept and a wake-up per
/// position. Single-machine option spaces (13 candidates) therefore plan
/// serially, where a replica measured no faster alone and halved
/// concurrent uncached serve throughput; multi-machine ones (89) fan out.
const MIN_TRIALS_PER_WORKER: usize = 8;

/// The fewest tensor-trials per position (trials × the job's tensors, a
/// proxy for a position's simulation work) each worker of a stage on the
/// shared pool ([`EvalPool::from_env`]) must have. Below it a replica's
/// anchor and memory outweigh its share of the work: at 2×4 a helper
/// measured 0.9–1.1× on LSTM (10 tensors) and 0.8–1.5× on VGG16 (32)
/// across runs on a shared 2-core host, and lending them one cost
/// `fleet-churn` ~12% of its peak RSS. UGATIT, GPT-2, BERT-base and
/// ResNet101 (148–314 tensors, 1.4–2× at 2×4) fan out. Private pools ([`EvalPool::new`]) skip this check,
/// so tests and the audit exercise replicas on small jobs.
const MIN_TENSOR_TRIALS_PER_WORKER: usize = 4096;

/// Runs `body` against a [`Stage`] anchored at `base` on `sim`, whose
/// positions each scan at most `max_trials` candidates.
///
/// With a replicable `E`, the stage leases `W <= max_trials /
/// MIN_TRIALS_PER_WORKER` threads from `pool` (see [`EvalPool::lease`];
/// on the shared pool also `W <= max_trials * tensors /
/// MIN_TENSOR_TRIALS_PER_WORKER`): for `W > 1` it opens a thread scope
/// and spawns `W - 1` helper replicas that live until `body` returns;
/// otherwise it spawns nothing and every scan runs inline.
pub(crate) fn stage<'s, E: Evaluator<'s>, R>(
    sim: &'s Simulator,
    base: &Strategy,
    pool: &EvalPool,
    max_trials: usize,
    body: impl FnOnce(Stage<E>) -> R,
) -> R {
    let want = if !E::REPLICATE {
        1
    } else if pool.is_shared() {
        (max_trials / MIN_TRIALS_PER_WORKER)
            .min(max_trials * sim.job().num_tensors() / MIN_TENSOR_TRIALS_PER_WORKER)
    } else {
        max_trials / MIN_TRIALS_PER_WORKER
    };
    let lease = pool.lease(want);
    let width = lease.threads();
    if width <= 1 {
        return body(Stage {
            eval: E::anchor(sim, base),
            replicas: Vec::new(),
        });
    }
    std::thread::scope(|scope| {
        let replicas = (1..width)
            .map(|_| {
                let (requests, inbox) = mpsc::channel();
                let (finished, done) = mpsc::channel();
                let (job, config, base) = (sim.job().clone(), *sim.config(), base.clone());
                scope.spawn(move || {
                    let sim = Simulator::new(job, config);
                    let mut eval = sim.delta(&base);
                    for msg in inbox {
                        match msg {
                            Msg::Scan(scan) => {
                                scan.run(&eval);
                                if finished.send(()).is_err() {
                                    return;
                                }
                            }
                            Msg::Rebase(strategy, time) => eval.rebase(&strategy, time),
                        }
                    }
                });
                Replica { requests, done }
            })
            .collect();
        // Dropping the stage when `body` returns (or unwinds) closes every
        // request channel, so the helpers exit and the scope joins.
        body(Stage {
            eval: E::anchor(sim, base),
            replicas,
        })
    })
}

impl<'s, E: Evaluator<'s>> Stage<E> {
    /// `F(incumbent)`.
    pub(crate) fn base_time(&self) -> f64 {
        self.eval.base_time()
    }

    /// Full-timeline simulation of `strategy` on the caller's evaluator.
    pub(crate) fn simulate(&self, strategy: &Strategy) -> SimResult {
        self.eval.simulate(strategy)
    }

    /// `GetBestOption`: tries every candidate for tensor `idx` of
    /// `strategy` (the incumbent, every other tensor held fixed) and
    /// returns the best option accepted on `t < best_time - 1e-12`,
    /// tightening `best_time` as candidates are accepted and counting one
    /// simulation per trial. `skip_current` skips a candidate equal to the
    /// incumbent's option without counting it.
    ///
    /// The caller and the replicas share the trials out (see [`Scan`])
    /// and the results are folded in canonical candidate order, so the
    /// accepted option and `best_time` are those of one serial scan at
    /// every width.
    pub(crate) fn best_swap(
        &self,
        strategy: &Strategy,
        idx: usize,
        candidates: &[Arc<CompressionOption>],
        skip_current: bool,
        best_time: &mut f64,
        simulations: &mut usize,
    ) -> Option<Arc<CompressionOption>> {
        let trials: Vec<Arc<CompressionOption>> = candidates
            .iter()
            .filter(|cand| !(skip_current && *cand == strategy.option(idx)))
            .cloned()
            .collect();
        *simulations += trials.len();
        let scan = Arc::new(Scan::new(idx, trials, *best_time));
        let helpers =
            &self.replicas[..self.replicas.len().min(scan.trials.len().saturating_sub(1))];
        for replica in helpers {
            replica
                .requests
                .send(Msg::Scan(scan.clone()))
                .expect("planner replica exited");
        }
        scan.run(&self.eval);
        for replica in helpers {
            replica.done.recv().expect("planner replica exited");
        }
        scan.fold(best_time)
    }

    /// Re-anchors the caller's evaluator and every replica at
    /// `new_base`, whose exact `F` is `new_time`.
    pub(crate) fn rebase(&mut self, new_base: &Strategy, new_time: f64) {
        if !self.replicas.is_empty() {
            let shared = Arc::new(new_base.clone());
            for replica in &self.replicas {
                replica
                    .requests
                    .send(Msg::Rebase(shared.clone(), new_time))
                    .expect("planner replica exited");
            }
        }
        self.eval.rebase(new_base, new_time);
    }
}

/// The reference evaluator: holds the incumbent and prices every trial
/// with a from-scratch [`Simulator::iteration_time`] /
/// [`Simulator::simulate`] call — no memo, no bound, no delta engine, no
/// replicas — so it stays an independent oracle for [`DeltaSim`].
pub(crate) struct FullSim<'s> {
    sim: &'s Simulator,
    incumbent: Strategy,
    time: f64,
}

impl<'s> Evaluator<'s> for FullSim<'s> {
    const REPLICATE: bool = false;

    fn anchor(sim: &'s Simulator, base: &Strategy) -> Self {
        Self {
            sim,
            incumbent: base.clone(),
            time: sim.iteration_time(base),
        }
    }

    fn base_time(&self) -> f64 {
        self.time
    }

    fn simulate(&self, strategy: &Strategy) -> SimResult {
        self.sim.simulate(strategy)
    }

    fn eval_bounded(&self, trial: &Strategy, _threshold: f64) -> Option<f64> {
        Some(self.sim.iteration_time(trial))
    }

    fn eval_swap(
        &self,
        idx: usize,
        option: &Arc<CompressionOption>,
        _threshold: f64,
    ) -> Option<f64> {
        let mut trial = self.incumbent.clone();
        trial.set_option(idx, option.clone());
        Some(self.sim.iteration_time(&trial))
    }

    fn rebase(&mut self, new_base: &Strategy, new_time: f64) {
        self.incumbent = new_base.clone();
        self.time = new_time;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_cluster::Cluster;
    use espresso_gc::{Device, GcAlgorithm};
    use espresso_models::Model;
    use espresso_strategy::OptionSpace;

    fn uncompressed(job: &Job) -> Strategy {
        Strategy::uncompressed(job.num_tensors(), gpu::default_pattern(job), &job.cluster)
    }

    #[test]
    fn the_shared_pool_lends_replicas_only_to_large_jobs() {
        for (model, shared_helpers) in [(Model::Lstm, 0), (Model::Ugatit, 1)] {
            let job = Job::new(
                model.profile(),
                Cluster::pcie_25g(2, 4),
                GcAlgorithm::randomk_1pct(),
            );
            let sim = Simulator::new(job.clone(), SimConfig::default());
            let trials = OptionSpace::enumerate(&job.cluster).gpu_compressed().len();
            let base = uncompressed(&job);
            let helpers = |pool: &EvalPool| {
                stage::<DeltaSim, _>(&sim, &base, pool, trials, |s| s.replicas.len())
            };
            let shared = helpers(&EvalPool::shared(2));
            assert_eq!(shared, shared_helpers, "{}", model.name());
            let private = helpers(&EvalPool::new(2));
            assert_eq!(private, 1, "a private pool fans out any job");
        }
    }

    /// The serial accept loop over exact prices: the oracle every split
    /// of the same trials must fold to.
    fn serial_fold(
        sim: &Simulator,
        base: &Strategy,
        idx: usize,
        trials: &[Arc<CompressionOption>],
    ) -> (Option<Arc<CompressionOption>>, f64, Vec<f64>) {
        let eval = FullSim::anchor(sim, base);
        let scan = Scan::new(idx, trials.to_vec(), eval.base_time());
        scan.run(&eval);
        let times = scan
            .times
            .iter()
            .map(|t| f64::from_bits(t.load(Ordering::Relaxed)))
            .collect();
        let mut best = eval.base_time();
        (scan.fold(&mut best), best, times)
    }

    /// One claim order of two workers: the caller prices `trials[..k]`
    /// on its own simulator, a replica prices `trials[k..]` on another,
    /// each from the entry threshold, and the shares fold together.
    fn split_fold(
        job: &Job,
        base: &Strategy,
        idx: usize,
        trials: &[Arc<CompressionOption>],
        k: usize,
    ) -> (Option<Arc<CompressionOption>>, f64) {
        let caller_sim = Simulator::new(job.clone(), SimConfig::default());
        let replica_sim = Simulator::new(job.clone(), SimConfig::default());
        let (caller, replica) = (caller_sim.delta(base), replica_sim.delta(base));
        let entry = caller.base_time();
        let head = Scan::new(idx, trials[..k].to_vec(), entry);
        head.run(&caller);
        let scan = Scan::new(idx, trials.to_vec(), entry);
        scan.next.store(k, Ordering::Relaxed);
        scan.run(&replica);
        for (slot, t) in scan.times.iter().zip(&head.times) {
            slot.store(t.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        let mut best = entry;
        (scan.fold(&mut best), best)
    }

    fn assert_every_split_folds_serially(
        job: &Job,
        base: &Strategy,
        idx: usize,
        trials: &[Arc<CompressionOption>],
    ) -> (usize, Vec<f64>) {
        let sim = Simulator::new(job.clone(), SimConfig::default());
        let (want, want_time, times) = serial_fold(&sim, base, idx, trials);
        let want = want.expect("the serial scan accepts a trial");
        let winner = trials.iter().position(|t| *t == want).expect("a trial won");
        for k in 1..trials.len() {
            let (got, got_time) = split_fold(job, base, idx, trials, k);
            assert_eq!(got.as_ref(), Some(&want), "split at {k}");
            assert_eq!(got_time.to_bits(), want_time.to_bits(), "split at {k}");
        }
        (winner, times)
    }

    #[test]
    fn a_tie_across_workers_keeps_the_earliest_trial() {
        // Backfill's shape: every CPU variant, uncompressed incumbent. On
        // one PCIe machine several CPU options price tensor 4 to the bit.
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(1, 4),
            GcAlgorithm::randomk_1pct(),
        );
        let trials: Vec<_> = OptionSpace::enumerate(&job.cluster)
            .compressed()
            .iter()
            .map(|o| o.with_device(Device::Cpu))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .filter(|o| o.compresses())
            .collect();
        let (winner, times) =
            assert_every_split_folds_serially(&job, &uncompressed(&job), 4, &trials);
        assert!(
            times[winner + 1..]
                .iter()
                .any(|t| t.to_bits() == times[winner].to_bits()),
            "the winner has a bit-equal later twin"
        );
        assert!(winner > 0, "some split puts the accept on the replica");
    }

    #[test]
    fn an_accept_on_a_replica_matches_the_serial_scan() {
        // Algorithm 1's shape: the incumbent already compresses the tensor
        // on the GPU and is skipped; the other GPU options compete.
        let job = Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(2, 4),
            GcAlgorithm::randomk_1pct(),
        );
        let gpu = OptionSpace::enumerate(&job.cluster).gpu_compressed();
        let mut base = uncompressed(&job);
        base.set_option(0, gpu[0].clone());
        let trials: Vec<_> = gpu[1..].to_vec();
        let (winner, _) = assert_every_split_folds_serially(&job, &base, 0, &trials);
        assert!(winner > 0, "some split puts the accept on the replica");
    }
}

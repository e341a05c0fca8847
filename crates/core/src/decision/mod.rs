//! Espresso's compression decision algorithms (paper section 4.4).
//!
//! Each algorithm — Algorithm 1 ([`gpu`]), Algorithm 2 ([`offload`]) and
//! the CPU backfill ([`refine`]) — is written once, generic over an
//! [`Evaluator`] that prices its trials. [`DeltaSim`] is the planner fast
//! path (suffix re-simulation, certified pruning, exact memo, optional
//! pool fan-out); [`FullSim`] prices every trial from scratch and is the
//! independent oracle the differential sweep checks the fast path
//! against. The loops see the same accept outcome from either, so the
//! selected strategy and every deterministic counter agree bit for bit.

pub mod gpu;
pub mod offload;
pub mod refine;

use std::sync::Arc;

use espresso_sim::{simulate, DeltaSim, Job, Screened, SimConfig, SimResult, Simulator};
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
    /// Anchors an evaluator at `base` on `sim`.
    fn anchor(sim: &'s Simulator, base: &Strategy) -> Self;

    /// `F(incumbent)`.
    fn base_time(&self) -> f64;

    /// Full-timeline simulation of `strategy` (the bubble rule-out).
    fn simulate(&self, strategy: &Strategy) -> SimResult;

    /// `F(trial)`, or `None` when it provably cannot be below
    /// `threshold`.
    fn eval_bounded(&self, trial: &Strategy, threshold: f64) -> Option<f64>;

    /// `GetBestOption`: tries every candidate for tensor `idx` of
    /// `strategy` (the incumbent, every other tensor held fixed) and
    /// returns the best option accepted on `t < best_time - 1e-12`,
    /// tightening `best_time` as candidates are accepted and counting one
    /// simulation per trial. `skip_current` skips a candidate equal to the
    /// incumbent's option without counting it.
    #[allow(clippy::too_many_arguments)]
    fn best_swap(
        &self,
        strategy: &Strategy,
        idx: usize,
        candidates: &[Arc<CompressionOption>],
        skip_current: bool,
        pool: &EvalPool,
        best_time: &mut f64,
        simulations: &mut usize,
    ) -> Option<Arc<CompressionOption>>;

    /// Re-anchors at `new_base`, whose exact `F` is `new_time`.
    fn rebase(&mut self, new_base: &Strategy, new_time: f64);
}

impl<'s> Evaluator<'s> for DeltaSim<'s> {
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

    /// Single-worker pools evaluate serially through
    /// [`DeltaSim::eval_swap`], whose threshold tightens as candidates are
    /// accepted. Wider pools screen every candidate against the
    /// position-entry threshold, fan the live units out, and fold the
    /// merged results in canonical candidate order; a candidate pruned
    /// against the entry threshold is certified no better than every
    /// later (smaller) threshold too, so both schedules accept identical
    /// options.
    fn best_swap(
        &self,
        strategy: &Strategy,
        idx: usize,
        candidates: &[Arc<CompressionOption>],
        skip_current: bool,
        pool: &EvalPool,
        best_time: &mut f64,
        simulations: &mut usize,
    ) -> Option<Arc<CompressionOption>> {
        let mut best_option: Option<Arc<CompressionOption>> = None;
        if pool.workers() <= 1 {
            for cand in candidates {
                if skip_current && cand == strategy.option(idx) {
                    continue;
                }
                *simulations += 1;
                if let Some(t) = self.eval_swap(idx, cand, *best_time - 1e-12) {
                    if t < *best_time - 1e-12 {
                        *best_time = t;
                        best_option = Some(cand.clone());
                    }
                }
            }
            return best_option;
        }

        enum Slot {
            Pruned,
            Known(f64),
            Live(usize),
        }
        let entry = *best_time - 1e-12;
        let mut slots: Vec<(&Arc<CompressionOption>, Slot)> = Vec::new();
        let mut live = Vec::new();
        for cand in candidates {
            if skip_current && cand == strategy.option(idx) {
                continue;
            }
            let mut trial = strategy.clone();
            trial.set_option(idx, cand.clone());
            let slot = match self.screen(&trial, entry) {
                Screened::Pruned => Slot::Pruned,
                Screened::Known(t) => Slot::Known(t),
                Screened::Live(unit) => {
                    live.push(unit);
                    Slot::Live(live.len() - 1)
                }
            };
            slots.push((cand, slot));
        }
        let results = pool.run(live);
        for (cand, slot) in slots {
            *simulations += 1;
            let t = match slot {
                Slot::Pruned => continue,
                Slot::Known(t) => t,
                Slot::Live(i) => results[i],
            };
            if t < *best_time - 1e-12 {
                *best_time = t;
                best_option = Some(cand.clone());
            }
        }
        best_option
    }

    fn rebase(&mut self, new_base: &Strategy, new_time: f64) {
        DeltaSim::rebase(self, new_base, new_time);
    }
}

/// The reference evaluator: holds the incumbent and prices every trial
/// with a from-scratch [`Simulator::iteration_time`] /
/// [`Simulator::simulate`] call — no memo, no bound, no delta engine, no
/// pool — so it stays an independent oracle for [`DeltaSim`].
pub(crate) struct FullSim<'s> {
    sim: &'s Simulator,
    incumbent: Strategy,
    time: f64,
}

impl<'s> Evaluator<'s> for FullSim<'s> {
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

    fn best_swap(
        &self,
        strategy: &Strategy,
        idx: usize,
        candidates: &[Arc<CompressionOption>],
        skip_current: bool,
        _pool: &EvalPool,
        best_time: &mut f64,
        simulations: &mut usize,
    ) -> Option<Arc<CompressionOption>> {
        debug_assert!(*strategy == self.incumbent, "best_swap off the incumbent");
        let mut best_option: Option<Arc<CompressionOption>> = None;
        for cand in candidates {
            if skip_current && cand == strategy.option(idx) {
                continue;
            }
            let mut trial = self.incumbent.clone();
            trial.set_option(idx, cand.clone());
            let t = self.sim.iteration_time(&trial);
            *simulations += 1;
            if t < *best_time - 1e-12 {
                *best_time = t;
                best_option = Some(cand.clone());
            }
        }
        best_option
    }

    fn rebase(&mut self, new_base: &Strategy, new_time: f64) {
        self.incumbent = new_base.clone();
        self.time = new_time;
    }
}

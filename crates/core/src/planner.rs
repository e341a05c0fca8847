//! The planning memo: one home for every decide and re-plan.
//!
//! A selection is a pure function of its inputs (the paper's Figure 6):
//! the nominal selection of the [`Job`] alone, a robust selection of
//! `(job, health, fault spec)`. A [`Planner`] keeps *completed*
//! selections under exactly those inputs and replays them on a match —
//! byte-identical to a cold plan by construction. [`Planner::decide`] and
//! [`Planner::replan`] are the only bodies of the two operations; a fresh
//! planner is the cold path ([`crate::service::decide`]). The replay is
//! sound because:
//!
//! * entries are stored under their entire key text, so a hash collision
//!   is a miss, never wrong bytes;
//! * only selection outputs are kept; per-call state (the fault replay
//!   time, a re-plan's `changed` flag) is recomputed, and the [`Report`]'s
//!   wall-clock telemetry is outside the equality contract;
//! * the robust selector's `"nominal-espresso"` candidate is the memo's
//!   nominal selection of the same job, so no plan runs twice.

use std::sync::Arc;

use espresso_cluster::ClusterHealth;
use espresso_sim::{FaultPlan, Job, SimConfig, Simulator};
use espresso_strategy::Strategy;

use crate::cache::{CacheStats, ShardedLru};
use crate::config::build_job;
use crate::error::EspressoError;
use crate::espresso::{Espresso, Report};
use crate::robust::{Replan, RobustSelection, RobustSelector};
use crate::service::{Decision, DecisionRequest};

/// One completed selection.
#[derive(Debug, Clone)]
enum Memo {
    Nominal(Arc<(Strategy, Report)>),
    Robust(Arc<RobustSelection>),
}

/// A bounded, thread-shared memo of completed selections, and the one
/// implementation of [`Planner::decide`] and [`Planner::replan`]. See the
/// module docs for the soundness argument.
#[derive(Debug)]
pub struct Planner {
    memo: ShardedLru<String, Memo>,
}

/// The pre-[`Planner`] name of a re-plan memo, kept for callers that
/// still spell it this way.
pub type ReplanContext = Planner;

impl Default for Planner {
    fn default() -> Self {
        Self::new()
    }
}

impl Planner {
    /// Shards of the memo: enough that a server's or fleet's concurrent
    /// planners rarely contend.
    const SHARDS: usize = 4;
    /// Capacity of [`Planner::new`]: a training run's or a one-off
    /// decision's distinct conditions fit many times over.
    const DEFAULT_CAPACITY: usize = 32;

    /// An empty planner holding up to 32 selections.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty planner holding up to `capacity` selections (at least
    /// one), evicting the least recently used first.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            memo: ShardedLru::new(capacity, Self::SHARDS),
        }
    }

    /// Memo lookups answered so far (hits), fallen through to a cold plan
    /// (misses), and the selections held.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// `job`'s nominal selection, planned at most once.
    fn nominal(&self, job: &Job) -> Arc<(Strategy, Report)> {
        let key = nominal_key(job);
        if let Some(Memo::Nominal(selection)) = self.memo.get(&key) {
            return selection;
        }
        let selection = Arc::new(Espresso::new(job.clone()).select_strategy());
        self.memo.insert(key, Memo::Nominal(Arc::clone(&selection)));
        selection
    }

    /// The robust selection for `(job, health, faults)`, planned at most
    /// once, with the memo's nominal selection of `job` as its stale
    /// candidate. `faults` is the fault spec text with its parsed plan
    /// (seeded parsing is deterministic, so the text determines the
    /// plan).
    fn robust(
        &self,
        job: &Job,
        health: &ClusterHealth,
        faults: Option<(&str, &FaultPlan)>,
    ) -> Result<Arc<RobustSelection>, EspressoError> {
        let key = robust_key(job, health, faults.map(|(spec, _)| spec));
        if let Some(Memo::Robust(selection)) = self.memo.get(&key) {
            return Ok(selection);
        }
        let stale = self.nominal(job).0.clone();
        let mut selector = RobustSelector::new(job.clone(), *health);
        if let Some((_, plan)) = faults {
            selector = selector.with_faults(plan.clone());
        }
        let selection = Arc::new(selector.select_from(stale)?);
        self.memo.insert(key, Memo::Robust(Arc::clone(&selection)));
        Ok(selection)
    }

    /// Runs one decision end to end: build the job, select the strategy,
    /// optionally replay it under faults and run the robust selector.
    /// The selections come from the memo when their inputs match an
    /// earlier decision; the fault replay is computed per call.
    ///
    /// # Errors
    ///
    /// Any [`EspressoError`] from config resolution, fault-plan parsing,
    /// or robust selection — all carrying enough context to fix the
    /// request.
    pub fn decide(&self, req: &DecisionRequest) -> Result<Decision, EspressoError> {
        let job = build_job(&req.model, &req.gc, &req.system, None)?;
        let fault_plan = req
            .faults
            .as_deref()
            .map(|spec| {
                FaultPlan::parse(spec, job.cluster.total_gpus())
                    .map_err(|e| EspressoError::Fault { message: e.message })
            })
            .transpose()?;

        let nominal = self.nominal(&job);
        let (strategy, report) = (nominal.0.clone(), nominal.1.clone());

        let faulted_iteration_time = fault_plan.as_ref().map(|plan| {
            Simulator::new(job.clone(), SimConfig::default())
                .iteration_time_with_faults(&strategy, plan)
        });

        let robust = if req.robust || !req.health.is_nominal() {
            let faults = req.faults.as_deref().zip(fault_plan.as_ref());
            let selection = self.robust(&job, &req.health, faults)?;
            Some(RobustSelection::clone(&selection))
        } else {
            None
        };

        Ok(Decision {
            job,
            strategy,
            report,
            fault_plan,
            faulted_iteration_time,
            robust,
        })
    }

    /// Re-selects the compression strategy online, against the cluster
    /// that currently exists: `job` must already describe the
    /// *surviving* topology (e.g. via
    /// [`espresso_cluster::Membership::effective_cluster`] mapped back to
    /// a template without health applied — health is passed here).
    ///
    /// On a nominal-health cluster this is the plain Espresso decision
    /// (section 4.4) — cheap and exactly what the offline planner would
    /// have chosen for this topology. Under degraded health it runs the
    /// full [`RobustSelector`] ensemble, so the re-planned strategy is
    /// hedged against the same measurement drift that likely caused the
    /// trip.
    ///
    /// `current` is the strategy in force before the event; `changed`
    /// reports whether the re-plan picked something different, and is
    /// recomputed on every call, memo hit or not.
    ///
    /// # Errors
    ///
    /// As [`RobustSelector::select`].
    pub fn replan(
        &self,
        job: &Job,
        health: &ClusterHealth,
        current: &Strategy,
    ) -> Result<Replan, EspressoError> {
        let (strategy, predicted_time, chosen) = if health.is_nominal() {
            let nominal = self.nominal(job);
            (
                nominal.0.clone(),
                nominal.1.iteration_time,
                "espresso".to_string(),
            )
        } else {
            let selection = self.robust(job, health, None)?;
            (
                selection.strategy.clone(),
                selection.mean_time,
                selection.chosen.clone(),
            )
        };
        let changed = strategy != *current;
        Ok(Replan {
            strategy,
            predicted_time,
            chosen,
            changed,
        })
    }
}

/// The memo key of `job`'s nominal selection.
fn nominal_key(job: &Job) -> String {
    format!("nominal|{job:?}")
}

/// The memo key of the robust selection for `(job, health, faults)`.
fn robust_key(job: &Job, health: &ClusterHealth, faults: Option<&str>) -> String {
    format!("robust|{health:?}|{faults:?}|{job:?}")
}

/// [`Planner::replan`] under its pre-[`Planner`] spelling.
///
/// # Errors
///
/// As [`Planner::replan`].
pub fn replan_with_context(
    ctx: &mut ReplanContext,
    job: &Job,
    health: &ClusterHealth,
    current: &Strategy,
) -> Result<Replan, EspressoError> {
    ctx.replan(job, health, current)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{GcConfig, ModelConfig, SystemConfig};
    use crate::robust::DegradationMonitor;
    use espresso_cluster::{Cluster, IntraFabric};
    use espresso_gc::GcAlgorithm;
    use espresso_json::Json;
    use espresso_models::Model;

    fn small_job() -> Job {
        Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(2, 4),
            GcAlgorithm::EfSignSgd,
        )
    }

    fn lstm_request() -> DecisionRequest {
        DecisionRequest::new(
            ModelConfig::Named {
                model: "LSTM".into(),
            },
            GcConfig::uniform(GcAlgorithm::EfSignSgd),
            SystemConfig {
                machines: 2,
                gpus_per_machine: 4,
                intra: IntraFabric::Pcie,
                inter_gbps: 25.0,
            },
        )
    }

    fn bits(selection: &RobustSelection) -> Vec<(String, u64, u64, bool)> {
        selection
            .candidates
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    c.mean.to_bits(),
                    c.worst.to_bits(),
                    c.admitted,
                )
            })
            .collect()
    }

    #[test]
    fn degraded_decide_plans_each_selection_once() {
        let planner = Planner::new();
        let mut req = lstm_request();
        req.health = ClusterHealth::inter_degraded(2.0);
        let decision = planner.decide(&req).unwrap();
        // Two cold plans; the robust path's nominal lookup is the one hit.
        let stats = planner.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
        let job = &decision.job;
        assert!(matches!(
            planner.memo.get(nominal_key(job)),
            Some(Memo::Nominal(_))
        ));
        assert!(matches!(
            planner.memo.get(robust_key(job, &req.health, None)),
            Some(Memo::Robust(_))
        ));
        // Seeding the selector with the memo's nominal selection changes
        // nothing: every candidate's score matches a self-contained run.
        let direct = RobustSelector::new(job.clone(), req.health)
            .select()
            .unwrap();
        let robust = decision.robust.as_ref().unwrap();
        assert_eq!(bits(robust), bits(&direct));
        assert_eq!(robust.chosen, direct.chosen);
        assert_eq!(robust.strategy, direct.strategy);
        assert_eq!(robust.mean_time.to_bits(), direct.mean_time.to_bits());
    }

    #[test]
    fn memo_decides_match_cold_byte_for_byte() {
        let planner = Planner::with_capacity(16);
        let mut req = lstm_request();
        req.health = ClusterHealth::inter_degraded(2.0);
        req.faults = Some("seed=7,straggler=1.5".into());
        let enc = |d: &Decision| Json::encode(&d.response());
        let cold = enc(&Planner::new().decide(&req).unwrap());
        assert_eq!(enc(&planner.decide(&req).unwrap()), cold);
        let hits = planner.stats().hits;
        assert_eq!(enc(&planner.decide(&req).unwrap()), cold);
        assert_eq!(
            planner.stats().hits,
            hits + 2,
            "the second decide must hit both entries"
        );
        // A different health misses the robust entry, and both the
        // decision and its robust selection reuse the nominal one.
        let mut other = req.clone();
        other.health = ClusterHealth::inter_degraded(3.0);
        let (hits, misses) = (planner.stats().hits, planner.stats().misses);
        let warm = enc(&planner.decide(&other).unwrap());
        assert_eq!(warm, enc(&Planner::new().decide(&other).unwrap()));
        assert_eq!(
            (planner.stats().hits, planner.stats().misses),
            (hits + 2, misses + 1),
            "nominal selection reused across healths"
        );
    }

    #[test]
    fn keys_separate_health_faults_and_entry_kinds() {
        let job = small_job();
        let current = DegradationMonitor::fallback_strategy(&job);
        let planner = Planner::new();
        let degraded = ClusterHealth::inter_degraded(2.0);
        let plan = FaultPlan::parse("seed=7", job.cluster.total_gpus()).unwrap();
        for health in [
            ClusterHealth::nominal(),
            degraded,
            ClusterHealth::inter_degraded(3.0),
        ] {
            planner.replan(&job, &health, &current).unwrap();
        }
        planner
            .robust(&job, &degraded, Some(("seed=7", &plan)))
            .unwrap();
        // Nominal, two healths and a fault spec: four distinct entries,
        // the nominal one shared by every robust selection.
        let stats = planner.stats();
        assert_eq!((stats.entries, stats.misses), (4, 4));

        // A nominal entry never answers a robust lookup of the same key
        // text, even if the keys were to collide.
        let planner = Planner::new();
        let cold = Arc::new(Espresso::new(job.clone()).select_strategy());
        planner
            .memo
            .insert(robust_key(&job, &degraded, None), Memo::Nominal(cold));
        let selection = planner.robust(&job, &degraded, None).unwrap();
        let direct = RobustSelector::new(job, degraded).select().unwrap();
        assert_eq!(bits(&selection), bits(&direct));
    }

    #[test]
    fn replan_on_nominal_health_matches_plain_espresso() {
        let job = small_job();
        let (expected, report) = Espresso::new(job.clone()).select_strategy();
        let r = Planner::new()
            .replan(&job, &ClusterHealth::nominal(), &expected)
            .unwrap();
        assert_eq!(r.strategy, expected);
        assert!(!r.changed);
        assert_eq!(r.chosen, "espresso");
        assert!((r.predicted_time - report.iteration_time).abs() < 1e-12);
    }
}

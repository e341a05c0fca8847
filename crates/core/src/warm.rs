//! Cross-request planner warm starts.
//!
//! The planner is a pure function of its inputs: a nominal selection is
//! determined by the [`Job`] alone, a robust selection by
//! `(job, health, faults)`. [`WarmStartCache`] keys *completed* selection
//! artifacts by exactly those inputs and replays them on a match —
//! byte-identical to a cold plan by construction, at lookup cost. The
//! cache is `Sync` and sharded, so a fleet controller or a decision
//! server can share one instance across every connection and worker
//! thread.
//!
//! Two properties keep the replay sound:
//!
//! * **Full-key comparison.** The shard is picked by a 64-bit FNV of the
//!   key, but entries store and compare the *entire* key string — a hash
//!   collision degrades to a miss (recompute), never to wrong bytes.
//! * **Purity of the stored artifact.** Only selection outputs are
//!   cached ([`Strategy`] + [`Report`], or a [`RobustSelection`]);
//!   anything derived from per-request state (fault replay times, the
//!   `changed` flag of a re-plan) is recomputed by the caller. The
//!   [`Report`]'s wall-clock telemetry fields are carried as measured by
//!   the cold plan — they are documented as excluded from the equality
//!   contract, exactly as with the planner fast path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use espresso_cluster::ClusterHealth;
use espresso_json::fnv1a64;
use espresso_sim::Job;
use espresso_strategy::Strategy;

use crate::espresso::Report;
use crate::robust::RobustSelection;

/// One cached selection artifact.
#[derive(Debug, Clone)]
enum WarmEntry {
    /// A completed nominal Espresso selection.
    Nominal(Arc<(Strategy, Report)>),
    /// A completed robust selection.
    Robust(Arc<RobustSelection>),
}

/// A sharded, capacity-bounded cache of completed planner selections,
/// shared across requests and threads. See the module docs for the
/// soundness argument.
#[derive(Debug)]
pub struct WarmStartCache {
    shards: Vec<Mutex<Vec<(String, WarmEntry)>>>,
    per_shard: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl WarmStartCache {
    /// A cache holding at most `capacity` selections across `shards`
    /// shards (both clamped to at least 1).
    pub fn new(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        let per_shard = capacity.max(1).div_ceil(shards);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Vec::new())).collect(),
            per_shard,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cache key of `job`'s nominal selection.
    pub fn nominal_key(job: &Job) -> String {
        format!("nominal|{job:?}")
    }

    /// The cache key of the robust selection for `(job, health, faults)`.
    /// `faults` is the *spec text* of the fault plan (seeded parsing is
    /// deterministic, so the spec determines the plan).
    pub fn robust_key(job: &Job, health: &ClusterHealth, faults: Option<&str>) -> String {
        format!("robust|{health:?}|{faults:?}|{job:?}")
    }

    fn shard_of(&self, key: &str) -> usize {
        (fnv1a64(key.as_bytes()) % self.shards.len() as u64) as usize
    }

    fn get(&self, key: &str) -> Option<WarmEntry> {
        let shard = lock(&self.shards[self.shard_of(key)]);
        let found = shard.iter().find(|(k, _)| k == key).map(|(_, e)| e.clone());
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn insert(&self, key: String, entry: WarmEntry) {
        let mut shard = lock(&self.shards[self.shard_of(&key)]);
        if shard.iter().any(|(k, _)| *k == key) {
            return; // A racing planner stored the identical artifact.
        }
        if shard.len() >= self.per_shard {
            shard.remove(0); // FIFO: evict the shard's oldest entry.
        }
        shard.push((key, entry));
    }

    /// The cached nominal selection under `key`, if present.
    pub fn get_nominal(&self, key: &str) -> Option<Arc<(Strategy, Report)>> {
        match self.get(key)? {
            WarmEntry::Nominal(sel) => Some(sel),
            WarmEntry::Robust(_) => None,
        }
    }

    /// Stores a completed nominal selection under `key`.
    pub fn insert_nominal(&self, key: String, selection: (Strategy, Report)) {
        self.insert(key, WarmEntry::Nominal(Arc::new(selection)));
    }

    /// The cached robust selection under `key`, if present.
    pub fn get_robust(&self, key: &str) -> Option<Arc<RobustSelection>> {
        match self.get(key)? {
            WarmEntry::Robust(sel) => Some(sel),
            WarmEntry::Nominal(_) => None,
        }
    }

    /// Stores a completed robust selection under `key`.
    pub fn insert_robust(&self, key: String, selection: RobustSelection) {
        self.insert(key, WarmEntry::Robust(Arc::new(selection)));
    }

    /// Lookups answered from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that fell through to a cold plan so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Selections currently cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock(s).len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::espresso::Espresso;
    use espresso_cluster::Cluster;
    use espresso_gc::GcAlgorithm;
    use espresso_models::Model;

    fn small_job() -> Job {
        Job::new(
            Model::Lstm.profile(),
            Cluster::pcie_25g(2, 4),
            GcAlgorithm::EfSignSgd,
        )
    }

    #[test]
    fn nominal_hits_replay_the_stored_selection() {
        let cache = WarmStartCache::new(8, 2);
        let key = WarmStartCache::nominal_key(&small_job());
        assert!(cache.get_nominal(&key).is_none());
        let cold = Espresso::new(small_job()).select_strategy();
        cache.insert_nominal(key.clone(), cold.clone());
        let warm = cache.get_nominal(&key).expect("stored entry must hit");
        assert_eq!(warm.0, cold.0);
        assert_eq!(warm.1.iteration_time, cold.1.iteration_time);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn keys_separate_health_faults_and_entry_kinds() {
        let job = small_job();
        let nominal = WarmStartCache::nominal_key(&job);
        let degraded = WarmStartCache::robust_key(
            &job,
            &ClusterHealth::inter_degraded(2.0),
            None,
        );
        let degraded_more = WarmStartCache::robust_key(
            &job,
            &ClusterHealth::inter_degraded(3.0),
            None,
        );
        let faulted = WarmStartCache::robust_key(
            &job,
            &ClusterHealth::inter_degraded(2.0),
            Some("seed=7"),
        );
        let keys = [&nominal, &degraded, &degraded_more, &faulted];
        for (i, a) in keys.iter().enumerate() {
            for b in &keys[i + 1..] {
                assert_ne!(a, b);
            }
        }
        // A nominal entry never answers a robust lookup of the same key
        // text (and vice versa) even if the keys were to collide.
        let cache = WarmStartCache::new(8, 1);
        let cold = Espresso::new(small_job()).select_strategy();
        cache.insert_nominal(degraded.clone(), cold);
        assert!(cache.get_robust(&degraded).is_none());
    }

    #[test]
    fn capacity_bounds_hold_with_fifo_eviction() {
        let cache = WarmStartCache::new(4, 1);
        let cold = Espresso::new(small_job()).select_strategy();
        for i in 0..10 {
            cache.insert_nominal(format!("k{i}"), cold.clone());
        }
        assert_eq!(cache.len(), 4);
        assert!(cache.get_nominal("k0").is_none(), "oldest entries evicted");
        assert!(cache.get_nominal("k9").is_some(), "newest entries kept");
    }
}

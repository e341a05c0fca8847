//! A sharded LRU map: the one bounded, thread-shared cache in the
//! workspace.
//!
//! The decision server keeps rendered response bodies in one, keyed by a
//! 64-bit FNV-1a hash of the request's canonical JSON (the default
//! `u64` → `Arc<Vec<u8>>` instantiation); the [`crate::Planner`] keeps
//! completed selections in one, keyed by their full input text. The map
//! is split into independently locked shards so concurrent workers
//! rarely contend; eviction within a shard is exact least-recently-used.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard};

/// Aggregated counters across all shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Live entries right now.
    pub entries: usize,
}

impl CacheStats {
    /// Fraction of lookups that hit, in `[0, 1]` (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    last_used: u64,
}

#[derive(Debug)]
struct Shard<K, V> {
    entries: HashMap<K, Entry<V>>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K, V> Default for Shard<K, V> {
    fn default() -> Self {
        Self {
            entries: HashMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }
}

/// The sharded LRU map. Lookups return a clone of the stored value, so
/// values are cheap handles (`Arc`s or small enums of them).
#[derive(Debug)]
pub struct ShardedLru<K = u64, V = Arc<Vec<u8>>> {
    shards: Vec<Mutex<Shard<K, V>>>,
    per_shard_capacity: usize,
}

impl<K: Hash + Eq, V: Clone> ShardedLru<K, V> {
    /// A map holding about `capacity` entries across `shards` shards.
    /// Capacity is clamped to at least 1 and the shard count to
    /// `1..=capacity`, so every shard holds at least one entry and a
    /// tiny map never holds more than asked.
    pub fn new(capacity: usize, shards: usize) -> Self {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        Self {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            per_shard_capacity: capacity.div_ceil(shards),
        }
    }

    /// Which shard a key lives in. The key's hash comes from the
    /// fixed-key `DefaultHasher`, so placement is stable within a build.
    fn shard_of(&self, key: &K) -> usize {
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    fn shard(&self, key: &K) -> MutexGuard<'_, Shard<K, V>> {
        self.shards[self.shard_of(key)]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
    }

    /// Looks up `key` (by value or by reference), bumping its recency on
    /// a hit.
    pub fn get<Q: Borrow<K>>(&self, key: Q) -> Option<V> {
        let key = key.borrow();
        let mut shard = self.shard(key);
        shard.tick += 1;
        let tick = shard.tick;
        match shard.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                let value = entry.value.clone();
                shard.hits += 1;
                Some(value)
            }
            None => {
                shard.misses += 1;
                None
            }
        }
    }

    /// Inserts (or refreshes) `key`, evicting the shard's least recently
    /// used entry if it is full.
    pub fn insert(&self, key: K, value: V) {
        let capacity = self.per_shard_capacity;
        let mut shard = self.shard(&key);
        shard.tick += 1;
        let tick = shard.tick;
        if let Some(entry) = shard.entries.get_mut(&key) {
            entry.value = value;
            entry.last_used = tick;
            return;
        }
        if shard.entries.len() >= capacity {
            // Exact LRU via a full scan: shards are small (capacity /
            // shard count), so this stays cheap and needs no intrusive
            // list. Ticks are unique within a shard, so the oldest tick
            // names exactly one entry.
            if let Some(oldest) = shard.entries.values().map(|e| e.last_used).min() {
                shard.entries.retain(|_, e| e.last_used != oldest);
                shard.evictions += 1;
            }
        }
        shard.entries.insert(
            key,
            Entry {
                value,
                last_used: tick,
            },
        );
    }

    /// Counters summed over every shard.
    pub fn stats(&self) -> CacheStats {
        let mut stats = CacheStats::default();
        for shard in &self.shards {
            let shard = shard.lock().unwrap_or_else(|e| e.into_inner());
            stats.hits += shard.hits;
            stats.misses += shard.misses;
            stats.evictions += shard.evictions;
            stats.entries += shard.entries.len();
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use espresso_json::fnv1a64;

    fn val(s: &str) -> Arc<Vec<u8>> {
        Arc::new(s.as_bytes().to_vec())
    }

    #[test]
    fn eviction_follows_recency_order() {
        // Single shard so the whole capacity is one LRU domain.
        let cache: ShardedLru = ShardedLru::new(3, 1);
        cache.insert(1, val("a"));
        cache.insert(2, val("b"));
        cache.insert(3, val("c"));
        // Touch 1 so 2 becomes the least recently used.
        assert!(cache.get(1).is_some());
        cache.insert(4, val("d"));
        assert!(cache.get(2).is_none(), "2 was LRU and must be evicted");
        assert!(cache.get(1).is_some());
        assert!(cache.get(3).is_some());
        assert!(cache.get(4).is_some());
        // Recency is now 1 < 3 < 4 (1 was touched before 3 and 4), so
        // inserting 5 must evict 1.
        cache.insert(5, val("e"));
        assert!(cache.get(1).is_none(), "1 was LRU after the later touches");
        assert_eq!(cache.stats().evictions, 2);

        // More shards than capacity: the shard count is clamped, so the
        // map still holds only what was asked for.
        let tiny: ShardedLru = ShardedLru::new(2, 4);
        for key in 0..16 {
            tiny.insert(key, val("x"));
        }
        let stats = tiny.stats();
        assert!(
            stats.entries <= 2,
            "capacity 2 held {} entries",
            stats.entries
        );
        assert_eq!(stats.entries as u64 + stats.evictions, 16);
    }

    #[test]
    fn reinserting_refreshes_instead_of_evicting() {
        let cache: ShardedLru = ShardedLru::new(2, 1);
        cache.insert(1, val("a"));
        cache.insert(2, val("b"));
        cache.insert(1, val("a2"));
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(&*cache.get(1).unwrap(), b"a2");
        assert!(cache.get(2).is_some(), "refresh must not evict");
    }

    #[test]
    fn hit_and_miss_accounting() {
        let cache: ShardedLru = ShardedLru::new(8, 2);
        assert!(cache.get(7).is_none());
        cache.insert(7, val("x"));
        assert!(cache.get(7).is_some());
        assert!(cache.get(7).is_some());
        assert!(cache.get(8).is_none());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 2));
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn keys_spread_across_shards() {
        let cache: ShardedLru = ShardedLru::new(1024, 8);
        let mut per_shard = [0usize; 8];
        for i in 0..1000 {
            let key = fnv1a64(format!("request-{i}").as_bytes());
            per_shard[cache.shard_of(&key)] += 1;
        }
        for (i, count) in per_shard.iter().enumerate() {
            assert!(*count > 0, "shard {i} never used");
            assert!(*count < 500, "shard {i} got {count} of 1000 keys");
        }
    }
}

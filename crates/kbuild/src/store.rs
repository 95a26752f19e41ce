//! The sharded store under every host-side cache.
//!
//! [`ConfigCache`](crate::ConfigCache), [`ObjectCache`](crate::ObjectCache)
//! and [`PreprocCache`](crate::PreprocCache) hold immutable,
//! content-addressed entries shared by every worker of a run. They differ
//! in key, value, and what they verify on the way out; the storage is
//! this one type: [`SHARDS`] `RwLock<HashMap>` shards, a first-writer-wins
//! insert, hit/miss counters, per-shard quarantine, and a generation
//! stamp per entry so a long-lived owner can drop what it stopped using.

use jmake_trace::CacheOutcome;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

/// Number of independent lock shards.
pub(crate) const SHARDS: usize = 16;

/// A store key. Each cache picks its shard from key fields that are
/// already strong hashes, so concurrent workers rarely contend.
pub(crate) trait ShardKey: Eq + Hash + Clone {
    /// Bits the shard index is taken from, modulo [`SHARDS`].
    fn shard_bits(&self) -> u64;
}

/// Fraction of lookups served from a cache, in `[0, 1]`.
pub(crate) fn hit_rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// One held value and the last generation that looked it up or
/// inserted it.
#[derive(Debug)]
struct Slot<V> {
    value: V,
    used: AtomicU64,
}

/// A thread-safe map from `K` to `V` in [`SHARDS`] independently locked
/// shards. A quarantined shard is flushed and out of service for the
/// store's lifetime: lookups miss, inserts are dropped, and
/// [`ShardedStore::snapshot`] skips it.
///
/// Every entry records the generation that last used it. Nothing evicts
/// on its own: an owner that wants bounded memory starts a new
/// generation per unit of work with [`ShardedStore::retain_recent`],
/// which drops entries unused for a window of generations.
#[derive(Debug)]
pub(crate) struct ShardedStore<K, V> {
    shards: [RwLock<HashMap<K, Slot<V>>>; SHARDS],
    quarantined: [AtomicBool; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    generation: AtomicU64,
}

impl<K, V> Default for ShardedStore<K, V> {
    fn default() -> Self {
        ShardedStore {
            shards: Default::default(),
            quarantined: Default::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }
}

impl<K: ShardKey, V: Clone> ShardedStore<K, V> {
    fn index(key: &K) -> usize {
        (key.shard_bits() % SHARDS as u64) as usize
    }

    /// Look up `key`, counting a hit or a miss. The [`CacheOutcome`] is
    /// derived from the same lookup that bumps the counters, so per-span
    /// outcomes always sum to exactly [`ShardedStore::hits`] and
    /// [`ShardedStore::misses`]. Under a concurrent miss-then-compute
    /// race both callers count a miss: the counters describe lookups,
    /// not distinct work.
    pub(crate) fn lookup(&self, key: &K) -> (Option<V>, CacheOutcome) {
        self.lookup_valid(key, |_| true)
    }

    /// [`ShardedStore::lookup`] that serves a held entry only when
    /// `valid` accepts it; a rejected entry counts as a miss. `valid`
    /// runs only when the key is held in a shard in service.
    pub(crate) fn lookup_valid(
        &self,
        key: &K,
        valid: impl FnOnce(&V) -> bool,
    ) -> (Option<V>, CacheOutcome) {
        let idx = Self::index(key);
        let found = if self.quarantined[idx].load(Ordering::Acquire) {
            None
        } else {
            self.shards[idx]
                .read()
                .expect("cache shard poisoned")
                .get(key)
                .map(|slot| {
                    slot.used.fetch_max(self.generation(), Ordering::Relaxed);
                    slot.value.clone()
                })
        };
        match found.filter(valid) {
            Some(value) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (Some(value), CacheOutcome::Hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                (None, CacheOutcome::Miss)
            }
        }
    }

    /// Store `value` under `key`. The first writer wins a race; later
    /// values for a held key are dropped, as is anything aimed at a
    /// quarantined shard.
    pub(crate) fn insert(&self, key: K, value: V) {
        let idx = Self::index(&key);
        if self.quarantined[idx].load(Ordering::Acquire) {
            return;
        }
        let used = self.generation();
        self.shards[idx]
            .write()
            .expect("cache shard poisoned")
            .entry(key)
            .or_insert(Slot {
                value,
                used: AtomicU64::new(used),
            })
            .used
            .fetch_max(used, Ordering::Relaxed);
    }

    /// The current generation, stamped on every entry a lookup finds or
    /// an insert offers.
    fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Start a new generation, then drop every entry last used more than
    /// `window` generations ago: with a window of one, exactly the
    /// entries used since the previous call survive. Counters and
    /// quarantine are untouched.
    pub(crate) fn retain_recent(&self, window: u64) {
        let now = self.generation.fetch_add(1, Ordering::Relaxed) + 1;
        let oldest = now.saturating_sub(window);
        for shard in &self.shards {
            shard
                .write()
                .expect("cache shard poisoned")
                .retain(|_, slot| *slot.used.get_mut() >= oldest);
        }
    }

    /// Flush `key`'s shard and take it out of service. Returns true when
    /// this call quarantined it, false when it already was.
    pub(crate) fn quarantine(&self, key: &K) -> bool {
        let idx = Self::index(key);
        let now = !self.quarantined[idx].swap(true, Ordering::AcqRel);
        if now {
            self.shards[idx]
                .write()
                .expect("cache shard poisoned")
                .clear();
        }
        now
    }

    /// Drop every entry; counters and quarantine are kept.
    pub(crate) fn clear(&self) {
        for shard in &self.shards {
            shard.write().expect("cache shard poisoned").clear();
        }
    }

    /// Number of shards quarantined so far.
    pub(crate) fn quarantined_shards(&self) -> u64 {
        self.quarantined
            .iter()
            .filter(|q| q.load(Ordering::Acquire))
            .count() as u64
    }

    /// Number of entries held.
    pub(crate) fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("cache shard poisoned").len())
            .sum()
    }

    /// Every entry held by a shard in service, in unspecified order. The
    /// disk tier persists a cache through this at the end of a run, so a
    /// quarantined shard's entries can never leak back out.
    pub(crate) fn snapshot(&self) -> Vec<(K, V)> {
        let mut out = Vec::new();
        for (shard, quarantined) in self.shards.iter().zip(&self.quarantined) {
            if quarantined.load(Ordering::Acquire) {
                continue;
            }
            let shard = shard.read().expect("cache shard poisoned");
            out.extend(shard.iter().map(|(k, slot)| (k.clone(), slot.value.clone())));
        }
        out
    }

    /// Lookups answered from the store.
    pub(crate) fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing servable.
    pub(crate) fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Keys pick their shard by value, so `k` and `k + SHARDS` share one.
    impl ShardKey for u64 {
        fn shard_bits(&self) -> u64 {
            *self
        }
    }

    #[test]
    fn counted_lookups_and_first_writer_wins() {
        let store = ShardedStore::<u64, u64>::default();
        assert_eq!(store.lookup(&1), (None, CacheOutcome::Miss));
        for key in 0..40 {
            store.insert(key, key * 10);
            store.insert(key, 0);
        }
        assert_eq!(store.lookup(&1), (Some(10), CacheOutcome::Hit));
        assert_eq!(store.lookup(&40), (None, CacheOutcome::Miss));
        assert_eq!((store.hits(), store.misses()), (1, 2));
        assert!((hit_rate(store.hits(), store.misses()) - 1.0 / 3.0).abs() < 1e-9);
        assert_eq!(hit_rate(0, 0), 0.0);
        let mut all = store.snapshot();
        all.sort_unstable();
        assert_eq!(all, (0..40).map(|k| (k, k * 10)).collect::<Vec<_>>());
        assert_eq!(store.len(), 40);
        store.clear();
        assert_eq!((store.len(), store.hits()), (0, 1));
    }

    #[test]
    fn rejected_entries_count_as_misses() {
        let store = ShardedStore::<u64, u64>::default();
        store.insert(1, 10);
        let mut seen = None;
        let looked = store.lookup_valid(&1, |v| {
            seen = Some(*v);
            false
        });
        assert_eq!((looked, seen), ((None, CacheOutcome::Miss), Some(10)));
        // An absent key never reaches the check.
        let absent = store.lookup_valid(&2, |_| unreachable!());
        assert_eq!(absent, (None, CacheOutcome::Miss));
        assert_eq!((store.hits(), store.misses(), store.len()), (0, 2, 1));
    }

    #[test]
    fn quarantine_flushes_one_shard_and_keeps_it_out_of_service() {
        let store = ShardedStore::<u64, u64>::default();
        let same_shard = 3 + SHARDS as u64;
        for key in [3, same_shard, 4] {
            store.insert(key, key);
        }
        assert!(store.quarantine(&3));
        assert!(!store.quarantine(&same_shard), "already out of service");
        assert_eq!((store.quarantined_shards(), store.len()), (1, 1));
        assert_eq!(store.lookup(&3), (None, CacheOutcome::Miss));
        assert_eq!(store.lookup(&4), (Some(4), CacheOutcome::Hit));
        // Inserts aimed at the quarantined shard are dropped.
        store.insert(same_shard, 0);
        assert_eq!(store.lookup(&same_shard), (None, CacheOutcome::Miss));
        assert_eq!(store.snapshot(), vec![(4, 4)]);
    }

    #[test]
    fn retention_keeps_the_window_and_nothing_else() {
        let store = ShardedStore::<u64, u64>::default();
        let same_shard = 3 + SHARDS as u64;
        for key in [1, 2, 3, same_shard] {
            store.insert(key, key);
        }
        assert!(store.quarantine(&same_shard)); // takes key 3 with it
        store.lookup(&3);
        let counters = |s: &ShardedStore<u64, u64>| (s.hits(), s.misses(), s.quarantined_shards());
        let before = counters(&store);

        // Generation 1: key 1 is looked up, key 4 inserted, key 2 idle.
        store.retain_recent(2);
        assert_eq!(store.len(), 2, "everything was used inside the window");
        store.lookup(&1);
        store.insert(4, 4);
        store.retain_recent(1);
        let mut held: Vec<u64> = store.snapshot().into_iter().map(|(k, _)| k).collect();
        held.sort_unstable();
        assert_eq!(held, vec![1, 4], "key 2 was unused in the last generation");

        // A re-insert of a held key renews it without replacing the value.
        store.insert(4, 40);
        store.retain_recent(1);
        assert_eq!(store.snapshot(), vec![(4, 4)]);
        store.retain_recent(1);
        assert_eq!(store.len(), 0);

        // Only the lookups above moved the counters; quarantine held.
        assert_eq!(counters(&store), (before.0 + 1, before.1, before.2));
        store.insert(same_shard, 0);
        assert_eq!(store.len(), 0, "the quarantined shard stays out of service");
    }
}

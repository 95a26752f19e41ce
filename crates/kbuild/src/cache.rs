//! Cross-patch, content-addressed configuration cache.
//!
//! The paper's evaluation recreates every configuration per patch (§V.A:
//! each worker starts from a clean clone), which dominates wall-clock
//! time. Consecutive patches overwhelmingly share identical Kconfig and
//! defconfig sources, so the solved [`BuildConfig`] is identical too.
//! [`ConfigCache`] lets every [`BuildEngine`](crate::BuildEngine) in a
//! run share solved configurations — keyed by a fingerprint of the
//! tree's Kconfig/defconfig content, the architecture, and the
//! configuration kind — in the sharded store every host-side cache
//! shares.
//!
//! Sharing is a **host-side** optimization only: on a cache hit the
//! engine still charges the virtual clock the full configuration-creation
//! cost, so the paper's Figure 4a CDF (and every per-patch virtual time)
//! is bit-identical with or without the cache. Only real wall-clock
//! drops.

use crate::build::{BuildConfig, ConfigKey};
use crate::hash::Fnv;
use crate::store::{hit_rate, ShardKey, ShardedStore};
use crate::tree::SourceTree;
use jmake_trace::CacheOutcome;
use std::sync::Arc;

/// Key of one cached configuration: (tree fingerprint, `(arch, kind)`
/// identity, custom-content fingerprint — zero for non-custom kinds).
type Key = (u64, ConfigKey, u64);

impl ShardKey for Key {
    fn shard_bits(&self) -> u64 {
        // The fingerprint is already a strong 64-bit hash; fold in the
        // kind key's length so AllYes/AllMod on one tree can land apart.
        self.0 ^ self.1.kind_key().len() as u64
    }
}

/// Aggregate cache counters, cheap to copy into driver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to solve the configuration.
    pub misses: u64,
    /// Distinct configurations currently held.
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        hit_rate(self.hits, self.misses)
    }
}

/// A thread-safe, content-addressed store of solved [`BuildConfig`]s,
/// shared across the build engines of an evaluation run.
#[derive(Debug, Default)]
pub struct ConfigCache {
    store: ShardedStore<Key, Arc<BuildConfig>>,
}

impl ConfigCache {
    /// An empty cache.
    pub fn new() -> Self {
        ConfigCache::default()
    }

    /// Look up a solved configuration, counting a hit or a miss; the
    /// [`CacheOutcome`] comes from the same lookup, so per-span outcomes
    /// always sum to exactly [`CacheStats`]'s hits and misses.
    pub fn lookup(
        &self,
        fingerprint: u64,
        key: &ConfigKey,
        content_fp: u64,
    ) -> (Option<Arc<BuildConfig>>, CacheOutcome) {
        self.store.lookup(&(fingerprint, key.clone(), content_fp))
    }

    /// Store a solved configuration. The first writer wins a race; later
    /// identical solutions are dropped.
    pub fn insert(
        &self,
        fingerprint: u64,
        key: &ConfigKey,
        content_fp: u64,
        cfg: Arc<BuildConfig>,
    ) {
        self.store
            .insert((fingerprint, key.clone(), content_fp), cfg);
    }

    /// Every entry currently held — `((tree fingerprint, key, content
    /// fingerprint), configuration)` — in unspecified order. The disk
    /// tier uses this to persist the cache at the end of a run.
    pub fn snapshot(&self) -> Vec<((u64, ConfigKey, u64), Arc<BuildConfig>)> {
        self.store.snapshot()
    }

    /// Start a new generation and drop the entries no lookup or insert
    /// used in the last `window` generations (a long-lived owner calls
    /// this once per unit of work). Counters are unchanged.
    pub fn retain_recent(&self, window: u64) {
        self.store.retain_recent(window);
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.store.hits(),
            misses: self.store.misses(),
            entries: self.store.len() as u64,
        }
    }

    /// Content fingerprint of everything configuration solving reads
    /// from a tree: every path whose file name mentions `Kconfig`
    /// (the top-level and per-arch files plus everything `source`
    /// directives chase, which kernel convention names `Kconfig*`), and
    /// every prepared configuration under `arch/*/configs/`.
    ///
    /// Digests each file's path and cached [`Blob::hash`](crate::Blob::hash)
    /// rather than its bytes, so a tree whose blobs come from the version
    /// store (hashed once when stored) is fingerprinted without reading
    /// any file content.
    ///
    /// Two trees with equal fingerprints solve to identical
    /// configurations for every `(arch, kind)`, so solved configs are
    /// safely shared across patches that do not touch those files.
    pub fn fingerprint_tree(tree: &SourceTree) -> u64 {
        let mut h = Fnv::new();
        for (p, blob) in tree.iter_blobs() {
            let name = p.rsplit('/').next().unwrap_or_default();
            if name.contains("Kconfig") || (p.starts_with("arch/") && p.contains("/configs/")) {
                let hash = blob.hash();
                h.write(p.as_bytes());
                h.write(&[0]);
                h.write(&hash.hi().to_le_bytes());
                h.write(&hash.lo().to_le_bytes());
            }
        }
        h.finish()
    }

    /// Fingerprint arbitrary bytes (used to widen custom-config keys).
    pub fn fingerprint_bytes(bytes: &[u8]) -> u64 {
        let mut h = Fnv::new();
        h.write(bytes);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{BuildEngine, ConfigKind};

    fn tiny_tree() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert("Kconfig", "config NET\n\tbool \"net\"\n");
        t.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        t.insert("Makefile", "obj-y += kernel/\n");
        t.insert("kernel/Makefile", "obj-y += core.o\n");
        t.insert("kernel/core.c", "int core;\n");
        t
    }

    #[test]
    fn fingerprint_tracks_kconfig_and_defconfig_content_only() {
        let base = tiny_tree();
        let fp = ConfigCache::fingerprint_tree(&base);

        // Touching a .c file leaves the fingerprint alone…
        let mut c_change = base.clone();
        c_change.insert("kernel/core.c", "int core_v2;\n");
        assert_eq!(fp, ConfigCache::fingerprint_tree(&c_change));

        // …while touching Kconfig or a defconfig changes it.
        let mut k_change = base.clone();
        k_change.insert("Kconfig", "config NET\n\tbool \"network\"\n");
        assert_ne!(fp, ConfigCache::fingerprint_tree(&k_change));

        let mut d_change = base;
        d_change.insert("arch/x86_64/configs/tiny_defconfig", "CONFIG_NET=y\n");
        assert_ne!(fp, ConfigCache::fingerprint_tree(&d_change));
    }

    #[test]
    fn shared_engines_hit_the_cache_but_charge_the_clock() {
        let cache = Arc::new(ConfigCache::new());

        let mut first = BuildEngine::with_shared_cache(tiny_tree(), Arc::clone(&cache));
        first.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().hits, 0);

        let mut second = BuildEngine::with_shared_cache(tiny_tree(), Arc::clone(&cache));
        second.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        assert_eq!(cache.stats().hits, 1);

        // Virtual-clock charge is identical whether solved or shared:
        // the simulated run still pays full configuration creation.
        assert_eq!(
            first.clock.samples.config, second.clock.samples.config,
            "cache hits must charge the same virtual config cost"
        );
    }

    #[test]
    fn different_trees_do_not_share() {
        let cache = Arc::new(ConfigCache::new());
        let mut a = BuildEngine::with_shared_cache(tiny_tree(), Arc::clone(&cache));
        a.make_config("x86_64", &ConfigKind::AllYes).unwrap();

        let mut changed = tiny_tree();
        changed.insert("Kconfig", "config NET\n\tbool \"net\"\n\nconfig EXTRA\n\tbool \"x\"\n");
        let mut b = BuildEngine::with_shared_cache(changed, Arc::clone(&cache));
        let cfg = b.make_config("x86_64", &ConfigKind::AllYes).unwrap();
        assert_eq!(cache.stats().hits, 0);
        assert_eq!(cache.stats().entries, 2);
        // Solved against its own tree: NET, EXTRA, and X86_64 are all in
        // the model, where the first tree declares only two symbols.
        assert!(cfg.model.len() >= 3);
    }
}

//! Cross-patch, content-addressed object cache for `make file.i` /
//! `make file.o`.
//!
//! Preprocessing and compilation dominate an evaluation run's host cost,
//! and across a v4.3→v4.4-style sweep the vast majority of
//! (file content, include chain, configuration, arch) combinations are
//! bit-identical between neighbouring commits. [`ObjectCache`] memoizes
//! the outcome of one preprocess/compile *including failures* — negative
//! caching is where most mutation-probe wins are, because the same
//! arch-specific file fails preprocessing the same way on every patch
//! that does not touch it.
//!
//! Soundness comes entirely from the key ([`ObjectKey`]): the blob hash
//! of the file's own content (the same [`ContentHash`] identity
//! `jmake_vcs::BlobId` uses), a fingerprint of the transitive include
//! closure ([`include_fingerprint`] — resolved exactly like the engine's
//! resolver, conditional branches over-approximated), the configuration's
//! macro environment, the `MODULE` define, the architecture, and the
//! build kind. A mutated file changes its blob hash; a touched header
//! changes the include fingerprint; a different configuration changes the
//! environment fingerprint — each forces a miss. Files whose include
//! closure contains a *computed* `#include` (macro-valued target, which
//! the preprocessor supports but a lexical scan cannot see through) are
//! simply never cached.
//!
//! Like [`ConfigCache`](crate::ConfigCache), this is a **host-side**
//! optimization only: on a hit the engine still charges the virtual clock
//! the full preprocess/compile cost, so every report, Fig. 4b/4c sample,
//! and per-stage virtual-µs total is bit-identical with the cache on or
//! off. Only real wall-clock drops.

use crate::build::{BuildError, IFile};
use crate::hash::{ContentHash, Fnv};
use crate::tree::{IncludeScan, SourceTree};
use jmake_faults::{FaultKind, FaultSite, Faults};
use jmake_trace::CacheOutcome;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of independent lock shards, mirroring `ConfigCache`.
const SHARDS: usize = 16;

/// Which build operation an entry memoizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObjKind {
    /// `make file.i` — preprocess only.
    I,
    /// `make file.o` — preprocess plus front-end validation.
    O,
}

/// Identity of one memoized build operation. Everything the operation's
/// outcome can depend on is pinned here; see the module docs for the
/// soundness argument.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ObjectKey {
    /// Blob hash of the file's own content.
    pub blob: ContentHash,
    /// The file's path — quoted-include resolution anchors on its
    /// directory, so equal content at different paths is not the same
    /// translation unit.
    pub path: Arc<str>,
    /// Fingerprint of the transitive include closure
    /// ([`include_fingerprint`]).
    pub include_fp: u64,
    /// Fingerprint of the configuration's macro environment.
    pub env_fp: u64,
    /// Whether Kbuild defines `MODULE` for this object.
    pub module: bool,
    /// Architecture (drives the `arch/<a>/include` search path).
    pub arch: &'static str,
    /// Preprocess or full compile.
    pub kind: ObjKind,
}

/// One memoized outcome. `text_len` is stored even for failures: the
/// virtual clock charges by preprocessed-output size whether or not the
/// preprocessor reported errors, and a hit must charge exactly what the
/// miss did.
#[derive(Debug)]
pub enum CachedObj {
    /// A `make file.i` outcome: the full `.i` payload on success (JMake
    /// scans its text for mutation tokens), the first diagnostic on
    /// failure.
    I {
        /// Length of the preprocessed text (the `.i` charge driver).
        text_len: u64,
        /// The per-file result `make_i` produced.
        result: Result<IFile, String>,
    },
    /// A `make file.o` outcome past the live makefile/gating checks:
    /// success, `PreprocessFailed`, or `FrontEndRejected`.
    O {
        /// Length of the preprocessed text (the `.o` charge driver).
        text_len: u64,
        /// The result `make_o` produced.
        result: Result<(), BuildError>,
    },
}

impl CachedObj {
    /// True when this entry memoizes a failure (a *negative* entry).
    pub fn is_negative(&self) -> bool {
        match self {
            CachedObj::I { result, .. } => result.is_err(),
            CachedObj::O { result, .. } => result.is_err(),
        }
    }
}

/// Aggregate object-cache counters, cheap to copy into driver statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObjectCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to preprocess/compile.
    pub misses: u64,
    /// The subset of hits that returned a memoized *failure*.
    pub negative_hits: u64,
    /// Distinct outcomes currently held.
    pub entries: u64,
    /// Entries whose integrity digest failed verification on lookup
    /// (only ever non-zero under injected cache corruption).
    pub corruptions_detected: u64,
    /// Shards flushed and taken out of service after serving corruption.
    pub quarantined_shards: u64,
}

impl ObjectCacheStats {
    /// Fraction of lookups served from the cache, in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One stored outcome plus the integrity digest computed at insert time.
/// [`ObjectCache::lookup_verified`] recomputes the digest of the served
/// entry and compares; a mismatch (only possible under injected
/// corruption — entries are immutable in memory) quarantines the shard.
#[derive(Debug)]
struct StoredObj {
    digest: u64,
    obj: Arc<CachedObj>,
}

/// What a verified lookup observed; see [`ObjectCache::lookup_verified`].
#[derive(Debug)]
pub struct VerifiedLookup {
    /// The entry, when present and verified.
    pub entry: Option<Arc<CachedObj>>,
    /// Hit/miss as counted — a corrupted entry counts as a miss, because
    /// the caller must recompute.
    pub outcome: CacheOutcome,
    /// The entry's shard was flushed and quarantined by *this* lookup.
    pub quarantined_now: bool,
}

/// A thread-safe, content-addressed store of preprocess/compile outcomes,
/// shared across the build engines of an evaluation run.
#[derive(Debug, Default)]
pub struct ObjectCache {
    shards: [RwLock<HashMap<ObjectKey, StoredObj>>; SHARDS],
    quarantined: [AtomicBool; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
    negative_hits: AtomicU64,
    corruptions: AtomicU64,
    quarantines: AtomicU64,
}

impl ObjectCache {
    /// An empty cache.
    pub fn new() -> Self {
        ObjectCache::default()
    }

    fn shard_index(&self, key: &ObjectKey) -> usize {
        // The blob hash is already strong; fold in the environment and
        // include fingerprints so one hot file spreads across shards per
        // configuration.
        (key.blob.hi() ^ key.env_fp ^ key.include_fp) as usize % SHARDS
    }

    /// Look up a memoized outcome; counts a hit or a miss (and a negative
    /// hit when the entry memoizes a failure). The [`CacheOutcome`] is
    /// derived from the same lookup that bumps the counters.
    pub fn lookup(&self, key: &ObjectKey) -> (Option<Arc<CachedObj>>, CacheOutcome) {
        let v = self.lookup_verified(key, &Faults::disabled());
        (v.entry, v.outcome)
    }

    /// [`ObjectCache::lookup`] with integrity verification and fault
    /// injection. The stored digest of the served entry is recomputed and
    /// compared; under an injected [`FaultKind::Corrupt`] the served
    /// digest is perturbed, the mismatch is detected, and the entry's
    /// whole shard is flushed and **quarantined**: subsequent lookups
    /// miss, inserts are dropped. The caller then recomputes live —
    /// and because a hit charges the virtual clock exactly what a miss
    /// does, recovery is charge-identical and reports stay bit-identical
    /// even under corrupt-only fault profiles.
    pub fn lookup_verified(&self, key: &ObjectKey, faults: &Faults) -> VerifiedLookup {
        let idx = self.shard_index(key);
        if self.quarantined[idx].load(Ordering::Acquire) {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return VerifiedLookup {
                entry: None,
                outcome: CacheOutcome::Miss,
                quarantined_now: false,
            };
        }
        let found = self.shards[idx]
            .read()
            .expect("object cache shard poisoned")
            .get(key)
            .map(|stored| (stored.digest, Arc::clone(&stored.obj)));
        let Some((stored_digest, obj)) = found else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return VerifiedLookup {
                entry: None,
                outcome: CacheOutcome::Miss,
                quarantined_now: false,
            };
        };
        // Simulated wire corruption: the fault layer flips the digest the
        // shard "serves"; verification against the recomputed digest of
        // the payload catches it, exactly as a real content-hash check
        // over corrupted bytes would.
        let mut served_digest = stored_digest;
        if faults.is_enabled() {
            let identity = format!("{}:{:016x}", key.path, key.blob.hi());
            if faults.decide(FaultSite::CacheLookup, &identity, 0) == Some(FaultKind::Corrupt) {
                served_digest ^= 0xdead_beef_dead_beef;
            }
        }
        if served_digest != entry_digest(&obj) {
            self.corruptions.fetch_add(1, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            let quarantined_now = !self.quarantined[idx].swap(true, Ordering::AcqRel);
            if quarantined_now {
                self.quarantines.fetch_add(1, Ordering::Relaxed);
                self.shards[idx]
                    .write()
                    .expect("object cache shard poisoned")
                    .clear();
            }
            if let Some(stats) = faults.stats() {
                stats.corruptions_detected.fetch_add(1, Ordering::Relaxed);
                if quarantined_now {
                    stats.quarantined_shards.fetch_add(1, Ordering::Relaxed);
                }
            }
            return VerifiedLookup {
                entry: None,
                outcome: CacheOutcome::Miss,
                quarantined_now,
            };
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        if obj.is_negative() {
            self.negative_hits.fetch_add(1, Ordering::Relaxed);
        }
        VerifiedLookup {
            entry: Some(obj),
            outcome: CacheOutcome::Hit,
            quarantined_now: false,
        }
    }

    /// Store an outcome. The first writer wins a race; later identical
    /// outcomes are dropped, as is anything aimed at a quarantined shard.
    pub fn insert(&self, key: ObjectKey, entry: Arc<CachedObj>) {
        let idx = self.shard_index(&key);
        if self.quarantined[idx].load(Ordering::Acquire) {
            return;
        }
        let digest = entry_digest(&entry);
        self.shards[idx]
            .write()
            .expect("object cache shard poisoned")
            .entry(key)
            .or_insert(StoredObj { digest, obj: entry });
    }

    /// Number of distinct outcomes held.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("object cache shard poisoned").len())
            .sum()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every entry currently held, in unspecified order. Quarantined
    /// shards contribute nothing (they were flushed when quarantined and
    /// must not leak back out through persistence). The disk tier uses
    /// this to persist the cache at the end of a run.
    pub fn snapshot(&self) -> Vec<(ObjectKey, Arc<CachedObj>)> {
        let mut out = Vec::new();
        for (idx, shard) in self.shards.iter().enumerate() {
            if self.quarantined[idx].load(Ordering::Acquire) {
                continue;
            }
            let shard = shard.read().expect("object cache shard poisoned");
            out.extend(
                shard
                    .iter()
                    .map(|(k, stored)| (k.clone(), Arc::clone(&stored.obj))),
            );
        }
        out
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ObjectCacheStats {
        ObjectCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            negative_hits: self.negative_hits.load(Ordering::Relaxed),
            entries: self.len() as u64,
            corruptions_detected: self.corruptions.load(Ordering::Relaxed),
            quarantined_shards: self.quarantines.load(Ordering::Relaxed),
        }
    }
}

/// Integrity digest of one cache entry, computed at insert time and
/// re-verified on every [`ObjectCache::lookup_verified`]. Covers the
/// charge driver (`text_len`), the outcome polarity, and the payload the
/// caller will actually consume.
fn entry_digest(entry: &CachedObj) -> u64 {
    let mut h = Fnv::new();
    match entry {
        CachedObj::I { text_len, result } => {
            h.write(b"I");
            h.write(&text_len.to_le_bytes());
            match result {
                Ok(ifile) => {
                    h.write(b"ok");
                    h.write(ifile.path.as_bytes());
                    h.write(&[0x00]);
                    h.write(ifile.text.as_bytes());
                }
                Err(e) => {
                    h.write(b"err");
                    h.write(e.as_bytes());
                }
            }
        }
        CachedObj::O { text_len, result } => {
            h.write(b"O");
            h.write(&text_len.to_le_bytes());
            match result {
                Ok(()) => h.write(b"ok"),
                Err(e) => {
                    h.write(b"err");
                    h.write(e.to_string().as_bytes());
                }
            }
        }
    }
    h.finish()
}

/// Fingerprint everything preprocessing `file` can read *besides* the
/// file's own content: the transitive closure of its literal `#include`
/// targets, resolved exactly like the engine's resolver (the including
/// file's directory for quoted includes, then `include/`,
/// `arch/<arch>/include/`, then the raw path — no normalization).
///
/// Conditional compilation is over-approximated: both branches' includes
/// are walked, so the closure is a superset of what any configuration
/// actually reads — equal fingerprints therefore imply equal resolution
/// outcomes for every include the preprocessor *could* take, which is
/// sound over-invalidation. Unresolvable targets are folded in too (a
/// later tree that *does* provide the header must miss).
///
/// Returns `None` when any reachable include target is not a literal
/// `"…"`/`<…>` (a computed include, `#include CONFIG_HDR`, which the
/// preprocessor expands but this lexical scan cannot) — such files are
/// not cacheable.
pub fn include_fingerprint(tree: &SourceTree, arch: &str, file: &str) -> Option<u64> {
    let search_paths = ["include".to_string(), format!("arch/{arch}/include")];
    let mut h = Fnv::new();
    let mut visited = std::collections::BTreeSet::new();
    let mut queue = VecDeque::new();
    visited.insert(file.to_string());
    queue.push_back(file.to_string());
    while let Some(path) = queue.pop_front() {
        h.write(path.as_bytes());
        h.write(&[0x00]);
        let Some(blob) = tree.get_blob(&path) else {
            // Only the root file can be absent; queued paths resolved.
            h.write(&[0xff]);
            continue;
        };
        // Both the content hash and the lexical include scan are computed
        // once per distinct blob process-wide and shared by every tree
        // holding it — the walk touches no file content after the first
        // visit of a given blob anywhere in the run.
        let hash = blob.hash();
        h.write(&hash.hi().to_le_bytes());
        h.write(&hash.lo().to_le_bytes());
        h.write(&[0xff]);
        let scan = blob.include_scan_with(scan_includes);
        if scan.uncacheable {
            return None;
        }
        for (target, quoted) in &scan.targets {
            match resolve_like_engine(tree, &search_paths, &path, target, *quoted) {
                Some(resolved) => {
                    if visited.insert(resolved.clone()) {
                        queue.push_back(resolved);
                    }
                }
                None => {
                    // Unresolved: pin the failure so a tree that adds the
                    // header invalidates.
                    h.write(&[0x01, u8::from(*quoted)]);
                    h.write(target.as_bytes());
                    h.write(&[0xff]);
                }
            }
        }
    }
    Some(h.finish())
}

/// Pre-parse one blob's `#include` lines for the fingerprint walk. The
/// result is cached on the blob ([`crate::tree::Blob::include_scan_with`]).
fn scan_includes(content: &str) -> IncludeScan {
    let mut scan = IncludeScan::default();
    for line in content.lines() {
        match parse_include_target(line) {
            Some(None) => {}
            Some(Some((target, quoted))) => scan.targets.push((target.into(), quoted)),
            None => {
                scan.uncacheable = true;
                return scan;
            }
        }
    }
    scan
}

/// Classify one source line: `Some(Some((target, quoted)))` for a literal
/// include, `Some(None)` for anything that is not an include, and `None`
/// for an include this scan cannot pin down (computed or malformed) —
/// which makes the whole file uncacheable.
#[allow(clippy::type_complexity)]
fn parse_include_target(line: &str) -> Option<Option<(&str, bool)>> {
    let t = line.trim_start();
    let Some(after_hash) = t.strip_prefix('#') else {
        return Some(None);
    };
    let Some(rest) = after_hash.trim_start().strip_prefix("include") else {
        return Some(None);
    };
    // `#include_next` and friends are distinct directives, not includes
    // this resolver understands — refuse to cache rather than guess.
    if rest
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
    {
        return None;
    }
    let rest = rest.trim_start();
    if let Some(body) = rest.strip_prefix('"') {
        return match body.split_once('"') {
            Some((target, _)) => Some(Some((target, true))),
            None => None,
        };
    }
    if let Some(body) = rest.strip_prefix('<') {
        return match body.split_once('>') {
            Some((target, _)) => Some(Some((target, false))),
            None => None,
        };
    }
    // A macro-valued target — the preprocessor supports it, we cannot.
    None
}

/// Candidate order of the engine's `TreeResolver`, verbatim.
fn resolve_like_engine(
    tree: &SourceTree,
    search_paths: &[String],
    including_file: &str,
    target: &str,
    quoted: bool,
) -> Option<String> {
    if quoted {
        let dir = crate::tree::dir_of(including_file);
        let candidate = if dir.is_empty() {
            target.to_string()
        } else {
            format!("{dir}/{target}")
        };
        if tree.contains(&candidate) {
            return Some(candidate);
        }
    }
    for sp in search_paths {
        let candidate = format!("{sp}/{target}");
        if tree.contains(&candidate) {
            return Some(candidate);
        }
    }
    tree.contains(target).then(|| target.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_with(files: &[(&str, &str)]) -> SourceTree {
        let mut t = SourceTree::new();
        for (p, c) in files {
            t.insert(*p, *c);
        }
        t
    }

    fn key(blob: &str, include_fp: u64) -> ObjectKey {
        ObjectKey {
            blob: ContentHash::of(blob),
            path: Arc::from("drivers/a.c"),
            include_fp,
            env_fp: 7,
            module: false,
            arch: "x86_64",
            kind: ObjKind::I,
        }
    }

    #[test]
    fn lookup_insert_and_counters_including_negative_hits() {
        let cache = ObjectCache::new();
        let k = key("int x;\n", 1);
        assert!(matches!(cache.lookup(&k), (None, CacheOutcome::Miss)));
        cache.insert(
            k.clone(),
            Arc::new(CachedObj::I {
                text_len: 7,
                result: Err("missing header".to_string()),
            }),
        );
        assert_eq!(cache.len(), 1);
        let (found, outcome) = cache.lookup(&k);
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(found.unwrap().is_negative());
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses, stats.negative_hits, stats.entries),
            (1, 1, 1, 1)
        );
        assert!((stats.hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn corrupt_lookup_flushes_and_quarantines_the_shard() {
        use jmake_faults::FaultSpec;
        let cache = ObjectCache::new();
        let k = key("int x;\n", 1);
        let entry = || {
            Arc::new(CachedObj::O {
                text_len: 3,
                result: Ok(()),
            })
        };
        cache.insert(k.clone(), entry());
        let faults = Faults::new(FaultSpec::default().with_rate(FaultKind::Corrupt, 1.0), 3);
        let v = cache.lookup_verified(&k, &faults);
        assert!(v.entry.is_none());
        assert_eq!(v.outcome, CacheOutcome::Miss);
        assert!(v.quarantined_now);
        // The shard is out of service: lookups miss without consulting the
        // fault plan again, and inserts are dropped.
        assert!(matches!(cache.lookup(&k), (None, CacheOutcome::Miss)));
        cache.insert(k.clone(), entry());
        assert!(matches!(cache.lookup(&k), (None, CacheOutcome::Miss)));
        assert!(!cache.lookup_verified(&k, &faults).quarantined_now);
        let stats = cache.stats();
        assert_eq!(stats.corruptions_detected, 1);
        assert_eq!(stats.quarantined_shards, 1);
        assert_eq!(stats.hits, 0);
        // The shared fault counters mirror the detection.
        let snap = faults.stats_snapshot();
        assert_eq!(snap.corruptions_detected, 1);
        assert_eq!(snap.quarantined_shards, 1);
        assert_eq!(snap.injected_corrupt, 1);
    }

    #[test]
    fn verified_lookup_without_faults_matches_plain_lookup() {
        let cache = ObjectCache::new();
        let k = key("int y;\n", 2);
        cache.insert(
            k.clone(),
            Arc::new(CachedObj::I {
                text_len: 7,
                result: Err("missing header".to_string()),
            }),
        );
        let v = cache.lookup_verified(&k, &Faults::disabled());
        assert_eq!(v.outcome, CacheOutcome::Hit);
        assert!(v.entry.unwrap().is_negative());
        assert!(!v.quarantined_now);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.negative_hits), (1, 1));
        assert_eq!(stats.corruptions_detected, 0);
    }

    #[test]
    fn include_fingerprint_tracks_transitive_headers() {
        let base = tree_with(&[
            ("drivers/a.c", "#include <linux/k.h>\nint a;\n"),
            ("include/linux/k.h", "#include \"inner.h\"\n#define K 1\n"),
            ("include/linux/inner.h", "#define INNER 2\n"),
        ]);
        let fp = include_fingerprint(&base, "x86_64", "drivers/a.c").unwrap();

        // Touching a transitively-included header changes the fingerprint…
        let mut deep = base.clone();
        deep.insert("include/linux/inner.h", "#define INNER 3\n");
        assert_ne!(
            fp,
            include_fingerprint(&deep, "x86_64", "drivers/a.c").unwrap()
        );

        // …while touching an unrelated file does not.
        let mut unrelated = base;
        unrelated.insert("drivers/b.c", "int b;\n");
        assert_eq!(
            fp,
            include_fingerprint(&unrelated, "x86_64", "drivers/a.c").unwrap()
        );
    }

    #[test]
    fn adding_a_previously_missing_header_changes_the_fingerprint() {
        let base = tree_with(&[("drivers/a.c", "#include <linux/ghost.h>\nint a;\n")]);
        let fp = include_fingerprint(&base, "x86_64", "drivers/a.c").unwrap();
        let mut provided = base;
        provided.insert("include/linux/ghost.h", "#define GHOST 1\n");
        assert_ne!(
            fp,
            include_fingerprint(&provided, "x86_64", "drivers/a.c").unwrap()
        );
    }

    #[test]
    fn quoted_include_resolves_via_including_dir_and_arch_search_path_matters() {
        let t = tree_with(&[
            ("drivers/a.c", "#include \"local.h\"\n"),
            ("drivers/local.h", "#define L 1\n"),
            ("arch/arm/include/asm/only.h", "#define O 1\n"),
            ("drivers/b.c", "#include <asm/only.h>\n"),
        ]);
        // Quoted resolution anchors on the including directory.
        assert!(include_fingerprint(&t, "x86_64", "drivers/a.c").is_some());
        // The same file fingerprints differently per arch when the arch
        // search path changes what resolves.
        let on_arm = include_fingerprint(&t, "arm", "drivers/b.c").unwrap();
        let on_x86 = include_fingerprint(&t, "x86_64", "drivers/b.c").unwrap();
        assert_ne!(on_arm, on_x86);
    }

    #[test]
    fn computed_and_malformed_includes_are_uncacheable() {
        let computed = tree_with(&[("a.c", "#define H <x.h>\n#include H\n")]);
        assert!(include_fingerprint(&computed, "x86_64", "a.c").is_none());
        let via_header = tree_with(&[
            ("a.c", "#include <b.h>\n"),
            ("include/b.h", "#include MACRO_TARGET\n"),
        ]);
        // Transitive computed includes poison the root file too.
        assert!(include_fingerprint(&via_header, "x86_64", "a.c").is_none());
        let malformed = tree_with(&[("a.c", "#include \"unterminated\n")]);
        assert!(include_fingerprint(&malformed, "x86_64", "a.c").is_none());
        let include_next = tree_with(&[("a.c", "#include_next <x.h>\n")]);
        assert!(include_fingerprint(&include_next, "x86_64", "a.c").is_none());
    }

    #[test]
    fn include_cycles_terminate() {
        let t = tree_with(&[
            ("include/a.h", "#include <b.h>\n"),
            ("include/b.h", "#include <a.h>\n"),
            ("a.c", "#include <a.h>\n"),
        ]);
        assert!(include_fingerprint(&t, "x86_64", "a.c").is_some());
    }
}

//! The in-memory source tree.

use crate::hash::ContentHash;
use crate::makefile::Makefile;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Monotone counter behind [`SourceTree::epoch`]. Epochs are globally
/// unique across all trees in the process: two trees share an epoch only
/// when one is an unmutated clone of the other, so an epoch value is a
/// sound memoization key for any pure function of tree content.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn next_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, Ordering::Relaxed)
}

/// The `#include` directives of one file, pre-parsed for the
/// include-closure fingerprint walk (`objcache::include_fingerprint`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IncludeScan {
    /// `(target, quoted)` per literal `#include "t"` / `#include <t>`
    /// line, in order.
    pub targets: Vec<(Box<str>, bool)>,
    /// The file contains a computed include, a malformed target, or
    /// `#include_next` — its closure cannot be fingerprinted lexically.
    pub uncacheable: bool,
}

/// One file's content plus lazily-computed derived state.
///
/// Blobs always live behind `Arc` and are shared: between the version
/// store and every checkout, between a tree and its clones, and between a
/// patch's base and mutated trees. The derived state (content hash,
/// parsed makefile, include scan) is therefore computed once per distinct
/// content per process, no matter how many trees or patches touch it.
pub struct Blob {
    text: Arc<str>,
    hash: OnceLock<ContentHash>,
    makefile: OnceLock<Arc<Makefile>>,
    includes: OnceLock<IncludeScan>,
}

impl Blob {
    /// A blob over `text`; derived state is computed on demand.
    pub fn new(text: impl Into<Arc<str>>) -> Arc<Blob> {
        Arc::new(Blob {
            text: text.into(),
            hash: OnceLock::new(),
            makefile: OnceLock::new(),
            includes: OnceLock::new(),
        })
    }

    /// A blob whose content hash is already known (the version store
    /// hashes content to address it — no point hashing twice).
    pub fn with_hash(text: impl Into<Arc<str>>, hash: ContentHash) -> Arc<Blob> {
        let blob = Blob::new(text);
        let _ = blob.hash.set(hash);
        blob
    }

    /// The content.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The content as a shareable handle (for include resolution — the
    /// preprocessor holds file contents across calls without copying).
    pub fn shared_text(&self) -> Arc<str> {
        Arc::clone(&self.text)
    }

    /// Content length in bytes.
    pub fn len(&self) -> usize {
        self.text.len()
    }

    /// True when the content is empty.
    pub fn is_empty(&self) -> bool {
        self.text.is_empty()
    }

    /// The content hash, computed once per blob.
    pub fn hash(&self) -> ContentHash {
        *self.hash.get_or_init(|| ContentHash::of(&self.text))
    }

    /// The blob parsed as a Kbuild makefile, once per blob.
    pub fn makefile(&self) -> &Arc<Makefile> {
        self.makefile
            .get_or_init(|| Arc::new(Makefile::parse(&self.text)))
    }

    /// The blob's `#include` scan, computed by `scan` once per blob.
    pub fn include_scan_with(&self, scan: impl FnOnce(&str) -> IncludeScan) -> &IncludeScan {
        self.includes.get_or_init(|| scan(&self.text))
    }
}

impl std::fmt::Debug for Blob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Blob")
            .field("len", &self.text.len())
            .field("hash", &self.hash.get())
            .finish()
    }
}

impl PartialEq for Blob {
    fn eq(&self, other: &Self) -> bool {
        self.text == other.text
    }
}

impl Eq for Blob {}

/// A kernel source tree held entirely in memory, path → content.
///
/// Paths are `/`-separated and relative to the tree root
/// (`drivers/net/e1000.c`). The paper's evaluation kept 25 clones of the
/// kernel tree in a tmpfs for the same reason: eliminate disk access.
///
/// The path map is copy-on-write: a clone shares it behind one `Arc`
/// (O(1), whatever the tree's size), and the first mutation of a shared
/// map copies its entries — pointers to `Arc`'d [`Blob`]s, never file
/// text. A checkout, a patch's base tree and the include memo's pinned
/// tree therefore cost nothing until someone writes to them.
#[derive(Debug, Clone)]
pub struct SourceTree {
    files: Arc<BTreeMap<Arc<str>, Arc<Blob>>>,
    bytes: u64,
    epoch: u64,
}

impl SourceTree {
    /// An empty tree.
    pub fn new() -> Self {
        SourceTree {
            files: Arc::default(),
            bytes: 0,
            epoch: next_epoch(),
        }
    }

    /// A tree over `(path, blob)` pairs. Built in one pass, so the map's
    /// nodes are packed full: a tree that is kept (a commit snapshot)
    /// takes less memory than one grown by inserts.
    pub fn from_blobs(files: impl IntoIterator<Item = (Arc<str>, Arc<Blob>)>) -> Self {
        let files: BTreeMap<Arc<str>, Arc<Blob>> = files.into_iter().collect();
        SourceTree {
            bytes: files.values().map(|b| b.len() as u64).sum(),
            files: Arc::new(files),
            epoch: next_epoch(),
        }
    }

    /// Insert or replace a file.
    pub fn insert(&mut self, path: impl Into<String>, content: impl Into<String>) {
        let content: String = content.into();
        self.insert_blob(Arc::from(path.into()), Blob::new(content));
    }

    /// Insert or replace a file as a pre-built (possibly shared) blob.
    pub fn insert_blob(&mut self, path: Arc<str>, blob: Arc<Blob>) {
        self.bytes += blob.len() as u64;
        if let Some(old) = Arc::make_mut(&mut self.files).insert(path, blob) {
            self.bytes -= old.len() as u64;
        }
        self.epoch = next_epoch();
    }

    /// Remove a file; returns its content if present. Removing an absent
    /// path neither copies a shared map nor changes the epoch.
    pub fn remove(&mut self, path: &str) -> Option<String> {
        if !self.files.contains_key(path) {
            return None;
        }
        let old = Arc::make_mut(&mut self.files).remove(path)?;
        self.bytes -= old.len() as u64;
        self.epoch = next_epoch();
        Some(old.text().to_string())
    }

    /// Content of `path`.
    pub fn get(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(|b| b.text())
    }

    /// The blob of `path`.
    pub fn get_blob(&self, path: &str) -> Option<&Arc<Blob>> {
        self.files.get(path)
    }

    /// True when `path` exists.
    pub fn contains(&self, path: &str) -> bool {
        self.files.contains_key(path)
    }

    /// Iterate over `(path, content)` in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(p, c)| (&**p, c.text()))
    }

    /// Iterate over `(path, blob)` in path order.
    pub fn iter_blobs(&self) -> impl Iterator<Item = (&Arc<str>, &Arc<Blob>)> {
        self.files.iter()
    }

    /// Iterate over paths under `prefix` (a directory path without a
    /// trailing slash, or `""` for the whole tree), in path order.
    pub fn files_under<'a>(&'a self, prefix: &str) -> impl Iterator<Item = &'a str> + 'a {
        self.blobs_under(prefix).map(|(p, _)| &**p)
    }

    /// Iterate over `(path, blob)` under `prefix`, in path order.
    ///
    /// A range lookup: the paths under `d` are exactly those in
    /// `["d/", "d0")`, since `'0'` is the byte after `'/'`. Its cost is the
    /// directory's size plus a logarithmic seek, not the tree's size.
    pub fn blobs_under<'a>(
        &'a self,
        prefix: &str,
    ) -> impl Iterator<Item = (&'a Arc<str>, &'a Arc<Blob>)> + 'a {
        if prefix.is_empty() {
            return self.files.range::<str, _>(..);
        }
        let (lo, hi) = (format!("{prefix}/"), format!("{prefix}0"));
        self.files
            .range::<str, _>((Bound::Included(&*lo), Bound::Excluded(&*hi)))
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the tree has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes of content — the virtual clock's whole-kernel compile
    /// cost scales with this. Maintained incrementally, O(1).
    pub fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Paths of every file, in order.
    pub fn paths(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(|p| &**p)
    }

    /// The tree's content epoch: globally unique per mutation, copied by
    /// `clone`. Equal epochs imply byte-identical content, so pure
    /// functions of tree content may memoize on `(epoch, …)` keys.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl Default for SourceTree {
    fn default() -> Self {
        SourceTree::new()
    }
}

impl PartialEq for SourceTree {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.files, &other.files)
            || self.files.len() == other.files.len()
            && self
                .files
                .iter()
                .zip(other.files.iter())
                .all(|((pa, ba), (pb, bb))| pa == pb && (Arc::ptr_eq(ba, bb) || ba == bb))
    }
}

impl Eq for SourceTree {}

impl FromIterator<(String, String)> for SourceTree {
    fn from_iter<T: IntoIterator<Item = (String, String)>>(iter: T) -> Self {
        let mut tree = SourceTree::new();
        tree.extend(iter);
        tree
    }
}

impl Extend<(String, String)> for SourceTree {
    fn extend<T: IntoIterator<Item = (String, String)>>(&mut self, iter: T) {
        for (p, c) in iter {
            self.insert(p, c);
        }
    }
}

/// The directory part of a path (`""` for top-level files).
pub fn dir_of(path: &str) -> &str {
    path.rsplit_once('/').map(|(d, _)| d).unwrap_or("")
}

/// The file-name part of a path.
pub fn file_name(path: &str) -> &str {
    path.rsplit_once('/').map(|(_, f)| f).unwrap_or(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert("Makefile", "obj-y += drivers/\n");
        t.insert("drivers/net/a.c", "int a;\n");
        t.insert("drivers/net/ab.c", "int ab;\n");
        t.insert("drivers/nvme/b.c", "int b;\n");
        t
    }

    #[test]
    fn insert_get_remove() {
        let mut t = sample();
        assert_eq!(t.get("drivers/net/a.c"), Some("int a;\n"));
        assert!(t.contains("Makefile"));
        assert_eq!(t.remove("Makefile"), Some("obj-y += drivers/\n".into()));
        assert!(!t.contains("Makefile"));
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn files_under_respects_boundaries() {
        let t = sample();
        let under: Vec<&str> = t.files_under("drivers/net").collect();
        assert_eq!(under, vec!["drivers/net/a.c", "drivers/net/ab.c"]);
        // "drivers/n" is not a directory prefix of drivers/net.
        assert_eq!(t.files_under("drivers/n").count(), 0);
        assert_eq!(t.files_under("").count(), 4);
    }

    #[test]
    fn total_bytes_sums_content() {
        let t = sample();
        assert_eq!(
            t.total_bytes(),
            t.iter().map(|(_, c)| c.len() as u64).sum::<u64>()
        );
        let mut t = t;
        t.insert("drivers/net/a.c", "int aa;\n"); // replace: 7 -> 8 bytes
        assert_eq!(
            t.total_bytes(),
            t.iter().map(|(_, c)| c.len() as u64).sum::<u64>()
        );
        t.remove("drivers/nvme/b.c");
        assert_eq!(
            t.total_bytes(),
            t.iter().map(|(_, c)| c.len() as u64).sum::<u64>()
        );
    }

    #[test]
    fn path_helpers() {
        assert_eq!(dir_of("a/b/c.c"), "a/b");
        assert_eq!(dir_of("top.c"), "");
        assert_eq!(file_name("a/b/c.c"), "c.c");
        assert_eq!(file_name("top.c"), "top.c");
    }

    #[test]
    fn clone_shares_blobs_and_epoch() {
        let t = sample();
        let u = t.clone();
        assert_eq!(t.epoch(), u.epoch());
        assert_eq!(t, u);
        let (_, a) = t.iter_blobs().next().unwrap();
        let (_, b) = u.iter_blobs().next().unwrap();
        assert!(Arc::ptr_eq(a, b));
    }

    #[test]
    fn mutation_changes_epoch() {
        let t = sample();
        let mut u = t.clone();
        u.insert("drivers/net/a.c", "int mutated;\n");
        assert_ne!(t.epoch(), u.epoch());
        assert_ne!(t, u);
        // The untouched files are still shared.
        assert!(Arc::ptr_eq(
            t.get_blob("Makefile").unwrap(),
            u.get_blob("Makefile").unwrap()
        ));
    }

    #[test]
    fn clone_shares_the_map() {
        let t = sample();
        let u = t.clone();
        assert!(Arc::ptr_eq(&t.files, &u.files));
    }

    #[test]
    fn mutating_a_clone_leaves_the_original_alone() {
        let t = sample();
        let snapshot = |t: &SourceTree| -> Vec<(String, String)> {
            t.iter().map(|(p, c)| (p.to_string(), c.to_string())).collect()
        };
        let (epoch, before) = (t.epoch(), snapshot(&t));
        let mut u = t.clone();
        u.insert("drivers/net/a.c", "int changed;\n");
        u.remove("Makefile");
        assert!(!Arc::ptr_eq(&t.files, &u.files));
        assert_eq!(t.epoch(), epoch);
        assert_eq!(snapshot(&t), before);
        assert_eq!(u.get("drivers/net/a.c"), Some("int changed;\n"));
    }

    #[test]
    fn removing_an_absent_path_neither_copies_nor_bumps_the_epoch() {
        let t = sample();
        let mut u = t.clone();
        assert_eq!(u.remove("drivers/net/missing.c"), None);
        assert!(Arc::ptr_eq(&t.files, &u.files));
        assert_eq!(u.epoch(), t.epoch());
    }

    #[test]
    fn files_under_is_exact_around_the_separator() {
        let mut t = SourceTree::new();
        // '-' and '.' sort before '/', '0' right after it.
        for p in [
            "drivers/net-x/a.c",
            "drivers/net.c",
            "drivers/net0/b.c",
            "drivers/net/a.c",
            "drivers/net/sub/c.c",
        ] {
            t.insert(p, "x\n");
        }
        let under: Vec<&str> = t.files_under("drivers/net").collect();
        assert_eq!(under, vec!["drivers/net/a.c", "drivers/net/sub/c.c"]);
        assert_eq!(t.files_under("drivers").count(), 5);
        assert_eq!(t.files_under("drivers/net0").collect::<Vec<_>>(), vec!["drivers/net0/b.c"]);
    }

    #[test]
    fn blob_hash_is_content_hash() {
        let t = sample();
        let blob = t.get_blob("drivers/net/a.c").unwrap();
        assert_eq!(blob.hash(), ContentHash::of("int a;\n"));
        // with_hash trusts the caller.
        let b = Blob::with_hash("xyz", ContentHash::of("xyz"));
        assert_eq!(b.hash(), ContentHash::of("xyz"));
    }

    #[test]
    fn blob_makefile_parses_once() {
        let t = sample();
        let blob = t.get_blob("Makefile").unwrap();
        let a = Arc::as_ptr(blob.makefile());
        let b = Arc::as_ptr(blob.makefile());
        assert_eq!(a, b);
        assert_eq!(blob.makefile().objs.len(), 1);
    }
}

//! Content-addressed blob storage.

use jmake_kbuild::{Blob, ContentHash};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Identity of a stored blob: a 128-bit [`ContentHash`] (two FNV-1a
/// passes with independent offsets — not cryptographic, but
/// collision-free for any workload this repository can produce). The
/// same identity keys `jmake-kbuild`'s object cache, so a blob id and an
/// object-cache key agree on what "same content" means.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlobId(ContentHash);

impl fmt::Display for BlobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl BlobId {
    /// Hash `content`.
    pub fn of(content: &str) -> BlobId {
        BlobId(ContentHash::of(content))
    }

    /// The underlying content hash (shared with the build-side caches).
    pub fn content_hash(self) -> ContentHash {
        self.0
    }
}

/// Deduplicating blob store.
///
/// Blobs are held behind `Arc` and shared into every checkout, so one
/// commit sequence materializes each distinct content exactly once —
/// checkouts copy pointers, and per-blob derived state (content hash,
/// parsed makefile, include scan) accumulates on the stored blob for all
/// trees that reference it.
#[derive(Debug, Clone, Default)]
pub struct BlobStore {
    blobs: HashMap<BlobId, Arc<Blob>>,
}

impl BlobStore {
    /// An empty store.
    pub fn new() -> Self {
        BlobStore::default()
    }

    /// Store `content`, returning its id (idempotent).
    pub fn put(&mut self, content: &str) -> BlobId {
        let id = BlobId::of(content);
        self.blobs
            .entry(id)
            .or_insert_with(|| Blob::with_hash(content, id.content_hash()));
        id
    }

    /// Store an existing (possibly shared) blob and return the store's
    /// canonical handle for its content: the first blob stored with that
    /// content, so every snapshot holding it shares one blob and its
    /// derived state.
    pub fn put_blob(&mut self, blob: &Arc<Blob>) -> Arc<Blob> {
        let canonical = self
            .blobs
            .entry(BlobId(blob.hash()))
            .or_insert_with(|| Arc::clone(blob));
        Arc::clone(canonical)
    }

    /// Retrieve a blob's content.
    pub fn get(&self, id: BlobId) -> Option<&str> {
        self.blobs.get(&id).map(|b| b.text())
    }

    /// Retrieve a blob as a shareable handle.
    pub fn get_blob(&self, id: BlobId) -> Option<&Arc<Blob>> {
        self.blobs.get(&id)
    }

    /// Number of distinct blobs.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_is_idempotent_and_content_addressed() {
        let mut s = BlobStore::new();
        let a = s.put("int x;\n");
        let b = s.put("int x;\n");
        let c = s.put("int y;\n");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some("int x;\n"));
        assert_eq!(s.get(c), Some("int y;\n"));
    }

    #[test]
    fn display_is_hex() {
        let id = BlobId::of("x");
        let text = id.to_string();
        assert_eq!(text.len(), 32);
        assert!(text.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn distinct_contents_distinct_ids() {
        // A small avalanche check on near-identical inputs.
        let ids: std::collections::BTreeSet<BlobId> = (0..1000)
            .map(|i| BlobId::of(&format!("line {i}\n")))
            .collect();
        assert_eq!(ids.len(), 1000);
    }
}

//! Commits, tags, log, show, checkout.

use crate::object::BlobStore;
use jmake_diff::{diff_to_patch, ChangeKind, DiffOptions, FilePatch, Patch};
use jmake_kbuild::{Blob, SourceTree};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::sync::Arc;

/// Identity of a commit (index into the repository's commit sequence,
/// displayed as a short hex id like git abbreviates hashes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CommitId(pub(crate) u32);

impl CommitId {
    /// An id from a raw history index, without checking that any
    /// repository contains it. Resolving a fabricated id beyond a
    /// repository's history yields [`RepoError::NoSuchCommit`] — which is
    /// exactly what evaluation-driver tests need to exercise their
    /// checkout-failure paths.
    pub fn from_raw(index: u32) -> Self {
        CommitId(index)
    }
}

impl fmt::Display for CommitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{:07x}", self.0)
    }
}

/// One commit: a snapshot plus metadata.
#[derive(Debug, Clone)]
pub struct Commit {
    /// This commit's id.
    pub id: CommitId,
    /// Parent commits; more than one makes this a merge.
    pub parents: Vec<CommitId>,
    /// Author name (the janitor analysis keys on this).
    pub author: String,
    /// Commit message subject.
    pub message: String,
    /// Snapshot over the store's canonical blobs. A checkout clones it,
    /// which shares the copy-on-write path map.
    snapshot: SourceTree,
    /// What the commit changes against its first parent, in path order;
    /// computed once at commit time. `None` when the first parent did not
    /// resolve then (a fabricated id): queries of the commit's changes
    /// fail with [`RepoError::NoSuchCommit`].
    changes: Option<Vec<Change>>,
}

impl Commit {
    /// True for merge commits (≥2 parents).
    pub fn is_merge(&self) -> bool {
        self.parents.len() >= 2
    }
}

/// One file a commit changes against its first parent: `old` is `None`
/// for a created file, `new` is `None` for a deleted one. Files whose
/// content hash is equal on both sides are not changes.
#[derive(Debug, Clone)]
struct Change {
    path: Arc<str>,
    old: Option<Arc<Blob>>,
    new: Option<Arc<Blob>>,
}

impl Change {
    /// The change as `git show` prints it under `opts`: `None` for a
    /// modification that `opts` (e.g. `-w`) reduces to nothing.
    fn file_patch(&self, opts: &DiffOptions) -> Option<FilePatch> {
        let path = &*self.path;
        let hunks = |old: &str, new: &str| {
            let patch = diff_to_patch(path, old, new, opts);
            patch.files.into_iter().flat_map(|f| f.hunks).collect()
        };
        match (&self.old, &self.new) {
            (None, Some(new)) => Some(FilePatch {
                old_path: path.to_string(),
                new_path: path.to_string(),
                kind: ChangeKind::Create,
                hunks: hunks("", new.text()),
            }),
            (Some(old), Some(new)) => diff_to_patch(path, old.text(), new.text(), opts)
                .files
                .into_iter()
                .next(),
            (Some(old), None) => Some(FilePatch {
                old_path: path.to_string(),
                new_path: "/dev/null".to_string(),
                kind: ChangeKind::Delete,
                hunks: hunks(old.text(), ""),
            }),
            (None, None) => None,
        }
    }

    /// True when this modifies an existing file by a non-empty diff
    /// under `opts` (`--diff-filter=M`).
    fn modifies(&self, opts: &DiffOptions) -> bool {
        match (&self.old, &self.new) {
            (Some(old), Some(new)) => !diff_to_patch(&self.path, old.text(), new.text(), opts)
                .files
                .is_empty(),
            _ => false,
        }
    }
}

/// Walk two trees' path maps in step (both are path-ordered), calling
/// `visit(path, old, new)` for every path present in either, with `None`
/// on the side that lacks it.
fn merge_walk<'a>(
    old: &'a SourceTree,
    new: &'a SourceTree,
    mut visit: impl FnMut(&'a Arc<str>, Option<&'a Arc<Blob>>, Option<&'a Arc<Blob>>),
) {
    let mut a = old.iter_blobs().peekable();
    let mut b = new.iter_blobs().peekable();
    loop {
        let order = match (a.peek(), b.peek()) {
            (None, None) => return,
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (Some((pa, _)), Some((pb, _))) => pa.cmp(pb),
        };
        match order {
            Ordering::Less => {
                let (path, blob) = a.next().expect("peeked");
                visit(path, Some(blob), None);
            }
            Ordering::Greater => {
                let (path, blob) = b.next().expect("peeked");
                visit(path, None, Some(blob));
            }
            Ordering::Equal => {
                let (path, old_blob) = a.next().expect("peeked");
                let (_, new_blob) = b.next().expect("peeked");
                visit(path, Some(old_blob), Some(new_blob));
            }
        }
    }
}

/// True when two blobs hold the same content (pointer first, then hash).
fn same_content(a: &Arc<Blob>, b: &Arc<Blob>) -> bool {
    Arc::ptr_eq(a, b) || a.hash() == b.hash()
}

/// Errors from repository queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepoError {
    /// The commit id does not exist.
    NoSuchCommit(String),
    /// The tag name does not exist.
    NoSuchTag(String),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::NoSuchCommit(id) => write!(f, "no such commit: {id}"),
            RepoError::NoSuchTag(t) => write!(f, "no such tag: {t}"),
        }
    }
}

impl Error for RepoError {}

/// Options for [`Repo::log`], mirroring the paper's
/// `git log -w --diff-filter=M --no-merges v4.3..v4.4` (§V.A).
#[derive(Debug, Clone, Default)]
pub struct LogOptions {
    /// Skip merge commits (`--no-merges`).
    pub no_merges: bool,
    /// Only commits that modify at least one existing file
    /// (`--diff-filter=M`).
    pub diff_filter_modify: bool,
    /// Ignore whitespace when deciding whether a file changed (`-w`).
    pub ignore_whitespace: bool,
    /// Tag range `from..to` (exclusive, inclusive), like git revision
    /// ranges over linear history.
    pub tag_range: Option<(String, String)>,
}

impl LogOptions {
    /// The paper's exact selection: `-w --diff-filter=M --no-merges`.
    pub fn paper_defaults() -> Self {
        LogOptions {
            no_merges: true,
            diff_filter_modify: true,
            ignore_whitespace: true,
            tag_range: None,
        }
    }

    /// Restrict to commits after tag `from` up to and including tag `to`.
    pub fn range(mut self, from: &str, to: &str) -> Self {
        self.tag_range = Some((from.to_string(), to.to_string()));
        self
    }
}

/// The repository.
#[derive(Debug, Clone, Default)]
pub struct Repo {
    blobs: BlobStore,
    commits: Vec<Commit>,
    tags: BTreeMap<String, CommitId>,
}

impl Repo {
    /// An empty repository.
    pub fn new() -> Self {
        Repo::default()
    }

    /// Record a commit of `tree` with the given parents.
    ///
    /// One merge walk against the first parent's snapshot finds the
    /// commit's changes and stores each new content in the blob store.
    /// The snapshot holds the store's canonical blob for every path, so
    /// all snapshots share one blob per content.
    pub fn commit(
        &mut self,
        parents: &[CommitId],
        author: &str,
        message: &str,
        tree: &SourceTree,
    ) -> CommitId {
        let id = CommitId(self.commits.len() as u32);
        let parent = match parents.first() {
            None => Some(SourceTree::new()),
            Some(p) => self.commits.get(p.0 as usize).map(|c| c.snapshot.clone()),
        };
        let resolved = parent.is_some();
        let parent = parent.unwrap_or_default();
        let mut changes = Vec::new();
        let mut files = Vec::with_capacity(tree.len());
        let blobs = &mut self.blobs;
        merge_walk(&parent, tree, |path, old, new| {
            let new = match (old, new) {
                (Some(old), Some(new)) if same_content(old, new) => {
                    files.push((Arc::clone(path), Arc::clone(old)));
                    return;
                }
                (_, Some(new)) => {
                    let stored = blobs.put_blob(new);
                    files.push((Arc::clone(path), Arc::clone(&stored)));
                    Some(stored)
                }
                (_, None) => None,
            };
            changes.push(Change {
                path: Arc::clone(path),
                old: old.cloned(),
                new,
            });
        });
        self.commits.push(Commit {
            id,
            parents: parents.to_vec(),
            author: author.to_string(),
            message: message.to_string(),
            snapshot: SourceTree::from_blobs(files),
            changes: resolved.then_some(changes),
        });
        id
    }

    /// Tag a commit.
    pub fn tag(&mut self, name: &str, id: CommitId) {
        self.tags.insert(name.to_string(), id);
    }

    /// Resolve a tag.
    pub fn resolve_tag(&self, name: &str) -> Result<CommitId, RepoError> {
        self.tags
            .get(name)
            .copied()
            .ok_or_else(|| RepoError::NoSuchTag(name.to_string()))
    }

    /// Fetch commit metadata.
    pub fn get(&self, id: CommitId) -> Result<&Commit, RepoError> {
        self.commits
            .get(id.0 as usize)
            .ok_or_else(|| RepoError::NoSuchCommit(id.to_string()))
    }

    /// Number of commits.
    pub fn len(&self) -> usize {
        self.commits.len()
    }

    /// The id of the `index`-th commit in history order.
    pub fn nth(&self, index: usize) -> Option<CommitId> {
        self.commits.get(index).map(|c| c.id)
    }

    /// The most recent commit id.
    pub fn head(&self) -> Option<CommitId> {
        self.commits.last().map(|c| c.id)
    }

    /// True when no commits exist.
    pub fn is_empty(&self) -> bool {
        self.commits.is_empty()
    }

    /// `git clean -dfx && git reset --hard <id>`: materialize the pristine
    /// snapshot of a commit. O(1): the tree shares the commit's map.
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchCommit`].
    pub fn checkout(&self, id: CommitId) -> Result<SourceTree, RepoError> {
        Ok(self.get(id)?.snapshot.clone())
    }

    /// The commit's changes against its first parent.
    fn changes<'a>(&self, commit: &'a Commit) -> Result<&'a [Change], RepoError> {
        // `None` only when the first parent did not resolve at commit
        // time (a root always resolves), so `parents` is non-empty.
        commit
            .changes
            .as_deref()
            .ok_or_else(|| RepoError::NoSuchCommit(commit.parents[0].to_string()))
    }

    /// `git show <id>`: the patch this commit applies relative to its
    /// first parent (empty patch for a parentless root).
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchCommit`].
    pub fn show(&self, id: CommitId) -> Result<Patch, RepoError> {
        self.show_with(id, &DiffOptions::default())
    }

    /// [`Repo::show`] with explicit diff options (`-w` etc.). Reads only
    /// the commit's changes, never the rest of the tree.
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchCommit`].
    pub fn show_with(&self, id: CommitId, opts: &DiffOptions) -> Result<Patch, RepoError> {
        let changes = self.changes(self.get(id)?)?;
        let files = changes.iter().filter_map(|c| c.file_patch(opts)).collect();
        Ok(Patch { files })
    }

    /// `git log` with the given options; returns matching commit ids in
    /// history order (oldest first).
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchTag`] for an unknown range endpoint.
    pub fn log(&self, opts: &LogOptions) -> Result<Vec<CommitId>, RepoError> {
        let (lo, hi) = match &opts.tag_range {
            Some((from, to)) => (self.resolve_tag(from)?.0 + 1, self.resolve_tag(to)?.0),
            None => (0, self.commits.len().saturating_sub(1) as u32),
        };
        let diff_opts = DiffOptions {
            ignore_whitespace: opts.ignore_whitespace,
            ..DiffOptions::default()
        };
        let mut out = Vec::new();
        for commit in &self.commits {
            if commit.id.0 < lo || commit.id.0 > hi {
                continue;
            }
            if opts.no_merges && commit.is_merge() {
                continue;
            }
            if opts.diff_filter_modify
                && !self.changes(commit)?.iter().any(|c| c.modifies(&diff_opts))
            {
                continue;
            }
            out.push(commit.id);
        }
        Ok(out)
    }

    /// All commits in history order (for the janitor activity analysis,
    /// which looks at every contribution).
    pub fn all_commits(&self) -> impl Iterator<Item = &Commit> {
        self.commits.iter()
    }

    /// Paths touched by a commit relative to its first parent, decided by
    /// content identity alone — much cheaper than [`Repo::show`] when only
    /// the file list matters (the janitor activity analysis runs this over
    /// years of history).
    ///
    /// # Errors
    ///
    /// [`RepoError::NoSuchCommit`].
    pub fn changed_paths(&self, id: CommitId) -> Result<Vec<String>, RepoError> {
        let changes = self.changes(self.get(id)?)?;
        Ok(changes.iter().map(|c| c.path.to_string()).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(pairs: &[(&str, &str)]) -> SourceTree {
        let mut t = SourceTree::new();
        for (p, c) in pairs {
            t.insert(*p, *c);
        }
        t
    }

    fn sample_repo() -> (Repo, CommitId, CommitId, CommitId, CommitId, CommitId) {
        let mut repo = Repo::new();
        let base = repo.commit(
            &[],
            "torvalds",
            "initial",
            &tree(&[("a.c", "int a;\n"), ("b.h", "#define B 1\n")]),
        );
        repo.tag("v4.3", base);
        // Modify a.c.
        let m1 = repo.commit(
            &[base],
            "alice",
            "a: set value",
            &tree(&[("a.c", "int a = 5;\n"), ("b.h", "#define B 1\n")]),
        );
        // Add-only commit.
        let add = repo.commit(
            &[m1],
            "bob",
            "add c.c",
            &tree(&[
                ("a.c", "int a = 5;\n"),
                ("b.h", "#define B 1\n"),
                ("c.c", "int c;\n"),
            ]),
        );
        // Merge commit that also modifies.
        let merge = repo.commit(
            &[add, m1],
            "torvalds",
            "Merge branch",
            &tree(&[
                ("a.c", "int a = 6;\n"),
                ("b.h", "#define B 1\n"),
                ("c.c", "int c;\n"),
            ]),
        );
        // Whitespace-only change.
        let ws = repo.commit(
            &[merge],
            "carol",
            "reindent",
            &tree(&[
                ("a.c", "int  a  =  6;\n"),
                ("b.h", "#define B 1\n"),
                ("c.c", "int c;\n"),
            ]),
        );
        repo.tag("v4.4", ws);
        (repo, base, m1, add, merge, ws)
    }

    #[test]
    fn commit_checkout_round_trips() {
        let (repo, base, m1, ..) = sample_repo();
        let t0 = repo.checkout(base).unwrap();
        assert_eq!(t0.get("a.c"), Some("int a;\n"));
        let t1 = repo.checkout(m1).unwrap();
        assert_eq!(t1.get("a.c"), Some("int a = 5;\n"));
        assert_eq!(t1.len(), 2);
    }

    #[test]
    fn show_produces_modify_patch() {
        let (repo, _, m1, ..) = sample_repo();
        let patch = repo.show(m1).unwrap();
        assert_eq!(patch.files.len(), 1);
        let fp = &patch.files[0];
        assert_eq!(fp.path(), "a.c");
        assert_eq!(fp.kind, ChangeKind::Modify);
        assert_eq!(fp.added_count(), 1);
        assert_eq!(fp.removed_count(), 1);
    }

    #[test]
    fn show_detects_creation() {
        let (repo, _, _, add, ..) = sample_repo();
        let patch = repo.show(add).unwrap();
        assert_eq!(patch.files.len(), 1);
        assert_eq!(patch.files[0].kind, ChangeKind::Create);
        assert_eq!(patch.files[0].path(), "c.c");
    }

    #[test]
    fn show_detects_deletion() {
        let mut repo = Repo::new();
        let a = repo.commit(&[], "x", "add", &tree(&[("gone.c", "int g;\n")]));
        let b = repo.commit(&[a], "x", "remove", &tree(&[]));
        let patch = repo.show(b).unwrap();
        assert_eq!(patch.files[0].kind, ChangeKind::Delete);
        assert_eq!(patch.files[0].path(), "gone.c");
    }

    #[test]
    fn root_commit_shows_all_creations() {
        let (repo, base, ..) = sample_repo();
        let patch = repo.show(base).unwrap();
        assert_eq!(patch.files.len(), 2);
        assert!(patch.files.iter().all(|f| f.kind == ChangeKind::Create));
    }

    #[test]
    fn paper_log_selection() {
        let (repo, _, m1, _add, _merge, _ws) = sample_repo();
        let ids = repo
            .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
            .unwrap();
        // m1 modifies a file: included. add only creates: filtered.
        // merge: --no-merges. ws: -w makes it empty: filtered.
        assert_eq!(ids, vec![m1]);
    }

    #[test]
    fn log_without_filters_includes_everything_in_range() {
        let (repo, _, m1, add, merge, ws) = sample_repo();
        let ids = repo
            .log(&LogOptions::default().range("v4.3", "v4.4"))
            .unwrap();
        assert_eq!(ids, vec![m1, add, merge, ws]);
    }

    #[test]
    fn merge_detection() {
        let (repo, _, _, _, merge, _) = sample_repo();
        assert!(repo.get(merge).unwrap().is_merge());
    }

    #[test]
    fn unknown_tag_and_commit_error() {
        let (repo, ..) = sample_repo();
        assert!(matches!(
            repo.log(&LogOptions::default().range("v9.9", "v4.4")),
            Err(RepoError::NoSuchTag(_))
        ));
        assert!(matches!(
            repo.get(CommitId(999)),
            Err(RepoError::NoSuchCommit(_))
        ));
    }

    #[test]
    fn blobs_are_deduplicated_across_commits() {
        let (repo, ..) = sample_repo();
        // b.h is identical in all five commits: one blob.
        // Total distinct contents: b.h, four a.c versions… (ws version
        // differs), c.c. At most 7 blobs for 5 commits × ~3 files.
        assert!(repo.blobs.len() <= 7, "{}", repo.blobs.len());
    }

    #[test]
    fn whitespace_sensitive_show_still_sees_reindent() {
        let (repo, _, _, _, _, ws) = sample_repo();
        let strict = repo.show(ws).unwrap();
        assert_eq!(strict.files.len(), 1);
        let loose = repo
            .show_with(
                ws,
                &DiffOptions {
                    ignore_whitespace: true,
                    ..DiffOptions::default()
                },
            )
            .unwrap();
        assert!(loose.files.is_empty());
    }
}

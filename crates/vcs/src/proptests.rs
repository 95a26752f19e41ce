//! Property tests for the repository.

use crate::repo::{CommitId, LogOptions, Repo, RepoError};
use jmake_diff::{apply, diff_to_patch, ChangeKind, DiffOptions, FilePatch, Patch};
use jmake_kbuild::SourceTree;
use proptest::prelude::*;

/// Strategy: a sequence of small trees (each a map of ≤4 files).
fn tree_sequence() -> impl Strategy<Value = Vec<SourceTree>> {
    let file = prop_oneof![Just("a.c"), Just("b.c"), Just("c.h"), Just("d/e.c")];
    let content = prop::collection::vec("[a-z ]{0,12}", 0..6).prop_map(|lines| {
        if lines.is_empty() {
            String::new()
        } else {
            lines.join("\n") + "\n"
        }
    });
    let tree = prop::collection::btree_map(file, content, 0..4).prop_map(|m| {
        m.into_iter()
            .filter(|(_, c)| !c.is_empty())
            .map(|(p, c)| (p.to_string(), c))
            .collect::<SourceTree>()
    });
    prop::collection::vec(tree, 1..8)
}

proptest! {
    /// checkout(commit(tree)) == tree, for every commit in a chain.
    #[test]
    fn checkout_round_trips(trees in tree_sequence()) {
        let mut repo = Repo::new();
        let mut prev = Vec::new();
        let mut ids = Vec::new();
        for t in &trees {
            let id = repo.commit(&prev, "dev", "msg", t);
            prev = vec![id];
            ids.push(id);
        }
        for (id, t) in ids.iter().zip(&trees) {
            prop_assert_eq!(&repo.checkout(*id).unwrap(), t);
        }
    }

    /// Applying show(c) to the parent snapshot reproduces c's snapshot.
    #[test]
    fn show_patch_transforms_parent_into_child(trees in tree_sequence()) {
        let mut repo = Repo::new();
        let mut prev: Vec<crate::repo::CommitId> = Vec::new();
        for t in &trees {
            let id = repo.commit(&prev, "dev", "msg", t);
            let patch = repo.show(id).unwrap();
            let parent_tree = match prev.first() {
                Some(p) => repo.checkout(*p).unwrap(),
                None => SourceTree::new(),
            };
            let mut rebuilt = parent_tree.clone();
            for fp in &patch.files {
                match fp.kind {
                    jmake_diff::ChangeKind::Delete => {
                        rebuilt.remove(fp.path());
                    }
                    _ => {
                        let old = parent_tree.get(fp.path()).unwrap_or("");
                        let new = apply(old, fp).unwrap();
                        rebuilt.insert(fp.path(), new);
                    }
                }
            }
            prop_assert_eq!(&rebuilt, t, "patch:\n{}", patch.render());
            prev = vec![id];
        }
    }

    /// log without filters lists exactly the non-root commits in order.
    #[test]
    fn log_covers_history(trees in tree_sequence()) {
        let mut repo = Repo::new();
        let mut prev = Vec::new();
        let mut ids = Vec::new();
        for t in &trees {
            let id = repo.commit(&prev, "dev", "msg", t);
            prev = vec![id];
            ids.push(id);
        }
        let logged = repo.log(&LogOptions::default()).unwrap();
        prop_assert_eq!(logged, ids);
    }

    /// diff-filter=M never returns a commit whose patch has no modified file.
    #[test]
    fn diff_filter_is_sound(trees in tree_sequence()) {
        let mut repo = Repo::new();
        let mut prev = Vec::new();
        for t in &trees {
            let id = repo.commit(&prev, "dev", "msg", t);
            prev = vec![id];
        }
        let opts = LogOptions { diff_filter_modify: true, ..LogOptions::default() };
        for id in repo.log(&opts).unwrap() {
            let patch = repo.show(id).unwrap();
            prop_assert!(patch.files.iter().any(|f| f.kind == jmake_diff::ChangeKind::Modify));
        }
    }
}

/// The full-tree diff `Repo::show_with` computed before commits stored
/// their changes: walk both snapshots, diff every path whose content
/// hash differs, then sort by path. Kept as the reference the
/// change-list queries must reproduce.
fn reference_diff(old: &SourceTree, new: &SourceTree, opts: &DiffOptions) -> Patch {
    let id = |t: &SourceTree, p: &str| t.get_blob(p).map(|b| b.hash());
    let mut files: Vec<FilePatch> = Vec::new();
    for (path, text) in new.iter() {
        match old.get(path) {
            None => {
                let patch = diff_to_patch(path, "", text, opts);
                let hunks = patch.files.into_iter().flat_map(|f| f.hunks).collect();
                files.push(FilePatch {
                    old_path: path.to_string(),
                    new_path: path.to_string(),
                    kind: ChangeKind::Create,
                    hunks,
                });
            }
            Some(old_text) if id(old, path) != id(new, path) => {
                let patch = diff_to_patch(path, old_text, text, opts);
                if let Some(fp) = patch.files.into_iter().next() {
                    files.push(fp);
                }
            }
            Some(_) => {}
        }
    }
    for (path, text) in old.iter() {
        if !new.contains(path) {
            let patch = diff_to_patch(path, text, "", opts);
            let hunks = patch.files.into_iter().flat_map(|f| f.hunks).collect();
            files.push(FilePatch {
                old_path: path.to_string(),
                new_path: "/dev/null".to_string(),
                kind: ChangeKind::Delete,
                hunks,
            });
        }
    }
    files.sort_by(|a, b| a.path().cmp(b.path()));
    Patch { files }
}

/// `reference_diff` of `id` against its first parent's checkout.
fn reference_show(repo: &Repo, id: CommitId, opts: &DiffOptions) -> Patch {
    let commit = repo.get(id).unwrap();
    let parent = match commit.parents.first() {
        Some(p) => repo.checkout(*p).unwrap(),
        None => SourceTree::new(),
    };
    reference_diff(&parent, &repo.checkout(id).unwrap(), opts)
}

/// `git log` over the reference diff.
fn reference_log(repo: &Repo, opts: &LogOptions) -> Vec<CommitId> {
    let diff_opts = DiffOptions {
        ignore_whitespace: opts.ignore_whitespace,
        ..DiffOptions::default()
    };
    repo.all_commits()
        .filter(|c| !(opts.no_merges && c.is_merge()))
        .filter(|c| {
            !opts.diff_filter_modify
                || reference_show(repo, c.id, &diff_opts)
                    .files
                    .iter()
                    .any(|f| f.kind == ChangeKind::Modify && !f.hunks.is_empty())
        })
        .map(|c| c.id)
        .collect()
}

const PATHS: [&str; 5] = ["a.c", "b.c", "c.h", "d/e.c", "d-x.c"];

/// Strategy: one history step — `(kind, file index, content, pick)`.
fn history() -> impl Strategy<Value = Vec<(u8, usize, String, usize)>> {
    let content = prop::collection::vec("[ab ]{0,6}", 1..4).prop_map(|l| l.join("\n") + "\n");
    prop::collection::vec((0u8..6, 0usize..PATHS.len(), content, 0usize..64), 1..12)
}

/// Replay `steps` into a repository: a fresh root, creates and edits,
/// deletes, whitespace-only edits, and merges (second parent earlier in
/// history, ignored by `show` like git's first-parent diff).
fn build_history(steps: &[(u8, usize, String, usize)]) -> Repo {
    let mut repo = Repo::new();
    let mut tree = SourceTree::new();
    for (kind, file, content, pick) in steps {
        let path = PATHS[*file];
        let mut parents: Vec<CommitId> = repo.head().into_iter().collect();
        match kind {
            0 => {
                tree = SourceTree::new();
                tree.insert(path, content.clone());
                parents.clear();
            }
            1 => tree.insert(path, content.clone()),
            2 => {
                tree.remove(path);
            }
            3 => {
                // Whitespace-only: same lines, each respaced, so `-w`
                // sees no change (a missing file is created instead).
                let text = tree.get(path).unwrap_or("x\n");
                let spaced: String =
                    text.lines().map(|l| format!("{} \n", l.replace(' ', "  "))).collect();
                tree.insert(path, spaced);
            }
            4 => {
                if let Some(other) = repo.nth(pick % repo.len().max(1)) {
                    parents.push(other);
                }
                tree.insert(path, content.clone());
            }
            _ => {} // an empty commit
        }
        repo.commit(&parents, "dev", "msg", &tree);
    }
    repo
}

proptest! {
    /// show, changed_paths and log read the stored change lists, and must
    /// agree with the full-tree reference diff under every option.
    #[test]
    fn change_lists_match_the_full_tree_diff(steps in history()) {
        let repo = build_history(&steps);
        for ws in [false, true] {
            let opts = DiffOptions { ignore_whitespace: ws, ..DiffOptions::default() };
            for commit in repo.all_commits() {
                let expected = reference_show(&repo, commit.id, &opts);
                prop_assert_eq!(repo.show_with(commit.id, &opts).unwrap(), expected);
                if !ws {
                    let paths: Vec<String> = reference_show(&repo, commit.id, &opts)
                        .paths()
                        .map(str::to_string)
                        .collect();
                    prop_assert_eq!(repo.changed_paths(commit.id).unwrap(), paths);
                }
            }
            for filter in [false, true] {
                for no_merges in [false, true] {
                    let log = LogOptions {
                        no_merges,
                        diff_filter_modify: filter,
                        ignore_whitespace: ws,
                        tag_range: None,
                    };
                    prop_assert_eq!(repo.log(&log).unwrap(), reference_log(&repo, &log));
                }
            }
        }
    }
}

#[test]
fn unresolvable_parent_is_an_error_at_query_time_not_at_commit() {
    let mut repo = Repo::new();
    let mut tree = SourceTree::new();
    tree.insert("a.c", "int a;\n");
    repo.commit(&[], "dev", "root", &tree);
    tree.insert("a.c", "int a = 1;\n");
    let orphan = repo.commit(&[CommitId::from_raw(3)], "dev", "orphan", &tree);
    assert!(matches!(repo.show(orphan), Err(RepoError::NoSuchCommit(_))));
    assert!(matches!(repo.changed_paths(orphan), Err(RepoError::NoSuchCommit(_))));
    let filtered = LogOptions {
        diff_filter_modify: true,
        ..LogOptions::default()
    };
    assert!(matches!(repo.log(&filtered), Err(RepoError::NoSuchCommit(_))));
    assert_eq!(repo.checkout(orphan).unwrap(), tree);
}

//! Static-vs-dynamic cross-checking: does the reachability analyzer
//! (`jmake-reach`) agree with what the mutation pipeline actually
//! observed?
//!
//! The two sides answer the same question with independent machinery:
//!
//! - *dynamic*: a changed line is **covered** when its mutation token
//!   surfaced in some configuration's `.i` and the pristine `.o`
//!   compiled ([`crate::check`]);
//! - *static*: a line is [`ReachClass::Dead`] when no configuration can
//!   ever let the compiler see it, and
//!   [`ReachClass::AllyesReachable`] when `allyesconfig` must see it
//!   ([`jmake_reach`]).
//!
//! Agreement is a strong end-to-end property, so disagreement is always
//! a bug somewhere — in the analyzer, the solver, the build engine, or
//! the mutation pipeline. [`cross_check`] replays an [`EvaluationRun`]
//! and reports every disagreement:
//!
//! 1. **dead-but-covered** — the analyzer proved the line unreachable,
//!    yet a mutation on it was certified. The static proof is unsound.
//! 2. **allyes-but-missed** — the analyzer proved `allyesconfig` sees
//!    the line, the file's own gate is enabled under that very config,
//!    the pipeline tried that allyesconfig and hit no operational
//!    errors — yet the token never surfaced. The dynamic side lost a
//!    mutation.
//!
//! Both rules are deliberately one-sided: every fuzzy case (conditional
//! verdicts, files with build errors, headers that are only reached
//! through other translation units, tokens parked on conditional
//! directive lines whose insertion point belongs to a different region)
//! is counted but never flagged. A clean report therefore means "no
//! provable disagreement", which is exactly the property CI can gate
//! on; see `jmake-eval --cross-check`.
//!
//! The report is deterministic: commits are visited in run order, files
//! and tokens in report order, and the JSON rendering contains no
//! wall-clock — byte-identical across worker counts and cache modes.

use crate::driver::EvaluationRun;
use crate::report::{FileReport, FileStatus};
use crate::token::MutationKind;
use jmake_cpp::{analyze, CondKind};
use jmake_kbuild::{BuildEngine, ConfigCache, ConfigKind, ObjGraph, SourceTree};
use jmake_kconfig::Config;
use jmake_reach::{Reach, ReachClass, TreeReach};
use jmake_trace::jsonl::escape;
use jmake_vcs::Repo;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Which way the two sides disagreed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiscrepancyKind {
    /// Statically proved dead, dynamically certified covered.
    DeadButCovered,
    /// Statically allyes-reachable with the gate enabled, allyesconfig
    /// tried cleanly, yet the token never surfaced.
    AllyesButMissed,
}

impl DiscrepancyKind {
    /// Stable report tag.
    pub fn label(self) -> &'static str {
        match self {
            DiscrepancyKind::DeadButCovered => "dead-but-covered",
            DiscrepancyKind::AllyesButMissed => "allyes-but-missed",
        }
    }
}

/// One static/dynamic disagreement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Discrepancy {
    /// Commit whose patch exposed the disagreement.
    pub commit: String,
    /// File the token lives in.
    pub file: String,
    /// 1-based line of the mutation token.
    pub line: u32,
    /// Direction of the disagreement.
    pub kind: DiscrepancyKind,
    /// Architecture whose model/configuration the static side used.
    pub arch: String,
    /// The static verdict (proof tag or class label).
    pub static_detail: String,
    /// The dynamic observation (certifying target or uncovered reason).
    pub dynamic_detail: String,
}

/// The outcome of replaying a run against the static analyzer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossCheckReport {
    /// Commits examined (checked patches only).
    pub patches: usize,
    /// File reports examined.
    pub files: usize,
    /// Mutation tokens examined (covered + uncovered).
    pub tokens: usize,
    /// Uncovered tokens the analyzer also proved dead — the strongest
    /// form of agreement.
    pub dead_agreed: usize,
    /// Tokens certified via an allyesconfig target that the analyzer
    /// also classes allyes-reachable.
    pub allyes_agreed: usize,
    /// Deterministic notes about commits/architectures the cross-check
    /// could not replay (checkout failures, missing cross-compilers).
    /// Skips are reported, never silently dropped.
    pub skipped: Vec<String>,
    /// Every provable disagreement, in run order.
    pub discrepancies: Vec<Discrepancy>,
}

impl CrossCheckReport {
    /// True when static and dynamic sides never provably disagreed.
    pub fn is_clean(&self) -> bool {
        self.discrepancies.is_empty()
    }

    /// Deterministic JSON rendering — no wall-clock, no hashing order;
    /// byte-identical for identical runs regardless of worker count or
    /// cache mode.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"clean\": {},\n  \"patches\": {},\n  \"files\": {},\n  \"tokens\": {},\n  \"dead_agreed\": {},\n  \"allyes_agreed\": {},\n",
            self.is_clean(),
            self.patches,
            self.files,
            self.tokens,
            self.dead_agreed,
            self.allyes_agreed
        ));
        out.push_str("  \"skipped\": [");
        for (i, s) in self.skipped.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{}\"", escape(s)));
        }
        out.push_str("],\n  \"discrepancies\": [");
        for (i, d) in self.discrepancies.iter().enumerate() {
            out.push_str(if i > 0 { ",\n    " } else { "\n    " });
            out.push_str(&format!(
                "{{\"commit\": \"{}\", \"file\": \"{}\", \"line\": {}, \"kind\": \"{}\", \"arch\": \"{}\", \"static\": \"{}\", \"dynamic\": \"{}\"}}",
                escape(&d.commit),
                escape(&d.file),
                d.line,
                escape(d.kind.label()),
                escape(&d.arch),
                escape(&d.static_detail),
                escape(&d.dynamic_detail)
            ));
        }
        if !self.discrepancies.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Replay `run` against the static analyzer and report disagreements.
///
/// Each checked commit's tree is re-checked-out from `repo`; for every
/// architecture the dynamic side used (certifying targets plus any
/// attempted allyesconfig), an `allyes`/`allmod` environment pair is
/// solved — through a shared [`ConfigCache`], so the work is paid once
/// per distinct Kconfig fingerprint, not once per commit — and the
/// patch's files are classified with [`Reach::analyze_files`].
pub fn cross_check(repo: &Repo, run: &EvaluationRun) -> CrossCheckReport {
    let mut out = CrossCheckReport::default();
    let cache = Arc::new(ConfigCache::new());
    for result in &run.results {
        let commit = result.commit.to_string();
        let Some(report) = result.report() else {
            let why = result.outcome.failure().unwrap_or("not checked");
            out.skipped.push(format!("{commit}: {why}"));
            continue;
        };
        out.patches += 1;
        let tree = match repo.checkout(result.commit) {
            Ok(t) => t,
            Err(e) => {
                out.skipped.push(format!("{commit}: re-checkout failed: {e}"));
                continue;
            }
        };
        let arches = arches_used(&report.files);
        let statics = solve_arches(&tree, &arches, &report.files, &cache, &commit, &mut out);
        let graph = ObjGraph::new(&tree);
        for file in &report.files {
            out.files += 1;
            out.tokens += file.covered.len() + file.uncovered.len();
            let shapes = line_shapes(tree.get(&file.path).unwrap_or(""));
            check_file(file, &commit, &statics, &graph, &shapes, &mut out);
        }
    }
    out
}

/// Per-arch static context: the classified files plus the solved
/// allyesconfig (for the Kbuild gate test of rule 2).
struct ArchStatic {
    reach: TreeReach,
    allyes: Config,
}

/// Architectures the dynamic side exercised: every certifying target's
/// arch plus every arch whose allyesconfig was at least attempted.
pub fn arches_used(files: &[FileReport]) -> BTreeSet<String> {
    let mut arches = BTreeSet::new();
    for f in files {
        for (_, desc) in &f.covered {
            if let Some((arch, _)) = desc.split_once('/') {
                arches.insert(arch.to_string());
            }
        }
        for desc in &f.targets_tried {
            if let Some(arch) = desc.strip_suffix("/allyesconfig") {
                arches.insert(arch.to_string());
            }
        }
    }
    arches
}

/// Solve allyes/allmod for each arch and classify the patch's files.
/// Architectures that cannot be solved (missing cross-compiler in a
/// stripped-down registry, say) are recorded in `skipped` and simply
/// absent from the map — rules needing them stay silent.
fn solve_arches(
    tree: &SourceTree,
    arches: &BTreeSet<String>,
    files: &[FileReport],
    cache: &Arc<ConfigCache>,
    commit: &str,
    out: &mut CrossCheckReport,
) -> BTreeMap<String, ArchStatic> {
    let paths: Vec<String> = files.iter().map(|f| f.path.clone()).collect();
    let mut statics = BTreeMap::new();
    for arch in arches {
        let mut engine = BuildEngine::with_shared_cache(tree.clone(), Arc::clone(cache));
        let allyes = match engine.make_config(arch, &ConfigKind::AllYes) {
            Ok(c) => c,
            Err(e) => {
                out.skipped.push(format!("{commit}: {arch}: {e}"));
                continue;
            }
        };
        let allmod = match engine.make_config(arch, &ConfigKind::AllMod) {
            Ok(c) => c,
            Err(e) => {
                out.skipped.push(format!("{commit}: {arch}: {e}"));
                continue;
            }
        };
        let mut reach = Reach::new(tree);
        reach.add_arch(arch, &allyes, Some(&allmod));
        statics.insert(
            arch.clone(),
            ArchStatic {
                reach: reach.analyze_files(&paths),
                allyes: allyes.config.clone(),
            },
        );
    }
    statics
}

/// Apply both rules to one file report.
fn check_file(
    file: &FileReport,
    commit: &str,
    statics: &BTreeMap<String, ArchStatic>,
    graph: &ObjGraph<'_>,
    shapes: &BTreeMap<u32, LineShape>,
    out: &mut CrossCheckReport,
) {
    // Rule 1: a certified token on a statically-dead line.
    for (tok, desc) in &file.covered {
        let Some((arch, _)) = desc.split_once('/') else {
            continue;
        };
        let Some(st) = statics.get(arch) else { continue };
        let Some(class) = token_class(st.reach.files.get(&file.path), shapes, tok.line) else {
            continue;
        };
        match class {
            ReachClass::Dead { proof } => out.discrepancies.push(Discrepancy {
                commit: commit.to_string(),
                file: file.path.clone(),
                line: tok.line,
                kind: DiscrepancyKind::DeadButCovered,
                arch: arch.to_string(),
                static_detail: proof.clone(),
                dynamic_detail: format!("covered via {desc}"),
            }),
            ReachClass::AllyesReachable if desc.ends_with("/allyesconfig") => {
                out.allyes_agreed += 1;
            }
            _ => {}
        }
    }

    // Rule 2: an allyes-reachable token that allyesconfig missed.
    if file.is_header
        || matches!(
            file.status,
            FileStatus::Bootstrap | FileStatus::CommentOnly | FileStatus::NoViableTarget
        )
        || !file.errors.is_empty()
    {
        // Headers are only reached through other translation units and
        // files with operational errors never got a fair dynamic shot —
        // both fuzzy, neither flaggable.
        return;
    }
    for unc in &file.uncovered {
        let tok = &unc.token;
        if tok.kind != MutationKind::Context {
            continue;
        }
        let mut dead_seen = false;
        for desc in &file.targets_tried {
            let Some(arch) = desc.strip_suffix("/allyesconfig") else {
                continue;
            };
            let Some(st) = statics.get(arch) else { continue };
            let Some(class) = token_class(st.reach.files.get(&file.path), shapes, tok.line)
            else {
                continue;
            };
            match class {
                ReachClass::AllyesReachable
                    if graph.gating_value(&file.path, &st.allyes).enabled() =>
                {
                    out.discrepancies.push(Discrepancy {
                        commit: commit.to_string(),
                        file: file.path.clone(),
                        line: tok.line,
                        kind: DiscrepancyKind::AllyesButMissed,
                        arch: arch.to_string(),
                        static_detail: "allyes-reachable".to_string(),
                        dynamic_detail: format!("uncovered: {}", unc.reason),
                    });
                    break;
                }
                ReachClass::Dead { .. } => dead_seen = true,
                _ => {}
            }
        }
        if dead_seen {
            out.dead_agreed += 1;
        }
    }
}

/// What a physical line is, for token-region attribution. Lines absent
/// from the map are plain (token and analyzer agree on the region).
///
/// Public because the remediation pass (`jmake-fix`) attributes tokens
/// to regions with exactly the same rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineShape {
    /// `#if`/`#ifdef`/`#ifndef`/`#elif`/`#else`: the mutation engine
    /// places the token *after* the directive, inside the branch it
    /// opens. `end` is the last physical line of the (possibly spliced)
    /// logical directive; `multi` flags splices.
    Opens { end: u32, multi: bool },
    /// `#endif`: a token keyed here sits in the region the directive
    /// closes, which no pristine line unambiguously carries.
    Closer,
    /// `#if`/`#ifdef`/`#ifndef` specifically — safe as the *neighbor*
    /// of a branch token, because the analyzer attributes an opener to
    /// its enclosing region, which is exactly the branch the token
    /// certifies. (`#elif`/`#else`/`#endif` neighbors are attributed
    /// one region out and are not safe.)
    OpensFresh { end: u32, multi: bool },
}

/// Map physical lines to their [`LineShape`].
pub fn line_shapes(src: &str) -> BTreeMap<u32, LineShape> {
    let mut shapes = BTreeMap::new();
    for d in analyze(src).cond_map.directives {
        let (end, multi) = (d.last_line, d.first_line != d.last_line);
        let shape = match d.kind {
            CondKind::If | CondKind::Ifdef | CondKind::Ifndef => {
                LineShape::OpensFresh { end, multi }
            }
            CondKind::Elif | CondKind::Else => LineShape::Opens { end, multi },
            CondKind::Endif => LineShape::Closer,
        };
        for phys in d.first_line..=d.last_line {
            shapes.insert(phys, shape);
        }
    }
    shapes
}

/// The static class of the *region a mutation token actually sits in*.
///
/// A `Context` token recorded at line `L` physically lands:
///
/// - on a fresh line just before `L` when `L` is a plain line — same
///   region as `L`, so `class(L)` is the answer;
/// - just *after* the directive when `L` is a conditional opener or
///   branch switch ([`mutation`](crate::mutation) certifies the branch
///   the directive opens) — the region of the first line inside the
///   branch. That class is only read off the pristine file when the
///   next line is a plain line or a fresh opener (both attributed to
///   exactly that region by the analyzer); spliced directives,
///   `#endif`s, and `#elif`/`#else` neighbors are ambiguous and yield
///   `None` (the token is counted but exempt from both rules).
///
/// `Define` tokens live on their `#define`/continuation line and take
/// the plain-line path.
pub fn token_class<'a>(
    fr: Option<&'a jmake_reach::FileReach>,
    shapes: &BTreeMap<u32, LineShape>,
    line: u32,
) -> Option<&'a ReachClass> {
    fr?.class(token_region_line(shapes, line)?)
}

/// The pristine-file line whose region a token recorded at `line`
/// actually certifies, per the attribution rules of [`token_class`].
/// `None` for ambiguous sites (`#endif` keys, spliced directives,
/// `#elif`/`#else` neighbors).
pub fn token_region_line(shapes: &BTreeMap<u32, LineShape>, line: u32) -> Option<u32> {
    match shapes.get(&line) {
        None => Some(line),
        Some(LineShape::Closer) => None,
        Some(LineShape::Opens { multi: true, .. })
        | Some(LineShape::OpensFresh { multi: true, .. }) => None,
        Some(LineShape::Opens { end, .. }) | Some(LineShape::OpensFresh { end, .. }) => {
            let candidate = end + 1;
            match shapes.get(&candidate) {
                None | Some(LineShape::OpensFresh { multi: false, .. }) => Some(candidate),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{run_evaluation, DriverOptions};
    use jmake_vcs::Repo;

    /// A tiny repo: one commit planting a dead `#ifdef` block next to a
    /// live edit, on a tree whose Kconfig declares a dead symbol.
    fn planted_repo() -> (Repo, Vec<jmake_vcs::CommitId>) {
        let mut tree = SourceTree::new();
        tree.insert(
            "Kconfig",
            "config CRC\n\tbool \"crc\"\n\tdefault y\n\
             config DEAD_OPTION\n\tbool \"dead\"\n\tdepends on MISSING_EVERYWHERE\n",
        );
        tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        tree.insert("Makefile", "obj-y += lib/\n");
        tree.insert("lib/Makefile", "obj-$(CONFIG_CRC) += crc.o\n");
        tree.insert("lib/crc.c", "int crc_base;\nint crc_step;\n");

        let mut repo = Repo::new();
        let base = repo.commit(&[], "seed", "seed", &tree);
        let mut t2 = tree.clone();
        t2.insert(
            "lib/crc.c",
            "int crc_base;\nint crc_step2;\n\
             #ifdef CONFIG_DEAD_OPTION\nint planted_dead;\n#endif\n",
        );
        let c1 = repo.commit(&[base], "janitor", "plant dead block", &t2);
        (repo, vec![c1])
    }

    fn run_on(repo: &Repo, commits: &[jmake_vcs::CommitId]) -> EvaluationRun {
        let opts = DriverOptions {
            workers: 1,
            ..DriverOptions::default()
        };
        run_evaluation(repo, commits, &opts)
    }

    #[test]
    fn planted_dead_block_agrees_and_report_is_clean() {
        let (repo, commits) = planted_repo();
        let run = run_on(&repo, &commits);
        assert_eq!(run.stats.checked, 1);
        let report = cross_check(&repo, &run);
        assert!(
            report.is_clean(),
            "expected clean cross-check, got {:?}",
            report.discrepancies
        );
        assert_eq!(report.patches, 1);
        assert!(report.tokens >= 2, "live edit + dead block tokens");
        assert!(
            report.dead_agreed >= 1,
            "the planted dead line must be dead statically AND uncovered dynamically: {report:?}"
        );
        assert!(report.allyes_agreed >= 1, "the live edit agrees: {report:?}");
    }

    #[test]
    fn report_json_is_deterministic() {
        let (repo, commits) = planted_repo();
        let run = run_on(&repo, &commits);
        let a = cross_check(&repo, &run).to_json();
        let b = cross_check(&repo, &run).to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"clean\": true"));
        assert!(a.contains("\"dead_agreed\""));
    }

    #[test]
    fn fabricated_dead_but_covered_is_flagged() {
        // Forge a run claiming the planted dead line was certified: the
        // cross-check must cry foul.
        let (repo, commits) = planted_repo();
        let mut run = run_on(&repo, &commits);
        let report = match &mut run.results[0].outcome {
            crate::driver::PatchOutcome::Checked(r) => r,
            other => panic!("expected checked outcome, got {other:?}"),
        };
        let file = report
            .files
            .iter_mut()
            .find(|f| f.path == "lib/crc.c")
            .expect("crc.c report");
        // The dead-block token is recorded on the `#ifdef` line (3); the
        // mutation engine physically placed it inside the branch.
        let dead_tok = file
            .uncovered
            .iter()
            .map(|u| u.token.clone())
            .find(|t| t.line == 3)
            .expect("planted dead block token");
        file.uncovered.retain(|u| u.token.line != 3);
        file.covered
            .push((dead_tok, "x86_64/allyesconfig".to_string()));

        let cc = cross_check(&repo, &run);
        assert!(!cc.is_clean());
        let d = &cc.discrepancies[0];
        assert_eq!(d.kind, DiscrepancyKind::DeadButCovered);
        assert_eq!(d.file, "lib/crc.c");
        assert_eq!(d.line, 3);
        assert_eq!(d.arch, "x86_64");
        assert!(cc.to_json().contains("dead-but-covered"));
    }

    #[test]
    fn fabricated_allyes_but_missed_is_flagged() {
        // Forge the opposite direction: claim the live edit's token was
        // never covered despite a clean allyesconfig attempt.
        let (repo, commits) = planted_repo();
        let mut run = run_on(&repo, &commits);
        let report = match &mut run.results[0].outcome {
            crate::driver::PatchOutcome::Checked(r) => r,
            other => panic!("expected checked outcome, got {other:?}"),
        };
        let file = report
            .files
            .iter_mut()
            .find(|f| f.path == "lib/crc.c")
            .expect("crc.c report");
        let (live_tok, _) = file
            .covered
            .iter()
            .find(|(t, _)| t.line == 2)
            .cloned()
            .expect("live edit token");
        file.covered.retain(|(t, _)| t.line != 2);
        file.uncovered.push(crate::report::UncoveredMutation {
            token: live_tok,
            reason: crate::classify::UncoveredReason::Unknown,
        });
        file.status = FileStatus::PartiallyCovered;

        let cc = cross_check(&repo, &run);
        assert!(cc
            .discrepancies
            .iter()
            .any(|d| d.kind == DiscrepancyKind::AllyesButMissed && d.line == 2));
    }

    #[test]
    fn unchecked_commits_are_skipped_with_a_note() {
        let (repo, commits) = planted_repo();
        let mut run = run_on(&repo, &commits);
        run.results[0].outcome =
            crate::driver::PatchOutcome::CheckoutFailed("gone".to_string());
        let cc = cross_check(&repo, &run);
        assert_eq!(cc.patches, 0);
        assert_eq!(cc.skipped.len(), 1);
        assert!(cc.skipped[0].contains("gone"));
        assert!(cc.is_clean());
    }

    #[test]
    fn line_shapes_classify_directives() {
        let shapes =
            line_shapes("int a;\n#if defined(X) && \\\n    defined(Y)\nint b;\n#else\nint c;\n#endif\n");
        assert!(!shapes.contains_key(&1), "plain line");
        assert_eq!(
            shapes.get(&2),
            Some(&LineShape::OpensFresh { end: 3, multi: true }),
            "spliced opener marks both physical lines"
        );
        assert_eq!(shapes.get(&3), shapes.get(&2));
        assert!(!shapes.contains_key(&4));
        assert_eq!(shapes.get(&5), Some(&LineShape::Opens { end: 5, multi: false }));
        assert_eq!(shapes.get(&7), Some(&LineShape::Closer));
    }

    #[test]
    fn token_class_maps_opener_tokens_into_the_branch() {
        use jmake_reach::FileReach;
        let src = "int a;\n#ifdef CONFIG_X\nint b;\n#endif\nint c;\n";
        let shapes = line_shapes(src);
        let fr = FileReach {
            path: "f.c".to_string(),
            classes: vec![
                ReachClass::AllyesReachable,                           // 1
                ReachClass::AllyesReachable,                           // 2 (#ifdef → enclosing)
                ReachClass::Dead { proof: "p".to_string() },           // 3 (branch)
                ReachClass::AllyesReachable,                           // 4 (#endif → enclosing)
                ReachClass::AllyesReachable,                           // 5
            ],
        };
        // A token on the #ifdef line certifies the branch: line 3's class.
        assert!(token_class(Some(&fr), &shapes, 2).is_some_and(ReachClass::is_dead));
        // Plain lines map to themselves.
        assert_eq!(token_class(Some(&fr), &shapes, 1), Some(&ReachClass::AllyesReachable));
        // #endif tokens are ambiguous.
        assert_eq!(token_class(Some(&fr), &shapes, 4), None);
        // Missing file report → no verdict.
        assert_eq!(token_class(None, &shapes, 1), None);
    }
}

/// Characterisation of every reader of `#if` structure over one table of
/// source shapes.
///
/// Each row is a small file; its answer sheet records, per physical
/// line, what the Table IV classifier, the pre-compilation warnings, the
/// cross-check's line shapes and the reach analyzer say, plus the
/// file-level answers (both-branches pairs, branch wants, presence
/// conditions of includes). The sheets pin the readers against each
/// other: a change to how conditional structure is walked must leave
/// every sheet as it is.
#[cfg(test)]
mod shapes {
    use super::line_shapes;
    use crate::classify::{classify, detect_both_branches};
    use crate::covsel::branch_wants;
    use crate::precheck::precheck;
    use crate::token::{MutationKind, MutationToken};
    use jmake_cpp::analyze;
    use jmake_diff::{diff_to_patch, DiffOptions};
    use jmake_kbuild::SourceTree;
    use jmake_kconfig::{DeadSymbols, KconfigModel};
    use jmake_reach::{analyze_file, Reach, ReachEnv};
    use std::fmt::Write;

    const KCONFIG: &str = "config A\n\tbool \"a\"\nconfig B\n\tbool \"b\"\nconfig C\n\tbool \"c\"\n\tdepends on !B\nconfig NET\n\tbool \"n\"\n";

    /// The answer sheet of `src`, stored at `path` (a `.h` path is included
    /// from a compiled `main.c`).
    fn answers(path: &str, src: &str) -> String {
        let mut model = KconfigModel::new();
        model
            .parse_str("Kconfig", KCONFIG)
            .expect("fixture Kconfig parses");
        let dead = DeadSymbols::compute(&model);
        let allyes = model.allyesconfig();
        let allmod = model.allmodconfig();

        let mut tree = SourceTree::new();
        tree.insert("Kconfig", KCONFIG);
        tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        if path.ends_with(".h") {
            tree.insert("Makefile", "obj-y += main.o\n");
            tree.insert("main.c", format!("#include \"{path}\"\nint m;\n"));
        } else {
            tree.insert(
                "Makefile",
                format!("obj-y += {}\n", path.replace(".c", ".o")),
            );
        }
        tree.insert(path, src);
        let mut reach = Reach::new(&tree);
        reach.add_model("x86_64", model.clone());
        reach.add_env(ReachEnv {
            label: "x86_64-allyes".into(),
            arch: "x86_64".into(),
            config: allyes.clone(),
            allyes: true,
        });
        reach.add_env(ReachEnv {
            label: "x86_64-allmod".into(),
            arch: "x86_64".into(),
            config: allmod,
            allyes: false,
        });
        let treach = reach.analyze_files(&[path.to_string()]);
        let fr = &treach.files[path];
        let map = analyze(src);
        let fa = analyze_file(src);
        let shapes = line_shapes(src);

        let n = src.lines().count() as u32;
        let tok = |line| MutationToken::new(MutationKind::Context, path, line);
        let changed = |lines: &[u32]| {
            let old: String = src
                .lines()
                .enumerate()
                .map(|(i, l)| {
                    if lines.contains(&(i as u32 + 1)) {
                        format!("old_{}\n", i + 1)
                    } else {
                        format!("{l}\n")
                    }
                })
                .collect();
            let patch = diff_to_patch(path, &old, src, &DiffOptions::default());
            let fp = patch.files.into_iter().next().expect("lines differ");
            let warnings: Vec<String> = precheck(&fp, src)
                .iter()
                .map(|w| format!("{:?}{:?}", w.kind, w.lines))
                .collect();
            or_dash(&warnings)
        };

        let mut out = String::new();
        for (i, text) in src.lines().enumerate() {
            let line = i as u32 + 1;
            let reason = classify(&tok(line), &map, &model, &dead, &allyes, true);
            writeln!(
                out,
                "{line} {text:?} | {reason:?} | {:?} | {} | {:?} | {}",
                fr.class(line).expect("line classified"),
                fa.conds[i],
                shapes.get(&line),
                changed(&[line]),
            )
            .unwrap();
        }
        let past_eof = classify(&tok(n + 1), &map, &model, &dead, &allyes, true);
        writeln!(out, "past eof | {past_eof:?}").unwrap();
        let mut both = Vec::new();
        let mut pairs_warned = Vec::new();
        for a in 1..=n {
            for b in a + 1..=n {
                if detect_both_branches(&map, &[&tok(a), &tok(b)]) {
                    both.push((a, b));
                }
                let w = changed(&[a, b]);
                if w.contains("BothBranches") {
                    pairs_warned.push((a, b));
                }
            }
        }
        writeln!(out, "both branches | {both:?}").unwrap();
        writeln!(out, "precheck pairs | {pairs_warned:?}").unwrap();
        let all: Vec<u32> = (1..=n).collect();
        writeln!(out, "precheck all | {}", changed(&all)).unwrap();
        let wants: Vec<String> = branch_wants(src)
            .iter()
            .map(|w| format!("{}{}", w.var, if w.on { '+' } else { '-' }))
            .collect();
        writeln!(out, "wants | {}", or_dash(&wants)).unwrap();
        writeln!(out, "balanced {} guard {:?}", fa.balanced, fa.guard).unwrap();
        for inc in &fa.includes {
            writeln!(
                out,
                "include {:?} quoted {} | {}",
                inc.path, inc.quoted, inc.cond
            )
            .unwrap();
        }
        out
    }

    fn or_dash(items: &[String]) -> String {
        if items.is_empty() {
            "-".to_string()
        } else {
            items.join(" ")
        }
    }

    #[track_caller]
    fn check(path: &str, src: &str, want: &str) {
        let got = answers(path, src);
        assert_eq!(got, want, "answer sheet for {src:?} drifted:\n{got}");
    }

    const NESTED_ELIF: &str = "int top;\n#ifdef CONFIG_A\nint a;\n#if defined(CONFIG_B)\nint ab;\n#elif defined(CONFIG_C)\nint ac;\n#else\nint a_else;\n#endif\n#elif CONFIG_B\n#include \"b.h\"\n#else\nint none;\n#endif\n#ifndef CONFIG_NET\nint nonet;\n#else\nint net;\n#endif\n#ifdef MODULE\nint mod;\n#endif\n#ifdef CONFIG_GHOST\nint ghost;\n#endif\n";
    const STRAY_ELSE: &str = "int x;\n#else\nint y;\n#endif\nint z;\n";
    const STRAY_ENDIF: &str = "#ifdef CONFIG_A\nint a;\n#endif\n#endif\nint z;\n";
    const UNTERMINATED: &str = "int x;\n#ifdef CONFIG_A\nint a;\n#else\nint b;\n";
    const CONTINUED: &str = "#if defined(CONFIG_A) && \\\n    defined(CONFIG_B)\nint ab;\n#elif \\\n  defined(CONFIG_C)\nint c;\n#else\n#define M(x) \\\n  ((x) + 1)\nint d;\n#endif \\\nint spliced;\nint after;\n";
    const INCLUDE_GUARD: &str =
        "#ifndef S_H\n#define S_H\n#ifdef CONFIG_A\nint a;\n#else\nint na;\n#endif\nint s;\n#endif\n\n";
    const IF_PAREN_ZERO: &str =
        "#if (0)\nint dead;\n#else\nint live;\n#endif\n#if 0 /* off */\nint dead2;\n#endif\n";
    const DEFINED_NO_PARENS: &str = "#if defined CONFIG_A\nint a;\n#else\nint na;\n#endif\n#if !defined(CONFIG_B)\nint nb;\n#endif\n#if defined(CONFIG_A) && defined(CONFIG_C)\nint ac;\n#endif\n";

    #[test]
    fn nested_groups_and_elif_chains() {
        check(
            "s.c",
            NESTED_ELIF,
            r##"1 "int top;" | Unknown | AllyesReachable | 1 | None | -
2 "#ifdef CONFIG_A" | Unknown | AllyesReachable | 1 | Some(OpensFresh { end: 2, multi: false }) | -
3 "int a;" | Unknown | AllyesReachable | defined(CONFIG_A) | None | -
4 "#if defined(CONFIG_B)" | Unknown | AllyesReachable | defined(CONFIG_A) | Some(OpensFresh { end: 4, multi: false }) | -
5 "int ab;" | Unknown | AllyesReachable | (defined(CONFIG_A) && defined(CONFIG_B)) | None | -
6 "#elif defined(CONFIG_C)" | IfndefOrElse | AllyesReachable | defined(CONFIG_A) | Some(Opens { end: 6, multi: false }) | -
7 "int ac;" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": Y, "B": N, "C": Y})) } | (defined(CONFIG_A) && (!defined(CONFIG_B) && defined(CONFIG_C))) | None | -
8 "#else" | IfndefOrElse | AllyesReachable | defined(CONFIG_A) | Some(Opens { end: 8, multi: false }) | -
9 "int a_else;" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": Y, "B": N, "C": N})) } | (defined(CONFIG_A) && (!defined(CONFIG_B) && !defined(CONFIG_C))) | None | -
10 "#endif" | Unknown | AllyesReachable | defined(CONFIG_A) | Some(Closer) | -
11 "#elif CONFIG_B" | IfndefOrElse | AllyesReachable | 1 | Some(Opens { end: 11, multi: false }) | -
12 "#include \"b.h\"" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": N, "B": Y})) } | (!defined(CONFIG_A) && defined(CONFIG_B)) | None | -
13 "#else" | IfndefOrElse | AllyesReachable | 1 | Some(Opens { end: 13, multi: false }) | -
14 "int none;" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": N, "B": N})) } | (!defined(CONFIG_A) && !defined(CONFIG_B)) | None | -
15 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
16 "#ifndef CONFIG_NET" | IfndefOrElse | AllyesReachable | 1 | Some(OpensFresh { end: 16, multi: false }) | UnderIfndef[16]
17 "int nonet;" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"NET": N})) } | !defined(CONFIG_NET) | None | UnderIfndef[17]
18 "#else" | Unknown | AllyesReachable | 1 | Some(Opens { end: 18, multi: false }) | -
19 "int net;" | Unknown | AllyesReachable | defined(CONFIG_NET) | None | -
20 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
21 "#ifdef MODULE" | IfdefModule | AllyesReachable | 1 | Some(OpensFresh { end: 21, multi: false }) | -
22 "int mod;" | IfdefModule | Dead { proof: "constant-false" } | defined(MODULE) | None | -
23 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
24 "#ifdef CONFIG_GHOST" | IfdefNeverSetInKernel | AllyesReachable | 1 | Some(OpensFresh { end: 24, multi: false }) | -
25 "int ghost;" | IfdefNeverSetInKernel | Dead { proof: "undeclared symbol GHOST" } | defined(CONFIG_GHOST) | None | -
26 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
past eof | Unknown
both branches | [(2, 11), (2, 12), (2, 13), (2, 14), (3, 11), (3, 12), (3, 13), (3, 14), (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (10, 11), (10, 12), (10, 13), (10, 14), (16, 18), (16, 19), (17, 18), (17, 19)]
precheck pairs | [(2, 11), (2, 12), (2, 13), (2, 14), (3, 11), (3, 12), (3, 13), (3, 14), (4, 6), (4, 7), (4, 8), (4, 9), (5, 6), (5, 7), (5, 8), (5, 9), (6, 8), (6, 9), (7, 8), (7, 9), (11, 13), (11, 14), (12, 13), (12, 14), (16, 18), (16, 19), (17, 18), (17, 19)]
precheck all | BothBranches[2, 3, 11, 12, 13, 14] BothBranches[4, 5, 6, 7, 8, 9] BothBranches[16, 17, 18, 19] UnderIfndef[16, 17]
wants | A- A+ B- B+ GHOST+ NET- NET+
balanced true guard None
include "b.h" quoted true | (!defined(CONFIG_A) && defined(CONFIG_B))
"##,
        );
    }

    #[test]
    fn stray_else() {
        check(
            "s.c",
            STRAY_ELSE,
            r##"1 "int x;" | Unknown | ConditionallyReachable { witness: None } | 1 | None | -
2 "#else" | Unknown | ConditionallyReachable { witness: None } | 1 | Some(Opens { end: 2, multi: false }) | -
3 "int y;" | Unknown | ConditionallyReachable { witness: None } | 1 | None | -
4 "#endif" | Unknown | ConditionallyReachable { witness: None } | 1 | Some(Closer) | -
5 "int z;" | Unknown | ConditionallyReachable { witness: None } | 1 | None | -
past eof | Unknown
both branches | []
precheck pairs | []
precheck all | -
wants | -
balanced false guard None
"##,
        );
    }

    #[test]
    fn stray_endif() {
        check(
            "s.c",
            STRAY_ENDIF,
            r##"1 "#ifdef CONFIG_A" | Unknown | ConditionallyReachable { witness: None } | 1 | Some(OpensFresh { end: 1, multi: false }) | -
2 "int a;" | Unknown | ConditionallyReachable { witness: None } | defined(CONFIG_A) | None | -
3 "#endif" | Unknown | ConditionallyReachable { witness: None } | 1 | Some(Closer) | -
4 "#endif" | Unknown | ConditionallyReachable { witness: None } | 1 | Some(Closer) | -
5 "int z;" | Unknown | ConditionallyReachable { witness: None } | 1 | None | -
past eof | Unknown
both branches | []
precheck pairs | []
precheck all | -
wants | A+
balanced false guard None
"##,
        );
    }

    #[test]
    fn unterminated_group() {
        check(
            "s.c",
            UNTERMINATED,
            r##"1 "int x;" | Unknown | ConditionallyReachable { witness: None } | 1 | None | -
2 "#ifdef CONFIG_A" | Unknown | ConditionallyReachable { witness: None } | 1 | Some(OpensFresh { end: 2, multi: false }) | -
3 "int a;" | Unknown | ConditionallyReachable { witness: None } | defined(CONFIG_A) | None | -
4 "#else" | IfndefOrElse | ConditionallyReachable { witness: None } | 1 | Some(Opens { end: 4, multi: false }) | -
5 "int b;" | IfndefOrElse | ConditionallyReachable { witness: None } | !defined(CONFIG_A) | None | -
past eof | IfndefOrElse
both branches | [(2, 4), (2, 5), (3, 4), (3, 5)]
precheck pairs | [(2, 4), (2, 5), (3, 4), (3, 5)]
precheck all | BothBranches[2, 3, 4, 5]
wants | A- A+
balanced false guard None
"##,
        );
    }

    #[test]
    fn directives_continued_with_backslash() {
        check(
            "s.c",
            CONTINUED,
            r##"1 "#if defined(CONFIG_A) && \\" | Unknown | AllyesReachable | 1 | Some(OpensFresh { end: 2, multi: true }) | -
2 "    defined(CONFIG_B)" | Unknown | AllyesReachable | 1 | Some(OpensFresh { end: 2, multi: true }) | -
3 "int ab;" | Unknown | AllyesReachable | (defined(CONFIG_A) && defined(CONFIG_B)) | None | -
4 "#elif \\" | IfndefOrElse | AllyesReachable | 1 | Some(Opens { end: 5, multi: true }) | -
5 "  defined(CONFIG_C)" | IfndefOrElse | AllyesReachable | 1 | Some(Opens { end: 5, multi: true }) | -
6 "int c;" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": N, "B": N, "C": Y})) } | (!(defined(CONFIG_A) && defined(CONFIG_B)) && defined(CONFIG_C)) | None | -
7 "#else" | IfndefOrElse | AllyesReachable | 1 | Some(Opens { end: 7, multi: false }) | -
8 "#define M(x) \\" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": N, "B": N, "C": N})) } | (!(defined(CONFIG_A) && defined(CONFIG_B)) && !defined(CONFIG_C)) | None | -
9 "  ((x) + 1)" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": N, "B": N, "C": N})) } | (!(defined(CONFIG_A) && defined(CONFIG_B)) && !defined(CONFIG_C)) | None | -
10 "int d;" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": N, "B": N, "C": N})) } | (!(defined(CONFIG_A) && defined(CONFIG_B)) && !defined(CONFIG_C)) | None | -
11 "#endif \\" | Unknown | AllyesReachable | 1 | Some(Closer) | -
12 "int spliced;" | Unknown | AllyesReachable | 1 | Some(Closer) | -
13 "int after;" | Unknown | AllyesReachable | 1 | None | -
past eof | Unknown
both branches | [(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10)]
precheck pairs | [(1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 10), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8), (2, 9), (2, 10), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (4, 7), (4, 8), (4, 9), (4, 10), (5, 7), (5, 8), (5, 9), (5, 10), (6, 7), (6, 8), (6, 9), (6, 10)]
precheck all | BothBranches[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]
wants | -
balanced true guard None
"##,
        );
    }

    #[test]
    fn include_guard() {
        check(
            "s.h",
            INCLUDE_GUARD,
            r##"1 "#ifndef S_H" | IfndefOrElse | AllyesReachable | 1 | Some(OpensFresh { end: 1, multi: false }) | UnderIfndef[1]
2 "#define S_H" | IfndefOrElse | AllyesReachable | 1 | None | UnderIfndef[2]
3 "#ifdef CONFIG_A" | Unknown | AllyesReachable | 1 | Some(OpensFresh { end: 3, multi: false }) | -
4 "int a;" | Unknown | AllyesReachable | defined(CONFIG_A) | None | -
5 "#else" | IfndefOrElse | AllyesReachable | 1 | Some(Opens { end: 5, multi: false }) | -
6 "int na;" | IfndefOrElse | ConditionallyReachable { witness: None } | !defined(CONFIG_A) | None | -
7 "#endif" | IfndefOrElse | AllyesReachable | 1 | Some(Closer) | -
8 "int s;" | IfndefOrElse | AllyesReachable | 1 | None | UnderIfndef[8]
9 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
10 "" | Unknown | AllyesReachable | 1 | None | -
past eof | Unknown
both branches | [(3, 5), (3, 6), (4, 5), (4, 6)]
precheck pairs | [(3, 5), (3, 6), (4, 5), (4, 6)]
precheck all | BothBranches[3, 4, 5, 6] UnderIfndef[1, 2, 8]
wants | A- A+
balanced true guard Some("S_H")
"##,
        );
    }

    #[test]
    fn if_paren_zero() {
        check(
            "s.c",
            IF_PAREN_ZERO,
            r##"1 "#if (0)" | IfZero | AllyesReachable | 1 | Some(OpensFresh { end: 1, multi: false }) | UnderIfZero[1]
2 "int dead;" | IfZero | Dead { proof: "constant-false" } | 0 | None | UnderIfZero[2]
3 "#else" | IfndefOrElse | AllyesReachable | 1 | Some(Opens { end: 3, multi: false }) | -
4 "int live;" | IfndefOrElse | AllyesReachable | 1 | None | -
5 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
6 "#if 0 /* off */" | IfZero | AllyesReachable | 1 | Some(OpensFresh { end: 6, multi: false }) | UnderIfZero[6]
7 "int dead2;" | IfZero | Dead { proof: "constant-false" } | 0 | None | UnderIfZero[7]
8 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
past eof | Unknown
both branches | [(1, 3), (1, 4), (2, 3), (2, 4)]
precheck pairs | [(1, 3), (1, 4), (2, 3), (2, 4)]
precheck all | BothBranches[1, 2, 3, 4] UnderIfZero[1, 2, 6, 7]
wants | -
balanced true guard None
"##,
        );
    }

    #[test]
    fn if_defined_without_parens() {
        check(
            "s.c",
            DEFINED_NO_PARENS,
            r##"1 "#if defined CONFIG_A" | Unknown | AllyesReachable | 1 | Some(OpensFresh { end: 1, multi: false }) | -
2 "int a;" | Unknown | AllyesReachable | defined(CONFIG_A) | None | -
3 "#else" | IfndefOrElse | AllyesReachable | 1 | Some(Opens { end: 3, multi: false }) | -
4 "int na;" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"A": N})) } | !defined(CONFIG_A) | None | -
5 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
6 "#if !defined(CONFIG_B)" | IfndefOrElse | AllyesReachable | 1 | Some(OpensFresh { end: 6, multi: false }) | -
7 "int nb;" | IfndefOrElse | ConditionallyReachable { witness: Some(Pins({"B": N})) } | !defined(CONFIG_B) | None | -
8 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
9 "#if defined(CONFIG_A) && defined(CONFIG_C)" | Unknown | AllyesReachable | 1 | Some(OpensFresh { end: 9, multi: false }) | -
10 "int ac;" | Unknown | ConditionallyReachable { witness: Some(Pins({"A": Y, "C": Y})) } | (defined(CONFIG_A) && defined(CONFIG_C)) | None | -
11 "#endif" | Unknown | AllyesReachable | 1 | Some(Closer) | -
past eof | Unknown
both branches | [(1, 3), (1, 4), (2, 3), (2, 4)]
precheck pairs | [(1, 3), (1, 4), (2, 3), (2, 4)]
precheck all | BothBranches[1, 2, 3, 4]
wants | A- A+
balanced true guard None
"##,
        );
    }
}

//! Property tests for the mutation engine, token machinery and precheck.

use crate::mutation::{mutate, mutate_naive};
use crate::precheck::precheck;
use crate::token::MutationToken;
use jmake_cpp::{analyze, MapResolver, Preprocessor};
use jmake_diff::{diff_to_patch, ChangedLine, ChangedLines, DiffOptions};
use proptest::prelude::*;

/// Generator for C-shaped sources: declarations, macros (with and without
/// continuations), conditionals, comments.
fn c_source() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        "[a-z]{1,6}".prop_map(|v| format!("int {v};")),
        "[a-z]{1,6}".prop_map(|v| format!("\treturn {v} + 1;")),
        "[A-Z]{1,5}".prop_map(|n| format!("#define {n}(x) ((x) + 1)")),
        // A multi-line macro is one generation unit, so a continuation
        // backslash can never splice an unrelated following line.
        "[A-Z]{1,5}".prop_map(|n| format!("#define {n} \\\n\t(1 + \\\n\t 2)")),
        "[A-Z]{1,5}".prop_map(|n| format!("#ifdef CONFIG_{n}")),
        Just("#else".to_string()),
        Just("#endif".to_string()),
        Just("/* a block comment */".to_string()),
        Just("// line comment".to_string()),
        Just("/* open".to_string()),
        Just("   still comment */".to_string()),
    ];
    prop::collection::vec(line, 1..40).prop_map(|ls| {
        // Balance conditionals; drop trailing continuations.
        let mut out = Vec::new();
        let mut depth = 0;
        for l in ls {
            if l.starts_with("#ifdef") {
                depth += 1;
            } else if l == "#endif" {
                if depth == 0 {
                    continue;
                }
                depth -= 1;
            } else if l == "#else" && depth == 0 {
                continue;
            }
            out.push(l);
        }
        for _ in 0..depth {
            out.push("#endif".to_string());
        }
        out.join("\n") + "\n"
    })
}

/// Generator for conditional-heavy sources, deliberately including
/// unbalanced directives, `#elif` chains, commented guards and changed
/// `#endif` markers — the shapes `precheck` has to survive. Kept separate
/// from [`c_source`] so hardening it never weakens the mutation properties.
fn conditional_soup() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        "[a-z]{1,6}".prop_map(|v| format!("int {v};")),
        "[A-Z]{1,4}".prop_map(|n| format!("#ifdef CONFIG_{n}")),
        "[A-Z]{1,4}".prop_map(|n| format!("#ifndef CONFIG_{n}")),
        Just("#if 0".to_string()),
        Just("#if 0 /* disabled */".to_string()),
        Just("#if (0)".to_string()),
        "[A-Z]{1,4}".prop_map(|n| format!("#elif defined(CONFIG_{n})")),
        Just("#else".to_string()),
        Just("#endif".to_string()),
        "[A-Z]{1,4}".prop_map(|n| format!("#endif /* CONFIG_{n} */")),
        Just("/* comment */".to_string()),
    ];
    prop::collection::vec(line, 1..30).prop_map(|ls| ls.join("\n") + "\n")
}

fn changed_subset(max_line: usize) -> impl Strategy<Value = ChangedLines> {
    prop::collection::btree_set(1..=max_line.max(1) as u32, 0..8)
        .prop_map(|s| s.into_iter().map(ChangedLine::Line).collect())
}

proptest! {
    /// The mutated file still preprocesses without new diagnostics, and
    /// every token that survives scanning belongs to the plan.
    #[test]
    fn mutated_source_is_preprocessable(src in c_source(), seed in 0u32..1000) {
        let lines = src.lines().count();
        let changed: ChangedLines = (0..4)
            .map(|i| ChangedLine::Line(((seed as usize + i * 7) % lines + 1) as u32))
            .collect();
        let plan = mutate("p.c", &src, &changed);
        let pp = Preprocessor::new(MapResolver::new());
        let before = pp.preprocess("p.c", &src);
        let after = pp.preprocess("p.c", &plan.mutated);
        prop_assert_eq!(
            before.errors.len(),
            after.errors.len(),
            "mutation introduced diagnostics:\n{}",
            plan.mutated
        );
        let found = MutationToken::scan(&after.text);
        for tok in &found {
            prop_assert!(plan.mutations.contains(tok), "phantom token {tok}");
        }
    }

    /// Token counts: minimized placement never exceeds the naive one, and
    /// both never exceed the number of changed lines (+1 for EOF).
    #[test]
    fn minimized_plan_is_no_larger_than_naive(src in c_source()) {
        let lines = src.lines().count();
        let changed: ChangedLines = (1..=lines as u32).map(ChangedLine::Line).collect();
        let minimized = mutate("p.c", &src, &changed);
        let naive = mutate_naive("p.c", &src, &changed);
        // The naive variant skips directive lines entirely, while the
        // minimized placement certifies the section a changed conditional
        // opens — so the bound allows one extra token per conditional.
        let conditionals = src
            .lines()
            .filter(|l| {
                let t = l.trim_start();
                t.starts_with("#if") || t.starts_with("#else") || t.starts_with("#elif")
            })
            .count();
        prop_assert!(
            minimized.mutations.len() <= naive.mutations.len() + conditionals + 2,
            "minimized {} vs naive {} (+{conditionals} conditionals)",
            minimized.mutations.len(),
            naive.mutations.len()
        );
        prop_assert!(minimized.mutations.len() <= lines + 1);
    }

    /// Tokens are unique and render/scan round-trips.
    #[test]
    fn tokens_are_unique_and_scannable(src in c_source(), changed in changed_subset(40)) {
        let plan = mutate("a/b.c", &src, &changed);
        let mut seen = std::collections::BTreeSet::new();
        for tok in &plan.mutations {
            prop_assert!(seen.insert(tok.clone()), "duplicate token {tok}");
            let back = MutationToken::scan(&tok.render());
            prop_assert_eq!(back.len(), 1);
            prop_assert_eq!(&back[0], tok);
        }
    }

    /// Comment-only changed lines never produce mutations, and are all
    /// accounted for in the plan.
    #[test]
    fn comment_lines_are_skipped_not_lost(changed in changed_subset(5)) {
        let src = "/* one\n two\n three */\n// four\n/* five */\n";
        let plan = mutate("c.c", src, &changed);
        prop_assert!(plan.mutations.is_empty(), "{:?}", plan.mutations);
        prop_assert_eq!(plan.comment_lines.len(), changed.len());
    }

    /// Mutation is idempotent in the sense that an empty change set leaves
    /// the file untouched.
    #[test]
    fn empty_change_set_is_identity(src in c_source()) {
        let plan = mutate("p.c", &src, &ChangedLines::default());
        prop_assert!(plan.is_trivial());
        prop_assert_eq!(plan.mutated, src);
    }

    /// Precheck never panics — not on unbalanced conditionals, commented
    /// guards, or changed `#endif` lines — and never reports a line
    /// outside the post-patch file.
    #[test]
    fn precheck_never_panics_or_reports_foreign_lines(
        old in conditional_soup(),
        new in conditional_soup(),
    ) {
        let patch = diff_to_patch("soup.c", &old, &new, &DiffOptions::default());
        let new_len = new.lines().count() as u32;
        for fp in &patch.files {
            let warnings = precheck(fp, &new);
            for w in &warnings {
                prop_assert!(!w.lines.is_empty(), "empty warning {w}");
                for l in &w.lines {
                    prop_assert!(
                        (1..=new_len).contains(l),
                        "line {l} outside 1..={new_len}: {w}"
                    );
                }
                let mut sorted = w.lines.clone();
                sorted.sort_unstable();
                sorted.dedup();
                prop_assert_eq!(&sorted, &w.lines, "lines not sorted+deduped");
            }
        }
    }

    /// The conditional map survives any directive soup: it never panics,
    /// agrees with a plain depth count on whether the
    /// soup balances, and calls it unbalanced behind a stray `#endif` or
    /// ahead of an unclosed `#if 0`.
    #[test]
    fn cond_map_reports_unbalanced_soups(soup in conditional_soup()) {
        let mut depth = Some(0u32);
        for line in soup.lines() {
            depth = depth.and_then(|d| {
                let name = line.trim_start_matches('#').split_whitespace().next();
                match name {
                    _ if !line.starts_with('#') => Some(d),
                    Some("if" | "ifdef" | "ifndef") => Some(d + 1),
                    Some("elif" | "else") => (d > 0).then_some(d),
                    _ => d.checked_sub(1),
                }
            });
        }
        prop_assert_eq!(analyze(&soup).cond_map.balanced, depth == Some(0));
        for src in [format!("#endif\n{soup}"), format!("{soup}#if 0\n")] {
            let map = analyze(&src);
            let conds = &map.cond_map;
            prop_assert!(!conds.balanced, "{}", src);
            for line in 0..=map.len() as u32 + 1 {
                prop_assert!(conds.chain(conds.branch_of(line)).count() <= conds.groups.len());
            }
        }
    }
}

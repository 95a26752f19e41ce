//! Per-file presence conditions, read off the conditional map.
//!
//! [`jmake_cpp::analyze()`] records the file's `#if`/`#ifdef`/`#elif`/
//! `#else`/`#endif` groups once ([`jmake_cpp::CondMap`]). Where the
//! preprocessor decides each branch against one concrete macro table,
//! this keeps the conditions symbolic: every physical line gets the
//! conjunction of the branch conditions that must hold for the
//! preprocessor to emit (or even tokenize the body of) that line.
//!
//! Directive lines themselves (`#if`, `#elif`, `#else`, `#endif`) are
//! attributed to the *enclosing* region: the preprocessor reads them
//! whenever their parent stack is active, regardless of which branch
//! wins. That matches what the compiler "sees" and is the property the
//! cross-check needs.

use crate::cond::{parse_directive, CondExpr};
use jmake_cpp::{analyze, BranchId, CondMap};

/// An `#include` occurrence with the condition under which it fires.
#[derive(Debug, Clone)]
pub struct IncludeRef {
    /// Path text between the delimiters.
    pub path: String,
    /// `"..."` (true) vs `<...>` (false).
    pub quoted: bool,
    /// Presence condition of the directive line.
    pub cond: CondExpr,
}

/// The symbolic analysis of one file.
#[derive(Debug, Clone)]
pub struct FileAnalysis {
    /// Presence condition per physical line (index = line − 1).
    pub conds: Vec<CondExpr>,
    /// All `#include` directives with their conditions.
    pub includes: Vec<IncludeRef>,
    /// False when `#endif`s don't pair up with openers — callers must
    /// fall back to a conservative classification for the whole file.
    pub balanced: bool,
    /// Detected include-guard macro, if the file has the classic
    /// `#ifndef G` / `#define G` / … / `#endif` shape. The guard frame is
    /// already discharged to `True` in `conds`.
    pub guard: Option<String>,
}

/// Analyze `src`, producing per-line presence conditions.
pub fn analyze_file(src: &str) -> FileAnalysis {
    let map = analyze(src);
    let branch_conds = branch_conds(&map.cond_map);
    let cond_of = |region: Option<BranchId>| match region {
        Some(b) => branch_conds[b.group as usize][b.branch as usize].clone(),
        None => CondExpr::True,
    };
    let conds = (1..=map.len() as u32)
        .map(|line| cond_of(map.cond_map.region(line)))
        .collect();
    let includes = map
        .includes
        .into_iter()
        .map(|inc| IncludeRef {
            cond: cond_of(map.cond_map.region(inc.line)),
            path: inc.target,
            quoted: inc.quoted,
        })
        .collect();
    FileAnalysis {
        conds,
        includes,
        balanced: map.cond_map.balanced,
        guard: map.cond_map.include_guard,
    }
}

/// The full presence condition of every branch, per group: the enclosing
/// branch's condition conjoined with the branch's own — its test, after
/// the negation of every earlier test in the chain. The include guard's
/// test is discharged to `True`.
fn branch_conds(map: &CondMap) -> Vec<Vec<CondExpr>> {
    let mut out: Vec<Vec<CondExpr>> = Vec::with_capacity(map.groups.len());
    for (g, group) in map.groups.iter().enumerate() {
        let outer = match group.parent {
            Some(p) => out[p.group as usize][p.branch as usize].clone(),
            None => CondExpr::True,
        };
        let mut not_taken = CondExpr::True;
        let mut conds = Vec::with_capacity(group.branches.len());
        for (i, &d) in group.branches.iter().enumerate() {
            let dir = &map.directives[d];
            let own = if g == 0 && i == 0 && map.include_guard.is_some() {
                CondExpr::True
            } else {
                parse_directive(dir.kind, &dir.operand)
            };
            conds.push(outer.clone().and(not_taken.clone().and(own.clone())));
            not_taken = not_taken.and(own.negate());
        }
        out.push(conds);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Truth;
    use jmake_kconfig::{Config, Tristate};

    fn cfg(pairs: &[(&str, Tristate)]) -> Config {
        let mut c = Config::default();
        for (k, v) in pairs {
            c.set(*k, *v);
        }
        c
    }

    #[test]
    fn unconditional_lines_are_true() {
        let fa = analyze_file("int x;\nint y;\n");
        assert!(fa.balanced);
        assert_eq!(fa.conds, vec![CondExpr::True, CondExpr::True]);
    }

    #[test]
    fn ifdef_body_gets_defined_cond() {
        let src = "#ifdef CONFIG_NET\nint net;\n#endif\nint always;\n";
        let fa = analyze_file(src);
        let on = cfg(&[("NET", Tristate::Y)]);
        let off = cfg(&[]);
        // Line 1 (#ifdef) and line 3 (#endif) belong to the outer region.
        assert_eq!(fa.conds[0], CondExpr::True);
        assert_eq!(fa.conds[2], CondExpr::True);
        assert_eq!(fa.conds[1].eval(&on), Truth::True);
        assert_eq!(fa.conds[1].eval(&off), Truth::False);
        assert_eq!(fa.conds[3], CondExpr::True);
    }

    #[test]
    fn elif_chain_branches_exclude_earlier_tests() {
        let src = "#if defined(CONFIG_A)\na\n#elif defined(CONFIG_B)\nb\n#else\nc\n#endif\n";
        let fa = analyze_file(src);
        let a = cfg(&[("A", Tristate::Y), ("B", Tristate::Y)]);
        // A set: branch a holds, b excluded even though B is set.
        assert_eq!(fa.conds[1].eval(&a), Truth::True);
        assert_eq!(fa.conds[3].eval(&a), Truth::False);
        assert_eq!(fa.conds[5].eval(&a), Truth::False);
        let b = cfg(&[("B", Tristate::Y)]);
        assert_eq!(fa.conds[1].eval(&b), Truth::False);
        assert_eq!(fa.conds[3].eval(&b), Truth::True);
        assert_eq!(fa.conds[5].eval(&b), Truth::False);
        let none = cfg(&[]);
        assert_eq!(fa.conds[5].eval(&none), Truth::True);
        // The #elif and #else directive lines are read in all three cases.
        for c in [&a, &b, &none] {
            assert_eq!(fa.conds[2].eval(c), Truth::True);
            assert_eq!(fa.conds[4].eval(c), Truth::True);
        }
    }

    #[test]
    fn nested_conditions_conjoin() {
        let src = "#ifdef CONFIG_A\n#ifdef CONFIG_B\nboth\n#endif\n#endif\n";
        let fa = analyze_file(src);
        let both = cfg(&[("A", Tristate::Y), ("B", Tristate::Y)]);
        let only_a = cfg(&[("A", Tristate::Y)]);
        assert_eq!(fa.conds[2].eval(&both), Truth::True);
        assert_eq!(fa.conds[2].eval(&only_a), Truth::False);
        // The inner #ifdef line is under the outer condition only.
        assert_eq!(fa.conds[1].eval(&only_a), Truth::True);
        assert_eq!(fa.conds[1].eval(&cfg(&[])), Truth::False);
    }

    #[test]
    fn include_guard_is_discharged() {
        let src = "#ifndef MY_H\n#define MY_H\nint decl;\n#endif\n";
        let fa = analyze_file(src);
        assert_eq!(fa.guard.as_deref(), Some("MY_H"));
        assert_eq!(fa.conds[2], CondExpr::True);
    }

    #[test]
    fn guard_shape_with_trailing_code_is_not_a_guard() {
        let src = "#ifndef MY_H\n#define MY_H\nint decl;\n#endif\nint after;\n";
        let fa = analyze_file(src);
        assert_eq!(fa.guard, None);
    }

    #[test]
    fn if_zero_block_is_false() {
        let src = "#if 0\ndead\n#endif\n";
        let fa = analyze_file(src);
        assert_eq!(fa.conds[1], CondExpr::False);
    }

    #[test]
    fn includes_carry_conditions() {
        let src = "#include <linux/kernel.h>\n#ifdef CONFIG_X\n#include \"x.h\"\n#endif\n";
        let fa = analyze_file(src);
        assert_eq!(fa.includes.len(), 2);
        assert_eq!(fa.includes[0].path, "linux/kernel.h");
        assert!(!fa.includes[0].quoted);
        assert_eq!(fa.includes[0].cond, CondExpr::True);
        assert_eq!(fa.includes[1].path, "x.h");
        assert!(fa.includes[1].quoted);
        assert_eq!(
            fa.includes[1].cond.eval(&cfg(&[("X", Tristate::Y)])),
            Truth::True
        );
    }

    #[test]
    fn unbalanced_endif_flags_file() {
        let fa = analyze_file("#endif\nint x;\n");
        assert!(!fa.balanced);
        let fa2 = analyze_file("#ifdef CONFIG_A\nint x;\n");
        assert!(!fa2.balanced);
    }

    #[test]
    fn spliced_condition_covers_all_physical_lines() {
        let src = "#if defined(CONFIG_A) && \\\n    defined(CONFIG_B)\nbody\n#endif\n";
        let fa = analyze_file(src);
        // Both physical lines of the spliced #if are outer-region lines.
        assert_eq!(fa.conds[0], CondExpr::True);
        assert_eq!(fa.conds[1], CondExpr::True);
        let both = cfg(&[("A", Tristate::Y), ("B", Tristate::Y)]);
        assert_eq!(fa.conds[2].eval(&both), Truth::True);
        assert_eq!(fa.conds[2].eval(&cfg(&[("A", Tristate::Y)])), Truth::False);
    }
}

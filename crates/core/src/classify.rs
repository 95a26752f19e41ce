//! Why a changed line escaped the compiler (paper Table IV).
//!
//! When JMake reports that a mutation never surfaced in any `.i` file for
//! any successfully-compiled configuration, this module inspects the
//! source context of the mutation site and assigns one of the paper's
//! seven reasons.

use crate::token::{MutationKind, MutationToken};
use jmake_cpp::{CondKind, SourceMap};
use jmake_kconfig::{DeadSymbols, KconfigModel};
use std::fmt;

/// The reason categories of paper Table IV.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UncoveredReason {
    /// Guarded by `#ifdef CONFIG_X` where X exists but allyesconfig does
    /// not set it (e.g. it conflicts with another y symbol).
    IfdefNotSetByAllyesconfig,
    /// Guarded by a variable never settable anywhere in the kernel
    /// (undeclared, or declared with unsatisfiable dependencies).
    IfdefNeverSetInKernel,
    /// Guarded by `#ifdef MODULE`; allyesconfig builds everything in, so
    /// MODULE is never defined (allmodconfig would recover these).
    IfdefModule,
    /// Under `#ifndef X` or in the `#else` of a satisfied guard —
    /// allyesconfig sets variables to *yes*, so these branches lose.
    IfndefOrElse,
    /// The patch changes both the `#ifdef` branch and the matching
    /// `#else` branch: no single configuration can cover both.
    IfdefAndElse,
    /// Inside `#if 0`.
    IfZero,
    /// The change is in a macro definition that no configuration expands.
    UnusedMacro,
    /// None of the above patterns matched (not a Table IV row; kept so the
    /// classifier is total).
    Unknown,
}

impl fmt::Display for UncoveredReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UncoveredReason::IfdefNotSetByAllyesconfig => {
                "change under #ifdef variable not set by allyesconfig"
            }
            UncoveredReason::IfdefNeverSetInKernel => {
                "change under #ifdef variable never set in the kernel"
            }
            UncoveredReason::IfdefModule => "change under #ifdef MODULE",
            UncoveredReason::IfndefOrElse => "change under #ifndef or #else",
            UncoveredReason::IfdefAndElse => "change under both #ifdef and #else",
            UncoveredReason::IfZero => "change under #if 0",
            UncoveredReason::UnusedMacro => "change in unused macro",
            UncoveredReason::Unknown => "unclassified",
        };
        f.write_str(s)
    }
}

/// Classify one uncovered mutation within the file `map` describes.
///
/// `model` and `dead` come from the allyesconfig attempt's Kconfig model;
/// `all_sections_changed` should be true when the same patch also changed
/// the matching `#else`/`#if` counterpart (detected by the caller across
/// mutations); `macro_was_expanded` reports whether the mutated macro's
/// name ever appeared among expanded macros in any attempted `.i`.
pub fn classify(
    token: &MutationToken,
    map: &SourceMap,
    model: &KconfigModel,
    dead: &DeadSymbols,
    allyes: &jmake_kconfig::Config,
    macro_was_expanded: bool,
) -> UncoveredReason {
    if token.kind == MutationKind::Define && !macro_was_expanded {
        return UncoveredReason::UnusedMacro;
    }
    let conds = &map.cond_map;
    // Inspect innermost-outward; the innermost decisive guard wins. A
    // token on an opener, `#elif` or `#else` certifies the branch it
    // opens.
    for b in conds.chain(conds.branch_of(token.line)) {
        let opener = conds.opener(b.group);
        if b.branch > 0 {
            // The else-of-ifndef is the positively-guarded branch; keep
            // looking outward. Any other later branch is in the else of a
            // guard allyesconfig satisfies.
            if opener.kind == CondKind::Ifndef {
                continue;
            }
            return UncoveredReason::IfndefOrElse;
        }
        match opener.kind {
            CondKind::If => {
                if opener.is_if_zero() {
                    return UncoveredReason::IfZero;
                }
                let e = opener.operand.trim();
                if let Some(var) = single_defined_var(e) {
                    return classify_var(&var, model, dead, allyes);
                }
                if e.starts_with('!') {
                    return UncoveredReason::IfndefOrElse;
                }
            }
            CondKind::Ifdef => {
                let var = opener.operand.split_whitespace().next().unwrap_or("");
                if var == "MODULE" {
                    return UncoveredReason::IfdefModule;
                }
                return classify_var(var, model, dead, allyes);
            }
            // `#ifndef`: allyesconfig sets the variable, this branch loses.
            _ => return UncoveredReason::IfndefOrElse,
        }
    }
    UncoveredReason::Unknown
}

/// Upgrade a pair of reasons when a patch changed both branches of the
/// same conditional (paper Table IV row 5).
pub fn detect_both_branches(map: &SourceMap, tokens: &[&MutationToken]) -> bool {
    // Two uncovered mutations in the if- and else-side of the same
    // (innermost) group.
    let mut sides = std::collections::BTreeSet::new();
    for t in tokens {
        if let Some(b) = map.cond_map.branch_of(t.line) {
            sides.insert((b.group, b.branch > 0));
        }
    }
    sides
        .iter()
        .any(|&(g, is_else)| !is_else && sides.contains(&(g, true)))
}

fn classify_var(
    var: &str,
    model: &KconfigModel,
    dead: &DeadSymbols,
    allyes: &jmake_kconfig::Config,
) -> UncoveredReason {
    let name = var.strip_prefix("CONFIG_").unwrap_or(var);
    if dead.is_dead(model, name) {
        return UncoveredReason::IfdefNeverSetInKernel;
    }
    if !allyes.is_builtin(name) {
        return UncoveredReason::IfdefNotSetByAllyesconfig;
    }
    UncoveredReason::Unknown
}

/// `#if defined(X)` / `#if defined X` with nothing else → the variable.
fn single_defined_var(expr: &str) -> Option<String> {
    let e = expr.trim();
    let inner = e.strip_prefix("defined")?.trim();
    let inner = inner
        .strip_prefix('(')
        .and_then(|i| i.strip_suffix(')'))
        .unwrap_or(inner)
        .trim();
    if !inner.is_empty() && inner.chars().all(|c| c == '_' || c.is_ascii_alphanumeric()) {
        Some(inner.to_string())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::MutationKind;
    use jmake_cpp::analyze;

    fn setup(kconfig: &str) -> (KconfigModel, DeadSymbols, jmake_kconfig::Config) {
        let mut model = KconfigModel::new();
        model.parse_str("Kconfig", kconfig).unwrap();
        let dead = DeadSymbols::compute(&model);
        let allyes = model.allyesconfig();
        (model, dead, allyes)
    }

    fn ctx(file_line: u32) -> MutationToken {
        MutationToken::new(MutationKind::Context, "f.c", file_line)
    }

    #[test]
    fn if_zero_detected() {
        let (m, d, a) = setup("");
        let src = "#if 0\nint dead;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfZero
        );
    }

    #[test]
    fn parenthesized_if_zero_detected() {
        let (m, d, a) = setup("");
        let src = "#if (0)\nint dead;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfZero
        );
    }

    #[test]
    fn module_guard_detected() {
        let (m, d, a) = setup("");
        let src = "#ifdef MODULE\nint mod_only;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfdefModule
        );
    }

    #[test]
    fn never_set_vs_not_set_by_allyesconfig() {
        // TINY depends on !FULL: settable but not by allyesconfig.
        // GHOST is undeclared: never settable.
        let (m, d, a) =
            setup("config FULL\n\tbool \"f\"\nconfig TINY\n\tbool \"t\"\n\tdepends on !FULL\n");
        let tiny = "#ifdef CONFIG_TINY\nint t;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(tiny), &m, &d, &a, true),
            UncoveredReason::IfdefNotSetByAllyesconfig
        );
        let ghost = "#ifdef CONFIG_GHOST\nint g;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(ghost), &m, &d, &a, true),
            UncoveredReason::IfdefNeverSetInKernel
        );
    }

    #[test]
    fn ifndef_and_else_detected() {
        let (m, d, a) = setup("config NET\n\tbool \"n\"\n");
        let ifndef = "#ifndef CONFIG_NET\nint fallback;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(ifndef), &m, &d, &a, true),
            UncoveredReason::IfndefOrElse
        );
        let else_side = "#ifdef CONFIG_NET\nint with;\n#else\nint without;\n#endif\n";
        assert_eq!(
            classify(&ctx(4), &analyze(else_side), &m, &d, &a, true),
            UncoveredReason::IfndefOrElse
        );
    }

    #[test]
    fn else_of_ifndef_looks_outward() {
        let (m, d, a) = setup("");
        // The else of an ifndef is the "defined" branch — covered when the
        // guard is defined; classification should not blame it.
        let src = "#ifndef GUARD\nint a;\n#else\nint b;\n#endif\n";
        assert_eq!(
            classify(&ctx(4), &analyze(src), &m, &d, &a, true),
            UncoveredReason::Unknown
        );
    }

    #[test]
    fn defined_expression_form() {
        let (m, d, a) = setup("");
        let src = "#if defined(CONFIG_NOPE)\nint x;\n#endif\n";
        assert_eq!(
            classify(&ctx(2), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfdefNeverSetInKernel
        );
    }

    #[test]
    fn unused_macro_detected() {
        let (m, d, a) = setup("");
        let tok = MutationToken::new(MutationKind::Define, "f.c", 1);
        let src = "#define NEVER_USED(x) ((x) + 1)\n";
        assert_eq!(
            classify(&tok, &analyze(src), &m, &d, &a, false),
            UncoveredReason::UnusedMacro
        );
        // But an expanded macro with a live guard is not "unused".
        assert_ne!(
            classify(&tok, &analyze(src), &m, &d, &a, true),
            UncoveredReason::UnusedMacro
        );
    }

    #[test]
    fn nested_guards_use_innermost() {
        let (m, d, a) = setup("config NET\n\tbool \"n\"\n");
        let src = "#ifdef CONFIG_NET\n#if 0\nint x;\n#endif\n#endif\n";
        assert_eq!(
            classify(&ctx(3), &analyze(src), &m, &d, &a, true),
            UncoveredReason::IfZero
        );
    }

    #[test]
    fn both_branches_detection() {
        let src = "#ifdef A\nint a;\n#else\nint b;\n#endif\nint c;\n";
        let t1 = ctx(2);
        let t2 = ctx(4);
        let t3 = ctx(6);
        assert!(detect_both_branches(&analyze(src), &[&t1, &t2]));
        assert!(!detect_both_branches(&analyze(src), &[&t1, &t3]));
        assert!(!detect_both_branches(&analyze(src), &[&t2]));
    }

    #[test]
    fn endif_pops_correctly() {
        let (m, d, a) = setup("");
        let src = "#ifdef MODULE\nint m;\n#endif\nint after;\n";
        assert_eq!(
            classify(&ctx(4), &analyze(src), &m, &d, &a, true),
            UncoveredReason::Unknown
        );
    }
}

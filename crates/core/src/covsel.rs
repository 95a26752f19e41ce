//! Coverage-maximizing configuration generation — the paper's proposed
//! complement (§VI/§VII).
//!
//! > "JMake could be complemented with more sophisticated configuration
//! > generation techniques [Vampyr, Troll] to obtain better results in
//! > such cases [#ifndef, #else branches]."
//!
//! Given the conditional structure of a file and a baseline configuration
//! (allyesconfig), this module greedily synthesizes additional
//! configurations that flip specific variables *off* so that `#ifndef X`
//! and `#else` branches become live. Each generated configuration is the
//! allyesconfig assignment with a set of compatible flips applied, fed
//! back through the dependency solver.

use crate::archsel::Target;
use jmake_cpp::{analyze, CondKind};
use jmake_kbuild::{BuildEngine, ConfigKind, SourceTree};
use jmake_kconfig::{Config, Expr, KconfigModel};
use jmake_reach::{Reach, ReachClass};
use std::collections::BTreeSet;

/// A variable the file's conditionals want in a specific state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Want {
    /// Variable name without the `CONFIG_` prefix.
    pub var: String,
    /// Desired state: `false` = off (the `#ifndef`/`#else` side).
    pub on: bool,
}

/// Extract the variable polarities a file's conditional branches need.
///
/// Only decidable forms are collected: `#ifdef CONFIG_X` /
/// `#ifndef CONFIG_X` / `#if defined(CONFIG_X)` and their `#else` sides.
/// Guards on `MODULE`, `#if 0`, and complex expressions are skipped —
/// they are handled by allmodconfig and classification instead.
pub fn branch_wants(content: &str) -> Vec<Want> {
    let conds = analyze(content).cond_map;
    let mut out: BTreeSet<Want> = BTreeSet::new();
    for (g, group) in conds.groups.iter().enumerate() {
        let opener = conds.opener(g as u32);
        let var = match opener.kind {
            CondKind::Ifdef | CondKind::Ifndef => opener
                .operand
                .split_whitespace()
                .next()
                .and_then(|v| v.strip_prefix("CONFIG_")),
            _ => opener
                .operand
                .trim()
                .strip_prefix("defined")
                .map(|r| {
                    r.trim()
                        .trim_start_matches('(')
                        .trim_end_matches(')')
                        .trim()
                })
                .and_then(|v| v.strip_prefix("CONFIG_"))
                // Complex expressions (&&, ||, comparisons) are not
                // single-variable branches; skip them.
                .filter(|v| {
                    !v.is_empty() && v.chars().all(|c| c == '_' || c.is_ascii_alphanumeric())
                }),
        };
        let Some(var) = var else { continue };
        // The if-side wants the variable on (off under `#ifndef`); any
        // `#elif`/`#else` wants the opposite.
        let on = opener.kind != CondKind::Ifndef;
        out.insert(Want {
            var: var.to_string(),
            on,
        });
        if group.branches.len() > 1 {
            out.insert(Want {
                var: var.to_string(),
                on: !on,
            });
        }
    }
    out.into_iter().collect()
}

/// Greedily build up to `limit` configurations over `baseline`
/// (allyesconfig) that realize the *off* wants the baseline misses.
///
/// Compatible flips are batched into one configuration; conflicting wants
/// (one branch needs X on, another needs X off) are split across
/// configurations — the reason one configuration can never cover both
/// sides of an `#ifdef`/`#else` pair.
pub fn generate_cover_targets(
    arch: &str,
    baseline: &Config,
    wants: &[Want],
    model: Option<&KconfigModel>,
    limit: usize,
) -> Vec<Target> {
    // Wants the baseline already satisfies are free; collect the rest.
    let missing: Vec<&Want> = wants
        .iter()
        .filter(|w| baseline.is_builtin(&w.var) != w.on)
        .collect();
    if missing.is_empty() {
        return Vec::new();
    }
    // Off-wants become flips directly. On-wants of variables allyesconfig
    // could not set are chased through the Kconfig model: if the symbol's
    // dependencies contain negated variables (`depends on !FULL`), flip
    // those off and request the symbol — the Troll-style move.
    let mut flips: BTreeSet<String> = BTreeSet::new();
    let mut forced_on: BTreeSet<String> = BTreeSet::new();
    for w in &missing {
        if !w.on {
            flips.insert(w.var.clone());
            continue;
        }
        let Some(model) = model else {
            continue;
        };
        let Some(sym) = model.symbol(&w.var) else {
            continue; // undeclared: nothing can enable it
        };
        if let Some(deps) = &sym.depends {
            let blockers = negated_symbols(deps);
            if !blockers.is_empty() {
                flips.extend(blockers);
                forced_on.insert(w.var.clone());
            }
        }
    }
    if flips.is_empty() && forced_on.is_empty() {
        return Vec::new();
    }
    let mut targets = Vec::new();
    // One configuration per batch of ≤8 flips (smaller batches isolate
    // interacting variables), capped at `limit`. Forced-on symbols ride
    // along in every batch (they are harmless when their blockers are in
    // a different batch).
    let flip_vec: Vec<String> = flips.into_iter().collect();
    for (i, chunk) in flip_vec.chunks(8).enumerate() {
        if targets.len() >= limit {
            break;
        }
        let mut content = String::new();
        for (name, value) in baseline.enabled_symbols() {
            if chunk.iter().any(|c| c == name) {
                continue; // flipped off
            }
            content.push_str(&format!("CONFIG_{name}={value}\n"));
        }
        for name in &forced_on {
            if !chunk.iter().any(|c| c == name) {
                content.push_str(&format!("CONFIG_{name}=y\n"));
            }
        }
        for name in chunk {
            content.push_str(&format!("# CONFIG_{name} is not set\n"));
        }
        targets.push(Target::new(
            arch,
            ConfigKind::Custom {
                name: format!("cover-{i}"),
                content,
            },
        ));
    }
    targets
}

/// One member of a selected configuration portfolio (DESIGN.md §15).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortfolioMember {
    /// The configuration every trial fans out to.
    pub kind: ConfigKind,
    /// Virtual-clock cost (µs) of creating the configuration, measured by
    /// solving it on a scratch engine — the denominator of the greedy
    /// lines-per-virtual-dollar objective.
    pub cost_virtual_us: u64,
    /// Lines newly covered when this member joins the portfolio: the
    /// allyes-reachable count for member 0, newly-present conditional
    /// lines for every randconfig member.
    pub new_lines: usize,
}

/// Result of greedy coverage-vs-budget selection over seeded randconfig
/// candidates ([`select_portfolio`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Portfolio {
    /// Architecture the portfolio was selected for (the primary model).
    pub arch: String,
    /// Requested portfolio size K (selection may stop earlier when no
    /// candidate adds coverage).
    pub requested: usize,
    /// Base sampling seed; candidate i uses `rand_seed + i`.
    pub rand_seed: u64,
    /// Number of distinct randconfig candidates sampled and scored.
    pub pool: usize,
    /// Selected members in greedy order; member 0 is always allyesconfig
    /// (the K=1 baseline).
    pub members: Vec<PortfolioMember>,
    /// Lines classified allyes-reachable — covered by member 0.
    pub allyes_lines: usize,
    /// Lines only present under some non-allyes configuration.
    pub conditional_lines: usize,
    /// Conditional lines covered by the selected randconfig members.
    pub covered_conditional_lines: usize,
    /// Lines statically proven dead — no configuration ever reaches them.
    pub dead_lines: usize,
    /// Conditional lines no sampled candidate reaches. Honest attribution:
    /// not provably dead, just beyond this seed pool (headers nobody
    /// includes, undecidable conditions, unsampled corners).
    pub unfixable_lines: usize,
}

impl Portfolio {
    /// The selected randconfig seeds, in greedy order.
    pub fn seeds(&self) -> Vec<u64> {
        self.members
            .iter()
            .filter_map(|m| match m.kind {
                ConfigKind::Rand { seed } => Some(seed),
                _ => None,
            })
            .collect()
    }

    /// Sum of member configuration-creation costs (µs, virtual clock).
    pub fn total_cost_virtual_us(&self) -> u64 {
        self.members.iter().map(|m| m.cost_virtual_us).sum()
    }

    /// Lines covered by the whole portfolio (allyes + selected members).
    pub fn covered_lines(&self) -> usize {
        self.allyes_lines + self.covered_conditional_lines
    }

    /// All classified lines: allyes + conditional + dead.
    pub fn total_lines(&self) -> usize {
        self.allyes_lines + self.conditional_lines + self.dead_lines
    }
}

/// Greedily select a portfolio of `k` configurations maximizing
/// newly-reachable lines per virtual-clock dollar (ROADMAP item 3).
///
/// Member 0 is always allyesconfig — the K=1 baseline the paper
/// evaluates. The remaining `k − 1` slots are filled from a pool of
/// seeded randconfig candidates (`rand_seed + i`, deterministic per
/// [`KconfigModel::randconfig`]): each round picks the candidate whose
/// count of *newly*-present conditional lines per configuration-creation
/// cost is maximal, comparing gains by cross-multiplication (no floats)
/// and breaking exact ties toward the smaller seed. Selection stops early
/// once no candidate adds coverage.
///
/// "Present" is the reach analyzer's end-to-end notion
/// ([`Reach::line_present`]): the `#if` stack must evaluate to
/// definitely-true and, for `.c` files, the Kbuild guard chain must open
/// the translation unit. Lines no configuration can reach are attributed
/// honestly: statically-proven-dead lines count as `dead_lines`,
/// conditional lines beyond the sampled pool as `unfixable_lines`.
///
/// Everything here is a pure function of `(tree, arch, k, rand_seed)` —
/// the scratch engine's virtual clock never touches the evaluation run's
/// clock, so selection does not perturb report identity.
///
/// # Errors
///
/// Any configuration-solve failure (missing `arch/<arch>/Kconfig`,
/// unknown arch) is returned as a rendered message.
pub fn select_portfolio(
    tree: &SourceTree,
    arch: &str,
    k: usize,
    rand_seed: u64,
) -> Result<Portfolio, String> {
    if k == 0 {
        return Err("portfolio size must be at least 1".to_string());
    }
    let mut engine = BuildEngine::new(tree.clone());
    let t0 = engine.clock.now_us();
    let allyes = engine
        .make_config(arch, &ConfigKind::AllYes)
        .map_err(|e| format!("{arch}: {e}"))?;
    let allyes_cost = engine.clock.now_us() - t0;

    let mut reach = Reach::new(tree);
    reach.add_arch(arch, &allyes, None);
    let classified = reach.analyze();

    // Partition the line universe. Conditional lines are the optimization
    // target; allyes lines belong to member 0 by construction and dead
    // lines to nobody.
    let mut allyes_lines = 0usize;
    let mut dead_lines = 0usize;
    let mut cond_lines: Vec<(&str, u32)> = Vec::new();
    for (path, file) in &classified.files {
        for (i, class) in file.classes.iter().enumerate() {
            match class {
                ReachClass::AllyesReachable => allyes_lines += 1,
                ReachClass::Dead { .. } => dead_lines += 1,
                ReachClass::ConditionallyReachable { .. } => {
                    cond_lines.push((path.as_str(), i as u32 + 1));
                }
            }
        }
    }

    // Sample the candidate pool: distinct seeds, distinct solved configs
    // (two seeds reaching the same fixed point are one candidate — the
    // smaller seed wins the name). Pool size scales with K so deeper
    // portfolios see more corners, independent of which K get selected.
    let pool_n = (4 * k).clamp(16, 64);
    struct Candidate {
        seed: u64,
        cost: u64,
        present: Vec<bool>,
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut seen_configs: BTreeSet<String> = BTreeSet::new();
    seen_configs.insert(allyes.config.render());
    for i in 0..pool_n as u64 {
        let seed = rand_seed.wrapping_add(i);
        let kind = ConfigKind::Rand { seed };
        let t0 = engine.clock.now_us();
        let built = engine
            .make_config(arch, &kind)
            .map_err(|e| format!("{arch}: {e}"))?;
        let cost = engine.clock.now_us() - t0;
        if !seen_configs.insert(built.config.render()) {
            continue;
        }
        let present = cond_lines
            .iter()
            .map(|(path, line)| reach.line_present(path, *line, &built.config))
            .collect();
        candidates.push(Candidate {
            seed,
            cost,
            present,
        });
    }

    let mut members = vec![PortfolioMember {
        kind: ConfigKind::AllYes,
        cost_virtual_us: allyes_cost,
        new_lines: allyes_lines,
    }];
    let mut covered = vec![false; cond_lines.len()];
    let mut used: BTreeSet<u64> = BTreeSet::new();
    for _ in 1..k {
        // Pick argmax of gain/cost by cross-multiplication; exact ties go
        // to the smaller seed (candidates iterate in ascending seed order,
        // so strict improvement is required to displace the incumbent).
        let mut best: Option<(usize, usize)> = None; // (candidate idx, gain)
        for (ci, cand) in candidates.iter().enumerate() {
            if used.contains(&cand.seed) {
                continue;
            }
            let gain = cand
                .present
                .iter()
                .zip(&covered)
                .filter(|(p, c)| **p && !**c)
                .count();
            if gain == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((bi, bg)) => {
                    (gain as u128) * u128::from(candidates[bi].cost.max(1))
                        > (bg as u128) * u128::from(cand.cost.max(1))
                }
            };
            if better {
                best = Some((ci, gain));
            }
        }
        let Some((ci, gain)) = best else {
            break; // no candidate adds coverage — stop early
        };
        let cand = &candidates[ci];
        used.insert(cand.seed);
        for (slot, p) in covered.iter_mut().zip(&cand.present) {
            *slot |= *p;
        }
        members.push(PortfolioMember {
            kind: ConfigKind::Rand { seed: cand.seed },
            cost_virtual_us: cand.cost,
            new_lines: gain,
        });
    }

    let covered_conditional_lines = covered.iter().filter(|c| **c).count();
    let unfixable_lines = (0..cond_lines.len())
        .filter(|&i| !candidates.iter().any(|c| c.present[i]))
        .count();
    Ok(Portfolio {
        arch: arch.to_string(),
        requested: k,
        rand_seed,
        pool: candidates.len(),
        members,
        allyes_lines,
        conditional_lines: cond_lines.len(),
        covered_conditional_lines,
        dead_lines,
        unfixable_lines,
    })
}

/// Variables that appear under a negation in a dependency expression.
fn negated_symbols(e: &Expr) -> BTreeSet<String> {
    fn walk(e: &Expr, negated: bool, out: &mut BTreeSet<String>) {
        match e {
            Expr::Const(_) => {}
            Expr::Sym(n) => {
                if negated {
                    out.insert(n.clone());
                }
            }
            Expr::Not(inner) => walk(inner, !negated, out),
            Expr::And(a, b) | Expr::Or(a, b) => {
                walk(a, negated, out);
                walk(b, negated, out);
            }
        }
    }
    let mut out = BTreeSet::new();
    walk(e, false, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmake_kconfig::Tristate;

    #[test]
    fn wants_extracted_with_polarity() {
        let src =
            "#ifdef CONFIG_A\nint a;\n#else\nint b;\n#endif\n#ifndef CONFIG_C\nint c;\n#endif\n";
        let wants = branch_wants(src);
        assert!(wants.contains(&Want {
            var: "A".into(),
            on: true
        }));
        assert!(wants.contains(&Want {
            var: "A".into(),
            on: false
        }));
        assert!(wants.contains(&Want {
            var: "C".into(),
            on: false
        }));
    }

    #[test]
    fn non_config_guards_ignored() {
        let src = "#ifdef MODULE\nint m;\n#endif\n#if 0\nint z;\n#endif\n#if defined(CONFIG_X) && defined(CONFIG_Y)\nint xy;\n#endif\n";
        let wants = branch_wants(src);
        assert!(wants.is_empty(), "{wants:?}");
    }

    #[test]
    fn defined_form_extracted() {
        let wants = branch_wants("#if defined(CONFIG_PM)\nint p;\n#endif\n");
        assert_eq!(
            wants,
            vec![Want {
                var: "PM".into(),
                on: true
            }]
        );
    }

    #[test]
    fn generator_flips_off_wants_only() {
        let mut baseline = Config::default();
        baseline.set("A", Tristate::Y);
        baseline.set("B", Tristate::Y);
        let wants = vec![
            Want {
                var: "A".into(),
                on: false,
            }, // needs a flip
            Want {
                var: "B".into(),
                on: true,
            }, // already satisfied
            Want {
                var: "Z".into(),
                on: true,
            }, // unsatisfiable (allyes already failed)
        ];
        let targets = generate_cover_targets("x86_64", &baseline, &wants, None, 4);
        assert_eq!(targets.len(), 1);
        match &targets[0].kind {
            ConfigKind::Custom { name, content } => {
                assert_eq!(name, "cover-0");
                assert!(content.contains("# CONFIG_A is not set"));
                assert!(content.contains("CONFIG_B=y"));
                assert!(!content.contains("CONFIG_A=y"));
            }
            other => panic!("wrong kind {other:?}"),
        }
    }

    #[test]
    fn satisfied_baseline_needs_no_targets() {
        let mut baseline = Config::default();
        baseline.set("A", Tristate::Y);
        let wants = vec![Want {
            var: "A".into(),
            on: true,
        }];
        assert!(generate_cover_targets("arm", &baseline, &wants, None, 4).is_empty());
    }

    /// A tree where one line sits behind `#ifndef CONFIG_FULL` — invisible
    /// to allyesconfig, reachable by any randconfig that samples FULL off —
    /// plus one provably dead line and one unconditional line.
    fn portfolio_tree() -> SourceTree {
        let mut tree = SourceTree::new();
        tree.insert(
            "Kconfig",
            "config FULL\n\tbool \"full\"\n\nconfig DRV\n\tbool \"drv\"\n",
        );
        tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        tree.insert("Makefile", "obj-y += drivers/\n");
        tree.insert("drivers/Makefile", "obj-$(CONFIG_DRV) += drv.o\n");
        tree.insert(
            "drivers/drv.c",
            "#ifndef CONFIG_FULL\nint lean_only;\n#endif\n#ifdef CONFIG_NEVER\nint dead;\n#endif\nint live;\n",
        );
        tree
    }

    #[test]
    fn portfolio_member_zero_is_allyes_and_k1_is_the_baseline() {
        let p = select_portfolio(&portfolio_tree(), "x86_64", 1, 7).unwrap();
        assert_eq!(p.members.len(), 1);
        assert_eq!(p.members[0].kind, ConfigKind::AllYes);
        assert_eq!(p.members[0].new_lines, p.allyes_lines);
        assert_eq!(p.covered_conditional_lines, 0);
        assert!(p.dead_lines >= 1, "CONFIG_NEVER line should be dead");
    }

    #[test]
    fn portfolio_covers_the_ifndef_line_allyes_misses() {
        let p = select_portfolio(&portfolio_tree(), "x86_64", 8, 7).unwrap();
        assert!(
            p.covered_conditional_lines >= 1,
            "some sampled config must set FULL=n: {p:?}"
        );
        assert!(p.members.len() >= 2);
        assert!(matches!(p.members[1].kind, ConfigKind::Rand { .. }));
        assert!(p.members[1].new_lines >= 1);
        assert!(p.members[1].cost_virtual_us > 0);
        // Greedy stops once nothing new is coverable; a single #ifndef
        // branch needs exactly one extra config.
        assert_eq!(p.members.len(), 2);
    }

    #[test]
    fn portfolio_selection_is_deterministic() {
        let tree = portfolio_tree();
        let a = select_portfolio(&tree, "x86_64", 4, 319).unwrap();
        let b = select_portfolio(&tree, "x86_64", 4, 319).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn portfolio_rejects_k_zero_and_unknown_arch() {
        let tree = portfolio_tree();
        assert!(select_portfolio(&tree, "x86_64", 0, 1).is_err());
        assert!(select_portfolio(&tree, "no_such_arch", 2, 1).is_err());
    }

    #[test]
    fn limit_is_respected() {
        let baseline = {
            let mut c = Config::default();
            for i in 0..40 {
                c.set(format!("V{i}"), Tristate::Y);
            }
            c
        };
        let wants: Vec<Want> = (0..40)
            .map(|i| Want {
                var: format!("V{i}"),
                on: false,
            })
            .collect();
        let targets = generate_cover_targets("x86_64", &baseline, &wants, None, 2);
        assert_eq!(targets.len(), 2);
    }
}

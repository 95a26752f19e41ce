//! The conditional map: the `#if`/`#ifdef`/`#ifndef`/`#elif`/`#else`/
//! `#endif` structure of one file, recorded once by [`crate::analyze()`].
//!
//! The preprocessor's [`crate::cond::CondStack`] decides which branch is
//! live under one macro table; this map decides nothing. It records which
//! group and branch every physical line sits in, so the readers that only
//! need the structure — the Table IV classifier, the pre-compilation
//! warnings, coverage wants, the reach analyzer — share one walk instead
//! of each re-splitting the file into logical lines.
//!
//! Readers differ on where a directive line itself belongs, so the map
//! offers both attributions: [`CondMap::region`] puts a conditional
//! directive in the region around its group (it is read whatever branch
//! wins), [`CondMap::branch_of`] puts an opener, `#elif` or `#else` in the
//! branch it opens. [`CondMap::directive_at`] tells a reader which
//! directive a line belongs to when its own rule needs more.

use crate::lines::LogicalLine;

/// A conditional-compilation directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CondKind {
    /// `#if EXPR`.
    If,
    /// `#ifdef NAME`.
    Ifdef,
    /// `#ifndef NAME`.
    Ifndef,
    /// `#elif EXPR`.
    Elif,
    /// `#else`.
    Else,
    /// `#endif`.
    Endif,
}

/// One branch of one group: `group` indexes [`CondMap::groups`], `branch`
/// is 0 for the opener's branch, 1 for the first `#elif`/`#else`, and so
/// on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BranchId {
    /// Group index, in opener order.
    pub group: u32,
    /// Branch index within the group.
    pub branch: u32,
}

/// One conditional directive, as a (possibly spliced) logical line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondDirective {
    /// Which directive.
    pub kind: CondKind,
    /// Text after the directive name, comments removed and leading
    /// blanks trimmed.
    pub operand: String,
    /// First physical line (1-based).
    pub first_line: u32,
    /// Last physical line (1-based; later than `first_line` when spliced).
    pub last_line: u32,
    /// The branch an opener, `#elif` or `#else` opens; `None` for an
    /// `#endif` and for an `#elif`/`#else` with no open group.
    pub opens: Option<BranchId>,
}

impl CondDirective {
    /// True for `#if 0`, also written `#if (0)`.
    pub fn is_if_zero(&self) -> bool {
        self.kind == CondKind::If && is_literal_zero(&self.operand)
    }
}

/// Is an `#if` operand the literal constant zero? Comments are already
/// gone from logical lines, but residue like `0 /* disabled */` and one
/// pair of parentheses, `(0)`, are accepted either way.
fn is_literal_zero(operand: &str) -> bool {
    let mut s = operand;
    for marker in ["/*", "//"] {
        s = s.split(marker).next().unwrap_or(s);
    }
    let s = s.trim();
    let s = s
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .unwrap_or(s);
    s.trim() == "0"
}

/// One `#if`/`#ifdef`/`#ifndef` … `#endif` group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CondGroup {
    /// The branch this group is nested in; `None` at file level.
    pub parent: Option<BranchId>,
    /// Indices into [`CondMap::directives`]: the opener first, then each
    /// `#elif`/`#else` in source order.
    pub branches: Vec<usize>,
    /// Index into [`CondMap::directives`] of the closing `#endif`; `None`
    /// when the group runs to end of file.
    pub endif: Option<usize>,
}

/// Per physical line: the region around it and its directive, if any.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct LineCond {
    region: Option<BranchId>,
    directive: Option<u32>,
}

/// The conditional structure of one file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CondMap {
    /// Every conditional directive, in source order.
    pub directives: Vec<CondDirective>,
    /// Every group, in opener order.
    pub groups: Vec<CondGroup>,
    lines: Vec<LineCond>,
    /// Innermost branch still open at end of file.
    tail: Option<BranchId>,
    /// False when an `#elif`/`#else`/`#endif` has no open group or a
    /// group is never closed.
    pub balanced: bool,
    /// The classic include guard: the first non-blank logical line is
    /// `#ifndef G`, the second `#define G`, and that group's `#endif` is
    /// the last non-blank logical line. The guarded group is group 0.
    pub include_guard: Option<String>,
}

impl CondMap {
    /// The innermost branch around 1-based `line`. A conditional
    /// directive belongs to the region around its group, since it is read
    /// whichever branch wins. Lines past the end get the branch still open
    /// at end of file.
    pub fn region(&self, line: u32) -> Option<BranchId> {
        match self.line(line) {
            Some(lc) => lc.region,
            None if line == 0 => None,
            None => self.tail,
        }
    }

    /// The conditional directive 1-based `line` is part of, if any.
    pub fn directive_at(&self, line: u32) -> Option<&CondDirective> {
        let idx = self.line(line)?.directive?;
        self.directives.get(idx as usize)
    }

    /// The branch 1-based `line` belongs to when an opener, `#elif` or
    /// `#else` belongs to the branch it opens; every other line is in its
    /// [`CondMap::region`].
    pub fn branch_of(&self, line: u32) -> Option<BranchId> {
        match self.directive_at(line).and_then(|d| d.opens) {
            Some(b) => Some(b),
            None => self.region(line),
        }
    }

    /// `branch` and the branches enclosing it, innermost first.
    pub fn chain(&self, branch: Option<BranchId>) -> impl Iterator<Item = BranchId> + '_ {
        std::iter::successors(branch, |b| self.groups[b.group as usize].parent)
    }

    /// The directive opening `group`.
    pub fn opener(&self, group: u32) -> &CondDirective {
        &self.directives[self.groups[group as usize].branches[0]]
    }

    fn line(&self, line: u32) -> Option<&LineCond> {
        self.lines.get((line as usize).checked_sub(1)?)
    }
}

/// Builds a [`CondMap`] from a file's logical lines, fed in order.
#[derive(Debug, Default)]
pub(crate) struct CondMapBuilder {
    map: CondMap,
    open: Vec<BranchId>,
    /// The first two non-blank logical lines, as (directive name, operand)
    /// when they are directives.
    leading: Vec<Option<(String, String)>>,
    last_nonblank: u32,
}

impl CondMapBuilder {
    /// A builder for a file of `lines` physical lines.
    pub(crate) fn new(lines: usize) -> Self {
        let mut b = CondMapBuilder::default();
        b.map.lines = vec![LineCond::default(); lines];
        b.map.balanced = true;
        b
    }

    /// Record one logical line; `directive` is its [`LogicalLine::directive`].
    pub(crate) fn push(&mut self, ll: &LogicalLine, directive: Option<(&str, &str)>) {
        if !ll.is_blank() {
            self.last_nonblank = ll.first_line;
            if self.leading.len() < 2 {
                let named = directive.map(|(n, r)| (n.to_string(), r.to_string()));
                self.leading.push(named);
            }
        }
        let mut lc = LineCond {
            region: self.open.last().copied(),
            directive: None,
        };
        if let Some((kind, rest)) = directive.and_then(|(n, r)| Some((cond_kind(n)?, r))) {
            let opens = self.structure(kind);
            lc = LineCond {
                region: match opens {
                    Some(b) => self.map.groups[b.group as usize].parent,
                    None => self.open.last().copied(),
                },
                directive: Some(self.map.directives.len() as u32),
            };
            self.map.directives.push(CondDirective {
                kind,
                operand: rest.to_string(),
                first_line: ll.first_line,
                last_line: ll.last_line,
                opens,
            });
        }
        let last = (ll.last_line as usize).min(self.map.lines.len());
        if let Some(lines) = self.map.lines.get_mut(ll.first_line as usize - 1..last) {
            lines.fill(lc);
        }
    }

    /// Apply the next directive, of `kind`, to the open groups; returns
    /// the branch it opens.
    fn structure(&mut self, kind: CondKind) -> Option<BranchId> {
        let idx = self.map.directives.len();
        let groups = &mut self.map.groups;
        let opener = matches!(kind, CondKind::If | CondKind::Ifdef | CondKind::Ifndef);
        if !opener && self.open.is_empty() {
            self.map.balanced = false;
            return None;
        }
        match kind {
            _ if opener => {
                let id = BranchId {
                    group: groups.len() as u32,
                    branch: 0,
                };
                groups.push(CondGroup {
                    parent: self.open.last().copied(),
                    branches: vec![idx],
                    endif: None,
                });
                self.open.push(id);
                Some(id)
            }
            CondKind::Endif => {
                let top = self.open.pop()?;
                groups[top.group as usize].endif = Some(idx);
                None
            }
            _ => {
                let top = self.open.last_mut()?;
                let group = &mut groups[top.group as usize];
                top.branch = group.branches.len() as u32;
                group.branches.push(idx);
                Some(*top)
            }
        }
    }

    pub(crate) fn finish(mut self) -> CondMap {
        self.map.tail = self.open.last().copied();
        self.map.balanced &= self.open.is_empty();
        self.map.include_guard = self.include_guard();
        self.map
    }

    fn include_guard(&self) -> Option<String> {
        let [Some((n1, r1)), Some((n2, r2))] = self.leading.as_slice() else {
            return None;
        };
        let guard = r1.split_whitespace().next()?;
        let endif = self.map.groups.first()?.endif?;
        let closes_file = self.map.directives[endif].first_line == self.last_nonblank;
        let defines = r2.split_whitespace().next() == Some(guard);
        (n1 == "ifndef" && n2 == "define" && defines && closes_file).then(|| guard.to_string())
    }
}

fn cond_kind(name: &str) -> Option<CondKind> {
    Some(match name {
        "if" => CondKind::If,
        "ifdef" => CondKind::Ifdef,
        "ifndef" => CondKind::Ifndef,
        "elif" => CondKind::Elif,
        "else" => CondKind::Else,
        "endif" => CondKind::Endif,
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze;

    fn b(group: u32, branch: u32) -> Option<BranchId> {
        Some(BranchId { group, branch })
    }

    #[test]
    fn nested_groups_and_elif_chain() {
        let src = "int a;\n#ifdef A\nint x;\n#if B\nint y;\n#elif C\nint z;\n#endif\n#else\nint w;\n#endif\n";
        let m = analyze(src).cond_map;
        assert!(m.balanced);
        assert_eq!(m.groups.len(), 2);
        assert_eq!(m.groups[1].parent, b(0, 0));
        assert_eq!(m.groups[0].branches.len(), 2);
        // Plain lines sit in their innermost branch.
        assert_eq!(m.region(1), None);
        assert_eq!(m.region(3), b(0, 0));
        assert_eq!(m.region(5), b(1, 0));
        assert_eq!(m.region(7), b(1, 1));
        assert_eq!(m.region(10), b(0, 1));
        // Directives belong to the region around their group…
        assert_eq!(m.region(4), b(0, 0));
        assert_eq!(m.region(6), b(0, 0));
        assert_eq!(m.region(8), b(0, 0));
        assert_eq!(m.region(9), None);
        // …or, for openers and branch switches, to the branch they open.
        assert_eq!(m.branch_of(4), b(1, 0));
        assert_eq!(m.branch_of(6), b(1, 1));
        assert_eq!(m.branch_of(8), b(0, 0));
        assert_eq!(m.branch_of(9), b(0, 1));
        assert_eq!(
            m.chain(b(1, 1)).collect::<Vec<_>>(),
            vec![b(1, 1).unwrap(), b(0, 0).unwrap()]
        );
        assert_eq!(m.opener(1).operand, "B");
        assert_eq!(m.directive_at(6).map(|d| d.kind), Some(CondKind::Elif));
        assert_eq!(m.directive_at(8).map(|d| d.opens), Some(None));
        assert_eq!(m.groups[1].endif, Some(3));
        assert_eq!(m.directive_at(3), None);
    }

    #[test]
    fn spliced_directive_covers_every_physical_line() {
        let src = "#if defined(A) && \\\n    defined(B)\nint ab;\n#endif\n";
        let m = analyze(src).cond_map;
        let d = m
            .directive_at(2)
            .expect("continuation line is part of the #if");
        assert_eq!((d.first_line, d.last_line), (1, 2));
        assert_eq!(d.operand, "defined(A) &&     defined(B)");
        assert_eq!(m.branch_of(2), b(0, 0));
        assert_eq!(m.region(2), None);
    }

    #[test]
    fn strays_and_unterminated_groups_unbalance() {
        for src in [
            "#endif\nint x;\n",
            "#else\nint x;\n",
            "#elif X\n",
            "#ifdef A\nint a;\n",
        ] {
            assert!(!analyze(src).cond_map.balanced, "{src:?}");
        }
        let m = analyze("#else\nint y;\n#endif\n").cond_map;
        assert!(m.groups.is_empty());
        assert_eq!(m.directive_at(1).map(|d| d.opens), Some(None));
        assert_eq!(m.branch_of(2), None);
        // Lines past the end sit in whatever is still open.
        let open = analyze("#ifdef A\nint a;\n#else\nint b;\n").cond_map;
        assert_eq!(open.region(99), b(0, 1));
        assert_eq!(open.region(0), None);
    }

    #[test]
    fn include_guard_detected_only_around_the_whole_file() {
        let m = analyze("\n#ifndef G_H\n#define G_H\nint g;\n#endif\n\n").cond_map;
        assert_eq!(m.include_guard.as_deref(), Some("G_H"));
        for src in [
            "#ifndef G_H\n#define G_H\nint g;\n#endif\nint after;\n",
            "#ifndef G_H\n#define OTHER\nint g;\n#endif\n",
            "int before;\n#ifndef G_H\n#define G_H\n#endif\n",
            "#ifndef G_H\n#define G_H\nint g;\n",
        ] {
            assert_eq!(analyze(src).cond_map.include_guard, None, "{src:?}");
        }
    }

    #[test]
    fn literal_zero_readings() {
        assert!(is_literal_zero("0"));
        assert!(is_literal_zero("0 /* why */"));
        assert!(is_literal_zero("0 // why"));
        assert!(is_literal_zero("(0)"));
        assert!(is_literal_zero(" ( 0 ) "));
        assert!(!is_literal_zero("1"));
        assert!(!is_literal_zero("0x0 + 0"));
        assert!(!is_literal_zero("CONFIG_FOO"));
        let m = analyze("#if (0)\nint x;\n#endif\n#ifdef ZERO\n#endif\n").cond_map;
        assert!(m.opener(0).is_if_zero());
        assert!(!m.opener(1).is_if_zero());
    }
}

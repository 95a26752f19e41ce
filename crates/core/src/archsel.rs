//! Architecture and configuration selection (paper §III.C).
//!
//! For a file under `arch/<a>/`, the cross-compiler for `<a>` is assumed.
//! For any other file the first guess is a plain `make` on the host
//! (CONFIG_COMPILE_TEST exists to make that work for drivers). Further
//! hints come from the configuration variables gating the file's object in
//! its Makefile: if such a variable is mentioned under some `arch/<a>/`,
//! allyesconfig for `<a>` becomes a candidate, and if it appears in a
//! prepared configuration under `arch/<a>/configs/`, one such file (chosen
//! deterministically) is tried too.

use jmake_kbuild::{ConfigKind, ObjGraph, SourceTree};
use std::collections::BTreeMap;

/// One (architecture, configuration) pair to try.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Target {
    /// Architecture name.
    pub arch: String,
    /// Configuration to create for it.
    pub kind: ConfigKind,
}

impl Target {
    /// Convenience constructor.
    pub fn new(arch: impl Into<String>, kind: ConfigKind) -> Self {
        Target {
            arch: arch.into(),
            kind,
        }
    }

    /// Short human-readable form (`arm/allyesconfig`).
    pub fn describe(&self) -> String {
        format!("{}/{}", self.arch, self.kind)
    }
}

/// Index over `arch/` built once per tree: which architectures mention
/// each configuration variable, and which defconfig files set it.
#[derive(Debug, Clone, Default)]
pub struct ArchSelector {
    /// var → architectures whose subtree mentions it.
    mentions: BTreeMap<String, Vec<String>>,
    /// var → defconfig paths that set it.
    defconfigs: BTreeMap<String, Vec<String>>,
    /// All arch names present in the tree, sorted host-first.
    arches: Vec<String>,
}

impl ArchSelector {
    /// Scan `tree`'s `arch/` subtree and build the index. Nothing outside
    /// `arch/` is read, so two trees with the same `arch/` files (paths
    /// and content) build the same index.
    pub fn new(tree: &SourceTree) -> Self {
        let mut sel = ArchSelector::default();
        for (path, blob) in tree.blobs_under("arch") {
            let rest = &path["arch/".len()..];
            let Some(arch) = rest.split('/').next() else {
                continue;
            };
            if sel.arches.last().map(String::as_str) != Some(arch) {
                sel.arches.push(arch.to_string());
            }
            let is_defconfig = rest.strip_prefix(&format!("{arch}/configs/")).is_some();
            for var in config_vars_in(blob.text(), path.ends_with("Kconfig")) {
                let arches = sel.mentions.entry(var.clone()).or_default();
                if !arches.contains(&arch.to_string()) {
                    arches.push(arch.to_string());
                }
                if is_defconfig {
                    let paths = sel.defconfigs.entry(var).or_default();
                    if !paths.contains(&path.to_string()) {
                        paths.push(path.to_string());
                    }
                }
            }
        }
        // Host first, then arm (the paper's observed second-most-useful),
        // then the rest alphabetically.
        sel.arches
            .sort_by_key(|a| (a != "x86_64", a != "arm", a.clone()));
        sel
    }

    /// The candidate targets for `file`, in trial order.
    pub fn candidates(&self, tree: &SourceTree, file: &str) -> Vec<Target> {
        let mut out: Vec<Target> = Vec::new();
        let push = |t: Target, out: &mut Vec<Target>| {
            if !out.contains(&t) {
                out.push(t);
            }
        };

        if let Some(rest) = file.strip_prefix("arch/") {
            // A file under arch/<a> is assumed compilable for <a>.
            if let Some(arch) = rest.split('/').next() {
                push(Target::new(arch, ConfigKind::AllYes), &mut out);
            }
            return out;
        }
        // First guess: a simple make on the host.
        push(Target::new("x86_64", ConfigKind::AllYes), &mut out);

        let vars = ObjGraph::new(tree).gating_configs(file);
        for var in &vars {
            if let Some(arches) = self.mentions.get(var) {
                let mut sorted = arches.clone();
                sorted.sort_by_key(|a| (a != "x86_64", a != "arm", a.clone()));
                for arch in sorted {
                    push(Target::new(arch, ConfigKind::AllYes), &mut out);
                }
            }
        }
        // Prepared configurations: one per variable, picked
        // deterministically (the paper picks at random).
        for var in &vars {
            if let Some(paths) = self.defconfigs.get(var) {
                let pick = &paths[stable_index(var, paths.len())];
                if let Some(arch) = pick.strip_prefix("arch/").and_then(|r| r.split('/').next()) {
                    push(
                        Target::new(arch, ConfigKind::Defconfig(pick.clone())),
                        &mut out,
                    );
                }
            }
        }
        out
    }

    /// All architectures present in the tree, host-first.
    pub fn arches(&self) -> &[String] {
        &self.arches
    }
}

/// Deterministic stand-in for the paper's random defconfig choice.
fn stable_index(key: &str, len: usize) -> usize {
    let h: u64 = key.bytes().fold(0xcbf29ce484222325u64, |a, b| {
        (a ^ u64::from(b)).wrapping_mul(0x100000001b3)
    });
    (h % len as u64) as usize
}

/// Configuration variables referenced in a file: `CONFIG_X` tokens, plus
/// bare `config X` declarations in Kconfig files.
fn config_vars_in(content: &str, is_kconfig: bool) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = content;
    while let Some(i) = rest.find("CONFIG_") {
        let tail = &rest[i + "CONFIG_".len()..];
        let end = tail
            .find(|c: char| c != '_' && !c.is_ascii_alphanumeric())
            .unwrap_or(tail.len());
        if end > 0 && !out.contains(&tail[..end].to_string()) {
            out.push(tail[..end].to_string());
        }
        rest = &tail[end..];
    }
    if is_kconfig {
        for line in content.lines() {
            let t = line.trim();
            if let Some(name) = t
                .strip_prefix("config ")
                .or_else(|| t.strip_prefix("menuconfig "))
            {
                let name = name.trim();
                if !name.is_empty()
                    && name.chars().all(|c| c == '_' || c.is_ascii_alphanumeric())
                    && !out.contains(&name.to_string())
                {
                    out.push(name.to_string());
                }
            }
            // Dependencies referenced in arch Kconfig count as mentions.
            if let Some(expr) = t
                .strip_prefix("depends on ")
                .or_else(|| t.strip_prefix("select "))
            {
                for word in expr.split(|c: char| !(c == '_' || c.is_ascii_alphanumeric())) {
                    if !word.is_empty()
                        && word.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                        && !out.contains(&word.to_string())
                    {
                        out.push(word.to_string());
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert("Makefile", "obj-y += drivers/\n");
        t.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
        t.insert(
            "arch/arm/Kconfig",
            "config ARM\n\tdef_bool y\nconfig ARM_AMBA\n\tbool \"amba\"\n",
        );
        t.insert(
            "arch/arm/configs/multi_defconfig",
            "CONFIG_ARM_AMBA=y\nCONFIG_PL330_DMA=y\n",
        );
        t.insert(
            "arch/powerpc/Kconfig",
            "config PPC\n\tdef_bool y\nconfig PPC_PSERIES\n\tbool \"pseries\"\n",
        );
        t.insert("drivers/Makefile", "obj-y += dma/ generic/\n");
        t.insert(
            "drivers/dma/Makefile",
            "obj-$(CONFIG_PL330_DMA) += pl330.o\n",
        );
        t.insert("drivers/dma/pl330.c", "int pl330;\n");
        t.insert("arch/arm/kernel/setup.c", "int setup;\n");
        t.insert(
            "drivers/generic/Makefile",
            "obj-$(CONFIG_GENERIC_DRV) += gen.o\n",
        );
        t.insert("drivers/generic/gen.c", "int gen;\n");
        // ARM subtree mentions CONFIG_PL330_DMA (a board file).
        t.insert(
            "arch/arm/mach-foo/board.c",
            "#ifdef CONFIG_PL330_DMA\nint uses_pl330;\n#endif\n",
        );
        t
    }

    #[test]
    fn arch_file_targets_its_own_arch_only() {
        let t = tree();
        let sel = ArchSelector::new(&t);
        let c = sel.candidates(&t, "arch/arm/kernel/setup.c");
        assert_eq!(c, vec![Target::new("arm", ConfigKind::AllYes)]);
    }

    #[test]
    fn host_is_always_first_for_non_arch_files() {
        let t = tree();
        let sel = ArchSelector::new(&t);
        let c = sel.candidates(&t, "drivers/generic/gen.c");
        assert_eq!(c[0], Target::new("x86_64", ConfigKind::AllYes));
    }

    #[test]
    fn makefile_var_mentioned_in_arch_adds_candidate() {
        let t = tree();
        let sel = ArchSelector::new(&t);
        let c = sel.candidates(&t, "drivers/dma/pl330.c");
        assert!(c.contains(&Target::new("arm", ConfigKind::AllYes)), "{c:?}");
        // And the defconfig that sets the variable.
        assert!(
            c.contains(&Target::new(
                "arm",
                ConfigKind::Defconfig("arch/arm/configs/multi_defconfig".to_string())
            )),
            "{c:?}"
        );
        // powerpc never mentions PL330: not a candidate.
        assert!(!c.iter().any(|t| t.arch == "powerpc"));
    }

    #[test]
    fn arches_sorted_host_then_arm() {
        let t = tree();
        let sel = ArchSelector::new(&t);
        assert_eq!(sel.arches()[0], "x86_64");
        assert_eq!(sel.arches()[1], "arm");
    }

    #[test]
    fn kconfig_declarations_count_as_mentions() {
        let t = tree();
        let sel = ArchSelector::new(&t);
        // ARM_AMBA is declared in arch/arm/Kconfig.
        assert!(sel
            .mentions
            .get("ARM_AMBA")
            .is_some_and(|a| a.contains(&"arm".to_string())));
        // And set in the arm defconfig.
        assert!(sel.defconfigs.contains_key("ARM_AMBA"));
    }

    #[test]
    fn candidates_are_deduplicated() {
        let t = tree();
        let sel = ArchSelector::new(&t);
        let c = sel.candidates(&t, "drivers/dma/pl330.c");
        let mut seen = std::collections::BTreeSet::new();
        for target in &c {
            assert!(seen.insert(target.describe()), "duplicate {target:?}");
        }
    }

    #[test]
    fn stable_index_is_deterministic_and_in_range() {
        for len in 1..10 {
            let a = stable_index("CONFIG_FOO", len);
            assert_eq!(a, stable_index("CONFIG_FOO", len));
            assert!(a < len);
        }
    }
}

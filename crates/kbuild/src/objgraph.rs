//! The object graph: which configuration variables gate which files.
//!
//! Paper §III.C: "Configuration variables are taken from Makefile lines
//! that mention the `.o` file corresponding to the C file to compile,
//! recursively from the lines containing labels that are initialized to
//! contain such a `.o` file, or, if the previous heuristics do not select
//! any configuration variables, then any configuration variable mentioned
//! in the Makefile."

use crate::makefile::{Cond, Makefile};
use crate::tree::{dir_of, file_name, SourceTree};
use jmake_kconfig::{Config, Tristate};

/// Answers gating queries for files in a tree.
#[derive(Debug, Clone)]
pub struct ObjGraph<'t> {
    tree: &'t SourceTree,
}

impl<'t> ObjGraph<'t> {
    /// Build over `tree`.
    pub fn new(tree: &'t SourceTree) -> Self {
        ObjGraph { tree }
    }

    /// The configuration variables the paper's heuristic associates with a
    /// `.c` file: variables gating its object (recursively through
    /// composites), else every variable in its Makefile, else nothing.
    pub fn gating_configs(&self, c_path: &str) -> Vec<String> {
        let dir = dir_of(c_path);
        let Some(mk) = Makefile::of_dir(self.tree, dir) else {
            return Vec::new();
        };
        let object = object_of(c_path);
        let direct: Vec<String> = mk
            .conds_for_object(&object)
            .into_iter()
            .filter_map(|c| c.config_var().map(str::to_string))
            .collect();
        if !direct.is_empty() {
            return direct;
        }
        mk.all_config_vars.clone()
    }

    /// True when the directory containing `path` has a Makefile.
    pub fn has_makefile(&self, path: &str) -> bool {
        Makefile::of_dir(self.tree, dir_of(path)).is_some()
    }

    /// The effective tristate under `config` with which `c_path` is built:
    /// the object's own guard combined with every directory-descent guard
    /// up to the tree root. [`Tristate::N`] when anything along the chain
    /// is off or a Makefile is missing.
    pub fn gating_value(&self, c_path: &str, config: &Config) -> Tristate {
        let dir = dir_of(c_path);
        let Some(mk) = Makefile::of_dir(self.tree, dir) else {
            return Tristate::N;
        };
        let object = object_of(c_path);
        let conds = mk.conds_for_object(&object);
        if conds.is_empty() {
            return Tristate::N;
        }
        let own = conds
            .iter()
            .map(|c| cond_value(c, config))
            .max()
            .unwrap_or(Tristate::N);
        own.min(self.descent_value(dir, config))
    }

    /// The combined guard on descending from the root into `dir`.
    pub fn descent_value(&self, dir: &str, config: &Config) -> Tristate {
        let mut value = Tristate::Y;
        let mut current = dir;
        while !current.is_empty() {
            let parent = dir_of(current);
            let name = file_name(current);
            match Makefile::of_dir(self.tree, parent) {
                Some(pmk) => {
                    let conds = pmk.conds_for_subdir(name);
                    if conds.is_empty() {
                        // Parent has a Makefile but never descends here:
                        // arch dirs reach their subdirs through core-y /
                        // head-y machinery we model as unconditional when
                        // the parent is an arch or top-level grouping dir.
                        if !is_structural(parent) {
                            return Tristate::N;
                        }
                    } else {
                        let v = conds
                            .iter()
                            .map(|c| cond_value(c, config))
                            .max()
                            .unwrap_or(Tristate::N);
                        value = value.min(v);
                    }
                }
                None => {
                    // No Makefile in the parent: tolerated for structural
                    // directories (arch/, arch/<a>/), fatal elsewhere.
                    if !is_structural(parent) {
                        return Tristate::N;
                    }
                }
            }
            if value == Tristate::N {
                return Tristate::N;
            }
            current = parent;
        }
        value
    }
}

/// The `.o` corresponding to a `.c` file.
pub fn object_of(c_path: &str) -> String {
    let name = file_name(c_path);
    match name.strip_suffix(".c") {
        Some(stem) => format!("{stem}.o"),
        None => name.to_string(),
    }
}

fn cond_value(cond: &Cond, config: &Config) -> Tristate {
    match cond {
        Cond::Always => Tristate::Y,
        Cond::Module => Tristate::M,
        Cond::Never => Tristate::N,
        Cond::Config(var) => config.get(var),
    }
}

/// Directories whose descent Kbuild hardwires rather than listing in a
/// parent object list: the tree root, `arch`, and each `arch/<a>`.
pub fn is_structural(dir: &str) -> bool {
    dir.is_empty() || dir == "arch" || (dir.starts_with("arch/") && dir.matches('/').count() == 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jmake_kconfig::Tristate;

    fn tree() -> SourceTree {
        let mut t = SourceTree::new();
        t.insert("Makefile", "obj-y += drivers/ kernel/\n");
        t.insert("drivers/Makefile", "obj-$(CONFIG_NET) += net/\n");
        t.insert(
            "drivers/net/Makefile",
            "obj-$(CONFIG_E1000) += e1000.o\ne1000-objs := main.o hw.o\nobj-y += dummy.o\n",
        );
        t.insert("drivers/net/main.c", "int main_src;\n");
        t.insert("drivers/net/dummy.c", "int dummy_src;\n");
        t.insert("kernel/Makefile", "obj-y += sched.o\n");
        t.insert("kernel/sched.c", "int sched;\n");
        t
    }

    fn config(pairs: &[(&str, Tristate)]) -> Config {
        let mut c = Config::default();
        for (k, v) in pairs {
            c.set(*k, *v);
        }
        c
    }

    #[test]
    fn gating_configs_direct_and_composite() {
        let t = tree();
        let g = ObjGraph::new(&t);
        assert_eq!(g.gating_configs("drivers/net/main.c"), vec!["E1000"]);
        // dummy.o is obj-y: no direct var, fallback to all vars in Makefile.
        assert_eq!(g.gating_configs("drivers/net/dummy.c"), vec!["E1000"]);
    }

    #[test]
    fn gating_configs_no_makefile() {
        let t = tree();
        let g = ObjGraph::new(&t);
        assert!(g.gating_configs("include/linux/loose.c").is_empty());
        assert!(!g.has_makefile("include/linux/loose.c"));
        assert!(g.has_makefile("drivers/net/main.c"));
    }

    #[test]
    fn gating_value_follows_descent_chain() {
        let t = tree();
        let g = ObjGraph::new(&t);
        let on = config(&[("NET", Tristate::Y), ("E1000", Tristate::Y)]);
        assert_eq!(g.gating_value("drivers/net/main.c", &on), Tristate::Y);
        // E1000 off: file not built.
        let off = config(&[("NET", Tristate::Y)]);
        assert_eq!(g.gating_value("drivers/net/main.c", &off), Tristate::N);
        // NET off: whole subdir skipped even though E1000=y.
        let no_net = config(&[("E1000", Tristate::Y)]);
        assert_eq!(g.gating_value("drivers/net/main.c", &no_net), Tristate::N);
    }

    #[test]
    fn modular_gating_value() {
        let t = tree();
        let g = ObjGraph::new(&t);
        let modular = config(&[("NET", Tristate::Y), ("E1000", Tristate::M)]);
        assert_eq!(g.gating_value("drivers/net/main.c", &modular), Tristate::M);
    }

    #[test]
    fn unconditional_kernel_file() {
        let t = tree();
        let g = ObjGraph::new(&t);
        assert_eq!(
            g.gating_value("kernel/sched.c", &Config::default()),
            Tristate::Y
        );
    }

    #[test]
    fn unlisted_object_is_not_built() {
        let t = tree();
        let g = ObjGraph::new(&t);
        let on = config(&[("NET", Tristate::Y), ("E1000", Tristate::Y)]);
        // ghost.c has no obj entry.
        assert_eq!(g.gating_value("drivers/net/ghost.c", &on), Tristate::N);
    }

    #[test]
    fn arch_directories_are_structural() {
        let mut t = SourceTree::new();
        t.insert("arch/arm/kernel/Makefile", "obj-y += setup.o\n");
        t.insert("arch/arm/kernel/setup.c", "int s;\n");
        let g = ObjGraph::new(&t);
        assert_eq!(
            g.gating_value("arch/arm/kernel/setup.c", &Config::default()),
            Tristate::Y
        );
    }

    #[test]
    fn missing_intermediate_makefile_blocks() {
        let mut t = SourceTree::new();
        t.insert("Makefile", "obj-y += drivers/\n");
        // drivers/ has no Makefile; deeper file unreachable.
        t.insert("drivers/gpu/Makefile", "obj-y += gpu.o\n");
        t.insert("drivers/gpu/gpu.c", "int g;\n");
        let g = ObjGraph::new(&t);
        assert_eq!(
            g.gating_value("drivers/gpu/gpu.c", &Config::default()),
            Tristate::N
        );
    }
}

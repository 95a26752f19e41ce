//! JMake: dependable compilation checking for kernel janitors.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Lawall & Muller, *JMake: Dependable Compilation for Kernel Janitors*,
//! DSN 2017): a mutation-based tool that certifies, for every line changed
//! by a patch, that the line was actually *subjected to the compiler* by
//! some configuration — and that reports which lines escaped, and why,
//! when certification fails.
//!
//! The approach (paper §III):
//!
//! 1. **Mutate** the changed lines with unique invalid-character tokens
//!    ([`mutation`], [`token`]) — comments skipped, one token per changed
//!    macro, one per conditional-compilation section otherwise;
//! 2. **Select** candidate architectures and configurations from the
//!    file's location and its Makefile's configuration variables
//!    ([`archsel`]);
//! 3. **Preprocess** the mutated files (`make file.i`, grouped up to 50
//!    per invocation) and scan for the tokens; **compile** the pristine
//!    file (`make file.o`) to certify each configuration that surfaced
//!    new tokens ([`check`]);
//! 4. For headers, find and compile candidate `.c` files ranked by
//!    include/hint evidence (paper §III.E);
//! 5. **Classify** any token that never surfaced into the paper's
//!    Table IV categories ([`classify`]).
//!
//! [`driver`] runs the whole pipeline over a commit range in parallel and
//! [`stats`] folds the reports into the paper's tables and figures.
//!
//! # Example
//!
//! ```
//! use jmake_core::{JMake, MutationToken};
//! use jmake_kbuild::{BuildEngine, SourceTree};
//! use jmake_diff::{diff_to_patch, DiffOptions};
//!
//! // A one-file kernel with one driver.
//! let mut tree = SourceTree::new();
//! tree.insert("Kconfig", "config DRV\n\tbool \"drv\"\n");
//! tree.insert("arch/x86_64/Kconfig", "config X86_64\n\tdef_bool y\n");
//! tree.insert("Makefile", "obj-y += drivers/\n");
//! tree.insert("drivers/Makefile", "obj-$(CONFIG_DRV) += drv.o\n");
//! let old = "int drv_init(void)\n{\nreturn 0;\n}\n";
//! let new = "int drv_init(void)\n{\nreturn 1;\n}\n";
//! tree.insert("drivers/drv.c", new);
//!
//! let patch = diff_to_patch("drivers/drv.c", old, new, &DiffOptions::default());
//! let mut engine = BuildEngine::new(tree);
//! let report = JMake::new().check_patch(&mut engine, &patch, "a janitor");
//! assert!(report.is_success());
//! ```

pub mod archsel;
pub mod check;
pub mod classify;
pub mod covsel;
pub mod crosscheck;
pub mod driver;
pub mod mutation;
pub mod precheck;
pub mod report;
pub mod stats;
pub mod token;

pub use archsel::{ArchSelector, Target};
pub use check::{JMake, Options};
pub use classify::UncoveredReason;
pub use covsel::{
    branch_wants, generate_cover_targets, select_portfolio, Portfolio, PortfolioMember, Want,
};
pub use crosscheck::{
    arches_used, cross_check, line_shapes, token_class, token_region_line, CrossCheckReport,
    Discrepancy, DiscrepancyKind, LineShape,
};
pub use driver::{
    run_evaluation, DriverOptions, DriverStats, EvaluationRun, PatchOutcome, PatchResult,
    SchedulerStats, StageQueueStats,
};
pub use mutation::{mutate, mutate_naive, MutationPlan};
pub use precheck::{precheck, PrecheckKind, PrecheckWarning};
pub use report::{FileReport, FileStatus, PatchKind, PatchReport, UncoveredMutation};
pub use stats::{Histogram, SliceStats};
pub use token::{MutationKind, MutationToken, MUTATION_GLYPH};

#[cfg(test)]
mod pipeline_tests;

#[cfg(test)]
mod proptests;

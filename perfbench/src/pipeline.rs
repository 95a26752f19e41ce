//! The evaluation pipeline, called layer by layer through the crates'
//! public functions so each layer's wall time can be taken from outside.
//!
//! This is the sequence `jmake_bench::build_context_from_workload` runs,
//! split at its layer boundaries. The `serve-mixed` workload checks that
//! both produce the same bytes: every hot-seed reply from the daemon
//! (which calls the library function) must equal [`evaluate`]'s render.

use jmake_bench::{render_command, EvalContext};
use jmake_core::{run_evaluation, DriverOptions, DriverStats, SliceStats, UncoveredReason};
use jmake_janitor::{compute_metrics, identify_janitors, Maintainers, Thresholds};
use jmake_kbuild::{ConfigCache, ObjectCache, PreprocCache};
use jmake_synth::{PathologyKind, SynthOutput, WorkloadProfile};
use jmake_trace::Tracer;
use jmake_vcs::{CommitId, LogOptions};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// A generated workload and its `v4.3..v4.4` window.
pub struct Window {
    pub profile: WorkloadProfile,
    pub workload: SynthOutput,
    pub commits: Vec<CommitId>,
    /// Wall seconds of `jmake_synth::generate`.
    pub generate_s: f64,
    /// Wall seconds of `Repo::log`.
    pub log_s: f64,
}

/// Generate the workload and `log` its window.
pub fn open_window(profile: &WorkloadProfile) -> Window {
    let started = Instant::now();
    let workload = jmake_synth::generate(profile);
    let generate_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let commits = workload
        .repo
        .log(&LogOptions::paper_defaults().range("v4.3", "v4.4"))
        .expect("the generator tags v4.3 and v4.4");
    let log_s = started.elapsed().as_secs_f64();
    Window {
        profile: profile.clone(),
        workload,
        commits,
        generate_s,
        log_s,
    }
}

/// A set of caches held outside the driver, so they can be persisted,
/// loaded, or shared across evaluations as the daemon shares them.
pub struct Caches {
    pub objects: Arc<ObjectCache>,
    pub configs: Arc<ConfigCache>,
    pub preproc: Arc<PreprocCache>,
}

impl Caches {
    /// Fresh, empty caches.
    pub fn new() -> Caches {
        Caches {
            objects: Arc::new(ObjectCache::new()),
            configs: Arc::new(ConfigCache::new()),
            preproc: Arc::new(PreprocCache::new()),
        }
    }

    /// Driver options that run `workers` workers against these caches.
    pub fn driver(&self, workers: usize, tracer: Tracer) -> DriverOptions {
        DriverOptions {
            workers,
            object_cache_handle: Some(Arc::clone(&self.objects)),
            config_cache_handle: Some(Arc::clone(&self.configs)),
            preproc_cache_handle: Some(Arc::clone(&self.preproc)),
            tracer,
            ..DriverOptions::default()
        }
    }
}

/// What one evaluation of a window produced and what each layer cost.
pub struct Pass {
    /// Wall seconds of `run_evaluation`.
    pub run_s: f64,
    /// Wall seconds of the two `SliceStats::collect` calls.
    pub slices_s: f64,
    /// Wall seconds of janitor analysis (activity log, MAINTAINERS,
    /// `compute_metrics`, `identify_janitors`).
    pub janitor_s: f64,
    /// Wall seconds of `render_command`.
    pub render_s: f64,
    pub stats: DriverStats,
    /// The rendered report.
    pub report: String,
    /// Sum of every checked patch's virtual-clock time.
    pub virtual_us: u64,
    /// Planted pathologies diagnosed with their Table IV reason.
    pub agreed: usize,
    /// Planted pathologies of the mappable kinds inside the window.
    pub planted: usize,
}

impl Pass {
    /// Commits handed to `run_evaluation` that did not end `Checked`.
    pub fn unchecked(&self) -> usize {
        self.stats.patches - self.stats.checked
    }
}

/// Run the window through the driver, analyse it and render `command`.
pub fn evaluate(window: Window, driver: &DriverOptions, command: &str) -> (Window, Pass) {
    let Window {
        profile,
        workload,
        commits,
        generate_s,
        log_s,
    } = window;

    let started = Instant::now();
    let run = run_evaluation(&workload.repo, &commits, driver);
    let run_s = started.elapsed().as_secs_f64();

    let started = Instant::now();
    let janitor_names: BTreeSet<&str> = workload.janitor_names.iter().map(String::as_str).collect();
    let all = SliceStats::collect(&run.results, &|_| true);
    let janitor = SliceStats::collect(&run.results, &|a| janitor_names.contains(a));
    let slices_s = started.elapsed().as_secs_f64();

    // Same thresholds as `build_context_from_workload`: the paper's
    // window minimum scaled to the workload size.
    let started = Instant::now();
    let activity = workload.full_activity_log();
    let maintainers = Maintainers::parse(
        workload
            .repo
            .checkout(workload.repo.resolve_tag("v4.3").expect("tag"))
            .expect("checkout")
            .get("MAINTAINERS")
            .unwrap_or_default(),
    );
    let metrics = compute_metrics(&activity, &maintainers);
    let scale = profile.commits as f64 / 12_000.0;
    let thresholds = Thresholds {
        min_window_patches: ((20.0 * scale).round() as usize).max(1),
        min_subsystems: 20.min(10 + profile.drivers_per_subsystem),
        ..Thresholds::default()
    };
    let janitor_table = identify_janitors(&metrics, &thresholds);
    let janitor_s = started.elapsed().as_secs_f64();

    let (agreed, planted) = verdict_agreement(&workload, &run.results);
    let virtual_us = run.patch_times_us().iter().sum();
    let stats = run.stats;
    let ctx = EvalContext {
        workload,
        run,
        all,
        janitor,
        thresholds,
        janitor_table,
    };
    let started = Instant::now();
    let report = render_command(&ctx, command).expect("known report command");
    let render_s = started.elapsed().as_secs_f64();

    let window = Window {
        profile,
        workload: ctx.workload,
        commits,
        generate_s,
        log_s,
    };
    let pass = Pass {
        run_s,
        slices_s,
        janitor_s,
        render_s,
        stats,
        report,
        virtual_us,
        agreed,
        planted,
    };
    (window, pass)
}

/// The Table IV reason each mappable planted pathology must be diagnosed
/// with (the other kinds are special files with no single reason).
fn expected_reason(kind: PathologyKind) -> Option<UncoveredReason> {
    match kind {
        PathologyKind::UnsetConfig => Some(UncoveredReason::IfdefNotSetByAllyesconfig),
        PathologyKind::NeverConfig => Some(UncoveredReason::IfdefNeverSetInKernel),
        PathologyKind::Module => Some(UncoveredReason::IfdefModule),
        PathologyKind::IfndefOrElse => Some(UncoveredReason::IfndefOrElse),
        PathologyKind::BothBranches => Some(UncoveredReason::IfdefAndElse),
        PathologyKind::IfZero => Some(UncoveredReason::IfZero),
        PathologyKind::UnusedMacro => Some(UncoveredReason::UnusedMacro),
        _ => None,
    }
}

/// `(agreed, planted)`: of the mappable pathologies the generator planted
/// in commits of the window, how many the run diagnosed with their reason.
/// A planted commit that was not checked counts as a disagreement.
fn verdict_agreement(
    workload: &SynthOutput,
    results: &[jmake_core::PatchResult],
) -> (usize, usize) {
    let by_commit: HashMap<CommitId, Option<&jmake_core::PatchReport>> =
        results.iter().map(|r| (r.commit, r.report())).collect();
    let mut agreed = 0;
    let mut planted = 0;
    for p in &workload.planted {
        let Some(expected) = expected_reason(p.kind) else {
            continue;
        };
        let Some(report) = by_commit.get(&p.commit) else {
            continue; // filtered out of the window by `log`
        };
        planted += 1;
        let diagnosed = report
            .and_then(|r| r.files.iter().find(|f| f.path == p.path))
            .is_some_and(|f| f.uncovered.iter().any(|u| u.reason == expected));
        if diagnosed {
            agreed += 1;
        }
    }
    (agreed, planted)
}

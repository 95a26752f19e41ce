//! The per-layer ledger of a traced run: which layer paid for what.
//!
//! Every value is taken from outside the program: wall time around calls
//! into public functions, the driver's `DriverStats`, and the stage
//! histograms of `Tracer::in_memory()`. Names are `<layer>.<quantity>`.

use crate::pipeline::Pass;
use crate::ratio;
use jmake_trace::metrics::{Metrics, StageMetrics};
use jmake_trace::Stage;
use std::collections::BTreeMap;

/// Per-layer metrics `(name, unit)`, reported by every workload's traced
/// run. A layer that does not act on a workload reports zero there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("synth.generate_s", "s"),
    ("vcs.log_s", "s"),
    ("vcs.checkout_us", "us"),
    ("vcs.show_us", "us"),
    ("vcs.checkouts", "count"),
    ("driver.run_s", "s"),
    ("driver.busy_ratio", "ratio"),
    ("driver.sched.plan_enqueued", "count"),
    ("driver.sched.plan_executed", "count"),
    ("driver.sched.plan_dropped", "count"),
    ("driver.sched.useful_ratio", "ratio"),
    ("check.host_us", "us"),
    ("check.p50_us", "us"),
    ("check.p99_us", "us"),
    ("check.unattributed_us", "us"),
    ("mutation_plan.host_us", "us"),
    ("mutation_plan.count", "count"),
    ("classify.host_us", "us"),
    ("config_solve.host_us", "us"),
    ("config_solve.count", "count"),
    ("config_cache.hits", "count"),
    ("config_cache.misses", "count"),
    ("config_cache.hit_ratio", "ratio"),
    ("build_i.host_us", "us"),
    ("build_i.count", "count"),
    ("build_i.virtual_us", "us"),
    ("preproc.hits", "count"),
    ("preproc.misses", "count"),
    ("preproc.hit_ratio", "ratio"),
    ("preproc.closure_hits", "count"),
    ("preproc.closure_misses", "count"),
    ("build_o.host_us", "us"),
    ("build_o.count", "count"),
    ("objcache.hits", "count"),
    ("objcache.negative_hits", "count"),
    ("objcache.misses", "count"),
    ("objcache.entries", "count"),
    ("objcache.hit_ratio", "ratio"),
    ("disk.load_s", "s"),
    ("disk.store_s", "s"),
    ("disk.entries_loaded", "count"),
    ("disk.entries_stored", "count"),
    ("disk.quarantined", "count"),
    ("disk.bytes", "bytes"),
    ("report.slices_s", "s"),
    ("report.janitor_s", "s"),
    ("report.render_s", "s"),
    ("serve.new_seed_p50_ms", "ms"),
    ("serve.repeat_p50_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.rss_growth_mb_per_new_seed", "MB"),
    ("trace.overhead_ratio", "ratio"),
];

/// The layer metrics one traced pass yields: driver counters, stage
/// histograms and the pass's own wall times.
pub fn pass_layers(pass: &Pass, trace: &Metrics, workers: usize) -> BTreeMap<&'static str, f64> {
    let s = &pass.stats;
    let host = |stage| trace.host_total_us(stage) as f64;
    let count = |stage| trace.stage(stage).map_or(0, StageMetrics::count) as f64;
    let check_quantile = |q| {
        trace
            .stage(Stage::Check)
            .map_or(0, |m| m.host_quantile_us(q)) as f64
    };
    let attributed = [
        Stage::MutationPlan,
        Stage::ConfigSolve,
        Stage::BuildI,
        Stage::BuildO,
        Stage::Classify,
    ]
    .into_iter()
    .map(host)
    .sum::<f64>();
    let busy_us = (s.checkout_wall_us + s.show_wall_us + s.check_wall_us) as f64;
    let plan = s.scheduler.plan;
    BTreeMap::from([
        ("vcs.checkout_us", s.checkout_wall_us as f64),
        ("vcs.show_us", s.show_wall_us as f64),
        ("vcs.checkouts", count(Stage::Checkout)),
        ("driver.run_s", pass.run_s),
        (
            "driver.busy_ratio",
            ratio(busy_us, workers as f64 * pass.run_s * 1e6),
        ),
        ("driver.sched.plan_enqueued", plan.enqueued as f64),
        ("driver.sched.plan_executed", plan.executed as f64),
        ("driver.sched.plan_dropped", plan.dropped as f64),
        (
            "driver.sched.useful_ratio",
            ratio(plan.executed as f64, plan.enqueued as f64),
        ),
        ("check.host_us", host(Stage::Check)),
        ("check.p50_us", check_quantile(0.5)),
        ("check.p99_us", check_quantile(0.99)),
        ("check.unattributed_us", host(Stage::Check) - attributed),
        ("mutation_plan.host_us", host(Stage::MutationPlan)),
        ("mutation_plan.count", count(Stage::MutationPlan)),
        ("classify.host_us", host(Stage::Classify)),
        ("config_solve.host_us", host(Stage::ConfigSolve)),
        ("config_solve.count", count(Stage::ConfigSolve)),
        ("config_cache.hits", s.cache.hits as f64),
        ("config_cache.misses", s.cache.misses as f64),
        ("config_cache.hit_ratio", s.cache.hit_rate()),
        ("build_i.host_us", host(Stage::BuildI)),
        ("build_i.count", count(Stage::BuildI)),
        (
            "build_i.virtual_us",
            trace.virtual_total_us(Stage::BuildI) as f64,
        ),
        ("preproc.hits", s.preproc.hits as f64),
        ("preproc.misses", s.preproc.misses as f64),
        ("preproc.hit_ratio", s.preproc.hit_rate()),
        ("preproc.closure_hits", s.preproc.closure_hits as f64),
        ("preproc.closure_misses", s.preproc.closure_misses as f64),
        ("build_o.host_us", host(Stage::BuildO)),
        ("build_o.count", count(Stage::BuildO)),
        ("objcache.hits", s.object.hits as f64),
        ("objcache.negative_hits", s.object.negative_hits as f64),
        ("objcache.misses", s.object.misses as f64),
        ("objcache.entries", s.object.entries as f64),
        ("objcache.hit_ratio", s.object.hit_rate()),
        ("report.slices_s", pass.slices_s),
        ("report.janitor_s", pass.janitor_s),
        ("report.render_s", pass.render_s),
    ])
}

/// Set-up layers: medians of `(generate_s, log_s)` over several windows.
pub fn setup_layers(windows: &[(f64, f64)]) -> BTreeMap<&'static str, f64> {
    let gens: Vec<f64> = windows.iter().map(|w| w.0).collect();
    let logs: Vec<f64> = windows.iter().map(|w| w.1).collect();
    BTreeMap::from([
        ("synth.generate_s", crate::median(&gens)),
        ("vcs.log_s", crate::median(&logs)),
    ])
}

/// Per-key median over several passes' layer metrics.
pub fn median_layers(passes: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let mut by_key: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for pass in passes {
        for (k, v) in pass {
            by_key.entry(k).or_default().push(*v);
        }
    }
    by_key
        .into_iter()
        .map(|(k, v)| (k, crate::median(&v)))
        .collect()
}

//! The two sweep workloads: `cold-sweep` (the paper's evaluation from
//! empty caches) and `warm-restart` (the same window restarted from a
//! persisted disk tier).

use crate::ledger::{median_layers, pass_layers, setup_layers};
use crate::pipeline::{evaluate, open_window, Caches, Pass, Window};
use crate::{
    derive_seed, digest, median, proc_status_mb, quantile, ratio, Args, Outcome, Scratch,
    MIN_PASSES,
};
use jmake_faults::Faults;
use jmake_kbuild::DiskCache;
use jmake_synth::WorkloadProfile;
use jmake_trace::Tracer;
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// Commits in a sweep's window. The 1,200-commit default finishes in
/// about a second and its patches/s moved ±8% between identical runs;
/// at this size one pass takes about 2.5 s on the 2-core reference host,
/// so a 25-second run measures about ten passes.
const SWEEP_COMMITS: usize = 3_000;

/// Set-ups per run (`setup_s` is their median). A `warm-restart` set-up
/// includes a cold pass and a store, so it repeats fewer times.
const COLD_SETUPS: usize = 5;
const WARM_SETUPS: usize = 3;

/// Driver workers: one per core of the 2-core reference host.
const WORKERS: usize = 2;

/// The report every pass renders: all tables and figures.
const REPORT: &str = "all";

fn sweep_profile(seed: u64) -> WorkloadProfile {
    WorkloadProfile {
        seed: derive_seed(seed, 1),
        commits: SWEEP_COMMITS,
        ..WorkloadProfile::default()
    }
}

/// One timed operation: a pass from the end of set-up to the report.
struct Timed {
    wall_s: f64,
    pass: Pass,
    layers: BTreeMap<&'static str, f64>,
}

/// Checks every pass must meet, against the first pass of the run.
struct Reference {
    digest: u64,
    virtual_us: u64,
}

impl Reference {
    fn of(pass: &Pass) -> Reference {
        Reference {
            digest: digest(&pass.report),
            virtual_us: pass.virtual_us,
        }
    }
}

fn check_pass(out: &mut Outcome, label: &str, pass: &Pass, reference: &Reference) {
    out.attempted += pass.stats.patches as u64;
    out.failed += pass.unchecked() as u64;
    let report = digest(&pass.report);
    out.check(report == reference.digest, || {
        format!(
            "{label}: report digest {report:#x} != {:#x}",
            reference.digest
        )
    });
    out.check(pass.virtual_us == reference.virtual_us, || {
        format!(
            "{label}: virtual-µs total {} != {}",
            pass.virtual_us, reference.virtual_us
        )
    });
    out.check(pass.planted > 0 && pass.agreed == pass.planted, || {
        format!(
            "{label}: verdict agreement {}/{}",
            pass.agreed, pass.planted
        )
    });
}

/// The end-to-end metrics shared by both sweeps.
fn report_sweep(out: &mut Outcome, setup_s: &[f64], passes: &[Timed], measured_s: f64) {
    let walls: Vec<f64> = passes.iter().map(|t| t.wall_s).collect();
    let rates: Vec<f64> = passes
        .iter()
        .map(|t| ratio(t.pass.stats.checked as f64, t.pass.run_s))
        .collect();
    let first = &passes[0].pass;
    out.set("patches_per_sec", median(&rates));
    out.set("time_to_report_s", median(&walls));
    out.set("setup_s", median(setup_s));
    out.set("peak_rss_mb", proc_status_mb(None, "VmHWM").unwrap_or(0.0));
    out.set("request_p50_ms", quantile(&walls, 0.5) * 1e3);
    out.set("request_p90_ms", quantile(&walls, 0.9) * 1e3);
    out.set("requests_per_sec", ratio(passes.len() as f64, measured_s));
    out.set(
        "verdict_agreement",
        ratio(first.agreed as f64, first.planted as f64),
    );
}

/// Run timed passes until `--seconds` have elapsed (at least
/// [`MIN_PASSES`]), checking each against `reference` (by default the
/// first pass). With `--trace 1` each untraced pass is followed by a
/// traced one; returns `(untraced, traced)`.
fn measure(
    args: &Args,
    out: &mut Outcome,
    mut window: Window,
    mut reference: Option<Reference>,
    mut pass_once: impl FnMut(Window, Tracer) -> (Window, Timed),
) -> (Vec<Timed>, Vec<Timed>) {
    let started = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    while untraced.len() < MIN_PASSES || started.elapsed() < args.seconds {
        let (w, timed) = pass_once(window, Tracer::disabled());
        eprintln!(
            "perfbench: pass {}: {:.3}s to report, driver {:.3}s",
            untraced.len() + 1,
            timed.wall_s,
            timed.pass.run_s
        );
        let reference = reference.get_or_insert_with(|| Reference::of(&timed.pass));
        check_pass(out, "pass", &timed.pass, reference);
        untraced.push(timed);
        window = w;
        if args.trace {
            let (w, timed) = pass_once(window, Tracer::in_memory());
            check_pass(out, "traced pass", &timed.pass, reference);
            traced.push(timed);
            window = w;
        }
    }
    (untraced, traced)
}

/// The per-layer ledger of a sweep's traced run.
fn report_ledger(
    out: &mut Outcome,
    mut layers: BTreeMap<&'static str, f64>,
    untraced: &[Timed],
    traced: &[Timed],
) {
    let traced_layers: Vec<_> = traced.iter().map(|t| t.layers.clone()).collect();
    layers.extend(median_layers(&traced_layers));
    let wall = |ts: &[Timed]| median(&ts.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    layers.insert("trace.overhead_ratio", ratio(wall(traced), wall(untraced)));
    out.set_layers(&layers);
}

/// `cold-sweep`: the paper's evaluation. Set-up generates the workload
/// and logs the window; each pass runs the driver from empty caches,
/// analyses janitors and renders the `all` report.
pub fn cold_sweep(args: &Args, out: &mut Outcome) {
    let profile = sweep_profile(args.seed);
    let mut setup_s = Vec::new();
    let mut setup_parts = Vec::new();
    let mut window = None;
    for _ in 0..COLD_SETUPS {
        drop(window.take());
        let started = Instant::now();
        let w = open_window(&profile);
        setup_s.push(started.elapsed().as_secs_f64());
        setup_parts.push((w.generate_s, w.log_s));
        window = Some(w);
    }
    let window = window.expect("at least one set-up");
    eprintln!(
        "perfbench: cold-sweep window of {} commits set up in {:.2}s (median of {COLD_SETUPS})",
        window.commits.len(),
        median(&setup_s)
    );

    let started = Instant::now();
    let (untraced, traced) = measure(args, out, window, None, |window, tracer| {
        let t = Instant::now();
        let caches = Caches::new();
        let driver = caches.driver(WORKERS, tracer.clone());
        let (window, pass) = evaluate(window, &driver, REPORT);
        let wall_s = t.elapsed().as_secs_f64();
        let layers = pass_layers(&pass, &tracer.metrics(), WORKERS);
        (
            window,
            Timed {
                wall_s,
                pass,
                layers,
            },
        )
    });
    let measured_s = started.elapsed().as_secs_f64();
    eprintln!(
        "perfbench: cold-sweep {} pass(es) in {measured_s:.1}s",
        untraced.len() + traced.len()
    );
    if args.trace {
        report_ledger(out, setup_layers(&setup_parts), &untraced, &traced);
    } else {
        report_sweep(out, &setup_s, &untraced, measured_s);
    }
}

/// Total size in bytes of the files under `dir`.
fn tree_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => tree_bytes(&e.path()),
            Ok(_) => e.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

/// `warm-restart`: the same window started warm. Set-up is one cold pass
/// persisted with `DiskCache::store` into a fresh tier; each pass loads
/// fresh caches from the tier, re-checks the window and renders the
/// report, which must equal the cold pass's byte for byte.
pub fn warm_restart(args: &Args, out: &mut Outcome) {
    let profile = sweep_profile(args.seed);
    let mut setup_s = Vec::new();
    let mut setup_parts = Vec::new();
    let mut store_s = Vec::new();
    let mut state = None;
    for rep in 0..WARM_SETUPS {
        drop(state.take());
        let tier = Scratch::new(&format!("tier{rep}"));
        let started = Instant::now();
        let window = open_window(&profile);
        let caches = Caches::new();
        let (window, cold) = evaluate(window, &caches.driver(WORKERS, Tracer::disabled()), REPORT);
        let stored = Instant::now();
        let disk = DiskCache::open(tier.path()).expect("open the disk tier");
        let stats = disk
            .store(&caches.objects, &caches.configs, &caches.preproc)
            .expect("persist the disk tier");
        store_s.push(stored.elapsed().as_secs_f64());
        setup_s.push(started.elapsed().as_secs_f64());
        setup_parts.push((window.generate_s, window.log_s));
        state = Some((tier, disk, window, cold, stats));
    }
    let (tier, disk, window, cold, stored) = state.expect("at least one set-up");
    let reference = Reference::of(&cold);
    check_pass(out, "cold priming pass", &cold, &reference);
    let tier_bytes = tree_bytes(tier.path());
    eprintln!(
        "perfbench: warm-restart tier of {} entries, {:.1} MB, set up in {:.2}s (median of {WARM_SETUPS})",
        stored.objects_stored + stored.configs_stored + stored.preproc_stored,
        tier_bytes as f64 / 1e6,
        median(&setup_s)
    );

    let mut loads = Vec::new();
    let started = Instant::now();
    let (untraced, traced) = measure(args, out, window, Some(reference), |window, tracer| {
        let t = Instant::now();
        let caches = Caches::new();
        let loaded = disk
            .load(
                &caches.objects,
                &caches.configs,
                &caches.preproc,
                &Faults::disabled(),
            )
            .expect("load the disk tier");
        let load_s = t.elapsed().as_secs_f64();
        let driver = caches.driver(WORKERS, tracer.clone());
        let (window, pass) = evaluate(window, &driver, REPORT);
        let wall_s = t.elapsed().as_secs_f64();
        let mut layers = pass_layers(&pass, &tracer.metrics(), WORKERS);
        layers.insert("disk.load_s", load_s);
        loads.push(loaded);
        (
            window,
            Timed {
                wall_s,
                pass,
                layers,
            },
        )
    });
    let measured_s = started.elapsed().as_secs_f64();
    for loaded in &loads {
        out.check(loaded.entries_quarantined == 0, || {
            format!(
                "disk tier quarantined {} entries",
                loaded.entries_quarantined
            )
        });
    }
    eprintln!(
        "perfbench: warm-restart {} pass(es) in {measured_s:.1}s",
        untraced.len() + traced.len()
    );
    if args.trace {
        let mut layers = setup_layers(&setup_parts);
        let loaded = loads.last().expect("at least one pass");
        layers.insert("disk.store_s", median(&store_s));
        layers.insert(
            "disk.entries_loaded",
            (loaded.objects_loaded + loaded.configs_loaded + loaded.preproc_loaded) as f64,
        );
        layers.insert(
            "disk.entries_stored",
            (stored.objects_stored + stored.configs_stored + stored.preproc_stored) as f64,
        );
        layers.insert("disk.quarantined", loaded.entries_quarantined as f64);
        layers.insert("disk.bytes", tier_bytes as f64);
        report_ledger(out, layers, &untraced, &traced);
    } else {
        report_sweep(out, &setup_s, &untraced, measured_s);
    }
}

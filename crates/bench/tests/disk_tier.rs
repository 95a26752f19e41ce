//! Determinism contract for the persistent cache tier (DESIGN.md §10):
//! a report rendered from a cold run, from a warm run that loaded the
//! disk tier, and from a second warm run must be **byte-identical**, at
//! any worker count — the tier may only move host-side time, never
//! simulated results. A warm run must also actually hit the loaded
//! entries, or the tier is dead weight.

use jmake_bench::{build_context_with_driver, render_command};
use jmake_core::DriverOptions;
use jmake_faults::Faults;
use jmake_kbuild::{ConfigCache, DiskCache, DiskTierStats, ObjectCache, PreprocCache};
use jmake_synth::WorkloadProfile;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "jmake-disk-tier-{tag}-{}-{}",
        std::process::id(),
        std::thread::current().name().unwrap_or("t").replace("::", "-"),
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn profile() -> WorkloadProfile {
    WorkloadProfile {
        commits: 25,
        ..WorkloadProfile::default()
    }
}

/// Evaluate with fresh in-memory caches backed by `cache_dir`, returning
/// the full rendered report, the in-memory object-cache hit count, and
/// the disk-tier load and store stats.
fn run(cache_dir: &PathBuf, workers: usize) -> (String, u64, DiskTierStats, DiskTierStats) {
    let objects = Arc::new(ObjectCache::new());
    let configs = Arc::new(ConfigCache::new());
    let preproc = Arc::new(PreprocCache::new());
    let disk = DiskCache::open(cache_dir).unwrap();
    let loaded = disk
        .load(&objects, &configs, &preproc, &Faults::disabled())
        .unwrap();
    assert_eq!(loaded.entries_quarantined, 0, "healthy tier, nothing quarantined");
    let driver = DriverOptions {
        workers,
        object_cache_handle: Some(Arc::clone(&objects)),
        config_cache_handle: Some(Arc::clone(&configs)),
        preproc_cache_handle: Some(Arc::clone(&preproc)),
        ..DriverOptions::default()
    };
    let ctx = build_context_with_driver(&profile(), &driver);
    let report = render_command(&ctx, "all").unwrap();
    let stored = disk.store(&objects, &configs, &preproc).unwrap();
    (report, objects.stats().hits, loaded, stored)
}

#[test]
fn cold_warm_warm_reports_are_byte_identical_across_worker_counts() {
    let dir = tempdir("identity");

    let (cold, _, _, _) = run(&dir, 1);
    assert!(!cold.is_empty());

    // The cold run persisted records the warm runs must find.
    let stored = records(&dir);
    assert!(
        stored.iter().any(|r| r.kind == "object"),
        "cold run persisted object records"
    );
    assert!(
        stored.iter().any(|r| r.kind == "preproc"),
        "cold run persisted preproc records"
    );

    for workers in [1, 8] {
        for round in ["warm", "warm again"] {
            let (report, hits, loaded, stored) = run(&dir, workers);
            assert_eq!(
                report, cold,
                "{round} report with {workers} worker(s) differs from cold"
            );
            assert!(
                hits > 0,
                "{round} run with {workers} worker(s) never hit the loaded tier"
            );
            assert!(
                loaded.preproc_loaded > 0,
                "{round} run with {workers} worker(s) loaded no preproc entries"
            );
            // A warm run needs nothing the cold run did not already store.
            assert_eq!(
                stored,
                DiskTierStats::default(),
                "{round} run with {workers} worker(s) stored records the tier already held"
            );
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupting_every_entry_on_disk_changes_nothing_but_the_quarantine() {
    let dir = tempdir("corrupt");
    let (cold, _, _, _) = run(&dir, 2);

    // Corrupt every persisted record: flip one payload byte in each, and
    // cut the last one short as well. Each must quarantine, none may
    // surface as a wrong result — the report stays byte-identical.
    let stored = records(&dir);
    assert!(!stored.is_empty());
    for record in &stored {
        let mut bytes = std::fs::read(&record.segment).unwrap();
        bytes[record.payload.start] ^= 0x01;
        std::fs::write(&record.segment, &bytes).unwrap();
    }
    let last = stored.last().unwrap();
    let bytes = std::fs::read(&last.segment).unwrap();
    std::fs::write(&last.segment, &bytes[..last.payload.end - 1]).unwrap();

    let objects = Arc::new(ObjectCache::new());
    let configs = Arc::new(ConfigCache::new());
    let preproc = Arc::new(PreprocCache::new());
    let disk = DiskCache::open(&dir).unwrap();
    let loaded = disk
        .load(&objects, &configs, &preproc, &Faults::disabled())
        .unwrap();
    assert_eq!(loaded.entries_quarantined as usize, stored.len());
    assert_eq!(
        loaded.objects_loaded + loaded.configs_loaded + loaded.preproc_loaded,
        0
    );
    assert!(records(&dir).is_empty(), "corrupt records must leave the live tier");

    let driver = DriverOptions {
        workers: 2,
        object_cache_handle: Some(objects),
        config_cache_handle: Some(configs),
        preproc_cache_handle: Some(preproc),
        ..DriverOptions::default()
    };
    let report = render_command(&build_context_with_driver(&profile(), &driver), "all").unwrap();
    assert_eq!(report, cold, "a fully-corrupt tier must degrade to a cold run");

    let _ = std::fs::remove_dir_all(&dir);
}

/// One record of a segment file, located by the documented frame:
/// `<kind> <16-hex key> <16-hex length> <16-hex digest>\n<payload>`.
struct Record {
    segment: PathBuf,
    kind: String,
    payload: Range<usize>,
}

/// Every record of every segment under `root/segments`.
fn records(root: &Path) -> Vec<Record> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(root.join("segments"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    segments.sort();
    let mut out = Vec::new();
    for segment in segments {
        let bytes = std::fs::read(&segment).unwrap();
        let mut at = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        while at < bytes.len() {
            let nl = at + bytes[at..].iter().position(|&b| b == b'\n').unwrap();
            let header = std::str::from_utf8(&bytes[at..nl]).unwrap();
            let fields: Vec<&str> = header.split(' ').collect();
            let len = usize::from_str_radix(fields[2], 16).unwrap();
            out.push(Record {
                segment: segment.clone(),
                kind: fields[0].to_string(),
                payload: nl + 1..nl + 1 + len,
            });
            at = nl + 1 + len;
        }
    }
    out
}

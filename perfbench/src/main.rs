//! The JMake benchmark. See README.md for the workloads, every metric's
//! definition and denominator, and the correctness checks.
//!
//! ```text
//! jmake-perfbench --workload <cold-sweep|warm-restart|serve-mixed>
//!                 --seed N --seconds S --trace <0|1>
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer ledger with `--trace 1`. Exits
//! non-zero when any output check failed.

mod ledger;
mod pipeline;
mod serve;
mod sweep;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;
use std::time::Duration;

/// End-to-end metrics `(name, unit)`, reported untraced by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("patches_per_sec", "1/s"),
    ("time_to_report_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("request_p50_ms", "ms"),
    ("request_p90_ms", "ms"),
    ("requests_per_sec", "1/s"),
    ("verdict_agreement", "ratio"),
];

/// Fewest measured operations a run takes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

/// Operation counts, failed checks and metrics of one run.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one check; a failed one is logged and counted as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// Report the ledger: every per-layer metric, 0 where `layers` has
    /// none because the layer does not act on this workload.
    pub fn set_layers(&mut self, layers: &BTreeMap<&'static str, f64>) {
        for (name, _) in ledger::PER_LAYER {
            self.set(name, layers.get(name).copied().unwrap_or(0.0));
        }
    }

    /// The result line: every metric of `names` in order, with its unit.
    fn to_json(&self, names: &[(&'static str, &'static str)]) -> String {
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let value = self.metrics.get(name).unwrap_or_else(|| {
                    panic!("workload did not report metric {name}");
                });
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Ceil nearest-rank quantile, the convention `jmake-trace` uses.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// `num / den`, zero when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A well-spread 64-bit value derived from the benchmark seed and a tag
/// (splitmix64), so each workload and fresh serve seed gets its own input.
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a digest of a report, to compare reports across passes.
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A `/proc/<pid>/status` field in MB (`VmHWM`, `VmRSS`); `pid` `None`
/// reads this process.
pub fn proc_status_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A private directory under `.bench_tmp/` in the working directory,
/// removed (with `.bench_tmp/` itself once empty) when dropped.
pub struct Scratch {
    path: PathBuf,
}

impl Scratch {
    pub fn new(tag: &str) -> Scratch {
        let path = PathBuf::from(".bench_tmp").join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the benchmark's scratch directory");
        Scratch { path }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

const USAGE: &str = "usage: jmake-perfbench --workload <cold-sweep|warm-restart|serve-mixed> \
                     --seed N --seconds S --trace <0|1>";

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}\n{USAGE}");
    exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                let s: u64 = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => usage("--trace takes 0 or 1"),
            },
            other => usage(&format!("unknown flag {other}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn main() {
    let args = parse_args();
    eprintln!(
        "perfbench: workload {} seed {} for {}s, trace {} ({} cpus)",
        args.workload,
        args.seed,
        args.seconds.as_secs(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
    );
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "cold-sweep" => sweep::cold_sweep(&args, &mut outcome),
        "warm-restart" => sweep::warm_restart(&args, &mut outcome),
        "serve-mixed" => serve::serve_mixed(&args, &mut outcome),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            exit(2);
        }
    }
    let names = if args.trace {
        ledger::PER_LAYER
    } else {
        END_TO_END
    };
    println!("{}", outcome.to_json(names));
    if outcome.failed > 0 {
        eprintln!("perfbench: {} check(s) failed", outcome.failed);
        exit(1);
    }
}

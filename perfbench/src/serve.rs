//! `serve-mixed`: a `jmake-serve --parallel 2` daemon driven as a closed
//! loop by two client connections. Each client sends its next request only
//! after the previous reply; requests alternate between one hot seed that
//! both clients repeat and fresh seeds derived from the benchmark seed, so
//! the daemon's caches serve reads beside unbounded writes.
//!
//! Each client sends two hot requests per fresh one. With a 1:1 mix the
//! median falls on the gap between the repeat and the fresh latency
//! modes, where it moved 12% between runs; at 2:1 p50 lies inside the
//! repeat mode and p90 inside the fresh one.

use crate::ledger::{median_layers, pass_layers, setup_layers};
use crate::pipeline::{evaluate, open_window, Caches, Pass};
use crate::{derive_seed, median, proc_status_mb, quantile, ratio, Args, Outcome, Scratch};
use jmake_core::DriverOptions;
use jmake_serve::protocol::{decode_response, encode_request};
use jmake_serve::{EvalRequest, Request, Response};
use jmake_synth::WorkloadProfile;
use jmake_trace::Tracer;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Commits per request: one request takes a few hundred milliseconds, so
/// a run of a few seconds collects the samples p90 needs.
const SERVE_COMMITS: usize = 200;

/// Fewest requests a run answers, however short `--seconds` is: p90 then
/// has at least ten samples beyond it.
const MIN_REQUESTS: u64 = 100;

/// Client connections, and the daemon's `--parallel`: one per core.
const CLIENTS: u64 = 2;

/// Every request asks for the §V.B summary.
const COMMAND: &str = "summary";

/// Set-ups per run; one is cheap, so take a steadier median.
const SETUPS: usize = 5;

/// Seed tags: the hot seed, and the first of the fresh seeds.
const HOT_TAG: u64 = 2;
const FRESH_TAG: u64 = 1_000;

/// How long the daemon may take to accept, and to drain after shutdown.
const START_TIMEOUT: Duration = Duration::from_secs(30);
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

fn profile(seed: u64) -> WorkloadProfile {
    WorkloadProfile {
        seed,
        commits: SERVE_COMMITS,
        ..WorkloadProfile::default()
    }
}

/// Evaluate `seed` in-process exactly as a request asks: one worker,
/// `summary` report.
fn local(seed: u64, driver: &DriverOptions) -> (f64, Pass, (f64, f64)) {
    let started = Instant::now();
    let window = open_window(&profile(seed));
    let (window, pass) = evaluate(window, driver, COMMAND);
    (
        started.elapsed().as_secs_f64(),
        pass,
        (window.generate_s, window.log_s),
    )
}

/// A running daemon on a private socket. Dropping it kills a daemon that
/// is still running and removes its directory.
struct Daemon {
    child: Child,
    socket: PathBuf,
    _dir: Scratch,
}

impl Daemon {
    /// Start the daemon and wait until its socket accepts.
    fn start(bin: &Path, tag: &str) -> Daemon {
        let dir = Scratch::new(tag);
        let socket = dir.path().join("serve.sock");
        let child = Command::new(bin)
            .arg("--socket")
            .arg(&socket)
            .arg("--parallel")
            .arg(CLIENTS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", bin.display()));
        let mut daemon = Daemon {
            child,
            socket,
            _dir: dir,
        };
        let started = Instant::now();
        while UnixStream::connect(&daemon.socket).is_err() {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                panic!("jmake-serve exited before accepting: {status}");
            }
            assert!(
                started.elapsed() < START_TIMEOUT,
                "jmake-serve never accepted"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Send `shutdown`, then check that the daemon acknowledges, drains,
    /// exits cleanly and removes its socket.
    fn shutdown(mut self, out: &mut Outcome) {
        out.attempted += 1;
        let ack = jmake_serve::request(&self.socket, &Request::Shutdown);
        out.check(matches!(ack, Ok(Response::ShuttingDown)), || {
            format!("shutdown not acknowledged: {ack:?}")
        });
        let started = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                _ if started.elapsed() > DRAIN_TIMEOUT => break None,
                _ => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        out.check(status.is_some_and(|s| s.success()), || {
            format!("jmake-serve did not drain and exit cleanly: {status:?}")
        });
        out.check(!self.socket.exists(), || {
            "jmake-serve left its socket behind".to_string()
        });
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One answered (or failed) request, as the client saw it.
struct Sample {
    fresh: bool,
    latency_ms: f64,
}

/// What one client connection observed.
#[derive(Default)]
struct ClientLog {
    samples: Vec<Sample>,
    sent: u64,
    replies: u64,
    failed: u64,
    /// The first fresh seed answered and its report, re-checked locally.
    fresh_example: Option<(u64, String)>,
}

/// The closed loop of one client: hot and fresh requests on one
/// connection until `deadline`, then reconcile the daemon's `stats` for
/// this connection with what the client counted.
fn client_loop(
    client: u64,
    socket: &Path,
    deadline: Instant,
    bench_seed: u64,
    hot_report: &str,
    next_fresh: &AtomicU64,
    answered: &AtomicU64,
) -> ClientLog {
    let mut log = ClientLog::default();
    let stream = UnixStream::connect(socket).expect("connect to jmake-serve");
    let mut writer = stream.try_clone().expect("clone the client socket");
    let mut reader = BufReader::new(stream);
    let mut exchange = |request: &Request| -> Option<Response> {
        let line = encode_request(request) + "\n";
        writer.write_all(line.as_bytes()).ok()?;
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => decode_response(&reply).ok(),
            _ => None,
        }
    };
    let mut i = 0u64;
    while Instant::now() < deadline || answered.load(Ordering::Relaxed) < MIN_REQUESTS {
        // Every third request is fresh; the clients are out of phase.
        let fresh = (i + client) % 3 == 2;
        let seed = if fresh {
            derive_seed(
                bench_seed,
                FRESH_TAG + next_fresh.fetch_add(1, Ordering::Relaxed),
            )
        } else {
            derive_seed(bench_seed, HOT_TAG)
        };
        let id = client * 1_000_000 + i;
        i += 1;
        let request = Request::Eval(EvalRequest {
            id,
            commits: SERVE_COMMITS,
            seed,
            workers: 1,
            command: COMMAND.to_string(),
            ..EvalRequest::default()
        });
        let sent = Instant::now();
        log.sent += 1;
        let reply = exchange(&request);
        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
        answered.fetch_add(1, Ordering::Relaxed);
        if matches!(reply, Some(Response::Report { .. })) {
            log.replies += 1;
        }
        let good = match &reply {
            Some(Response::Report { id: rid, report }) if *rid == id => {
                if fresh && log.fresh_example.is_none() {
                    log.fresh_example = Some((seed, report.clone()));
                }
                fresh || report == hot_report
            }
            _ => false,
        };
        if !good {
            log.failed += 1;
            eprintln!(
                "perfbench: CHECK FAILED: client {client} request {id} (fresh {fresh}): {reply:?}"
            );
        }
        log.samples.push(Sample { fresh, latency_ms });
        if reply.is_none() {
            break; // the connection is gone
        }
    }
    // `stats` counts itself as a request but not yet as a response.
    match exchange(&Request::Stats) {
        Some(Response::Stats {
            requests,
            responses,
            errors,
        }) if requests == log.sent + 1
            && responses == log.replies
            && errors == log.sent - log.replies => {}
        other => {
            log.failed += 1;
            eprintln!(
                "perfbench: CHECK FAILED: client {client} sent {} and got {} replies, daemon stats {other:?}",
                log.sent, log.replies
            );
        }
    }
    log
}

/// The daemon binary built next to this one.
fn serve_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("locate the benchmark binary");
    exe.with_file_name("jmake-serve")
}

pub fn serve_mixed(args: &Args, out: &mut Outcome) {
    let bin = serve_bin();
    let hot_seed = derive_seed(args.seed, HOT_TAG);
    let reference_driver = DriverOptions {
        workers: 1,
        ..DriverOptions::default()
    };

    // Set-up: the hot seed's local reference report, then daemon start.
    let mut setup_s = Vec::new();
    let mut reference: Option<Pass> = None;
    let mut daemon = None;
    for rep in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d, out);
        }
        let started = Instant::now();
        let (_, pass, _) = local(hot_seed, &reference_driver);
        let d = Daemon::start(&bin, &format!("serve{rep}"));
        setup_s.push(started.elapsed().as_secs_f64());
        out.attempted += pass.stats.patches as u64;
        out.failed += pass.unchecked() as u64;
        if let Some(first) = &reference {
            out.check(first.report == pass.report, || {
                "hot-seed reference report differs between set-ups".to_string()
            });
        }
        reference = Some(pass);
        daemon = Some(d);
    }
    let reference = reference.expect("at least one set-up");
    let daemon = daemon.expect("at least one set-up");
    out.check(
        reference.planted > 0 && reference.agreed == reference.planted,
        || {
            format!(
                "verdict agreement {}/{}",
                reference.agreed, reference.planted
            )
        },
    );
    eprintln!(
        "perfbench: serve-mixed daemon pid {} up, set-up {:.2}s (median of {SETUPS})",
        daemon.pid(),
        median(&setup_s)
    );

    // The closed loop.
    let rss_start = proc_status_mb(Some(daemon.pid()), "VmRSS").unwrap_or(0.0);
    let next_fresh = AtomicU64::new(0);
    let answered = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + args.seconds;
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (socket, hot) = (&daemon.socket, &reference.report);
                let (next_fresh, answered) = (&next_fresh, &answered);
                scope.spawn(move || {
                    client_loop(
                        client, socket, deadline, args.seed, hot, next_fresh, answered,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let measured_s = started.elapsed().as_secs_f64();
    let peak_rss = proc_status_mb(Some(daemon.pid()), "VmHWM").unwrap_or(0.0);
    daemon.shutdown(out);

    let samples: Vec<&Sample> = logs.iter().flat_map(|l| &l.samples).collect();
    let latencies = |pick: &dyn Fn(&Sample) -> bool| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| pick(s))
            .map(|s| s.latency_ms)
            .collect()
    };
    let all = latencies(&|_| true);
    let replies: u64 = logs.iter().map(|l| l.replies).sum();
    let fresh_seeds = next_fresh.load(Ordering::Relaxed);
    out.attempted += logs.iter().map(|l| l.sent).sum::<u64>();
    out.failed += logs.iter().map(|l| l.failed).sum::<u64>();
    eprintln!(
        "perfbench: serve-mixed {} request(s), {fresh_seeds} fresh seed(s) in {measured_s:.1}s",
        all.len()
    );

    // A fresh reply must match an in-process evaluation of its seed too.
    if let Some((seed, report)) = logs.iter().find_map(|l| l.fresh_example.clone()) {
        out.attempted += 1;
        let (_, pass, _) = local(seed, &reference_driver);
        out.check(pass.report == report, || {
            format!("served report for fresh seed {seed:#x} differs from the local render")
        });
    }

    if !args.trace {
        out.set(
            "patches_per_sec",
            ratio((replies * SERVE_COMMITS as u64) as f64, measured_s),
        );
        out.set("time_to_report_s", median(&all) / 1e3);
        out.set("setup_s", median(&setup_s));
        out.set("peak_rss_mb", peak_rss);
        out.set("request_p50_ms", quantile(&all, 0.5));
        out.set("request_p90_ms", quantile(&all, 0.9));
        out.set("requests_per_sec", ratio(replies as f64, measured_s));
        out.set(
            "verdict_agreement",
            ratio(reference.agreed as f64, reference.planted as f64),
        );
        return;
    }

    // Ledger: the same request mix replayed in-process against one set of
    // shared caches, as the daemon holds them.
    let repeat_p50 = median(&latencies(&|s| !s.fresh));
    let mut layers = BTreeMap::from([
        ("serve.new_seed_p50_ms", median(&latencies(&|s| s.fresh))),
        ("serve.repeat_p50_ms", repeat_p50),
        (
            "serve.rss_growth_mb_per_new_seed",
            ratio(peak_rss - rss_start, (fresh_seeds + 1) as f64),
        ),
    ]);
    let caches = Caches::new();
    let driver = |tracer: Tracer| caches.driver(1, tracer);
    let fresh_local = |k: u64| derive_seed(args.seed, FRESH_TAG + fresh_seeds + k);
    local(hot_seed, &driver(Tracer::disabled()));
    let mut local_repeats = Vec::new();
    for k in 0..3 {
        local_repeats.push(local(hot_seed, &driver(Tracer::disabled())).0 * 1e3);
        local(fresh_local(k), &driver(Tracer::disabled()));
    }
    layers.insert("serve.overhead_ms", repeat_p50 - median(&local_repeats));
    let mut traced = Vec::new();
    let mut setups = Vec::new();
    for seed in [hot_seed, fresh_local(3), hot_seed, fresh_local(4)] {
        let tracer = Tracer::in_memory();
        let before = (
            caches.configs.stats(),
            caches.objects.stats(),
            caches.preproc.stats(),
        );
        let (_, mut pass, setup) = local(seed, &driver(tracer.clone()));
        // The shared caches count since they were made; keep this
        // request's share.
        let s = &mut pass.stats;
        s.cache.hits -= before.0.hits;
        s.cache.misses -= before.0.misses;
        s.object.hits -= before.1.hits;
        s.object.negative_hits -= before.1.negative_hits;
        s.object.misses -= before.1.misses;
        s.preproc.hits -= before.2.hits;
        s.preproc.misses -= before.2.misses;
        s.preproc.closure_hits -= before.2.closure_hits;
        s.preproc.closure_misses -= before.2.closure_misses;
        traced.push(pass_layers(&pass, &tracer.metrics(), 1));
        setups.push(setup);
    }
    layers.extend(median_layers(&traced));
    layers.extend(setup_layers(&setups));
    out.set_layers(&layers);
}

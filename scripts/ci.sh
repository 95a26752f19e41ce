#!/usr/bin/env bash
# Tier-1 gate: everything a PR must keep green.
#
#   ./scripts/ci.sh          # build + tests + clippy
#
# Runs entirely offline — the workspace's only non-std dependencies are
# the vendored path crates under vendor/.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test -q (workspace)"
cargo test --workspace -q

echo "==> cargo clippy --all-targets -- -D warnings (workspace)"
cargo clippy --workspace --all-targets -- -D warnings -D clippy::redundant_clone \
  -D clippy::needless_pass_by_value -D clippy::manual_let_else

# `:(glob)` makes `*` stop at `/` and `**` cross directories; a plain
# 'crates/*/src' pathspec names the directories and matches no file.
echo "==> no Box::leak in crate sources"
# Leaked allocations live until exit, so a long-lived jmake-serve grows
# without bound; every cache must own (and be able to drop) its data.
if git grep -n 'Box::leak' -- ':(glob)crates/*/src/**'; then
  echo "Box::leak found in crate sources" >&2
  exit 1
fi

echo "==> #if structure is walked only in jmake-cpp"
# jmake-cpp's conditional map (SourceMap::cond_map) is the one walk over
# #if/#elif/#else/#endif nesting; a second walker elsewhere drifts from it.
if git grep -n 'logical_lines' -- ':(glob)crates/*/src/**' ':!crates/cpp/src'; then
  echo "logical_lines used outside crates/cpp/src: read SourceMap::cond_map instead" >&2
  exit 1
fi

echo "==> cargo doc --no-deps (RUSTDOCFLAGS=-D warnings: broken intra-doc links fail)"
# The vendored offline stand-ins (rand/proptest/criterion) are excluded:
# they mimic external APIs and are not part of this repo's doc surface.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q \
  --exclude rand --exclude proptest --exclude criterion

# Every smoke run below writes under one scratch directory, removed on exit.
SCRATCH="$(mktemp -d /tmp/jmake-ci.XXXXXX)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "==> object-cache identity run (cached vs uncached reports)"
CACHED_OUT="$SCRATCH/eval-cached.out"
UNCACHED_OUT="$SCRATCH/eval-uncached.out"
# Same window with every host-side acceleration on (config cache,
# object cache and preprocess memo, the defaults) and with all of them
# off: every table, figure, and summary line must be byte-identical —
# the caches may only change wall-clock time.
./target/release/jmake-eval --commits 120 --workers 8 all > "$CACHED_OUT"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache \
  --no-preproc-cache all > "$UNCACHED_OUT"
diff -u "$UNCACHED_OUT" "$CACHED_OUT"

echo "==> cross-check smoke run (static reachability vs mutation coverage)"
CC_A="$SCRATCH/crosscheck-a.json"
CC_B="$SCRATCH/crosscheck-b.json"
# The static analyzer and the mutation pipeline must never provably
# disagree (jmake-eval exits non-zero on any discrepancy), and the
# discrepancy report must be byte-identical across worker counts and
# cache modes — it contains no wall-clock and no nondeterminism.
./target/release/jmake-eval --commits 120 --workers 8 --cross-check > "$CC_A"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache --cross-check > "$CC_B"
diff -u "$CC_A" "$CC_B"
grep -q '"clean": true' "$CC_A"

echo "==> remediation smoke run (--fix: verified deltas, zero disagreements)"
FIX_A="$SCRATCH/fix-a.json"
FIX_B="$SCRATCH/fix-b.json"
# Every missed line must be root-caused without contradicting the dynamic
# classifier, and every emitted config delta must survive its single-trial
# verification re-run (jmake-eval exits non-zero on either failure). The
# report must be byte-identical across worker counts and cache modes.
./target/release/jmake-eval --commits 120 --workers 8 --fix > "$FIX_A"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache \
  --no-preproc-cache --fix > "$FIX_B"
diff -u "$FIX_A" "$FIX_B"
grep -q '"clean": true' "$FIX_A"
grep -q '"verification_failures": 0' "$FIX_A"
# With --fix off the reports must carry no trace of the remediator — the
# identity runs above double as the fix-off byte-baseline.
if grep -q 'FIX:' "$CACHED_OUT"; then
  echo "fix-off report mentions remediations:" >&2
  exit 1
fi

echo "==> trace smoke run (jmake-eval --trace + trace-check, object cache on)"
TRACE_FILE="$SCRATCH/trace.jsonl"
./target/release/jmake-eval --commits 120 --trace "$TRACE_FILE" --metrics summary > /dev/null
# The file must parse line-by-line against the documented schema, and
# every stage name must be one of the documented thirteen.
./target/release/jmake-eval trace-check "$TRACE_FILE" | tee "$SCRATCH/trace-check.out"
for stage in $(awk 'NR > 1 { print $1 }' "$SCRATCH/trace-check.out"); do
  case "$stage" in
    checkout|show|check|mutation_plan|config_solve|build_i|build_o|classify|remediate|retry|timeout|quarantine|portfolio) ;;
    *) echo "unexpected stage name in trace: $stage" >&2; exit 1 ;;
  esac
done

echo "==> persistent-tier identity run (cold vs warm --cache-dir reports)"
CACHE_DIR="$SCRATCH/cache-dir"
COLD_OUT="$SCRATCH/eval-cold.out"
WARM_OUT="$SCRATCH/eval-warm.out"
WARM_ERR="$SCRATCH/eval-warm.err"
# A cold run populates the disk tier; a warm run must load it, report a
# non-zero object-cache hit count, and print byte-identical tables —
# the tier may only move host-side time, never simulated results.
./target/release/jmake-eval --commits 120 --workers 8 \
  --cache-dir "$CACHE_DIR" all > "$COLD_OUT"
./target/release/jmake-eval --commits 120 --workers 8 \
  --cache-dir "$CACHE_DIR" --stats all > "$WARM_OUT" 2> "$WARM_ERR"
diff -u "$COLD_OUT" "$WARM_OUT"
grep -q "disk cache: loaded" "$WARM_ERR"
grep -q "object cache" "$WARM_ERR"
if grep -Eq "object cache +0\.0% hit rate" "$WARM_ERR"; then
  echo "warm --cache-dir run never hit the loaded tier:" >&2
  cat "$WARM_ERR" >&2
  exit 1
fi
# A warm run needs nothing the tier lacks, so it must add no segment.
ls "$CACHE_DIR/segments" > "$SCRATCH/segments-before.ls"
./target/release/jmake-eval --commits 120 --workers 8 \
  --cache-dir "$CACHE_DIR" all > "$WARM_OUT" 2> "$WARM_ERR"
diff -u "$COLD_OUT" "$WARM_OUT"
diff -u "$SCRATCH/segments-before.ls" <(ls "$CACHE_DIR/segments")
grep -q "disk cache: stored 0 new object / 0 new config / 0 new preproc" "$WARM_ERR"

echo "==> jmake-serve smoke run (daemon report vs local jmake-eval, then drain)"
SERVE_SOCK="$SCRATCH/serve.sock"
SERVED_OUT="$SCRATCH/served.out"
./target/release/jmake-serve --socket "$SERVE_SOCK" --parallel 2 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
# Hostile input on one connection: a non-UTF-8 line and an over-long
# line must each get an error reply, and the same connection must then
# still answer a stats request.
python3 - "$SERVE_SOCK" <<'PY'
import socket, sys
conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
conn.settimeout(30)
conn.connect(sys.argv[1])
replies = conn.makefile("rb")
for request, want in [
    (b"\xff\n", b'"error"'),
    (b"a" * (64 * 1024 + 16) + b"\n", b'"error"'),
    (b'{"stats":true}\n', b'"stats"'),
]:
    conn.sendall(request)
    reply = replies.readline()
    if want not in reply:
        sys.exit(f"jmake-serve hostile-input smoke: wanted {want!r}, got {reply!r}")
PY
# The served report must be byte-identical to the local run above.
./target/release/jmake-serve --client "$SERVE_SOCK" \
  --commits 120 --workers 8 all > "$SERVED_OUT"
diff -u "$COLD_OUT" "$SERVED_OUT"
# Three fresh seeds push the first request's entries out of the daemon's
# retention window; its repeat must still be byte-identical.
for seed in 2 3 4; do
  ./target/release/jmake-serve --client "$SERVE_SOCK" \
    --commits 120 --workers 8 --seed "$seed" all > /dev/null
done
./target/release/jmake-serve --client "$SERVE_SOCK" \
  --commits 120 --workers 8 all > "$SERVED_OUT"
diff -u "$COLD_OUT" "$SERVED_OUT"
./target/release/jmake-serve --client "$SERVE_SOCK" --shutdown
wait "$SERVE_PID"

echo "==> fault-injection smoke run (--faults transient:0.2 --fault-seed 7)"
FAULT_ERR="$SCRATCH/faults.err"
# Every commit must produce exactly one outcome even under injected
# faults, and at a 20% transient rate bounded retry must recover every
# single one — no patch may go unreported or degrade.
./target/release/jmake-eval --commits 120 --workers 8 \
  --faults transient:0.2 --fault-seed 7 --stats summary > /dev/null 2> "$FAULT_ERR"
grep -q "fault recovery: injected" "$FAULT_ERR"
if grep -q "did not produce a report" "$FAULT_ERR"; then
  echo "fault smoke run left commits without an outcome:" >&2
  cat "$FAULT_ERR" >&2
  exit 1
fi

echo "==> portfolio smoke run (--portfolio 4: coverage beyond allyes, byte-identity)"
PF_A="$SCRATCH/portfolio-a.json"
PF_B="$SCRATCH/portfolio-b.json"
# A K=4 seeded portfolio must strictly beat the allyes-only baseline
# (covered > allyes ⇔ covered_conditional > 0, and randconfig members
# must certify tokens allyes missed), and the report must be
# byte-identical across worker counts and cache modes — selection is a
# pure function of (tree, arch, K, seed).
./target/release/jmake-eval --commits 120 --workers 8 \
  --portfolio 4 --rand-seed 1 > "$PF_A"
./target/release/jmake-eval --commits 120 --workers 1 \
  --no-object-cache --no-shared-cache \
  --no-preproc-cache --portfolio 4 --rand-seed 1 > "$PF_B"
diff -u "$PF_A" "$PF_B"
extract_pf() { sed -n "s/.*\"$2\": \([0-9]*\).*/\1/p" "$1" | head -n 1; }
PF_COND="$(extract_pf "$PF_A" covered_conditional)"
PF_RAND="$(extract_pf "$PF_A" by_rand)"
if [ -z "$PF_COND" ] || [ "$PF_COND" -eq 0 ]; then
  echo "portfolio covered no conditional lines beyond allyes:" >&2
  cat "$PF_A" >&2
  exit 1
fi
if [ -z "$PF_RAND" ] || [ "$PF_RAND" -eq 0 ]; then
  echo "portfolio randconfig members certified no tokens:" >&2
  cat "$PF_A" >&2
  exit 1
fi
echo "    portfolio covers $PF_COND conditional line(s), $PF_RAND token(s) via randconfig"

echo "==> bench-regression gate (patches/s vs committed BENCH_5.json, -10% floor)"
BENCH_OUT="$SCRATCH/bench.json"
# Re-run the standard 1,200-commit sweep (same seed/workers as the
# committed baseline) and fail if throughput drops more than 10% below
# the BENCH_5.json this repo ships. Wall-clock varies by machine, so
# the gate is a floor, not an equality check; refresh the baseline with
# the jmake-eval invocation documented in EXPERIMENTS.md when a PR
# legitimately moves it.
./target/release/jmake-eval --commits 1200 --seed 319123704645 --workers 4 \
  --bench-json "$BENCH_OUT" summary > /dev/null
# The artifact must carry the documented schema and the portfolio
# summary block (with "ran": false on a portfolio-less sweep).
grep -q '"schema": 5' "$BENCH_OUT"
grep -q '"portfolio": { "ran": false' "$BENCH_OUT"
extract_pps() { sed -n 's/.*"patches_per_sec": \([0-9.]*\).*/\1/p' "$1"; }
BASELINE_PPS="$(extract_pps BENCH_5.json)"
CURRENT_PPS="$(extract_pps "$BENCH_OUT")"
if [ -z "$BASELINE_PPS" ] || [ -z "$CURRENT_PPS" ]; then
  echo "could not extract patches_per_sec (baseline='$BASELINE_PPS' current='$CURRENT_PPS')" >&2
  exit 1
fi
echo "    baseline $BASELINE_PPS patches/s, current $CURRENT_PPS patches/s"
# Integer math in awk: fail when current < 0.9 * baseline.
if ! awk -v cur="$CURRENT_PPS" -v base="$BASELINE_PPS" \
    'BEGIN { exit !(cur >= 0.9 * base) }'; then
  echo "bench regression: $CURRENT_PPS patches/s is >10% below the committed $BASELINE_PPS" >&2
  exit 1
fi

echo "==> tier-1 gate passed"

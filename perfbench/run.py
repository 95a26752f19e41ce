#!/usr/bin/env python3
"""Build and run the JMake benchmark.

    python3 perfbench/run.py --workload <cold-sweep|warm-restart|serve-mixed>
                             --seed N --seconds S --trace <0|1>

Run from the root of a checkout. Builds the benchmark package (and the
`jmake-serve` daemon it drives) in release mode into `$CARGO_TARGET_DIR`
(default `.bench_build`), then runs it with the same arguments. The
benchmark prints its result as the last line of stdout and exits non-zero
when a check failed; a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)  # no-op when already absolute
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "jmake-perfbench")
    return subprocess.run([binary, *sys.argv[1:]], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())

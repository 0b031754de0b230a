#!/usr/bin/env python3
"""Build and run the whole-job benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the benchmark package (perfbench/)
against the repository's crates with `cargo build --release --offline`
into $CARGO_TARGET_DIR (default .bench_build), then runs one workload. The
run's checkpoint and spill files go to a fresh directory under .bench_tmp/,
which is removed afterwards; a traced run writes its spans and counters to
.bench_out/. The last line of standard output is the result object.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ["ingest-small", "analytics-tiny", "serve-recover"]
# Every run must end within 180 s; the build of a first run may take longer.
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    root = os.getcwd()
    manifest = os.path.join("perfbench", "Cargo.toml")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("error: the benchmark did not build", file=sys.stderr)
        return 1

    binary = os.path.join(target, "release", "surfer-perfbench")
    scratch = os.path.join(root, ".bench_tmp", str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    env["TMPDIR"] = scratch
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.Popen(cmd, env=env)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        code = 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the desmine end-to-end benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: mine, serve_overlap, serve_distinct, detect_batch (see
perfbench/README.md). The script builds the library and the benchmark
driver from source (Release) under .bench_build/perfbench, mines the
artifact the serve and detect workloads use once per source tree, then runs
the workload. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The exit code is non-zero when the build fails, a correctness check fails
or the workload does not finish.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("mine", "serve_overlap", "serve_distinct", "detect_batch")
RUN_TIMEOUT_S = 170
PREPARE_TIMEOUT_S = 300
BUILD_TIMEOUT_S = 840


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(REPO, base)
    return os.path.join(base, "perfbench")


def source_key():
    """Digest of every source file the benchmark builds from.

    The artifact cache is keyed by it (plus the build's version string), so
    two source trees never share a mined artifact.
    """
    h = hashlib.sha256()
    roots = [os.path.join(REPO, "src"), HERE]
    files = [os.path.join(REPO, "CMakeLists.txt")]
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".h", ".in", ".txt")):
                    files.append(os.path.join(dirpath, name))
    for path in files:
        h.update(os.path.relpath(path, REPO).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run(cmd, timeout, **kw):
    return subprocess.run(cmd, timeout=timeout, check=False, **kw)


def build(out_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        r = run(["cmake", "-S", HERE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"],
                BUILD_TIMEOUT_S, stdout=sys.stderr)
        if r.returncode != 0:
            return False
    r = run(["cmake", "--build", out_dir, "--target", "perfbench", "-j", jobs],
            BUILD_TIMEOUT_S, stdout=sys.stderr)
    return r.returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("score", "digest", "artifact"),
                    help="damage one output before the checks (check tests)")
    args = ap.parse_args()

    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(REPO, needed)):
            print(f"run.py: {needed} missing next to perfbench/; run from a "
                  "full checkout", file=sys.stderr)
            return 1
    out_dir = build_dir()
    try:
        if not build(out_dir):
            print("run.py: build failed", file=sys.stderr)
            return 1
        binary = os.path.join(out_dir, "perfbench")
        common = ["--work-dir", os.path.join(out_dir, "work"),
                  "--build-key", source_key()]
        if args.workload != "mine":
            r = run([binary, "--prepare-artifact"] + common, PREPARE_TIMEOUT_S,
                    stdout=sys.stderr)
            if r.returncode != 0:
                print("run.py: mining the serve/detect artifact failed",
                      file=sys.stderr)
                return 1
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)] + common
        if args.corrupt:
            cmd += ["--corrupt", args.corrupt]
        r = run(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as e:
        print(f"run.py: timed out: {e.cmd}", file=sys.stderr)
        return 1
    lines = r.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print("run.py: the benchmark printed no result", file=sys.stderr)
        return 1
    sys.stdout.write(r.stdout)
    sys.stdout.flush()
    if r.returncode != 0 or not result.get("correct"):
        return r.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

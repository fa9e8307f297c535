#!/usr/bin/env python3
"""Tests of the benchmark's own checks. Run from the repository root:

    python3 perfbench/test_checks.py [workload ...]

For every workload (all four by default):
  * a clean run passes and prints exactly the end-to-end metrics that
    BENCHMARK.json lists, and a traced run exactly its per-layer metrics;
  * a run whose score, BLEU digest or artifact is corrupted before the
    checks (run.py --corrupt) exits non-zero with "correct": false.
Runs use --seconds 1, so the whole file takes a few minutes (mine always
mines all 72 pairs).
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
WORKLOADS = ("mine", "serve_overlap", "serve_distinct", "detect_batch")


def run(workload, trace=0, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    p = subprocess.run(cmd, cwd=REPO, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().split("\n")
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        result = None
    return p.returncode, result, p.stderr


def main():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what, flush=True)
        if not ok:
            failures.append(what)

    for w in sys.argv[1:] or WORKLOADS:
        rc, result, err = run(w)
        expect(rc == 0 and result and result["correct"], f"{w}: clean run passes")
        if result:
            expect(set(result["metrics"]) == e2e,
                   f"{w}: clean run prints the end-to-end metrics")
        rc, result, err = run(w, trace=1)
        expect(rc == 0 and result and result["correct"], f"{w}: traced run passes")
        if result:
            missing = layers - set(result["metrics"])
            extra = set(result["metrics"]) - layers
            expect(not missing and not extra,
                   f"{w}: traced run prints the per-layer metrics"
                   f" (missing {sorted(missing)}, extra {sorted(extra)})")
        for corrupt in ("score", "digest", "artifact"):
            rc, result, err = run(w, corrupt=corrupt)
            expect(rc != 0 and result is not None and not result["correct"],
                   f"{w}: corrupted {corrupt} fails the run")
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

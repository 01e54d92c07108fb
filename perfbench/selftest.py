#!/usr/bin/env python3
"""Self-test of the receive-chain benchmark.

    python3 perfbench/selftest.py

Run from the repository root. Runs the small `selftest-short` workload for a
couple of seconds and checks that:
  * the untraced run prints every end-to-end metric of BENCHMARK.json, and
    the traced run every per-layer metric, each with the declared unit;
  * a clean run reports correct=true and exits 0;
  * a deliberately corrupted payload and a deliberately corrupted codeword
    digest each make the command exit nonzero with correct=false.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(trace, corrupt=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", "selftest-short",
           "--seed", "7", "--seconds", "2", "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", corrupt]
    r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    try:
        result = json.loads(r.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    return r.returncode, result, r.stdout + r.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        rc, result, out = run(trace)
        check(rc == 0 and result is not None and result["correct"] is True,
              "clean run --trace %d exits 0 with correct=true" % trace)
        if result is None:
            print(out)
            continue
        check(set(result) == {"correct", "attempted", "failed", "metrics"},
              "--trace %d result has exactly correct/attempted/failed/metrics" % trace)
        check(result["attempted"] >= 1 and result["failed"] == 0,
              "--trace %d attempted >= 1 and failed == 0" % trace)
        metrics = result["metrics"]
        for m in spec[key]:
            got = metrics.get(m["name"])
            check(got is not None and got.get("unit") == m["unit"]
                  and isinstance(got.get("value"), (int, float)),
                  "--trace %d prints %s [%s]" % (trace, m["name"], m["unit"]))
        extra = set(metrics) - {m["name"] for m in spec[key]}
        check(not extra, "--trace %d prints no undeclared metric %s" % (trace, sorted(extra)))

    for corrupt in ("payload", "digest"):
        rc, result, out = run(0, corrupt)
        check(rc != 0 and (result is None or result["correct"] is False),
              "corrupted %s makes the run fail (exit %d)" % (corrupt, rc))

    print("%d check(s) failed" % len(failures) if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Receive-chain benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (and the library sources it
pulls in from src/) into .bench_build/perfbench, or into
$CARGO_TARGET_DIR/perfbench when that variable is set; measures set-up time
in several fresh processes; runs one workload; and prints, as the last line,
{"correct", "attempted", "failed", "metrics"}. Exits nonzero when the build
fails or any correctness gate fails. See perfbench/NOTES.md.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_SAMPLES = 19     # fresh processes, plus the main run's own sample
RUN_TIMEOUT_S = 170    # a run must end within 180 s, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise RuntimeError("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "dvbs2_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise RuntimeError("build failed")
    return os.path.join(bdir, "dvbs2_perfbench")


def source_digest():
    """sha256 over the library and benchmark sources (the checkout may not be
    a git repository, so this stands in for the commit id)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def setup_samples(binary, workload):
    samples = []
    for _ in range(SETUP_SAMPLES):
        r = subprocess.run([binary, "--workload", workload, "--setup-only"],
                           capture_output=True, text=True, timeout=60)
        if r.returncode != 0:
            raise RuntimeError("set-up run failed: " + r.stderr.strip())
        samples.append(json.loads(r.stdout.strip().splitlines()[-1]))
    return samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", choices=("payload", "digest"),
                    help="deliberately corrupt one output (self-test of the gates)")
    args = ap.parse_args()

    bdir = build_dir()
    try:
        binary = build(bdir)
        samples = setup_samples(binary, args.workload)
    except (RuntimeError, OSError, subprocess.SubprocessError, ValueError) as e:
        log("error: " + str(e))
        return 2

    out_dir = os.path.join(bdir, "results")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out-dir", out_dir]
    if args.corrupt:
        cmd += ["--corrupt", args.corrupt]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("error: benchmark run exceeded %d s" % RUN_TIMEOUT_S)
        return 2
    lines = r.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stdout.write(r.stdout)
        log("error: benchmark printed no result (exit %d)" % r.returncode)
        return r.returncode or 2

    # Set-up time: the median over fresh processes and the main run's own
    # sample (the library caches range certificates per process, so only a
    # fresh process measures a cold set-up).
    prov = {}
    for line in lines[:-1]:
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
        else:
            print(line)
    metrics = result["metrics"]
    for key, field, scale in (("setup_s", "setup_s", 1.0), ("setup.code_ms", "code_s", 1e3),
                              ("setup.bch_ms", "bch_s", 1e3), ("setup.engine_ms", "engine_s", 1e3)):
        if key in metrics:
            own = metrics[key]["value"] / scale
            values = [s[field] for s in samples] + [own]
            metrics[key]["value"] = statistics.median(values) * scale
    prov["git_sha"] = git_sha()
    prov["source_sha256"] = source_digest()
    prov["setup_samples"] = len(samples) + 1
    print("provenance " + json.dumps(prov))
    print(json.dumps(result), flush=True)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the mpclust benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload uni_pairs --seed 1 --seconds 20 --trace 0

Builds perfbench/ (which compiles the mpclust libraries from src/) in
Release under .bench_build/perfbench, runs the mpcbench driver, and
prints its result object as the last line of stdout. Build output and
diagnostics go to stderr. The driver's result file and, for traced
runs, its Chrome trace are written under .bench_build/results/.

Extra flags: --scale K (input scale; default 1 for uni_pairs and 2 for
the others; the workload generators have fixed seeds, so another scale
is the held-out input) and --smoke (scale 1, one repetition).
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
DRIVER = os.path.join(BUILD, "mpcbench")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, timeout):
    """Run cmd with its output on stderr; fail on error or timeout."""
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail("timed out: " + " ".join(cmd))
    if done.returncode != 0:
        fail("failed (exit %d): %s" % (done.returncode, " ".join(cmd)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no mpclust sources: run from the repository root, "
             "beside src/")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"] + generator,
                   BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", BUILD, "--target", "mpcbench",
                "-j", "4"], BUILD_TIMEOUT_S)


def source_hash():
    """SHA-256 over the program and benchmark sources (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_commit():
    if shutil.which("git") is None or \
            not os.path.exists(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, or None."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=int, choices=(1, 2, 3))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    build()
    os.makedirs(RESULTS, exist_ok=True)
    stem = os.path.join(RESULTS, "%s.seed%d.trace%d" %
                        (args.workload, args.seed, args.trace))
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", git_commit(), "--source-hash", source_hash(),
           "--out", stem + ".json", "--trace-out", stem + ".chrome.json"]
    if args.scale is not None:
        cmd += ["--scale", str(args.scale)]
    if args.smoke:
        cmd.append("--smoke")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("driver printed no result (exit %d)" % done.returncode)
    result = json.loads(lines[-1])
    declared = declared_metrics(args.trace == 1)
    if declared is not None and list(result["metrics"]) != declared:
        fail("driver metrics %s differ from BENCHMARK.json %s" %
             (list(result["metrics"]), declared))
    print(lines[-1])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

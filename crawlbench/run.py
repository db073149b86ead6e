#!/usr/bin/env python3
"""Builds the SmartCrawl benchmark from source and runs one workload.

    python3 crawlbench/run.py --workload paper_crawl --seed 1 --seconds 10 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file). The first call configures and builds a Release binary under
.bench_build/crawlbench; later calls only rebuild what changed. The last
line of stdout is the result JSON printed by the binary; the line before it
holds the run context. Exits non-zero when the sources are missing, the
build fails, the run times out or an output check fails.

Extra flags for the smoke test: --scale X shrinks every input size and
--tamper-fingerprint corrupts one reference fingerprint so the output check
must fail.
"""

import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "crawlbench")
WORK_DIR = os.path.join(BUILD_DIR, "work")
BINARY = os.path.join(BUILD_DIR, "crawlbench")
WORKLOADS = ("paper_crawl", "fleet_shared", "fleet_distinct")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the benchmark; cmake output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "crawl_plan.h")):
        log(f"no SmartCrawl sources under {os.path.join(ROOT, 'src')}")
        return False
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def source_digest():
    """sha256 over the library and benchmark sources, in path order."""
    h = hashlib.sha256()
    for top in ("src", "crawlbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    """The checked-out commit, when the tree is a git work tree."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--tamper-fingerprint", action="store_true")
    args = ap.parse_args()

    if not build():
        return 2
    os.makedirs(WORK_DIR, exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", WORK_DIR,
           "--commit", commit(), "--source-digest", source_digest()]
    if args.tamper_fingerprint:
        cmd.append("--tamper-fingerprint")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

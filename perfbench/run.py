#!/usr/bin/env python3
"""Builds and runs one workload of the end-to-end benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds perfbench/ (the repository's library
plus the benchmark binary) into .bench_build/ in Release mode; later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the result object. Scratch files (arena stores, the control
file) live in .bench_run/work/ and are removed at the end of a run; the
report with provenance (and, traced, the spans) is kept in
.bench_run/reports/. See perfbench/NOTES.md.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("asrel-tz-uniform", "pa50k-cowen-zipf", "pa2k-cowen-churn")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(root, build_dir):
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "cpr_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "cpr_perfbench"


def git_sha(root):
    if not (root / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest(root):
    """SHA-256 over the library and benchmark sources, for checkouts
    without git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources under {root / 'src'}; nothing to benchmark")
        return 1
    try:
        exe = build(root, root / ".bench_build")
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"build failed: {e}")
        return 1

    run = root / ".bench_run"
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--run-dir", str(run / "work"), "--report-dir", str(run / "reports"),
           "--data-dir", str(root / "tests" / "data"),
           "--prov", f"git_sha={git_sha(root)}",
           "--prov", f"source_digest={source_digest(root)}"]
    # Own session, so a timeout can stop the writer and its reader together.
    proc = subprocess.Popen(cmd, cwd=root, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())

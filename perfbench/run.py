#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload smoke_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

`--workload all` runs every workload untraced and then traced.

The first run configures and builds the qfc library and the benchmark
binary (Release) under .bench_build/perfbench; later runs only re-check
the build. All build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. The exit code is the benchmark's own: 0 when
every output was correct, nonzero otherwise or when the build fails.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "qfc_perfbench")
# A run measures for --seconds plus a fixed amount of set-up and probing;
# anything far beyond that is a hang.
RUN_TIMEOUT_S = 170
WORKLOADS = ("smoke_sweep", "network_stream", "param_study")


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def run_quiet(cmd, **kwargs):
    """Runs a build step with its output on stderr; raises on failure."""
    subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr, **kwargs)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src", "qfc")
    ):
        raise RuntimeError(f"{ROOT} is not a qfc checkout (no CMakeLists.txt or src/qfc)")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    run_quiet(["cmake", "--build", BUILD, "--target", "qfc_perfbench", "-j", jobs])


def git_commit():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def source_digest():
    """sha256 over the library sources and root build file, so a run names
    the code it measured even in a checkout that is not a git repository."""
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for base, dirs, files in os.walk(os.path.join(ROOT, "src")):
        dirs.sort()
        paths += [os.path.join(base, f) for f in sorted(files)]
    for path in paths:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_benchmark(cmd):
    """Runs the benchmark binary with stdout passed through. It starts its
    own measuring processes, so it runs in a process group of its own, and
    a hung run is stopped as a whole group."""
    sys.stdout.flush()
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return 3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed:", e)
        return 2

    commit, digest = git_commit(), source_digest()
    if args.workload == "all":
        runs = [(w, trace) for w in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    status = 0
    for workload, trace in runs:
        cmd = [
            EXE,
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(trace),
            "--commit", commit,
            "--source-digest", digest,
            "--artifacts", os.path.join(ROOT, ".bench_build", "artifacts"),
        ]
        status = status or run_benchmark(cmd)
    return status


if __name__ == "__main__":
    sys.exit(main())

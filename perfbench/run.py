#!/usr/bin/env python3
"""Builds and runs the end-to-end P4All benchmark (see README.md).

    python3 perfbench/run.py --workload compile|serve-steady|serve-drift \
        --seed N --seconds S --trace 0|1

Run it from the root of a source checkout. It builds perfbench/ (and the
P4All libraries from src/) into .bench_build/perfbench with CMake, then runs
one measurement. The last line of stdout is the result JSON; the exit code is
non-zero when the build fails or any output check fails.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "perfbench-run"
WORKLOADS = ("compile", "serve-steady", "serve-drift")
RUN_TIMEOUT_S = 175  # one measurement, build excluded
BUILD_TYPE = "RelWithDebInfo"  # the repository's default build type


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def build():
    """Configures once, then rebuilds incrementally; output goes to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return False
    return True


def source_id():
    """The git commit when the checkout is a clone, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10)
            if out.returncode == 0 and out.stdout.strip():
                return "git:" + out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file():
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return "sha256:" + h.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        return fail(f"no P4All sources at {ROOT / 'src'}; run from a full checkout")
    if not build():
        return fail("build failed")
    WORK.mkdir(parents=True, exist_ok=True)

    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(WORK),
           "--source-id", source_id()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail(f"measurement did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        pass
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                          "metrics"}:
        sys.stdout.write(proc.stdout)
        return fail(f"no result line (exit code {proc.returncode})")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        listed = json.loads(spec.read_text())["per_layer" if args.trace else "end_to_end"]
        if [m["name"] for m in listed] != list(result["metrics"]):
            return fail("metric names differ from BENCHMARK.json")
    return proc.returncode if proc.returncode != 0 else (0 if result["correct"] else 1)


if __name__ == "__main__":
    sys.exit(main())

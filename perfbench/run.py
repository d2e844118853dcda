#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload paper|fabric|service --seed N \
        --seconds S --trace 0|1

The first call configures and builds perfbench (Release) from the library
sources in src/ into the build directory ($CARGO_TARGET_DIR, default
.bench_build); later calls only re-check the build. A run is PROCESSES
benchmark processes in turn, each measuring its share of the seconds; their
reports are printed as they end, and the combined result object is the last
line of standard output. Build logs go to standard error. Exits 1 when any
op failed, and non-zero without a result when the sources or the build are
missing or broken, when a process fails or overruns, or when the result
does not carry exactly the metrics BENCHMARK.json names for the mode.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
# A run is this many benchmark processes one after another, each measuring
# its share of --seconds. On the shared 4-vCPU virtual machine the figures
# of one process drifted by 5-7% (IQR/median) between its own 25-second
# stretches but by 12-22% between processes, so a run averages processes.
PROCESSES = 3


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = ["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    binary = build_dir / "perfbench"
    if not binary.exists():
        fail(f"build produced no {binary}")
    return binary


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((REPO / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(REPO)).encode())
                h.update(path.read_bytes())
    return "sources-sha256:" + h.hexdigest()[:16]


def expected_metrics(trace):
    spec_path = REPO / "BENCHMARK.json"
    if not spec_path.exists():
        return None
    spec = json.loads(spec_path.read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def combine(results, details):
    """One result object from the processes of a run.

    Ops and failures add up. setup_s is the median of every process's
    set-up, peak_rss_mb the largest process's peak, and every other metric
    the mean over the processes. Processes that computed different
    reference digests count as one more failed op.
    """
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        if name == "setup_s":
            value = statistics.median(values)
        elif name == "peak_rss_mb":
            value = max(values)
        else:
            value = statistics.fmean(values)
        metrics[name] = {"value": value, "unit": first["unit"]}
    failed = sum(r["failed"] for r in results)
    digests = {d.get("notes", {}).get("reference_digest") for d in details}
    if len(digests) > 1:
        print("perfbench: the processes computed different reference digests", file=sys.stderr)
        failed += 1
    return {
        "correct": failed == 0 and all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["paper", "fabric", "service"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    if not (REPO / "src" / "CMakeLists.txt").exists():
        fail(f"library sources not found under {REPO / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_dir.is_absolute():
        build_dir = REPO / build_dir
    binary = build(build_dir / "perfbench")
    out_dir = build_dir / "perfbench-out"

    env = {k: v for k, v in os.environ.items()
           if k not in ("PDC_SWEEP_THREADS", "PDC_SIM_THREADS")}
    commit = source_id()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    results, details, codes = [], [], []
    for k in range(PROCESSES):
        child_dir = out_dir / f"process{k}"
        child_dir.mkdir(parents=True, exist_ok=True)
        cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds / PROCESSES), "--trace", str(args.trace),
               "--out-dir", os.path.relpath(child_dir, Path.cwd()), "--commit", commit]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                                  timeout=max(deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            fail(f"run exceeded {RUN_TIMEOUT_S} s")
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or len(lines) < 2:
            sys.stdout.write(proc.stdout)
            fail(f"benchmark exited with code {proc.returncode}", proc.returncode or 2)
        try:
            results.append(json.loads(lines[-1]))
            details.append(json.loads(lines[-2]))
        except json.JSONDecodeError:
            sys.stdout.write(proc.stdout)
            fail("the benchmark's last two lines are not a report and a result object", 3)
        codes.append(proc.returncode)
        print("\n".join(lines[:-1]), flush=True)

    result = combine(results, details)
    want = expected_metrics(bool(args.trace))
    if want is not None and set(result["metrics"]) != want:
        fail("result metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ want)}", 3)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] and not any(codes) else 1


if __name__ == "__main__":
    sys.exit(main())

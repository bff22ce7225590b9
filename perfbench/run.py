#!/usr/bin/env python3
"""Campaign benchmark entry point.

    python3 perfbench/run.py --workload spec-cpu|battery-day
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. Builds the simulator library
and the perfbench binary from source (CMake, Release) under
$CARGO_TARGET_DIR (default .bench_build), runs one workload, and
prints the host context, the binary's report, and, as the last line,
one JSON object with the keys correct, attempted, failed and metrics.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of a traced run. perfbench/METRICS.md defines every name.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 1
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then let CMake rebuild what changed."""
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", "3"],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def cmake_cache(build_dir, key):
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return None


def source_digest():
    """SHA-256 over every file under src/ (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def host_context(build_dir):
    """What a result set must carry so hosts are never compared."""
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache(build_dir, "CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        out = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True)
        version = (out.stdout.splitlines() or [None])[0]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "compiler": version or compiler,
        "build_type": cmake_cache(build_dir, "CMAKE_BUILD_TYPE"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
    }


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="spec-cpu or battery-day")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (ROOT / "src").is_dir() or not (ROOT / "BENCHMARK.json").exists():
        fail(f"{ROOT} is not a source checkout (no src/ or BENCHMARK.json)")
    out_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = out_root / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        fail(f"build failed: {e}")

    context = host_context(build_dir)
    print("host_context " + json.dumps(context, sort_keys=True))

    results = out_root / "perfbench-results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", str(out_root / "perfbench-work" /
                             f"{stem}-{os.getpid()}")]
    if args.trace:
        cmd += ["--trace-out", str(results / f"{stem}.spans.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("RESULT "):
        fail(f"perfbench exited {proc.returncode} without a result")
    report = json.loads(lines[-1][len("RESULT "):])

    metrics = report["metrics"]
    want = expected_metrics(args.trace)
    if set(metrics) != want:
        fail(f"metric set mismatch: missing {sorted(want - set(metrics))}, "
             f"extra {sorted(set(metrics) - want)}")
    bad = [k for k, v in metrics.items() if not math.isfinite(v["value"])]
    if bad:
        fail(f"non-finite metrics: {bad}")

    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:.6g} {m['unit']}")
    record = dict(report, host=context, seconds=args.seconds,
                  trace=args.trace)
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({k: report[k]
                      for k in ("correct", "attempted", "failed", "metrics")}))


if __name__ == "__main__":
    main()

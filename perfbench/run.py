#!/usr/bin/env python3
"""Build and run the end-to-end miner benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. The first call configures and builds
perfbench/ (which compiles the library from src/) into .bench_build/ in
Release mode; later calls rebuild incrementally. Build output goes to
stderr, so the last line of stdout is the benchmark's JSON result.

--smoke runs every workload of BENCHMARK.json once at a tiny scale, with and
without tracing, and checks the result schema and metric names and units
against BENCHMARK.json.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def bench_args(argv):
    """Forward the driver's flags; add the commit and the spans file."""
    out = list(argv)
    opts = dict(zip(argv[::2], argv[1::2]))
    if opts.get("--trace") == "1" and "--spans" not in opts:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        name = f"{opts.get('--workload', 'x')}-seed{opts.get('--seed', '0')}.json"
        out += ["--spans", str(spans / name)]
    return out + ["--commit", commit()]


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            argv = ["--workload", workload["name"], "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--scale", "0.05"]
            proc = subprocess.run([str(BINARY)] + bench_args(argv),
                                  capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode or not lines:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                fail(f"smoke: {workload['name']} trace={trace} exited "
                     f"{proc.returncode}")
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"smoke: bad result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                fail(f"smoke: {workload['name']} trace={trace} not correct")
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                fail(f"smoke: {workload['name']} trace={trace} metrics differ: "
                     f"missing {sorted(set(want) - set(got))}, "
                     f"extra {sorted(set(got) - set(want))}, units "
                     f"{ {k: (want[k], got[k]) for k in want if k in got and want[k] != got[k]} }")
            if any(not isinstance(v["value"], (int, float))
                   for v in result["metrics"].values()):
                fail("smoke: non-numeric metric value")
            print(f"smoke ok: {workload['name']} trace={trace} "
                  f"({result['attempted']} jobs, {len(got)} metrics)")


def main():
    build()
    if sys.argv[1:] == ["--smoke"]:
        smoke()
        return 0
    return subprocess.run([str(BINARY)] + bench_args(sys.argv[1:])).returncode


if __name__ == "__main__":
    sys.exit(main())

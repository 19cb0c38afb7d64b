#!/usr/bin/env python3
"""Build and run the repository benchmark.

From the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke

The first form builds perfbench/ (CMake, Release; the isingrbm library
comes from the repository's own CMakeLists.txt) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, then runs one workload.  The last
line of stdout is the result object.  A traced run (--trace 1) also
leaves its spans in <build>/traces/<workload>-<seed>.jsonl.

--smoke runs every workload of BENCHMARK.json for one second, untraced
and traced, and checks that each run is correct and emits exactly the
metric names and units BENCHMARK.json lists.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = 1


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configure once, then (re)build the benchmark binary."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no isingrbm sources (CMakeLists.txt, src/) "
                 "beside perfbench/")
    if not (bdir / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", str(HERE), "-B", str(bdir),
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode:
            sys.exit("perfbench: cmake configure failed")
    jobs = str(os.cpu_count() or 2)
    compile_cmd = ["cmake", "--build", str(bdir), "--target", "perfbench",
                   "--parallel", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode:
        sys.exit("perfbench: build failed")


def run_workload(bdir, workload, seed, seconds, trace):
    """Run one workload; returns (exit code, stdout)."""
    traces = bdir / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(bdir / "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--work-dir", str(bdir / "work"),
           "--trace-out", str(traces / f"{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return proc.returncode, proc.stdout


def smoke(bdir):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            where = f"{workload} --trace {trace}"
            found = len(problems)
            code, out = run_workload(bdir, workload, 1, SMOKE_SECONDS,
                                     trace)
            lines = out.strip().splitlines()
            if code or not lines:
                problems.append(f"{where}: exit {code}, no result")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] or \
                    result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"attempted={result['attempted']} "
                                f"failed={result['failed']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                problems.append(f"{where}: missing {missing}, extra "
                                f"{extra}, or units differ")
            if trace == 0:
                zero = [k for k, v in result["metrics"].items()
                        if not v["value"] > 0]
                if zero:
                    problems.append(f"{where}: non-positive {zero}")
            verdict = "ok" if len(problems) == found else "FAILED"
            print(f"smoke: {where}: {verdict}", file=sys.stderr)
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    bdir = build_dir()
    build(bdir)
    if args.smoke:
        return smoke(bdir)
    code, out = run_workload(bdir, args.workload, args.seed, args.seconds,
                             args.trace)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())

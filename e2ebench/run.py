#!/usr/bin/env python3
"""Whole-run LIRA benchmark: builds the driver from source and runs it.

Run from the repository root:

  python3 e2ebench/run.py --workload steady_20k --seed 1 --seconds 33 --trace 0
  python3 e2ebench/run.py --workload adapt_1024 --seed 1 --seconds 33 --trace 1
  python3 e2ebench/run.py --selftest

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics and writes a Chrome trace under .bench_build/e2ebench/traces.
The last stdout line is the result JSON; lines before it starting with "# "
give provenance, the state hash, and every metric with its unit and spread.
--selftest runs the driver's reduced-scale equality checks and then every
workload at reduced scale in both modes, checking that the metric names it
prints are exactly the ones BENCHMARK.json declares.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "e2ebench"
BINARY = BUILD / "lira_e2e"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message, code=1):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Runs a build step, showing its output only when it fails."""
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(map(str, cmd))}")
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-20000:])
        fail(f"failed: {' '.join(map(str, cmd))}")


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no LIRA source tree at {ROOT}", code=2)
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_quiet(["cmake", "--build", str(BUILD), "--target", "lira_e2e",
               "-j", jobs], BUILD_TIMEOUT_S)


def git_describe():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def run_driver(args):
    """Runs lira_e2e; returns (exit code, stdout)."""
    try:
        done = subprocess.run([str(BINARY)] + args, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"lira_e2e did not finish within {RUN_TIMEOUT_S} s")
    return done.returncode, done.stdout


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def check_result(line, declared):
    """Problems with one result line against the declared metric set."""
    result = json.loads(line)
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("run not correct")
    printed = result.get("metrics", {})
    for name in sorted(set(declared) - set(printed)):
        problems.append(f"declared but not printed: {name}")
    for name in sorted(set(printed) - set(declared)):
        problems.append(f"printed but not declared: {name}")
    for name in sorted(set(printed) & set(declared)):
        if printed[name].get("unit") != declared[name]:
            problems.append(f"unit of {name}: {printed[name].get('unit')}")
    return problems


def selftest():
    code, out = run_driver(["--selftest"])
    sys.stdout.write(out)
    failures = 0 if code == 0 else 1
    end_to_end, per_layer, workloads = declared_metrics()
    for workload in workloads:
        for traced, declared in (("0", end_to_end), ("1", per_layer)):
            code, out = run_driver(
                ["--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", traced, "--nodes", "2000", "--frames", "240"])
            lines = out.strip().splitlines()
            problems = [f"exit code {code}"] if code != 0 else []
            problems += check_result(lines[-1], declared) if lines else \
                ["no output"]
            failures += 1 if problems else 0
            status = "FAIL " + "; ".join(problems) if problems else "PASS"
            print(f"{status} metric names {workload} --trace {traced}")
    print("selftest:", "ok" if failures == 0 else "FAILED")
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=33)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()

    build()
    if opts.selftest:
        return selftest()
    if not opts.workload:
        parser.error("--workload is required")
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", str(opts.seconds), "--trace", opts.trace,
            "--git", git_describe()]
    if opts.trace == "1":
        traces = BUILD / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        args += ["--trace-out",
                 str(traces / f"{opts.workload}-seed{opts.seed}.json")]
    code, out = run_driver(args)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the repository benchmark that BENCHMARK.json describes.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The benchmark is built from the repository
sources into .bench_build/perfbench (the first run compiles the libraries),
its self-tests run, and then each workload runs in a process of its own, so
that its peak RSS is its own. The last line of standard output is the JSON
result of the workload; with --workload all a summary table follows instead.
Build and self-test output goes to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
PROGRAM = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
# One workload run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build():
    """Configures the build tree once, then brings it up to date. The
    compiler's temporary files stay inside the build tree too."""
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "build.ninja")) and not os.path.exists(
        os.path.join(BUILD, "Makefile")
    ):
        cmd = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, stdout=sys.stderr, check=True, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], stdout=sys.stderr,
                   check=True, env=env)
    subprocess.run([SELFTEST], stdout=sys.stderr, check=True)


def run_workload(name, seed, seconds, trace):
    """Runs one workload; echoes its output and returns its result line."""
    cmd = [PROGRAM, "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        os.makedirs(SPANS, exist_ok=True)
        cmd += ["--spans", os.path.join(SPANS, f"{name}-seed{seed}.jsonl")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {name} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name from BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        raise SystemExit(f"perfbench: build or self-test failed: {e}")

    if args.workload != "all":
        run_workload(args.workload, args.seed, args.seconds, args.trace)
        return

    results = [(n, run_workload(n, args.seed, args.seconds, args.trace)) for n in names]
    print()
    print(f"{'workload':<26} {'correct':<8} {'attempted':>9} {'failed':>6}  metrics")
    for name, r in results:
        shown = ", ".join(f"{k} {m['value']:.6g} {m['unit']}"
                          for k, m in r["metrics"].items()
                          if args.trace == 0 or k.startswith(("core.", "sim.event")))
        print(f"{name:<26} {str(r['correct']).lower():<8} {r['attempted']:>9} "
              f"{r['failed']:>6}  {shown}")
    if not all(r["correct"] for _, r in results):
        raise SystemExit(1)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Measures how well the end-to-end metrics repeat; writes steadiness.json.

Run from the repository root:

    python3 perfbench/steadiness.py run SET.json      # one set of runs
    python3 perfbench/steadiness.py report FIRST.json SECOND.json > perfbench/steadiness.json

One set runs, for every workload, ten runs
with seeds 1-10 and ten runs of seed 1, alternating, so that both kinds see
the same host. Each run is a separate 'python3 perfbench/run.py --workload W
--seed S --trace 0'. The report gives, per workload, kind and metric, the
spread (q3 - q1) / median over the ten values, quartiles as
statistics.quantiles(values, n=4), and how much worse the second set's
median is than the first's. Beside throughput and setup_s, which are paced
by the 90th percentile of a run's samples, it gives the same runs' figures
paced by the median of the samples (throughput_at_median, setup_s_median),
as each run prints them, and the fewest and most timed units a run held.
"""

import json
import os
import re
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10
# The median-paced figures and the unit count in a run's printed summary.
AT_MEDIAN = {
    "throughput_at_median": re.compile(r"at the median ([0-9.e+-]+) 1/s"),
    "setup_s_median": re.compile(r"setup_s .* median ([0-9.e+-]+) q3"),
}
UNITS = re.compile(r"\((\d+) units of")


def run_set(path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    runs = []
    for w in bench["workloads"]:
        for i in range(RUNS):
            for kind, seed in (("seeds", i + 1), ("same_seed", 1)):
                t0 = time.time()
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", w["name"],
                     "--seed", str(seed), "--trace", "0"],
                    cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, check=True)
                r = json.loads(proc.stdout.strip().splitlines()[-1])
                metrics = {k: m["value"] for k, m in r["metrics"].items()}
                for name, pattern in AT_MEDIAN.items():
                    metrics[name] = float(pattern.search(proc.stdout).group(1))
                runs.append({"workload": w["name"], "kind": kind, "seed": seed,
                             "start": t0, "elapsed_s": time.time() - t0,
                             "failed": r["failed"],
                             "units": int(UNITS.search(proc.stdout).group(1)),
                             "metrics": metrics})
                print(w["name"], kind, seed, r["failed"], runs[-1]["metrics"],
                      file=sys.stderr, flush=True)
    with open(path, "w") as f:
        json.dump(runs, f, indent=1)


def summarize(runs):
    out = {}
    for r in runs:
        out.setdefault(r["workload"], {}).setdefault(r["kind"], []).append(r)
    for w, kinds in out.items():
        for kind, rs in kinds.items():
            seeds = sorted({r["seed"] for r in rs})
            s = {"seeds": "%d-%d" % (seeds[0], seeds[-1]) if len(seeds) > 1
                          else str(seeds[0]),
                 "runs": len(rs),
                 "failed": sum(r["failed"] for r in rs),
                 "units_per_run": [min(r["units"] for r in rs),
                                   max(r["units"] for r in rs)],
                 "max_run_s": round(max(r["elapsed_s"] for r in rs), 1)}
            for m in rs[0]["metrics"]:
                v = [r["metrics"][m] for r in rs]
                q1, _, q3 = statistics.quantiles(v, n=4)
                med = statistics.median(v)
                s[m] = {"median": float("%.6g" % med), "q1": float("%.6g" % q1),
                        "q3": float("%.6g" % q3),
                        "spread": round((q3 - q1) / med, 4)}
            kinds[kind] = s
    return out


def report(first_path, second_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    sets = {}
    for name, path in (("first", first_path), ("second", second_path)):
        with open(path) as f:
            runs = json.load(f)
        start = min(r["start"] for r in runs)
        sets[name] = {"started": time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime(start)),
                      "workloads": summarize(runs)}
    worse = {}
    for w, kinds in sets["first"]["workloads"].items():
        for kind, s1 in kinds.items():
            s2 = sets["second"]["workloads"][w][kind]
            for m in bench["end_to_end"]:
                a, b = s1[m["name"]]["median"], s2[m["name"]]["median"]
                d = (a - b) / a if m["better"] == "higher" else (b - a) / a
                worse.setdefault(w, {}).setdefault(kind, {})[m["name"]] = round(d, 4)
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    out = {
        "about": __doc__.split("\n\n")[3].replace("\n", " ").strip(),
        "hardware_threads": os.cpu_count(),
        "cpu": cpu,
        "run_seconds": bench["run_seconds"],
        "bounds": {m["name"]: m["bound"] for m in bench["end_to_end"]},
        "sets": sets,
        "second_vs_first_worse_by": worse,
    }
    json.dump(out, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "run":
        run_set(sys.argv[2])
    elif len(sys.argv) == 4 and sys.argv[1] == "report":
        report(sys.argv[2], sys.argv[3])
    else:
        sys.exit(__doc__)

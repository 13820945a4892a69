"""Run the benchmark over ten seeds, twice, and record each metric's spread.

From the repository root::

    python3 perfbench/stability.py

For every workload in ``BENCHMARK.json`` this runs seeds 1-10 in two sets.
For each set and end-to-end metric it prints the median of the runs, the
first and third quartile (``statistics.quantiles(values, n=4)``) and their
distance as a share of the median, against the metric's bound; a spread at
or above a third of the bound is flagged.  For the times it also gives the
spread of the values as measured, before ``run.py`` scaled them by the
machine's speed.  It also prints how much worse
each median of the second set is than the first's.  Two traced runs per
workload with seed 1 give the per-layer metrics and profile lines of the
first, and a check that every count repeats exactly in the second.  The
runs, summaries, traces and the machine facts go to ``baseline.json`` next
to this file.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = list(range(1, 11))
SETS = 2
TRACE_SEED = 1
OUT = Path(__file__).resolve().parent / "baseline.json"
BEFORE_OPS = "peak_rss_mb before the first operation:"
SPEED = "machine speed: speed loop median"
AS_MEASURED = "as measured: "


def run_once(workload, seed, trace=0):
    """One benchmark run: (its JSON result, the lines printed before it)."""
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.perf_counter()
    lines = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True,
                           timeout=600).stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - start
    return result, lines[:-1]


def traced(workload, seed):
    first, profile = run_once(workload, seed, trace=1)
    second, _ = run_once(workload, seed, trace=1)
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units.items() if unit == "count"]
    differ = [n for n in counts if first["metrics"][n]["value"] != second["metrics"][n]["value"]]
    return {"seed": seed, "correct": first["correct"] and second["correct"],
            "metrics": {n: v["value"] for n, v in first["metrics"].items()},
            "profile": [line for line in profile if ":" in line],  # not the metric lines
            "counts_differing_between_two_runs": differ}


def machine():
    import networkx

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "networkx": networkx.__version__, "platform": platform.platform()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3, (q3 - q1) / median


def summarize(runs):
    out = {}
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        q1, median, q3, s = spread([run["metrics"][name]["value"] for run in runs])
        out[name] = {"median": median, "q1": q1, "q3": q3, "spread": s,
                     "bound": metric["bound"], "unit": metric["unit"]}
        if name in runs[0]["as_measured"]:  # the times, before scaling by machine speed
            out[name]["spread_as_measured"] = spread([run["as_measured"][name] for run in runs])[3]
    return out


def run_set(workload):
    runs = []
    for seed in SEEDS:
        run, lines = run_once(workload, seed)
        run["rss_before_ops_mb"] = next(
            float(line.split(BEFORE_OPS)[1].split()[0]) for line in lines if BEFORE_OPS in line)
        speed = next(line for line in lines if SPEED in line)
        run["speed_loop_ms"] = float(speed.split(SPEED)[1].split()[0])
        run["as_measured"] = {name: float(value) for name, value in (
            item.split() for item in speed.split(AS_MEASURED)[1].split(", "))}
        runs.append(run)
        values = {k: round(v["value"], 4) for k, v in run["metrics"].items()}
        print(f"{workload} seed={seed} attempted={run['attempted']} "
              f"failed={run['failed']} wall={run['wall_s']:.1f}s "
              f"speed_loop={run['speed_loop_ms']:.3f}ms "
              f"rss_before_ops={run['rss_before_ops_mb']:.1f}MB {values}", flush=True)
    summary = summarize(runs)
    for name, s in summary.items():
        flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
        raw = f", as measured {s['spread_as_measured']:.3f}" if "spread_as_measured" in s else ""
        print(f"  {workload:<12} {name:<12} median {s['median']:.4f} {s['unit']:<4} "
              f"IQR/median {s['spread']:.3f} (bound {s['bound']}) {flag}{raw}", flush=True)
    rss_before_ops = statistics.median(run["rss_before_ops_mb"] for run in runs)
    print(f"  {workload:<12} peak_rss_mb before the first operation: median "
          f"{rss_before_ops:.1f} MB", flush=True)
    return {"runs": runs, "summary": summary, "rss_before_ops_mb": rss_before_ops}


def worsening(first, second):
    """How much worse each metric's median is in ``second`` than in ``first``."""
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    out = {}
    for name, s in first.items():
        change = (second[name]["median"] - s["median"]) / s["median"]
        out[name] = change if better[name] == "lower" else -change
    return out


def main():
    report = {"machine": machine(), "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        sets = [run_set(workload) for _ in range(SETS)]
        entry = report["workloads"][workload] = {"seeds": SEEDS, "sets": sets}
        for later in sets[1:]:
            later["worse_than_first"] = worsening(sets[0]["summary"], later["summary"])
            for name, change in later["worse_than_first"].items():
                bound = later["summary"][name]["bound"]
                print(f"  {workload:<12} {name:<12} median worse than the first set by "
                      f"{change:+.3f} (bound {bound}) {'ok' if change <= bound else 'OVER'}",
                      flush=True)
        trace = entry["trace"] = traced(workload, TRACE_SEED)
        print("\n".join(trace["profile"]))
        print(f"  counts differing between two traced runs: "
              f"{trace['counts_differing_between_two_runs'] or 'none'}", flush=True)
        # after every workload, so an interrupted sweep keeps its results
        OUT.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

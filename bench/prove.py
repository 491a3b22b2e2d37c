"""Run every workload over several seeds and report each metric's spread.

    python3 bench/prove.py [--write FILE]

A set runs each workload RUNS times untraced, each in a fresh
interpreter; set k uses seeds k*RUNS+1 .. (k+1)*RUNS.  There are SETS
sets, as the acceptance check of a benchmark makes.  Per set and
end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median next to a
third of the metric's bound from BENCHMARK.json.  After the last set it
prints, per metric, how much worse each later set's median is than the
first set's, next to the bound.  Each workload also runs once traced
(seed 1).  --write stores the figures, with the machine, the commit and
each run's calibration line, as a baseline JSON file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int):
    """(result, calibration or None) of one run of the benchmark."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    cal = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("calibration {")), None)
    return json.loads(lines[-1]), cal


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summary(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4)
    return {"median": med, "q1": q1, "q3": q3, "runs": len(vals),
            "spread": (q3 - q1) / med}


def run_set(spec, k: int, bounds) -> dict:
    out = {}
    for wl in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units, attempted, cals = {}, [], []
        for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
            res, cal = run_once(wl, seed, spec["run_seconds"], 0)
            attempted.append(res["attempted"])
            cals.append(cal)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        for name, vals in values.items():
            rows[name] = dict(summary(vals), unit=units[name])
            r = rows[name]
            print(f"set {k + 1} {wl:12s} {name:16s} median {r['median']:.6g} "
                  f"{units[name]} q1 {r['q1']:.6g} q3 {r['q3']:.6g} "
                  f"spread {r['spread']:.4f} "
                  f"(a third of the bound: {bounds[name] / 3:.4f})",
                  flush=True)
        cal_rows = {key: summary([c[key] for c in cals])
                    for key in ("kernel_mean_s", "raw_pass_p50_s")}
        out[wl] = {"seeds": [k * RUNS + 1, (k + 1) * RUNS],
                   "end_to_end": rows, "ops_per_run": attempted,
                   "calibration": cal_rows}
    return out


def worse_by(first: float, later: float, better: str) -> float:
    """Share of first by which later is worse (negative: better)."""
    return (later - first) / first * (1 if better == "lower" else -1)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--write", help="baseline JSON file to write")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = [run_set(spec, k, bounds) for k in range(SETS)]

    gaps = {}
    for wl, first in sets[0].items():
        gaps[wl] = {}
        for name, row in first["end_to_end"].items():
            gap = max((worse_by(row["median"],
                                later[wl]["end_to_end"][name]["median"],
                                better[name]) for later in sets[1:]),
                      default=0.0)
            gaps[wl][name] = gap
            print(f"{wl:12s} {name:16s} later sets worse by at most "
                  f"{gap:+.4f} (bound {bounds[name]})", flush=True)

    report = {}
    for w in spec["workloads"]:
        wl = w["name"]
        traced, _ = run_once(wl, 1, spec["run_seconds"], 1)
        report[wl] = {
            "why": w["why"],
            "sets": [s[wl] for s in sets],
            "median_worse_by": gaps[wl],
            "per_layer_seed_1": {k: m["value"] for k, m
                                 in traced["metrics"].items()},
        }
    if args.write:
        baseline = {
            "machine": {"platform": platform.platform(),
                        "python": platform.python_version(),
                        "cpus": os.cpu_count()},
            "commit": commit(),
            "run_seconds": spec["run_seconds"],
            "workloads": report,
        }
        Path(args.write).write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

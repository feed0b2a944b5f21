#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same code and compare them against the bounds.

    python3 bench/compare.py --traced

For each workload in BENCHMARK.json, set A uses seeds 0-9 and set B seeds
10-19, each run as long as BENCHMARK.json's run_seconds; the runs of the
two sets alternate. For each end-to-end
metric it prints each set's median and quartiles, the spread (quartile
distance over the median) and how much worse set B's median is than set
A's, both against the metric's bound from BENCHMARK.json. With --traced it
also makes one traced run per workload on seed 0 and reports its
per-layer metrics and the tracing overhead, the drop in ops_per_s from the
median of set A's untraced runs. Everything is also written to
bench/out/compare.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10  # runs per set and workload


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--traced", action="store_true", help="add one traced run per workload")
    args = p.parse_args(argv)

    seconds = spec["run_seconds"]
    report = {"seconds": seconds, "workloads": {}}
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        seeds = [list(range(RUNS)), list(range(RUNS, 2 * RUNS))]
        sets = [[], []]
        for r in range(RUNS):
            for s in range(2):
                sets[s].append(run_once(workload, seeds[s][r], seconds, 0))
        entry = {"seeds": seeds,
                 "correct": all(res["correct"] for runs in sets for res in runs),
                 "failed_share": [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                                  for runs in sets],
                 "metrics": {}}
        ok = entry["correct"] and len(set(entry["failed_share"])) == 1
        print(f"\n{workload}: correct={entry['correct']} failed share={entry['failed_share']}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            row = {"unit": m["unit"], "bound": bound, "sets": stats}
            line = f"  {name:12s} bound {bound:<5}"
            for s in stats:
                line += f" | median {s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']:.3f}"
            ok = ok and all(s["spread"] <= bound for s in stats)
            a, b = stats[0]["median"], stats[1]["median"]
            worse = (a - b) / a if m["better"] == "higher" else (b - a) / a
            row["b_worse_than_a"] = worse
            line += f" | B worse by {worse:+.3f}"
            ok = ok and worse <= bound
            entry["metrics"][name] = row
            print(line)
        if args.traced:
            traced = run_once(workload, 0, seconds, 1)
            trace = json.loads((BENCH / "out" / f"trace-{workload}-0.json").read_text())
            untraced = entry["metrics"]["ops_per_s"]["sets"][0]["median"]
            entry["traced"] = {
                "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
                "ops_per_s": trace["end_to_end"]["ops_per_s"],
                "untraced_ops_per_s": untraced,
                "overhead": 1.0 - trace["end_to_end"]["ops_per_s"] / untraced,
            }
            print(f"  traced run, seed 0: ops_per_s {trace['end_to_end']['ops_per_s']:.5g}"
                  f" vs untraced median {untraced:.5g} (overhead {entry['traced']['overhead']:+.3%})")
            for k, v in entry["traced"]["per_layer"].items():
                if v:
                    print(f"    {k:30s} {v:.6g}")
        entry["ok"] = ok
        all_ok = all_ok and ok
        report["workloads"][workload] = entry
        print(f"  within bounds: {ok}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "compare.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

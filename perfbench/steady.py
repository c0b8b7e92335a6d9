"""Steadiness of the benchmark: run each workload repeatedly, one seed per
run, and report each end-to-end metric's spread against its bound.

    python3 perfbench/steady.py [--sets 1|2] [--workloads rsk,cli]

Each set is ten runs of run_seconds from BENCHMARK.json, with seeds 1..10
(the second set 11..20).  The spread is the distance between the first and
third quartile of the runs' values (`statistics.quantiles(values, n=4)`)
as a share of their median.  A metric is steady when its spread is within
its bound from BENCHMARK.json; with --sets 2 the second set's median must
also be no worse than the first's by more than the bound, and both sets
must fail the same share of operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    p = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed} is not correct:\n{p.stderr}")
    return result


def spread(values: list[float]) -> tuple[float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            first = 1 + k * RUNS
            sets.append([one_run(workload, seed, spec["run_seconds"])
                         for seed in range(first, first + RUNS)])
        print(f"{workload}")
        shares = {f"{r['failed']}/{r['attempted']}" for s in sets for r in s}
        ratios = {r["failed"] / r["attempted"] for s in sets for r in s}
        print(f"  failed/attempted: {sorted(shares)}")
        steady &= len(ratios) == 1
        for name, bound in bounds.items():
            row = []
            meds = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                med, sp = spread(values)
                meds.append(med)
                ok = sp <= bound
                steady &= ok
                row.append(f"median {med:10.4f}  range {min(values):.4f}-"
                           f"{max(values):.4f}  spread {sp:6.3f}"
                           f"{'' if sp <= bound / 3 else ' (over a third)'}"
                           f"{'' if ok else ' OVER BOUND'}")
            drift = ""
            if len(meds) == 2:
                worse = meds[1] / meds[0] - 1
                steady &= worse <= bound
                drift = f"  drift {worse:+.3f}"
            print(f"  {name:12s} bound {bound:4.2f}  " + " | ".join(row)
                  + drift)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

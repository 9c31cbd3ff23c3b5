"""Steadiness self-check: two sets of benchmark runs of the same code.

    python3 perfbench/selfcheck.py --workload sim-small --runs 10 [--seed0 1000]

Runs ``perfbench/run.py`` ``--runs`` times in each of two sets, each run
with its own seed (no seed repeats across sets), and prints per end-to-end
metric the median, quartiles and spread (interquartile distance over
median) of each set, and whether both spreads stay within the metric's
bound from BENCHMARK.json and the second set's median is not worse than the
first's by more than that bound.  Runs with a failed check are listed with
their seed and counted.  Exits 1 if a run fails, has a failed check, or a
metric is not steady.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {**json.loads(proc.stdout.strip().splitlines()[-1]), "stderr": proc.stderr}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = bench["end_to_end"]
    sets = []
    failed_runs = 0
    for k in range(2):
        values = {m["name"]: [] for m in spec}
        for i in range(args.runs):
            res = run_once(args.workload, args.seed0 + k * args.runs + i,
                           bench["run_seconds"])
            line = {n: v["value"] for n, v in res["metrics"].items()}
            print(json.dumps({"set": k, "correct": res["correct"], **line}), flush=True)
            if not res["correct"]:
                print(f"seed {args.seed0 + k * args.runs + i}: {res['stderr']}", flush=True)
                failed_runs += 1
            for name in values:
                values[name].append(line[name])
        sets.append(values)
    steady = True
    for m in spec:
        for k, values in enumerate(sets):
            s = metrics.summary(values[m["name"]])
            print(f"{m['name']:<22} set {k}: median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} n {s['n']} "
                  f"spread {metrics.spread(values[m['name']]):.4f} (bound {m['bound']})")
    for row in metrics.compare_sets(sets[0], sets[1], spec):
        print(f"{row['name']:<22} second median worse by {row['worse_by']:+.4f}: "
              f"{'ok' if row['ok'] else 'NOT STEADY'}")
        steady &= row["ok"]
    print(f"runs with a failed check: {failed_runs} of {2 * args.runs}")
    return 0 if steady and not failed_runs else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload paper-default --seeds 0-9 [--trace 1]

Runs `run.py` once per seed, one after the other, with BENCHMARK.json's
run length. For each metric it prints the median over the runs, the
quartiles (statistics.quantiles, n=4) and their distance as a share of the
median, next to the metric's bound. It also writes every run's result to
perfbench/results/<workload>-trace<t>-<seeds>.json. Exits 1 if a run fails,
reports a failed operation, or an end-to-end spread other than setup_s's
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results = []
    for seed in parse_seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(bench["run_seconds"]),
                                  "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
              file=sys.stderr)

    ok = all(r["correct"] and r["failed"] == 0 for r in results)
    print(f"{'metric':34} {'unit':>9} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'bound':>6}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        flag = ""
        if bound is not None and name != "setup_s" and share > bound:
            flag, ok = " over bound", False
        print(f"{name:34} {results[0]['metrics'][name]['unit']:>9} {med:12.6g} "
              f"{q1:12.6g} {q3:12.6g} {share:8.4f} "
              f"{'' if bound is None else bound:>6}{flag}")
    out = HERE / "results" / f"{args.workload}-trace{args.trace}-{args.seeds}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

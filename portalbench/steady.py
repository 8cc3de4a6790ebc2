"""Steadiness of the benchmark: spread of each metric against its bound.

Usage::

    python3 portalbench/steady.py --workload browse --runs 10 [--sets 2]
        [--seconds 10] [--trace 0] [--first-seed 1] [--smoke]

Runs ``run.py`` ``--runs`` times per set, each with its own seed (set
*k* uses seeds ``first-seed + k*runs …``; with two sets the runs
alternate between them), then prints for every metric its median,
first and third quartile (``statistics.quantiles(n=4)``), the spread
``(q3 - q1) / median``, and the bound from ``BENCHMARK.json``; with two
sets also the change of the second median against the first.  It also
prints the share of failed operations per set.  Bounds are set from
these measured spreads.
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


def one_run(workload: str, seed: int, seconds: float, trace: int,
            smoke: bool) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"run failed ({out.returncode}):\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    sets: list[list[dict]] = [[] for _ in range(args.sets)]
    for index in range(args.runs):
        for k in range(args.sets):
            seed = args.first_seed + k * args.runs + index
            result = one_run(args.workload, seed, seconds, args.trace, args.smoke)
            sets[k].append(result)
            share = result["failed"] / result["attempted"]
            values = " ".join(f"{m['value']:.4g}" for m in result["metrics"].values())
            print(f"set {k} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed share={share:.6f} "
                  f"| {values}", flush=True)

    names = list(sets[0][0]["metrics"])
    print(f"\n{'metric':34s} {'median':>11s} {'q1':>11s} {'q3':>11s} "
          f"{'spread':>7s} {'bound':>6s}" + ("  2nd/1st" if args.sets == 2 else ""))
    for name in names:
        medians = []
        for k, results in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            medians.append(med)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <- above a third of the bound"
            print(f"{name:34s} {med:11.4f} {q1:11.4f} {q3:11.4f} {spread:7.3f} "
                  f"{bound if bound is not None else '-':>6}"
                  + (f"  set {k}" if args.sets == 2 else "") + flag)
        if args.sets == 2 and medians[0]:
            print(f"{'':34s} second/first median = {medians[1] / medians[0]:.4f}")
    for k, results in enumerate(sets):
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"set {k}: failed shares {sorted(shares)}; "
              f"all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

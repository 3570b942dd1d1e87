"""Steadiness report: two interleaved sets of benchmark runs, compared.

    python3 perfbench/steadiness.py --runs 10 [--workload NAME ...] [--seconds S]
    python3 perfbench/steadiness.py --runs 10 --a ../parent --b .   # two checkouts

Set A and set B each run every workload ``--runs`` times, seed i for pair i,
in the order A B, B A, A B, ... so that both sets see the host's slow and
fast spells alike. By default both sets run this checkout, which measures
how well two sets of the same code agree; ``--a``/``--b`` point a set at
another checkout (its ``src/`` is measured with this benchmark's code).

For each workload and end-to-end metric it prints both medians, each set's
quartile spread (Q3 - Q1 over the median, from ``statistics.quantiles``),
the change of B's median against A's in the metric's worse direction, and
whether the spreads and the change stay within the bound in
BENCHMARK.json. Every run's metrics are written to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed in {checkout}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return -change if better == "higher" else change


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description="Interleaved A/B steadiness report.")
    p.add_argument("--workload", action="append", choices=names, help="repeatable; default: all")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--a", default=ROOT, help="checkout measured as set A")
    p.add_argument("--b", default=ROOT, help="checkout measured as set B")
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 for quartiles")

    record = {"args": vars(args), "runs": []}
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, f"steadiness-{time.strftime('%Y%m%dT%H%M%S')}.json")
    all_ok = True
    for workload in args.workload or names:
        sets = {"A": [], "B": []}
        for i in range(args.runs):
            seed = i + 1
            for side in ("AB" if i % 2 == 0 else "BA"):
                result = run_once(args.a if side == "A" else args.b, workload, seed, args.seconds)
                sets[side].append(result)
                record["runs"].append({"workload": workload, "set": side, "seed": seed, **result})
                with open(out_path, "w") as f:
                    json.dump(record, f, indent=1)
                if not result["correct"]:
                    all_ok = False
                    print(f"{workload} set {side} seed {seed}: INCORRECT, failed {result['failed']}", flush=True)
        print(f"\n{workload}: {args.runs} runs per set, {args.seconds:g}s each", flush=True)
        print(f"  {'metric':<22} {'median A':>12} {'median B':>12} {'spread A':>9} {'spread B':>9}"
              f" {'B worse':>8} {'bound':>6}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r["metrics"][name]["value"] for r in sets["A"]]
            b = [r["metrics"][name]["value"] for r in sets["B"]]
            sa, sb = spread(a), spread(b)
            worse = worsening(statistics.median(a), statistics.median(b), metric["better"])
            ok = sa <= bound and sb <= bound and worse <= bound
            all_ok = all_ok and ok
            verdict = ("agree" if ok else "DISAGREE") + ("" if max(sa, sb) < bound / 3 else ", spread above bound/3")
            print(f"  {name:<22} {statistics.median(a):>12.5g} {statistics.median(b):>12.5g} {sa:>9.2%} {sb:>9.2%}"
                  f" {worse:>8.2%} {bound:>6.2f}  {verdict}", flush=True)
    print(f"\nall runs written to {out_path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

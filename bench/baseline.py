"""Run every workload over several seeds and summarize, or record, the result.

    python3 bench/baseline.py [--write bench/baseline.json]

For every workload in ``BENCHMARK.json`` this runs ``bench/run.py`` for
``run_seconds`` untraced once per seed in ``SEEDS`` and traced twice on the
first seed, one process at a time.  It prints each end-to-end metric by name
with its unit, median, quartiles and spread (the interquartile distance as a
share of the median) against the bound in ``BENCHMARK.json``; whether every count metric of the two traced runs
repeats exactly; and the tracing overhead, the drop from untraced to traced
``ok_per_s`` on the first seed.  ``--write`` stores all of it, with the
provenance of the runs, as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import is_window_metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its result and detail lines, parsed."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=seconds + 170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-500:]}")
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line[len("detail: "):]) for line in lines
                  if line.startswith("detail: "))
    return {"result": json.loads(lines[-1]), "detail": detail}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def summarize(name: str, bench: dict, runs: list, traced: list) -> dict:
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    table = {}
    print(f"\n{name}: {len(runs)} untraced runs")
    for metric, spec in bounds.items():
        values = [r["result"]["metrics"][metric]["value"] for r in runs]
        med, q1, q3, share = spread(values)
        table[metric] = {"unit": spec["unit"], "values": values, "median": med,
                         "q1": q1, "q3": q3, "spread": share, "bound": spec["bound"]}
        if metric in runs[0]["detail"]["wall"]:
            wall = [r["detail"]["wall"][metric] for r in runs]
            table[metric]["wall_values"] = wall
            table[metric]["wall_spread"] = spread(wall)[3]
        flag = "ok" if share <= spec["bound"] / 3 else (
            "within bound" if share <= spec["bound"] else "OVER BOUND")
        print(f"  {metric:12s} {med:10.5g} {spec['unit']:4s} q1 {q1:<10.5g} q3 {q3:<10.5g}"
              f" spread {share:5.3f} (bound {spec['bound']}, {flag}; {len(values)} runs,"
              f" first: {runs[0]['detail']['samples'][metric]})")
        if "wall_spread" in table[metric]:
            print(f"  {'':12s} unscaled wall time spread {table[metric]['wall_spread']:5.3f}")
    ops = {key: sum(r["detail"]["ops"][key] for r in runs)
           for key in ("attempted", "ok", "raised", "tolerance", "malformed",
                       "oracle_checked")}
    failures = {}
    for r in runs:
        for reason, count in r["detail"]["failures"].items():
            failures[reason] = failures.get(reason, 0) + count
    print(f"  ops over all runs: {ops}")
    first, second = (t["result"]["metrics"] for t in traced)
    mismatched = sorted(m for m in first if is_window_metric(m)
                        and first[m]["value"] != second[m]["value"])
    untraced = runs[0]["result"]["metrics"]["ok_per_s"]["value"]
    traced_rate = first["trace.ok_per_s"]["value"]
    overhead = (untraced - traced_rate) / untraced
    print(f"  traced counts repeat exactly: {not mismatched} {mismatched or ''}")
    print(f"  tracing overhead on ok_per_s: {untraced:.4g} -> {traced_rate:.4g} 1/s "
          f"({overhead:+.1%}, seed {runs[0]['detail']['seed']})")
    return {"end_to_end": table, "ops": ops, "failures": failures,
            "traced": {"seed": traced[0]["detail"]["seed"],
                       "per_layer": {m: v["value"] for m, v in first.items()},
                       "counts_repeat": not mismatched, "mismatched": mismatched,
                       "untraced_ok_per_s": untraced, "traced_ok_per_s": traced_rate,
                       "overhead_share": overhead}}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", type=Path, help="write the summary as JSON")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    summary = {"seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in bench["workloads"]):
        runs = [run_once(name, seed, seconds, 0) for seed in SEEDS]
        traced = [run_once(name, SEEDS[0], seconds, 1) for _ in range(2)]
        summary["workloads"][name] = summarize(name, bench, runs, traced)
        summary["provenance"] = runs[0]["detail"]["provenance"]
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Steadiness self-check of the benchmark on one commit.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --trace-repeat --seed 1

The first form runs every workload in BENCHMARK.json once per seed, untraced,
for SETS sets of SEEDS seeds (set j uses seeds j*100+1 .. j*100+SEEDS).  For
every end-to-end metric it prints each set's median and quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median.  It fails
(exit code 1) when a run is not correct, when a spread (setup_s excepted)
reaches the metric's bound in BENCHMARK.json, or when a later set's median is
worse than the first set's by more than the bound: the rules a bound has to
hold to.  A spread at or above a third of its bound is the steadiness target
missed; it is printed as a NOTE and does not fail the check.

It also derives a bound from the widest spread seen on any workload: four
times the spread (a third of the bound, with margin), rounded up to 0.01, at
least 0.02 and at most MAX_BOUND; setup_s always gets MAX_BOUND.  Where the
cap binds, the metric cannot meet the third-of-bound target.

The second form runs the traced run of every workload twice on one seed and
checks that ok/failed counts and every count metric repeat exactly.

Results are also written to perfbench/_out/steady.json.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_BOUND = 0.25
SEEDS = 10   # seeds per set
SETS = 2


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else math.inf


def worse_by(metric, first, later):
    """Relative worsening of `later` against `first`; negative means better."""
    if metric["better"] == "lower":
        return (later - first) / first
    return (first - later) / first


def suggest(name, widest):
    if name == "setup_s":
        return MAX_BOUND
    return min(MAX_BOUND, max(0.02, math.ceil(400.0 * widest) / 100.0))


def steadiness(bench) -> int:
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    report = {}
    problems, notes = [], []
    for wl in (w["name"] for w in bench["workloads"]):
        sets = []
        for j in range(SETS):
            values = {name: [] for name in e2e}
            for seed in range(j * 100 + 1, j * 100 + SEEDS + 1):
                res = run(wl, seed, seconds, 0)
                if not res["correct"]:
                    problems.append(f"{wl} seed {seed}: correct=false")
                for name in e2e:
                    values[name].append(res["metrics"][name]["value"])
                print(f"{wl} seed {seed}: " + ", ".join(
                    f"{n}={values[n][-1]:.5g}" for n in e2e), flush=True)
            sets.append(values)
        report[wl] = {}
        for name, metric in e2e.items():
            rows = [spread(s[name]) for s in sets]
            report[wl][name] = [
                {"median": m, "q1": q1, "q3": q3, "spread": sp, "values": s[name]}
                for (m, q1, q3, sp), s in zip(rows, sets)]
            for j, (m, q1, q3, sp) in enumerate(rows):
                print(f"  {wl:9s} {name:12s} set {j}: median {m:.6g} "
                      f"q1 {q1:.6g} q3 {q3:.6g} spread {sp:.4f} (bound {metric['bound']})")
                if name != "setup_s" and not sp < metric["bound"]:
                    problems.append(f"{wl} {name} set {j}: spread {sp:.4f} "
                                    f">= bound {metric['bound']}")
                elif name != "setup_s" and not sp < metric["bound"] / 3.0:
                    notes.append(f"{wl} {name} set {j}: spread {sp:.4f} "
                                 f">= bound/3 = {metric['bound'] / 3.0:.4f}")
                if j > 0:
                    drift = worse_by(metric, rows[0][0], m)
                    if drift > metric["bound"]:
                        problems.append(f"{wl} {name} set {j}: median worse than set 0 "
                                        f"by {drift:.4f} > bound {metric['bound']}")
    print("suggested bounds from the widest spread seen:")
    for name in e2e:
        widest = max(r["spread"] for wl in report for r in report[wl][name])
        print(f"  {name:12s} widest spread {widest:.4f} -> bound {suggest(name, widest)} "
              f"(BENCHMARK.json: {e2e[name]['bound']})")
    (HERE / "_out").mkdir(exist_ok=True)
    (HERE / "_out" / "steady.json").write_text(json.dumps(report, indent=1))
    for n in notes:
        print("NOTE", n)
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


def trace_repeat(bench, seed) -> int:
    counts = [m["name"] for m in bench["per_layer"] if m["unit"] == "count"]
    problems = []
    for wl in (w["name"] for w in bench["workloads"]):
        a, b = (run(wl, seed, bench["run_seconds"], 1) for _ in range(2))
        for key in ("attempted", "failed", "correct"):
            if a[key] != b[key]:
                problems.append(f"{wl}: {key} {a[key]} vs {b[key]}")
        for name in counts:
            va, vb = a["metrics"][name]["value"], b["metrics"][name]["value"]
            if va != vb:
                problems.append(f"{wl}: {name} {va} vs {vb}")
        print(f"{wl}: attempted {a['attempted']} failed {a['failed']}; "
              f"{len(counts)} count metrics compared", flush=True)
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace-repeat", action="store_true")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return trace_repeat(bench, args.seed) if args.trace_repeat else steadiness(bench)


if __name__ == "__main__":
    sys.exit(main())

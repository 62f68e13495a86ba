#!/usr/bin/env python3
"""Steadiness report for the campaign benchmark.

Runs the benchmark command from BENCHMARK.json as two sets (A and B) of the
same build, alternating between them, one seed per run. For every workload
and end-to-end metric it prints each set's median and quartiles, the
quartile spread as a share of the median, and the set-to-set difference of
the medians, and flags a metric whose spread (setup_s excepted) or whose
worsening from set A to set B exceeds its bound. Exact metrics (branches,
affinities) and the outcome digest must repeat for a repeated seed.

With --traced it also makes one traced run per workload and checks the
per-layer signature that each workload was chosen for.

Run from the repository root:

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] \
        [--seed-base 1000] [--seconds S] [--same-seeds] [--traced]
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

EXACT = {"branches", "affinities"}

# The per-layer signature each workload must show in a traced run.
SIGNATURES = {
    "pg-serial-saturated": [
        ("fuzzer.feedback_share", ">=", 0.5),
        ("synthesis.truncated_per_exec", ">=", 10.0),
    ],
    "pg-2workers-fresh": [
        ("fuzzer.feedback_share", "<=", 0.35),
        ("synthesis.truncated_per_exec", "<", 1.0),
        ("campaign.worker_imbalance", ">", 0.0),
    ],
    "maria-all-layers": [
        (m, ">", 0.0)
        for m in (
            "sqlsema.check_us_per_stmt",
            "sqlsema.reject_ratio",
            "campaign.sema_share",
            "oracle.check_us_per_case",
            "oracle.recovery_us_per_case",
            "campaign.recovery_share",
            "sqlparser.parse_us_per_stmt",
            "sqlparser.rule_edges",
            "campaign.bugs",
        )
    ],
}
# Metrics of the optional layers, which must read 0 on the PG workloads.
MARIA_ONLY = [m for m, _, _ in SIGNATURES["maria-all-layers"] if m != "campaign.bugs"]
OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "<": lambda a, b: a < b,
    ">": lambda a, b: a > b,
    "==": lambda a, b: a == b,
}


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    p = subprocess.run(args, capture_output=True, text=True)
    took = time.monotonic() - t
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False}
    digest = next((l.split()[-1] for l in lines if l.startswith("digest:")), None)
    ok = p.returncode == 0 and result.get("correct") is True
    if not ok:
        sys.stderr.write(p.stderr[-2000:])
    return ok, result.get("metrics", {}), digest, took


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def worse_by(metric, first, second):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    d = (second - first) / first
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--workloads", default=None, help="comma list (default: all)")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--same-seeds", action="store_true",
                    help="give set B the seeds of set A instead of fresh ones")
    ap.add_argument("--traced", action="store_true", help="also check one traced run per workload")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    command = bench["command"]
    seconds = a.seconds or bench["run_seconds"]
    names = a.workloads.split(",") if a.workloads else [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    flagged = []

    for name in names:
        sets = {"A": [], "B": []}
        digests = {}
        for i in range(a.runs):
            for s in ("A", "B") if i % 2 == 0 else ("B", "A"):
                seed = a.seed_base + i + (a.runs if s == "B" and not a.same_seeds else 0)
                ok, m, digest, took = run(command, name, seed, seconds, 0)
                print(f"  {name} set {s} seed {seed}: {'ok' if ok else 'FAILED'} in {took:.1f} s",
                      flush=True)
                if not ok:
                    flagged.append(f"{name}: run with seed {seed} failed")
                    continue
                sets[s].append(m)
                exact = tuple(m[k]["value"] for k in sorted(EXACT))
                if digests.setdefault(seed, (digest, exact)) != (digest, exact):
                    flagged.append(f"{name}: seed {seed} repeated with another outcome")
        print(f"\n{name}: {len(sets['A'])} + {len(sets['B'])} runs, {seconds} s each")
        print(f"  {'metric':<12} {'set':>3} {'q1':>12} {'median':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for metric in metrics:
            key, bound = metric["name"], metric["bound"]
            med = {}
            for s in ("A", "B"):
                values = [r[key]["value"] for r in sets[s] if key in r]
                if not values:
                    continue
                q1, med[s], q3 = quartiles(values)
                spread = (q3 - q1) / med[s] if med[s] else float("inf")
                mark = ""
                if key != "setup_s" and spread > bound:
                    mark = "  SPREAD > BOUND"
                    flagged.append(f"{name}/{key}: set {s} spread {spread:.3f} > {bound}")
                elif key != "setup_s" and spread > bound / 3:
                    mark = "  (spread > bound/3)"
                print(f"  {key:<12} {s:>3} {q1:>12.6g} {med[s]:>12.6g} {q3:>12.6g} "
                      f"{spread:>7.3f} {bound:>6}{mark}")
            if len(med) == 2:
                diff = worse_by(metric, med["A"], med["B"])
                mark = "  WORSE > BOUND" if diff > bound else ""
                if mark:
                    flagged.append(f"{name}/{key}: set B worse by {diff:.3f} > {bound}")
                print(f"  {key:<12} B vs A: {diff:+.3f} worse{mark}")

    if a.traced:
        for name in names:
            ok, m, _, took = run(command, name, a.seed_base, seconds, 1)
            print(f"\n{name} traced: {'ok' if ok else 'FAILED'} in {took:.1f} s")
            if not ok:
                flagged.append(f"{name}: traced run failed")
                continue
            missing = [p["name"] for p in bench["per_layer"] if p["name"] not in m]
            if missing:
                flagged.append(f"{name}: traced run lacks {missing}")
            checks = list(SIGNATURES[name])
            if name != "maria-all-layers":
                checks += [(k, "==", 0.0) for k in MARIA_ONLY]
            for key, op, want in checks:
                got = m.get(key, {}).get("value")
                good = got is not None and OPS[op](got, want)
                print(f"  {key} = {got} (want {op} {want}){'' if good else '  FAILED'}")
                if not good:
                    flagged.append(f"{name}: {key} = {got}, want {op} {want}")
            print(f"  trace.overhead_ratio = {m.get('trace.overhead_ratio', {}).get('value')}")

    print("\nflagged:" if flagged else "\nno metric flagged")
    for f in flagged:
        print(f"  {f}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())

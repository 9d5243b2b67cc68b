"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py RESULTS/a RESULTS/b

A result set is a directory of `<workload>/seed-<n>.json` files, each the
last line one run printed; the runs of the two commits are made in
alternating order (see README.md).  One row is printed per workload and
end-to-end metric: each side's median and quartiles, the ratio B/A with its
base, the fraction of same-seed pairs B won, and a verdict, decided in this
order:

* `worse` when B failed more tasks than A (a failed task misses every
  limit), or B's median is worse than A's by more than the metric's bound;
* `improved` when B won at least nine tenths of the pairs and the medians
  differ by more than A's own quartile spread;
* `unresolved` when A's quartile spread is wider than the bound and B did
  not beat every A run;
* otherwise `unchanged`.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_set(path):
    """{workload: {seed: (metrics, failed tasks)}} from a result-set directory."""
    out = {}
    for f in sorted(Path(path).glob("*/seed-*.json")):
        result = json.loads(f.read_text())
        seed = int(f.stem.split("-", 1)[1])
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        out.setdefault(f.parent.name, {})[seed] = (metrics, result["failed"])
    return out


def verdict(a, b, better, bound, failed_a=0, failed_b=0):
    """Verdict for same-seed samples a (parent) and b (change), with the
    tasks each side failed over all its runs."""
    if len(a) < 2:
        return "unresolved", 0.0
    lower = better == "lower"
    won = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
    frac = won / len(a)
    ma, mb = statistics.median(a), statistics.median(b)
    q1, _, q3 = statistics.quantiles(a, n=4)
    gain = (ma - mb) if lower else (mb - ma)
    if failed_b > failed_a or -gain / ma > bound:
        return "worse", frac
    if frac >= 0.9 and gain > q3 - q1:
        return "improved", frac
    every_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if (q3 - q1) / ma > bound and not every_better:
        return "unresolved", frac
    return "unchanged", frac


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, statistics.median(xs), q3


def table(path_a, path_b):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    A, B = load_set(path_a), load_set(path_b)
    rows = []
    for wl in sorted(set(A) & set(B)):
        seeds = sorted(set(A[wl]) & set(B[wl]))
        failed_a = sum(A[wl][s][1] for s in seeds)
        failed_b = sum(B[wl][s][1] for s in seeds)
        for m in spec["end_to_end"]:
            name = m["name"]
            a = [A[wl][s][0][name] for s in seeds if name in A[wl][s][0]]
            b = [B[wl][s][0][name] for s in seeds if name in B[wl][s][0]]
            if not a or len(a) != len(b):
                continue
            v, frac = verdict(a, b, m["better"], m["bound"], failed_a, failed_b)
            qa, qb = quartiles(a), quartiles(b)
            rows.append(
                f"{wl:<12} {name:<15} "
                f"A {qa[1]:.4g} [{qa[0]:.4g}, {qa[2]:.4g}]  "
                f"B {qb[1]:.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {m['unit']}  "
                f"B/A {qb[1] / qa[1]:.3f} (base A median {qa[1]:.4g} {m['unit']})  "
                f"B won {round(frac * len(a))}/{len(a)}  "
                f"failed A {failed_a} B {failed_b}  {v}")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description="compare two commits")
    parser.add_argument("a", help="result set of the parent")
    parser.add_argument("b", help="result set of the change")
    args = parser.parse_args(argv)
    for row in table(args.a, args.b):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Assemble a BENCH_<n>.json row from perfbench results of two checkouts.

    python3 perfbench/run.py --workload lattice-c16 --trace 1 > change.out
    (cd ../parent && python3 perfbench/run.py --workload lattice-c16 \\
        --trace 1) > parent.out
    python3 scripts/bench_row.py --parent parent.out --change change.out \\
        --out BENCH_10.json

Each input file is the captured standard output of one `perfbench/run.py`
run of a single workload; its last line is the JSON result.  Either side
may take several files (say ten untraced runs and one traced run).  The row
keeps every result whole, and for each metric the median of its values on
each side, so that an end-to-end gain is shown next to the layer times and
counts that explain it.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys


def last_result(text):
    """The JSON object on the last non-empty line of a run's output."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no result line")
    result = json.loads(lines[-1])
    if not isinstance(result, dict) or "metrics" not in result:
        raise ValueError("the last line is not a single-workload result")
    return result


def medians(results):
    """{metric: (unit, median value)} over the results that report it."""
    values = {}
    for result in results:
        for name, metric in result["metrics"].items():
            values.setdefault(name, (metric["unit"], []))[1].append(metric["value"])
    return {name: (unit, statistics.median(vals))
            for name, (unit, vals) in values.items()}


def bench_row(parent, change):
    """The row for two lists of results: both sides whole, their failure
    counts, and the per-metric medians side by side."""
    mp, mc = medians(parent), medians(change)
    return {
        "parent": parent,
        "change": change,
        "failed": {side: [sum(r["failed"] for r in results),
                          sum(r["attempted"] for r in results)]
                   for side, results in (("parent", parent), ("change", change))},
        "median": {name: {"unit": mp[name][0], "parent": mp[name][1],
                          "change": mc[name][1]}
                   for name in sorted(mp.keys() & mc.keys())},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", required=True,
                        help="outputs of perfbench/run.py on the parent commit")
    parser.add_argument("--change", nargs="+", required=True,
                        help="outputs of perfbench/run.py on the change")
    parser.add_argument("--out", help="where to write the row (default: stdout)")
    args = parser.parse_args(argv)
    sides = []
    for paths in (args.parent, args.change):
        results = []
        for path in paths:
            with open(path) as f:
                try:
                    results.append(last_result(f.read()))
                except ValueError as exc:
                    parser.error(f"{path}: {exc}")
        sides.append(results)
    text = json.dumps(bench_row(*sides), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the base (the parent commit, or the first of two sets of the same
commit) and B is what is judged against it. For every pairing of
end-to-end metric and workload the bound stored in ``BENCHMARK.json`` is
applied to the medians, and one row is printed:

* ``same``        B's median is no worse than A's by more than the bound;
* ``worse``       it is, and the runs are steadier than the bound;
* ``unresolved``  the run-to-run spread of either side (distance between
  the quartiles of its runs, as a share of their median) is wider than the
  bound, and it is not the case that every run of B reads better than
  every run of A — more runs are needed, not a wider bound.

Every ratio is given with its base. Per-layer metrics have no bound; the
ones that are counts must repeat exactly and are listed when they do not.
Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def spread(values):
    """Quartile distance as a share of the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def judge(a_values, b_values, better, bound):
    """``(status, a median, b median, worsening, spread)``; ``worsening``
    is how much worse B's median is than A's, as a share of A's."""
    sign = 1.0 if better == "lower" else -1.0
    a, b = statistics.median(a_values), statistics.median(b_values)
    worsening = sign * (b - a) / abs(a)
    wide = max(spread(a_values), spread(b_values))
    if sign > 0:
        all_better = max(b_values) < min(a_values)
    else:
        all_better = min(b_values) > max(a_values)
    if wide > bound and not all_better:
        status = "unresolved"
    elif worsening > bound:
        status = "worse"
    else:
        status = "same"
    return status, a, b, worsening, wide


def compare(spec, base, other, out=sys.stdout):
    """Print the rows; returns the number of ``worse`` ones."""
    worse = 0
    out.write(f"{'workload':18} {'metric':18} {'status':10} "
              f"{'A (base)':>14} {'B':>14} {'B/A':>8} {'worse by':>9} "
              f"{'bound':>7} {'spread':>7}  runs\n")
    for name, a_entry in base["workloads"].items():
        b_entry = other["workloads"].get(name)
        if b_entry is None:
            out.write(f"{name:18} missing from B\n")
            worse += 1
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a_values = a_entry["end_to_end"][key]["values"]
            b_values = b_entry["end_to_end"][key]["values"]
            status, a, b, worsening, wide = judge(
                a_values, b_values, metric["better"], metric["bound"])
            worse += status == "worse"
            out.write(
                f"{name:18} {key:18} {status:10} {a:14.6g} {b:14.6g} "
                f"{b / a:8.4f} {worsening:+9.2%} {metric['bound']:7.2%} "
                f"{wide:7.2%}  {len(a_values)}+{len(b_values)}\n")
        for key, slot in a_entry["per_layer"].items():
            if slot["unit"] != "count":
                continue
            seen = set(slot["values"]) | set(
                b_entry["per_layer"][key]["values"])
            if len(seen) > 1:
                out.write(f"{name:18} {key:30} count does not repeat: "
                          f"{sorted(seen)}\n")
        for side, entry in (("A", a_entry), ("B", b_entry)):
            if entry["unstable"]:
                out.write(f"{name:18} {side} is marked unstable "
                          "(canary drift)\n")
    return worse


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    results = []
    for path in argv:
        with open(path) as fh:
            results.append(json.load(fh))
    worse = compare(spec, *results)
    print(f"{worse} worse")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())

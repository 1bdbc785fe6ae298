"""Compare two benchmark summaries written with ``--out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the regression
bound from ``BENCHMARK.json`` and a verdict for B against A:

* ``ok``          B is not worse than A by more than the bound;
* ``worse``       it is;
* ``unresolved``  either side's own spread (interquartile range over its
  repetitions, as a share of its median) is wider than the bound, so the
  two medians cannot be told apart at that resolution.

Exits 1 if any row is ``worse`` or ``unresolved``.
"""

import json
import os
import sys


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _relative_spread(stats: dict) -> float:
    if stats["n"] < 2 or not stats["median"]:
        return 0.0
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def compare(a: dict, b: dict, contract: dict) -> list[tuple]:
    rows = []
    for metric in contract["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        for workload in a["workloads"]:
            if workload not in b["workloads"]:
                continue
            stats_a = a["workloads"][workload]["metrics"][name]
            stats_b = b["workloads"][workload]["metrics"][name]
            median_a, median_b = stats_a["median"], stats_b["median"]
            if metric["better"] == "lower":
                change = (median_b - median_a) / median_a
            else:
                change = (median_a - median_b) / median_a
            if max(_relative_spread(stats_a), _relative_spread(stats_b)) > bound:
                verdict = "unresolved"
            elif change > bound:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append((workload, name, median_a, median_b, metric["unit"],
                         bound, change, verdict))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    contract = _load(os.path.join(root, "BENCHMARK.json"))
    rows = compare(_load(argv[1]), _load(argv[2]), contract)
    print(f"{'workload':<14} {'metric':<22} {'A':>12} {'B':>12} {'unit':<5} "
          f"{'bound':>6} {'B worse by':>11}  verdict")
    for workload, name, a, b, unit, bound, change, verdict in rows:
        print(f"{workload:<14} {name:<22} {a:>12.4f} {b:>12.4f} {unit:<5} "
              f"{bound:>6.0%} {change:>+11.1%}  {verdict}")
    return 0 if all(row[-1] == "ok" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))

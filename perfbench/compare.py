"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (copies of
perfbench/results/*.json), for example one per seed at the parent commit
and at the change.  For every workload, trace mode and metric it prints
each side's median with its quartiles and the change of the median as a
share of the base median.  An end-to-end metric is marked WORSE when that
change exceeds its bound in BENCHMARK.json, and UNRESOLVED when the base's
own quartile spread is wider than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(directory: str) -> dict:
    """(workload, trace) -> metric -> list of values, over every result file."""
    values = defaultdict(lambda: defaultdict(list))
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        for name, m in result["metrics"].items():
            values[(result["workload"], result["trace"])][name].append(m["value"])
    return values


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    spec = json.loads(SPEC.read_text()) if SPEC.is_file() else {"end_to_end": []}
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    for key in sorted(set(base) & set(new)):
        print(f"# {key[0]}, trace {key[1]}")
        for name in base[key]:
            if name not in new[key]:
                continue
            b, n = quartiles(base[key][name]), quartiles(new[key][name])
            change = (n[1] - b[1]) / b[1] if b[1] else float("nan")
            verdict = ""
            if key[1] == 0 and name in bounds:
                bound = bounds[name]["bound"]
                worse = -change if bounds[name]["better"] == "higher" else change
                if b[1] and (b[2] - b[0]) / b[1] > bound:
                    verdict = "UNRESOLVED"
                elif worse > bound:
                    verdict = "WORSE"
            print(f"  {name:34s} base {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}]  "
                  f"new {n[1]:12.6g} [{n[0]:.6g}, {n[2]:.6g}]  {change:+8.2%} {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

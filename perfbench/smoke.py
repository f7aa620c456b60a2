"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at its tiny size through run.py, untraced and
   traced, and checks the result line: its keys, that every metric
   BENCHMARK.json names is there with its unit, and that the printed table
   shows each end-to-end metric and failed_frac.
2. Corrupts expected answers in-process, one workload at a time, and checks
   that the gate counts failed operations (failed_frac > 0) while the rest
   of the pass still runs.  A claim that raises counts as failed too.

Exits 0 when every check holds, 1 otherwise.  Not collected by pytest.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import worker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
problems: list[str] = []


def check(condition: bool, message: str):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def run_tiny(workload: str, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    check(out.returncode == 0, f"{workload} trace {trace}: exit code {out.returncode}")
    lines = out.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{workload} trace {trace}: result keys {sorted(result)}")
    check(result.get("correct") is True and result.get("failed") == 0
          and result.get("attempted", 0) >= 1,
          f"{workload} trace {trace}: correct, none failed, some attempted")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result.get("metrics", {})
    check(set(metrics) == {m["name"] for m in spec},
          f"{workload} trace {trace}: exactly the {len(spec)} metrics of BENCHMARK.json")
    for m in spec:
        got = metrics.get(m["name"], {})
        check(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
              f"{workload} trace {trace}: {m['name']} in {m['unit']}")
        if not trace:
            check(got.get("value", 0) > 0, f"{workload}: {m['name']} is not 0")
            check(any(line.split()[:1] == [m["name"]] and line.split()[-1] == m["unit"]
                      for line in lines), f"{workload}: {m['name']} printed with its unit")
    if not trace:
        check(any(line.split()[:1] == ["failed_frac"] for line in lines),
              f"{workload}: failed_frac printed")


def gate_paper():
    """A wrong expected table and a crashing claim both count as failed claims."""
    workload = worker.Workload("paper", tiny=True)
    claims = {c.claim_id: c for c in worker.verify.CLAIMS}
    tables = worker.verify.klein_tables
    saved_labels, saved_fn = tables.SYMMETRIC_LABELS, claims["C06"].fn
    tables.SYMMETRIC_LABELS = frozenset({"I"})  # C08 expects exactly I, AB, AC, BC

    def crash():
        raise ZeroDivisionError("injected")

    claims["C06"].fn = crash
    try:
        result = worker.measure(workload, "braidings", seconds=0)
    finally:
        tables.SYMMETRIC_LABELS, claims["C06"].fn = saved_labels, saved_fn
    check(result["attempted"] == 4 and result["failed"] == 2,
          f"paper gate: 2 of 4 braidings claims failed ({result['failures']})")


def gate_cohomology():
    workload = worker.Workload("cohomology", tiny=True)
    rows = list(workload.inputs)
    rows[0] = rows[0]._replace(factors=[rows[0].modulus, 1])
    result = worker.measure(workload, rows, seconds=0)
    check(result["failed"] == 1 and result["attempted"] == len(rows),
          f"cohomology gate: 1 of {len(rows)} failed ({result['failures']})")


def main() -> int:
    for name in ("paper", "cohomology"):
        run_tiny(name, 0)
        run_tiny(name, 1)
    gate_paper()
    gate_cohomology()
    print(f"{len(problems)} problems" if problems else "smoke test passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload of the cocycle-lab benchmark, in a fresh interpreter.

run.py starts this script with PYTHONHASHSEED fixed and numpy's BLAS and
OpenMP pools pinned to one thread.  The worker imports the program from
``src/`` of the same checkout, builds the workload's inputs, prints
``ready`` (run.py times set-up up to that line), then measures closed-loop
passes with one caller and prints one JSON line.

Both workloads have fixed inputs (the claims fix their own seeds; the
cohomology ladder is a table), so every pass repeats the same operations.
``pass_s`` is the sum over the pass's operations of each one's median time
over the passes; run.py takes the medians over the passes of every replica.

Every timed pass starts with cold lazy caches: the ``lru_cache``s of
``scalars`` and ``zmodlin`` are cleared, and the inputs' groups have no
element tuple yet (``FiniteAbelianGroup._elements``).

Answers are checked after each pass against expected answers that do not
come from the code under test; an exception in an operation counts as a
failed operation and the run goes on.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
from dataclasses import dataclass
from math import prod
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if not (SRC / "cocycle_lab" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: the program's source is missing: {SRC / 'cocycle_lab'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import reference  # noqa: E402
from tracing import Tracer  # noqa: E402

# by module path: the package re-exports a function named `klein`
cochains, groups, klein, scalars, verify, zmodlin = (
    importlib.import_module(f"cocycle_lab.{name}")
    for name in ("cochains", "groups", "klein", "scalars", "verify", "zmodlin")
)

MAX_REPORTED_FAILURES = 20


def clear_caches():
    for module in (scalars, zmodlin):
        for value in vars(module).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()


@dataclass
class Outcome:
    """One operation's result: its wall time, and a failure message or None."""

    seconds: float
    failure: str | None


# ----------------------------------------------------------------- #
# paper: the 15-claim registry behind `cocycle-lab verify-paper`
# ----------------------------------------------------------------- #

def _guarded(fn, claim_id, seconds):
    """Time the claim into ``seconds``, and turn any exception into a ClaimFailure,
    which Claim.run reports."""

    def call():
        start = perf_counter()
        try:
            return fn()
        except verify.ClaimFailure:
            raise
        except Exception as exc:  # a crashing claim is a failed operation
            raise verify.ClaimFailure(f"{type(exc).__name__}: {exc}") from exc
        finally:
            seconds[claim_id] = perf_counter() - start

    return call


def paper_pass(only) -> list[Outcome]:
    originals = [claim.fn for claim in verify.CLAIMS]
    seconds = {}
    for claim in verify.CLAIMS:
        claim.fn = _guarded(claim.fn, claim.claim_id, seconds)
    try:
        report = verify.run_claims(only)
    finally:
        for claim, fn in zip(verify.CLAIMS, originals):
            claim.fn = fn
    return [Outcome(seconds[claim.claim_id], None if ok else f"{claim.claim_id}: {detail}")
            for claim, ok, detail in report.entries]


# ----------------------------------------------------------------- #
# cohomology: H^3(G, mu_m) over a fixed ladder of groups
# ----------------------------------------------------------------- #

def _cohomology_failure(row, report) -> str | None:
    name = "x".join(f"C{n}" for n in row.orders)
    if report.invariant_factors != row.factors:
        return f"H^3({name}, mu_{row.modulus}) = {report.invariant_factors}, expected {row.factors}"
    if prod(report.invariant_factors) != report.kernel_size // report.image_size:
        return f"H^3({name}, mu_{row.modulus}): factors do not give |kernel|/|image|"
    return None


def cohomology_pass(rows) -> list[Outcome]:
    outcomes = []
    for row in rows:
        start = perf_counter()
        try:
            report = cochains.cohomology(groups.FiniteAbelianGroup(row.orders), 3, row.modulus)
        except Exception as exc:  # a crashing operation is a failed operation
            outcomes.append(Outcome(perf_counter() - start, f"{type(exc).__name__}: {exc}"))
            continue
        seconds = perf_counter() - start
        outcomes.append(Outcome(seconds, _cohomology_failure(row, report)))
    return outcomes


# ----------------------------------------------------------------- #
# measurement
# ----------------------------------------------------------------- #

class Workload:
    """A workload's fixed inputs, and the pass over them."""

    def __init__(self, name, tiny):
        self.name = name
        if name == "paper":
            self.inputs = "cocycles" if tiny else None  # the registry's own section filter
            self.run = paper_pass
        else:
            self.inputs = [row for row in reference.LADDER if not tiny or prod(row.orders) <= 4]
            self.run = cohomology_pass

    def timed_pass(self, inputs) -> tuple[float, list[Outcome]]:
        clear_caches()
        start = perf_counter()
        outcomes = self.run(inputs)
        return perf_counter() - start, outcomes


def _tally(outcomes, failures):
    failures.extend(o.failure for o in outcomes if o.failure is not None)
    return len(outcomes)


def measure(workload: Workload, inputs, seconds: float) -> dict:
    """Untraced: one pass, then more while one more, at the longest pass yet, would end
    within ``seconds``.  ``pass_s`` sums each operation's median time over the passes."""
    passes, op_s, failures = [], [], []
    attempted = 0
    begin = perf_counter()
    while True:
        pass_s, outcomes = workload.timed_pass(inputs)
        passes.append(pass_s)
        attempted += _tally(outcomes, failures)
        op_s.append([o.seconds for o in outcomes])
        if len(passes) == 1:  # later passes would add heap growth that depends on their count
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if perf_counter() - begin + max(passes) > seconds:
            break
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "passes": len(passes),
        "passes_s": passes,
        "op_s": op_s,
        "metrics": {
            "pass_s": (sum(map(statistics.median, zip(*op_s))), "s"),
            "peak_rss_mb": (peak_kb / 1024, "MB"),
        },
    }


def measure_traced(workload: Workload, inputs, spans_path) -> dict:
    """One untraced pass, then one traced pass; the difference is the tracing overhead."""
    failures = []
    untraced_s, outcomes = workload.timed_pass(inputs)
    attempted = _tally(outcomes, failures)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, outcomes = workload.timed_pass(inputs)
    finally:
        tracer.uninstall()
    attempted += _tally(outcomes, failures)
    metrics = tracer.metrics()
    metrics["trace.pass_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    if spans_path:
        tracer.write_spans(spans_path)
    return {"attempted": attempted, "failed": len(failures),
            "failures": failures[:MAX_REPORTED_FAILURES], "passes": 2,
            "untraced_pass_s": untraced_s, "spans": len(tracer.spans), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("paper", "cohomology"))
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs, for the smoke test")
    parser.add_argument("--setup-only", action="store_true", help="stop after the ready line")
    parser.add_argument("--spans", help="traced run: write spans to this file")
    args = parser.parse_args(argv)

    workload = Workload(args.workload, args.tiny)
    inputs = workload.inputs
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = measure_traced(workload, inputs, args.spans)
    else:
        result = measure(workload, inputs, args.seconds)
    result["python"] = sys.version.split()[0]
    result["numpy"] = np.__version__
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The cocycle-lab benchmark.

    python3 perfbench/run.py --workload cohomology --seed 3 --seconds 60 --trace 0

Runs one workload (paper, cohomology) or, with ``--workload all`` (the
default), both in turn.  Neither workload's inputs depend on the seed; it
is recorded with the result.  Each workload runs in fresh interpreters
(perfbench/worker.py) with PYTHONHASHSEED fixed and numpy's BLAS and OpenMP
pools pinned to one thread.  An untraced run times one replica of the
workload on each of up to REPLICAS CPUs at once, each pinned to its CPU,
one process with no extra threads, and takes each operation at its median
over every pass of every replica.  With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` the per-layer metrics of a
separate traced pass (one worker), and its overhead against an untraced
pass.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full result, with the
environment it ran in, is also written to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "cocycle_lab"
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
WORKLOADS = ("paper", "cohomology")
SETUP_PROBES = 3  # interpreters timed to the ready line only; with the replicas', the median
REPLICAS = 2  # timed workers at once, one per CPU; this host's CPUs are not slowed in step
DEADLINE_S = 170.0  # per workload, inside the 180 s a run may take
MAX_REPORTED_FAILURES = 20


class BenchError(Exception):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Worker:
    """One worker interpreter, pinned to ``cpu``; ``setup_s`` is the time from its start
    to ``ready``."""

    def __init__(self, args: list[str], deadline: float, cpu: int):
        self.deadline = deadline
        start = perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(WORKER), *args], env=pinned_env(),
                                     stdout=subprocess.PIPE, text=True,
                                     preexec_fn=lambda: os.sched_setaffinity(0, {cpu}))
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], self._left())
            line = self.proc.stdout.readline() if ready else ""
            if line.strip() != "ready":
                raise BenchError(f"worker {' '.join(args)} did not get ready")
            self.setup_s = perf_counter() - start
        except BaseException:
            self.stop()
            raise

    def _left(self) -> float:
        return max(0.0, self.deadline - perf_counter())

    def result(self) -> dict | None:
        """Wait for the worker; its last output line, parsed (None for a set-up probe)."""
        try:
            code = self.proc.wait(timeout=self._left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ran past {DEADLINE_S} s") from None
        finally:
            self.stop()
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        lines = self.proc.stdout.read().splitlines()
        self.proc.stdout.close()
        return json.loads(lines[-1]) if lines else None

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_workers(args: list[str], deadline: float, cpus: list[int]) -> tuple[list, list]:
    """Start one worker per CPU and wait for all; their set-up times and results."""
    workers = []
    try:
        for cpu in cpus:
            workers.append(Worker(args, deadline, cpu))
        return [w.setup_s for w in workers], [w.result() for w in workers]
    finally:
        for w in workers:
            w.stop()


def combine(replicas: list[dict], setup: list[float]) -> dict:
    """One result from the replicas: each operation at its median over all their passes."""
    op_s = [statistics.median(ts) for ts in zip(*(ts for r in replicas for ts in r["op_s"]))]
    failures = [f for r in replicas for f in r["failures"]]
    return {
        "attempted": sum(r["attempted"] for r in replicas),
        "failed": sum(r["failed"] for r in replicas),
        "failures": failures[:MAX_REPORTED_FAILURES],
        "passes": sum(r["passes"] for r in replicas),
        "python": replicas[0]["python"],
        "numpy": replicas[0]["numpy"],
        "op_median_s": op_s,
        "replicas": [{k: r[k] for k in ("passes_s", "op_s", "metrics")} for r in replicas],
        "metrics": {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "pass_s": {"value": sum(op_s), "unit": "s"},
            "peak_rss_mb": {"value": max(r["metrics"]["peak_rss_mb"]["value"] for r in replicas),
                            "unit": "MB"},
        },
    }


def run_workload(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = perf_counter() + DEADLINE_S
    args = ["--workload", name] + (["--tiny"] if tiny else [])
    cpus = sorted(os.sched_getaffinity(0))
    RESULTS.mkdir(exist_ok=True)
    if trace:
        spans = RESULTS / f"spans-{name}-seed{seed}.jsonl"
        setup, (result,) = run_workers(args + ["--trace", "1", "--spans", str(spans)],
                                       deadline, cpus[:1])
    else:
        setup = []
        for _ in range(SETUP_PROBES):
            setup += run_workers(args + ["--setup-only"], deadline, cpus[:1])[0]
        replica_setup, replicas = run_workers(args + ["--seconds", str(seconds)], deadline,
                                              cpus[:REPLICAS])
        setup += replica_setup
        result = combine(replicas, setup)
    result.update(
        workload=name, seed=seed, seconds=seconds, trace=trace, tiny=tiny,
        setup_samples_s=setup, nproc=len(cpus), cpu=cpu_model(), commit=git_commit(),
    )
    (RESULTS / f"{name}-seed{seed}-trace{trace}.json").write_text(json.dumps(result, indent=1))
    return result


def report(result: dict):
    print(f"# {result['workload']}: seed {result['seed']}, trace {result['trace']}, "
          f"{result['passes']} passes; python {result['python']}, numpy {result['numpy']}, "
          f"nproc {result['nproc']}, cpu {result['cpu']}, commit {result['commit']}")
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:>16.6g} {m['unit']}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  {'failed_frac':34s} {failed / attempted:>16.6g} ({failed} of {attempted} failed)")
    if "untraced_pass_s" in result:
        print(f"  tracing overhead: {result['metrics']['trace.overhead_s']['value']:.3f} s "
              f"over the untraced pass of {result['untraced_pass_s']:.3f} s")
    for message in result["failures"]:
        print(f"  FAILED {message}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cocycle-lab benchmark")
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest inputs (smoke test)")
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: the program's source is missing: {PACKAGE}", file=sys.stderr)
        return 2
    for tree in (PACKAGE, HERE):  # so no timed set-up compiles bytecode
        compileall.compile_dir(str(tree), quiet=1)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds, args.trace, args.tiny))
            report(results[-1])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k): v
                    for r in results for k, v in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

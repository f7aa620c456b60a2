"""Spans and counters recorded from outside the program, by wrapping it.

Tracer.install() replaces each function or method in TARGETS with a
wrapper, both where it is defined and at every ``from ... import`` site in
the package's modules, and wraps each claim of the ``verify`` registry;
uninstall() puts the originals back.  The wrappers keep a stack of open
frames, so self time (a call's duration minus the time covered by wrapped
callees) is exact without a profiler.

Spans (name, start, end, parent) are kept in memory for every wrapped
function except the per-element methods marked AGG: GroupElement.__init__,
__mul__, __hash__, __eq__, inverse, FiniteAbelianGroup.elements and
CycScalar.__mul__/__rmul__, inv, __eq__, __add__/__radd__.  Those run
millions of times per pass, so they are aggregated into call counts and
summed times.  CycScalar.__init__ is only counted (COUNT): its time stays
in the caller's self time, so scalars.mul_self_s includes building the
product.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from math import lcm
from time import perf_counter

import numpy as np

SPAN, AGG, COUNT = "span", "agg", "count"


def _shape2(matrix) -> tuple[int, int]:
    shape = np.shape(matrix)
    return (1, shape[0]) if len(shape) == 1 else (shape[0], shape[1])


def _howell_hook(tracer, args, kwargs, result):
    rows_in, cols = _shape2(args[0])
    rows_out = result.shape[0]
    c = tracer.counts
    c["zmodlin.howell_rows_in"] += rows_in
    c["zmodlin.howell_rows_out"] += rows_out
    c["zmodlin.howell_cells_max"] = max(c["zmodlin.howell_cells_max"], rows_in * cols)
    c["zmodlin.bytes_computed"] += 8 * cols * (rows_in + rows_out)  # int64 in + out


def _boundary_hook(tracer, args, kwargs, result):
    tracer.counts["cochains.boundary_matrix_cells"] += result.size


def _bruteforce_hook(tracer, args, kwargs, result):
    phi = args[0]
    m = args[1] if len(args) > 1 else kwargs.get("m", 4)
    tracer.counts["braidings.bruteforce_candidates"] += m ** ((phi.group.size - 1) ** 2)
    tracer.counts["braidings.bruteforce_solutions"] += result


def _tensor_mul_hook(tracer, args, kwargs, result):
    tracer.counts["hopf.tensor_term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _inv_hook(tracer, args, kwargs, result):
    x = args[0]
    tracer.inv_args[(x.conductor, x.nums, x.den)] += 1


# (module of cocycle_lab, attribute path, stat key, kind, hook)
TARGETS = (
    ("groups", "GroupElement.__init__", "groups.init", AGG, None),
    ("groups", "GroupElement.__mul__", "groups.mul", AGG, None),
    ("groups", "GroupElement.__hash__", "groups.hash", AGG, None),
    ("groups", "GroupElement.__eq__", "groups.eq", AGG, None),
    ("groups", "GroupElement.inverse", "groups.inverse", AGG, None),
    ("groups", "FiniteAbelianGroup.elements", "groups.elements", AGG, None),
    ("scalars", "CycScalar.__init__", "scalars.created", COUNT, None),
    ("scalars", "CycScalar.__mul__", "scalars.mul", AGG, None),
    ("scalars", "CycScalar.__rmul__", "scalars.mul", AGG, None),
    ("scalars", "CycScalar.inv", "scalars.inv", AGG, _inv_hook),
    ("scalars", "CycScalar.__eq__", "scalars.eq", AGG, None),
    ("scalars", "CycScalar.__add__", "scalars.add", AGG, None),
    ("scalars", "CycScalar.__radd__", "scalars.add", AGG, None),
    ("zmodlin", "howell_form", "zmodlin.howell", SPAN, _howell_hook),
    ("zmodlin", "kernel_mod", "zmodlin.kernel", SPAN, None),
    ("zmodlin", "solve_mod", "zmodlin.solve", SPAN, None),
    ("zmodlin", "quotient_invariant_factors", "zmodlin.quotient", SPAN, None),
    ("cochains", "Cochain.delta", "cochains.delta", SPAN, None),
    ("cochains", "cocycle3_failure", "cochains.cocycle_check", SPAN, None),
    ("cochains", "normalize3", "cochains.normalize", SPAN, None),
    ("cochains", "boundary_matrix", "cochains.boundary_matrix", SPAN, _boundary_hook),
    ("cochains", "is_coboundary_mu", "cochains.coboundary", SPAN, None),
    ("cochains", "cohomology", "cochains.cohomology", SPAN, None),
    ("klein", "classify", "klein.classify", SPAN, None),
    ("klein", "happify", "klein.happify", SPAN, None),
    ("klein", "reconstruct", "klein.reconstruct", SPAN, None),
    ("braidings", "hexagon_failure", "braidings.hexagon", SPAN, None),
    ("braidings", "categorical_pentagon_check", "braidings.oracle", SPAN, None),
    ("braidings", "categorical_hexagon_check", "braidings.oracle", SPAN, None),
    ("braidings", "enumerate_quadratic_forms", "braidings.census", SPAN, None),
    ("braidings", "enumerate_klein_braidings", "braidings.census", SPAN, None),
    ("braidings", "count_hexagon_solutions_mu", "braidings.bruteforce", SPAN, _bruteforce_hook),
    ("braidings", "abelian_cohomologous", "braidings.cohomologous", SPAN, None),
    ("hopf", "GroupAlgebraTensor.__mul__", "hopf.tensor_mul", SPAN, _tensor_mul_hook),
    ("hopf", "is_harrison_3cocycle", "hopf.harrison", SPAN, None),
    ("hopf", "check_weak_hopf", "hopf.weak_hopf_check", SPAN, None),
    ("hopf", "reassociator_phi_l", "hopf.reassociator", SPAN, None),
    ("hopf", "reassociator_transport_cyclic", "hopf.reassociator", SPAN, None),
    ("hopf", "klein_reassociator", "hopf.reassociator", SPAN, None),
)

CLAIM_IDS = tuple(f"C{k:02d}" for k in range(1, 16))


class Tracer:
    """Wraps the program's layers; collects spans, self times and counts."""

    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # key -> [calls, total_s, self_s]
        self.counts = defaultdict(int)
        self.inv_args = Counter()
        self.spans: list = []  # (key, start, end, parent span index or -1)
        self._frames = [[0.0]]  # each open call's time covered by wrapped callees
        self._current_span = -1
        self._patches: list = []

    # -- wrappers ------------------------------------------------------ #

    def _timed(self, key, fn, span, hook):
        stats = self.stats[key]
        frames = self._frames
        spans = self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            if span:
                parent = tracer._current_span
                sid = len(spans)
                spans.append(None)
                tracer._current_span = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                frames.pop()
                duration = end - start
                frames[-1][0] += duration
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - frame[0]
                if span:
                    spans[sid] = (key, start, end, parent)
                    tracer._current_span = parent
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _counted(self, key, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return functools.update_wrapper(wrapper, fn)

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    # -- install / uninstall ------------------------------------------ #

    def install(self):
        package = [m for n, m in sorted(sys.modules.items())
                   if n == "cocycle_lab" or n.startswith("cocycle_lab.")]
        for module_name, path, key, kind, hook in TARGETS:
            owner = importlib.import_module(f"cocycle_lab.{module_name}")
            *outer, name = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[name]
            if kind == COUNT:
                wrapper = self._counted(key, original)
            else:
                wrapper = self._timed(key, original, kind == SPAN, hook)
            self._patch(owner, name, wrapper)
            if not outer:  # a module-level function: patch every import site too
                for module in package:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, attr, wrapper)
        verify = importlib.import_module("cocycle_lab.verify")
        for claim in verify.CLAIMS:
            self._patch(claim, "fn", self._timed(f"verify.{claim.claim_id}", claim.fn, True, None))

    def uninstall(self):
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ------------------------------------------------------- #

    def write_spans(self, path):
        """One JSON array per line: name, start_s, end_s, parent index (-1: none)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        with open(path, "w") as out:
            for key, start, end, parent in self.spans:
                out.write(json.dumps([key, start - origin, end - origin, parent]) + "\n")

    def _inv_root_share(self) -> float:
        """Share of inv() arguments that are roots of unity, base scalars.inv_calls."""
        scalars = importlib.import_module("cocycle_lab.scalars")
        roots = sum(
            n for (conductor, nums, den), n in self.inv_args.items()
            if scalars.as_root_exponent(scalars.CycScalar(conductor, nums, den),
                                        lcm(2, conductor)) is not None
        )
        total = sum(self.inv_args.values())
        return roots / total if total else 0.0

    def metrics(self) -> dict:
        """Per-layer metrics, name -> (value, unit); call after uninstall()."""
        s, c = self.stats, self.counts

        def calls(*keys):
            return sum(s[k][0] for k in keys)

        def own(*keys):
            return sum(s[k][2] for k in keys)

        def ratio(num, den):
            return num / den if den else 0.0

        out = {
            "groups.elements_created": (calls("groups.init"), "count"),
            "groups.mul_calls": (calls("groups.mul"), "count"),
            "groups.hash_calls": (calls("groups.hash"), "count"),
            "groups.self_s": (own("groups.init", "groups.mul", "groups.hash", "groups.eq",
                                  "groups.inverse", "groups.elements"), "s"),
            "scalars.created": (c["scalars.created"], "count"),
            "scalars.mul_calls": (calls("scalars.mul"), "count"),
            "scalars.mul_self_s": (own("scalars.mul"), "s"),
            "scalars.inv_calls": (calls("scalars.inv"), "count"),
            "scalars.inv_self_s": (own("scalars.inv"), "s"),
            "scalars.eq_calls": (calls("scalars.eq"), "count"),
            "scalars.eq_self_s": (own("scalars.eq"), "s"),
            "scalars.add_calls": (calls("scalars.add"), "count"),
            "scalars.inv_root_share": (self._inv_root_share(), "ratio"),
            "zmodlin.howell_calls": (calls("zmodlin.howell"), "count"),
            "zmodlin.howell_self_s": (own("zmodlin.howell"), "s"),
            "zmodlin.howell_rows_in": (c["zmodlin.howell_rows_in"], "count"),
            "zmodlin.howell_rows_out": (c["zmodlin.howell_rows_out"], "count"),
            "zmodlin.howell_yield": (ratio(c["zmodlin.howell_rows_out"],
                                           c["zmodlin.howell_rows_in"]), "ratio"),
            "zmodlin.howell_cells_max": (c["zmodlin.howell_cells_max"], "count"),
            "zmodlin.bytes_computed": (c["zmodlin.bytes_computed"], "B"),
            "zmodlin.kernel_calls": (calls("zmodlin.kernel"), "count"),
            "zmodlin.solve_calls": (calls("zmodlin.solve"), "count"),
            "zmodlin.quotient_calls": (calls("zmodlin.quotient"), "count"),
            "zmodlin.quotient_self_s": (own("zmodlin.quotient"), "s"),
            "cochains.delta_calls": (calls("cochains.delta"), "count"),
            "cochains.delta_self_s": (own("cochains.delta"), "s"),
            "cochains.cocycle_checks": (calls("cochains.cocycle_check"), "count"),
            "cochains.cocycle_check_self_s": (own("cochains.cocycle_check"), "s"),
            "cochains.normalize_self_s": (own("cochains.normalize"), "s"),
            "cochains.boundary_matrix_self_s": (own("cochains.boundary_matrix"), "s"),
            "cochains.boundary_matrix_cells": (c["cochains.boundary_matrix_cells"], "count"),
            "cochains.coboundary_solves": (calls("cochains.coboundary"), "count"),
            "cochains.coboundary_self_s": (own("cochains.coboundary"), "s"),
            "cochains.cohomology_self_s": (own("cochains.cohomology"), "s"),
            "klein.classify_calls": (calls("klein.classify"), "count"),
            "klein.classify_self_s": (own("klein.classify"), "s"),
            "klein.happify_self_s": (own("klein.happify"), "s"),
            "klein.reconstruct_self_s": (own("klein.reconstruct"), "s"),
            "braidings.hexagon_checks": (calls("braidings.hexagon"), "count"),
            "braidings.hexagon_self_s": (own("braidings.hexagon"), "s"),
            "braidings.oracle_checks": (calls("braidings.oracle"), "count"),
            "braidings.oracle_self_s": (own("braidings.oracle"), "s"),
            "braidings.census_self_s": (own("braidings.census"), "s"),
            "braidings.bruteforce_candidates": (c["braidings.bruteforce_candidates"], "count"),
            "braidings.bruteforce_yield": (ratio(c["braidings.bruteforce_solutions"],
                                                 c["braidings.bruteforce_candidates"]), "ratio"),
            "braidings.bruteforce_self_s": (own("braidings.bruteforce"), "s"),
            "braidings.cohomologous_self_s": (own("braidings.cohomologous"), "s"),
            "hopf.tensor_mul_calls": (calls("hopf.tensor_mul"), "count"),
            "hopf.tensor_mul_self_s": (own("hopf.tensor_mul"), "s"),
            "hopf.tensor_term_pairs": (c["hopf.tensor_term_pairs"], "count"),
            "hopf.harrison_self_s": (own("hopf.harrison"), "s"),
            "hopf.weak_hopf_check_self_s": (own("hopf.weak_hopf_check"), "s"),
            "hopf.reassociator_self_s": (own("hopf.reassociator"), "s"),
        }
        for cid in CLAIM_IDS:
            out[f"verify.{cid}_s"] = (s[f"verify.{cid}"][1], "s")
        return out

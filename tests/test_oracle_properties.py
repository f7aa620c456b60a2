"""The matrix oracle against the scalar laws, on generated cohomologous tables.

Each example is a known 3-cocycle or braided pair on C2, C3, C4 or the Klein
group, times the coboundary of a random normalized mu_m-valued 2-cochain, with
one cell tampered half the time.  The oracle's verdict must equal the scalar
law's either way.  ``derandomize`` and a fixed example count keep the run
deterministic.
"""

from functools import lru_cache
from itertools import combinations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from cocycle_lab.braidings import (  # noqa: E402
    abelian_coboundary,
    c2_abelian_cocycles,
    categorical_hexagon_check,
    categorical_pentagon_check,
    cyclic_braiding,
    enumerate_klein_braidings,
    is_abelian_cocycle,
)
from cocycle_lab.cochains import Cochain, cyclic_phi_q, cyclic_qabc, delta2, is_cocycle3  # noqa: E402
from cocycle_lab.groups import cyclic, klein  # noqa: E402
from cocycle_lab.klein import g_b, h_a, phi_X  # noqa: E402
from cocycle_lab.scalars import CycScalar, root_of_unity  # noqa: E402

GROUPS = ("C2", "C3", "C4", "Klein")
FACTORS = (CycScalar.rational(-1), root_of_unity(4, 1), root_of_unity(3, 1), CycScalar.rational(2))
PROFILE = settings(derandomize=True, max_examples=100, deadline=None, database=None)


@lru_cache(maxsize=None)
def known(name):
    """(group, 3-cocycles, braided pairs) of one group."""
    if name == "Klein":
        mu4 = [root_of_unity(4, k) for k in range(4)]
        subsets = [set(c) for k in range(4) for c in combinations(("sigma", "tau", "rho"), k)]
        cocycles = [phi_X(s) for s in subsets] + [h_a(v) for v in mu4] + [g_b(v) for v in mu4]
        return klein(), cocycles, [ac for _, ac in enumerate_klein_braidings(4)]
    n = int(name[1:])
    roots = [root_of_unity(n, k) for k in range(n)]
    cocycles = [cyclic_phi_q(n, q) for q in roots] + [cyclic_qabc(n, roots[1])]
    if n == 2:
        return cyclic(2), cocycles, c2_abelian_cocycles(4)
    return cyclic(n), cocycles, [cyclic_braiding(n, nu) for nu in roots]


@st.composite
def normalized_psi(draw, group):
    """A normalized 2-cochain with values in mu_m, m in 2..4."""
    m = draw(st.integers(2, 4))
    values = [
        CycScalar.one() if x.is_identity or y.is_identity
        else root_of_unity(m, draw(st.integers(0, m - 1)))
        for x, y in group.tuples(2)
    ]
    return Cochain(group, 2, values)


@st.composite
def maybe_tampered(draw, cochain):
    """The cochain, or half the time a copy with one cell times a fixed factor."""
    if not draw(st.booleans()):
        return cochain
    values = list(cochain.values)
    values[draw(st.integers(0, len(values) - 1))] *= draw(st.sampled_from(FACTORS))
    return Cochain(cochain.group, cochain.degree, values)


@st.composite
def pentagon_inputs(draw):
    group, cocycles, _ = known(draw(st.sampled_from(GROUPS)))
    phi = draw(st.sampled_from(cocycles)) * delta2(draw(normalized_psi(group)))
    return draw(maybe_tampered(phi))


@st.composite
def hexagon_inputs(draw):
    group, _, pairs = known(draw(st.sampled_from(GROUPS)))
    ac = draw(st.sampled_from(pairs)) * abelian_coboundary(draw(normalized_psi(group)))
    if draw(st.booleans()):
        return draw(maybe_tampered(ac.phi)), ac.R
    return ac.phi, draw(maybe_tampered(ac.R))


@PROFILE
@given(pentagon_inputs())
def test_pentagon_oracle_matches_the_cocycle_law(phi):
    assert categorical_pentagon_check(phi) == is_cocycle3(phi)


@PROFILE
@given(hexagon_inputs())
def test_hexagon_oracle_matches_the_hexagon_laws(pair):
    phi, R = pair
    assert categorical_hexagon_check(phi, R) == is_abelian_cocycle(phi, R)

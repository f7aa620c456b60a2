import hashlib
import re
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np
import pytest

from cocycle_lab import cochains
from cocycle_lab.braidings import HEXAGONS, cyclic_braiding, enumerate_klein_braidings
from cocycle_lab.cochains import (
    COCYCLE_LAW,
    Cochain,
    NotACocycle,
    _root_exponents,
    boundary_matrix,
    coboundary_law,
    cochain_exponents,
    cochain_from_exponents,
    cocycle3_failure,
    cohomology,
    cyclic_phi_q,
    cyclic_qabc,
    cyclic_qabc_coboundary_witness,
    cyclic_twist_cochain,
    delta2,
    delta3,
    evaluate,
    first_failure,
    generator_rows,
    is_coboundary_mu,
    is_cocycle3,
    is_normalized2,
    is_normalized3,
    law,
    law_rows,
    nondegenerate,
    normalize3,
    positions,
)
from cocycle_lab.groups import FiniteAbelianGroup, cyclic, klein
from cocycle_lab.klein import g_b, h_a, klein_2cochain, phi_X
from cocycle_lab.scalars import CycScalar, root_of_unity
from cocycle_lab.zmodlin import kernel_mod


def scalars(*values):
    return [CycScalar.rational(v) for v in values]


def random_mu4_2cochain(rng, group):
    return Cochain.from_function(
        group, 2, lambda x, y: root_of_unity(4, rng.randrange(4))
    )


def test_delta2_displayed_values(G):
    # the ten-parameter 2-cochain and the full table of its coboundary
    names = dict(a1=2, a2=3, a3=5, b1=7, b2=11, b3=13, b4=17, b5=19, b6=23, c=29)
    g = klein_2cochain(**{k: Fraction(v) for k, v in names.items()})
    d = delta2(g)
    a1, a2, a3, b1, b2, b3, b4, b5, b6, c = (
        Fraction(names[k]) for k in ("a1", "a2", "a3", "b1", "b2", "b3", "b4", "b5", "b6", "c")
    )
    s, t, r = G.sigma, G.tau, G.rho
    # the diagonal is always trivial
    assert d(s, s, s) == 1 and d(t, t, t) == 1 and d(r, r, r) == 1
    expected = {
        (s, s, t): b1 * b5 / (a1 * c),
        (r, r, s): b3 * b6 / (a3 * c),
        (t, s, s): a1 * c / (b4 * b3),
        (s, t, s): b4 * b5 / (b1 * b3),
        (s, t, r): b2 * a1 / (b1 * a3),
        (t, r, s): b3 * a2 / (b2 * a1),
        (r, s, t): b1 * a3 / (b3 * a2),
        (t, s, r): b5 * a2 / (b4 * a3),
        (s, r, t): b6 * a1 / (b5 * a2),
        (r, t, s): b4 * a3 / (b6 * a1),
    }
    for key, value in expected.items():
        assert d(*key) == value, key


def test_delta2_examples(G):
    assert delta2(Cochain.constant(G, 2, 1)).is_trivial()
    g = klein_2cochain(a1=7, a2=7, a3=7)
    d = delta2(g)
    assert d(G.tau, G.sigma, G.sigma) == 7
    assert d(G.sigma, G.sigma, G.tau) == Fraction(1, 7)


def test_delta3_kills_coboundaries(G, rng):
    assert delta3(Cochain.constant(G, 3, 1)).is_trivial()
    groups = (G, cyclic(2), cyclic(3), cyclic(4), cyclic(5), cyclic(6))
    for trial in range(100):
        g = random_mu4_2cochain(rng, groups[trial % len(groups)])
        assert delta2(g).delta().is_trivial()
    assert delta3(phi_X({"sigma"})).is_trivial()


def test_degree_guards(G):
    with pytest.raises(ValueError):
        delta2(Cochain.constant(G, 3, 1))
    with pytest.raises(ValueError):
        delta3(Cochain.constant(G, 2, 1))


def test_is_cocycle3(G):
    assert is_cocycle3(Cochain.constant(G, 3, 1))
    broken = list(Cochain.constant(G, 3, 1).values)
    broken[G.position((G.sigma, G.sigma, G.sigma))] = CycScalar.rational(2)
    assert not is_cocycle3(Cochain(G, 3, broken))
    assert is_cocycle3(cyclic_phi_q(2, -1))


def test_is_normalized(G):
    assert is_normalized3(Cochain.constant(G, 3, 1))
    for phi in (phi_X({"sigma"}), h_a(5), g_b(-1)):
        assert is_normalized3(phi)
        # normalization propagates to the other unit slots
        for x in G.elements():
            for y in G.elements():
                assert phi(G.e, x, y).is_one()
                assert phi(x, y, G.e).is_one()
    psi = Cochain.from_function(
        G, 2, lambda x, y: 2 if (x.is_identity and not y.is_identity) else (3 if y.is_identity else 1)
    )
    assert not is_normalized2(psi)
    assert is_normalized2(klein_2cochain(c=5))


@pytest.mark.parametrize("phi", [g_b(root_of_unity(4, 1)), cyclic_phi_q(3, root_of_unity(3, 1))],
                         ids=["klein", "C3"])
def test_is_normalized3_agrees_with_direct_evaluation(phi):
    # every single-cell change, on the exponent path (a root) and the object path (2)
    group, e = phi.group, phi.group.identity()

    def direct(table):
        return all(table(x, e, z).is_one() for x in group.elements() for z in group.elements())

    assert is_normalized3(phi) and direct(phi)
    outcomes = set()
    for factor in (CycScalar.rational(-1), CycScalar.rational(2)):
        for k in range(len(phi.values)):
            values = list(phi.values)
            values[k] *= factor
            tampered = Cochain(group, 3, values)
            assert is_normalized3(tampered) == direct(tampered)
            outcomes.add(direct(tampered))
    assert outcomes == {True, False}


def test_normalize3_on_normalized_input(G):
    phi = g_b(7)
    normalized, witness = normalize3(phi)
    assert witness.is_trivial()
    assert normalized == phi


def test_normalize3_unit_slot_cochain(G):
    # a 2-cochain supported on the unit slots has an already-normalized
    # coboundary (both constants agree), so the witness is trivial and the
    # nontrivial interior values survive
    h = klein_2cochain(c=2)
    phi = delta2(h)
    assert is_normalized3(phi)
    assert phi(G.sigma, G.sigma, G.tau) == Fraction(1, 2)
    normalized, witness = normalize3(phi)
    assert witness.is_trivial() and normalized == phi
    # with every value 2 the coboundary collapses completely
    assert delta2(Cochain.constant(G, 2, 2)).is_trivial()


def test_normalize3_nonnormalized_input(G):
    def psi_value(x, y):
        if x.is_identity:
            return 2
        if y.is_identity:
            return 3
        return 1

    phi = delta2(Cochain.from_function(G, 2, psi_value))
    assert is_cocycle3(phi) and not is_normalized3(phi)
    assert phi(G.e, G.e, G.e).is_one()  # forced for every cocycle
    normalized, witness = normalize3(phi)
    assert is_normalized3(normalized)
    assert normalized == phi * delta2(witness)
    with pytest.raises(ValueError):
        normalize3(Cochain.from_function(G, 3, lambda x, y, z: 2 if x == y == z == G.sigma else 1))


def test_cyclic_phi_q():
    phi = cyclic_phi_q(2, -1)
    c = cyclic(2).generator()
    assert phi(c, c, c) == -1
    z3 = root_of_unity(3, 1)
    phi = cyclic_phi_q(3, z3)
    c2 = cyclic(3).element([2])
    assert phi(c2, c2, c2) == z3**2
    assert cyclic_phi_q(5, 1).is_trivial()
    for n in range(2, 7):
        for k in range(n):
            table = cyclic_phi_q(n, root_of_unity(n, k))
            assert is_cocycle3(table) and is_normalized3(table)
    with pytest.raises(ValueError):
        cyclic_phi_q(3, root_of_unity(4, 1))


# the oracle: each family by its definition, q ** e computed at every tuple
def _power_oracle(n, degree, q, exponent):
    return [q ** exponent(*(g.exponents[0] for g in args)) for args in cyclic(n).tuples(degree)]


def _coordinates(values):
    return [(v.conductor, v.nums, v.den) for v in values]


def _roots(n, order):
    """Every q = zeta_order^k, at its own conductor and lifted to twice it."""
    for k in range(order):
        q = root_of_unity(order, k)
        yield from (q, q.lift(2 * order))


@pytest.mark.parametrize("n", range(1, 9))
def test_exponent_tables_match_the_per_entry_formulas(n):
    # value for value, conductor and coordinates included
    minus_one = [CycScalar.rational(-1)] if n % 2 == 0 else []
    for q in [*_roots(n, n), *minus_one]:
        step = _power_oracle(n, 3, q, lambda x, y, z: x if y + z >= n else 0)
        assert _coordinates(cyclic_phi_q(n, q).values) == _coordinates(step)
        cubic = _power_oracle(n, 3, q, lambda x, y, z: x * y * z)
        assert _coordinates(cyclic_qabc(n, q).values) == _coordinates(cubic)
    for q in [*_roots(n, n), *minus_one, CycScalar.rational(3), CycScalar.rational(-1, 2)]:
        twist = _power_oracle(n, 2, q, lambda a, b: -(a - 1) * a * b // 2)
        assert _coordinates(cyclic_twist_cochain(n, q).values) == _coordinates(twist)
    braidings = [nu for nu in _roots(n, 2 * n) if (nu ** (n * n)).is_one() and (nu ** (2 * n)).is_one()]
    for nu in braidings + minus_one:
        pair = cyclic_braiding(n, nu)
        step = _power_oracle(n, 3, nu**n, lambda x, y, z: x if y + z >= n else 0)
        assert _coordinates(pair.phi.values) == _coordinates(step)
        assert _coordinates(pair.R.values) == _coordinates(_power_oracle(n, 2, nu, lambda x, y: x * y))
    assert braidings
    exponents = np.arange(-2 * n, n)  # read mod n, as zeta_n^(k mod n)
    mu_table = cochain_from_exponents(cyclic(3 * n), 1, exponents, n)
    assert _coordinates(mu_table.values) == _coordinates([root_of_unity(n, k % n) for k in exponents.tolist()])


def test_cyclic_phi_q_multiplicative(rng):
    for n in (2, 3, 4, 6):
        a, b = rng.randrange(n), rng.randrange(n)
        left = cyclic_phi_q(n, root_of_unity(n, a)) * cyclic_phi_q(n, root_of_unity(n, b))
        assert left == cyclic_phi_q(n, root_of_unity(n, (a + b) % n))


def test_cyclic_qabc():
    z3 = root_of_unity(3, 1)
    table = cyclic_qabc(3, z3)
    C3 = cyclic(3)
    c, c2 = C3.generator(), C3.element([2])
    assert table(c, c, c) == z3
    assert table(c2, c2, c2) == z3**2  # 8 = 2 mod 3
    assert is_cocycle3(cyclic_qabc(5, root_of_unity(5, 1)))
    for n in range(2, 7):
        table = cyclic_qabc(n, root_of_unity(n, 1))
        assert is_cocycle3(table) and is_normalized3(table)


def test_cyclic_qabc_witness():
    z3 = root_of_unity(3, 1)
    witness = cyclic_qabc_coboundary_witness(3, z3)
    C3 = cyclic(3)
    c, c2 = C3.generator(), C3.element([2])
    assert witness(c2, c) == z3.inv()  # exponent -(1)(2)(1)/2 = -1
    assert delta2(witness)(c, c, c) == z3
    assert delta2(witness) == cyclic_qabc(3, z3)
    assert delta2(cyclic_qabc_coboundary_witness(5, root_of_unity(5, 1))) == cyclic_qabc(
        5, root_of_unity(5, 1)
    )
    with pytest.raises(ValueError):
        cyclic_qabc_coboundary_witness(2, -1)


def test_boundary_matrix_shapes_and_complex():
    # |G|^(n+1) rows by |G|^n columns
    matrix = boundary_matrix(cyclic(2), 2, 2)
    assert matrix.shape == (8, 4)
    assert boundary_matrix(cyclic(2), 3, 2).shape == (16, 8)
    for group, m in ((klein(), 4), (cyclic(3), 3)):
        outer = boundary_matrix(group, 3, m)
        inner = boundary_matrix(group, 2, m)
        assert not ((outer @ inner) % m).any()


def test_boundary_matrix_diagonal_row(G):
    # the row at (sigma,)*4 doubles the coefficient of f(sigma,sigma,sigma)
    matrix = boundary_matrix(G, 3, 4)
    triples = list(G.tuples(3))
    quads = list(G.tuples(4))
    row = matrix[quads.index((G.sigma,) * 4)]
    assert row[triples.index((G.sigma,) * 3)] == 2
    assert row[triples.index((G.e, G.sigma, G.sigma))] == 3  # -1 mod 4


def test_additive_multiplicative_consistency(G, rng):
    matrix = boundary_matrix(G, 3, 4)
    candidates = [phi_X({"sigma"}), g_b(root_of_unity(4, 1)), h_a(-1)]
    for _ in range(5):
        candidates.append(
            Cochain.from_function(G, 3, lambda *a: root_of_unity(4, rng.randrange(4)))
        )
    for table in candidates:
        vec = cochain_exponents(table, 4)
        additive = not ((matrix @ vec) % 4).any()
        assert additive == is_cocycle3(table)


def test_is_coboundary_mu(G):
    trivial = Cochain.constant(G, 3, 1)
    witness = is_coboundary_mu(trivial, 4)
    assert witness is not None and witness.is_trivial()
    assert is_coboundary_mu(phi_X({"sigma"}), 4) is None
    found = is_coboundary_mu(h_a(-1), 4)
    assert found is not None and delta2(found) == h_a(-1)
    with pytest.raises(ValueError):
        is_coboundary_mu(g_b(5), 4)
    # over mu_1 every value is 1 and the witness is the trivial cochain
    witness = is_coboundary_mu(trivial, 1)
    assert witness is not None and witness.is_trivial()


def test_cohomology_reports():
    report = cohomology(cyclic(2), 3, 2)
    assert report.invariant_factors == [2]
    report = cohomology(cyclic(3), 3, 3)
    assert report.invariant_factors == [3]
    report = cohomology(klein(), 3, 4)
    assert report.invariant_factors == [2, 2, 2, 2]
    assert int(np.prod(report.invariant_factors)) == report.kernel_size // report.image_size
    for generator in report.generators:
        assert is_cocycle3(generator)
        assert is_coboundary_mu(generator, 4) is None


@pytest.mark.parametrize("orders", [(3,), (2, 2), (2, 4)])
@pytest.mark.parametrize("m", [4, 12])
def test_delta_agrees_with_boundary_matrix(orders, m, rng):
    # the value map and the Z/m rows of one coboundary law
    group = FiniteAbelianGroup(orders)
    for n in (1, 2, 3):
        c = Cochain.from_function(group, n, lambda *a: root_of_unity(m, rng.randrange(m)))
        expected = boundary_matrix(group, n, m) @ cochain_exponents(c, m) % m
        assert np.array_equal(cochain_exponents(c.delta(), m), expected)


def test_cohomology_argument_guards():
    assert cohomology(cyclic(2), 3, 1).invariant_factors == []
    for n, m in ((3, 0), (3, -3), (0, 2)):
        with pytest.raises(ValueError):
            cohomology(cyclic(2), n, m)


@pytest.mark.parametrize("orders", [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (3, 3)])
def test_normalized_law_rows_are_the_nondegenerate_slice(orders):
    group = FiniteAbelianGroup(orders)
    m = group.size
    for n in (1, 2, 3):
        full = boundary_matrix(group, n, m)
        expected = full[np.ix_(nondegenerate(group, n + 1), nondegenerate(group, n))]
        matrix, rhs = law_rows(coboundary_law(n), group, "f", m, normalized=True,
                               points=nondegenerate(group, n + 1))
        assert matrix.shape == expected.shape and matrix.tobytes() == expected.tobytes()
        assert rhs.shape == (expected.shape[0],) and not rhs.any()


def test_cohomology_memory_peak():
    # the normalized system is built directly and [A^T | I] exists once
    tracemalloc.start()
    try:
        report = cohomology(FiniteAbelianGroup((3, 3)), 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.invariant_factors == [3, 3, 3, 3]
    assert peak < 64 * 2**20


def test_cohomology_cell_bound_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cells"):
            cohomology(cyclic(20), 3, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _same_bytes(x, y):
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


# (orders, m) of the benchmark's H^3 ladder
LADDER = [((2,), 2), ((3,), 3), ((4,), 4), ((5,), 5), ((6,), 6), ((7,), 7), ((8,), 8),
          ((2, 2), 4), ((2, 4), 4), ((2, 2, 2), 2), ((3, 3), 3)]


ORACLE_CASES = [
    *((orders, m, n) for orders, m in LADDER for n in (1, 2, 3)),
    *(((2,), 2, 4), ((3,), 3, 4), ((2, 2), 4, 4)),
    *((orders, 6, n) for orders in ((1,), (1, 3), (3, 1, 2)) for n in (1, 2, 3)),
]


@pytest.mark.parametrize("orders, m, n", ORACLE_CASES,
                         ids=[f"{FiniteAbelianGroup(o)!r}/mu{m}/n{n}" for o, m, n in ORACLE_CASES])
def test_generator_rows_have_the_kernel_of_the_full_normalized_system(orders, m, n):
    # delta^2 = 0 makes the rows at a non-generator first argument redundant;
    # the full normalized system is the oracle, and Howell bases are canonical
    group = FiniteAbelianGroup(orders)
    rule = coboundary_law(n)
    full = law_rows(rule, group, "f", m, normalized=True, points=nondegenerate(group, n + 1))[0]
    points = generator_rows(group, n)
    assert points.dtype == np.int64
    assert points.shape == (sum(k > 1 for k in orders) * (group.size - 1) ** n,)
    restricted = law_rows(rule, group, "f", m, normalized=True, points=points)[0]
    slice_rows = np.searchsorted(nondegenerate(group, n + 1), points)
    assert _same_bytes(restricted, full[slice_rows])
    assert _same_bytes(kernel_mod(restricted, m), kernel_mod(full, m))


def test_cohomology_of_the_trivial_group_is_zero():
    # no generator, so the kernel system has no rows (and no columns)
    for n in (1, 2, 3):
        assert cohomology(FiniteAbelianGroup((1,)), n, 6).invariant_factors == []


def test_cohomology_memory_peak_on_generator_rows():
    # 2 * 8^3 rows of delta_3 instead of 8^4: 53.8 MB peak with all of them
    tracemalloc.start()
    try:
        report = cohomology(FiniteAbelianGroup((3, 3)), 3, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.invariant_factors == [3, 3, 3, 3]
    assert peak < 24 * 2**20


def test_cohomology_cell_bound_is_checked_on_the_kernel_array(monkeypatch):
    # on C2xC2 at degree 2, [A^T | I] is 3^2 x 3*3^2 = 243 cells, A 2*3^2 x 3^2;
    # delta_2's positions take 5 * 4^3 = 320 cells, so they are memoized first
    klein_group = klein()
    assert cohomology(klein_group, 2, 4).invariant_factors == [2, 2, 2]
    monkeypatch.setattr(cochains, "MATRIX_CELL_BOUND", 243)
    assert cohomology(klein_group, 2, 4).invariant_factors == [2, 2, 2]
    monkeypatch.setattr(cochains, "MATRIX_CELL_BOUND", 242)
    with pytest.raises(ValueError, match=re.escape("a 3^2 x 3*3^2 array [A^T | I] exceeds 242 cells")):
        cohomology(klein_group, 2, 4)
    points = generator_rows(klein_group, 2)
    monkeypatch.setattr(cochains, "MATRIX_CELL_BOUND", 162)
    assert law_rows(coboundary_law(2), klein_group, "f", 4, normalized=True, points=points)[0].shape == (18, 9)
    monkeypatch.setattr(cochains, "MATRIX_CELL_BOUND", 161)
    with pytest.raises(ValueError, match=re.escape("a 18 x 3^2 system exceeds 161 cells")):
        law_rows(coboundary_law(2), klein_group, "f", 4, normalized=True, points=points)


def test_cohomology_degree_one_bound_counts_the_square_tables(monkeypatch):
    # the positions of delta_1 on C6, checked on a memo miss: three 6^2 arrays
    # and the word being added, 4 * 6^2 = 144 cells
    rule, group = coboundary_law(1), cyclic(6)
    message = "the positions of a 3-term law on 6^2 points exceed 143 cells"
    for bound, refused in ((144, False), (143, True)):
        monkeypatch.setattr(cochains, "MATRIX_CELL_BOUND", bound)
        cochains._positions.cache_clear()
        if refused:
            with pytest.raises(ValueError, match=re.escape(message)):
                positions(rule, group)
            with pytest.raises(ValueError, match=re.escape(message)):
                cohomology(group, 1, 6)
        else:
            assert len(positions(rule, group)) == 3
            assert cohomology(group, 1, 6).invariant_factors == [6]
    # a memoized entry allocates nothing, so it is not checked again
    monkeypatch.setattr(cochains, "MATRIX_CELL_BOUND", 144)
    cached = positions(rule, group)
    monkeypatch.setattr(cochains, "MATRIX_CELL_BOUND", 143)
    assert positions(rule, group) is cached


def test_arity_one_positions_fit_their_count(monkeypatch):
    # at arity 1 the exponent axis is dense, |G| cells: with the two term
    # arrays and the word being added, 4 |G| for +Q(X) -Q(x); a negated word
    # and the last word's array left alive used to make the peak 5 |G|
    rule, size = law("+Q(X) -Q(x)"), 200_000
    cochains._positions.cache_clear()
    tracemalloc.start()
    try:
        positions(rule, cyclic(size))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        cochains._positions.cache_clear()
    assert 3 * 8 * size < peak <= 4 * 8 * size + 2**16
    message = "the positions of a 2-term law on 6^1 points exceed 23 cells"
    for bound, refused in ((24, False), (23, True)):
        monkeypatch.setattr(cochains, "MATRIX_CELL_BOUND", bound)
        cochains._positions.cache_clear()
        if refused:
            with pytest.raises(ValueError, match=re.escape(message)):
                positions(rule, cyclic(6))
        else:
            assert len(positions(rule, cyclic(6))) == 2


def test_cohomology_degree_one_refuses_before_the_square_tables():
    # [A^T | I] of C5000 at degree 1 is within the bound, but delta_1's
    # positions would take 4 * 5000^2 cells (~800 MB)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("a 3-term law on 5000^2 points exceed")):
            cohomology(cyclic(5000), 1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_cocycle_law_refuses_before_its_positions():
    # 6 * 64^4 cells (~800 MB) of positions for the cocycle law on C64
    phi = Cochain.constant(cyclic(64), 3, 1)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("a 5-term law on 64^4 points exceed")):
            cocycle3_failure(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_cohomology_image_bound_refuses_before_the_kernel_tables():
    # on C2 the kernel system is tiny at any degree, but delta_(n-1) is
    # 2^n x 2^(n-1); it was refused only after 170 MB of tables at n = 18
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("a 2^18 x 2^17 system exceeds")):
            cohomology(cyclic(2), 18, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_boundary_matrix_cell_bound_refuses_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cells"):
            boundary_matrix(cyclic(20), 3, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert boundary_matrix(cyclic(6), 3, 6).shape == (6**4, 6**3)


# H^n(G, mu_m) reports and generator tables of the sequential full-cochain
# computation, pinned so the normalized-cochain kernel must reproduce them.
# A generator is written as its exponent table, one hex digit per tuple of
# G^n in group.tuples order.
PINNED_COHOMOLOGY = [
    ((6,), 1, 12, [6], 6, 1, ["0a8642"]),
    ((4,), 2, 8, [4], 4096, 1024, ["0000000100110111"]),
    ((2, 2), 2, 4, [2, 2, 2], 512, 64,
     ["0000000000110011", "0000000002020202", "0000010100000101"]),
    ((2,), 4, 12, [2], 2985984, 1492992, ["0000000000000001"]),
    ((3,), 4, 9, [3], 109418989131512359209, 36472996377170786403,
     ["000000000000000000000000000000000000000000000000001011000000000000001011000001011"]),
    ((2, 2), 3, 4, [2, 2, 2, 2], 134217728, 8388608,
     ["0000000000000000000000000000000000000000002200220000000000220022",
      "0000000000000000000000000000000000000000020202020000000002020202",
      "0000000000000000000002020000020200000000000000000000020200000202",
      "0000000000000000000000000000000000000101010102020000010101010202"]),
    ((6,), 3, 12, [6], 1424257882798618837973701748588544, 237376313799769806328950291431424,
     ["000000000000000000000000000000000000000000000000000000000000000000"
      "0a86420000000000000000000000000a86420a86420000000000000000000a8642"
      "0a86420a86420000000000000a86420a86420a86420a86420000000a86420a8642"
      "0a86420a86420a8642"]),
]


@pytest.mark.parametrize("orders, n, m, factors, kernel, image, tables", PINNED_COHOMOLOGY)
def test_cohomology_pinned(orders, n, m, factors, kernel, image, tables):
    group = FiniteAbelianGroup(orders)
    report = cohomology(group, n, m)
    assert report.to_json() == {
        "group": {"orders": list(orders)},
        "degree": n,
        "modulus": m,
        "invariant_factors": factors,
        "kernel_size": kernel,
        "image_size": image,
    }
    assert ["".join(f"{e:x}" for e in cochain_exponents(g, m)) for g in report.generators] == tables


# H^3(G, mu_m) reports of the larger groups, with a sha1 of the generator
# tables (one hex digit per tuple, as above, one generator per line), pinned
# before the kernel system was cut down to its generator rows.
PINNED_LARGE_COHOMOLOGY = [
    ((8,), 8, [8], 2993155353253689176481146537402947624255349848014848,
     374144419156711147060143317175368453031918731001856,
     "7a02de752c6ec62f998eb48b77d0ac835b235d08"),
    ((2, 4), 4, [2, 2, 2, 4], 83076749736557242056487941267521536,
     2596148429267413814265248164610048, "080f6c090d301d6494a3149f1bc3a60232df2a74"),
    ((2, 2, 2), 2, [2] * 10, 9223372036854775808, 9007199254740992,
     "cfde35f14161a2597af6a0c66d68815f33e5a5d6"),
    ((3, 3), 3, [3, 3, 3, 3], 608266787713357709119683992618861307,
     7509466514979724803946715958257547, "ba1f921081707252f93c4a5baf9c9b265310c6a2"),
    ((2, 6), 12, [2, 2, 2, 6],
     679415921570271745729902134664104997403917009522873459027926565776962125208288010867528944848281536030374114247676367042528230604321107522617344,
     14154498366047328036039627805502187445914937698393197063081803453686710941839333559740186351005865333966127380159924313386004804256689740054528,
     "e991ed5b60f9ca7e96c350b8b1473c446e0536ed"),
]


@pytest.mark.parametrize("orders, m, factors, kernel, image, tables_sha1", PINNED_LARGE_COHOMOLOGY,
                         ids=[f"{FiniteAbelianGroup(row[0])!r}/mu{row[1]}" for row in PINNED_LARGE_COHOMOLOGY])
def test_large_cohomology_pinned(orders, m, factors, kernel, image, tables_sha1):
    report = cohomology(FiniteAbelianGroup(orders), 3, m)
    assert report.to_json() == {
        "group": {"orders": list(orders)},
        "degree": 3,
        "modulus": m,
        "invariant_factors": factors,
        "kernel_size": kernel,
        "image_size": image,
    }
    tables = "\n".join("".join(f"{e:x}" for e in cochain_exponents(g, m)) for g in report.generators)
    assert hashlib.sha1(tables.encode()).hexdigest() == tables_sha1


def test_cocycle_failure_reports_quadruple(G):
    broken = list(Cochain.constant(G, 3, 1).values)
    broken[G.position((G.sigma, G.sigma, G.sigma))] = CycScalar.rational(2)
    failure = cocycle3_failure(Cochain(G, 3, broken))
    assert failure == (G.sigma, G.sigma, G.sigma, G.sigma)


def test_cochain_json_roundtrip(G):
    table = g_b(root_of_unity(4, 1))
    data = table.to_json()
    assert len(data["values"]) == 64
    assert Cochain.from_json(data) == table


def _klein_json_with(**fields):
    data = phi_X({"sigma", "tau"}).to_json()
    data.update(fields)
    return data


@pytest.mark.parametrize(
    "data, error, field",
    [
        ([1, 2], ValueError, "group"),
        (_klein_json_with(group=[2, 2]), ValueError, "group"),
        (_klein_json_with(group={"order": [2, 2]}), ValueError, "group.orders"),
        (_klein_json_with(degree=None), TypeError, "degree"),
        (_klein_json_with(degree=1.5), TypeError, "degree"),
        ({k: v for k, v in _klein_json_with().items() if k != "values"}, ValueError, "values"),
        (_klein_json_with(values=5), ValueError, "values"),
        (_klein_json_with(values=[5]), ValueError, "values[0].args"),
        (_klein_json_with(values=[{"args": [[0, 0]] * 2, "value": {}}]), ValueError, "values[0].args"),
        (_klein_json_with(values=[{"args": [[0]] * 3, "value": {}}]), ValueError, "values[0].args"),
        (_klein_json_with(values=[{"args": [[0, 0]] * 3}]), ValueError, "values[0].value"),
    ],
)
def test_cochain_json_names_the_bad_field(data, error, field):
    with pytest.raises(error, match=re.escape(field)):
        Cochain.from_json(data)


def test_cochain_validation(G):
    with pytest.raises(ValueError, match="table has 0 entries, expected 64"):
        Cochain(G, 3, [])
    values = [CycScalar.one()] * 16
    values[G.position((G.sigma, G.e))] = CycScalar.zero()
    with pytest.raises(ValueError, match=re.escape("value at (sigma, e) is zero")):
        Cochain(G, 2, values)
    with pytest.raises(TypeError, match="takes 3 elements"):
        Cochain.constant(G, 3)(G.e, G.e)  # (e, e) would read the entry at (e, e, e)
    # a mapping or a set has no tuples order: its keys would be read as values
    with pytest.raises(TypeError, match=re.escape("sequence in group.tuples(1) order, not a dict")):
        Cochain(G, 1, {1: 1, 2: 1, 3: 1, 4: 1})
    with pytest.raises(TypeError, match="not a dict"):
        Cochain(G, 2, {key: 1 for key in G.tuples(2)})
    with pytest.raises(TypeError, match="not a set"):
        Cochain(G, 1, {1, 2, 3, 4})


def test_cochain_names_the_first_missing_tuple(G):
    # a table from outside is a mapping: from_json names the first tuple it lacks
    data = Cochain.constant(G, 1, 1).to_json()
    data["values"][0]["args"] = [[1, 0]]  # the entry at e now names sigma a second time
    with pytest.raises(ValueError, match=re.escape("no entry at (e,)")):
        Cochain.from_json(data)
    data = Cochain.constant(G, 2, 1).to_json()
    data["values"] = [entry for entry in data["values"] if entry["args"] != [[1, 0], [0, 1]]]
    with pytest.raises(ValueError, match=re.escape("no entry at (sigma, tau)")):
        Cochain.from_json(data)


@pytest.mark.parametrize("text, rest", [
    ("+Q(x) -Q(y", "-Q(y"),
    ("+Q(x) Q(y)", "Q(y)"),
    ("+Q(x) -Q(a)", "-Q(a)"),
    ("+F(x,y) -F(y,x", "-F(y,x"),
    ("", ""),
])
def test_law_refuses_text_it_cannot_parse(text, rest):
    # a typo used to drop the terms after it silently
    with pytest.raises(ValueError, match=re.escape(f"cannot parse {rest!r}")):
        law(text)


def element_product(word, point):
    """The product of a word's variables at a point, inverses included."""
    return reduce(mul, (point[p] if p >= 0 else point[~p].inverse() for p in word),
                  point[0].group.identity())


@pytest.mark.parametrize("orders", [(3,), (4,), (2, 4), (3, 1, 2)], ids=str)
def test_positions_of_inverse_words(orders):
    group = FiniteAbelianGroup(orders)
    index = {g: i for i, g in enumerate(group.elements())}
    rule = law("+f(xYz,Zx) -g(,X) +h(T)")
    assert rule.arity == 4
    for (sign, slot, flat), (_, _, words) in zip(positions(rule, group), rule.terms):
        expected = [
            reduce(lambda acc, g: acc * group.size + index[g],
                   [element_product(word, point) for word in words], 0)
            for point in group.tuples(4)
        ]
        assert flat.tolist() == expected


@pytest.mark.parametrize("orders", [(3,), (4,), (2, 4)], ids=str)
def test_inverse_symmetry_law_agrees_with_direct_evaluation(orders, rng):
    # Q(x^-1) = Q(x) on groups where x^-1 != x for some x
    group = FiniteAbelianGroup(orders)
    elements = group.elements()
    rule = law("+Q(X) -Q(x)")
    m = 8
    matrix, rhs = law_rows(rule, group, "Q", m)
    assert not rhs.any()
    outcomes = set()
    for trial in range(12):
        exponents = {x: rng.randrange(m) for x in elements}
        if trial % 3 == 0:  # symmetric tables, so that the law also holds
            exponents = {x: exponents[x] + exponents[x.inverse()] for x in elements}
        vector = np.array([exponents[x] for x in elements])
        assert ((matrix @ vector) % m).tolist() == [
            (exponents[x.inverse()] - exponents[x]) % m for x in elements
        ]
        bad = next(((x,) for x in elements if exponents[x.inverse()] % m != exponents[x] % m), None)
        outcomes.add(bad is None)
        roots = [root_of_unity(m, exponents[x]) for x in elements]
        non_roots = [CycScalar.rational(2 + exponents[x] % m) for x in elements]
        for dense in (roots, non_roots):
            failure = first_failure([rule], group, {"Q": dense})
            assert failure == (None if bad is None else (0, bad))
    assert outcomes == {True, False}


def object_first_failure(laws, group, tables):
    """first_failure by CycScalar products, point by point in tuples order."""
    index = {g: i for i, g in enumerate(group.elements())}

    def value(slot, args):
        flat = reduce(lambda acc, g: acc * group.size + index[g], args, 0)
        return tables[slot][flat]

    for point in group.tuples(laws[0].arity):
        for which, rule in enumerate(laws):
            sides = {1: [], -1: []}
            for sign, slot, words in rule.terms:
                args = [reduce(mul, (point[p] for p in word)) for word in words]
                sides[sign].append(value(slot, args))
            if reduce(mul, sides[1]) != reduce(mul, sides[-1]):
                return which, point
    return None


def tampers(cochain, factor):
    """Each single-cell change of a cochain by ``factor``, as value lists."""
    dense = list(cochain.values)
    for k in range(len(dense)):
        yield dense[:k] + [dense[k] * factor] + dense[k + 1:]


def test_first_failure_on_tampered_klein_cocycles(G):
    i = root_of_unity(4, 1)
    for phi in (phi_X(set()), phi_X({"sigma", "rho"}), g_b(i)):
        for factor in (i, CycScalar.rational(-1)):
            for dense in tampers(phi, factor):
                tables = {"f": dense}
                assert _root_exponents(tables) is not None  # the exponent path
                expected = object_first_failure([COCYCLE_LAW], G, tables)
                assert expected is not None
                assert first_failure([COCYCLE_LAW], G, tables) == expected


def test_first_failure_on_tampered_census_r_matrices(G):
    i = root_of_unity(4, 1)
    for _, ac in enumerate_klein_braidings(4):
        for dense in tampers(ac.R, i):
            tables = {"phi": ac.phi.values, "R": dense}
            assert _root_exponents(tables) is not None
            expected = object_first_failure(HEXAGONS, G, tables)
            assert expected is not None
            assert first_failure(HEXAGONS, G, tables) == expected


def minimal_conductor(value):
    """Rational values moved to conductor 1, so tables mix conductors."""
    q = value.as_rational()
    return value if q is None else CycScalar.rational(q)


@pytest.mark.parametrize(
    "orders, roots",
    [((3,), (3,)), ((6,), (6,)), ((6,), (3, 2)), ((2, 4), (4,)), ((2, 4), (8,)), ((3,), (3, 2))],
)
def test_first_failure_on_random_mu_tables(orders, roots, rng):
    # cocycles delta(g) of random mu-valued g, then one random cell changed
    group = FiniteAbelianGroup(orders)

    def root():  # a sign is an int, so it keeps the conductor of the root
        return reduce(mul, (rng.choice((1, -1)) if n == 2 else root_of_unity(n, rng.randrange(n))
                            for n in roots))

    for trial in range(4):
        g = Cochain.from_function(group, 2, lambda x, y: root())
        dense = [minimal_conductor(v) for v in g.delta().values]
        if trial:
            k = rng.randrange(len(dense))
            change = root()
            dense[k] = minimal_conductor(dense[k] * (change if not change.is_one() else CycScalar.rational(-1)))
        tables = {"f": dense}
        exponents = _root_exponents(tables)
        assert exponents is not None
        expected = object_first_failure([COCYCLE_LAW], group, tables)
        assert (expected is None) == (trial == 0)
        assert first_failure([COCYCLE_LAW], group, tables) == expected
    conductors = {v.conductor for v in dense}
    if roots == (3, 2):
        assert conductors == {1, 3} and exponents[0] == 6


def test_first_failure_falls_back_on_non_roots(G):
    i = root_of_unity(4, 1)
    base = phi_X({"sigma"}).values
    for k in (0, 9, 30, 63):
        for j in (5, 40):
            dense = list(base)
            dense[j] = dense[j] * i
            dense[k] = dense[k] * CycScalar.rational(2)
            tables = {"f": dense}
            assert _root_exponents(tables) is None  # the object path
            expected = object_first_failure([COCYCLE_LAW], G, tables)
            assert first_failure([COCYCLE_LAW], G, tables) == expected
    # a non-root value that the laws do not read still selects the object path
    tables = {"f": phi_X(set()).values, "unused": [CycScalar.rational(3)]}
    assert _root_exponents(tables) is None
    assert first_failure([COCYCLE_LAW], G, tables) is None


def object_evaluate(rule, group, tables):
    """evaluate by CycScalar products, point by point in tuples order."""
    index = {g: i for i, g in enumerate(group.elements())}
    signed = {1: tables, -1: {slot: [v.inv() for v in table] for slot, table in tables.items()}}
    out = []
    for point in group.tuples(rule.arity):
        factors = []
        for sign, slot, words in rule.terms:
            args = [element_product(word, point) for word in words]
            factors.append(signed[sign][slot][reduce(lambda acc, g: acc * group.size + index[g], args, 0)])
        out.append(reduce(mul, factors))
    return out


def representation(values):
    """What to_json writes of each value: conductor, numerators, denominator."""
    return [(v.conductor, v.nums, v.den) for v in values]


MIXED_CONDUCTORS = (1, 2, 3, 4, 6, 8, 12)


def mixed_root(rng):
    """A root of unity at a conductor drawn from MIXED_CONDUCTORS; +-1 at 1."""
    c = rng.choice(MIXED_CONDUCTORS)
    if c == 1:
        return CycScalar.rational(rng.choice((1, -1)))
    return root_of_unity(c, rng.randrange(c))


@pytest.mark.parametrize("orders", [(3,), (2, 2), (2, 4), (6,)], ids=str)
def test_evaluate_matches_scalar_products_on_mixed_conductors(orders, rng):
    group = FiniteAbelianGroup(orders)
    conductors = set()
    for degree in range(4):
        for _ in range(2):
            f = Cochain(group, degree, [mixed_root(rng) for _ in range(group.size**degree)])
            g = Cochain(group, degree, [mixed_root(rng) for _ in range(group.size**degree)])
            tables = {"f": f.values}
            assert _root_exponents(tables) is not None  # the exponent path
            rule = coboundary_law(degree)
            expected = representation(object_evaluate(rule, group, tables))
            assert representation(evaluate(rule, group, tables)) == expected
            assert representation(f.delta().values) == expected
            pairs = list(zip(f.values, g.values))
            assert representation((f * g).values) == representation(a * b for a, b in pairs)
            assert representation(f.inv().values) == representation(a.inv() for a in f.values)
            assert representation((f / g).values) == representation(a * b.inv() for a, b in pairs)
            conductors.update(v.conductor for v in f.values + g.values)
    assert conductors == set(MIXED_CONDUCTORS)


@pytest.mark.parametrize("non_root", [1 + root_of_unity(8, 1), root_of_unity(4, 1) / 2], ids=str)
def test_evaluate_falls_back_on_a_non_root(G, rng, non_root):
    rule = coboundary_law(2)
    values = [mixed_root(rng) for _ in range(16)]
    values[7] = non_root
    tables = {"f": values}
    assert _root_exponents(tables) is None  # the object path
    assert representation(evaluate(rule, G, tables)) == representation(object_evaluate(rule, G, tables))
    f = Cochain(G, 2, values)
    assert representation(f.inv().values) == representation(a.inv() for a in values)
    assert representation((f / f.inv()).values) == representation(a * a for a in values)


def test_positions_are_cached_and_read_only():
    rule = law("+f(xY,z) -g(X)")
    first = positions(rule, FiniteAbelianGroup((2, 4)))
    again = positions(rule, FiniteAbelianGroup([2, 4]))  # an equal group, built anew
    assert all(a[2] is b[2] for a, b in zip(first, again))
    for _, _, flat in first:
        with pytest.raises(ValueError, match="read-only"):
            flat[0] = 1
    assert positions(rule, FiniteAbelianGroup((8,)))[0][2] is not first[0][2]


def test_normalize3_reports_the_first_failure(G):
    broken = list(phi_X(set()).values)
    broken[21] = broken[21] * root_of_unity(4, 1)
    phi = Cochain(G, 3, broken)
    with pytest.raises(NotACocycle) as failure:
        normalize3(phi)
    assert failure.value.point == cocycle3_failure(phi)
    assert isinstance(failure.value, ValueError)

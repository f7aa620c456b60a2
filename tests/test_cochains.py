import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import mul

import numpy as np
import pytest

from cocycle_lab.braidings import HEXAGONS, enumerate_klein_braidings
from cocycle_lab.cochains import (
    COCYCLE_LAW,
    Cochain,
    NotACocycle,
    _root_exponents,
    boundary_matrix,
    cochain_exponents,
    cocycle3_failure,
    cohomology,
    cyclic_phi_q,
    cyclic_qabc,
    cyclic_qabc_coboundary_witness,
    delta2,
    delta3,
    first_failure,
    is_coboundary_mu,
    is_cocycle3,
    is_normalized2,
    is_normalized3,
    normalize3,
)
from cocycle_lab.groups import FiniteAbelianGroup, cyclic, klein
from cocycle_lab.klein import g_b, h_a, klein_2cochain, phi_X
from cocycle_lab.scalars import CycScalar, root_of_unity


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
    d = delta2(g).values
    a1, a2, a3, b1, b2, b3, b4, b5, b6, c = (
        Fraction(names[k]) for k in ("a1", "a2", "a3", "b1", "b2", "b3", "b4", "b5", "b6", "c")
    )
    s, t, r = G.sigma, G.tau, G.rho
    # the diagonal is always trivial
    assert d[(s, s, s)] == 1 and d[(t, t, t)] == 1 and d[(r, r, r)] == 1
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
        assert d[key] == value, key


def test_delta2_examples(G):
    assert delta2(Cochain.constant(G, 2, 1)).is_trivial()
    g = klein_2cochain(a1=7, a2=7, a3=7)
    d = delta2(g)
    assert d.values[(G.tau, G.sigma, G.sigma)] == 7
    assert d.values[(G.sigma, G.sigma, G.tau)] == Fraction(1, 7)


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
    broken = dict(Cochain.constant(G, 3, 1).values)
    broken[(G.sigma, G.sigma, G.sigma)] = CycScalar.rational(2)
    assert not is_cocycle3(Cochain(G, 3, broken))
    assert is_cocycle3(cyclic_phi_q(2, -1))


def test_is_normalized(G):
    assert is_normalized3(Cochain.constant(G, 3, 1))
    for phi in (phi_X({"sigma"}), h_a(5), g_b(-1)):
        assert is_normalized3(phi)
        # normalization propagates to the other unit slots
        for x in G.elements():
            for y in G.elements():
                assert phi.values[(G.e, x, y)].is_one()
                assert phi.values[(x, y, G.e)].is_one()
    psi = Cochain.from_function(
        G, 2, lambda x, y: 2 if (x.is_identity and not y.is_identity) else (3 if y.is_identity else 1)
    )
    assert not is_normalized2(psi)
    assert is_normalized2(klein_2cochain(c=5))


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
    assert phi.values[(G.sigma, G.sigma, G.tau)] == Fraction(1, 2)
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
    assert phi.values[(G.e,) * 3].is_one()  # forced for every cocycle
    normalized, witness = normalize3(phi)
    assert is_normalized3(normalized)
    assert normalized == phi * delta2(witness)
    with pytest.raises(ValueError):
        normalize3(Cochain.from_function(G, 3, lambda x, y, z: 2 if x == y == z == G.sigma else 1))


def test_cyclic_phi_q():
    phi = cyclic_phi_q(2, -1)
    c = cyclic(2).generator()
    assert phi.values[(c, c, c)] == -1
    z3 = root_of_unity(3, 1)
    phi = cyclic_phi_q(3, z3)
    c2 = cyclic(3).element([2])
    assert phi.values[(c2, c2, c2)] == z3**2
    assert cyclic_phi_q(5, 1).is_trivial()
    for n in range(2, 7):
        for k in range(n):
            table = cyclic_phi_q(n, root_of_unity(n, k))
            assert is_cocycle3(table) and is_normalized3(table)
    with pytest.raises(ValueError):
        cyclic_phi_q(3, root_of_unity(4, 1))


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
    assert table.values[(c, c, c)] == z3
    assert table.values[(c2, c2, c2)] == z3**2  # 8 = 2 mod 3
    assert is_cocycle3(cyclic_qabc(5, root_of_unity(5, 1)))
    for n in range(2, 7):
        table = cyclic_qabc(n, root_of_unity(n, 1))
        assert is_cocycle3(table) and is_normalized3(table)


def test_cyclic_qabc_witness():
    z3 = root_of_unity(3, 1)
    witness = cyclic_qabc_coboundary_witness(3, z3)
    C3 = cyclic(3)
    c, c2 = C3.generator(), C3.element([2])
    assert witness.values[(c2, c)] == z3.inv()  # exponent -(1)(2)(1)/2 = -1
    assert delta2(witness).values[(c, c, c)] == z3
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


def test_cocycle_failure_reports_quadruple(G):
    broken = dict(Cochain.constant(G, 3, 1).values)
    broken[(G.sigma, G.sigma, G.sigma)] = CycScalar.rational(2)
    failure = cocycle3_failure(Cochain(G, 3, broken))
    assert failure == (G.sigma, G.sigma, G.sigma, G.sigma)


def test_cochain_json_roundtrip(G):
    table = g_b(root_of_unity(4, 1))
    data = table.to_json()
    assert len(data["values"]) == 64
    assert Cochain.from_json(data) == table


def test_cochain_validation(G):
    with pytest.raises(ValueError):
        Cochain(G, 3, {})
    values = {key: CycScalar.one() for key in G.tuples(2)}
    values[(G.e, G.e)] = CycScalar.zero()
    with pytest.raises(ValueError):
        Cochain(G, 2, values)


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
    """Each single-cell change of a cochain by ``factor``, as dense tables."""
    dense = cochain.dense()
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
            tables = {"phi": ac.phi.dense(), "R": dense}
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
        dense = [minimal_conductor(v) for v in g.delta().dense()]
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
    base = phi_X({"sigma"}).dense()
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
    tables = {"f": phi_X(set()).dense(), "unused": [CycScalar.rational(3)]}
    assert _root_exponents(tables) is None
    assert first_failure([COCYCLE_LAW], G, tables) is None


def test_normalize3_reports_the_first_failure(G):
    broken = phi_X(set()).dense()
    broken[21] = broken[21] * root_of_unity(4, 1)
    phi = Cochain.from_dense(G, 3, broken)
    with pytest.raises(NotACocycle) as failure:
        normalize3(phi)
    assert failure.value.point == cocycle3_failure(phi)
    assert isinstance(failure.value, ValueError)

import re
import tracemalloc
from itertools import combinations, product
from math import gcd

import numpy as np
import pytest

from cocycle_lab import klein_tables
from cocycle_lab.braidings import (
    HEXAGONS,
    QUADRATIC_FORM,
    AbelianCocycle,
    abelian_coboundary,
    abelian_cohomologous,
    braiding_for_label,
    c2_abelian_cocycles,
    categorical_hexagon_check,
    categorical_pentagon_check,
    count_hexagon_solutions_mu,
    cyclic_braiding,
    enumerate_klein_braidings,
    enumerate_quadratic_forms,
    hexagon_failure,
    is_abelian_cocycle,
    is_quadratic_form,
    is_symmetric,
    klein_braiding_phiX,
    klein_braiding_trivial,
    qf_label,
    trace,
    transport_t_ab,
)
from cocycle_lab.cochains import (
    Cochain,
    cochain_exponents,
    cocycle3_failure,
    cyclic_phi_q,
    first_failure,
    is_cocycle3,
    law_rows,
)
from cocycle_lab.groups import FiniteAbelianGroup, cyclic, klein
from cocycle_lab.klein import g_b, h_a, klein_2cochain, phi_X
from cocycle_lab.scalars import CycScalar, root_of_unity

I = root_of_unity(4, 1)
SUBSETS = [set(c) for k in range(4) for c in combinations(("sigma", "tau", "rho"), k)]


# ----------------------------------------------------------------- #
# test-only oracles: exhaustive searches and the Klein criterion
# ----------------------------------------------------------------- #

def bruteforce_hexagon_count(phi: Cochain, m: int = 4) -> int:
    """count_hexagon_solutions_mu by testing all m^((|G|-1)^2) candidates at once."""
    group = phi.group
    size = group.size
    known = {"phi": cochain_exponents(phi, m)}
    blocks = [law_rows(hexagon, group, "R", m, known) for hexagon in HEXAGONS]
    # both hexagons at each point in turn; R(x, y) = 1 when x or y is e
    free = [x * size + y for x in range(1, size) for y in range(1, size)]
    matrix = np.stack([a for a, _ in blocks], axis=1).reshape(-1, size * size)[:, free]
    rhs = np.stack([b for _, b in blocks], axis=1).reshape(-1)
    nvars = len(free)
    total = m**nvars
    candidates = np.arange(total)
    assignments = np.empty((nvars, total), dtype=np.int16)
    for i in range(nvars):
        assignments[i] = (candidates // m**i) % m
    alive = np.ones(total, dtype=bool)
    for row, b in zip(matrix, rhs):
        if not alive.any():
            break
        used = np.nonzero(row)[0]
        alive[alive] = (row[used].astype(np.int16) @ assignments[used][:, alive] - b) % m == 0
    return int(alive.sum())


def bruteforce_quadratic_forms(group, conductor: int) -> list[Cochain]:
    """enumerate_quadratic_forms by testing all conductor^|G| candidates."""
    mu = [root_of_unity(conductor, k) for k in range(conductor)]
    forms = []
    for assignment in product(mu, repeat=group.size):
        Q = Cochain(group, 1, assignment)
        if is_quadratic_form(Q):
            forms.append(Q)
    return forms


def klein_quadratic_form_criteria(Q: Cochain) -> bool:
    """The three-condition test special to C2xC2 (agrees with the general one)."""
    G = Q.group
    if G.orders != (2, 2):
        raise ValueError("this criterion is specific to C2xC2")
    if not Q(G.e).is_one():
        return False
    if any(not (Q(x) ** 4).is_one() for x in (G.sigma, G.tau, G.rho)):
        return False
    return (Q(G.sigma) ** 2 * Q(G.tau) ** 2 * Q(G.rho) ** 2).is_one()


HEXAGON_CASES = (
    [(f"phi_X({','.join(sorted(s))})", lambda s=s: phi_X(s), 4) for s in SUBSETS]
    + [("g_b(i)", lambda: g_b(I), 4), ("g_b(-1)", lambda: g_b(-1), 4),
       ("h_a(i)", lambda: h_a(I), 4), ("phi_X()", lambda: phi_X(set()), 2)]
    + [(f"C{n}:q=zeta{n}^{k}", lambda n=n, k=k: cyclic_phi_q(n, root_of_unity(n, k)), m)
       for n, m in ((2, 4), (3, 3), (3, 9), (4, 4)) for k in range(n)]
)


@pytest.mark.parametrize("build, m", [case[1:] for case in HEXAGON_CASES],
                         ids=[f"{name}/mu{m}" for name, _, m in HEXAGON_CASES])
def test_hexagon_count_agrees_with_bruteforce(build, m):
    phi = build()
    assert count_hexagon_solutions_mu(phi, m) == bruteforce_hexagon_count(phi, m)


def _scalars(Q: Cochain) -> list:
    return [(v.conductor, v.nums, v.den) for v in Q.values]


@pytest.mark.parametrize("orders, conductor", [
    ((2, 2), 1), ((2, 2), 2), ((2, 2), 3), ((2, 2), 4), ((2, 2), 8),
    ((2,), 4), ((3,), 3), ((3,), 9), ((4,), 8), ((5,), 5),
])
def test_quadratic_forms_agree_with_bruteforce(orders, conductor):
    group = FiniteAbelianGroup(orders)
    forms = enumerate_quadratic_forms(group, conductor)
    expected = bruteforce_quadratic_forms(group, conductor)
    assert [_scalars(Q) for Q in forms] == [_scalars(Q) for Q in expected]


@pytest.mark.parametrize("orders, m, r_matrices, forms", [
    ((4,), 8, 4, 8), ((5,), 5, 5, 5), ((6,), 6, 6, 6),
    ((2, 4), 4, 32, 32), ((3, 3), 3, 81, 27), ((2, 2, 2), 4, 512, 512),
])
def test_closed_forms_beyond_the_enumeration(orders, m, r_matrices, forms):
    # over the trivial cocycle the R-matrices are Hom(G (x) G, mu_m); the
    # exhaustive searches would need m^((|G|-1)^2) and m^|G| candidates
    group = FiniteAbelianGroup(orders)
    trivial = Cochain.constant(group, 3, 1)
    for call, expected in ((lambda: count_hexagon_solutions_mu(trivial, m), r_matrices),
                           (lambda: len(enumerate_quadratic_forms(group, m)), forms)):
        tracemalloc.start()
        try:
            assert call() == expected
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20


def random_mu4_normalized(rng):
    return klein_2cochain(
        **{name: root_of_unity(4, rng.randrange(4)) for name in
           ("a1", "a2", "a3", "b1", "b2", "b3", "b4", "b5", "b6", "c")}
    )


def test_trivial_pair_is_abelian(G):
    one3 = Cochain.constant(G, 3, 1)
    one2 = Cochain.constant(G, 2, 1)
    assert is_abelian_cocycle(one3, one2)


def test_odd_cocycle_admits_no_r_matrix(G):
    phi = phi_X({"sigma"})
    assert not is_abelian_cocycle(phi, Cochain.constant(G, 2, 1))
    assert not is_abelian_cocycle(phi, braiding_for_label("A").R)
    assert count_hexagon_solutions_mu(phi, 4) == 0


def test_nonsquare_g_admits_no_r_matrix():
    # a braiding over the g-family forces b to be a square of an R value
    assert count_hexagon_solutions_mu(g_b(I), 4) == 0
    assert count_hexagon_solutions_mu(g_b(-1), 4) > 0


def test_abelian_coboundary(G, rng):
    pair = abelian_coboundary(Cochain.constant(G, 2, 1))
    assert pair.phi.is_trivial() and pair.R.is_trivial()
    symmetric = klein_2cochain(a1=2, a2=3, a3=5, b1=7, b2=11, b3=13, b4=7, b5=13, b6=11)
    assert abelian_coboundary(symmetric).R.is_trivial()
    # the sign flip: trivial coboundary with R(sigma, tau) = -1
    flip = klein_2cochain(a1=-1, a2=-1, a3=-1, b4=-1, b5=-1, b6=-1)
    pair = abelian_coboundary(flip)
    assert pair.phi.is_trivial()
    assert pair.R(G.sigma, G.tau) == -1
    for _ in range(100):
        pair = abelian_coboundary(random_mu4_normalized(rng))
        assert is_abelian_cocycle(pair.phi, pair.R)
    with pytest.raises(ValueError):
        abelian_coboundary(
            Cochain.from_function(G, 2, lambda x, y: 2 if x.is_identity else 1)
        )


@pytest.mark.parametrize("subset", SUBSETS)
def test_hexagon_failure_agrees_with_hexagon_rows(G, rng, subset):
    # the first failure and the Z/m rows of the same two hexagon laws
    phi = phi_X(subset)
    known = {"phi": cochain_exponents(phi, 4)}
    rows = [law_rows(hexagon, G, "R", 4, known) for hexagon in HEXAGONS]
    candidates = [ac.R for _, ac in enumerate_klein_braidings(4) if ac.phi == phi]
    candidates += [
        Cochain.from_function(G, 2, lambda x, y: root_of_unity(4, rng.randrange(4)))
        for _ in range(20)
    ]
    for R in candidates:
        r = cochain_exponents(R, 4)
        residuals = np.stack([(a @ r - b) % 4 for a, b in rows], axis=1).reshape(-1)
        failure = hexagon_failure(phi, R)
        if not residuals.any():
            assert failure is None
        else:
            # points in tuples order, both hexagons at each point
            first = int(np.nonzero(residuals)[0][0])
            point = list(G.tuples(3))[first // 2]
            assert failure == (first % 2 + 1, *point)


def test_hexagon_failure_rejects_mismatched_cochains(G):
    # C4 has as many elements as C2xC2, so only the group check can catch it
    with pytest.raises(ValueError):
        hexagon_failure(Cochain.constant(G, 3, 1), Cochain.constant(cyclic(4), 2, 1))
    with pytest.raises(ValueError):
        hexagon_failure(Cochain.constant(G, 2, 1), Cochain.constant(G, 2, 1))


def test_tampered_pairs_fail_first_at_sigma_sigma_tau(G):
    # the tampered E1 and A pairs of the oracle corpus
    for label in ("E1", "A"):
        ac = braiding_for_label(label)
        tampered = list(ac.R.values)
        tampered[G.position((G.sigma, G.tau))] *= I
        assert hexagon_failure(ac.phi, Cochain(G, 2, tampered)) == (1, G.sigma, G.sigma, G.tau)


def test_trace_values(G):
    column_a = braiding_for_label("A")
    q = trace(column_a)
    assert q(G.sigma) == 1 and q(G.tau) == 1 and q(G.rho) == -1
    q = trace(braiding_for_label("E1"))
    assert q(G.sigma) == I and q(G.tau) == I and q(G.rho) == 1
    unit = AbelianCocycle(Cochain.constant(G, 3, 1), Cochain.constant(G, 2, 1))
    assert trace(unit).is_trivial()


def test_trace_is_multiplicative():
    reps = dict(enumerate_klein_braidings(4))
    for left, right in (("A", "B"), ("E1", "AE2"), ("BC", "E3")):
        combined = reps[left] * reps[right]
        assert trace(combined) == trace(reps[left]) * trace(reps[right])


def test_trace_relations_on_all_representatives():
    # the trace map is a homomorphism landing on the labelled census
    reps = dict(enumerate_klein_braidings(4))
    for left in ("A", "C", "E1", "E2", "E3", "ABE1"):
        for right in ("B", "AB", "E1", "E3", "BCE2"):
            product_label = qf_label(trace(reps[left]) * trace(reps[right]))
            assert qf_label(trace(reps[left] * reps[right])) == product_label


def test_is_quadratic_form(G):
    assert is_quadratic_form(Cochain.constant(G, 1, 1))
    # values at e, sigma, tau, rho
    assert is_quadratic_form(Cochain(G, 1, [1, I, I, 1]))
    assert not is_quadratic_form(Cochain(G, 1, [1, I, I, I]))
    with pytest.raises(ValueError, match="degree-1"):
        is_quadratic_form(Cochain.constant(G, 2, 1))
    # a nontrivial character of C3 satisfies the seven-term law but not Q(x^-1) = Q(x)
    c3 = cyclic(3)
    chi = Cochain.from_function(c3, 1, lambda x: root_of_unity(3, x.exponents[0]))
    assert first_failure([QUADRATIC_FORM], c3, {"Q": chi.values}) is None
    assert not is_quadratic_form(chi)
    assert not any(Q == chi for Q in enumerate_quadratic_forms(c3, 3))


def test_quadratic_form_criteria_agree(G):
    mu4 = [root_of_unity(4, k) for k in range(4)]
    for values in product(mu4, repeat=4):
        Q = Cochain(G, 1, values)
        assert is_quadratic_form(Q) == klein_quadratic_form_criteria(Q)


def test_quadratic_form_census(G):
    forms = enumerate_quadratic_forms(G, 4)
    assert len(forms) == 32
    assert len(enumerate_quadratic_forms(G, 2)) == 8
    orders = sorted(Q.order() for Q in forms)
    assert orders == [1] + [2] * 7 + [4] * 24
    # Q(c^k) = zeta_128^(k^2) on C64 has order 128
    c64 = cyclic(64)
    wide = Cochain.from_function(c64, 1, lambda x: root_of_unity(128, x.exponents[0] ** 2 % 128))
    assert is_quadratic_form(wide) and wide.order() == 128
    with pytest.raises(ArithmeticError):
        Cochain.constant(G, 1, 2).order()
    # the census is exactly the image of the braiding representatives
    traces = [trace(ac) for _, ac in enumerate_klein_braidings(4)]
    for Q in forms:
        assert any(Q == t for t in traces)


def test_klein_braiding_trivial_columns(G):
    pair = klein_braiding_trivial(1, 1, -1)
    assert pair.R(G.tau, G.sigma) == -1
    assert pair.R(G.tau, G.rho) == -1
    assert pair.phi.is_trivial()
    unit = klein_braiding_trivial(1, 1, 1)
    assert unit.R.is_trivial()
    abc = klein_braiding_trivial(-1, -1, -1)
    assert abc.R(G.rho, G.sigma) == 1
    with pytest.raises(ValueError):
        klein_braiding_trivial(I, 1, 1)


def test_klein_braiding_phiX_columns(G):
    pair = klein_braiding_phiX({"sigma", "tau"}, I, I, 1)
    assert pair.R(G.rho, G.sigma) == -I
    assert pair.R(G.tau, G.rho) == -I
    pair = klein_braiding_phiX({"sigma", "rho"}, I, 1, I)
    assert pair.R(G.tau, G.rho) == 1
    assert pair.R(G.rho, G.sigma) == I
    pair = klein_braiding_phiX({"tau", "rho"}, 1, I, I)
    assert pair.R(G.tau, G.rho) == I
    with pytest.raises(ValueError):
        klein_braiding_phiX({"sigma"}, I, 1, 1)
    with pytest.raises(ValueError):
        klein_braiding_phiX({"sigma", "tau"}, 1, I, 1)


def test_census_against_reference_tables(G):
    named = {"sigma": G.sigma, "tau": G.tau, "rho": G.rho}
    reps = dict(enumerate_klein_braidings(4))
    assert len(reps) == 32
    for subset, block in klein_tables.BRAIDING_TABLES.items():
        for label, cells in block.items():
            ac = reps[label]
            assert ac.phi == phi_X(subset)
            assert is_abelian_cocycle(ac.phi, ac.R)
            for (xn, yn), exponent in cells.items():
                assert ac.R(named[xn], named[yn]) == root_of_unity(4, exponent)
            assert qf_label(trace(ac)) == label


def test_census_conductor_two():
    reps = enumerate_klein_braidings(2)
    assert [label for label, _ in reps] == list(klein_tables.WORD_LABELS)
    for _, ac in reps:
        assert is_abelian_cocycle(ac.phi, ac.R)
    for conductor in (0, -8):  # 0 % 4 == 0 listed all 32
        with pytest.raises(ValueError, match="positive"):
            enumerate_klein_braidings(conductor)


def test_alpha_variants_are_cohomologous():
    for subset, label in ((frozenset({"sigma", "tau"}), "E1"),
                          (frozenset({"sigma", "rho"}), "E2")):
        plus = braiding_for_label(label)
        mus = [trace(plus)(x) for x in (klein().sigma, klein().tau, klein().rho)]
        minus = klein_braiding_phiX(subset, *mus, alpha=-1)
        assert is_abelian_cocycle(minus.phi, minus.R)
        assert minus.R != plus.R
        witness = abelian_cohomologous(plus, minus, 4)
        assert witness is not None
    assert abelian_cohomologous(braiding_for_label("E1"), braiding_for_label("AE1"), 4) is None
    same = braiding_for_label("E2")
    witness = abelian_cohomologous(same, same, 4)
    assert witness is not None and witness.is_trivial()


def test_bilinearity_splits_the_census(G):
    # the eight braidings over the trivial cocycle are bilinear in each slot;
    # every braiding over a sign cocycle fails bilinearity somewhere
    for label, ac in enumerate_klein_braidings(4):
        r = ac.R
        bilinear = all(r(x * y, z) == r(x, z) * r(y, z) for x, y, z in G.tuples(3))
        assert bilinear == (label in klein_tables.WORD_LABELS)


def test_symmetry_census():
    flags = {label: is_symmetric(ac) for label, ac in enumerate_klein_braidings(4)}
    assert {label for label, flag in flags.items() if flag} == {"I", "AB", "AC", "BC"}


def test_derived_r_relations_on_sign_blocks(G):
    # relations forced by the hexagons over a sign cocycle, checked on all 24
    for subset, block in klein_tables.BRAIDING_TABLES.items():
        if not subset:
            continue
        phi = phi_X(subset)
        es = phi(G.sigma, G.sigma, G.sigma)
        et = phi(G.tau, G.tau, G.tau)
        er = phi(G.rho, G.rho, G.rho)
        for label in block:
            r = braiding_for_label(label).R
            ms, mt, mr = r(G.sigma, G.sigma), r(G.tau, G.tau), r(G.rho, G.rho)
            assert ms * ms == es and mt * mt == et and mr * mr == er
            assert r(G.rho, G.sigma) == ms * r(G.tau, G.sigma)
            assert r(G.tau, G.rho) == mr * er * et * r(G.sigma, G.rho)
            assert r(G.sigma, G.tau) == mt * es * er * r(G.rho, G.tau)
            assert r(G.sigma, G.tau) ** 2 == 1
            assert r(G.sigma, G.rho) ** 2 == es
            assert r(G.rho, G.tau) ** 2 == et
            assert r(G.sigma, G.rho) == ms * r(G.sigma, G.tau)
            assert r(G.rho, G.tau) * mr == et * r(G.rho, G.sigma)


def test_r_unit_normalization_is_implied(G):
    # every census representative satisfies R(e, x) = R(x, e) = 1
    for _, ac in enumerate_klein_braidings(4):
        for x in G.elements():
            assert ac.R(G.e, x).is_one()
            assert ac.R(x, G.e).is_one()


def test_cyclic_braiding():
    pair = cyclic_braiding(2, I)
    assert pair.phi == cyclic_phi_q(2, -1)
    c = cyclic(2).generator()
    assert pair.R(c, c) == I
    pair = cyclic_braiding(2, -1)
    assert pair.phi.is_trivial()
    assert pair.R(c, c) == -1
    pair = cyclic_braiding(3, 1)
    assert pair.phi.is_trivial() and pair.R.is_trivial()
    for n, nu in ((2, I), (3, root_of_unity(3, 1)), (4, I), (6, root_of_unity(6, 1))):
        pair = cyclic_braiding(n, nu)
        assert is_abelian_cocycle(pair.phi, pair.R)
    with pytest.raises(ValueError):
        cyclic_braiding(2, root_of_unity(8, 1))


def test_c2_classes_and_transport(G):
    classes = c2_abelian_cocycles(4)
    assert len(classes) == 4
    c = cyclic(2).generator()
    assert [ac.R(c, c) for ac in classes] == [
        CycScalar.one(4), CycScalar.rational(-1).lift(4), I, -I,
    ]
    _, r2, r3, r4 = classes
    for index, source, label in ((1, r3, "E3"), (2, r3, "E2"), (1, r4, "ABE3"), (2, r4, "ACE2")):
        moved = transport_t_ab(index, source)
        expected = braiding_for_label(label)
        assert moved.phi == expected.phi and moved.R == expected.R
    for index, label in ((1, "AB"), (2, "AC")):
        moved = transport_t_ab(index, r2)
        expected = braiding_for_label(label)
        assert moved.phi == expected.phi and moved.R == expected.R
    # the third projection always lands on the alpha = -1 variants
    for source, label in ((r2, "BC"), (r3, "E1"), (r4, "BCE1")):
        moved = transport_t_ab(3, source)
        expected = braiding_for_label(label)
        assert trace(moved) == trace(expected)
        assert abelian_cohomologous(moved, expected, 4) is not None
    assert is_symmetric(transport_t_ab(3, r2))
    with pytest.raises(ValueError):
        c2_abelian_cocycles(2)


def test_categorical_oracle_spot_checks(G):
    assert categorical_pentagon_check(phi_X({"sigma", "tau"}))
    e1 = braiding_for_label("E1")
    assert categorical_hexagon_check(e1.phi, e1.R)
    column_a = braiding_for_label("A")
    assert categorical_hexagon_check(column_a.phi, column_a.R)
    # a valid braiding need not be a symmetry: braiding twice moves a sign
    assert not is_symmetric(column_a)
    broken = list(column_a.R.values)
    broken[G.position((G.sigma, G.rho))] = I
    assert not categorical_hexagon_check(column_a.phi, Cochain(G, 2, broken))
    assert not is_abelian_cocycle(column_a.phi, Cochain(G, 2, broken))


def test_oracle_rejects_what_the_scalar_checks_reject(G):
    # a Klein degree-2 table, and R on C4 next to phi on C2xC2
    klein2, klein3, c4 = Cochain.constant(G, 2), Cochain.constant(G, 3), cyclic(4)
    cases = [
        (cocycle3_failure, categorical_pentagon_check, (klein2,)),
        (hexagon_failure, categorical_hexagon_check, (klein2, klein2)),
        (hexagon_failure, categorical_hexagon_check, (klein3, Cochain.constant(c4, 2))),
    ]
    for scalar, oracle, args in cases:
        with pytest.raises(ValueError) as expected:
            scalar(*args)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            oracle(*args)


def _tampers(cochain, factor=I):
    """The cochain itself, then each copy with one cell multiplied by ``factor``."""
    yield cochain
    for k in range(len(cochain.values)):
        tampered = list(cochain.values)
        tampered[k] *= factor
        yield Cochain(cochain.group, cochain.degree, tampered)


def _agreement(pentagons=(), hexagons=()):
    """The verdicts each diagram gave, each asserted equal to its scalar law."""
    pentagon_verdicts, hexagon_verdicts = set(), set()
    for phi in pentagons:
        verdict = is_cocycle3(phi)
        assert categorical_pentagon_check(phi) == verdict
        pentagon_verdicts.add(verdict)
    for phi, R in hexagons:
        verdict = is_abelian_cocycle(phi, R)
        assert categorical_hexagon_check(phi, R) == verdict
        hexagon_verdicts.add(verdict)
    return pentagon_verdicts, hexagon_verdicts


def test_oracle_agrees_with_the_scalar_laws_on_single_cell_tampers():
    pentagons = [phi for subset in (set(), {"sigma", "tau"}, {"rho"}) for phi in _tampers(phi_X(subset))]
    pairs = [ac for _, ac in enumerate_klein_braidings(4)]
    pairs += [cyclic_braiding(3, root_of_unity(3, 1)), cyclic_braiding(4, I)]
    assert len(pairs) == 34
    hexagons = [(ac.phi, R) for ac in pairs for R in _tampers(ac.R)]
    assert _agreement(pentagons, hexagons) == ({True, False}, {True, False})


def test_hexagon_oracle_agrees_on_single_cell_tampers_of_phi():
    pairs = [braiding_for_label(label) for label in ("E1", "A")]
    pairs += [cyclic_braiding(3, root_of_unity(3, 1)), cyclic_braiding(4, I)]
    hexagons = [(phi, ac.R) for ac in pairs for phi in _tampers(ac.phi)]
    assert _agreement(hexagons=hexagons)[1] == {True, False}


def test_oracle_agrees_on_single_cell_tampers_on_c6():
    zeta6 = root_of_unity(6, 1)
    ac = cyclic_braiding(6, zeta6)
    pentagons = _tampers(cyclic_phi_q(6, zeta6), zeta6)
    hexagons = [(ac.phi, R) for R in _tampers(ac.R, zeta6)]
    hexagons += [(phi, ac.R) for phi in _tampers(ac.phi, zeta6)]
    assert _agreement(pentagons, hexagons) == ({True, False}, {True, False})


def test_oracle_agrees_on_a_third_root_in_a_mu4_table(G):
    # one cell of a mu_4 table times zeta_3: the product lives at conductor 12
    zeta3 = root_of_unity(3, 1)
    phi = phi_X({"sigma", "tau"})
    ac = braiding_for_label("A")
    cell3 = G.position((G.sigma, G.tau, G.rho))
    cell2 = G.position((G.tau, G.rho))
    broken_phi = list(phi.values)
    broken_phi[cell3] *= zeta3
    broken_R = list(ac.R.values)
    broken_R[cell2] *= zeta3
    pentagons = [phi, Cochain(G, 3, broken_phi)]
    hexagons = [(ac.phi, ac.R), (ac.phi, Cochain(G, 2, broken_R))]
    assert _agreement(pentagons, hexagons) == ({True, False}, {True, False})


def test_oracle_passes_a_valid_table_mixing_conductors_of_one(G):
    # equal values at conductors 1 and 4 are two scalars to the oracle's
    # product memo; the maps still compare equal value by value
    def mixed(cochain):
        values = [CycScalar.one(4 if k % 2 else 1) if v == 1 else v for k, v in enumerate(cochain.values)]
        assert {v.conductor for v in values if v == 1} == {1, 4}
        return Cochain(cochain.group, cochain.degree, values)

    ac = braiding_for_label("A")
    phi, R = mixed(ac.phi), mixed(ac.R)
    assert categorical_pentagon_check(phi) and is_cocycle3(phi)
    assert categorical_hexagon_check(phi, R) and is_abelian_cocycle(phi, R)
    broken = list(R.values)
    broken[G.position((G.sigma, G.sigma))] *= I
    assert _agreement(hexagons=[(phi, Cochain(G, 2, broken))])[1] == {False}


def test_oracle_passes_a_valid_table_at_least_conductors():
    # R(x, y) = zeta_12^(xy) on C6, each value at its least conductor: zeta_3,
    # i and zeta_6 share the coordinates (0, 1), so only the conductor in the
    # memo's key tells them apart
    ac = cyclic_braiding(6, root_of_unity(12, 1))
    values = []
    for x, y in cyclic(6).tuples(2):
        e = x.exponents[0] * y.exponents[0] % 12
        values.append(root_of_unity(12 // gcd(e, 12), e // gcd(e, 12)))
    R = Cochain(cyclic(6), 2, values)
    assert R == ac.R and {v.conductor for v in values} == {1, 2, 3, 4, 6, 12}
    assert categorical_hexagon_check(ac.phi, R) and is_abelian_cocycle(ac.phi, R)


def test_braiding_json(G):
    data = braiding_for_label("E1").to_json("E1")
    assert data["label"] == "E1"
    assert Cochain.from_json(data["phi"]) == braiding_for_label("E1").phi
    assert Cochain.from_json(data["R"]) == braiding_for_label("E1").R

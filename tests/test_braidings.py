from itertools import combinations, product

import numpy as np
import pytest

from cocycle_lab import klein_tables
from cocycle_lab.braidings import (
    HEXAGONS,
    AbelianCocycle,
    QuadraticForm,
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
    klein_quadratic_form_criteria,
    qf_label,
    trace,
    transport_t_ab,
)
from cocycle_lab.cochains import Cochain, cochain_exponents, cyclic_phi_q, law_rows
from cocycle_lab.groups import cyclic, klein
from cocycle_lab.klein import g_b, klein_2cochain, phi_X
from cocycle_lab.scalars import CycScalar, root_of_unity

I = root_of_unity(4, 1)


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
    assert pair.R.values[(G.sigma, G.tau)] == -1
    for _ in range(100):
        pair = abelian_coboundary(random_mu4_normalized(rng))
        assert is_abelian_cocycle(pair.phi, pair.R)
    with pytest.raises(ValueError):
        abelian_coboundary(
            Cochain.from_function(G, 2, lambda x, y: 2 if x.is_identity else 1)
        )


@pytest.mark.parametrize(
    "subset", [set(c) for k in range(4) for c in combinations(("sigma", "tau", "rho"), k)]
)
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
        tampered = dict(ac.R.values)
        tampered[(G.sigma, G.tau)] = tampered[(G.sigma, G.tau)] * I
        assert hexagon_failure(ac.phi, Cochain(G, 2, tampered)) == (1, G.sigma, G.sigma, G.tau)


def test_trace_values(G):
    column_a = braiding_for_label("A")
    q = trace(column_a)
    assert q.values[G.sigma] == 1 and q.values[G.tau] == 1 and q.values[G.rho] == -1
    q = trace(braiding_for_label("E1"))
    assert q.values[G.sigma] == I and q.values[G.tau] == I and q.values[G.rho] == 1
    unit = AbelianCocycle(Cochain.constant(G, 3, 1), Cochain.constant(G, 2, 1))
    assert all(v.is_one() for v in trace(unit).values.values())


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
    ones = QuadraticForm(G, {x: CycScalar.one() for x in G.elements()})
    assert is_quadratic_form(ones)
    table = {G.e: CycScalar.one(), G.sigma: I, G.tau: I, G.rho: CycScalar.one()}
    assert is_quadratic_form(QuadraticForm(G, table))
    bad = {G.e: CycScalar.one(), G.sigma: I, G.tau: I, G.rho: I}
    assert not is_quadratic_form(QuadraticForm(G, bad))


def test_quadratic_form_criteria_agree(G):
    mu4 = [root_of_unity(4, k) for k in range(4)]
    for values in product(mu4, repeat=4):
        Q = QuadraticForm(G, dict(zip(G.elements(), values)))
        assert is_quadratic_form(Q) == klein_quadratic_form_criteria(Q)


def test_quadratic_form_census(G):
    forms = enumerate_quadratic_forms(G, 4)
    assert len(forms) == 32
    assert len(enumerate_quadratic_forms(G, 2)) == 8
    orders = sorted(Q.order() for Q in forms)
    assert orders == [1] + [2] * 7 + [4] * 24
    # the census is exactly the image of the braiding representatives
    traces = [trace(ac) for _, ac in enumerate_klein_braidings(4)]
    for Q in forms:
        assert any(Q == t for t in traces)


def test_klein_braiding_trivial_columns(G):
    pair = klein_braiding_trivial(1, 1, -1)
    assert pair.R.values[(G.tau, G.sigma)] == -1
    assert pair.R.values[(G.tau, G.rho)] == -1
    assert pair.phi.is_trivial()
    unit = klein_braiding_trivial(1, 1, 1)
    assert unit.R.is_trivial()
    abc = klein_braiding_trivial(-1, -1, -1)
    assert abc.R.values[(G.rho, G.sigma)] == 1
    with pytest.raises(ValueError):
        klein_braiding_trivial(I, 1, 1)


def test_klein_braiding_phiX_columns(G):
    pair = klein_braiding_phiX({"sigma", "tau"}, I, I, 1)
    assert pair.R.values[(G.rho, G.sigma)] == -I
    assert pair.R.values[(G.tau, G.rho)] == -I
    pair = klein_braiding_phiX({"sigma", "rho"}, I, 1, I)
    assert pair.R.values[(G.tau, G.rho)] == 1
    assert pair.R.values[(G.rho, G.sigma)] == I
    pair = klein_braiding_phiX({"tau", "rho"}, 1, I, I)
    assert pair.R.values[(G.tau, G.rho)] == I
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
                assert ac.R.values[(named[xn], named[yn])] == root_of_unity(4, exponent)
            assert qf_label(trace(ac)) == label


def test_census_conductor_two():
    reps = enumerate_klein_braidings(2)
    assert [label for label, _ in reps] == list(klein_tables.WORD_LABELS)
    for _, ac in reps:
        assert is_abelian_cocycle(ac.phi, ac.R)


def test_alpha_variants_are_cohomologous():
    for subset, label in ((frozenset({"sigma", "tau"}), "E1"),
                          (frozenset({"sigma", "rho"}), "E2")):
        plus = braiding_for_label(label)
        mus = [trace(plus).values[x] for x in (klein().sigma, klein().tau, klein().rho)]
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
        r = ac.R.values
        bilinear = all(
            r[(x * y, z)] == r[(x, z)] * r[(y, z)] for x, y, z in G.tuples(3)
        )
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
        es = phi.values[(G.sigma,) * 3]
        et = phi.values[(G.tau,) * 3]
        er = phi.values[(G.rho,) * 3]
        for label in block:
            r = dict(braiding_for_label(label).R.values)
            ms, mt, mr = r[(G.sigma, G.sigma)], r[(G.tau, G.tau)], r[(G.rho, G.rho)]
            assert ms * ms == es and mt * mt == et and mr * mr == er
            assert r[(G.rho, G.sigma)] == ms * r[(G.tau, G.sigma)]
            assert r[(G.tau, G.rho)] == mr * er * et * r[(G.sigma, G.rho)]
            assert r[(G.sigma, G.tau)] == mt * es * er * r[(G.rho, G.tau)]
            assert r[(G.sigma, G.tau)] ** 2 == 1
            assert r[(G.sigma, G.rho)] ** 2 == es
            assert r[(G.rho, G.tau)] ** 2 == et
            assert r[(G.sigma, G.rho)] == ms * r[(G.sigma, G.tau)]
            assert r[(G.rho, G.tau)] * mr == et * r[(G.rho, G.sigma)]


def test_r_unit_normalization_is_implied(G):
    # every census representative satisfies R(e, x) = R(x, e) = 1
    for _, ac in enumerate_klein_braidings(4):
        for x in G.elements():
            assert ac.R.values[(G.e, x)].is_one()
            assert ac.R.values[(x, G.e)].is_one()


def test_cyclic_braiding():
    pair = cyclic_braiding(2, I)
    assert pair.phi == cyclic_phi_q(2, -1)
    c = cyclic(2).generator()
    assert pair.R.values[(c, c)] == I
    pair = cyclic_braiding(2, -1)
    assert pair.phi.is_trivial()
    assert pair.R.values[(c, c)] == -1
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
    assert [ac.R.values[(c, c)] for ac in classes] == [
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
    broken = dict(column_a.R.values)
    broken[(G.sigma, G.rho)] = I
    assert not categorical_hexagon_check(column_a.phi, Cochain(G, 2, broken))
    assert not is_abelian_cocycle(column_a.phi, Cochain(G, 2, broken))


def test_braiding_json(G):
    data = braiding_for_label("E1").to_json("E1")
    assert data["label"] == "E1"
    assert Cochain.from_json(data["phi"]) == braiding_for_label("E1").phi
    assert Cochain.from_json(data["R"]) == braiding_for_label("E1").R

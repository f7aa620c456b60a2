import hashlib
import json
import re
from fractions import Fraction
from itertools import permutations, product

import pytest

from cocycle_lab.cochains import Cochain, delta2, is_cocycle3, is_normalized3
from cocycle_lab.groups import klein
from cocycle_lab.klein import (
    HappyParams,
    KleinCohomologyClass,
    classify,
    coboundary_witness_g,
    coboundary_witness_h,
    g_b,
    h_a,
    happify,
    happy_params,
    is_happy,
    klein_2cochain,
    phi_X,
    reconstruct,
    transport_t,
)
from cocycle_lab.scalars import CycScalar, root_of_unity

SUBSETS = [
    frozenset(),
    frozenset({"sigma"}),
    frozenset({"tau"}),
    frozenset({"rho"}),
    frozenset({"sigma", "tau"}),
    frozenset({"sigma", "rho"}),
    frozenset({"tau", "rho"}),
    frozenset({"sigma", "tau", "rho"}),
]

MU4 = [root_of_unity(4, k) for k in range(4)]


def random_mu4_normalized(rng):
    return klein_2cochain(
        **{name: root_of_unity(4, rng.randrange(4)) for name in
           ("a1", "a2", "a3", "b1", "b2", "b3", "b4", "b5", "b6", "c")}
    )


def test_phi_X_values(G):
    assert phi_X(frozenset()).is_trivial()
    table = phi_X({"sigma", "rho"})
    assert table(G.sigma, G.sigma, G.sigma) == -1
    assert table(G.sigma, G.tau, G.rho) == 1
    assert phi_X({"sigma"})(G.sigma, G.tau, G.rho) == -1
    assert phi_X([G.sigma]) == phi_X({"sigma"})


def test_h_and_g_values(G):
    b = root_of_unity(4, 1)
    table = g_b(b)
    assert table(G.sigma, G.tau, G.sigma) == b
    assert table(G.tau, G.sigma, G.tau) == b.inv()
    a = CycScalar.rational(5)
    table = h_a(a)
    assert table(G.tau, G.sigma, G.sigma) == a
    assert table(G.sigma, G.sigma, G.tau) == a.inv()
    assert h_a(1) == g_b(1) == phi_X(frozenset())


def test_families_are_cocycles():
    values = MU4 + [CycScalar.rational(v) for v in (2, 3, Fraction(1, 2))]
    for subset in SUBSETS:
        assert is_cocycle3(phi_X(subset))
    for v in values:
        assert is_cocycle3(h_a(v))
        assert is_cocycle3(g_b(v))


def test_phi_X_group_law():
    tables = {s: phi_X(s) for s in SUBSETS}
    for x in SUBSETS:
        for y in SUBSETS:
            assert tables[x] * tables[y] == tables[x.symmetric_difference(y)]


def test_is_happy(G):
    for subset in SUBSETS:
        assert is_happy(phi_X(subset))
    assert is_happy(h_a(7)) and is_happy(g_b(-2))
    bumpy = delta2(klein_2cochain(b1=2))
    assert not is_happy(bumpy)


def test_happify_fixed_point_and_signs(G, rng):
    # a happy input whose pairwise-distinct values already equal p is untouched
    table = g_b(root_of_unity(4, 1))
    happy, witness = happify(table)
    assert happy == table
    assert delta2(witness).is_trivial()
    # a twisted sign cocycle keeps its signs
    twisted = phi_X({"sigma"}) * delta2(random_mu4_normalized(rng))
    happy, witness = happify(twisted)
    assert is_happy(happy)
    assert happy == twisted * delta2(witness)
    assert happy_params(happy).eps == (-1, 1, 1)


def test_happy_triple_products_agree(rng):
    # both orbit products over the pairwise-distinct triples equal the sign product
    G = klein()
    for _ in range(20):
        params = HappyParams(
            *[rng.choice([1, -1]) for _ in range(3)],
            root_of_unity(4, rng.randrange(4)),
            root_of_unity(4, rng.randrange(4)),
        )
        table = reconstruct(params)
        p = (
            table(G.sigma, G.tau, G.rho)
            * table(G.tau, G.rho, G.sigma)
            * table(G.rho, G.sigma, G.tau)
        )
        q = (
            table(G.rho, G.tau, G.sigma)
            * table(G.sigma, G.rho, G.tau)
            * table(G.tau, G.sigma, G.rho)
        )
        assert p == q == CycScalar.rational(params.p)


def test_reconstruct_roundtrip_and_cocycle(rng):
    for eps in product((1, -1), repeat=3):
        for a in MU4:
            for b in MU4:
                params = HappyParams(*eps, a, b)
                table = reconstruct(params)
                assert is_cocycle3(table)  # the defining relations imply the rest
                assert is_normalized3(table)
                assert happy_params(table) == params
    for _ in range(20):
        a = CycScalar.rational(Fraction(rng.randrange(1, 9), rng.randrange(1, 5)))
        b = a * root_of_unity(4, rng.randrange(4)) + rng.randrange(3)
        if b.is_zero():
            continue
        params = HappyParams(rng.choice((1, -1)), rng.choice((1, -1)), rng.choice((1, -1)), a, b)
        table = reconstruct(params)
        assert is_cocycle3(table)
        assert happy_params(table) == params


def test_reconstruct_specific_cells(G):
    b = root_of_unity(4, 1)
    table = reconstruct(HappyParams(1, 1, 1, CycScalar.one(), b))
    assert table(G.rho, G.sigma, G.rho) == b
    a = CycScalar.rational(3)
    table = reconstruct(HappyParams(1, 1, 1, a, CycScalar.one()))
    assert table(G.rho, G.rho, G.sigma) == a.inv()
    assert reconstruct(HappyParams(-1, -1, 1, CycScalar.one(), CycScalar.one())) == phi_X(
        {"sigma", "tau"}
    )


def test_happy_factorization():
    # every happy cocycle factors as a sign cocycle times the two families
    for eps in product((1, -1), repeat=3):
        subset = frozenset(
            name for name, sign in zip(("sigma", "tau", "rho"), eps) if sign == -1
        )
        for a in MU4[:2]:
            for b in MU4[1:3]:
                params = HappyParams(*eps, a, b)
                assert reconstruct(params) == phi_X(subset) * h_a(a) * g_b(b)


def _klein_relations(v, G):
    """The nine derived relations every normalized cocycle v satisfies."""
    s, t, r = G.sigma, G.tau, G.rho
    es, et, er = v(s, s, s), v(t, t, t), v(r, r, r)
    checks = [
        v(r, t, t) == et * v(s, t, t),
        v(t, t, r) == et * v(t, t, s),
        v(t, r, t) * v(t, s, t) == et,
        (v(s, t, t) * v(s, s, t) * v(s, r, t)).is_one(),
        v(t, s, t) * v(s, t, s) * v(s, r, t) == v(r, s, t) * v(s, t, r),
        v(s, t, t) * v(t, t, s) == v(r, t, s) * v(s, t, r),
        es * v(t, r, s) * v(s, t, r) == v(r, r, s) * v(s, t, t),
        v(t, r, t) * v(s, s, t) * v(s, t, r) == v(r, r, t) * v(s, t, s),
        v(t, r, r) * v(s, s, r) * v(s, t, r) == er,
    ]
    return all(checks)


def test_derived_relations_on_reconstruct(G, rng):
    for eps in product((1, -1), repeat=3):
        for a in MU4:
            for b in MU4:
                assert _klein_relations(reconstruct(HappyParams(*eps, a, b)), G)
    for _ in range(20):
        a = CycScalar.rational(rng.randrange(1, 9)) * root_of_unity(4, rng.randrange(4))
        b = CycScalar.rational(Fraction(rng.randrange(1, 7), rng.randrange(1, 7)))
        table = reconstruct(
            HappyParams(rng.choice((1, -1)), rng.choice((1, -1)), rng.choice((1, -1)), a, b)
        )
        assert _klein_relations(table, G)


def test_relations_hold_for_random_normalized_cocycles(G, rng):
    # the relations come from the cocycle law alone, so they also hold for
    # non-happy cocycles
    for _ in range(10):
        table = phi_X(SUBSETS[rng.randrange(8)]) * delta2(random_mu4_normalized(rng))
        assert _klein_relations(table, G)


def _symmetric_in_arguments(table, G) -> bool:
    """Whether the table restricted to non-identity triples is a symmetric function."""
    names = (G.sigma, G.tau, G.rho)
    for args in product(names, repeat=3):
        base = table(*args)
        for perm in permutations(range(3)):
            if table(args[perm[0]], args[perm[1]], args[perm[2]]) != base:
                return False
    return True


def test_phi_X_argument_symmetry(G):
    for subset in SUBSETS:
        assert _symmetric_in_arguments(phi_X(subset), G)


def test_hg_argument_symmetry_unique():
    # the identity (a = b = 1) is trivially symmetric; the only other
    # symmetric member of the two-parameter family has a = b = -1
    G = klein()
    invariant_pairs = [
        (a, b) for a in MU4 for b in MU4 if _symmetric_in_arguments(h_a(a) * g_b(b), G)
    ]
    one = CycScalar.one(4)
    minus_one = CycScalar.rational(-1).lift(4)
    assert invariant_pairs == [(one, one), (minus_one, minus_one)]


def test_classify_examples(G):
    i = root_of_unity(4, 1)
    assert classify(g_b(4)) == KleinCohomologyClass((1, 1, 1), "trivial")
    assert classify(g_b(i)) == KleinCohomologyClass((1, 1, 1), "nontrivial")
    for a in (CycScalar.rational(2), i, CycScalar.rational(-5)):
        assert classify(h_a(a) * phi_X({"tau", "rho"})) == KleinCohomologyClass(
            (1, -1, -1), "trivial"
        )
    assert classify(h_a(3) * g_b(9)) == KleinCohomologyClass((1, 1, 1), "trivial")
    undecided = classify(g_b(1 + i))
    assert undecided.b_class == "undecided"
    assert undecided.b_value == 1 + i
    assert undecided.to_json()["b_class"] == "undecided"


def test_classify_is_class_function(G, rng):
    bases = [phi_X(s) for s in SUBSETS] + [g_b(root_of_unity(4, 1)), h_a(-1), g_b(4)]
    for _ in range(50):
        base = bases[rng.randrange(len(bases))]
        twisted = base * delta2(random_mu4_normalized(rng))
        assert classify(twisted) == classify(base)


def test_classify_rejects_non_cocycles(G):
    broken = list(phi_X(frozenset()).values)
    broken[G.position((G.sigma, G.tau, G.rho))] = CycScalar.rational(3)
    with pytest.raises(ValueError):
        classify(Cochain(G, 3, broken))


def test_coboundary_witnesses(G):
    a = root_of_unity(4, 1)
    witness = coboundary_witness_h(a)
    assert delta2(witness) == h_a(a)
    assert delta2(witness)(G.tau, G.sigma, G.sigma) == a
    d = CycScalar.rational(3)
    witness = coboundary_witness_g(d)
    assert delta2(witness) == g_b(9)
    assert delta2(witness)(G.sigma, G.tau, G.sigma) == 9
    assert delta2(coboundary_witness_g(1)).is_trivial()
    with pytest.raises(ValueError):
        coboundary_witness_h(CycScalar.zero())


def test_transport(G):
    from cocycle_lab.cochains import cyclic_phi_q

    nontrivial = cyclic_phi_q(2, -1)
    assert transport_t(1, nontrivial) == phi_X({"tau", "rho"})
    assert transport_t(2, nontrivial) == phi_X({"sigma", "rho"})
    assert transport_t(3, nontrivial) == h_a(-1) * g_b(-1) * phi_X({"sigma", "tau"})
    trivial = cyclic_phi_q(2, 1)
    for index in (1, 2, 3):
        assert transport_t(index, trivial).is_trivial()
        assert is_cocycle3(transport_t(index, nontrivial))
    with pytest.raises(ValueError):
        transport_t(1, phi_X({"sigma"}))
    with pytest.raises(ValueError):
        transport_t(4, nontrivial)


def test_transport_dual_basis_description(G):
    # the transported cocycle takes -1 exactly on triples from the kernel
    # complement: for projection 1 that means all entries in {tau, rho}
    from cocycle_lab.cochains import cyclic_phi_q

    moved = transport_t(1, cyclic_phi_q(2, -1))
    support = {G.tau, G.rho}
    for x, y, z in G.tuples(3):
        expected = -1 if {x, y, z} <= support else 1
        assert moved(x, y, z) == expected


def test_happify_requires_normalized_cocycle(G):
    with pytest.raises(ValueError):
        happify(Cochain.from_function(G, 3, lambda x, y, z: 2))
    broken = list(phi_X(frozenset()).values)
    broken[G.position((G.sigma, G.tau, G.rho))] = CycScalar.rational(3)
    with pytest.raises(ValueError):
        happify(Cochain(G, 3, broken))


def test_happy_params_requires_happy(G):
    with pytest.raises(ValueError):
        happy_params(delta2(klein_2cochain(b1=2)))


# ----------------------------------------------------------------- #
# the tables by position against their named-element versions
# ----------------------------------------------------------------- #

def _reconstruct_by_names(params):
    """reconstruct as first written: a dict keyed by named elements."""
    G = klein()
    s, t, r = G.sigma, G.tau, G.rho
    es, et, er = params.eps_sigma, params.eps_tau, params.eps_rho
    p, a, b = params.p, params.a, params.b
    ai, bi = a.inv(), b.inv()
    one = CycScalar.one()
    table = {
        (s, s, s): es * one, (t, t, t): et * one, (r, r, r): er * one,
        (t, s, s): a,            (s, s, t): ai,
        (s, t, t): p * a,        (t, t, s): p * ai,
        (r, s, s): es * a,       (s, s, r): es * ai,
        (r, t, t): p * et * a,   (t, t, r): p * et * ai,
        (s, r, r): p * es * a,   (r, r, s): p * es * ai,
        (t, r, r): et * a,       (r, r, t): et * ai,
        (s, t, s): b,            (t, s, t): p * bi,
        (r, s, r): p * es * b,   (s, r, s): es * bi,
        (t, r, t): p * et * b,   (r, t, r): et * bi,
    }
    p_val = p * one

    def value(*key):
        return one if any(g.is_identity for g in key) else table.get(key, p_val)

    return Cochain.from_function(G, 3, value)


def _klein_2cochain_by_names(a1=1, a2=1, a3=1, b1=1, b2=1, b3=1, b4=1, b5=1, b6=1, c=1):
    """klein_2cochain as first written: a dict keyed by named elements."""
    G = klein()
    s, t, r = G.sigma, G.tau, G.rho
    table = {
        (s, s): a1, (t, t): a2, (r, r): a3,
        (s, t): b1, (t, r): b2, (r, s): b3,
        (t, s): b4, (s, r): b5, (r, t): b6,
    }
    return Cochain.from_function(G, 2, lambda x, y: table.get((x, y), c))


def _same_table(phi, psi):
    return (phi.group, phi.degree) == (psi.group, psi.degree) and [
        (v.conductor, v.nums, v.den) for v in phi.values
    ] == [(v.conductor, v.nums, v.den) for v in psi.values]


PARAMETERS = MU4 + [CycScalar.rational(2), CycScalar.rational(Fraction(1, 2)),
                    root_of_unity(3, 1), root_of_unity(8, 3) + 1]


def test_reconstruct_matches_the_named_element_table():
    for eps in product((1, -1), repeat=3):
        for a, b in product(PARAMETERS, repeat=2):
            params = HappyParams(*eps, a, b)
            assert _same_table(reconstruct(params), _reconstruct_by_names(params)), params


def test_klein_2cochain_matches_the_named_element_table(rng):
    pool = [1, -1, 3, Fraction(2, 7), Fraction(-5, 3)] + PARAMETERS
    assert _same_table(klein_2cochain(), _klein_2cochain_by_names())
    for _ in range(200):
        args = [rng.choice(pool) for _ in range(10)]
        assert _same_table(klein_2cochain(*args), _klein_2cochain_by_names(*args)), args


def test_klein_2cochain_refuses_like_the_named_element_table():
    # the first bad value in tuples order is named: c sits at (e, e)
    for kwargs in ({"c": 0.5, "a1": 1.5}, {"b5": 0, "b1": 0}, {"a3": 0.25}):
        with pytest.raises((TypeError, ValueError)) as expected:
            _klein_2cochain_by_names(**kwargs)
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            klein_2cochain(**kwargs)


# sha1s of the to_json of reconstruct over every sign pattern with a, b in
# mu_4 and {2, 1/2}, and of klein_2cochain with mixed arguments, recorded
# while both tables were built from dicts keyed by named elements
def _sha1_of_tables(tables):
    text = "".join(json.dumps(phi.to_json(), sort_keys=True) for phi in tables)
    return hashlib.sha1(text.encode()).hexdigest()


def test_klein_tables_pinned():
    values = MU4 + [CycScalar.rational(2), CycScalar.rational(Fraction(1, 2))]
    happy = [
        reconstruct(HappyParams(*eps, a, b))
        for eps in product((1, -1), repeat=3)
        for a in values
        for b in values
    ]
    assert _sha1_of_tables(happy) == "c35b2736749d6f2d185e0f342bfc16c15b8d4818"
    i = root_of_unity(4, 1)
    cochains = [
        klein_2cochain(),
        klein_2cochain(2, Fraction(1, 3), i, -1, 5, i * i, Fraction(-7, 2), 3, i.inv(), c=1),
        klein_2cochain(a1=i, b3=Fraction(2, 5), c=-1),
        klein_2cochain(b1=root_of_unity(8, 3), b6=4, a2=i),
    ]
    assert _sha1_of_tables(cochains) == "78f1e20937ae4e319d3947038cd2d47e08cbf4e1"

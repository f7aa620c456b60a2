import hashlib
import json
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from cocycle_lab import hopf
from cocycle_lab.braidings import is_abelian_cocycle
from cocycle_lab.cochains import (
    Cochain,
    cohomology,
    cyclic_phi_q,
    is_cocycle3,
    is_normalized3,
    nondegenerate,
    normalize3,
    positions,
)
from cocycle_lab.groups import FiniteAbelianGroup, cyclic, klein
from cocycle_lab.hopf import (
    COPRODUCT_LAWS,
    MULTIPLICATIVITY,
    GroupAlgebraTensor,
    _collect,
    _push_through_dual,
    check_weak_hopf,
    cyclic_comult_crosscheck,
    cyclic_power_twist,
    dual_idempotents,
    fourier_coefficients,
    is_harrison_3cocycle,
    is_invertible,
    klein_diagonal_twist,
    klein_minus_idempotent,
    klein_mixed_twist,
    klein_reassociator,
    reassociator_phi_l,
    reassociator_transport_cyclic,
    weak_hopf_build,
)
from cocycle_lab.klein import NAMES, g_b, h_a, phi_X
from cocycle_lab.scalars import CycScalar, coerce, root_of_unity

I = root_of_unity(4, 1)
SIGNS = [CycScalar.rational(-1)] * 2  # the Klein characters take values +-1


def unit(group, arity):
    return GroupAlgebraTensor.unit(group, arity)


def p_minus(group):
    return GroupAlgebraTensor(
        group, 1, {(group.identity(),): Fraction(1, 2), (group.generator(),): Fraction(-1, 2)}
    )


def apply_delta_on_leg(t, leg: int) -> GroupAlgebraTensor:
    """Apply the diagonal coproduct g -> g x g on one leg."""
    return _collect(t.group, t.arity + 1, (
        (key[: leg + 1] + key[leg:], coeff) for key, coeff in t.terms.items()
    ))


def apply_counit_on_leg(t, leg: int) -> GroupAlgebraTensor:
    """Apply the counit g -> 1 on one leg, dropping it."""
    return _collect(t.group, t.arity - 1, (
        (key[:leg] + key[leg + 1 :], coeff) for key, coeff in t.terms.items()
    ))


def convolution_pentagon(phi_tensor: GroupAlgebraTensor) -> bool:
    """The quasi-bialgebra pentagon plus counit normalization, evaluated
    term by term in k[G]^(x4): the reference for is_harrison_3cocycle."""
    if phi_tensor.arity != 3:
        raise ValueError("expected an arity-3 tensor")
    if not is_invertible(phi_tensor):
        raise ValueError("the tensor is not invertible")
    group = phi_tensor.group
    one_leg = GroupAlgebraTensor.unit(group, 1)
    lhs = (
        one_leg.tensor(phi_tensor)
        * apply_delta_on_leg(phi_tensor, 1)
        * phi_tensor.tensor(one_leg)
    )
    rhs = apply_delta_on_leg(phi_tensor, 2) * apply_delta_on_leg(phi_tensor, 0)
    if lhs != rhs:
        return False
    return apply_counit_on_leg(phi_tensor, 1) == GroupAlgebraTensor.unit(group, 2)


def test_tensor_operations(G):
    one3 = unit(G, 3)
    assert apply_delta_on_leg(one3, 1) == unit(G, 4)
    monomial = GroupAlgebraTensor.monomial(G, (G.sigma, G.tau, G.rho))
    # dropping the middle leg via the counit keeps the outer legs
    assert apply_counit_on_leg(monomial, 1) == GroupAlgebraTensor.monomial(G, (G.sigma, G.rho))
    pair = GroupAlgebraTensor.monomial(G, (G.sigma, G.tau))
    assert pair * pair == GroupAlgebraTensor.monomial(G, (G.e, G.e))
    assert apply_delta_on_leg(monomial, 0) == GroupAlgebraTensor.monomial(
        G, (G.sigma, G.sigma, G.tau, G.rho)
    )


def test_tensor_ring_axioms(G, rng):
    def random_tensor():
        terms = {}
        for _ in range(3):
            key = tuple(G.elements()[rng.randrange(4)] for _ in range(2))
            terms[key] = root_of_unity(4, rng.randrange(4)) + rng.randrange(-1, 2)
        return GroupAlgebraTensor(G, 2, terms)

    for _ in range(15):
        a, b, c = random_tensor(), random_tensor(), random_tensor()
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a  # componentwise product over an abelian group
        assert a - a == GroupAlgebraTensor(G, 2, {})


def test_cyclic_dual_idempotents():
    C2 = cyclic(2)
    idem = dual_idempotents(C2, [CycScalar.rational(-1)])
    assert idem[C2.generator()] == p_minus(C2)
    assert idem[C2.identity()] + idem[C2.generator()] == unit(C2, 1)
    C3 = cyclic(3)
    idem = dual_idempotents(C3, [root_of_unity(3, 1)])
    zero = GroupAlgebraTensor(C3, 1, {})
    for x in C3.elements():
        for y in C3.elements():
            expected = idem[x] if x == y else zero
            assert idem[x] * idem[y] == expected
    assert sum(idem.values(), zero) == unit(C3, 1)
    with pytest.raises(ValueError):
        dual_idempotents(cyclic(4), [CycScalar.rational(-1)])


def cyclic_character_table(n: int, xi, j: int) -> dict:
    """The algebra map c^s -> xi^(js), the image of c^j in the dual."""
    xi = coerce(xi)
    group = cyclic(n)
    return {x: xi ** ((j * x.exponents[0]) % n) for x in group.elements()}


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dual_iso_roundtrip(n):
    xi = root_of_unity(n, 1) if n > 2 else CycScalar.rational(-1)
    group = cyclic(n)
    idem = dual_idempotents(group, [xi])
    for j in range(n):
        table = cyclic_character_table(n, xi, j)
        total = GroupAlgebraTensor(group, 1, {})
        for elem in group.elements():
            total = total + idem[elem].scale(table[elem])
        assert total == GroupAlgebraTensor.monomial(group, (group.element([j]),))


def test_klein_dual_units(G):
    units = dual_idempotents(G, SIGNS)
    total = GroupAlgebraTensor(G, 1, {})
    for x in G.elements():
        assert units[x] * units[x] == units[x]
        total = total + units[x]
        for y in G.elements():
            if y != x:
                assert units[x] * units[y] == GroupAlgebraTensor(G, 1, {})
    assert total == unit(G, 1)
    quarter = Fraction(1, 4)
    assert units[G.e] == GroupAlgebraTensor(
        G, 1, {(x,): quarter for x in G.elements()}
    )


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_fourier_inverts_the_dual_transport(n):
    # the character values of sum phi(x,y,z) u_x u_y u_z are the table of phi
    zeta = root_of_unity(n, 1)
    for l in range(n):
        transported = reassociator_transport_cyclic(n, l, zeta)
        assert fourier_coefficients(transported) == list(cyclic_phi_q(n, zeta**l).values)


def test_transport_requires_primitive_root():
    with pytest.raises(ValueError):
        reassociator_transport_cyclic(4, 1, CycScalar.rational(-1))


def _sha1_of_json(tensors):
    text = json.dumps([t.to_json() for t in tensors], sort_keys=True)
    return hashlib.sha1(text.encode()).hexdigest()


def test_reassociator_json_pinned():
    # sha1s of the to_json() of every reassociator the C12/C13 claims build,
    # recorded from the earlier implementation with one DFT per group family
    def cyclic_corpus(builder):
        out = []
        for n in (2, 3, 4, 5):
            xi = root_of_unity(n, 1) if n > 2 else CycScalar.rational(-1)
            out += [builder(n, l, xi) for l in range(n)]
        return out

    sources = [phi_X(frozenset(s)) for k in range(4) for s in combinations(NAMES, k)]
    sources.append(h_a(-1) * g_b(-1) * phi_X({"sigma", "tau"}))
    assert _sha1_of_json(cyclic_corpus(reassociator_phi_l)) == (
        "997c37636b0efa0638c2cf95c10cedd3663b9a3c"
    )
    assert _sha1_of_json(cyclic_corpus(reassociator_transport_cyclic)) == (
        "b969af30b49b8072b254296fec7463af78e0baa2"
    )
    assert _sha1_of_json([klein_reassociator(phi) for phi in sources]) == (
        "abc1ace9e7c973f327d842623fb2b0af6b905459"
    )


def test_reassociator_order_two():
    C2 = cyclic(2)
    pm = p_minus(C2)
    expected = unit(C2, 3) - pm.tensor(pm).tensor(pm).scale(2)
    assert reassociator_phi_l(2, 1, CycScalar.rational(-1)) == expected
    assert reassociator_phi_l(2, 0, CycScalar.rational(-1)) == unit(C2, 3)
    assert is_harrison_3cocycle(expected)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_reassociator_closed_equals_transport(n):
    xi = root_of_unity(n, 1) if n > 2 else CycScalar.rational(-1)
    for l in range(n):
        closed = reassociator_phi_l(n, l, xi)
        assert closed == reassociator_transport_cyclic(n, l, xi)
        assert is_harrison_3cocycle(closed)


def test_harrison_matches_cocycle_law_on_transports(G):
    # the pentagon for a dual-transported table is equivalent to the
    # scalar 3-cocycle law of the table it came from
    units = dual_idempotents(G, SIGNS)

    def push(values):
        total = GroupAlgebraTensor(G, 3, {})
        for (x, y, z), value in zip(G.tuples(3), values):
            total = total + units[x].tensor(units[y]).tensor(units[z]).scale(value)
        return total

    from cocycle_lab.cochains import is_cocycle3

    corpus = [phi_X(s) for s in (frozenset(), frozenset({"sigma"}), frozenset({"tau", "rho"}))]
    corpus += [h_a(I), g_b(-1), h_a(-1) * g_b(I)]
    for table in corpus:
        assert is_harrison_3cocycle(push(table.values)) == is_cocycle3(table)
    broken = list(phi_X(frozenset()).values)
    broken[G.position((G.sigma, G.tau, G.sigma))] = I
    assert not is_harrison_3cocycle(push(broken))


def bad_klein_tensor(G):
    """The trivial table with one cell set to 3, pushed through the dual basis."""
    table = list(phi_X(frozenset()).values)
    table[G.position((G.sigma, G.tau, G.rho))] = CycScalar.rational(3)
    units = dual_idempotents(G, SIGNS)
    bad = GroupAlgebraTensor(G, 3, {})
    for (x, y, z), value in zip(G.tuples(3), table):
        bad = bad + units[x].tensor(units[y]).tensor(units[z]).scale(value)
    return bad


def test_harrison_examples(G):
    assert is_harrison_3cocycle(unit(G, 3))
    assert is_harrison_3cocycle(klein_reassociator(phi_X({"sigma", "tau"})))
    # pushing a non-cocycle table through the dual basis breaks the pentagon
    bad = bad_klein_tensor(G)
    assert is_invertible(bad)
    assert not is_harrison_3cocycle(bad)
    with pytest.raises(ValueError):
        pm = klein_minus_idempotent(G.sigma)
        is_harrison_3cocycle(pm.tensor(pm).tensor(pm))


def agreed_pentagon(tensor) -> bool:
    """The character-value check, asserted equal to the convolution oracle."""
    answer = is_harrison_3cocycle(tensor)
    assert convolution_pentagon(tensor) == answer
    return answer


def zeta_roots(group):
    return [root_of_unity(n, 1) for n in group.orders]


@pytest.mark.parametrize("builder", [reassociator_phi_l, reassociator_transport_cyclic])
def test_pentagon_agrees_with_convolution_on_cyclic_reassociators(builder):
    for n in (2, 3, 4, 5):
        xi = root_of_unity(n, 1) if n > 2 else CycScalar.rational(-1)
        assert all(agreed_pentagon(builder(n, l, xi)) for l in range(n))


def test_pentagon_agrees_with_convolution_on_klein_reassociators(G):
    sources = [phi_X(frozenset(s)) for k in range(4) for s in combinations(NAMES, k)]
    sources.append(h_a(-1) * g_b(-1) * phi_X({"sigma", "tau"}))
    assert all(agreed_pentagon(klein_reassociator(phi)) for phi in sources)
    assert not agreed_pentagon(bad_klein_tensor(G))
    pm = klein_minus_idempotent(G.sigma)
    for check in (is_harrison_3cocycle, convolution_pentagon):
        with pytest.raises(ValueError, match="not invertible"):
            check(pm.tensor(pm).tensor(pm))


@pytest.mark.parametrize("group", [cyclic(2), cyclic(3), cyclic(4), klein()], ids=str)
def test_pentagon_agrees_with_convolution_on_unnormalized_coboundaries(group, rng):
    # (x, y, z) -> f(y)/f(xy) is delta of (x, y) -> f(x): it satisfies the
    # pentagon, and fails the counit law wherever f(x) != f(e)
    for _ in range(3):
        f = {x: root_of_unity(12, rng.randrange(12)) for x in group.elements()}
        f[group.elements()[1]] = f[group.identity()] * root_of_unity(12, 1)
        phi = Cochain.from_function(group, 3, lambda x, y, z: f[y] * f[x * y].inv())
        assert is_cocycle3(phi) and not is_normalized3(phi)
        assert not agreed_pentagon(_push_through_dual(phi, zeta_roots(group)))


def test_pentagon_agrees_with_convolution_on_random_tables(rng):
    for group, count in ((cyclic(2), 4), (cyclic(3), 3), (cyclic(4), 1)):
        for _ in range(count):
            phi = Cochain.from_function(
                group, 3, lambda *args: root_of_unity(12, rng.randrange(12))
            )
            tensor = _push_through_dual(phi, zeta_roots(group))
            assert agreed_pentagon(tensor) == (is_cocycle3(phi) and is_normalized3(phi))


@pytest.mark.parametrize("orders, m", [((2, 4), 4), ((8,), 8), ((3, 3), 3), ((2, 2, 2), 2)])
def test_pentagon_on_cohomology_generators(orders, m):
    group = FiniteAbelianGroup(list(orders))
    generators = [normalize3(phi)[0] for phi in cohomology(group, 3, m).generators]
    assert generators
    for phi in generators:
        assert is_harrison_3cocycle(_push_through_dual(phi, zeta_roots(group)))
    cell = nondegenerate(group, 3)[0]
    tampered = list(generators[-1].values)
    tampered[cell] = tampered[cell] * root_of_unity(m, 1)
    phi = Cochain(group, 3, tampered)
    assert not is_harrison_3cocycle(_push_through_dual(phi, zeta_roots(group)))


def test_klein_reassociators(G):
    def cube(x):
        p = klein_minus_idempotent(x)
        return unit(G, 3) - p.tensor(p).tensor(p).scale(2)

    assert klein_reassociator(phi_X({"sigma", "rho"})) == cube(G.sigma)
    assert klein_reassociator(phi_X({"tau", "rho"})) == cube(G.tau)
    assert klein_reassociator(h_a(-1) * g_b(-1) * phi_X({"sigma", "tau"})) == cube(G.rho)
    assert klein_reassociator(phi_X(frozenset())) == unit(G, 3)
    with pytest.raises(ValueError):
        bad = list(phi_X(frozenset()).values)
        bad[G.position((G.sigma, G.tau, G.rho))] = CycScalar.rational(3)
        klein_reassociator(Cochain(G, 3, bad))


def test_weak_hopf_trivial_twist():
    C2 = cyclic(2)
    built = weak_hopf_build(C2, Cochain.constant(C2, 2, 1))
    c = C2.generator()
    half = Fraction(1, 2)
    assert built.comultiplication[c] == GroupAlgebraTensor(
        C2, 2, {(C2.identity(), c): half, (c, C2.identity()): half}
    )
    assert built.counit[C2.identity()] == 2
    assert built.counit[c].is_zero()
    report = check_weak_hopf(built)
    assert report.passed, report.failures


def test_weak_hopf_requires_strict_normalization(G):
    bad = Cochain.from_function(G, 2, lambda x, y: 2 if x.is_identity else 1)
    with pytest.raises(ValueError):
        weak_hopf_build(G, bad)


def test_diagonal_twist_structure(G):
    a = CycScalar.rational(-1)
    built = klein_diagonal_twist(a)
    for x in (G.sigma, G.tau, G.rho):
        coeff, elem = built.multiplication[(x, x)]
        assert elem == G.e and coeff == a.inv()
    coeff, elem = built.multiplication[(G.sigma, G.tau)]
    assert elem == G.rho and coeff.is_one()
    quarter = Fraction(1, 4)
    assert built.comultiplication[G.e] == GroupAlgebraTensor(
        G, 2, {(G.e, G.e): CycScalar.one() * quarter,
               (G.sigma, G.sigma): a * quarter,
               (G.tau, G.tau): a * quarter,
               (G.rho, G.rho): a * quarter}
    )
    assert built.ambient.R.is_trivial()
    assert built.ambient.phi == h_a(a)
    assert check_weak_hopf(built).passed


def test_mixed_twist_structure(G):
    built = klein_mixed_twist(I)
    coeff, elem = built.multiplication[(G.sigma, G.rho)]
    assert elem == G.tau and coeff == I.inv()
    coeff, elem = built.multiplication[(G.tau, G.sigma)]
    assert elem == G.rho and coeff == I.inv()
    coeff, elem = built.multiplication[(G.rho, G.sigma)]
    assert elem == G.tau and coeff.is_one()
    R = built.ambient.R
    assert R(G.sigma, G.tau) == I and R(G.tau, G.sigma) == I.inv()
    assert built.ambient.phi == g_b(-1)
    assert is_abelian_cocycle(built.ambient.phi, built.ambient.R)
    assert check_weak_hopf(built).passed


def test_ambient_braiding_sees_only_antisymmetric_part(G, rng):
    from cocycle_lab.klein import klein_2cochain

    twist = klein_2cochain(b1=I, b4=-1, b2=3)
    symmetric = klein_2cochain(a1=5, a2=7, b1=2, b4=2, b3=I, b5=I)
    assert all(
        symmetric(x, y) == symmetric(y, x) for x, y in G.tuples(2)
    )
    first = weak_hopf_build(G, twist)
    second = weak_hopf_build(G, twist * symmetric)
    assert first.ambient.R == second.ambient.R


def test_cyclic_power_twist():
    z3 = root_of_unity(3, 1)
    built = cyclic_power_twist(3, z3)
    C3 = cyclic(3)
    c, c2 = C3.generator(), C3.element([2])
    coeff, elem = built.multiplication[(c2, c2)]
    assert elem == c and coeff == z3  # exponent -(1)(2)(2)/2 = -2 = 1 mod 3
    assert built.counit[C3.identity()] == 3
    assert check_weak_hopf(built).passed
    plain = cyclic_power_twist(4, CycScalar.one())
    assert plain.twist.is_trivial()
    assert check_weak_hopf(plain).passed
    with pytest.raises(ValueError):
        cyclic_power_twist(4)  # a primitive fourth root violates the half-sum condition
    assert check_weak_hopf(cyclic_power_twist(5)).passed


def tensor_coalgebra_axioms(w) -> dict:
    """The three coalgebra axioms of a twisted structure, evaluated term by
    term in k[G]^(xk): the reference for check_weak_hopf's coproduct laws."""
    group = w.group
    phi, R, D = w.ambient.phi, w.ambient.R, w.comultiplication

    def braided_flip(t):
        return GroupAlgebraTensor(group, 2, {(v, u): c * R(u, v) for (u, v), c in t.terms.items()})

    def counit_on(t, leg):
        return _collect(group, 1, (((key[1 - leg],), c * w.counit[key[leg]]) for key, c in t.terms.items()))

    def coassociative(x):
        first = _collect(group, 3, (
            ((a, b, v), c * coeff * phi(a, b, v))
            for (u, v), coeff in D[x].terms.items() for (a, b), c in D[u].terms.items()
        ))
        second = _collect(group, 3, (
            ((u, a, b), coeff * c)
            for (u, v), coeff in D[x].terms.items() for (a, b), c in D[v].terms.items()
        ))
        return first == second

    elements = group.elements()
    return {
        "braided_cocommutativity": all(braided_flip(D[x]) == D[x] for x in elements),
        "counit_law": all(
            counit_on(D[x], leg) == GroupAlgebraTensor.monomial(group, (x,))
            for x in elements for leg in (0, 1)
        ),
        "coassociativity_up_to_reassociator": all(coassociative(x) for x in elements),
    }


def tensor_multiplicativity_failure(w):
    """The first (x, y) where D(x) D(y) != (x*y) D(xy), the products taken term
    by term in the braided square, or None: the reference for check_weak_hopf's
    multiplicativity law."""
    F, R, phi = w.twist, w.ambient.R, w.ambient.phi
    phi_inv, D = phi.inv(), w.comultiplication

    def braided_square_product(left, right):
        """The algebra structure of the tensor square inside the ambient category.

        The middle-four interchange (a x b)(c x d) -> (a*c) x (b*d) swaps b
        past c with the braiding and re-brackets four factors, so besides
        R(|b|, |c|) it carries the associator factors of that zig-zag:

            phi(a,b,cd) phi(b,c,d)^-1 R(b,c) phi(c,b,d) phi(a,c,bd)^-1
        """
        return _collect(w.group, 2, (
            (
                (a * c, b * d),
                c1 * c2 * phi(a, b, c * d) * phi_inv(b, c, d) * R(b, c)
                * phi(c, b, d) * phi_inv(a, c, b * d) * F(a, c) * F(b, d),
            )
            for (a, b), c1 in left.terms.items()
            for (c, d), c2 in right.terms.items()
        ))

    for x, y in w.group.tuples(2):
        coeff, elem = w.multiplication[(x, y)]
        if D[elem].scale(coeff) != braided_square_product(D[x], D[y]):
            return (x, y)
    return None


def with_coproduct(w, x, terms):
    return replace(w, comultiplication={**w.comultiplication, x: GroupAlgebraTensor(w.group, 2, terms)})


TWISTED = {
    "diagonal(-1)": lambda: klein_diagonal_twist(-1),
    "diagonal(2)": lambda: klein_diagonal_twist(2),
    "mixed(i)": lambda: klein_mixed_twist(I),
    "cyclic(3)": lambda: cyclic_power_twist(3),
    "cyclic(5)": lambda: cyclic_power_twist(5),
}


def agreed_multiplicativity(w):
    """check_weak_hopf's report, its multiplicativity verdict and failing (x, y)
    asserted equal to the tensor oracle's."""
    report = check_weak_hopf(w)
    failure = tensor_multiplicativity_failure(w)
    assert report.results["coproduct_is_multiplicative"] == (failure is None)
    if failure is not None:
        assert report.failures["coproduct_is_multiplicative"] == f"at {failure}"
    return report


@pytest.mark.parametrize("name", TWISTED)
def test_coproduct_laws_agree_with_the_tensor_oracle(name):
    w = TWISTED[name]()
    assert agreed_multiplicativity(w).passed
    assert all(tensor_coalgebra_axioms(w).values())
    cases = [
        with_coproduct(w, x, {**w.comultiplication[x].terms, key: coeff * factor})
        for x in w.group.elements()
        for key, coeff in w.comultiplication[x].terms.items()
        for factor in (I, 2, -1)
    ] + [replace(w, counit={**w.counit, x: w.counit[x] + 1}) for x in w.group.elements()]
    for bad in cases:
        expected = tensor_coalgebra_axioms(bad)
        assert not all(expected.values())
        report = agreed_multiplicativity(bad)
        assert {axiom: report.results[axiom] for axiom in COPRODUCT_LAWS} == expected
    e, last = w.group.identity(), w.group.elements()[-1]
    assert check_weak_hopf(cases[0]).failures["counit_law"] == f"at ({e},)"  # c(e, e) = i
    assert check_weak_hopf(cases[-1]).failures["counit_law"] == f"counit at {last} is 1, expected 0"


@pytest.mark.parametrize("name", TWISTED)
def test_product_cells_agree_with_the_multiplicativity_oracle(name):
    # a product coefficient m(x, y) off by a factor, or a product element
    # other than xy, fails multiplicativity first at that (x, y), and no
    # axiom of the twist F or of the coproduct
    w = TWISTED[name]()
    cases = [
        ((x, y), replace(w, multiplication={**w.multiplication, (x, y): (coeff * factor, elem)}))
        for (x, y), (coeff, elem) in w.multiplication.items()
        for factor in (I, 2, -1)
    ]
    x, y = w.group.elements()[1:3]
    coeff, _ = w.multiplication[(x, y)]
    cases.append(((x, y), replace(w, multiplication={**w.multiplication, (x, y): (coeff, x)})))
    for pair, bad in cases:
        report = agreed_multiplicativity(bad)
        assert report.failures["coproduct_is_multiplicative"] == f"at {pair}"
        assert [axiom for axiom, passed in report.results.items() if not passed] == [
            "coproduct_is_multiplicative"
        ]


@pytest.mark.parametrize("name", TWISTED)
def test_a_coproduct_off_its_support_fails_every_coalgebra_axiom(name):
    # the law checker reads c(u, v) from D(uv), so D(x) must have exactly the
    # |G| terms u x u^-1 x; it may fail an axiom that the oracle passes
    w = TWISTED[name]()
    group = w.group
    cases = [
        with_coproduct(w, x, {k: c for k, c in w.comultiplication[x].terms.items() if k != key})
        for x in group.elements() for key in w.comultiplication[x].terms
    ]
    x, e = group.elements()[1], group.identity()
    terms = w.comultiplication[x].terms
    cases.append(with_coproduct(w, x, {**terms, (e, e): 1}))  # one term too many
    moved = {k: c for k, c in terms.items() if k != (e, x)}
    cases.append(with_coproduct(w, x, {**moved, (e, e): 1}))  # |G| terms, one off support
    for bad in cases:
        assert not all(tensor_coalgebra_axioms(bad).values())
        report = check_weak_hopf(bad)
        # every coalgebra axiom, and multiplicativity, fails with the support message
        for axiom in (*COPRODUCT_LAWS, "coproduct_is_multiplicative"):
            assert not report.results[axiom]
            assert "does not have exactly the" in report.failures[axiom]


def test_multiplicativity_positions_refuse_before_allocating():
    # the summand law's positions on C61 would take 10 * 61^4 cells (~1.1 GB)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=re.escape("a 9-term law on 61^4 points exceed")):
            positions(MULTIPLICATIVITY[0], cyclic(61))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_check_weak_hopf_refuses_before_the_table_laws(monkeypatch):
    # the multiplicativity bound refuses C61, so no other law may run first
    C61 = cyclic(61)
    built = weak_hopf_build(C61, Cochain.constant(C61, 2, 1))

    def unreachable(*args):
        raise AssertionError("a table law ran before the multiplicativity bound")

    monkeypatch.setattr(hopf, "first_failure", unreachable)
    with pytest.raises(ValueError, match=re.escape("a 9-term law on 61^4 points exceed")):
        check_weak_hopf(built)


def test_comult_crosscheck_order_two():
    report = cyclic_comult_crosscheck(2, CycScalar.rational(-1))
    assert report["agreements"] == report["total"] == 4
    # both routes give (e x e + c x c)/2 at the identity
    C2 = cyclic(2)
    twist = Cochain.constant(C2, 2, 1)
    built = weak_hopf_build(C2, twist)
    half = Fraction(1, 2)
    c = C2.generator()
    assert built.comultiplication[C2.identity()] == GroupAlgebraTensor(
        C2, 2, {(C2.identity(), C2.identity()): half, (c, c): half}
    )


def test_comult_crosscheck_disagreement_pattern():
    report = cyclic_comult_crosscheck(3)
    assert report["total"] == 9
    disagreements = {(row["a"], row["l"]) for row in report["entries"] if not row["agree"]}
    assert disagreements == {(0, 2), (1, 2)}
    row = next(r for r in report["entries"] if (r["a"], r["l"]) == (1, 2))
    assert row["twist_exponent"] == 2 and row["direct_exponent"] == 1


def test_crosscheck_archive_matches(tmp_path):
    import importlib.resources

    archived = json.loads(
        importlib.resources.files("cocycle_lab")
        .joinpath("data/comult_crosscheck.json")
        .read_text()
    )
    generated = {
        str(n): cyclic_comult_crosscheck(n, None if n != 2 else CycScalar.rational(-1))
        for n in (2, 3, 5)
    }
    assert generated == archived


def test_tensor_json_roundtrip(G):
    tensor = klein_reassociator(phi_X({"sigma", "rho"}))
    data = tensor.to_json()
    assert GroupAlgebraTensor.from_json(data) == tensor


def test_tensor_json_names_the_bad_field():
    data = klein_reassociator(phi_X({"sigma", "rho"})).to_json()
    cases = [
        (lambda d: d.update(arity=2.7), TypeError, "arity"),  # int() read this as 2
        (lambda d: d.pop("arity"), TypeError, "arity"),
        (lambda d: d.pop("terms"), ValueError, "terms"),  # a bare KeyError before
        (lambda d: d.update(terms={}), ValueError, "terms"),
        (lambda d: d.pop("group"), ValueError, "group"),
        (lambda d: d["group"].pop("orders"), ValueError, r"group\.orders"),
        (lambda d: d["terms"].__setitem__(0, 5), ValueError, r"terms\[0\]\.elems"),
        (lambda d: d["terms"][0].pop("elems"), ValueError, r"terms\[0\]\.elems"),
        (lambda d: d["terms"][0].update(elems=[[0, 0]]), ValueError, r"terms\[0\]\.elems"),
        (lambda d: d["terms"][0]["elems"].__setitem__(1, [1]), ValueError, r"terms\[0\]\.elems"),
        (lambda d: d["terms"][0].pop("coeff"), ValueError, r"terms\[0\]\.coeff"),
    ]
    for mutate, error, field in cases:
        bad = json.loads(json.dumps(data))
        mutate(bad)
        with pytest.raises(error, match=field):
            GroupAlgebraTensor.from_json(bad)
    with pytest.raises(ValueError, match="group"):
        GroupAlgebraTensor.from_json([data])

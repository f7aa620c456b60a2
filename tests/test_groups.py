from itertools import product
from operator import add, neg

import pytest

from cocycle_lab.groups import FiniteAbelianGroup, cyclic, klein, tuples


def test_klein_named_elements(G):
    assert G.sigma * G.sigma == G.e
    assert G.tau * G.tau == G.e
    assert G.sigma * G.tau == G.rho
    assert G.tau * G.sigma == G.rho
    assert G.e * G.rho == G.rho
    assert G.sigma.exponents == (1, 0)
    assert G.tau.exponents == (0, 1)
    assert G.rho.exponents == (1, 1)


def test_named_elements_are_the_cached_elements(G):
    named = (G.e, G.sigma, G.tau, G.rho)
    assert all(a is b for a, b in zip(named, G.elements(), strict=True))
    assert G.sigma is G.sigma


def test_named_elements_only_on_klein():
    with pytest.raises(ValueError):
        cyclic(4).sigma


def test_cyclic():
    C2 = cyclic(2)
    c = C2.generator()
    assert c * c == C2.identity()
    C3 = cyclic(3)
    c = C3.generator()
    assert (c * c) * (c * c) == c  # 4 = 1 mod 3
    with pytest.raises(ValueError):
        cyclic(0)


def test_element_order_brute_force():
    # the order of c^2 in C5 is the least m with 2m = 0 mod 5
    C5 = cyclic(5)
    squared = C5.element([2])
    m = 1
    while (2 * m) % 5 != 0:
        m += 1
    assert m == 5
    assert squared.order() == 5


def test_tuples_enumeration(G):
    assert len(list(tuples(G, 3))) == 64
    assert len(list(tuples(cyclic(2), 4))) == 16
    singles = [t[0] for t in tuples(G, 1)]
    assert singles == [G.e, G.sigma, G.tau, G.rho]
    assert len(set(tuples(G, 2))) == 16
    assert [x.exponents[0] for x in cyclic(4).elements()] == [0, 1, 2, 3]


def test_tuples_bound():
    with pytest.raises(ValueError):
        list(tuples(cyclic(100), 5))


@pytest.mark.parametrize("orders", [(2, 2), (5,), (2, 4), (3, 3)])
def test_group_axioms_exhaustive(orders):
    group = FiniteAbelianGroup(orders)
    e = group.identity()
    for x, y, z in group.tuples(3):
        assert (x * y) * z == x * (y * z)
    for x in group.elements():
        assert x * e == x and e * x == x
        assert x * x.inverse() == e


def test_canonical_representative_roundtrip():
    group = FiniteAbelianGroup((2, 4))
    elem = group.element([7, -3])
    assert elem.exponents == (1, 1)
    again = group.element(elem.exponents)
    assert again.exponents == elem.exponents


def test_self_inverse_iff_order_divides_two(G):
    for x in G.elements():
        assert x.inverse() == x
    C4 = cyclic(4)
    assert C4.element([1]).inverse() != C4.element([1])
    assert C4.element([2]).inverse() == C4.element([2])


def test_json_roundtrip(G):
    data = G.to_json()
    assert data == {"orders": [2, 2]}
    assert FiniteAbelianGroup.from_json(data) == G
    assert G.sigma.to_json() == [1, 0]


def test_float_exponents_and_orders_are_refused(G):
    # int() used to truncate them: [1.5, 0] read as sigma, orders [2.5, 2] as C2xC2
    with pytest.raises(TypeError):
        G.element([1.5, 0])
    with pytest.raises(TypeError):
        FiniteAbelianGroup.from_json({"orders": [2.5, 2]})
    assert G.element([3, -1]) == G.rho


def test_mixed_group_composition_rejected(G):
    with pytest.raises(ValueError):
        G.sigma * cyclic(2).generator()


def test_equal_groups_give_one_dict_key():
    first, second, named = FiniteAbelianGroup((2, 2)), FiniteAbelianGroup((2, 2)), klein()
    assert first is not second and first is not named
    for exponents in ((0, 0), (1, 0), (0, 1), (1, 1)):
        keys = [group.element(exponents) for group in (first, second, named)]
        assert len({hash(key) for key in keys}) == 1
        assert hash(keys[0]) == hash(((2, 2), exponents))  # set and dict orders unchanged
        table = {keys[0]: exponents}
        assert table[keys[1]] == table[keys[2]] == exponents
    assert {first.sigma * second.tau: 1} == {named.rho: 1}
    assert len({first.sigma, second.sigma, named.sigma, named.element((3, 2))}) == 1


@pytest.mark.parametrize("orders", [(1,), (3,), (2, 2), (2, 4), (3, 3)], ids=str)
def test_position_and_tuple_at_invert_tuples_order(orders):
    group = FiniteAbelianGroup(orders)
    for n in range(4):
        for flat, point in enumerate(group.tuples(n)):
            assert group.position(point) == flat
            assert group.tuple_at(flat, n) == point


def test_position_refuses_elements_of_another_group(G):
    with pytest.raises(ValueError, match="not an element of C2xC2"):
        G.position((G.sigma, cyclic(4).generator()))


@pytest.mark.parametrize("orders", [(2, 2), (3, 3), (2, 4), (6,)])
def test_products_and_inverses_by_exponents(orders):
    G = FiniteAbelianGroup(orders)

    def reduced(exponents):
        return tuple(e % n for e, n in zip(exponents, orders, strict=True))

    points = list(product(*(range(n) for n in orders)))
    for x in points:  # before elements() is built: new elements, no tuple
        g = G.element(x)
        assert g.inverse().exponents == reduced(map(neg, x))
        for y in points:
            assert (g * G.element(y)).exponents == reduced(map(add, x, y))
    assert G._elements is None
    elements = G.elements()
    for g in elements:  # afterwards: the entries of elements() themselves
        inverse = g.inverse()
        assert inverse.exponents == reduced(map(neg, g.exponents))
        assert inverse is elements[G.position((inverse,))]
        for h in elements:
            gh = g * h
            assert gh.exponents == reduced(map(add, g.exponents, h.exponents))
            assert gh is elements[G.position((gh,))]


def test_product_builds_no_element_tuple():
    G = FiniteAbelianGroup((10**7,))
    g = G.element([10**7 - 1]) * G.element([3])
    assert g.exponents == (2,) and G._elements is None
    assert g.inverse().exponents == (10**7 - 2,) and G._elements is None


def test_products_of_equal_groups_stay_in_the_left_group():
    # groups are structural: a product with an element of an equal group is
    # taken in the left factor's group, from its tuple when that is built
    G, H = klein(), klein()
    elements = G.elements()
    assert G.sigma * H.element([0, 1]) is elements[3]
    assert H.element([1, 0]) * G.tau == G.rho and H._elements is None

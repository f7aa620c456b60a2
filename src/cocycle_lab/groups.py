"""Finite abelian groups as explicit products of cyclic factors.

Groups are structural: a group is just its tuple of cyclic factor orders,
and two groups with the same orders are the same group.  Elements are
exponent vectors reduced componentwise into canonical range, and the group
law is written multiplicatively.  Once a group's ``elements()`` tuple is
built, products and inverses return its entries rather than new elements,
so equal elements are mostly one object and dict lookups compare by identity.
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import gcd, prod
from operator import index

TUPLE_ENUMERATION_BOUND = 10**8
MATRIX_CELL_BOUND = 5 * 10**7  # cells of a Z/m system or a law's positions: 400 MB as int64

_KLEIN_NAMES = {(0, 0): "e", (1, 0): "sigma", (0, 1): "tau", (1, 1): "rho"}


class GroupElement:
    """An element of a :class:`FiniteAbelianGroup`, stored canonically.

    >>> G = klein()
    >>> G.sigma * G.tau == G.rho
    True
    """

    __slots__ = ("group", "exponents", "_hash")

    def __init__(self, group: "FiniteAbelianGroup", exponents):
        self.group = group
        self.exponents = tuple(
            [index(e) % n for e, n in zip(exponents, group.orders, strict=True)]
        )
        # elements are dict keys millions of times per check: hash once
        self._hash = hash((group.orders, self.exponents))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        group = self.group
        if other.group.orders != group.orders:
            raise ValueError("elements of different groups cannot be composed")
        elements = group._elements
        if elements is None:
            return GroupElement(group, [a + b for a, b in zip(self.exponents, other.exponents)])
        # group._canonical inlined: the hottest call of the matrix oracle
        index, stride = 0, 1
        for a, b, n in zip(self.exponents, other.exponents, group.orders):
            index += (a + b) % n * stride
            stride *= n
        return elements[index]

    def inverse(self) -> "GroupElement":
        return self.group._canonical([-e for e in self.exponents])

    @property
    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def order(self) -> int:
        result = 1
        for e, n in zip(self.exponents, self.group.orders):
            result = result * (n // gcd(e, n)) // gcd(result, n // gcd(e, n))
        return result

    def __eq__(self, other) -> bool:
        return self is other or (
            isinstance(other, GroupElement)
            and self.exponents == other.exponents
            and self.group.orders == other.group.orders
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.group.orders == (2, 2):
            return _KLEIN_NAMES[self.exponents]
        if len(self.exponents) == 1:
            e = self.exponents[0]
            return "e" if e == 0 else ("c" if e == 1 else f"c^{e}")
        return "(" + ",".join(str(e) for e in self.exponents) + ")"

    def to_json(self) -> list[int]:
        return list(self.exponents)


class FiniteAbelianGroup:
    """Direct product C_{n_1} x ... x C_{n_k} of cyclic groups."""

    __slots__ = ("orders", "_elements")

    def __init__(self, orders):
        orders = tuple(index(n) for n in orders)  # int() would truncate a float
        if not orders or any(n < 1 for n in orders):
            raise ValueError("cyclic factor orders must be positive integers")
        self.orders = orders
        self._elements = None

    @property
    def size(self) -> int:
        return prod(self.orders)

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteAbelianGroup) and self.orders == other.orders

    def __hash__(self) -> int:
        return hash(self.orders)

    def __repr__(self) -> str:
        return "x".join(f"C{n}" for n in self.orders)

    def element(self, exponents) -> GroupElement:
        return GroupElement(self, exponents)

    def identity(self) -> GroupElement:
        return GroupElement(self, [0] * len(self.orders))

    def elements(self) -> tuple[GroupElement, ...]:
        """All elements in a fixed order: identity first, first coordinate fastest.

        On the [2,2] group this is e, sigma, tau, rho.
        """
        if self._elements is None:
            self._elements = tuple(
                GroupElement(self, exps[::-1])
                for exps in _cartesian(*(range(n) for n in reversed(self.orders)))
            )
        return self._elements

    def _canonical(self, exponents: list[int]) -> GroupElement:
        """The element with these exponents, any integers: the entry of
        ``elements()`` when that tuple is built (its index read off the
        exponents, as ``position`` does), else a new element, so that a
        product never builds the tuple.
        """
        elements = self._elements
        if elements is None:
            return GroupElement(self, exponents)
        index, stride = 0, 1
        for e, n in zip(exponents, self.orders):
            index += e % n * stride
            stride *= n
        return elements[index]

    def tuple_count(self, n: int) -> int:
        """|G|^n, or ValueError beyond the enumeration bound."""
        if self.size**n > TUPLE_ENUMERATION_BOUND:
            raise ValueError(
                f"{self.size}^{n} tuples exceed the enumeration bound "
                f"{TUPLE_ENUMERATION_BOUND}"
            )
        return self.size**n

    def tuples(self, n: int):
        """Iterate over all n-tuples of elements, lexicographically."""
        self.tuple_count(n)
        return _cartesian(self.elements(), repeat=n)

    def position(self, elements) -> int:
        """The index of a tuple of elements in ``tuples(len(elements))``.

        An element's index in ``elements()`` is read off its exponents, first
        coordinate fastest:

        >>> G = klein()
        >>> G.position((G.tau, G.sigma)), G.position(())
        (9, 0)
        """
        size = self.size
        flat = 0
        for g in elements:
            if g.group.orders != self.orders:
                raise ValueError(f"{g!r} is not an element of {self!r}")
            index, stride = 0, 1
            for e, n in zip(g.exponents, self.orders):
                index += e * stride
                stride *= n
            flat = flat * size + index
        return flat

    def tuple_at(self, flat: int, n: int) -> tuple[GroupElement, ...]:
        """The n-tuple at index ``flat`` of ``tuples(n)``; inverse of ``position``."""
        size, elements = self.size, self.elements()
        return tuple(elements[flat // size ** (n - 1 - p) % size] for p in range(n))

    def generator(self) -> GroupElement:
        if len(self.orders) != 1:
            raise ValueError("generator() is defined only for cyclic groups")
        return GroupElement(self, [1])

    def _named(self, exponents) -> GroupElement:
        if self.orders != (2, 2):
            raise ValueError("named elements e/sigma/tau/rho exist only on C2xC2")
        return self.elements()[exponents[0] + 2 * exponents[1]]

    # Fixed coordinates: sigma=(1,0), tau=(0,1), rho=(1,1), so sigma*tau=rho.
    @property
    def e(self) -> GroupElement:
        return self._named((0, 0))

    @property
    def sigma(self) -> GroupElement:
        return self._named((1, 0))

    @property
    def tau(self) -> GroupElement:
        return self._named((0, 1))

    @property
    def rho(self) -> GroupElement:
        return self._named((1, 1))

    def to_json(self) -> dict:
        return {"orders": list(self.orders)}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteAbelianGroup":
        return cls(data["orders"])


def klein() -> FiniteAbelianGroup:
    """The Klein group C2xC2 with named elements e, sigma, tau, rho."""
    return FiniteAbelianGroup((2, 2))


def cyclic(n: int) -> FiniteAbelianGroup:
    """The cyclic group C_n with generator ``G.generator()``."""
    return FiniteAbelianGroup((n,))


def tuples(group: FiniteAbelianGroup, n: int):
    """Exhaustive, deterministic enumeration of ``group``^n."""
    return group.tuples(n)

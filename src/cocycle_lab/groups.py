"""Finite abelian groups as explicit products of cyclic factors.

Groups are structural: a group is just its tuple of cyclic factor orders,
and two groups with the same orders are the same group.  Elements are
exponent vectors reduced componentwise into canonical range, and the group
law is written multiplicatively.
"""

from __future__ import annotations

from itertools import product as _cartesian
from math import gcd, prod

import numpy as np

TUPLE_ENUMERATION_BOUND = 10**8
MATRIX_CELL_BOUND = 5 * 10**7  # cells of a dense int64 Z/m system: 400 MB

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
            [int(e) % n for e, n in zip(exponents, group.orders, strict=True)]
        )
        # elements are dict keys millions of times per check: hash once
        self._hash = hash((group.orders, self.exponents))

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if other.group.orders != self.group.orders:
            raise ValueError("elements of different groups cannot be composed")
        return GroupElement(
            self.group, [a + b for a, b in zip(self.exponents, other.exponents)]
        )

    def inverse(self) -> "GroupElement":
        return GroupElement(self.group, [-e for e in self.exponents])

    @property
    def is_identity(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def order(self) -> int:
        result = 1
        for e, n in zip(self.exponents, self.group.orders):
            result = result * (n // gcd(e, n)) // gcd(result, n // gcd(e, n))
        return result

    def __eq__(self, other) -> bool:
        return (
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

    __slots__ = ("orders", "_elements", "_cayley")

    def __init__(self, orders):
        orders = tuple(int(n) for n in orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError("cyclic factor orders must be positive integers")
        self.orders = orders
        self._elements = None
        self._cayley = None

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

    def cayley_table(self) -> np.ndarray:
        """``table[i, j]`` is the index of ``elements()[i] * elements()[j]``."""
        if self._cayley is None:
            index = np.arange(self.size)
            table = np.zeros((self.size, self.size), dtype=np.int64)
            stride = 1
            for n in self.orders:
                coord = (index // stride) % n
                table += (np.add.outer(coord, coord) % n) * stride
                stride *= n
            self._cayley = table
        return self._cayley

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

    def generator(self) -> GroupElement:
        if len(self.orders) != 1:
            raise ValueError("generator() is defined only for cyclic groups")
        return GroupElement(self, [1])

    def _named(self, exponents) -> GroupElement:
        if self.orders != (2, 2):
            raise ValueError("named elements e/sigma/tau/rho exist only on C2xC2")
        return GroupElement(self, exponents)

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

"""Cochains on finite abelian groups with values in k*, and their cohomology.

A degree-n cochain is a total table G^n -> k* of nonzero cyclotomic
scalars.  Each coherence law is declared once, as a ``Law``: signed terms
``slot(word, ...)``, a word being a product of variables, whose product is
1 at every point of G^arity.  Declared here is ``coboundary_law(n)``; at
n = 3 it is the 3-cocycle law +f(y,z,t) -f(xy,z,t) +f(x,yz,t) -f(x,y,zt)
+f(x,y,z).  Laws run on element indices, through the group's Cayley
table, and every use is one of three derivations:

  first_failure -- first point where the + and - products differ, exactly
                   (``cocycle3_failure``).  When every value of every table
                   is a root of unity (observed from the input), each value
                   is zeta_m^k with m = lcm(2, the conductors), and a law is
                   checked at all points at once as a signed sum of exponent
                   arrays mod m; any other value keeps the CycScalar products.
                   Both report the same (law index, point);
  evaluate      -- the signed product at every point (``Cochain.delta``);
  law_rows      -- the Z/m system in the exponents of one unknown slot
                   (``boundary_matrix``).

Cochains valued in the m-th roots of unity embed into (Z/m)^(G^n) by
taking exponents, which turns coboundary membership and cohomology into
exact linear algebra over Z/m (see zmodlin).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import reduce
from math import lcm
from operator import mul
from typing import NamedTuple

import numpy as np

from .groups import MATRIX_CELL_BOUND, FiniteAbelianGroup, GroupElement, cyclic
from .scalars import CycScalar, as_root_exponent, coerce, root_of_unity
from .zmodlin import (
    howell_form,
    kernel_mod,
    module_size,
    quotient_invariant_factors,
    solve_mod,
)


class Cochain:
    """A total map G^n -> k* stored as a dense table."""

    __slots__ = ("group", "degree", "values")

    def __init__(self, group: FiniteAbelianGroup, degree: int, values: dict):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        expected = group.size**degree
        if len(values) != expected:
            raise ValueError(f"table has {len(values)} entries, expected {expected}")
        table = {}
        for key, val in values.items():
            val = coerce(val)
            if val.is_zero():
                raise ValueError(f"cochain value at {key} is zero; values live in k*")
            table[key] = val
        self.group = group
        self.degree = degree
        self.values = table

    @classmethod
    def from_function(cls, group, degree, fn) -> "Cochain":
        return cls(group, degree, {args: fn(*args) for args in group.tuples(degree)})

    @classmethod
    def from_dense(cls, group, degree, values) -> "Cochain":
        """The cochain with values listed in ``group.tuples(degree)`` order."""
        return cls(group, degree, dict(zip(group.tuples(degree), values)))

    @classmethod
    def constant(cls, group, degree, value=1) -> "Cochain":
        val = coerce(value)
        return cls(group, degree, {args: val for args in group.tuples(degree)})

    def __call__(self, *args: GroupElement) -> CycScalar:
        return self.values[args]

    def __mul__(self, other: "Cochain") -> "Cochain":
        if (self.group, self.degree) != (other.group, other.degree):
            raise ValueError("cochains must share group and degree")
        return Cochain(
            self.group,
            self.degree,
            {k: v * other.values[k] for k, v in self.values.items()},
        )

    def inv(self) -> "Cochain":
        return Cochain(
            self.group, self.degree, {k: v.inv() for k, v in self.values.items()}
        )

    def __truediv__(self, other: "Cochain") -> "Cochain":
        return self * other.inv()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.group == other.group
            and self.degree == other.degree
            and all(v == other.values[k] for k, v in self.values.items())
        )

    __hash__ = None

    def is_trivial(self) -> bool:
        return all(v.is_one() for v in self.values.values())

    def dense(self) -> list[CycScalar]:
        """The values in ``group.tuples(degree)`` order."""
        return [self.values[args] for args in self.group.tuples(self.degree)]

    def delta(self) -> "Cochain":
        """The multiplicative coboundary, one degree up."""
        values = evaluate(coboundary_law(self.degree), self.group, {"f": self.dense()})
        return Cochain.from_dense(self.group, self.degree + 1, values)

    def __repr__(self) -> str:
        return f"Cochain({self.group!r}, degree={self.degree})"

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "degree": self.degree,
            "values": [
                {"args": [g.to_json() for g in key], "value": val.to_json()}
                for key, val in sorted(
                    self.values.items(), key=lambda kv: tuple(g.exponents for g in kv[0])
                )
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cochain":
        group = FiniteAbelianGroup.from_json(data["group"])
        degree = int(data["degree"])
        values = {}
        for entry in data["values"]:
            key = tuple(group.element(exps) for exps in entry["args"])
            values[key] = CycScalar.from_json(entry["value"])
        return cls(group, degree, values)


# ----------------------------------------------------------------- #
# laws and their three derivations
# ----------------------------------------------------------------- #

class Law(NamedTuple):
    """Terms (sign, slot, words) whose signed product is 1 on all of G^arity.

    A word is the tuple of variable positions whose product is the argument.
    """

    arity: int
    terms: tuple


def law(text: str) -> Law:
    """Parse signed terms ``+slot(word,...)`` over the variables x, y, z, t."""
    terms = tuple(
        (1 if sign == "+" else -1, slot,
         tuple(tuple("xyzt".index(v) for v in word.strip()) for word in args.split(",")))
        for sign, slot, args in re.findall(r"([+-])(\w+)\(([^)]*)\)", text)
    )
    return Law(1 + max(p for _, _, words in terms for word in words for p in word), terms)


def positions(rule: Law, group: FiniteAbelianGroup) -> list[tuple[int, str, np.ndarray]]:
    """(sign, slot, flat position of the argument at every point) per term."""
    size, k = group.size, rule.arity
    points = np.arange(group.tuple_count(k))
    variables = [(points // size ** (k - 1 - p)) % size for p in range(k)]
    table = group.cayley_table()
    out = []
    for sign, slot, words in rule.terms:
        flat = np.zeros_like(points)
        for word in words:
            value = np.zeros_like(points)  # index 0 is the identity
            for p in word:
                value = table[value, variables[p]]
            flat = flat * size + value
        out.append((sign, slot, flat))
    return out


def first_failure(laws, group: FiniteAbelianGroup, tables: dict):
    """(law index, point) of the first violation, or None.

    ``tables`` maps each slot to its dense values.  Points are visited in
    ``group.tuples`` order and, at each point, the laws in the given order.
    When every value is a root of unity the laws are checked on exponents.
    """
    exponents = _root_exponents(tables)
    if exponents is not None:
        return _first_failure_mu(laws, group, *exponents)
    sides = []
    for rule in laws:
        terms = [(sign, tables[slot], flat.tolist()) for sign, slot, flat in positions(rule, group)]
        sides.append([[(t, f) for s, t, f in terms if s == side] for side in (1, -1)])
    for index, point in enumerate(group.tuples(laws[0].arity)):
        for which, (plus, minus) in enumerate(sides):
            lhs = reduce(mul, [table[flat[index]] for table, flat in plus])
            if lhs != reduce(mul, [table[flat[index]] for table, flat in minus]):
                return which, point
    return None


def _root_exponents(tables: dict):
    """(m, slot -> exponents mod m) when every value is a root of unity, else None.

    A root of unity in Q(zeta_N) lies in mu_lcm(2, N), so m = lcm(2, the
    conductors) holds every value of every table.
    """
    values = [v for table in tables.values() for v in table]
    if not all(isinstance(v, CycScalar) for v in values):
        return None
    m = lcm(2, *(v.conductor for v in values))
    exponents = {}
    for slot, table in tables.items():
        column = [as_root_exponent(v, m) for v in table]
        if None in column:
            return None
        exponents[slot] = np.array(column, dtype=np.int64)
    return m, exponents


def _first_failure_mu(laws, group: FiniteAbelianGroup, m: int, exponents: dict):
    """first_failure on exponent tables: a law holds where its signed sum is 0 mod m."""
    failing = []
    for rule in laws:
        total = 0
        for sign, slot, flat in positions(rule, group):
            total = total + sign * exponents[slot][flat]
        failing.append(total % m != 0)
    failing = np.array(failing)
    columns = failing.any(axis=0)
    if not columns.any():
        return None
    index = int(columns.argmax())
    size, elements = group.size, group.elements()
    arity = laws[0].arity
    point = tuple(elements[index // size ** (arity - 1 - p) % size] for p in range(arity))
    return int(failing[:, index].argmax()), point


def evaluate(rule: Law, group: FiniteAbelianGroup, tables: dict) -> list:
    """The signed product of the terms at every point, as dense values.

    Each entry of a slot with a minus sign is inverted once.
    """
    inverses = {}
    columns = []
    for sign, slot, flat in positions(rule, group):
        table = tables[slot]
        if sign < 0:
            if slot not in inverses:
                inverses[slot] = [v.inv() for v in table]
            table = inverses[slot]
        columns.append([table[i] for i in flat.tolist()])
    return [reduce(mul, values) for values in zip(*columns)]


def law_rows(rule: Law, group: FiniteAbelianGroup, unknown: str, m: int, known=None):
    """(A, b) over Z/m such that the law holds iff A @ v = b.

    v is the exponent vector of slot ``unknown`` (values zeta_m^v); ``known``
    maps every other slot of the law to its exponent vector.
    """
    degree = next(len(words) for _, slot, words in rule.terms if slot == unknown)
    if group.size ** (rule.arity + degree) > MATRIX_CELL_BOUND:
        raise ValueError(f"a {group.size}^{rule.arity} x {group.size}^{degree} system exceeds {MATRIX_CELL_BOUND} cells")
    points = np.arange(group.tuple_count(rule.arity))
    matrix = np.zeros((points.size, group.tuple_count(degree)), dtype=np.int64)
    rhs = np.zeros(points.size, dtype=np.int64)
    for sign, slot, flat in positions(rule, group):
        if slot == unknown:
            np.add.at(matrix, (points, flat), sign)
        else:
            rhs -= sign * np.asarray(known[slot])[flat]
    matrix %= m
    rhs %= m
    return matrix, rhs


def coboundary_law(n: int) -> Law:
    """delta f = 1 on G^(n+1), for f of degree n: face i has sign (-1)^i.

    Face 0 drops the first argument, face n+1 the last, and face i in
    between merges arguments i-1 and i.
    """
    terms = []
    for i in range(n + 2):
        words = [(p,) for p in range(n + 1)]
        if i in (0, n + 1):
            del words[min(i, n)]
        else:
            words[i - 1 : i + 1] = [(i - 1, i)]
        terms.append(((-1) ** i, "f", tuple(words)))
    return Law(n + 1, tuple(terms))


COCYCLE_LAW = coboundary_law(3)


def pullback(phi: Cochain, group: FiniteAbelianGroup, hom) -> Cochain:
    """phi(hom(x_1), ..., hom(x_n)) for a homomorphism hom: group -> phi.group."""
    image = {x: hom(x) for x in group.elements()}
    return Cochain.from_function(
        group, phi.degree, lambda *args: phi.values[tuple(image[x] for x in args)]
    )


def delta2(g: Cochain) -> Cochain:
    if g.degree != 2:
        raise ValueError("delta2 expects a degree-2 cochain")
    return g.delta()


def delta3(f: Cochain) -> Cochain:
    if f.degree != 3:
        raise ValueError("delta3 expects a degree-3 cochain")
    return f.delta()


def cocycle3_failure(phi: Cochain):
    """First quadruple violating the 3-cocycle identity, or None."""
    if phi.degree != 3:
        raise ValueError("expected a degree-3 cochain")
    failure = first_failure([COCYCLE_LAW], phi.group, {"f": phi.dense()})
    return None if failure is None else failure[1]


def is_cocycle3(phi: Cochain) -> bool:
    return cocycle3_failure(phi) is None


def is_normalized3(phi: Cochain) -> bool:
    if phi.degree != 3:
        raise ValueError("expected a degree-3 cochain")
    e = phi.group.identity()
    return all(
        phi.values[(x, e, z)].is_one()
        for x in phi.group.elements()
        for z in phi.group.elements()
    )


def is_normalized2(psi: Cochain) -> bool:
    """Whether psi(e, x) = psi(z, e) for all x, z (one common constant)."""
    if psi.degree != 2:
        raise ValueError("expected a degree-2 cochain")
    e = psi.group.identity()
    c = psi.values[(e, e)]
    return all(
        psi.values[(e, x)] == c and psi.values[(x, e)] == c
        for x in psi.group.elements()
    )


class NotACocycle(ValueError):
    """A degree-3 table that breaks the cocycle law; ``point`` is the first quadruple."""

    def __init__(self, point):
        super().__init__(f"input is not a 3-cocycle; fails at {point}")
        self.point = point


def normalize3(phi: Cochain) -> tuple[Cochain, Cochain]:
    """Normalized representative phi * delta2(g) and the witness g.

    The witness is g(x, y) = phi(e, e, y)^(-1) phi(x, e, e); for a cocycle
    the product is normalized.  A non-cocycle raises ``NotACocycle``.
    """
    bad = cocycle3_failure(phi)
    if bad is not None:
        raise NotACocycle(bad)
    e = phi.group.identity()
    witness = Cochain.from_function(
        phi.group, 2, lambda x, y: phi.values[(e, e, y)].inv() * phi.values[(x, e, e)]
    )
    normalized = phi * delta2(witness)
    if not is_normalized3(normalized):
        raise RuntimeError("normalization witness failed to normalize the cocycle")
    return normalized, witness


# ----------------------------------------------------------------- #
# cocycle families on cyclic groups
# ----------------------------------------------------------------- #

def cyclic_phi_q(n: int, q) -> Cochain:
    """The step cocycle on C_n: 1 when y+z < n, else q^x (q an n-th root).

    >>> phi = cyclic_phi_q(2, -1)
    >>> c = phi.group.generator()
    >>> phi(c, c, c) == -1
    True
    """
    q = coerce(q)
    if not (q**n).is_one():
        raise ValueError("q must satisfy q^n = 1")
    group = cyclic(n)

    def value(x, y, z):
        if y.exponents[0] + z.exponents[0] < n:
            return CycScalar.one(q.conductor)
        return q ** x.exponents[0]

    return Cochain.from_function(group, 3, value)


def cyclic_qabc(n: int, q) -> Cochain:
    """The product-exponent cocycle q^(abc) on C_n, for q an n-th root."""
    q = coerce(q)
    if not (q**n).is_one():
        raise ValueError("q must satisfy q^n = 1")
    group = cyclic(n)
    return Cochain.from_function(
        group, 3, lambda x, y, z: q ** (x.exponents[0] * y.exponents[0] * z.exponents[0])
    )


def cyclic_qabc_coboundary_witness(n: int, q) -> Cochain:
    """g with delta2(g) = cyclic_qabc(n, q); needs q^(n(n-1)/2) = 1."""
    q = coerce(q)
    if not (q**n).is_one():
        raise ValueError("q must satisfy q^n = 1")
    if not (q ** (n * (n - 1) // 2)).is_one():
        raise ValueError("not a coboundary for this q")
    return cyclic_twist_cochain(n, q)


def cyclic_twist_cochain(n: int, q) -> Cochain:
    """The 2-cochain (c^a, c^b) -> q^(-(a-1)ab/2) on C_n."""
    return Cochain.from_function(
        cyclic(n), 2, lambda x, y: q ** (-(x.exponents[0] - 1) * x.exponents[0] * y.exponents[0] // 2)
    )


# ----------------------------------------------------------------- #
# the additive Z/m engine
# ----------------------------------------------------------------- #

def boundary_matrix(group: FiniteAbelianGroup, n: int, m: int) -> np.ndarray:
    """Matrix of the degree-n coboundary on exponent vectors over Z/m.

    Columns index G^n, rows index G^(n+1); a cochain with values
    zeta_m^v(args) maps to the cochain with exponent vector M @ v.
    """
    return law_rows(coboundary_law(n), group, "f", m)[0]


def cochain_exponents(phi: Cochain, m: int) -> np.ndarray:
    """Exponent vector of a mu_m-valued cochain; error outside mu_m."""
    exponents = []
    for args in phi.group.tuples(phi.degree):
        k = as_root_exponent(phi.values[args], m)
        if k is None:
            raise ValueError(f"value at {args} is not in mu_{m}; undecidable in mu_{m} backend")
        exponents.append(k)
    return np.array(exponents, dtype=np.int64)


def cochain_from_exponents(group, degree: int, vec, m: int) -> Cochain:
    return Cochain.from_dense(group, degree, [root_of_unity(m, int(k) % m) for k in vec])


def is_coboundary_mu(phi: Cochain, m: int) -> Cochain | None:
    """A witness g with delta(g) = phi, or None; exact over mu_m."""
    target = cochain_exponents(phi, m)
    matrix = boundary_matrix(phi.group, phi.degree - 1, m)
    solution = solve_mod(matrix, target, m)
    if solution is None:
        return None
    witness = cochain_from_exponents(phi.group, phi.degree - 1, solution, m)
    if witness.delta() != phi:
        raise RuntimeError("linear engine returned an invalid witness")
    return witness


@dataclass
class CohomologyReport:
    """Invariant factors of H^n(G, mu_m) with generator cochains."""

    group: FiniteAbelianGroup
    degree: int
    modulus: int
    invariant_factors: list[int]
    generators: list[Cochain] = field(repr=False)
    kernel_size: int = 0
    image_size: int = 0

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "degree": self.degree,
            "modulus": self.modulus,
            "invariant_factors": list(self.invariant_factors),
            "kernel_size": self.kernel_size,
            "image_size": self.image_size,
        }


def cohomology(group: FiniteAbelianGroup, n: int, m: int) -> CohomologyReport:
    """H^n(G, mu_m) = ker(delta_n) / im(delta_(n-1)) by exact Z/m reduction.

    Normalized cochains (zero where an argument is e) form a subcomplex
    quasi-isomorphic to the full one, so Z^n = Z^n_norm + B^n: the kernel is
    solved on nondegenerate tuples only, then put in Howell form with B^n.
    """
    if n < 1:
        raise ValueError(f"cohomology degree must be at least 1, got {n}")
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    outer = boundary_matrix(group, n, m)
    image = boundary_matrix(group, n - 1, m).T
    # nondegenerate: no entry is the identity, element index 0
    rows, columns = (np.indices((group.size,) * k).reshape(k, -1).all(axis=0) for k in (n + 1, n))
    normalized = kernel_mod(outer[np.ix_(rows, columns)], m)
    cocycles = np.zeros((normalized.shape[0], columns.size), dtype=np.int64)
    cocycles[:, columns] = normalized
    kernel = howell_form(np.vstack([cocycles, image]), m)
    factors, gen_vectors = quotient_invariant_factors(kernel, image, m)
    generators = [cochain_from_exponents(group, n, v, m) for v in gen_vectors]
    return CohomologyReport(
        group=group,
        degree=n,
        modulus=m,
        invariant_factors=factors,
        generators=generators,
        kernel_size=module_size(kernel, m),
        image_size=module_size(howell_form(image, m), m),
    )

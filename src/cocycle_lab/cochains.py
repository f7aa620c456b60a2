"""Cochains on finite abelian groups with values in k*, and their cohomology.

A degree-n cochain is a total table G^n -> k* of nonzero cyclotomic
scalars, stored as one tuple of values in ``group.tuples(n)`` order: every
law below runs on that tuple as it is, and phi(x, y, z) reads the entry at
``group.position((x, y, z))``.  Each coherence law is declared once, as a
``Law``: signed terms ``slot(word, ...)``, a word being a product of
variables (an upper-case letter is the inverse of its variable, an empty
word is e), whose product is 1 at every point of G^arity.  Declared here
are ``CONSTANT_ON_E``, ``NORMALIZED3``, ``NORMALIZING_WITNESS``,
``pointwise_law(n, ...)`` and ``coboundary_law(n)``; at n = 3 the latter is
the 3-cocycle law +f(y,z,t) -f(xy,z,t) +f(x,yz,t) -f(x,y,zt) +f(x,y,z).
Laws run on element indices computed from exponents (the flat
``positions`` of each term, memoized per law and group orders, and refused
beyond the cell bound before they are built), and every use is one of
three derivations:

  evaluate      -- the signed product at every point: ``Cochain.delta``,
                   and ``*``, ``inv`` and ``/``, which evaluate the
                   pointwise laws +f(x,..) +g(x,..), -f(x,..) and
                   +f(x,..) -g(x,..);
  first_failure -- the first point, in ``group.tuples`` order, where a law
                   does not hold (``cocycle3_failure``);
  law_rows      -- the Z/m system in the exponents of one unknown slot
                   (``boundary_matrix``), or its restriction to strictly
                   normalized cochains and to chosen rows (``cohomology``).

The first two take one of two paths, chosen from the input.  When every
value of every table is a root of unity, each value is zeta_m^k with
m = lcm(2, the conductors), and the signed sum of exponents mod m at each
point decides a law (it holds where the sum is 0) or gives the product
zeta_m^k, stored at the conductor a ``CycScalar`` product would carry (the
lcm of that point's factors' conductors), so both paths give the same
values.  Otherwise the values are multiplied as ``CycScalar``s, each value
a minus term reads inverted once.

Cochains valued in the m-th roots of unity embed into (Z/m)^(G^n) by
taking exponents, which turns coboundary membership and cohomology into
exact linear algebra over Z/m (see zmodlin).  Such cochains, and the cyclic
families, are built as q^e from an integer table e, each q^e computed once.
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Set
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

import numpy as np

from .groups import MATRIX_CELL_BOUND, FiniteAbelianGroup, GroupElement, cyclic
from .scalars import CycScalar, as_root_exponent, coerce, exact_int, root_of_unity, root_table
from .zmodlin import (
    howell_form,
    kernel_mod,
    module_size,
    quotient_invariant_factors,
    solve_mod,
)


class Cochain:
    """A total map G^n -> k*: its values as a tuple in ``group.tuples(n)`` order."""

    __slots__ = ("group", "degree", "values")

    def __init__(self, group: FiniteAbelianGroup, degree: int, values):
        if degree < 0:
            raise ValueError("cochain degree must be nonnegative")
        if isinstance(values, (Mapping, Set)):
            # iterating a dict yields its keys, a set has no order
            raise TypeError(
                f"a cochain takes its values as a sequence in group.tuples({degree}) order, "
                f"not a {type(values).__name__}"
            )
        values = tuple(map(coerce, values))
        expected = group.size**degree
        if len(values) != expected:
            raise ValueError(f"table has {len(values)} entries, expected {expected}")
        for flat, val in enumerate(values):
            if val.is_zero():
                raise ValueError(
                    f"cochain value at {group.tuple_at(flat, degree)} is zero; values live in k*"
                )
        self.group = group
        self.degree = degree
        self.values = values

    @classmethod
    def _derived(cls, group, degree, values: list) -> "Cochain":
        """A cochain from ``evaluate`` on cochain values: a product of
        nonzero CycScalars is one, so the validating constructor is skipped."""
        self = object.__new__(cls)
        self.group, self.degree, self.values = group, degree, tuple(values)
        return self

    @classmethod
    def from_function(cls, group, degree, fn) -> "Cochain":
        return cls(group, degree, [fn(*args) for args in group.tuples(degree)])

    @classmethod
    def constant(cls, group, degree, value=1) -> "Cochain":
        return cls(group, degree, [coerce(value)] * group.tuple_count(degree))

    def __call__(self, *args: GroupElement) -> CycScalar:
        if len(args) != self.degree:
            raise TypeError(f"a degree-{self.degree} cochain takes {self.degree} elements")
        return self.values[self.group.position(args)]

    def __mul__(self, other: "Cochain") -> "Cochain":
        return self._pointwise(other, 1)

    def inv(self) -> "Cochain":
        values = evaluate(pointwise_law(self.degree, -1), self.group, {"f": self.values})
        return Cochain._derived(self.group, self.degree, values)

    def __truediv__(self, other: "Cochain") -> "Cochain":
        return self._pointwise(other, -1)

    def _pointwise(self, other: "Cochain", sign: int) -> "Cochain":
        """self * other^sign, point by point."""
        if (self.group, self.degree) != (other.group, other.degree):
            raise ValueError("cochains must share group and degree")
        tables = {"f": self.values, "g": other.values}
        values = evaluate(pointwise_law(self.degree, 1, sign), self.group, tables)
        return Cochain._derived(self.group, self.degree, values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Cochain)
            and self.group == other.group
            and self.degree == other.degree
            and self.values == other.values
        )

    __hash__ = None

    def is_trivial(self) -> bool:
        return all(v.is_one() for v in self.values)

    def order(self) -> int:
        """Order under pointwise multiplication: m / gcd(m, exponents) for values in mu_m."""
        roots = _root_exponents({"f": self.values})
        if roots is None:
            raise ArithmeticError("a value of the cochain is not a root of unity")
        m, exponents = roots
        return m // gcd(m, *exponents["f"].tolist())

    def delta(self) -> "Cochain":
        """The multiplicative coboundary, one degree up."""
        values = evaluate(coboundary_law(self.degree), self.group, {"f": self.values})
        return Cochain._derived(self.group, self.degree + 1, values)

    def __repr__(self) -> str:
        return f"Cochain({self.group!r}, degree={self.degree})"

    def to_json(self) -> dict:
        return {
            "group": self.group.to_json(),
            "degree": self.degree,
            "values": [
                {"args": [g.to_json() for g in key], "value": val.to_json()}
                for key, val in sorted(
                    zip(self.group.tuples(self.degree), self.values),
                    key=lambda kv: tuple(g.exponents for g in kv[0]),
                )
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Cochain":
        """Read the form ``to_json`` writes; a malformed field raises an error
        naming it, and a table without some tuple an error naming the first."""
        group, degree, table = table_from_json(data, "cochain", "degree", "values", "args", "value")
        try:
            values = [table[key] for key in (group.tuples(degree) if degree >= 0 else ())]
        except KeyError as missing:
            raise ValueError(f"table has no entry at {missing.args[0]}") from None
        return cls(group, degree, values)


def table_from_json(data, record: str, arity: str, entries: str, key: str, value: str):
    """(group, arity, {element tuple: CycScalar}) from a JSON object with fields
    ``group.orders``, ``arity`` and ``entries``, a list of objects that each hold
    ``arity`` exponent vectors under ``key`` and a scalar under ``value``.

    A malformed field raises an error naming it, e.g. ``cochain field
    values[0].args must list 3 exponent vectors``.
    """
    where = f"{record} field "
    orders = _json_field(_json_field(data, "group", dict, where), "orders", list, where + "group.")
    group = FiniteAbelianGroup(orders)
    count = exact_int(data.get(arity), f"{where}'{arity}'")
    table = {}
    for n, entry in enumerate(_json_field(data, entries, list, where)):
        at = f"{where}{entries}[{n}]."
        args = _json_field(entry, key, list, at)
        if len(args) != count or any(
            not isinstance(a, list) or len(a) != len(orders) for a in args
        ):
            raise ValueError(f"{at}{key} must list {count} exponent vectors")
        key_elements = tuple(group.element(exps) for exps in args)
        table[key_elements] = CycScalar.from_json(_json_field(entry, value, dict, at))
    return group, count, table


def _json_field(data, name: str, kind: type, where: str):
    """data[name] if data is a JSON object and that field is a ``kind``; else a
    ValueError naming the field ``where + name``."""
    value = data.get(name) if isinstance(data, dict) else None
    if not isinstance(value, kind):
        shape = "an object" if kind is dict else "a list"
        raise ValueError(f"{where}{name} must be {shape}")
    return value


# ----------------------------------------------------------------- #
# laws and their three derivations
# ----------------------------------------------------------------- #

class Law(NamedTuple):
    """Terms (sign, slot, words) whose signed product is 1 on all of G^arity.

    A word is the tuple of variable positions whose product is the argument;
    position ~p stands for the inverse of variable p.
    """

    arity: int
    terms: tuple


_TERM = r"\s*([+-])(\w+)\(([xyztXYZT,]*)\)\s*"


def law(text: str) -> Law:
    """Parse signed terms ``+slot(word,...)`` over the variables x, y, z, t.

    An upper-case letter is the inverse of its variable and an empty word is
    the identity e:

    >>> law("+Q(X) -Q(x)")
    Law(arity=1, terms=((1, 'Q', ((-1,),)), (-1, 'Q', ((0,),))))
    >>> law("+c(,x) -c(x,)").terms
    ((1, 'c', ((), (0,))), (-1, 'c', ((0,), ())))

    Text that is not a sequence of such terms is refused:

    >>> law("+Q(x) -Q(y")
    Traceback (most recent call last):
    ValueError: cannot parse '-Q(y' in law '+Q(x) -Q(y'
    """
    parsed = re.match(f"(?:{_TERM})+", text)
    end = parsed.end() if parsed else 0
    if not parsed or end < len(text):
        raise ValueError(f"cannot parse {text[end:]!r} in law {text!r}")
    terms = tuple(
        (1 if sign == "+" else -1, slot,
         tuple(tuple("xyzt".index(v) if v.islower() else ~"XYZT".index(v) for v in word)
               for word in args.split(",")))
        for sign, slot, args in re.findall(_TERM, text)
    )
    return Law(1 + max(max(p, ~p) for _, _, words in terms for word in words for p in word), terms)


def positions(rule: Law, group: FiniteAbelianGroup) -> tuple[tuple[int, str, np.ndarray], ...]:
    """(sign, slot, flat position of the argument at every point) per term.

    Element indices come from exponents, (a + b) mod n_i times the stride of
    factor i.  The arrays, one per term and the word being added (summed in
    place and freed before the next), take (terms + 1) |G|^arity cells, and
    the exponent axes |G| more at arity 1; refused beyond the cell bound
    before any is built.  Memoized per (law, group orders); read-only.
    """
    return _positions(rule, group.orders)


@lru_cache(maxsize=128)
def _positions(rule: Law, orders: tuple[int, ...]):
    group = FiniteAbelianGroup(orders)
    size, k, r, terms = group.size, rule.arity, len(orders), len(rule.terms)
    if (terms + 1 + (k == 1)) * group.tuple_count(k) > MATRIX_CELL_BOUND:
        raise ValueError(
            f"the positions of a {terms}-term law on {size}^{k} points exceed {MATRIX_CELL_BOUND} cells"
        )
    # an axis per exponent of each variable, last factor slowest: C order is tuples order
    shape = orders[::-1] * k
    axes = np.indices(shape, sparse=True)
    exponents = [axes[p * r : (p + 1) * r][::-1] for p in range(k)]
    strides = np.cumprod((1,) + orders[:-1]).tolist()
    out = []
    for sign, slot, words in rule.terms:
        flat = np.zeros(shape, dtype=np.int64)
        for word in words:
            flat *= size
            for i, (n, stride) in enumerate(zip(orders, strides)):
                parts = [exponents[max(p, ~p)][i] for p in word]
                value = np.zeros(np.broadcast_shapes(*(part.shape for part in parts)), dtype=np.int64)
                for p, part in zip(word, parts):
                    (np.add if p >= 0 else np.subtract)(value, part, out=value)
                value %= n
                value *= stride
                flat += value
                del value
        flat = flat.reshape(-1)
        flat.setflags(write=False)
        out.append((sign, slot, flat))
    return tuple(out)


def first_failure(laws, group: FiniteAbelianGroup, tables: dict):
    """(law index, point) of the first violation, or None.

    ``tables`` maps each slot to its dense values.  Points are visited in
    ``group.tuples`` order and, at each point, the laws in the given order.
    When every value is a root of unity the laws are checked on exponents,
    otherwise on the values ``evaluate`` returns.
    """
    roots = _root_exponents(tables)
    if roots is None:
        failing = [[not v.is_one() for v in _products(rule, group, tables)] for rule in laws]
    else:
        failing = [_exponent_sums(rule, group, *roots) != 0 for rule in laws]
    failing = np.array(failing)
    columns = failing.any(axis=0)
    if not columns.any():
        return None
    index = int(columns.argmax())
    return int(failing[:, index].argmax()), group.tuple_at(index, laws[0].arity)


def _root_exponents(tables: dict):
    """(m, slot -> exponents mod m) when every value is a root of unity, else None.

    A root of unity in Q(zeta_N) lies in mu_lcm(2, N), so m = lcm(2, the
    conductors) holds every value of every table.
    """
    try:
        conductors = {v.conductor for table in tables.values() for v in table}
    except AttributeError:  # a value that is not a CycScalar
        return None
    m = lcm(2, *conductors)
    roots = {c: root_table(m, c).exponent for c in conductors}
    exponents = {}
    for slot, table in tables.items():
        # as_root_exponent(v, m), with one table lookup per conductor
        column = [roots[v.conductor].get(v.nums) if v.den == 1 else None for v in table]
        if None in column:
            return None
        exponents[slot] = np.array(column, dtype=np.int64)
    return m, exponents


def _exponent_sums(rule: Law, group: FiniteAbelianGroup, m: int, exponents: dict) -> np.ndarray:
    """The signed sum of the terms' exponents mod m at every point."""
    return sum(sign * exponents[slot][flat] for sign, slot, flat in positions(rule, group)) % m


def evaluate(rule: Law, group: FiniteAbelianGroup, tables: dict) -> list:
    """The signed product of the terms at every point, as dense values.

    On roots of unity the product is zeta_m^k, k the signed sum of
    exponents, at the lcm of the conductors of that point's factors;
    otherwise the values are multiplied (see the module docstring).
    """
    roots = _root_exponents(tables)
    if roots is None:
        return _products(rule, group, tables)
    exponents = _exponent_sums(rule, group, *roots).tolist()
    conductors = {slot: np.array([v.conductor for v in table]) for slot, table in tables.items()}
    at = np.lcm.reduce([conductors[slot][flat] for _, slot, flat in positions(rule, group)]).tolist()
    values = {c: root_table(roots[0], c).value for c in set(at)}
    return [values[c][k] for c, k in zip(at, exponents)]


def _products(rule: Law, group: FiniteAbelianGroup, tables: dict) -> list:
    """``evaluate`` by CycScalar products; each value that a minus term reads
    is inverted once."""
    inverses = {}
    columns = []
    for sign, slot, flat in positions(rule, group):
        table, read = tables[slot], flat.tolist()
        if sign < 0:
            inverse = inverses.setdefault(slot, {})
            for i in set(read).difference(inverse):
                inverse[i] = table[i].inv()
            table = inverse
        columns.append([table[i] for i in read])
    return [reduce(mul, values) for values in zip(*columns)]


def law_rows(rule: Law, group: FiniteAbelianGroup, unknown: str, m: int, known=None,
             normalized: bool = False, points=None):
    """(A, b) over Z/m such that the law holds at ``points`` iff A @ v = b.

    v is the exponent vector of slot ``unknown`` (values zeta_m^v); ``known``
    maps every other slot of the law to its exponent vector.  With
    ``normalized`` the columns are those of a strictly normalized cochain,
    the ``nondegenerate`` tuples: the unknown is 0 (value 1) wherever an
    argument is e, so those entries drop out.  ``points`` are the flat
    positions, in ``group.tuples(arity)`` order, of the rows to build; by
    default every point.  The cell bound is checked on the shape, then
    ``positions`` checks its own, before the matrix is allocated.
    """
    degree = next(len(words) for _, slot, words in rule.terms if slot == unknown)
    base = group.size - 1 if normalized else group.size
    if points is None:
        height, count = f"{group.size}^{rule.arity}", group.size**rule.arity
    else:
        height = count = len(points)
    if count * base**degree > MATRIX_CELL_BOUND:
        raise ValueError(f"a {height} x {base}^{degree} system exceeds {MATRIX_CELL_BOUND} cells")
    terms = positions(rule, group)
    if normalized:
        columns = np.full(group.tuple_count(degree), -1)
        columns[nondegenerate(group, degree)] = np.arange(base**degree)
    else:
        columns = np.arange(group.tuple_count(degree))
    rows = np.arange(count)
    if points is None:
        points = rows
    matrix = np.zeros((count, base**degree), dtype=np.int64)
    rhs = np.zeros(count, dtype=np.int64)
    for sign, slot, flat in terms:
        flat = flat[points]
        if slot == unknown:
            column = columns[flat]
            kept = column >= 0
            np.add.at(matrix, (rows[kept], column[kept]), sign)
        else:
            rhs -= sign * np.asarray(known[slot])[flat]
    matrix %= m
    rhs %= m
    return matrix, rhs


@lru_cache(maxsize=None)
def pointwise_law(degree: int, *signs: int) -> Law:
    """The terms sign * slot(x_1, ..., x_n), slots f then g: the
    pointwise product, inverse and quotient of degree-n cochains."""
    words = tuple((p,) for p in range(degree))
    return Law(degree, tuple((sign, slot, words) for sign, slot in zip(signs, "fg")))


@lru_cache(maxsize=None)
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
NORMALIZING_WITNESS = law("-f(,,y) +f(x,,)")  # g(x, y) = f(e, e, y)^-1 f(x, e, e)
CONSTANT_ON_E = (law("+f(,x) -f(,)"), law("+f(x,) -f(,)"))  # f(e, x) = f(x, e) = f(e, e)
NORMALIZED3 = law("+f(x,,y)")  # f(x, e, y) = 1


def pullback(phi: Cochain, group: FiniteAbelianGroup, hom) -> Cochain:
    """phi(hom(x_1), ..., hom(x_n)) for a homomorphism hom: group -> phi.group."""
    return Cochain.from_function(group, phi.degree, lambda *args: phi(*map(hom, args)))


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
    failure = first_failure([COCYCLE_LAW], phi.group, {"f": phi.values})
    return None if failure is None else failure[1]


def is_cocycle3(phi: Cochain) -> bool:
    return cocycle3_failure(phi) is None


def is_normalized3(phi: Cochain) -> bool:
    """Whether phi(x, e, z) = 1 for all x, z."""
    if phi.degree != 3:
        raise ValueError("expected a degree-3 cochain")
    return first_failure([NORMALIZED3], phi.group, {"f": phi.values}) is None


def is_normalized2(psi: Cochain) -> bool:
    """Whether psi(e, x) = psi(z, e) for all x, z (one common constant)."""
    if psi.degree != 2:
        raise ValueError("expected a degree-2 cochain")
    return first_failure(CONSTANT_ON_E, psi.group, {"f": psi.values}) is None


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
    witness = Cochain._derived(phi.group, 2, evaluate(NORMALIZING_WITNESS, phi.group, {"f": phi.values}))
    normalized = phi * delta2(witness)
    if not is_normalized3(normalized):
        raise RuntimeError("normalization witness failed to normalize the cocycle")
    return normalized, witness


# ----------------------------------------------------------------- #
# cocycle families on cyclic groups
# ----------------------------------------------------------------- #

def _cochain_of_powers(group: FiniteAbelianGroup, degree: int, q, exponents) -> Cochain:
    """q^e for an integer table e in ``group.tuples(degree)`` order (on C_n, the C
    order of ``np.indices((n,) * degree)``), each distinct q ** e computed once."""
    q = coerce(q)
    table = np.asarray(exponents).reshape(-1).tolist()
    powers = {e: q**e for e in set(table)}
    return Cochain(group, degree, [powers[e] for e in table])


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
    x, y, z = np.indices((n,) * 3)
    return _cochain_of_powers(cyclic(n), 3, q, np.where(y + z >= n, x, 0))


def cyclic_qabc(n: int, q) -> Cochain:
    """The product-exponent cocycle q^(abc) on C_n, for q an n-th root."""
    q = coerce(q)
    if not (q**n).is_one():
        raise ValueError("q must satisfy q^n = 1")
    a, b, c = np.indices((n,) * 3)
    return _cochain_of_powers(cyclic(n), 3, q, a * b * c % n)


def cyclic_qabc_coboundary_witness(n: int, q) -> Cochain:
    """g with delta2(g) = cyclic_qabc(n, q); needs q^(n(n-1)/2) = 1."""
    q = coerce(q)
    if not (q**n).is_one():
        raise ValueError("q must satisfy q^n = 1")
    if not (q ** (n * (n - 1) // 2)).is_one():
        raise ValueError("q must satisfy q^(n(n-1)/2) = 1")
    return cyclic_twist_cochain(n, q)


def cyclic_twist_cochain(n: int, q) -> Cochain:
    """The 2-cochain (c^a, c^b) -> q^(-(a-1)ab/2) on C_n, exponents mod n if q^n = 1."""
    q = coerce(q)
    a, b = np.indices((n, n))
    exponents = -(a - 1) * a * b // 2
    return _cochain_of_powers(cyclic(n), 2, q, exponents % n if (q**n).is_one() else exponents)


# ----------------------------------------------------------------- #
# the additive Z/m engine
# ----------------------------------------------------------------- #

def nondegenerate(group: FiniteAbelianGroup, n: int) -> np.ndarray:
    """Flat positions, in ``group.tuples(n)`` order, of the tuples with no entry e.

    These index the unknowns of a strictly normalized cochain, which is 1
    wherever an argument is the identity (element index 0).
    """
    return np.flatnonzero(np.indices((group.size,) * n).reshape(n, -1).all(axis=0))


def generator_rows(group: FiniteAbelianGroup, n: int) -> np.ndarray:
    """Flat positions, in ``group.tuples(n + 1)`` order, of the points
    (x, y_1, ..., y_n) where x is a canonical generator and no y_i is e.

    The canonical generators are the unit exponent vectors, at ``elements()``
    index n_1 ... n_(i-1) for the factor C_(n_i); factors of order 1 have
    none, so the trivial group has no such point.
    """
    strides = np.cumprod((1,) + group.orders[:-1])
    units = strides[np.array(group.orders) > 1]
    return (units[:, None] * group.tuple_count(n) + nondegenerate(group, n)).ravel()


def boundary_matrix(group: FiniteAbelianGroup, n: int, m: int) -> np.ndarray:
    """Matrix of the degree-n coboundary on exponent vectors over Z/m.

    Columns index G^n, rows index G^(n+1); a cochain with values
    zeta_m^v(args) maps to the cochain with exponent vector M @ v.
    """
    return law_rows(coboundary_law(n), group, "f", m)[0]


def cochain_exponents(phi: Cochain, m: int) -> np.ndarray:
    """Exponent vector of a mu_m-valued cochain; error outside mu_m."""
    exponents = [as_root_exponent(value, m) for value in phi.values]
    if None in exponents:
        at = phi.group.tuple_at(exponents.index(None), phi.degree)
        raise ValueError(f"value at {at} is not in mu_{m}; undecidable in mu_{m} backend")
    return np.array(exponents, dtype=np.int64)


def cochain_from_exponents(group, degree: int, vec, m: int) -> Cochain:
    return _cochain_of_powers(group, degree, root_of_unity(m), np.asarray(vec) % m)


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

    Its system is built only at the points (x, y_1, ..., y_n) where x is one
    of the r canonical generators and no y_i is e (``generator_rows``):
    r (|G|-1)^n rows instead of (|G|-1)^(n+1).  The other rows follow from
    delta^2 = 0.  For g = delta f, delta g = 0 at (x, x', y_1, ..., y_n) reads

        g(x x', y_1, ..., y_n) = g(x', y_1, ..., y_n) + (terms g(x, ...)),

    so a g that vanishes wherever its first argument is x, and wherever it
    is x', also vanishes wherever it is x x'.  Every element is a product of
    generators, so g vanishes everywhere: the kernel is the same module, and
    its canonical Howell basis the same rows.  The cell bound is checked
    before any table is built: on the (|G|-1)^n x (r+1) (|G|-1)^n array
    [A^T | I] that ``kernel_mod`` eliminates, which is larger than A, then
    on the |G|^n x |G|^(n-1) matrix of delta_(n-1); ``law_rows`` and
    ``positions`` check their own tables as they build them.
    """
    if n < 1:
        raise ValueError(f"cohomology degree must be at least 1, got {n}")
    if m < 1:
        raise ValueError(f"modulus must be a positive integer, got {m}")
    base, r = group.size - 1, sum(order > 1 for order in group.orders)
    if (r + 1) * base ** (2 * n) > MATRIX_CELL_BOUND:
        raise ValueError(
            f"a {base}^{n} x {r + 1}*{base}^{n} array [A^T | I] exceeds {MATRIX_CELL_BOUND} cells"
        )
    image = boundary_matrix(group, n - 1, m).T  # its own cell bound, before the kernel's tables
    system = law_rows(coboundary_law(n), group, "f", m, normalized=True, points=generator_rows(group, n))
    normalized = kernel_mod(system[0], m)
    cocycles = np.zeros((normalized.shape[0], group.tuple_count(n)), dtype=np.int64)
    cocycles[:, nondegenerate(group, n)] = normalized
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

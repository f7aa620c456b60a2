"""Reassociators and twisted weak Hopf structures on group algebras.

Two constructions live here.  First, for a cyclic or Klein group the
group algebra k[G] is isomorphic to its dual through a discrete Fourier
transform; pushing a 3-cocycle table through that isomorphism produces an
invertible tensor in k[G]^(x3) satisfying the quasi-bialgebra pentagon

    (1 x Phi) ((id x D x id) Phi) (Phi x 1)
        = ((id x id x D) Phi) ((D x id x id) Phi)

with D the diagonal coproduct D(g) = g x g.  Second, a normalized
2-cochain F twists k[G] into the weak braided Hopf algebra with product
x*y = F(x,y) xy and averaged coproduct

    D_F(x) = (1/|G|) sum_u F(u, u^-1 x)^-1  u x u^-1 x,

commutative and cocommutative for the coboundary braiding attached to
F^-1; the checker verifies all of that as exact scalar identities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .braidings import AbelianCocycle, abelian_coboundary
from .cochains import Cochain, cocycle3_failure, cyclic_phi_q, cyclic_twist_cochain, first_failure, law
from .groups import FiniteAbelianGroup, GroupElement, cyclic, klein
from .klein import coboundary_witness_g, coboundary_witness_h
from .scalars import CycScalar, coerce, root_of_unity

# associativity up to the reassociator phi, and braided commutativity
TWIST_LAWS = (
    law("+F(x,y) +F(xy,z) -phi(x,y,z) -F(y,z) -F(x,yz)"),
    law("+F(x,y) -R(x,y) -F(y,x)"),
)


class GroupAlgebraTensor:
    """A sparse element of k[G]^(x m): coefficients on tuples of elements."""

    __slots__ = ("group", "arity", "terms")

    def __init__(self, group: FiniteAbelianGroup, arity: int, terms: dict):
        self.group = group
        self.arity = arity
        cleaned = {}
        for key, coeff in terms.items():
            if len(key) != arity:
                raise ValueError(f"term {key} has arity {len(key)}, expected {arity}")
            coeff = coerce(coeff)
            if not coeff.is_zero():
                cleaned[key] = coeff
        self.terms = cleaned

    @classmethod
    def unit(cls, group, arity: int) -> "GroupAlgebraTensor":
        """The identity e x ... x e of the componentwise product."""
        return cls(group, arity, {(group.identity(),) * arity: CycScalar.one()})

    @classmethod
    def monomial(cls, group, elements, coeff=1) -> "GroupAlgebraTensor":
        key = tuple(elements)
        return cls(group, len(key), {key: coeff})

    def __add__(self, other: "GroupAlgebraTensor") -> "GroupAlgebraTensor":
        self._check(other)
        return _collect(self.group, self.arity, [*self.terms.items(), *other.terms.items()])

    def __neg__(self) -> "GroupAlgebraTensor":
        return self.scale(-1)

    def __sub__(self, other: "GroupAlgebraTensor") -> "GroupAlgebraTensor":
        return self + (-other)

    def scale(self, scalar) -> "GroupAlgebraTensor":
        scalar = coerce(scalar)
        return GroupAlgebraTensor(
            self.group, self.arity, {k: scalar * v for k, v in self.terms.items()}
        )

    def __mul__(self, other: "GroupAlgebraTensor") -> "GroupAlgebraTensor":
        """Componentwise (algebra) product, bilinear over the bases."""
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        return _collect(self.group, self.arity, (
            (tuple(x * y for x, y in zip(key1, key2)), c1 * c2)
            for key1, c1 in a.items() for key2, c2 in b.items()
        ))

    def tensor(self, other: "GroupAlgebraTensor") -> "GroupAlgebraTensor":
        if self.group != other.group:
            raise ValueError("tensor factors must share the group")
        terms = {}
        for key1, c1 in self.terms.items():
            for key2, c2 in other.terms.items():
                terms[key1 + key2] = c1 * c2
        return GroupAlgebraTensor(self.group, self.arity + other.arity, terms)

    def apply_delta_on_leg(self, leg: int) -> "GroupAlgebraTensor":
        """Apply the diagonal coproduct g -> g x g on one leg."""
        return _collect(self.group, self.arity + 1, (
            (key[: leg + 1] + key[leg:], coeff) for key, coeff in self.terms.items()
        ))

    def apply_counit_on_leg(self, leg: int) -> "GroupAlgebraTensor":
        """Apply the counit g -> 1 on one leg, dropping it."""
        return _collect(self.group, self.arity - 1, (
            (key[:leg] + key[leg + 1 :], coeff) for key, coeff in self.terms.items()
        ))

    def _check(self, other):
        if self.group != other.group or self.arity != other.arity:
            raise ValueError("tensors must share group and arity")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroupAlgebraTensor):
            return NotImplemented
        if self.group != other.group or self.arity != other.arity:
            return False
        if self.terms.keys() != other.terms.keys():
            return False
        return all(v == other.terms[k] for k, v in self.terms.items())

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "GroupAlgebraTensor(0)"
        parts = []
        for key in sorted(self.terms, key=lambda k: tuple(g.exponents for g in k)):
            parts.append(f"({self.terms[key]})*" + "&".join(repr(g) for g in key))
        return " + ".join(parts)

    def to_json(self) -> dict:
        return {
            "arity": self.arity,
            "group": self.group.to_json(),
            "terms": [
                {"elems": [g.to_json() for g in key], "coeff": coeff.to_json()}
                for key, coeff in sorted(
                    self.terms.items(), key=lambda kv: tuple(g.exponents for g in kv[0])
                )
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "GroupAlgebraTensor":
        group = FiniteAbelianGroup.from_json(data["group"])
        terms = {}
        for entry in data["terms"]:
            key = tuple(group.element(e) for e in entry["elems"])
            terms[key] = CycScalar.from_json(entry["coeff"])
        return cls(group, int(data["arity"]), terms)


def _collect(group, arity: int, pairs) -> GroupAlgebraTensor:
    """The tensor with the coefficients of (key, coeff) pairs summed per key."""
    terms: dict = {}
    for key, coeff in pairs:
        acc = terms.get(key)
        terms[key] = coeff if acc is None else acc + coeff
    return GroupAlgebraTensor(group, arity, terms)


def fourier_coefficients(t: GroupAlgebraTensor, conductor: int | None = None) -> list[CycScalar]:
    """Character values of a tensor; all nonzero iff it is invertible."""
    group = t.group
    if conductor is None:
        conductor = lcm(*group.orders, 1)
    else:
        conductor = lcm(conductor, *group.orders)
    roots = {n: [root_of_unity(conductor, conductor // n * k) for k in range(n)] for n in set(group.orders)}
    values = []
    for chars in group.tuples(t.arity):
        total = CycScalar.zero(conductor)
        for key, coeff in t.terms.items():
            char_value = CycScalar.one(conductor)
            for chi, g in zip(chars, key):
                for c_exp, g_exp, n in zip(chi.exponents, g.exponents, group.orders):
                    char_value = char_value * roots[n][(c_exp * g_exp) % n]
            total = total + coeff * char_value
        values.append(total)
    return values


def is_invertible(t: GroupAlgebraTensor, conductor: int | None = None) -> bool:
    return all(not v.is_zero() for v in fourier_coefficients(t, conductor))


def is_harrison_3cocycle(phi_tensor: GroupAlgebraTensor, check_invertible: bool = True) -> bool:
    """The quasi-bialgebra pentagon plus counit normalization in k[G]^(x4)."""
    if phi_tensor.arity != 3:
        raise ValueError("expected an arity-3 tensor")
    if check_invertible and not is_invertible(phi_tensor):
        raise ValueError("the tensor is not invertible")
    group = phi_tensor.group
    one_leg = GroupAlgebraTensor.unit(group, 1)
    lhs = (
        one_leg.tensor(phi_tensor)
        * phi_tensor.apply_delta_on_leg(1)
        * phi_tensor.tensor(one_leg)
    )
    rhs = phi_tensor.apply_delta_on_leg(2) * phi_tensor.apply_delta_on_leg(0)
    if lhs != rhs:
        return False
    return phi_tensor.apply_counit_on_leg(1) == GroupAlgebraTensor.unit(group, 2)


# ----------------------------------------------------------------- #
# dual-basis isomorphisms and reassociators
# ----------------------------------------------------------------- #

def cyclic_dual_idempotents(n: int, xi) -> list[GroupAlgebraTensor]:
    """The images of the dual basis: (1/n) sum_s xi^((n-s) j) c^s for each j."""
    xi = coerce(xi)
    if not _is_primitive(xi, n):
        raise ValueError("xi must be a primitive n-th root of unity")
    group = cyclic(n)
    elems = group.elements()
    out = []
    inv_n = Fraction(1, n)
    for j in range(n):
        terms = {
            (elems[s],): xi ** (((n - s) * j) % n) * inv_n for s in range(n)
        }
        out.append(GroupAlgebraTensor(group, 1, terms))
    return out


def cyclic_character_table(n: int, xi, j: int) -> dict:
    """The algebra map c^s -> xi^(js), the image of c^j in the dual."""
    xi = coerce(xi)
    group = cyclic(n)
    return {x: xi ** ((j * x.exponents[0]) % n) for x in group.elements()}


def _is_primitive(xi: CycScalar, n: int) -> bool:
    if not (xi**n).is_one():
        return False
    return all(not (xi**d).is_one() for d in range(1, n) if n % d == 0)


def reassociator_phi_l(n: int, l: int, xi) -> GroupAlgebraTensor:
    """The closed-form reassociator on k[C_n] indexed by l in [0, n).

    Phi_l = 1 - (1 - c^l) x S where S carries the overflow of the group
    law: S = sum_{v+s >= n} e_v x e_s over the dual idempotents e_j.
    Resolving the geometric sums gives the closed coefficients of S in
    the group basis,

        S[i, 0] = (1/n^2) sum_{v=1}^{n-1} v xi^(-iv),
        S[i, j] = (1/n)  (d_ij - d_i0) / (1 - xi^(-j))   for j != 0,

    which is what this routine evaluates; at n = 2 it collapses to
    Phi_1 = 1 - 2 p_- x p_- x p_- with p_- = (1 - c)/2.
    """
    xi = coerce(xi)
    if not _is_primitive(xi, n):
        raise ValueError("xi must be a primitive n-th root of unity")
    if not 0 <= l < n:
        raise ValueError("the index l must satisfy 0 <= l < n")
    group = cyclic(n)
    elems = group.elements()
    inv_nn = Fraction(1, n * n)
    inv_n = Fraction(1, n)
    correction_terms: dict = {}
    for i in range(n):
        coeff = CycScalar.zero(xi.conductor)
        for v in range(1, n):
            coeff = coeff + v * xi ** ((-i * v) % n)
        coeff = coeff * inv_nn
        if not coeff.is_zero():
            correction_terms[(elems[i], elems[0])] = coeff
    for j in range(1, n):
        coeff = (CycScalar.one(xi.conductor) - xi ** ((-j) % n)).inv() * inv_n
        correction_terms[(elems[j], elems[j])] = coeff
        key = (elems[0], elems[j])
        prior = correction_terms.get(key)
        correction_terms[key] = -coeff if prior is None else prior - coeff
    correction = GroupAlgebraTensor(group, 2, correction_terms)
    bracket = GroupAlgebraTensor.monomial(group, (elems[0],)) - GroupAlgebraTensor.monomial(
        group, (elems[l % n],)
    )
    return GroupAlgebraTensor.unit(group, 3) - bracket.tensor(correction)


def reassociator_transport_cyclic(n: int, l: int, xi) -> GroupAlgebraTensor:
    """The same reassociator built by pushing the step cocycle through the dual."""
    xi = coerce(xi)
    phi = cyclic_phi_q(n, xi**l)
    return _push_through_dual(phi, dict(zip(phi.group.elements(), cyclic_dual_idempotents(n, xi))))


def _push_through_dual(phi: Cochain, units: dict) -> GroupAlgebraTensor:
    """sum of phi(x, y, z) u_x (x) u_y (x) u_z over the table of phi."""
    total = GroupAlgebraTensor(phi.group, 3, {})
    for (x, y, z), value in phi.values.items():
        total = total + units[x].tensor(units[y]).tensor(units[z]).scale(value)
    return total


def klein_dual_units() -> dict:
    """The orthogonal idempotents u_x of k[C2xC2], images of the dual basis."""
    G = klein()
    quarter = Fraction(1, 4)
    units = {}
    for x in G.elements():
        terms = {}
        for y in G.elements():
            pairing = sum(a * b for a, b in zip(x.exponents, y.exponents)) % 2
            terms[(y,)] = coerce(quarter if pairing == 0 else -quarter)
        units[x] = GroupAlgebraTensor(G, 1, terms)
    return units


def klein_reassociator(phi: Cochain) -> GroupAlgebraTensor:
    """Push a Klein 3-cocycle table through the dual-basis isomorphism."""
    if phi.group.orders != (2, 2) or phi.degree != 3:
        raise ValueError("expected a degree-3 cochain on C2xC2")
    bad = cocycle3_failure(phi)
    if bad is not None:
        raise ValueError(f"input is not a 3-cocycle; fails at {bad}")
    return _push_through_dual(phi, klein_dual_units())


def klein_minus_idempotent(x: GroupElement) -> GroupAlgebraTensor:
    """p_-^x = (1 - x)/2 inside k[C2xC2]."""
    G = x.group
    half = Fraction(1, 2)
    return GroupAlgebraTensor(G, 1, {(G.identity(),): half, (x,): -half})


# ----------------------------------------------------------------- #
# twisted weak Hopf structures
# ----------------------------------------------------------------- #

@dataclass
class WeakBraidedHopf:
    """k[G] with F-twisted product and averaged coproduct."""

    group: FiniteAbelianGroup
    twist: Cochain  # the 2-cochain F
    multiplication: dict  # (x, y) -> (coefficient, xy)
    comultiplication: dict = field(repr=False)  # x -> arity-2 tensor
    counit: dict = field(repr=False)  # x -> scalar
    ambient: AbelianCocycle = field(repr=False)

    def product(self, x: GroupElement, y: GroupElement) -> GroupAlgebraTensor:
        coeff, elem = self.multiplication[(x, y)]
        return GroupAlgebraTensor.monomial(self.group, (elem,), coeff)

    def braided_square_product(
        self, left: GroupAlgebraTensor, right: GroupAlgebraTensor
    ) -> GroupAlgebraTensor:
        """The algebra structure of the tensor square inside the ambient category.

        The middle-four interchange (a x b)(c x d) -> (a*c) x (b*d) swaps b
        past c with the braiding and re-brackets four factors, so besides
        R(|b|, |c|) it carries the associator factors of that zig-zag:

            phi(a,b,cd) phi(b,c,d)^-1 R(b,c) phi(c,b,d) phi(a,c,bd)^-1
        """
        F = self.twist.values
        R = self.ambient.R.values
        phi = self.ambient.phi.values
        return _collect(self.group, 2, (
            (
                (a * c, b * d),
                c1
                * c2
                * phi[(a, b, c * d)]
                * phi[(b, c, d)].inv()
                * R[(b, c)]
                * phi[(c, b, d)]
                * phi[(a, c, b * d)].inv()
                * F[(a, c)]
                * F[(b, d)],
            )
            for (a, b), c1 in left.terms.items()
            for (c, d), c2 in right.terms.items()
        ))


def weak_hopf_build(group: FiniteAbelianGroup, F: Cochain) -> WeakBraidedHopf:
    """Assemble the twisted structure for a strictly normalized 2-cochain F."""
    if F.group != group or F.degree != 2:
        raise ValueError("F must be a degree-2 cochain on the given group")
    e = group.identity()
    for x in group.elements():
        if not F.values[(e, x)].is_one() or not F.values[(x, e)].is_one():
            raise ValueError("F must satisfy F(e, x) = F(x, e) = 1")
    size = group.size
    inv_size = Fraction(1, size)
    multiplication = {
        (x, y): (F.values[(x, y)], x * y) for x, y in group.tuples(2)
    }
    comultiplication = {}
    for x in group.elements():
        terms = {}
        for u in group.elements():
            v = u.inverse() * x
            terms[(u, v)] = F.values[(u, v)].inv() * inv_size
        comultiplication[x] = GroupAlgebraTensor(group, 2, terms)
    counit = {
        x: coerce(size if x.is_identity else 0) for x in group.elements()
    }
    ambient = abelian_coboundary(F.inv())
    return WeakBraidedHopf(group, F, multiplication, comultiplication, counit, ambient)


AXIOM_NAMES = (
    "associativity_up_to_reassociator",
    "braided_commutativity",
    "braided_cocommutativity",
    "counit_law",
    "coassociativity_up_to_reassociator",
    "coproduct_is_multiplicative",
)


@dataclass
class HopfAxiomReport:
    results: dict
    failures: dict

    @property
    def passed(self) -> bool:
        return all(self.results.values())

    def summary(self) -> str:
        lines = []
        for name in AXIOM_NAMES:
            mark = "pass" if self.results[name] else "FAIL"
            line = f"  [{mark}] {name}"
            if not self.results[name]:
                line += f"  ({self.failures[name]})"
            lines.append(line)
        return "\n".join(lines)


def check_weak_hopf(w: WeakBraidedHopf) -> HopfAxiomReport:
    """Verify the six defining identities, exhaustively over basis elements."""
    group = w.group
    phi = w.ambient.phi.values
    R = w.ambient.R.values
    results = {name: True for name in AXIOM_NAMES}
    failures = {name: "" for name in AXIOM_NAMES}

    def fail(name, message):
        if results[name]:
            results[name] = False
            failures[name] = message

    tables = {"F": w.twist.dense(), "phi": w.ambient.phi.dense(), "R": w.ambient.R.dense()}
    for name, twist_law in zip(AXIOM_NAMES, TWIST_LAWS):
        failure = first_failure([twist_law], group, tables)
        if failure is not None:
            fail(name, f"at {failure[1]}")

    for x in group.elements():
        comult = w.comultiplication[x]
        braided_terms = {}
        for (u, v), coeff in comult.terms.items():
            key = (v, u)
            braided_terms[key] = coeff * R[(u, v)]
        if GroupAlgebraTensor(group, 2, braided_terms) != comult:
            fail("braided_cocommutativity", f"at {x}")
            break

    for x in group.elements():
        comult = w.comultiplication[x]
        left = _collect(group, 1, (((v,), c * w.counit[u]) for (u, v), c in comult.terms.items()))
        right = _collect(group, 1, (((u,), c * w.counit[v]) for (u, v), c in comult.terms.items()))
        expected = GroupAlgebraTensor.monomial(group, (x,))
        if left != expected or right != expected:
            fail("counit_law", f"at {x}")
            break

    for x in group.elements():
        comult = w.comultiplication[x]
        first = GroupAlgebraTensor(group, 3, {})
        second = GroupAlgebraTensor(group, 3, {})
        for (u, v), coeff in comult.terms.items():
            first = first + w.comultiplication[u].tensor(
                GroupAlgebraTensor.monomial(group, (v,))
            ).scale(coeff)
            second = second + GroupAlgebraTensor.monomial(group, (u,)).tensor(
                w.comultiplication[v]
            ).scale(coeff)
        reassociated = GroupAlgebraTensor(
            group,
            3,
            {key: coeff * phi[key] for key, coeff in first.terms.items()},
        )
        if reassociated != second:
            fail("coassociativity_up_to_reassociator", f"at {x}")
            break

    for x, y in group.tuples(2):
        coeff, elem = w.multiplication[(x, y)]
        left = w.comultiplication[elem].scale(coeff)
        right = w.braided_square_product(
            w.comultiplication[x], w.comultiplication[y]
        )
        if left != right:
            fail("coproduct_is_multiplicative", f"at {(x, y)}")
            break

    return HopfAxiomReport(results, failures)


# ----------------------------------------------------------------- #
# the named structures
# ----------------------------------------------------------------- #

def klein_diagonal_twist(a) -> WeakBraidedHopf:
    """Klein structure with x*x = a^-1 e; twist is the inverse h-witness."""
    return weak_hopf_build(klein(), coboundary_witness_h(a).inv())


def klein_mixed_twist(d) -> WeakBraidedHopf:
    """Klein structure twisted by the inverse of the square-family witness."""
    return weak_hopf_build(klein(), coboundary_witness_g(d).inv())


def cyclic_power_twist(n: int, q=None) -> WeakBraidedHopf:
    """C_n structure with c^a * c^b = q^(-(a-1)ab/2) c^(a+b).

    Requires q^n = q^(n(n-1)/2) = 1 (both hold for primitive q and odd n).
    """
    if q is None:
        q = root_of_unity(n, 1)
    q = coerce(q)
    if not (q**n).is_one():
        raise ValueError("q must satisfy q^n = 1")
    if not (q ** (n * (n - 1) // 2)).is_one():
        raise ValueError("q must satisfy q^(n(n-1)/2) = 1")
    return weak_hopf_build(cyclic(n), cyclic_twist_cochain(n, q))


def cyclic_comult_crosscheck(n: int, q=None) -> dict:
    """Compare the twist-derived coproduct with the direct cubic-exponent table.

    For each (a, l) the twist gives exponent (l-1)l(a-l mod n)/2 while the
    direct table uses (l-1)l(a-l); the report records both mod n and where
    they agree.  The twist-derived coproduct is the operative one.
    """
    if q is None:
        q = root_of_unity(n, 1)
    q = coerce(q)
    if not (q**n).is_one():
        raise ValueError("q must satisfy q^n = 1")
    group = cyclic(n)
    w = weak_hopf_build(group, cyclic_twist_cochain(n, q))
    elems = group.elements()
    rows = []
    agreements = 0
    for a in range(n):
        comult = w.comultiplication[elems[a]]
        for l in range(n):
            v = (a - l) % n
            derived = ((l - 1) * l * v // 2) % n
            displayed = ((l - 1) * l * (a - l)) % n
            coeff = comult.terms[(elems[l], elems[v])]
            if coeff != q**derived * Fraction(1, n):
                raise ArithmeticError(f"coproduct coefficient at (a, l) = ({a}, {l}) is {coeff}")
            agree = derived == displayed
            agreements += agree
            rows.append(
                {
                    "a": a,
                    "l": l,
                    "twist_exponent": derived,
                    "direct_exponent": displayed,
                    "agree": agree,
                }
            )
    return {
        "n": n,
        "entries": rows,
        "agreements": agreements,
        "total": len(rows),
    }

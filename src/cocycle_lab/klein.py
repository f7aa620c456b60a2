"""The complete cocycle classification machinery for the Klein group.

Happy normalized 3-cocycles on C2xC2 are determined by three signs
eps_sigma, eps_tau, eps_rho and two nonzero scalars a, b; every 3-cocycle
is cohomologous to a happy one via explicit coboundary witnesses.  The
three generating families are

  phi_X   -- signs -1 exactly on X, a = b = 1,
  h_a     -- all signs +1, parameter a, always a coboundary,
  g_b     -- all signs +1, parameter b, a coboundary iff b is a square,

and the cohomology class of any cocycle is (signs, square class of b).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cochains import Cochain, cocycle3_failure, delta2, is_normalized3, normalize3, pullback
from .groups import FiniteAbelianGroup, GroupElement, cyclic, klein
from .scalars import CycScalar, coerce, square_class

NAMES = ("sigma", "tau", "rho")


def _named_elements(group: FiniteAbelianGroup):
    return group.e, group.sigma, group.tau, group.rho


def klein_2cochain(a1=1, a2=1, a3=1, b1=1, b2=1, b3=1, b4=1, b5=1, b6=1, c=1) -> Cochain:
    """The general 2-cochain with normalized coboundary on C2xC2.

    Diagonal values a1, a2, a3 sit at (sigma,sigma), (tau,tau), (rho,rho);
    b1..b6 at (sigma,tau), (tau,rho), (rho,sigma), (tau,sigma),
    (sigma,rho), (rho,tau); every pair containing e takes the value c.
    """
    G = klein()
    e, s, t, r = _named_elements(G)
    table = {
        (s, s): a1, (t, t): a2, (r, r): a3,
        (s, t): b1, (t, r): b2, (r, s): b3,
        (t, s): b4, (s, r): b5, (r, t): b6,
    }
    return Cochain.from_function(G, 2, lambda x, y: table.get((x, y), c))


@dataclass(frozen=True)
class HappyParams:
    """The five parameters of a happy normalized 3-cocycle on C2xC2."""

    eps_sigma: int
    eps_tau: int
    eps_rho: int
    a: CycScalar
    b: CycScalar

    def __post_init__(self):
        if {self.eps_sigma, self.eps_tau, self.eps_rho} - {1, -1}:
            raise ValueError("sign parameters must be +1 or -1")
        if self.a.is_zero() or self.b.is_zero():
            raise ValueError("a and b must be nonzero")

    @property
    def p(self) -> int:
        return self.eps_sigma * self.eps_tau * self.eps_rho

    @property
    def eps(self) -> tuple[int, int, int]:
        return (self.eps_sigma, self.eps_tau, self.eps_rho)


def reconstruct(params: HappyParams) -> Cochain:
    """The happy cocycle with the given parameters, as a full 64-entry table."""
    G = klein()
    e, s, t, r = _named_elements(G)
    es, et, er = params.eps_sigma, params.eps_tau, params.eps_rho
    p, a, b = params.p, params.a, params.b
    ai, bi = a.inv(), b.inv()
    one = CycScalar.one()
    table = {
        (s, s, s): es * one, (t, t, t): et * one, (r, r, r): er * one,
        # the twelve entries tied to a
        (t, s, s): a,            (s, s, t): ai,
        (s, t, t): p * a,        (t, t, s): p * ai,
        (r, s, s): es * a,       (s, s, r): es * ai,
        (r, t, t): p * et * a,   (t, t, r): p * et * ai,
        (s, r, r): p * es * a,   (r, r, s): p * es * ai,
        (t, r, r): et * a,       (r, r, t): et * ai,
        # the six entries tied to b
        (s, t, s): b,            (t, s, t): p * bi,
        (r, s, r): p * es * b,   (s, r, s): es * bi,
        (t, r, t): p * et * b,   (r, t, r): et * bi,
    }
    p_val = p * one  # at the pairwise distinct non-identity triples

    def value(*key):
        return one if any(g.is_identity for g in key) else table.get(key, p_val)

    return Cochain.from_function(G, 3, value)


def phi_X(subset) -> Cochain:
    """The sign cocycle with eps_x = -1 exactly for x in the subset.

    The subset may contain the names "sigma"/"tau"/"rho" or the elements
    themselves.
    """
    names = _subset_names(subset)
    eps = tuple(-1 if n in names else 1 for n in NAMES)
    return reconstruct(HappyParams(*eps, coerce(1), coerce(1)))


def _subset_names(subset) -> frozenset:
    names = set()
    for item in subset:
        if isinstance(item, GroupElement):
            lookup = {(1, 0): "sigma", (0, 1): "tau", (1, 1): "rho"}
            names.add(lookup[item.exponents])
        else:
            if item not in NAMES:
                raise ValueError(f"unknown element name {item!r}")
            names.add(item)
    return frozenset(names)


def h_a(a) -> Cochain:
    """The coboundary family: value a at (x, y, y), a^-1 at (x, x, y)."""
    return reconstruct(HappyParams(1, 1, 1, coerce(a), coerce(1)))


def g_b(b) -> Cochain:
    """The square-class family: value b on the (x, y, x) orbit of (sigma,tau,sigma)."""
    return reconstruct(HappyParams(1, 1, 1, coerce(1), coerce(b)))


def is_happy(phi: Cochain) -> bool:
    """Whether all six pairwise-distinct triples carry the product of the signs."""
    _require_klein3(phi)
    G = phi.group
    e, s, t, r = _named_elements(G)
    p = phi(s, s, s) * phi(t, t, t) * phi(r, r, r)
    from itertools import permutations

    return all(phi(*triple) == p for triple in permutations((s, t, r)))


def _require_klein3(phi: Cochain):
    if phi.group.orders != (2, 2) or phi.degree != 3:
        raise ValueError("expected a degree-3 cochain on C2xC2")


def happify(phi: Cochain) -> tuple[Cochain, Cochain]:
    """A happy cocycle phi * delta2(g) with its witness g.

    The witness keeps the unit and diagonal slots trivial, so the three
    signs are untouched; its off-diagonal slots are read off the six
    pairwise-distinct values of phi.
    """
    _require_klein3(phi)
    if not is_normalized3(phi):
        raise ValueError("input must be a normalized cocycle")
    bad = cocycle3_failure(phi)
    if bad is not None:
        raise ValueError(f"input is not a 3-cocycle; fails at {bad}")
    return _happify(phi)


def _happify(phi: Cochain) -> tuple[Cochain, Cochain]:
    """happify without the input checks, for a known normalized Klein cocycle."""
    G = phi.group
    e, s, t, r = _named_elements(G)
    p = phi(s, t, r) * phi(t, r, s) * phi(r, s, t)
    witness = klein_2cochain(
        b1=p,
        b2=phi(s, t, r).inv(),
        b3=phi(r, s, t),
        b4=phi(t, s, r),
        b5=p,
        b6=phi(s, r, t).inv(),
    )
    happy = phi * delta2(witness)
    if not is_happy(happy):
        raise RuntimeError("happification witness failed to make the cocycle happy")
    return happy, witness


def happy_params(phi: Cochain) -> HappyParams:
    """Read the five defining parameters off a happy cocycle."""
    if not is_happy(phi):
        raise ValueError("parameter extraction needs a happy cocycle")
    G = phi.group
    e, s, t, r = _named_elements(G)
    eps = []
    for x in (s, t, r):
        v = phi(x, x, x)
        if v == 1:
            eps.append(1)
        elif v == -1:
            eps.append(-1)
        else:
            raise ValueError(f"diagonal value {v} is not a sign")
    return HappyParams(*eps, phi(t, s, s), phi(s, t, s))


@dataclass(frozen=True)
class KleinCohomologyClass:
    """(signs, square class of b): the full cohomology invariant."""

    eps: tuple[int, int, int]
    b_class: str  # "trivial" | "nontrivial" | "undecided"
    b_value: CycScalar | None = None

    def to_json(self) -> dict:
        data = {"eps": list(self.eps), "b_class": self.b_class}
        if self.b_class == "undecided" and self.b_value is not None:
            data["b"] = self.b_value.to_json()
        return data

    def __eq__(self, other) -> bool:
        if not isinstance(other, KleinCohomologyClass):
            return NotImplemented
        if (self.eps, self.b_class) != (other.eps, other.b_class):
            return False
        if self.b_class == "undecided":
            return self.b_value == other.b_value
        return True

    __hash__ = None


def classify(phi: Cochain) -> KleinCohomologyClass:
    """Cohomology class of any 3-cocycle on C2xC2.

    Pipeline: normalize, happify, read parameters; a is discarded (its
    family is always a coboundary) and b contributes only its square
    class in the ambient cyclotomic field.
    """
    _require_klein3(phi)
    normalized, _ = normalize3(phi)  # checks the cocycle law
    happy, _ = _happify(normalized)
    params = happy_params(happy)
    b = params.b
    if b == 1:
        return KleinCohomologyClass(params.eps, "trivial")
    kind = square_class(b)
    return KleinCohomologyClass(
        params.eps, kind, b if kind == "undecided" else None
    )


def coboundary_witness_h(a) -> Cochain:
    """g with delta2(g) = h_a: diagonal slots a, everything else 1."""
    a = coerce(a)
    if a.is_zero():
        raise ValueError("parameter must be nonzero")
    return klein_2cochain(a1=a, a2=a, a3=a)


def coboundary_witness_g(d) -> Cochain:
    """g with delta2(g) = g_(d^2): diagonal and lower off-diagonal slots d."""
    d = coerce(d)
    if d.is_zero():
        raise ValueError("parameter must be nonzero")
    return klein_2cochain(a1=d, a2=d, a3=d, b4=d, b5=d, b6=d)


# ----------------------------------------------------------------- #
# transport from C2
# ----------------------------------------------------------------- #

def projection_to_c2(i: int):
    """The i-th projection C2xC2 -> C2 (1 kills sigma, 2 kills tau, 3 kills rho)."""
    if i not in (1, 2, 3):
        raise ValueError("projection index must be 1, 2 or 3")
    target = cyclic(2)

    def project(x: GroupElement) -> GroupElement:
        u, v = x.exponents
        if i == 1:
            return target.element([v])
        if i == 2:
            return target.element([u])
        return target.element([u + v])

    return project


def transport_t(i: int, phi: Cochain) -> Cochain:
    """Pull a cocycle on C2 back to C2xC2 along the i-th projection."""
    if phi.group != cyclic(2) or phi.degree != 3:
        raise ValueError("expected a degree-3 cochain on C2")
    bad = cocycle3_failure(phi)
    if bad is not None:
        raise ValueError(f"input is not a 3-cocycle; fails at {bad}")
    return pullback(phi, klein(), projection_to_c2(i))

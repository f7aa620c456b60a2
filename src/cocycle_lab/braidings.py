"""Braided structures: R-matrices, hexagons, quadratic forms, and oracles.

A braiding on the graded category attached to (G, phi) is an R-matrix
R: G x G -> k* making (phi, R) satisfy the two hexagon identities.  The
laws declared here (see ``cochains.Law``) are HEXAGONS, R_PSI (the
R-matrix psi(x,y)^-1 psi(y,x) of a 2-cochain) and QUADRATIC_FORM, the
seven-term identity.  ``hexagon_failure`` and ``is_quadratic_form`` take
their first failure, ``abelian_coboundary`` the value map of R_PSI, and
``abelian_cohomologous`` and ``count_hexagon_solutions_mu`` their Z/m rows.

The Eilenberg-Mac Lane trace Q(x) = R(x,x) identifies cohomology classes
of such pairs with quadratic forms; this module enumerates the full Klein
census, decides cohomologousness by linear algebra over Z/m, and carries
an independent matrix-level oracle that checks pentagon/hexagon coherence
by composing explicit (sparse) matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from . import klein_tables
from .cochains import (
    Cochain,
    boundary_matrix,
    cochain_exponents,
    cochain_from_exponents,
    delta2,
    evaluate,
    first_failure,
    is_normalized2,
    law,
    law_rows,
    pullback,
)
from .groups import FiniteAbelianGroup, cyclic, klein
from .klein import phi_X, projection_to_c2
from .scalars import CycScalar, as_root_exponent, coerce, root_of_unity
from .zmodlin import solve_mod

HEXAGONS = (
    law("+R(xy,z) +phi(x,z,y) -phi(x,y,z) -R(x,z) -phi(z,x,y) -R(y,z)"),
    law("+phi(x,y,z) +R(x,yz) +phi(y,z,x) -R(x,y) -phi(y,x,z) -R(x,z)"),
)
R_PSI = law("+psi(y,x) -psi(x,y)")
QUADRATIC_FORM = law("+Q(xyz) +Q(x) +Q(y) +Q(z) -Q(xy) -Q(xz) -Q(yz)")


@dataclass(frozen=True)
class AbelianCocycle:
    """A pair (phi, R): normalized 3-cocycle plus R-matrix."""

    phi: Cochain
    R: Cochain

    def __post_init__(self):
        if self.phi.group != self.R.group or self.phi.degree != 3 or self.R.degree != 2:
            raise ValueError("expected a degree-3 and a degree-2 cochain on one group")

    @property
    def group(self) -> FiniteAbelianGroup:
        return self.phi.group

    def __mul__(self, other: "AbelianCocycle") -> "AbelianCocycle":
        return AbelianCocycle(self.phi * other.phi, self.R * other.R)

    def inv(self) -> "AbelianCocycle":
        return AbelianCocycle(self.phi.inv(), self.R.inv())

    def to_json(self, label: str | None = None) -> dict:
        data = {"phi": self.phi.to_json(), "R": self.R.to_json()}
        if label is not None:
            data["label"] = label
        return data


def hexagon_failure(phi: Cochain, R: Cochain):
    """First (which, x, y, z) violating a hexagon identity, or None."""
    if phi.group != R.group or phi.degree != 3 or R.degree != 2:
        raise ValueError("expected a degree-3 and a degree-2 cochain on one group")
    failure = first_failure(HEXAGONS, phi.group, {"phi": phi.dense(), "R": R.dense()})
    return None if failure is None else (failure[0] + 1, *failure[1])


def is_abelian_cocycle(phi: Cochain, R: Cochain) -> bool:
    return hexagon_failure(phi, R) is None


def abelian_coboundary(psi: Cochain) -> AbelianCocycle:
    """(delta2(psi), R_psi) with R_psi(x, y) = psi(x, y)^-1 psi(y, x)."""
    if not is_normalized2(psi):
        raise ValueError("psi must take one common value on pairs containing e")
    r_values = evaluate(R_PSI, psi.group, {"psi": psi.dense()})
    return AbelianCocycle(delta2(psi), Cochain.from_dense(psi.group, 2, r_values))


# ----------------------------------------------------------------- #
# quadratic forms
# ----------------------------------------------------------------- #

@dataclass(frozen=True)
class QuadraticForm:
    """A total map G -> k* subject to the quadratic-form laws."""

    group: FiniteAbelianGroup
    values: dict

    def __call__(self, x) -> CycScalar:
        return self.values[x]

    def __mul__(self, other: "QuadraticForm") -> "QuadraticForm":
        return QuadraticForm(
            self.group, {k: v * other.values[k] for k, v in self.values.items()}
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadraticForm)
            and self.group == other.group
            and all(v == other.values[k] for k, v in self.values.items())
        )

    __hash__ = None

    def order(self) -> int:
        """Order under pointwise multiplication."""
        k = 1
        current = self
        identity = QuadraticForm(
            self.group, {x: CycScalar.one() for x in self.group.elements()}
        )
        while current != identity:
            current = current * self
            k += 1
            if k > 64:
                raise ArithmeticError("order computation runaway")
        return k


def trace(ac: AbelianCocycle) -> QuadraticForm:
    """Q(x) = R(x, x), the trace of the pair."""
    return QuadraticForm(
        ac.group, {x: ac.R.values[(x, x)] for x in ac.group.elements()}
    )


def is_quadratic_form(Q: QuadraticForm) -> bool:
    """Exhaustive check of Q(x^-1) = Q(x) and the seven-term identity."""
    v = Q.values
    if any(val.is_zero() for val in v.values()):
        return False
    for x in Q.group.elements():
        if v[x.inverse()] != v[x]:
            return False
    dense = [v[x] for x in Q.group.elements()]
    return first_failure([QUADRATIC_FORM], Q.group, {"Q": dense}) is None


def klein_quadratic_form_criteria(Q: QuadraticForm) -> bool:
    """The three-condition test special to C2xC2 (agrees with the general one)."""
    G = Q.group
    if G.orders != (2, 2):
        raise ValueError("this criterion is specific to C2xC2")
    v = Q.values
    if not v[G.e].is_one():
        return False
    if any(not (v[x] ** 4).is_one() for x in (G.sigma, G.tau, G.rho)):
        return False
    return (v[G.sigma] ** 2 * v[G.tau] ** 2 * v[G.rho] ** 2).is_one()


def enumerate_quadratic_forms(group: FiniteAbelianGroup, conductor: int) -> list[QuadraticForm]:
    """Brute-force census of quadratic forms with values in mu_conductor."""
    elements = group.elements()
    mu = [root_of_unity(conductor, k) for k in range(conductor)]
    forms = []
    for assignment in _cartesian(mu, repeat=len(elements)):
        Q = QuadraticForm(group, dict(zip(elements, assignment)))
        if is_quadratic_form(Q):
            forms.append(Q)
    return forms


# ----------------------------------------------------------------- #
# the Klein braiding census
# ----------------------------------------------------------------- #

def klein_braiding_trivial(mu_sigma, mu_tau, mu_rho) -> AbelianCocycle:
    """The bilinear R-matrix over the trivial cocycle with diagonal mu."""
    mus = tuple(coerce(m) for m in (mu_sigma, mu_tau, mu_rho))
    for m in mus:
        if not (m**2).is_one():
            raise ValueError("diagonal parameters must be signs")
    return _klein_braiding(Cochain.constant(klein(), 3, 1), mus, CycScalar.one())


def klein_braiding_phiX(subset, mu_sigma, mu_tau, mu_rho, alpha=1) -> AbelianCocycle:
    """The R-matrix over a sign cocycle phi_X with |X| = 2.

    Each mu_x must square to the sign eps_x of the underlying cocycle, so
    members of X need a primitive fourth root of unity.
    """
    phi = phi_X(subset)
    G = phi.group
    eps = {
        "sigma": phi.values[(G.sigma,) * 3],
        "tau": phi.values[(G.tau,) * 3],
        "rho": phi.values[(G.rho,) * 3],
    }
    if sum(1 for v in eps.values() if v == -1) != 2:
        raise ValueError("the underlying sign cocycle must be even and nontrivial")
    mus = {"sigma": coerce(mu_sigma), "tau": coerce(mu_tau), "rho": coerce(mu_rho)}
    for name, mu in mus.items():
        if mu**2 != eps[name]:
            raise ValueError(f"mu_{name}^2 must equal the sign at {name}")
    alpha = coerce(alpha)
    if not (alpha**2).is_one():
        raise ValueError("alpha must be a sign")
    return _klein_braiding(phi, (mus["sigma"], mus["tau"], mus["rho"]), alpha)


def _klein_braiding(phi: Cochain, mus, alpha) -> AbelianCocycle:
    """The census R-matrix over an even sign cocycle (possibly trivial) on C2xC2."""
    G = phi.group
    ms, mt, mr = mus
    es, et, er = (phi.values[(x,) * 3] for x in (G.sigma, G.tau, G.rho))
    one = CycScalar.one()
    table = {
        (G.sigma, G.sigma): ms, (G.tau, G.tau): mt, (G.rho, G.rho): mr,
        (G.sigma, G.tau): alpha * one,
        (G.tau, G.sigma): alpha * er * ms * mt * mr,
        (G.sigma, G.rho): alpha * ms,
        (G.rho, G.sigma): alpha * et * mt * mr,
        (G.tau, G.rho): alpha * es * ms * mr,
        (G.rho, G.tau): alpha * mt,
    }
    r_matrix = Cochain.from_function(
        G, 2, lambda x, y: one if (x.is_identity or y.is_identity) else table[(x, y)]
    )
    return AbelianCocycle(phi, r_matrix)


def qf_label(Q: QuadraticForm) -> str:
    """The census label of a Klein quadratic form with values in mu_4."""
    G = Q.group
    exps = []
    for x in (G.sigma, G.tau, G.rho):
        k = as_root_exponent(Q.values[x], 4)
        if k is None:
            raise ValueError("label lookup expects values in mu_4")
        exps.append(k)
    for label in klein_tables.QF_LABELS:
        if klein_tables.label_values(label) == tuple(exps):
            return label
    raise ValueError(f"no census label for trace exponents {exps}")


def braiding_for_label(label: str) -> AbelianCocycle:
    """The census representative with a given label (alpha = +1)."""
    qs, qt, qr = (root_of_unity(4, k) for k in klein_tables.label_values(label))
    if label in klein_tables.WORD_LABELS:
        return klein_braiding_trivial(qs, qt, qr)
    subset = {"E1": {"sigma", "tau"}, "E2": {"sigma", "rho"}, "E3": {"tau", "rho"}}[label[-2:]]
    return klein_braiding_phiX(subset, qs, qt, qr, alpha=1)


def enumerate_klein_braidings(conductor: int = 4) -> list[tuple[str, AbelianCocycle]]:
    """All census representatives available over Q(zeta_conductor).

    With a fourth root of unity present this is the full list of 32; when
    the conductor lacks one, only the 8 bilinear braidings over the
    trivial cocycle exist.
    """
    labels = list(klein_tables.WORD_LABELS)
    if conductor % 4 == 0:
        labels = list(klein_tables.QF_LABELS)
    return [(label, braiding_for_label(label)) for label in labels]


def is_symmetric(ac: AbelianCocycle) -> bool:
    """Whether R(x, y) R(y, x) = 1 for every pair."""
    r = ac.R.values
    return all(
        (r[(x, y)] * r[(y, x)]).is_one() for x, y in ac.group.tuples(2)
    )


# ----------------------------------------------------------------- #
# braidings on cyclic groups and transport to the Klein group
# ----------------------------------------------------------------- #

def cyclic_braiding(n: int, nu) -> AbelianCocycle:
    """(phi_(nu^n), R) with R(x, y) = nu^(xy); needs nu^(n^2) = nu^(2n) = 1."""
    nu = coerce(nu)
    if not (nu ** (n * n)).is_one() or not (nu ** (2 * n)).is_one():
        raise ValueError("nu must satisfy nu^(n^2) = nu^(2n) = 1")
    from .cochains import cyclic_phi_q

    phi = cyclic_phi_q(n, nu**n)
    r_matrix = Cochain.from_function(
        cyclic(n), 2, lambda x, y: nu ** (x.exponents[0] * y.exponents[0])
    )
    return AbelianCocycle(phi, r_matrix)


def c2_abelian_cocycles(conductor: int = 4) -> list[AbelianCocycle]:
    """The four braided structures on C2, in trace order 1, -1, i, -i."""
    if conductor % 4:
        raise ValueError("the two non-symmetric structures need a fourth root of unity")
    return [cyclic_braiding(2, nu) for nu in (
        CycScalar.one(4),
        CycScalar.rational(-1, 4),
        root_of_unity(4, 1),
        root_of_unity(4, 3),
    )]


def transport_t_ab(i: int, ac: AbelianCocycle) -> AbelianCocycle:
    """Pull a braided structure on C2 back to C2xC2 along projection i."""
    if ac.group != cyclic(2):
        raise ValueError("transport starts from a structure on C2")
    project = projection_to_c2(i)
    return AbelianCocycle(pullback(ac.phi, klein(), project), pullback(ac.R, klein(), project))


# ----------------------------------------------------------------- #
# cohomologousness by exact linear solving
# ----------------------------------------------------------------- #

def abelian_cohomologous(ac1: AbelianCocycle, ac2: AbelianCocycle, m: int) -> Cochain | None:
    """A normalized psi with ac1/ac2 = (delta2(psi), R_psi), or None.

    The condition is linear in the exponents of psi once all values of the
    quotient pair lie in mu_m.
    """
    if ac1.group != ac2.group:
        raise ValueError("pairs must live on the same group")
    group = ac1.group
    size = group.size
    quotient = ac1 * ac2.inv()
    # normalization: psi(e, x) and psi(x, e) (flat positions x, x*|G|) equal psi(e, e)
    unit_pairs = [k for x in range(1, size) for k in (x, x * size)]
    normalization = np.zeros((len(unit_pairs), size * size), dtype=np.int64)
    normalization[np.arange(len(unit_pairs)), unit_pairs] = 1
    normalization[:, 0] -= 1
    rows = np.vstack(
        [boundary_matrix(group, 2, m), law_rows(R_PSI, group, "psi", m)[0], normalization]
    )
    rhs = np.concatenate(
        [cochain_exponents(quotient.phi, m), cochain_exponents(quotient.R, m),
         np.zeros(len(unit_pairs), dtype=np.int64)]
    )
    solution = solve_mod(rows, rhs, m)
    if solution is None:
        return None
    psi = cochain_from_exponents(group, 2, solution, m)
    rebuilt = abelian_coboundary(psi)
    if rebuilt.phi != quotient.phi or rebuilt.R != quotient.R:
        raise RuntimeError("linear engine returned an invalid witness")
    return psi


# ----------------------------------------------------------------- #
# exhaustive mu_m search for R-matrices over a fixed cocycle
# ----------------------------------------------------------------- #

def count_hexagon_solutions_mu(phi: Cochain, m: int = 4) -> int:
    """Number of mu_m-valued R-matrices solving both hexagons for phi.

    R is forced to 1 on pairs containing e; the remaining (|G|-1)^2
    entries range over all of mu_m, and every candidate is tested against
    the (linear, in exponents) hexagon identities, vectorized over the
    full candidate set.
    """
    group = phi.group
    size = group.size
    known = {"phi": cochain_exponents(phi, m)}
    blocks = [law_rows(hexagon, group, "R", m, known) for hexagon in HEXAGONS]
    # both hexagons at each point in turn; R(x, y) = 1 when x or y is e
    free = [x * size + y for x in range(1, size) for y in range(1, size)]
    matrix = np.stack([a for a, _ in blocks], axis=1).reshape(-1, size * size)[:, free]
    rhs = np.stack([b for _, b in blocks], axis=1).reshape(-1)
    nvars = len(free)
    total = m**nvars
    candidates = np.arange(total)
    assignments = np.empty((nvars, total), dtype=np.int16)
    for i in range(nvars):
        assignments[i] = (candidates // m**i) % m
    alive = np.ones(total, dtype=bool)
    for row, b in zip(matrix, rhs):
        if not alive.any():
            break
        used = np.nonzero(row)[0]
        alive[alive] = (row[used].astype(np.int16) @ assignments[used][:, alive] - b) % m == 0
    return int(alive.sum())


# ----------------------------------------------------------------- #
# matrix-level coherence oracle
# ----------------------------------------------------------------- #

class SparseMap:
    """A sparse matrix between tensor-power bases indexed by element tuples."""

    __slots__ = ("entries",)

    def __init__(self, entries: dict):
        self.entries = {
            key: coeff for key, coeff in entries.items() if not coeff.is_zero()
        }

    @classmethod
    def from_rule(cls, keys, rule) -> "SparseMap":
        """Build from a rule key -> (out_key, coefficient)."""
        entries = {}
        for key in keys:
            out, coeff = rule(key)
            entries[(out, key)] = coerce(coeff)
        return cls(entries)

    def compose(self, other: "SparseMap") -> "SparseMap":
        by_in: dict = {}
        for (out, mid), coeff in self.entries.items():
            by_in.setdefault(mid, []).append((out, coeff))
        entries: dict = {}
        for (mid, key), coeff in other.entries.items():
            for out, c2 in by_in.get(mid, ()):
                pos = (out, key)
                acc = entries.get(pos)
                entries[pos] = coeff * c2 if acc is None else acc + coeff * c2
        return SparseMap(entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMap):
            return NotImplemented
        if self.entries.keys() != other.entries.keys():
            return False
        return all(v == other.entries[k] for k, v in self.entries.items())

    __hash__ = None


def _diag(keys, scalar_of) -> SparseMap:
    return SparseMap.from_rule(keys, lambda key: (key, scalar_of(key)))


def categorical_pentagon_check(phi: Cochain) -> bool:
    """Pentagon coherence on four regular graded spaces, by matrix composition."""
    G = phi.group
    keys = list(G.tuples(4))
    f = phi.values
    outer = _diag(keys, lambda k: f[(k[0] * k[1], k[2], k[3])])
    inner = _diag(keys, lambda k: f[(k[0], k[1], k[2] * k[3])])
    left = inner.compose(outer)
    first = _diag(keys, lambda k: f[(k[0], k[1], k[2])])
    middle = _diag(keys, lambda k: f[(k[0], k[1] * k[2], k[3])])
    last = _diag(keys, lambda k: f[(k[1], k[2], k[3])])
    right = last.compose(middle.compose(first))
    return left == right


def categorical_hexagon_check(phi: Cochain, R: Cochain) -> bool:
    """Both hexagon diagrams on three regular graded spaces, as matrices."""
    G = phi.group
    keys = list(G.tuples(3))
    f, r = phi.values, R.values

    assoc = _diag(keys, lambda k: f[k])
    assoc_inv = _diag(keys, lambda k: f[k].inv())
    braid_first_past_rest = SparseMap.from_rule(
        keys, lambda k: ((k[1], k[2], k[0]), r[(k[0], k[1] * k[2])])
    )
    braid_left_pair = SparseMap.from_rule(
        keys, lambda k: ((k[1], k[0], k[2]), r[(k[0], k[1])])
    )
    braid_right_pair = SparseMap.from_rule(
        keys, lambda k: ((k[0], k[2], k[1]), r[(k[1], k[2])])
    )
    lhs = assoc.compose(braid_first_past_rest.compose(assoc))
    rhs = braid_right_pair.compose(assoc.compose(braid_left_pair))
    if lhs != rhs:
        return False

    braid_rest_past_last = SparseMap.from_rule(
        keys, lambda k: ((k[2], k[0], k[1]), r[(k[0] * k[1], k[2])])
    )
    lhs = assoc_inv.compose(braid_rest_past_last.compose(assoc_inv))
    rhs = braid_left_pair.compose(assoc_inv.compose(braid_right_pair))
    return lhs == rhs

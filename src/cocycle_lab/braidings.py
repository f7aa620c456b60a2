"""Braided structures: R-matrices, hexagons, quadratic forms, and oracles.

A braiding on the graded category attached to (G, phi) is an R-matrix
R: G x G -> k* making (phi, R) satisfy the two hexagon identities.  The
laws declared here (see ``cochains.Law``) are HEXAGONS, R_PSI (the
R-matrix psi(x,y)^-1 psi(y,x) of a 2-cochain), SYMMETRY, QUADRATIC_FORM,
the seven-term identity, and INVERSE_SYMMETRY, Q(x^-1) = Q(x).
``hexagon_failure``, ``is_symmetric`` and ``is_quadratic_form`` take their
first failure, ``abelian_coboundary`` the value map of R_PSI, and
``abelian_cohomologous``, ``count_hexagon_solutions_mu`` and
``enumerate_quadratic_forms`` their Z/m rows.

The Eilenberg-Mac Lane trace Q(x) = R(x,x) identifies cohomology classes
of such pairs with quadratic forms.  Both laws are linear in exponents:
this module counts mu_m R-matrices, lists mu_m quadratic forms and decides
cohomologousness over Z/m, labels the Klein census, and carries an
independent matrix-level oracle for pentagon/hexagon coherence.  Every
associator and braiding on regular graded spaces is a monomial map, one
basis tuple to a scalar times one basis tuple; the oracle composes these
maps along the diagrams and compares the results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as _cartesian

import numpy as np

from . import klein_tables
from .cochains import (
    Cochain,
    _cochain_of_powers,
    coboundary_law,
    cochain_exponents,
    cochain_from_exponents,
    cyclic_phi_q,
    delta2,
    evaluate,
    first_failure,
    is_normalized2,
    law,
    law_rows,
    nondegenerate,
    pullback,
)
from .groups import FiniteAbelianGroup, cyclic, klein
from .klein import phi_X, projection_to_c2
from .scalars import CycScalar, as_root_exponent, coerce, root_of_unity
from .zmodlin import kernel_mod, module_size, solve_mod

HEXAGONS = (
    law("+R(xy,z) +phi(x,z,y) -phi(x,y,z) -R(x,z) -phi(z,x,y) -R(y,z)"),
    law("+phi(x,y,z) +R(x,yz) +phi(y,z,x) -R(x,y) -phi(y,x,z) -R(x,z)"),
)
R_PSI = law("+psi(y,x) -psi(x,y)")
QUADRATIC_FORM = law("+Q(xyz) +Q(x) +Q(y) +Q(z) -Q(xy) -Q(xz) -Q(yz)")
INVERSE_SYMMETRY = law("+Q(X) -Q(x)")
SYMMETRY = law("+R(x,y) +R(y,x)")


def _require_pair(phi: Cochain, R: Cochain) -> None:
    if phi.group != R.group or phi.degree != 3 or R.degree != 2:
        raise ValueError("expected a degree-3 and a degree-2 cochain on one group")


@dataclass(frozen=True)
class AbelianCocycle:
    """A pair (phi, R): normalized 3-cocycle plus R-matrix."""

    phi: Cochain
    R: Cochain

    def __post_init__(self):
        _require_pair(self.phi, self.R)

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
    _require_pair(phi, R)
    failure = first_failure(HEXAGONS, phi.group, {"phi": phi.values, "R": R.values})
    return None if failure is None else (failure[0] + 1, *failure[1])


def is_abelian_cocycle(phi: Cochain, R: Cochain) -> bool:
    return hexagon_failure(phi, R) is None


def abelian_coboundary(psi: Cochain) -> AbelianCocycle:
    """(delta2(psi), R_psi) with R_psi(x, y) = psi(x, y)^-1 psi(y, x)."""
    if not is_normalized2(psi):
        raise ValueError("psi must take one common value on pairs containing e")
    r_values = evaluate(R_PSI, psi.group, {"psi": psi.values})
    return AbelianCocycle(delta2(psi), Cochain(psi.group, 2, r_values))


# ----------------------------------------------------------------- #
# quadratic forms: degree-1 cochains subject to the quadratic-form laws
# ----------------------------------------------------------------- #

def trace(ac: AbelianCocycle) -> Cochain:
    """Q(x) = R(x, x), the trace of the pair."""
    return Cochain.from_function(ac.group, 1, lambda x: ac.R(x, x))


def is_quadratic_form(Q: Cochain) -> bool:
    """Exhaustive check of Q(x^-1) = Q(x) and the seven-term identity."""
    if Q.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    return all(
        first_failure([rule], Q.group, {"Q": Q.values}) is None
        for rule in (INVERSE_SYMMETRY, QUADRATIC_FORM)
    )


def enumerate_quadratic_forms(group: FiniteAbelianGroup, conductor: int) -> list[Cochain]:
    """All quadratic forms with values in mu_conductor, in lexicographic order of exponents.

    In exponents the forms are the kernel over Z/conductor of the rows of
    QUADRATIC_FORM and INVERSE_SYMMETRY.  Each kernel element is
    sum c_i h_i for exactly one choice of 0 <= c_i < conductor / pivot_i
    over the rows h_i of its Howell basis.
    """
    rows = np.vstack([
        law_rows(rule, group, "Q", conductor)[0] for rule in (QUADRATIC_FORM, INVERSE_SYMMETRY)
    ])
    kernel = kernel_mod(rows, conductor)
    ranges = [range(conductor // int(h[np.flatnonzero(h)[0]])) for h in kernel]
    coefficients = np.array(list(_cartesian(*ranges)), dtype=np.int64)  # (1, 0) for {0}
    exponents = sorted(map(tuple, (coefficients @ kernel % conductor).tolist()))
    return [cochain_from_exponents(group, 1, vec, conductor) for vec in exponents]


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
    eps = {"sigma": phi(G.sigma, G.sigma, G.sigma), "tau": phi(G.tau, G.tau, G.tau),
           "rho": phi(G.rho, G.rho, G.rho)}
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
    es, et, er = (phi(x, x, x) for x in (G.sigma, G.tau, G.rho))
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


def qf_label(Q: Cochain) -> str:
    """The census label of a Klein quadratic form with values in mu_4."""
    G = Q.group
    exps = []
    for x in (G.sigma, G.tau, G.rho):
        k = as_root_exponent(Q(x), 4)
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
    if conductor < 1:
        raise ValueError(f"the conductor must be a positive integer, got {conductor}")
    labels = list(klein_tables.WORD_LABELS)
    if conductor % 4 == 0:
        labels = list(klein_tables.QF_LABELS)
    return [(label, braiding_for_label(label)) for label in labels]


def is_symmetric(ac: AbelianCocycle) -> bool:
    """Whether R(x, y) R(y, x) = 1 for every pair."""
    return first_failure([SYMMETRY], ac.group, {"R": ac.R.values}) is None


# ----------------------------------------------------------------- #
# braidings on cyclic groups and transport to the Klein group
# ----------------------------------------------------------------- #

def cyclic_braiding(n: int, nu) -> AbelianCocycle:
    """(phi_(nu^n), R) with R(x, y) = nu^(xy); needs nu^(n^2) = nu^(2n) = 1."""
    nu = coerce(nu)
    if not (nu ** (n * n)).is_one() or not (nu ** (2 * n)).is_one():
        raise ValueError("nu must satisfy nu^(n^2) = nu^(2n) = 1")
    x, y = np.indices((n, n))
    return AbelianCocycle(cyclic_phi_q(n, nu**n), _cochain_of_powers(cyclic(n), 2, nu, x * y))


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
    """A psi, 1 on pairs containing e, with ac1/ac2 = (delta2(psi), R_psi), or None.

    The condition is linear in the exponents of psi once all values of the
    quotient pair lie in mu_m.  Solving for strictly normalized psi loses
    nothing: delta2 and R_psi ignore a constant factor.
    """
    if ac1.group != ac2.group:
        raise ValueError("pairs must live on the same group")
    group = ac1.group
    quotient = ac1 * ac2.inv()
    rows = np.vstack([
        law_rows(coboundary_law(2), group, "f", m, normalized=True)[0],
        law_rows(R_PSI, group, "psi", m, normalized=True)[0],
    ])
    rhs = np.concatenate([cochain_exponents(quotient.phi, m), cochain_exponents(quotient.R, m)])
    solution = solve_mod(rows, rhs, m)
    if solution is None:
        return None
    exponents = np.zeros(group.tuple_count(2), dtype=np.int64)
    exponents[nondegenerate(group, 2)] = solution
    psi = cochain_from_exponents(group, 2, exponents, m)
    rebuilt = abelian_coboundary(psi)
    if rebuilt.phi != quotient.phi or rebuilt.R != quotient.R:
        raise RuntimeError("linear engine returned an invalid witness")
    return psi


# ----------------------------------------------------------------- #
# mu_m R-matrices over a fixed cocycle, counted over Z/m
# ----------------------------------------------------------------- #

def count_hexagon_solutions_mu(phi: Cochain, m: int = 4) -> int:
    """Number of mu_m-valued R-matrices solving both hexagons for phi.

    R is forced to 1 on pairs containing e.  The hexagons are linear in
    the exponents of the other (|G|-1)^2 entries, so the solutions are
    empty or a coset of the kernel over Z/m, which has as many elements.
    """
    group = phi.group
    known = {"phi": cochain_exponents(phi, m)}
    blocks = [law_rows(hexagon, group, "R", m, known, normalized=True) for hexagon in HEXAGONS]
    matrix = np.vstack([a for a, _ in blocks])
    if solve_mod(matrix, np.concatenate([b for _, b in blocks]), m) is None:
        return 0
    return module_size(kernel_mod(matrix, m), m)


# ----------------------------------------------------------------- #
# matrix-level coherence oracle
# ----------------------------------------------------------------- #

def _compose(after: dict, before: dict) -> dict:
    """after o before for monomial maps: basis tuple -> (image tuple, coefficient)."""
    composite = {}
    for key, (mid, coeff) in before.items():
        image, c2 = after[mid]
        composite[key] = (image, coeff * c2)
    return composite


def categorical_pentagon_check(phi: Cochain) -> bool:
    """Pentagon coherence on four regular graded spaces, by composing monomial maps."""
    if phi.degree != 3:
        raise ValueError("expected a degree-3 cochain")
    keys = list(phi.group.tuples(4))
    f = dict(zip(phi.group.tuples(3), phi.values))
    outer = {k: (k, f[(k[0] * k[1], k[2], k[3])]) for k in keys}
    inner = {k: (k, f[(k[0], k[1], k[2] * k[3])]) for k in keys}
    first = {k: (k, f[(k[0], k[1], k[2])]) for k in keys}
    middle = {k: (k, f[(k[0], k[1] * k[2], k[3])]) for k in keys}
    last = {k: (k, f[(k[1], k[2], k[3])]) for k in keys}
    return _compose(inner, outer) == _compose(last, _compose(middle, first))


def categorical_hexagon_check(phi: Cochain, R: Cochain) -> bool:
    """Both hexagon diagrams on three regular graded spaces, by composing monomial maps."""
    _require_pair(phi, R)
    keys = list(phi.group.tuples(3))
    f = dict(zip(keys, phi.values))
    r = dict(zip(phi.group.tuples(2), R.values))
    assoc = {k: (k, f[k]) for k in keys}
    assoc_inv = {k: (k, f[k].inv()) for k in keys}
    braid_first_past_rest = {k: ((k[1], k[2], k[0]), r[(k[0], k[1] * k[2])]) for k in keys}
    braid_left_pair = {k: ((k[1], k[0], k[2]), r[(k[0], k[1])]) for k in keys}
    braid_right_pair = {k: ((k[0], k[2], k[1]), r[(k[1], k[2])]) for k in keys}
    lhs = _compose(assoc, _compose(braid_first_past_rest, assoc))
    rhs = _compose(braid_right_pair, _compose(assoc, braid_left_pair))
    if lhs != rhs:
        return False

    braid_rest_past_last = {k: ((k[2], k[0], k[1]), r[(k[0] * k[1], k[2])]) for k in keys}
    lhs = _compose(assoc_inv, _compose(braid_rest_past_last, assoc_inv))
    rhs = _compose(braid_left_pair, _compose(assoc_inv, braid_right_pair))
    return lhs == rhs

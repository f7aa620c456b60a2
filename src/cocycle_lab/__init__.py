"""Exact classification of monoidal and braided structures on graded vector spaces.

The package computes, over exact cyclotomic arithmetic, the 3-cocycles and
R-matrices that classify (braided) monoidal structures on vector spaces
graded by small abelian groups, with the Klein group C2xC2 worked out in
full: the happy-cocycle parametrization, coboundary witnesses, the
32-element braiding census with its quadratic-form labels, and the derived
reassociators and twisted weak Hopf structures on the group algebras.
"""

from .braidings import (
    AbelianCocycle,
    abelian_coboundary,
    abelian_cohomologous,
    categorical_hexagon_check,
    categorical_pentagon_check,
    cyclic_braiding,
    enumerate_klein_braidings,
    is_abelian_cocycle,
    is_quadratic_form,
    is_symmetric,
    klein_braiding_phiX,
    klein_braiding_trivial,
    qf_label,
    trace,
)
from .cochains import (
    Cochain,
    CohomologyReport,
    boundary_matrix,
    cohomology,
    cyclic_phi_q,
    cyclic_qabc,
    cyclic_qabc_coboundary_witness,
    delta2,
    delta3,
    is_coboundary_mu,
    is_cocycle3,
    is_normalized2,
    is_normalized3,
    normalize3,
)
from .groups import FiniteAbelianGroup, GroupElement, cyclic, klein, tuples
from .hopf import (
    GroupAlgebraTensor,
    WeakBraidedHopf,
    check_weak_hopf,
    cyclic_power_twist,
    is_harrison_3cocycle,
    klein_diagonal_twist,
    klein_mixed_twist,
    klein_reassociator,
    reassociator_phi_l,
    weak_hopf_build,
)
from .klein import (
    HappyParams,
    KleinCohomologyClass,
    classify,
    coboundary_witness_g,
    coboundary_witness_h,
    g_b,
    h_a,
    happify,
    happy_params,
    is_happy,
    phi_X,
    reconstruct,
    transport_t,
)
from .scalars import CycScalar, as_root_exponent, is_square_in_mu, root_of_unity

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]

"""Wonderful compactification strata and diagonal degenerations of G/P.

Given a Dynkin type, a parabolic subset I and a stratum subset J, this
package computes the orbit lattice of the wonderful compactification of
the adjoint group and the full catalogue of irreducible components of the
corresponding degeneration of the diagonal in G/P x G/P, together with
brute-force oracles for every nontrivial formula.
"""

from .cosets import Quotient, QuotientData, double_max_rep, double_min_reps, min_reps, quotient
from .degen import (
    FiberComponent,
    UnfaithfulActionError,
    closed_fiber,
    component_count,
    fiber_components,
    fixed_point_profile,
    full_flag_fiber,
    weight_set,
)
from .projgor import (
    Composition,
    PnComponent,
    RationalPolynomial,
    composition_from_J,
    diag_hilbert_poly,
    gorenstein_obstruction,
    pairwise_intersection_dim,
    pn_components,
)
from .rootsys import (
    DynkinError,
    DynkinType,
    RootSystem,
    WeylOrderCapError,
    build_root_system,
    parse_dynkin,
)
from .sweep import SweepReport, run_sweep
from .weyl import WeylElement, WeylGroup, generate
from .wonderful import OrbitDescriptor, orbit, orbit_lattice

__version__ = "0.1.0"

__all__ = [
    "Composition",
    "DynkinError",
    "DynkinType",
    "FiberComponent",
    "OrbitDescriptor",
    "PnComponent",
    "Quotient",
    "QuotientData",
    "RationalPolynomial",
    "RootSystem",
    "SweepReport",
    "UnfaithfulActionError",
    "WeylElement",
    "WeylGroup",
    "WeylOrderCapError",
    "build_root_system",
    "closed_fiber",
    "component_count",
    "composition_from_J",
    "diag_hilbert_poly",
    "double_max_rep",
    "double_min_reps",
    "fiber_components",
    "fixed_point_profile",
    "full_flag_fiber",
    "generate",
    "gorenstein_obstruction",
    "min_reps",
    "orbit",
    "orbit_lattice",
    "pairwise_intersection_dim",
    "parse_dynkin",
    "pn_components",
    "quotient",
    "run_sweep",
    "weight_set",
]

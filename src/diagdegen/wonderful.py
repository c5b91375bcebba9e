"""Orbit stratification of the wonderful compactification of an adjoint group.

The compactification of a semisimple adjoint group G carries exactly one
G x G orbit per subset J of the simple roots, ordered by inclusion: J =
Delta is the open orbit (G itself), J = empty the closed one.  Each
descriptor below records the Levi type attached to J and the dimension
bookkeeping dim O_J = dim G - rank + |J|, derived from the stabilizer:
unipotent radicals of an opposite parabolic pair extended by diag(L_J)
and two copies of the center of L_J.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .rootsys import SIZE_CAP, DynkinType, RootSystem, WeylOrderCapError, all_subsets


class OrbitDescriptor(NamedTuple):
    """One boundary orbit O_J with its Levi type and dimension data."""

    J: frozenset[int]
    levi_type: DynkinType
    unipotent_count: int
    stab_dim: int
    orbit_dim: int


def orbit(rs: RootSystem, J: Iterable[int]) -> OrbitDescriptor:
    """Describe the orbit attached to the simple subset J.

    The Levi roots are Phi_J and the parabolic adds every positive root.
    Since a root's coordinates share one sign, these are the roots that
    pair to 0 and to >= 0 with the cocharacter that is 0 on J, 1 off J.
    Only |Phi_J| enters the dimensions; it is read from the Levi type.
    """
    J = rs.simple_subset(J)
    levi_type = rs.subdiagram_type(J)
    n_levi = levi_type.n_roots
    unipotent = rs.n_positive - n_levi // 2
    dim_g = rs.n_roots + rs.rank
    # unipotent radicals of P_J- x P_J, then diag(L_J) (C_J x C_J)
    stab = 2 * unipotent + (n_levi + rs.rank) + (rs.rank - len(J))
    return OrbitDescriptor(
        J=J,
        levi_type=levi_type,
        unipotent_count=unipotent,
        stab_dim=stab,
        orbit_dim=2 * dim_g - stab,
    )


def orbit_lattice(rs: RootSystem) -> list[OrbitDescriptor]:
    """All 2^rank orbits, ordered by |J| and then lexicographic J; at most SIZE_CAP."""
    if 2**rs.rank > SIZE_CAP:
        raise WeylOrderCapError(f"{rs.dynkin}: number of orbits 2^{rs.rank} exceeds cap {SIZE_CAP}")
    return [orbit(rs, J) for J in all_subsets(rs.rank)]

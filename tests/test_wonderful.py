"""Orbit lattice of the wonderful compactification."""

import pytest

from conftest import SWEEP_TYPES, all_subsets
from diagdegen import build_root_system, orbit, orbit_lattice


def test_open_orbit_is_the_group():
    rs = build_root_system("A2")
    o = orbit(rs, {1, 2})
    assert o.orbit_dim == rs.n_roots + rs.rank == 8
    assert o.stab_dim == 8  # diag(G) inside G x G


def test_a1_closed_orbit():
    rs = build_root_system("A1")
    o = orbit(rs, ())
    assert o.orbit_dim == 2  # G/B x G/B for PGL(2)
    assert str(o.levi_type) == ""
    assert o.unipotent_count == 1


def test_a2_orbit_example():
    rs = build_root_system("A2")
    o = orbit(rs, {1})
    assert o.orbit_dim == 7
    assert o.stab_dim + o.orbit_dim == 2 * (rs.n_roots + rs.rank)
    assert str(o.levi_type) == "A1"


@pytest.mark.parametrize(
    "type_str,dims",
    [("A1", [2, 3]), ("A2", [6, 7, 7, 8])],
)
def test_orbit_lattice_dims(type_str, dims):
    rs = build_root_system(type_str)
    assert [o.orbit_dim for o in orbit_lattice(rs)] == dims


@pytest.mark.parametrize("type_str", SWEEP_TYPES + ["E6"])
def test_orbit_roots_are_the_lambda_pairing_sets(type_str):
    # the lemma of orbit's docstring: pair each root with the cocharacter
    # that is 0 on J, 1 off J
    rs = build_root_system(type_str)
    positives = set(rs.positive_indices())
    for J in all_subsets(rs.rank):
        pairing = [
            sum(c for j, c in enumerate(rs.coords(r), 1) if j not in J)
            for r in range(rs.n_roots)
        ]
        levi = rs.sub_system(J)
        assert levi == {r for r, p in enumerate(pairing) if p == 0}
        assert positives | levi == {r for r, p in enumerate(pairing) if p >= 0}


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_orbit_lattice_shape(type_str):
    rs = build_root_system(type_str)
    lattice = orbit_lattice(rs)
    assert len(lattice) == 2**rs.rank
    dim_g = rs.n_roots + rs.rank
    by_j = {o.J: o for o in lattice}
    for o in lattice:
        assert o.orbit_dim == dim_g - rs.rank + len(o.J)
        assert o.stab_dim + o.orbit_dim == 2 * dim_g
        # strict monotonicity along single-step inclusions
        for j in rs.delta() - o.J:
            assert by_j[o.J | {j}].orbit_dim == o.orbit_dim + 1
    assert by_j[frozenset()].orbit_dim == rs.n_roots
    assert by_j[rs.delta()].orbit_dim == dim_g
    # codimension-one boundary divisors, one per simple root
    divisors = [o for o in lattice if o.orbit_dim == dim_g - 1]
    assert len(divisors) == rs.rank


@pytest.mark.parametrize("type_str", SWEEP_TYPES + ["E6", "E7", "E8", "B3xC3", "G2xA1"])
def test_parabolic_and_levi_roots(type_str):
    # |Phi_J| from the degrees of the Levi type against the roots supported on J
    rs = build_root_system(type_str)
    for J in all_subsets(rs.rank):
        o = orbit(rs, J)
        assert o.unipotent_count == rs.n_positive - len(rs.sub_system(J)) // 2


@pytest.mark.parametrize("type_str", ["A3", "E6"])
def test_orbit_lattice_lists_no_roots(type_str):
    rs = build_root_system(type_str)
    orbit_lattice(rs)
    assert rs._sub_systems == {}


def test_levi_types_product():
    rs = build_root_system("B3")
    assert str(orbit(rs, {2, 3}).levi_type) == "B2"
    assert str(orbit(rs, {1, 3}).levi_type) == "A1xA1"
    assert str(orbit(rs, ()).levi_type) == ""

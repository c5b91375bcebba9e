"""Root system construction, reflection arithmetic, and diagram queries."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEEP_TYPES, all_subsets
from diagdegen import (
    DynkinError,
    DynkinType,
    WeylOrderCapError,
    build_root_system,
    generate,
    parse_dynkin,
)
from diagdegen.oracles import (
    faithful_by_orbits,
    simple_coords_to_vector,
    type_a_positive_vectors,
)
from diagdegen.rootsys import simple_subset


def test_parse_single_component():
    t = parse_dynkin("A2")
    assert t.components == (("A", 2),)
    assert t.rank == 2


def test_parse_product():
    t = parse_dynkin("B2xA1")
    assert t.components == (("B", 2), ("A", 1))
    assert t.rank == 3
    assert str(t) == "B2xA1"


@pytest.mark.parametrize(
    "bad",
    ["", "x", "A", "3A", "A2x", "A2xx A1", "Z4", "a2"],
)
def test_parse_syntax_errors(bad):
    with pytest.raises(DynkinError):
        parse_dynkin(bad)


@pytest.mark.parametrize("bad", ["H3", "H4", "I2"])
def test_parse_non_crystallographic(bad):
    with pytest.raises(DynkinError, match="non-crystallographic"):
        parse_dynkin(bad)


@pytest.mark.parametrize("bad", ["A0", "B1", "C2", "D3", "E5", "E9", "F3", "G3"])
def test_parse_inadmissible_rank(bad):
    with pytest.raises(DynkinError):
        parse_dynkin(bad)


@pytest.mark.parametrize("family", ["Q", "H", "I", "Z"])
def test_dynkin_type_refuses_unknown_families(family):
    # DynkinType validates in __new__, not only behind parse_dynkin
    with pytest.raises(DynkinError, match=f"{family}3: unknown family '{family}'"):
        DynkinType(((family, 3),))
    with pytest.raises(DynkinError, match="unknown family"):
        DynkinType((("A", 2), (family, 3)))


@pytest.mark.parametrize("value", [True, 3.0, "3", None], ids=repr)
def test_rank_and_index_must_be_an_int(value):
    # True would pass as 1, 3.0 would build "A3.0", "3" would fail in a comparison
    with pytest.raises(DynkinError, match=f"A: rank {value!r} is not an int"):
        DynkinType((("A", value),))
    with pytest.raises(DynkinError, match="is not an int"):
        DynkinType((("B", 2), ("A", value)))
    with pytest.raises(ValueError, match=f"index {value!r} out of range 1..3"):
        simple_subset(3, [value])
    with pytest.raises(ValueError):
        build_root_system("A3").subdiagram_type((2, value))


def test_empty_type_is_the_levi_type_of_the_empty_subset():
    empty = DynkinType(())
    assert (empty.rank, empty.n_roots, empty.weyl_order(), str(empty)) == (0, 0, 1, "")
    for type_str in ("A1", "B3", "F4xG2"):
        assert build_root_system(type_str).subdiagram_type(()) == empty


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("A"), st.integers(1, 6)),
            st.tuples(st.just("B"), st.integers(2, 5)),
            st.tuples(st.just("C"), st.integers(3, 5)),
            st.tuples(st.just("D"), st.integers(4, 6)),
            st.tuples(st.just("G"), st.just(2)),
        ),
        min_size=1,
        max_size=3,
    )
)
def test_parse_roundtrip(components):
    text = "x".join(f"{f}{n}" for f, n in components)
    t = parse_dynkin(text)
    assert str(t) == text
    assert t.components == tuple(components)


def test_weyl_order_cap_refuses_e7_e8():
    # E7 and E8 build; only enumerating their Weyl groups is refused.
    for big, n_positive in (("E7", 63), ("E8", 120)):
        rs = build_root_system(big)
        assert rs.n_positive == n_positive
        with pytest.raises(WeylOrderCapError, match="exceeds cap 1000000"):
            generate(rs)
    assert build_root_system("E6").n_positive == 36


@pytest.mark.parametrize("type_str", ["A22", "A1" + "xA1" * 128, "B2xD100000"],
                         ids=["A22", "A1^129", "B2xD100000"])
def test_root_cap_refuses_before_building(type_str):
    with pytest.raises(WeylOrderCapError, match="number of roots exceeds cap 256"):
        build_root_system(type_str)


def test_root_cap_admits_256_roots():
    assert build_root_system("A1" + "xA1" * 127).n_roots == 256
    assert build_root_system("A15").n_roots == 240


@pytest.mark.parametrize("type_str", [
    "A1", "A2", "A5", "A15", "B2", "B3", "B7", "C3", "C6", "D4", "D5", "D9", "E6", "E7", "E8",
    "F4", "G2", "A2xA1", "B2xA1", "G2xA1", "B3xC3", "A1xE7", "A2xA2xA2", "D4xG2xA1",
])
def test_degree_formula_counts_the_closure(type_str):
    # DynkinType.n_roots, 2 * sum(d - 1), against the roots the reflection closure finds
    assert parse_dynkin(type_str).n_roots == build_root_system(type_str).n_roots


def test_a2_roots():
    rs = build_root_system("A2")
    assert rs.n_roots == 6
    positives = {rs.coords(r) for r in rs.positive_indices()}
    assert positives == {(1, 0), (0, 1), (1, 1)}


def test_b2_roots_bourbaki():
    rs = build_root_system("B2")
    positives = {rs.coords(r) for r in rs.positive_indices()}
    assert positives == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_g2_root_count():
    assert build_root_system("G2").n_roots == 12


@pytest.mark.parametrize("n", range(1, 7))
def test_type_a_against_concrete_model(n):
    # independent oracle: the e_i - e_j realization of A_n
    rs = build_root_system(f"A{n}")
    assert rs.n_positive == n * (n + 1) // 2
    got = {simple_coords_to_vector(rs.coords(r)) for r in rs.positive_indices()}
    assert got == type_a_positive_vectors(n)


def test_reflect_examples():
    a2 = build_root_system("A2")
    a1 = a2.simple_index(1)
    a2_ = a2.simple_index(2)
    assert a2.reflect(1, a1) == a2.neg(a1)
    assert a2.coords(a2.reflect(1, a2_)) == (1, 1)
    b2 = build_root_system("B2")
    assert b2.coords(b2.reflect(2, b2.simple_index(1))) == (1, 2)


@pytest.mark.parametrize("type_str", SWEEP_TYPES + ["F4", "B2xA1"])
def test_closure_and_negation(type_str):
    rs = build_root_system(type_str)
    for r in range(rs.n_roots):
        assert rs.neg(rs.neg(r)) == r
        assert rs.coords(rs.neg(r)) == tuple(-c for c in rs.coords(r))
        for i in range(1, rs.rank + 1):
            assert 0 <= rs.reflect(i, r) < rs.n_roots


@pytest.mark.parametrize(
    "type_str", ["A4", "B3", "C3", "D4", "G2", "F4", "E6", "E7", "E8", "B2xA1"]
)
def test_reflection_table_is_the_cartan_formula(type_str):
    rs = build_root_system(type_str)
    assert len(rs.reflections) == rs.rank
    for i in range(1, rs.rank + 1):
        table = rs.reflections[i - 1]
        assert len(table) == rs.n_roots
        for r in range(rs.n_roots):
            coords = list(rs.coords(r))
            pairing = sum(c * rs.cartan[j][i - 1] for j, c in enumerate(coords))
            coords[i - 1] -= pairing
            assert rs.reflect(i, r) == table[r] == rs.root_index(coords)
            assert table[table[r]] == r
        alpha = rs.simple_index(i)
        assert table[alpha] == rs.neg(alpha)


@pytest.mark.parametrize("type_str", SWEEP_TYPES + ["F4"])
def test_root_invariants(type_str):
    rs = build_root_system(type_str)
    for r in range(rs.n_roots):
        coords = rs.coords(r)
        assert any(coords)
        assert all(c >= 0 for c in coords) or all(c <= 0 for c in coords)
        support = {j + 1 for j, c in enumerate(coords) if c}
        # support is connected: it sits inside one diagram component and
        # the induced subdiagram on it is connected
        assert len(rs.subdiagram_type(support).components) == 1 or len(support) == 1


def test_cartan_shape():
    rs = build_root_system("B2xA1")
    assert all(rs.cartan[i][i] == 2 for i in range(rs.rank))
    assert all(
        rs.cartan[i][j] <= 0 for i in range(rs.rank) for j in range(rs.rank) if i != j
    )


def test_sub_system():
    a2 = build_root_system("A2")
    assert a2.sub_system(()) == frozenset()
    one = a2.sub_system({1})
    assert {a2.coords(r) for r in one} == {(1, 0), (-1, 0)}
    a3 = build_root_system("A3")
    sub = a3.sub_system({1, 2})
    assert len(sub) == 6
    # oracle: closure of {alpha_1, alpha_2} under their own reflections
    closure = {a3.simple_index(1), a3.simple_index(2)}
    stack = list(closure)
    while stack:
        r = stack.pop()
        for i in (1, 2):
            r2 = a3.reflect(i, r)
            if r2 not in closure:
                closure.add(r2)
                stack.append(r2)
    assert sub == frozenset(closure)


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_lambda_pairing_sign(type_str):
    # the cocharacter that is 0 on J, 1 off J vanishes on Phi_J and is positive
    # on every other positive root: the lemma in wonderful.orbit's docstring
    rs = build_root_system(type_str)
    for J in all_subsets(rs.rank):
        phi_j = rs.sub_system(J)
        for r in rs.positive_indices():
            pairing = sum(c for j, c in enumerate(rs.coords(r), 1) if j not in J)
            if r in phi_j:
                assert pairing == 0
            else:
                assert pairing > 0


def test_is_faithful_examples():
    assert build_root_system("A2").is_faithful({1})
    assert not build_root_system("A1xA1").is_faithful({1})
    assert build_root_system("A3").is_faithful({1, 3})


@pytest.mark.parametrize(
    "type_str", SWEEP_TYPES + ["F4", "A1xA1", "A2xA1", "B2xA1"]
)
def test_is_faithful_matches_orbit_oracle(type_str):
    rs = build_root_system(type_str)
    for I in all_subsets(rs.rank):
        assert rs.is_faithful(I) == faithful_by_orbits(rs, I)


@pytest.mark.parametrize(
    "type_str,J,expected",
    [
        ("B3", {2, 3}, "B2"),
        ("B3", {1, 2}, "A2"),
        ("C3", {2, 3}, "B2"),
        ("C3", {1, 2, 3}, "C3"),
        ("F4", {1, 2}, "A2"),
        ("F4", {2, 3}, "B2"),
        ("F4", {3, 4}, "A2"),
        ("F4", {1, 2, 3, 4}, "F4"),
        ("D4", {1, 3, 4}, "A1xA1xA1"),
        ("D4", {1, 2, 3}, "A3"),
        ("D4", {1, 2, 3, 4}, "D4"),
        ("G2", {1, 2}, "G2"),
        ("G2", {1}, "A1"),
        ("E6", {1, 3, 4, 5, 6}, "A5"),
        ("E6", {2, 3, 4, 5}, "D4"),
        ("E6", {1, 2, 3, 4, 5, 6}, "E6"),
        ("A4", {1, 2, 4}, "A2xA1"),
        ("B2xA1", {1, 2, 3}, "B2xA1"),
        ("E6", {1, 2, 3, 4, 5}, "D5"),
        ("E7", {1, 2, 3, 4, 5, 6, 7}, "E7"),
        ("E8", {1, 2, 3, 4, 5, 6, 7, 8}, "E8"),
        ("F4", {1, 2, 3}, "B3"),
        ("F4", {2, 3, 4}, "C3"),
        ("B4", {2, 3, 4}, "B3"),
        ("C4", {2, 3, 4}, "C3"),
    ],
)
def test_subdiagram_type(type_str, J, expected):
    rs = build_root_system(type_str)
    assert str(rs.subdiagram_type(J)) == expected


CLASSIFIER_TYPES = (
    [f"A{n}" for n in range(1, 9)] + [f"B{n}" for n in range(2, 9)]
    + [f"C{n}" for n in range(3, 9)] + [f"D{n}" for n in range(4, 9)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


@pytest.mark.parametrize("type_str", CLASSIFIER_TYPES)
def test_subdiagram_type_counts_the_roots_of_every_subset(type_str):
    # The Levi type of J fixes |Phi_J| by its degrees and |J| by its rank; the
    # roots of the closure supported on J count Phi_J independently.
    rs = build_root_system(type_str)
    for J in all_subsets(rs.rank):
        t = rs.subdiagram_type(J)
        assert t.n_roots == len(rs.sub_system(J))
        assert t.rank == len(J)
    assert rs.subdiagram_type(rs.delta()) == rs.dynkin


def _levi_by_runs(family: str, n: int, J) -> DynkinType:
    """The Levi type of J in B_n, C_n, F4 or G2, from its maximal runs of consecutive nodes."""
    runs: list[list[int]] = []
    for j in sorted(J):
        if runs and runs[-1][-1] == j - 1:
            runs[-1].append(j)
        else:
            runs.append([j])
    over_the_double_bond = {(1, 2, 3): ("B", 3), (2, 3, 4): ("C", 3), (2, 3): ("B", 2),
                            (1, 2, 3, 4): ("F", 4)}
    out = []
    for run in runs:
        m = len(run)
        if family in "BC" and m >= 2 and run[-1] == n:
            out.append(("B", 2) if m == 2 else (family, m))
        elif family == "F" and tuple(run) in over_the_double_bond:
            out.append(over_the_double_bond[tuple(run)])
        elif family == "G" and m == 2:
            out.append(("G", 2))
        else:
            out.append(("A", m))
    return DynkinType(tuple(out))


@pytest.mark.parametrize(
    "type_str", [f"B{n}" for n in range(2, 9)] + [f"C{n}" for n in range(3, 9)] + ["F4", "G2"])
def test_subdiagram_type_names_the_family_of_every_subset(type_str):
    # B_m and C_m have the same |Phi_J| and rank, so only the family tells the
    # long/short reading of the double bond apart.
    rs = build_root_system(type_str)
    family, n = rs.dynkin.components[0]
    for J in all_subsets(n):
        assert rs.subdiagram_type(J) == _levi_by_runs(family, n, J), sorted(J)


def test_root_index_rejects_non_roots():
    rs = build_root_system("A2")
    with pytest.raises(ValueError):
        rs.root_index((2, 0))


@settings(max_examples=60)
@given(st.sampled_from(SWEEP_TYPES), st.data())
def test_reflection_is_involution(type_str, data):
    rs = build_root_system(type_str)
    r = data.draw(st.integers(0, rs.n_roots - 1))
    i = data.draw(st.integers(1, rs.rank))
    assert rs.reflect(i, rs.reflect(i, r)) == r
    assert rs.reflect(i, rs.neg(r)) == rs.neg(rs.reflect(i, r))

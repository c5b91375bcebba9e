"""Quotient representatives, double cosets, and Schubert cell dimensions."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BRUHAT_TYPES, SWEEP_TYPES, all_subsets, faithful_subsets, from_word
from diagdegen import build_root_system, component_count, double_min_reps, min_reps, quotient
from diagdegen.cosets import double
from diagdegen.oracles import (
    coset_min_reps,
    double_coset_counts,
    double_cosets,
    subgroup_ids,
    weight_orbit,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "G2", "A1xA1", "A2xA1"]


def test_min_reps_examples(groups):
    g = groups("A2")
    assert min_reps(g, ()).reps == tuple(range(g.order))
    q = min_reps(g, {2})
    assert [g.reduced_word(w) for w in q.reps] == [(), (1,), (2, 1)]
    assert min_reps(g, {1, 2}).reps == (0,)


def test_min_reps_is_computed_once_per_I(groups):
    g = groups("B3")
    first = min_reps(g, {1, 3})
    second = min_reps(g, [3, 1])
    assert second == first
    assert second is not first
    assert second.group is g and second.I == frozenset({1, 3})


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_min_reps_against_bruteforce(type_str, groups):
    g = groups(type_str)
    for I in all_subsets(g.rs.rank):
        q = min_reps(g, I)
        assert q.reps == coset_min_reps(g, I)
        assert len(q.reps) * len(subgroup_ids(g, I)) == g.order


def test_canonicalize_examples(groups):
    g = groups("A2")
    q = min_reps(g, {2})
    for w in q.reps:
        assert q.canonicalize(w) == w
    assert q.canonicalize(g.simple(2)) == 0
    assert q.canonicalize(from_word(g, (1, 2))) == g.simple(1)


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_canonicalize_lands_in_coset(type_str, groups):
    g = groups(type_str)
    for I in all_subsets(g.rs.rank):
        q = min_reps(g, I)
        sub = subgroup_ids(g, I)
        for w in range(g.order):
            c = q.canonicalize(w)
            assert c in q
            # same right coset: c^-1 w lies in W_I
            assert g.multiply(g.inverse(c), w) in sub


def test_double_min_reps_examples(groups):
    g = groups("A2")
    reps = double_min_reps(g, {1}, {2})
    assert [g.reduced_word(w) for w in reps] == [(), (2, 1)]
    assert double_min_reps(g, (), {2}) == min_reps(g, {2}).reps
    assert double_min_reps(g, {1, 2}, {1, 2}) == (0,)


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_double_min_reps_against_bruteforce(type_str, groups):
    g = groups(type_str)
    subsets = all_subsets(g.rs.rank)
    for I in subsets:
        for J in subsets:
            reps = double_min_reps(g, J, I)
            assert reps == coset_min_reps(g, I, J)
            assert len(reps) == len(double_cosets(g, J, I))


@pytest.mark.parametrize("type_str", SWEEP_TYPES + ["F4", "A2xA1"])
def test_double_coset_counts_match_each_route(type_str, groups):
    # three independent routes to |W_J\W/W_I|: the J-dominant weights of the
    # weight orbit, the two-sided closure in W and the walk of W^I
    g = groups(type_str)
    subsets = all_subsets(g.rs.rank)
    for I in faithful_subsets(g.rs):
        assert coset_min_reps(g, I) == min_reps(g, I).reps
        counts = double_coset_counts(g.rs, I)
        assert list(counts) == subsets
        for J in subsets:
            blocks = double_cosets(g, J, I)
            assert sorted(w for b in blocks for w in b) == list(range(g.order))
            assert counts[J] == len(blocks) == component_count(g, I, J)


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_double_min_reps_inversion_exchange(type_str, groups):
    g = groups(type_str)
    subsets = all_subsets(g.rs.rank)
    for I in subsets:
        for J in subsets:
            lhs = set(double_min_reps(g, J, I))
            rhs = {g.inverse(w) for w in double_min_reps(g, I, J)}
            assert lhs == rhs


def test_cell_dims_examples(groups):
    g = groups("A2")
    q = min_reps(g, {2})
    assert q.dim_x == 2
    assert q.reps[:2] == (0, g.simple(1))
    assert q.walk.dims == ((0, 2), (1, 1), (2, 0))
    q0 = min_reps(g, ())
    assert q0.reps[-1] == g.longest_id
    assert q0.walk.dims[-1] == (3, 0)


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_cell_dims_postconditions(type_str, groups):
    g = groups(type_str)
    for I in all_subsets(g.rs.rank):
        q = min_reps(g, I)
        for w, (plus, minus) in zip(q.reps, q.walk.dims, strict=True):
            assert plus == len(g.words[w])
            assert plus + minus == q.dim_x


@pytest.mark.parametrize("type_str", SWEEP_TYPES + ["F4"])
def test_bruhat_restriction_consistency(type_str, groups):
    # u <= w in W with w in W^I implies canonicalize(u) <= w
    g = groups(type_str)
    rows = g.bruhat_rows()
    for I in all_subsets(g.rs.rank):
        q = min_reps(g, I)
        for w in q.reps:
            m = rows[w]
            while m:
                b = m & -m
                u = b.bit_length() - 1
                assert (rows[w] >> q.canonicalize(u)) & 1
                m ^= b


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_faithful_unipotent_intersection_is_trivial(type_str, groups):
    # for faithful I the positive roots kept by every w in W^I vanish
    g = groups(type_str)
    rs = g.rs
    for I in faithful_subsets(rs):
        q = min_reps(g, I)
        phi_i = rs.sub_system(I)
        common = set(rs.positive_indices())
        for w in q.reps:
            inv = g.perms[g.inverse(w)]
            common &= {
                a for a in common
                if rs.is_positive(inv[a]) or inv[a] in phi_i
            }
        assert common == set()


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_faithful_simple_root_coverage(type_str, groups):
    # for faithful I every simple root is moved off Phi_I by some rep
    g = groups(type_str)
    rs = g.rs
    for I in faithful_subsets(rs):
        q = min_reps(g, I)
        phi_i = rs.sub_system(I)
        for i in range(1, rs.rank + 1):
            a = rs.simple_index(i)
            assert any(
                g.perms[g.inverse(w)][a] not in phi_i for w in q.reps
            )


@settings(max_examples=60, deadline=None)
@given(type_str=st.sampled_from(SMALL_TYPES), data=st.data())
def test_canonicalize_is_constant_on_cosets(groups, type_str, data):
    g = groups(type_str)
    rank = g.rs.rank
    I = frozenset(data.draw(st.sets(st.integers(1, rank))))
    q = min_reps(g, I)
    w = data.draw(st.integers(0, g.order - 1))
    c = q.canonicalize(w)
    for i in sorted(I):
        assert q.canonicalize(g.gen_table[w][i - 1]) == c


# -- the walk of W^I ----------------------------------------------------------


@pytest.mark.parametrize("type_str", BRUHAT_TYPES)
def test_walk_reps_match_coset_oracle(type_str, groups):
    g = groups(type_str)
    for I in all_subsets(g.rs.rank):
        assert min_reps(g, I).reps == coset_min_reps(g, I)


@pytest.mark.parametrize("type_str", BRUHAT_TYPES)
def test_walk_words_and_lengths_match_group(type_str, groups):
    g = groups(type_str)
    for I in all_subsets(g.rs.rank):
        q = min_reps(g, I)
        walk = q.walk
        assert walk.words == tuple(g.reduced_word(w) for w in q.reps)
        assert tuple(map(len, walk.words)) == tuple(len(g.words[w]) for w in q.reps)


@pytest.mark.parametrize("type_str", BRUHAT_TYPES)
def test_walk_left_table_is_the_left_action(type_str, groups):
    g = groups(type_str)
    rank = g.rs.rank
    for I in all_subsets(rank):
        q = min_reps(g, I)
        for k, w in enumerate(q.reps):
            for a in range(1, rank + 1):
                entry = q.reps[q.walk.left[k][a - 1]]
                assert entry == q.canonicalize(g.multiply(g.simple(a), w))


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_walk_left_table_lands_in_coset(type_str, groups):
    # independent of canonicalize: (s_a w)^-1 times the entry lies in W_I
    g = groups(type_str)
    rank = g.rs.rank
    for I in all_subsets(rank):
        q = min_reps(g, I)
        sub = subgroup_ids(g, I)
        for k, w in enumerate(q.reps):
            for a in range(1, rank + 1):
                v = g.multiply(g.simple(a), w)
                entry = q.reps[q.walk.left[k][a - 1]]
                assert g.multiply(g.inverse(v), entry) in sub


@pytest.mark.parametrize("type_str", SMALL_TYPES + ["B4", "C3", "D4"])
def test_walk_double_matches_oracle(type_str, groups):
    g = groups(type_str)
    subsets = all_subsets(g.rs.rank)
    for I in subsets:
        q = min_reps(g, I)
        for J in subsets:
            reps = tuple(q.reps[k] for k in double(g.rs, q.walk, J))
            assert reps == coset_min_reps(g, I, J)


def test_walk_of_e6_maximal_parabolic():
    # W(E6)/W(D5): the 27 lines, walked without enumerating W(E6)
    q = quotient(build_root_system("E6"), {2, 3, 4, 5, 6})
    lengths = [len(word) for word in q.words]
    assert len(lengths) == 27 and q.dim_x == 16
    assert lengths == sorted(lengths) and lengths[-1] == 16
    assert q.words[:3] == ((), (1,), (3, 1))
    assert all(plus == length for (plus, _), length in zip(q.dims, lengths))


def _small_e_quotients():
    # Every faithful I of E6, E7, E8 with |W^I| <= 2 500: 26 + 7 + 2 quotients.
    out = []
    for type_str in ("E6", "E7", "E8"):
        rs = build_root_system(type_str)
        order = rs.dynkin.weyl_order()
        out.extend(
            pytest.param(type_str, I, id=f"{type_str}-{','.join(map(str, sorted(I)))}")
            for I in faithful_subsets(rs)
            if order // rs.subdiagram_type(I).weyl_order() <= 2500
        )
    return out


@pytest.mark.parametrize("type_str,I", _small_e_quotients())
def test_walk_matches_weight_orbit_on_e_types(type_str, I):
    rs = build_root_system(type_str)
    q = quotient(rs, I)
    orbit = weight_orbit(rs, I)
    assert sorted(orbit.values()) == [len(word) for word in q.words]
    counts = double_coset_counts(rs, I)
    for J in all_subsets(rs.rank):
        assert len(double(rs, q, J)) == counts[J]


def test_walk_words_match_generate_on_e6(groups):
    # Many printed words of these quotients have prefixes off W^I.
    g = groups("E6")
    quotients = [param.values[1] for param in _small_e_quotients() if param.values[0] == "E6"]
    assert len(quotients) == 26
    for I in quotients:
        q = min_reps(g, I)
        assert q.walk.words == tuple(g.reduced_word(w) for w in q.reps)


def test_weight_orbit_counts():
    assert len(_small_e_quotients()) == 35
    # The 27 lines on a cubic surface, the 56-dimensional E7 and the 240 roots of E8.
    assert len(weight_orbit(build_root_system("E6"), {2, 3, 4, 5, 6})) == 27
    assert len(weight_orbit(build_root_system("E7"), {1, 2, 3, 4, 5, 6})) == 56
    assert len(weight_orbit(build_root_system("E8"), {1, 2, 3, 4, 5, 6, 7})) == 240


def test_walk_memory_of_e8_quotient():
    # W(E8)/W(A7), 17 280 reps: the walk holds one layer beside what it returns.
    rs = build_root_system("E8")
    tracemalloc.start()
    try:
        q = quotient(rs, {1, 3, 4, 5, 6, 7, 8})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(q.words) == 17280
    assert peak < 16 * 10**6

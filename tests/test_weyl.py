"""Group enumeration, words, longest elements, and the Bruhat order."""

import gc
import weakref
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BRUHAT_TYPES, SWEEP_TYPES, all_subsets, from_word
from diagdegen import (
    build_root_system,
    double_min_reps,
    fiber_components,
    fixed_point_profile,
    generate,
    min_reps,
)
from diagdegen.oracles import (
    bruhat_rows_by_covers,
    inversions,
    one_line_permutation,
    subgroup_ids,
    w_orbit_in_subsystem,
)

SMALL_TYPES = ["A1", "A2", "A3", "B2", "B3", "G2", "A1xA1", "A2xA1"]


@pytest.mark.parametrize(
    "type_str,order",
    [("A1", 2), ("A2", 6), ("B2", 8), ("G2", 12), ("B3", 48), ("D4", 192),
     ("A1xA1", 4), ("F4", 1152)],
)
def test_orders(type_str, order, groups):
    assert groups(type_str).order == order


@pytest.mark.parametrize("n", range(1, 6))
def test_type_a_is_the_symmetric_group(n, groups):
    # oracle: one-line permutations with inversion counts
    g = groups(f"A{n}")
    lines = {}
    for w in range(g.order):
        line = one_line_permutation(g, w)
        assert inversions(line) == len(g.words[w])
        lines[w] = line
    assert sorted(lines.values()) == sorted(permutations(range(1, n + 2)))
    # the assignment is a homomorphism (sampled exhaustively for small n)
    if n <= 3:
        for u in range(g.order):
            for w in range(g.order):
                composed = tuple(lines[u][lines[w][k] - 1] for k in range(n + 1))
                assert composed == lines[g.multiply(u, w)]


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_group_laws(type_str, groups):
    g = groups(type_str)
    for w in range(g.order):
        assert g.multiply(0, w) == w == g.multiply(w, 0)
        assert g.multiply(w, g.inverse(w)) == 0
        assert len(g.words[g.inverse(w)]) == len(g.words[w])


def test_act_example(groups):
    g = groups("A2")
    rs = g.rs
    s1 = g.simple(1)
    assert g.perms[s1][rs.simple_index(2)] == rs.root_index((1, 1))


def test_inverse_by_word_reversal(groups):
    g = groups("A2")
    s1s2 = from_word(g, (1, 2))
    assert g.inverse(s1s2) == from_word(g, (2, 1))


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_perm_commutes_with_negation(type_str, groups):
    g = groups(type_str)
    rs = g.rs
    for w in range(g.order):
        for r in range(rs.n_roots):
            assert g.perms[w][rs.neg(r)] == rs.neg(g.perms[w][r])


def longest_by_scan(g, I):
    """The longest element of W_I, scanned from the subgroup's closure."""
    return max(subgroup_ids(g, I), key=lambda w: len(g.words[w]))


def test_longest_in_examples(groups):
    g = groups("A2")
    rs = g.rs
    assert from_word(g, rs.longest_word(())) == longest_by_scan(g, ()) == 0
    top = from_word(g, rs.longest_word({1, 2}))
    assert top == longest_by_scan(g, {1, 2}) == g.longest_id
    assert g.reduced_word(top) == (1, 2, 1)
    assert len(g.words[top]) == 3
    assert from_word(g, rs.longest_word({1})) == longest_by_scan(g, {1}) == g.simple(1)


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_longest_in_against_subgroup_scan(type_str, groups):
    g = groups(type_str)
    for I in all_subsets(g.rs.rank):
        sub = subgroup_ids(g, I)
        top_len = max(len(g.words[w]) for w in sub)
        candidates = [w for w in sub if len(g.words[w]) == top_len]
        assert candidates == [from_word(g, g.rs.longest_word(I))]


def test_reduced_word_examples(groups):
    g = groups("A2")
    assert g.reduced_word(0) == ()
    assert g.reduced_word(g.simple(1)) == (1,)
    assert g.reduced_word(g.longest_id) == (1, 2, 1)


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_reduced_word_reconstructs(type_str, groups):
    g = groups(type_str)
    for w in range(g.order):
        word = g.reduced_word(w)
        # reduced: as long as the number of positive roots w sends negative
        perm = g.perms[w]
        assert len(word) == sum(not g.rs.is_positive(perm[r]) for r in g.rs.positive_indices())
        assert from_word(g, word) == w


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_exchange_condition(type_str, groups):
    g = groups(type_str)
    for w in range(g.order):
        for i in range(g.rs.rank):
            assert abs(len(g.words[g.gen_table[w][i]]) - len(g.words[w])) == 1


@pytest.mark.parametrize("type_str", SWEEP_TYPES + ["F4"])
def test_unique_longest_element(type_str, groups):
    g = groups(type_str)
    top = g.rs.n_positive
    assert [w for w in range(g.order) if len(g.words[w]) == top] == [g.longest_id]
    assert g.multiply(g.longest_id, g.longest_id) == 0


@pytest.mark.parametrize("type_str", SWEEP_TYPES + ["F4", "B2xA1", "A2xA1"])
def test_longest_word_is_the_printed_word(type_str, groups):
    g = groups(type_str)
    rs = g.rs
    assert rs.longest_word(rs.delta()) == g.reduced_word(g.longest_id)
    for J in all_subsets(rs.rank):
        word = rs.longest_word(J)
        top = longest_by_scan(g, J)
        assert from_word(g, word) == top
        assert len(word) == len(g.words[top])


@pytest.mark.parametrize("type_str", ["E6", "E7", "E8"])
def test_longest_word_sends_every_positive_root_negative(type_str):
    # A word of |Phi+| letters whose product inverts every positive root is
    # a reduced word of the longest element.
    rs = build_root_system(type_str)
    word = rs.longest_word(rs.delta())
    assert len(word) == rs.n_positive
    images = list(rs.positive_indices())
    for a in reversed(word):
        images = [rs.reflect(a, r) for r in images]
    assert not any(rs.is_positive(r) for r in images)


@pytest.mark.parametrize("type_str", ["A1", "B2", "B3", "C3", "D4", "G2", "F4"])
def test_longest_element_acts_as_minus_one(type_str, groups):
    g = groups(type_str)
    rs = g.rs
    for r in range(rs.n_roots):
        assert g.perms[g.longest_id][r] == rs.neg(r)


def test_longest_element_of_a2_is_not_minus_one(groups):
    g = groups("A2")
    rs = g.rs
    assert g.perms[g.longest_id][rs.simple_index(1)] == rs.neg(rs.simple_index(2))


def test_bruhat_examples(groups):
    g = groups("A2")
    s1, s2 = g.simple(1), g.simple(2)
    rows = g.bruhat_rows()
    for w in range(g.order):
        assert rows[w] & 1
    assert (rows[from_word(g, (1, 2))] >> s1) & 1
    assert not (rows[s2] >> s1) & 1


@pytest.mark.parametrize("type_str", BRUHAT_TYPES + ["D5", "B5"])
def test_bruhat_matrix_equals_cover_closure(type_str, groups):
    g = groups(type_str)
    assert g.bruhat_rows() == bruhat_rows_by_covers(g)


@pytest.mark.parametrize("type_str", BRUHAT_TYPES)
def test_bruhat_up_rows_are_the_transpose(type_str, groups):
    g = groups(type_str)
    rows, up = g.bruhat_rows(), g.bruhat_up_rows()
    assert len(up) == g.order
    for v in range(g.order):
        assert up[v] == sum(1 << x for x in range(g.order) if (rows[x] >> v) & 1)


@pytest.mark.parametrize("type_str", BRUHAT_TYPES)
def test_bruhat_is_a_partial_order(type_str, groups):
    g = groups(type_str)
    rows = g.bruhat_rows()
    for w in range(g.order):
        assert (rows[w] >> w) & 1  # reflexive
        m = rows[w]
        while m:
            b = m & -m
            u = b.bit_length() - 1
            assert rows[u] | rows[w] == rows[w]  # transitive
            if u != w:
                assert not (rows[u] >> w) & 1  # antisymmetric
            m ^= b


@pytest.mark.parametrize("type_str", SMALL_TYPES)
def test_bruhat_respects_length(type_str, groups):
    g = groups(type_str)
    rows = g.bruhat_rows()
    for w in range(g.order):
        m = rows[w]
        while m:
            b = m & -m
            u = b.bit_length() - 1
            assert len(g.words[u]) <= len(g.words[w])
            m ^= b


def test_w_orbit_in_subsystem_examples():
    rs = build_root_system("A2")
    assert w_orbit_in_subsystem(rs, 1, {1, 2})
    assert not w_orbit_in_subsystem(rs, 1, {1})
    rs2 = build_root_system("A1xA1")
    assert w_orbit_in_subsystem(rs2, 1, {1})


def test_generation_is_deterministic():
    a = generate(build_root_system("B3"))
    b = generate(build_root_system("B3"))
    assert a.perms == b.perms
    assert a.words == b.words
    assert a.gen_table == b.gen_table


def test_ids_sorted_by_length_then_word(groups):
    for type_str in ("B3", "B4", "F4"):
        g = groups(type_str)
        least = [()]  # the lexicographically least reduced word, in id order
        for w in range(1, g.order):
            row = g.gen_table[w]
            descents = [d for d, v in enumerate(row) if len(g.words[v]) < len(g.words[w])]
            least.append(min(least[row[d]] + (d + 1,) for d in descents))
            assert g.words[w][-1] == descents[0] + 1  # the stored word's last letter
        keys = [(len(g.words[w]), least[w]) for w in range(g.order)]
        assert keys == sorted(keys)


def test_gen_table_matches_multiply(groups):
    g = groups("B2")
    for w in range(g.order):
        for i in range(1, 3):
            assert g.gen_table[w][i - 1] == g.multiply(w, g.simple(i))


@settings(max_examples=80, deadline=None)
@given(type_str=st.sampled_from(SMALL_TYPES), letters=st.lists(st.integers(1, 2), max_size=8))
def test_word_products_respect_length_parity(groups, type_str, letters):
    g = groups(type_str)
    word = tuple(1 + (l - 1) % g.rs.rank for l in letters)
    w = from_word(g, word)
    assert len(g.words[w]) <= len(word)
    assert len(g.words[w]) % 2 == len(word) % 2


def test_filled_caches_hold_no_reference_cycle():
    # Without the collector, only reference counting can free the group:
    # any cycle through a cache would keep it alive.
    gc.disable()
    try:
        g = generate(build_root_system("B3"))
        q = min_reps(g, {2, 3})
        double_min_reps(g, {1}, {2, 3})
        g.rs.sub_system({2, 3})
        g.inverse(g.longest_id)
        g.bruhat_up_rows()
        # the walk and its id map, for a second I
        fiber_components(g, {3}, {1, 2})
        fixed_point_profile(g, {3}, g.simple(1))
        q.canonicalize(g.longest_id)
        assert len(g._quotients) == 2 and g.rs._sub_systems and g._inverses
        ref = weakref.ref(g)
        del g, q
        assert ref() is None
    finally:
        gc.enable()

"""Component catalogues of the diagonal degenerations over every stratum."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SWEEP_TYPES, all_subsets, faithful_subsets, from_word
from diagdegen import (
    UnfaithfulActionError,
    build_root_system,
    closed_fiber,
    component_count,
    fiber_components,
    fixed_point_profile,
    generate,
    min_reps,
    weight_set,
)
from diagdegen import cosets, degen, oracles
from diagdegen.sweep import run_sweep
from diagdegen.weyl import WeylGroup


def test_p1_total_degeneration(groups):
    # P^1 x {pt} union {pt} x P^1
    g = groups("A1")
    comps = fiber_components(g, (), ())
    assert [(c.schubert_pair, (c.xminus_dim, c.x_dim)) for c in comps] == [
        ((0, 0), (1, 0)),
        ((1, 1), (0, 1)),
    ]
    assert all(c.levi_quotient_dim == 0 and c.total_dim == 1 for c in comps)


def test_p2_minimal_degeneration(groups):
    # two components over the divisor stratum of P^2
    g = groups("A2")
    comps = fiber_components(g, {2}, {1})
    assert len(comps) == 2
    assert all(c.total_dim == 2 for c in comps)
    assert [g.reduced_word(c.w) for c in comps] == [(), (2, 1)]


@pytest.mark.parametrize("type_str,I", [("A2", {2}), ("A3", {2, 3}), ("B2", {1})])
def test_open_stratum_is_the_diagonal(type_str, I, groups):
    g = groups(type_str)
    comps = fiber_components(g, I, g.rs.delta())
    q = min_reps(g, I)
    assert len(comps) == 1
    c = comps[0]
    assert c.w == 0
    assert c.x_dim == 0 and c.xminus_dim == 0
    assert c.levi_quotient_dim == q.dim_x == c.total_dim


def test_component_count_examples(groups):
    g = groups("A2")
    assert component_count(g, {2}, ()) == 3
    assert component_count(g, {2}, {1}) == 2
    g3 = groups("A3")
    assert component_count(g3, {2, 3}, {1, 2, 3}) == 1


def test_unfaithful_I_is_rejected(groups):
    g = groups("A1xA1")
    with pytest.raises(UnfaithfulActionError):
        fiber_components(g, {1}, {1})
    with pytest.raises(UnfaithfulActionError):
        component_count(g, {1, 2}, ())
    with pytest.raises(UnfaithfulActionError):
        closed_fiber(g, {2})


def test_closed_fiber_examples(groups):
    g1 = groups("A1")
    assert closed_fiber(g1, ()) == [(0, 0), (1, 1)]
    g = groups("A2")
    q = min_reps(g, {2})
    pairs = closed_fiber(g, {2})
    assert pairs == [(w, w) for w in q.reps]
    dims = dict(zip(q.reps, q.walk.dims))
    assert [dims[w] for w, _ in pairs] == [(0, 2), (1, 1), (2, 0)]
    q0 = min_reps(g, ())
    full = closed_fiber(g, ())
    assert len(full) == 6
    assert [w for w, _ in full] == list(q0.reps)
    assert all(sum(d) == 3 for d in q0.walk.dims)


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_closed_fiber_matches_fiber_components(type_str, groups):
    g = groups(type_str)
    for I in faithful_subsets(g.rs):
        comps = fiber_components(g, I, ())
        assert [c.schubert_pair for c in comps] == closed_fiber(g, I)
        assert all(c.levi_quotient_dim == 0 for c in comps)


def test_fixed_point_profile_examples(groups):
    g1 = groups("A1")
    assert fixed_point_profile(g1, (), 0) == {(0, 0)}
    g = groups("A2")
    s1 = g.simple(1)
    assert fixed_point_profile(g, {2}, s1) == {(s1, s1)}
    w = from_word(g, (1, 2))
    assert fixed_point_profile(g, (), w) == {(w, w)}


def test_fixed_point_profile_detects_a_non_antisymmetric_order(monkeypatch):
    g = generate(build_root_system("A2"))
    reps = min_reps(g, {2}).reps
    u, w = reps[1], reps[2]
    assert (g.bruhat_rows()[w] >> u) & 1 and fixed_point_profile(g, {2}, w) == {(w, w)}
    rows = list(g.bruhat_rows())
    up = list(g.bruhat_up_rows())
    rows[u] |= 1 << w  # declare w <= u as well
    up[w] |= 1 << u
    monkeypatch.setattr(g, "bruhat_rows", lambda: rows)
    monkeypatch.setattr(g, "bruhat_up_rows", lambda: up)
    profile = fixed_point_profile(g, {2}, w)
    assert profile != {(w, w)}
    assert {(u, u), (w, w), (u, w), (w, u)} <= profile


def test_fixed_point_profile_keeps_only_representatives_in_the_meet(monkeypatch):
    # Declare w0 <= w for w = reps[2] of A2 / W_{2}; w <= w0 holds already.
    # w0 is not in W^I, so the meet must not take it in.
    g = generate(build_root_system("A2"))
    q = min_reps(g, {2})
    w, w0 = q.reps[2], g.longest_id
    assert w0 not in q and (g.bruhat_up_rows()[w] >> w0) & 1
    rows = list(g.bruhat_rows())
    rows[w] |= 1 << w0
    monkeypatch.setattr(g, "bruhat_rows", lambda: rows)
    assert fixed_point_profile(g, {2}, w) == {(w, w)}


def test_sweep_fixed_point_check_catches_a_non_antisymmetric_order(monkeypatch):
    # Declare w <= u for representatives u < w of B3 / W_{2}: the meet of w
    # then holds u, so the fixed-point check must fail, while the four other
    # checks, which never read the Bruhat order, stay ok.
    assert run_sweep("B3").ok
    real_rows, real_up = WeylGroup.bruhat_rows, WeylGroup.bruhat_up_rows

    def pair(g):
        reps, rows = min_reps(g, {2}).reps, real_rows(g)
        u = reps[1]
        return u, next(w for w in reps if w != u and (rows[w] >> u) & 1)

    def rows(g):
        u, w = pair(g)
        out = list(real_rows(g))
        out[u] |= 1 << w
        return out

    def up(g):
        u, w = pair(g)
        out = list(real_up(g))
        out[w] |= 1 << u
        return out

    monkeypatch.setattr(WeylGroup, "bruhat_rows", rows)
    monkeypatch.setattr(WeylGroup, "bruhat_up_rows", up)
    checks = {c.name: c for c in run_sweep("B3").checks}
    assert checks.pop("fixed-point uniqueness").failures
    assert all(c.ok for c in checks.values())


@settings(max_examples=60, deadline=None)
@given(type_str=st.sampled_from(["A2", "A3", "B2", "B3", "G2"]), data=st.data())
def test_fixed_points_and_weights_of_any_id_are_those_of_its_coset(groups, type_str, data):
    # Off W^I both functions read the walk entry of w W_I.
    g = groups(type_str)
    w = data.draw(st.integers(0, g.order - 1))
    for I in faithful_subsets(g.rs):
        c = min_reps(g, I).canonicalize(w)
        assert weight_set(g, I, w) == weight_set(g, I, c)
        assert fixed_point_profile(g, I, w) == {(c, c)}


def test_ids_outside_the_group_are_refused(groups):
    # A negative id must not wrap around to the end of the group, as list indexing would.
    g = groups("A2")
    q = min_reps(g, {2})
    for w in (-1, g.order):
        assert w not in q
        with pytest.raises(IndexError):
            q.canonicalize(w)
        with pytest.raises(IndexError):
            weight_set(g, {2}, w)
        with pytest.raises(IndexError):
            fixed_point_profile(g, {2}, w)


def test_weight_set_examples(groups):
    g = groups("A2")
    rs = g.rs
    negatives = frozenset(range(rs.n_positive, rs.n_roots))
    assert weight_set(g, (), 0) == negatives
    got = weight_set(g, {2}, 0)
    assert got == negatives - {rs.neg(rs.simple_index(2))}
    assert {rs.coords(r) for r in got} == {(-1, 0), (-1, -1)}


def test_weight_set_coverage(groups):
    g = groups("A2")
    rs = g.rs
    neg_delta = {rs.neg(rs.simple_index(i)) for i in (1, 2)}
    covered = set()
    for w in min_reps(g, {2}).reps:
        covered |= weight_set(g, {2}, w) & neg_delta
    assert covered == neg_delta


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_weight_set_size_is_dim_x(type_str, groups):
    g = groups(type_str)
    for I in faithful_subsets(g.rs):
        q = min_reps(g, I)
        for w in q.reps:
            assert len(weight_set(g, I, w)) == q.dim_x


def test_sweep_weight_set_check_catches_a_wrong_cell_root(monkeypatch):
    # The check holds generate's permutations against the walk's cell roots,
    # so one misplaced cell root must fail it.
    real = cosets.quotient

    def mutant(rs, I):
        q = real(rs, I)
        if str(rs.dynkin) == "B3" and q.I == {2}:
            roots = list(q.cell_roots)
            top = roots[1].bit_length() - 1
            assert not rs.is_positive(top)
            roots[1] ^= 1 << top
            q = q._replace(cell_roots=tuple(roots))
        return q

    monkeypatch.setattr(cosets, "quotient", mutant)
    report = run_sweep("B3")
    weights = next(c for c in report.checks if c.name == "weight-set identity")
    assert weights.failures


def test_sweep_count_check_catches_a_cleared_left_descent(monkeypatch):
    # ^J W^I is read from the cell masks, so clearing the bit of the left
    # descent s_a of w_1 = s_a admits w_1 to ^J W^I for every J holding a.
    real = cosets.quotient

    def mutant(rs, I):
        q = real(rs, I)
        if str(rs.dynkin) == "B3" and q.I == {2}:
            roots = list(q.cell_roots)
            bit = 1 << rs.simple_index(q.words[1][0])
            assert roots[1] & bit
            roots[1] ^= bit
            q = q._replace(cell_roots=tuple(roots))
        return q

    monkeypatch.setattr(cosets, "quotient", mutant)
    report = run_sweep("B3")
    counts = next(c for c in report.checks if c.name == "component counts")
    assert counts.failures
    assert all(f["I"] == [2] for f in counts.failures)


def test_sweep_closed_fiber_check_catches_swapped_dimensions(monkeypatch):
    # The check holds the J = {} catalogue against the coset oracle's
    # (dim X - length, length) split, so swapping the two Schubert parts must fail it.
    real = degen._catalogue

    def swapped(rs, q, J):
        for w, left, levi, xminus, x in real(rs, q, J):
            yield w, left, levi, x, xminus

    monkeypatch.setattr(degen, "_catalogue", swapped)
    report = run_sweep("B3")
    checks = {c.name: c for c in report.checks}
    assert checks["closed-fiber formula"].failures
    assert checks["equidimensionality"].ok


def test_sweep_labels_the_cosets_of_each_I_once(monkeypatch):
    # The counts come from the weight orbit; only coset_min_reps labels W/W_I.
    calls = []
    real = oracles._coset_labels

    def counted(g, I, *J):
        calls.append(frozenset(I))
        return real(g, I, *J)

    monkeypatch.setattr(oracles, "_coset_labels", counted)
    report = run_sweep("B3")
    assert len(calls) == len(set(calls)) == report.faithful_subsets == 7


def test_sweep_catalogues_each_faithful_I_and_J_once(monkeypatch):
    # The closed-fiber check reads the J = {} catalogue of the J loop, not a second one.
    calls = []
    real = degen._catalogue

    def counted(rs, q, J):
        calls.append((q.I, frozenset(J)))
        return real(rs, q, J)

    monkeypatch.setattr(degen, "_catalogue", counted)
    report = run_sweep("B3")
    assert len(calls) == len(set(calls)) == report.faithful_subsets * report.strata == 56


def test_full_flag_fiber_examples(groups):
    g1 = groups("A1")
    assert len(fiber_components(g1, (), ())) == 2
    g = groups("A2")
    assert len(fiber_components(g, (), {1, 2})) == 1
    comps = fiber_components(g, (), {1})
    assert len(comps) == 3
    assert all(c.total_dim == 3 for c in comps)


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_full_flag_levi_dims(type_str, groups):
    # with I empty every component sweeps the full L_J/B_J
    g = groups(type_str)
    for J in all_subsets(g.rs.rank):
        half = len(g.rs.sub_system(J)) // 2
        for c in fiber_components(g, (), J):
            assert c.levi_quotient_dim == half


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_levi_dims_count_the_roots_of_phi_j_sent_below_off_phi_i(type_str, groups):
    # the diag(L_J) sweep of Z_w has one dimension per beta in Phi_J with
    # w^-1 beta in Phi- minus Phi_I, read here from the permutation of w^-1
    g = groups(type_str)
    rs = g.rs
    for I in faithful_subsets(rs):
        if not I:
            continue  # the full flag is test_full_flag_levi_dims
        phi_i = rs.sub_system(I)
        for J in all_subsets(rs.rank):
            phi_j = rs.sub_system(J)
            for c in fiber_components(g, I, J):
                back = g.perms[g.inverse(c.w)]
                assert c.levi_quotient_dim == sum(
                    not rs.is_positive(back[b]) and back[b] not in phi_i for b in phi_j)


@pytest.mark.parametrize("type_str", SWEEP_TYPES)
def test_component_count_antitone_in_J(type_str, groups):
    g = groups(type_str)
    subsets = all_subsets(g.rs.rank)
    for I in faithful_subsets(g.rs):
        counts = {J: component_count(g, I, J) for J in subsets}
        for J in subsets:
            for j in g.rs.delta() - J:
                assert counts[J] >= counts[J | {j}]


def test_components_are_sorted_and_deterministic(groups):
    g = groups("B3")
    first = fiber_components(g, {1}, {2})
    second = fiber_components(g, {1}, {2})
    assert first == second
    ws = [c.w for c in first]
    assert ws == sorted(ws)

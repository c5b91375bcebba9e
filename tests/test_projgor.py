"""Projective-space closed forms, exact polynomials, Gorenstein obstruction."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diagdegen import (
    Composition,
    RationalPolynomial,
    composition_from_J,
    diag_hilbert_poly,
    fiber_components,
    gorenstein_obstruction,
    pairwise_intersection_dim,
    pn_components,
)
from diagdegen.oracles import one_line_permutation
from diagdegen.projgor import N_CAP, require_under_cap
from diagdegen.rootsys import WeylOrderCapError

fractions = st.fractions(min_value=-50, max_value=50, max_denominator=20)
polys = st.lists(fractions, max_size=6).map(RationalPolynomial.from_coeffs)


# -- compositions -------------------------------------------------------------


def test_composition_examples():
    assert composition_from_J(2, {1}).blocks == (2, 1)
    assert composition_from_J(4, {1, 2, 3, 4}).blocks == (5,)
    assert composition_from_J(3, ()).blocks == (1, 1, 1, 1)


def test_composition_r_counts_cuts():
    c = composition_from_J(5, {2, 4})
    assert c.r == 5 - 2
    assert sum(c.blocks) == 6


def test_composition_rejects_bad_marks():
    with pytest.raises(ValueError):
        composition_from_J(3, {4})
    with pytest.raises(ValueError):
        Composition(3, (2, 1))


# -- components ---------------------------------------------------------------


def test_pn_components_minimal_degeneration():
    comps = pn_components(composition_from_J(2, {1}))
    assert len(comps) == 2
    assert all(c.smooth and c.blowup_end for c in comps)
    assert [(c.x_dim, c.y_dim, c.fiber_dim) for c in comps] == [(0, 1, 1), (2, 0, 0)]


def test_pn_components_all_lines():
    n = 4
    comps = pn_components(composition_from_J(n, ()))
    assert len(comps) == n + 1
    assert all(c.smooth for c in comps)
    assert all(c.fiber_dim == 0 for c in comps)
    assert [(c.x_dim, c.y_dim) for c in comps] == [(i, n - i) for i in range(n + 1)]


def test_pn_components_interior_singular():
    comps = pn_components(Composition(4, (1, 2, 2)))
    assert [c.smooth for c in comps] == [True, False, True]
    assert [c.blowup_end for c in comps] == [True, False, True]


def test_pn_components_equidimensional():
    for n in range(1, 7):
        for k in range(n + 1):
            for J in combinations(range(1, n + 1), k):
                comps = pn_components(composition_from_J(n, J))
                assert all(c.total_dim == n for c in comps)


@pytest.mark.parametrize("n", range(1, 5))
def test_pn_matches_general_catalogue(n, groups):
    # the module's reason to exist: same counts and the same w(1) indices as
    # the Weyl-group catalogue for A_n with I = {2..n}
    g = groups(f"A{n}")
    I = frozenset(range(2, n + 1))
    for k in range(n + 1):
        for J in map(frozenset, combinations(range(1, n + 1), k)):
            comps = fiber_components(g, I, J)
            pn = pn_components(composition_from_J(n, J))
            assert len(comps) == len(pn) == n - len(J) + 1
            got = sorted(one_line_permutation(g, c.w)[0] for c in comps)
            assert got == sorted(c.w_value for c in pn)


def test_pairwise_intersection_examples():
    assert pairwise_intersection_dim(composition_from_J(2, {1}), 0) == 1
    assert pairwise_intersection_dim(composition_from_J(1, ()), 0) == 0


def test_pairwise_intersection_always_divisorial():
    for n in range(1, 7):
        for k in range(n + 1):
            for J in combinations(range(1, n + 1), k):
                c = composition_from_J(n, J)
                for i in range(c.r):
                    assert pairwise_intersection_dim(c, i) == n - 1


def test_pairwise_intersection_range():
    c = composition_from_J(3, {2})
    with pytest.raises(ValueError):
        pairwise_intersection_dim(c, c.r)


# -- Hilbert polynomial and Gorenstein obstruction ---------------------------


def test_hilbert_poly_small():
    assert diag_hilbert_poly(1).coeffs == (Fraction(1), Fraction(2))
    assert diag_hilbert_poly(2).coeffs == (Fraction(1), Fraction(3), Fraction(2))


@pytest.mark.parametrize("n", [*range(1, 11), 128])
def test_hilbert_poly_shape(n):
    h = diag_hilbert_poly(n)
    assert h.degree == n
    assert h.coeffs[-1] == Fraction(2**n, factorial(n))
    # h(m) counts degree-2m forms on P^n; agreeing with that count at the
    # n + 1 points m = 0..n makes the degree-n polynomial the closed form
    assert all(h(m) == comb(2 * m + n, n) for m in range(n + 1))


def test_gorenstein_examples():
    assert gorenstein_obstruction(2, "paper") is None
    assert gorenstein_obstruction(3, "signed") == -2
    assert gorenstein_obstruction(4, "signed") is None


@pytest.mark.parametrize("n", range(1, 13))
def test_gorenstein_both_variants(n):
    paper = gorenstein_obstruction(n, "paper")
    signed = gorenstein_obstruction(n, "signed")
    assert paper is None
    if n % 2 == 1:
        assert signed == -(n + 1) // 2
        # the matched identity really holds: both sides have degree n in m,
        # so agreeing at the n + 1 points m = 0..n makes them equal
        h = diag_hilbert_poly(n)
        assert all(h(-m) == (-1) ** n * h(m + signed) for m in range(n + 1))
    else:
        assert signed is None


@pytest.mark.parametrize("n", [16, 25, 40, 129, N_CAP])
def test_gorenstein_matches_closed_form_at_large_n(n):
    assert gorenstein_obstruction(n, "paper") is None
    assert gorenstein_obstruction(n, "signed") == (-(n + 1) // 2 if n % 2 == 1 else None)


@pytest.mark.parametrize("call", [diag_hilbert_poly, gorenstein_obstruction, require_under_cap])
def test_n_over_the_cap_is_refused_before_any_work(call):
    with pytest.raises(WeylOrderCapError, match=f"P\\^{N_CAP + 1}: n exceeds cap {N_CAP}"):
        call(N_CAP + 1)
    require_under_cap(N_CAP)


def test_gorenstein_rejects_unknown_variant():
    with pytest.raises(ValueError):
        gorenstein_obstruction(3, "twisted")


# -- exact rational polynomials -----------------------------------------------


def test_polynomial_normalization():
    p = RationalPolynomial.from_coeffs([1, 2, 0, 0])
    assert p.coeffs == (Fraction(1), Fraction(2))
    assert RationalPolynomial.from_coeffs([0]).coeffs == ()


@given(p=polys)
def test_polynomial_json_roundtrip(p):
    pairs = p.json_coeffs()
    assert all(den > 0 for _, den in pairs)
    back = RationalPolynomial.from_coeffs(Fraction(num, den) for num, den in pairs)
    assert back == p

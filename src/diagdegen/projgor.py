"""Closed forms for projective space, and the Gorenstein obstruction.

For X = P^n the degeneration combinatorics admit a hands-on description:
a simple subset J of A_n cuts the coordinate space k^{n+1} into blocks
V_0, ..., V_r at the unmarked positions, and the degeneration over J has
r + 1 components

    Z_i = {(x, y) : x in P(V_{<i} + l), y in P(V_{>i} + l), l a line in V_i}.

These closed forms serve as an independent oracle for the general
catalogue in :mod:`diagdegen.degen` (type A_n with I = {2, ..., n}).

The module also carries the Euler characteristic obstruction against the
total degeneration Z in P^n x P^n being Gorenstein: its Hilbert
polynomial h(m) = (2m+1)...(2m+n)/n! would have to satisfy
h(-m) = h(m + p) for an integer p, which fails for even n.  The "signed"
variant adds the (-1)^n duality factor and has the solution p = -(n+1)/2
for odd n.  Both sides have degree n in m, so the identity is checked at
the n + 1 points m = 0, ..., n, in integers: one integer product gives the
coefficients of n! h, and the common factor n! does not change which p match.

All of it depends on n alone, so ``pn`` and ``gorenstein`` build no root system.
Their bound ``N_CAP`` is checked from n before any work; ``gorenstein``'s 5n + 1
values of n! h cost about n^3, and at the cap a call still answers in under a second.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable, NamedTuple

from . import VARIANTS
from .rootsys import WeylOrderCapError, simple_subset

#: Largest n of ``pn`` and ``gorenstein``.  In process on a 2-vCPU x86-64 host (Python 3.11)
#: ``gorenstein A<n>`` (``cli.run``, text or JSON, either variant) took 0.004 s at n = 60,
#: 0.02 s at 128, 0.1 s at 256 and 0.5-0.8 s at 511 and 512.  Its largest printed integer
#: has 1 013 digits at 512, under the 4 300 that ``str`` of an int accepts.
N_CAP = 512


def require_under_cap(n: int) -> None:
    """Refuse n over ``N_CAP``; ``_hilbert_numerators`` calls it, and ``pn`` before it reads J."""
    if n > N_CAP:
        raise WeylOrderCapError(f"P^{n}: n exceeds cap {N_CAP}")


class RationalPolynomial(NamedTuple):
    """A univariate polynomial with exact rational coefficients, ascending."""

    coeffs: tuple[Fraction, ...]

    @staticmethod
    def from_coeffs(coeffs: Iterable[Fraction | int]) -> "RationalPolynomial":
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return RationalPolynomial(tuple(cs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x: Fraction | int) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def json_coeffs(self) -> list[list[int]]:
        return [[c.numerator, c.denominator] for c in self.coeffs]


class _CompositionFields(NamedTuple):
    n: int
    blocks: tuple[int, ...]


class Composition(_CompositionFields):
    """Block sizes (dim V_0, ..., dim V_r) of k^{n+1} cut by Delta - J."""

    __slots__ = ()

    def __new__(cls, n: int, blocks: tuple[int, ...]) -> "Composition":
        if sum(blocks) != n + 1 or any(b < 1 for b in blocks):
            raise ValueError(f"blocks {blocks} do not partition n+1 = {n + 1}")
        return super().__new__(cls, n, blocks)

    @property
    def r(self) -> int:
        return len(self.blocks) - 1


class PnComponent(NamedTuple):
    """One component Z_i of a degeneration of the diagonal of P^n.

    ``w_value`` is the image of 1 under the Weyl representative indexing
    this component in the general catalogue; ``x_dim``/``y_dim`` are the
    subspace dimensions dim P(V_{<i} + l) and dim P(V_{>i} + l), while
    ``fiber_dim`` = dim P(V_i) counts the sweep of the line l.
    """

    i: int
    x_dim: int
    y_dim: int
    fiber_dim: int
    smooth: bool
    blowup_end: bool
    w_value: int

    @property
    def total_dim(self) -> int:
        return self.x_dim + self.y_dim + self.fiber_dim


def composition_from_J(n: int, J: Iterable[int]) -> Composition:
    """Cut {1, ..., n+1} at the simple positions missing from J."""
    J = simple_subset(n, J)
    cuts = sorted(set(range(1, n + 1)) - J)
    bounds = [0] + cuts + [n + 1]
    return Composition(n, tuple(b - a for a, b in zip(bounds, bounds[1:])))


def pn_components(c: Composition) -> list[PnComponent]:
    """The r+1 components of the degeneration for a block decomposition.

    Z_i is smooth iff its block is a line or i is extremal (the extremal
    components are blow-ups of P^n along a linear subspace); interior
    components with dim V_i >= 2 are singular along P(V_{<i}) x P(V_{>i}).
    """
    r = c.r
    out = []
    before = 0
    for i, b in enumerate(c.blocks):
        after = c.n + 1 - before - b
        out.append(PnComponent(
            i=i,
            x_dim=before,
            y_dim=after,
            fiber_dim=b - 1,
            smooth=(b == 1 or i in (0, r)),
            blowup_end=(i in (0, r)),
            w_value=before + 1,
        ))
        before += b
    return out


def pairwise_intersection_dim(c: Composition, i: int) -> int:
    """dim of Z_i meet Z_{i+1}, the divisor P(V_{<=i}) x P(V_{>i}); always n-1."""
    if not 0 <= i < c.r:
        raise ValueError(f"index {i} out of range 0..{c.r - 1}")
    left = sum(c.blocks[: i + 1]) - 1
    right = sum(c.blocks[i + 1:]) - 1
    return left + right


def _hilbert_numerators(n: int) -> list[int]:
    """Ascending integer coefficients of (2m+1)(2m+2)...(2m+n), that is n! h(m)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    require_under_cap(n)
    c = [1]
    for i in range(1, n + 1):
        c = [i * a + 2 * b for a, b in zip(c + [0], [0] + c)]
    return c


def diag_hilbert_poly(n: int) -> RationalPolynomial:
    """Hilbert polynomial (2m+1)(2m+2)...(2m+n)/n! of every degeneration."""
    numerators, d = _hilbert_numerators(n), factorial(n)  # the cap first
    return RationalPolynomial.from_coeffs(Fraction(c, d) for c in numerators)


def _obstruction_by_roots(n: int, variant: str) -> int | None:
    # h(-m) has roots {i/2 : 1 <= i <= n} with leading coefficient (-2)^n/n!,
    # h(m+p) has roots {-p - i/2} with leading 2^n/n!; matching the sums of
    # roots forces p = -(n+1)/2, an integer for odd n only, and for odd n the
    # leading signs agree only with the signed variant's (-1)^n.  At that p the
    # roots -p - i/2 = (n + 1 - i)/2 run over the same set {i/2}, so p matches.
    return None if variant == "paper" or n % 2 == 0 else -(n + 1) // 2


def gorenstein_obstruction(n: int, variant: str = "paper") -> int | None:
    """Smallest-|p| integer with h(-m) = (sign) h(m+p), or None.

    Variant "paper" matches the polynomials as written; "signed" inserts
    the duality factor (-1)^n on the right-hand side.  Both sides have
    degree n in m, so p is accepted iff they agree at the n + 1 points
    m = 0, ..., n; an exhaustive scan of p in [-2n, 2n] reads one table
    of n! h(k) in integers, k = -2n, ..., 3n, and is compared against the
    root-matching shortcut.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}")
    coeffs = _hilbert_numerators(n)[::-1]

    def value(k: int) -> int:
        acc = 0
        for c in coeffs:
            acc = acc * k + c
        return acc

    values = {k: value(k) for k in range(-2 * n, 3 * n + 1)}
    sign = (-1) ** n if variant == "signed" else 1
    matches = [
        p for p in range(-2 * n, 2 * n + 1)
        if all(sign * values[m + p] == values[-m] for m in range(n + 1))
    ]
    scanned = min(matches, key=lambda p: (abs(p), p)) if matches else None
    shortcut = _obstruction_by_roots(n, variant)
    if scanned != shortcut:
        raise AssertionError(
            f"p-scan ({scanned}) and root matching ({shortcut}) disagree for n={n}"
        )
    return scanned

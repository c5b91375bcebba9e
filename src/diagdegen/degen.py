"""Irreducible components of the diagonal degenerations in G/P x G/P.

Over the boundary stratum indexed by a simple subset J, the diagonal of
X = G/P_I degenerates into a union of Levi sweeps of Schubert variety
products: one irreducible component

    Z_w = diag(L_J) . (w_J X-_{w_J w} x X_w)

per minimal double-coset representative w in ^J W^I.  Every component is
pure of dimension dim X; its dimension splits as the Levi quotient part
(the diag(L_J) sweep), the opposite Schubert part, and the Schubert part.
The Schubert index of w_J w is always canonicalized into W^I first, since
the corresponding fixed point only depends on the coset.

The catalogue functions (:func:`components`, :func:`fiber_components`,
:func:`component_count` and :func:`closed_fiber`) require the adjoint
group to act faithfully on X, i.e. ``rs.is_faithful(I)``, and raise
:class:`UnfaithfulActionError` otherwise; :func:`fixed_point_profile`
and :func:`weight_set` do not check it.  The closed-stratum fiber (J
empty) specializes to the union of X-_w x X_w over w in W^I, and the
open stratum (J = Delta) gives back the diagonal as a single component.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .cosets import Quotient, double, min_reps
from .rootsys import RootSystem

if TYPE_CHECKING:
    from .weyl import WeylGroup


class UnfaithfulActionError(ValueError):
    """Raised when I swallows a diagram component, so G does not act faithfully."""


def require_faithful(rs: RootSystem, I: frozenset[int]) -> None:
    """Raise UnfaithfulActionError, naming the component, if I contains a diagram component."""
    if not rs.is_faithful(I):
        comp = next(c for c in rs.diagram_components() if c <= I)
        raise UnfaithfulActionError(
            f"I is not faithful: it contains the diagram component {sorted(comp)}"
        )


class FiberComponent(NamedTuple):
    """One component Z_w, with its dimension split (levi + xminus + x).

    ``w`` and ``left_index`` are entries of the walk of W^I when built by
    :func:`components`, and group ids when built by :func:`fiber_components`.
    """

    w: int
    left_index: int
    levi_quotient_dim: int
    xminus_dim: int
    x_dim: int

    @property
    def schubert_pair(self) -> tuple[int, int]:
        return (self.left_index, self.w)

    @property
    def total_dim(self) -> int:
        return self.levi_quotient_dim + self.xminus_dim + self.x_dim


def components(rs: RootSystem, q: Quotient, J: Iterable[int]) -> list[FiberComponent]:
    """Catalogue the components of the degeneration over the stratum J.

    One component per w in ^J W^I, read off the cell masks of the walk q of
    W^I: its left index is the coset of w_J w, applied letter by letter
    through the left table, and its Levi part counts the roots of Phi_J that
    w^-1 sends to negative roots off Phi_I.
    """
    return [FiberComponent(*c) for c in _catalogue(rs, q, J)]


def fiber_components(g: WeylGroup, I: Iterable[int], J: Iterable[int]) -> list[FiberComponent]:
    """:func:`components` in the ids of the group g."""
    q = min_reps(g, I)
    reps = q.reps
    return [
        FiberComponent(reps[w], reps[left], *dims)
        for w, left, *dims in _catalogue(g.rs, q.walk, J)
    ]


def _catalogue(rs: RootSystem, q: Quotient, J: Iterable[int]):
    """(entry, left entry, levi, xminus, x) per component over J; levi counts the cell
    mask's roots in Phi_J, whose bits are set from ``rs.sub_system(J)`` once."""
    J = rs.simple_subset(J)
    require_faithful(rs, q.I)
    w_j, phi_j = rs.longest_word(J), sum(1 << r for r in rs.sub_system(J))
    cell_roots, words, dim_x = q.cell_roots, q.words, q.dim_x
    for w in double(rs, q, J):
        left = q.act(w_j, w)
        yield w, left, (cell_roots[w] & phi_j).bit_count(), dim_x - len(words[left]), len(words[w])


def component_count(g: WeylGroup, I: Iterable[int], J: Iterable[int]) -> int:
    """Number of irreducible components over the stratum J (= |^J W^I|)."""
    I = g.rs.simple_subset(I)
    require_faithful(g.rs, I)
    return len(double(g.rs, min_reps(g, I).walk, J))


def closed_fiber(g: WeylGroup, I: Iterable[int]) -> list[tuple[int, int]]:
    """Schubert pairs (X-_w, X_w) of the total degeneration, built directly.

    This is the closed-stratum formula, the union of X-_w x X_w over W^I.
    It reads the same walk of ``min_reps(g, I)`` as :func:`fiber_components`,
    so it is no independent check of it; the sweep's independent route to
    the closed fiber is ``oracles.coset_min_reps``, which labels W/W_I by
    generator closure in W.
    """
    I = g.rs.simple_subset(I)
    require_faithful(g.rs, I)
    return [(w, w) for w in min_reps(g, I).reps]


def fixed_point_profile(g: WeylGroup, I: Iterable[int], w: int) -> set[tuple[int, int]]:
    """Torus-fixed points of (total degeneration) meet (X_w x X-_w).

    Returns all pairs (u, v) of representatives with u <= w <= v such that
    some x in W^I satisfies x <= u and v <= x.  The chain forces the result
    to be the singleton {(w, w)}; the scan verifies that on the nose.

    w is canonicalized first.  For a transitive order this is C x C, with C
    the representatives (``u in q``) in the meet of down(w) and up(w) in the
    Bruhat matrix of g: such a chain puts u and v in C, and x = w covers
    C x C.  So it tests the antisymmetry of the matrix rows: the meet is
    {w} exactly when no other representative lies both below and above w.
    The matrix has |W|^2 bits, which is why ``sweep`` bounds |W|.
    """
    q = min_reps(g, I)
    w = q.canonicalize(w)
    meet = [u for u in _bits(g.bruhat_rows()[w] & g.bruhat_up_rows()[w]) if u in q]
    return set(product(meet, meet))


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of a mask, in increasing order."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def weight_set(g: WeylGroup, I: Iterable[int], w: int) -> frozenset[int]:
    """Torus weights on the total degeneration at the fixed point of w.

    Computed as the mask of Phi- minus w(Phi_I) from the permutation of w
    in ``generate``, which for a bijection is Phi- intersect w(Phi - Phi_I),
    and again from the walk of W^I: the cell roots of the entry of w W_I
    are w(Phi- - Phi_I), which folded onto Phi- (r > 0 becomes -r) give
    the same set.  Both depend only on the coset, and only the walk's side
    reads the entry.  The routes must agree, on exactly dim G/P_I elements.
    """
    rs = g.rs
    q = min_reps(g, I)
    k = q.entry(w)
    perm = g.perms[w]
    n_pos = rs.n_positive
    pos = (1 << n_pos) - 1
    image = 0
    for a in rs.sub_system(q.I):
        image |= 1 << perm[a]
    first = (pos << n_pos) & ~image
    cells = q.walk.cell_roots[k]
    if first != ((cells & pos) << n_pos) | (cells & ~pos):
        raise AssertionError(f"weight set expressions disagree for w={q.reps[k]}, I={sorted(q.I)}")
    return frozenset(_bits(first))

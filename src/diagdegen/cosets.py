"""Minimal coset and double-coset representatives, with Schubert cell dimensions.

``min_reps`` realizes the quotient W/W_I through its canonical system of
minimal-length representatives W^I = {w : w(I) > 0}; these index the
T-fixed points and the Schubert cells of G/P_I.  Double cosets W_J\\W/W_I
are represented by ^J W^I = {w : w(I) > 0 and w^-1(J) > 0}.  The explicit
subset enumerations that double-check both live in :mod:`diagdegen.oracles`.

The quotient is the unit of work: ``min_reps`` computes W^I once per group
and ``I``, and ``^J W^I`` is filtered out of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

from .weyl import WeylGroup


@dataclass
class QuotientData:
    """The quotient W/W_I: sorted minimal representatives and cell dimensions."""

    group: WeylGroup
    I: frozenset[int]
    reps: tuple[int, ...]
    dims: Mapping[int, tuple[int, int]]
    dim_x: int

    def __contains__(self, w: int) -> bool:
        return w in self.dims

    def canonicalize(self, w: int) -> int:
        """The unique member of W^I in the coset w W_I."""
        g = self.group
        rs = g.rs
        simple = [(i, rs.simple_index(i)) for i in sorted(self.I)]
        while True:
            for i, root in simple:
                if not rs.is_positive(g.act(w, root)):
                    w = g.gen_table[w][i - 1]
                    break
            else:
                return w

    def cell_dims(self, w: int) -> tuple[int, int]:
        """(dim C_w, dim C-_w) for a representative w; raises off W^I."""
        try:
            return self.dims[w]
        except KeyError:
            raise ValueError(f"element {w} is not a minimal representative") from None

    def involution_image(self, w: int) -> int:
        """The image of w under w -> w_Delta w w_I, an involution of W^I."""
        if w not in self.dims:
            raise ValueError(f"element {w} is not a minimal representative")
        g = self.group
        w_i = g.longest_in(self.I)
        out = g.multiply(g.multiply(g.longest_id, w), w_i)
        if out not in self.dims:
            raise RuntimeError("involution left the representative set")
        return out


def min_reps(g: WeylGroup, I: Iterable[int]) -> QuotientData:
    """Minimal coset representatives W^I with their Schubert cell dimensions.

    dim C_w counts the positive roots sent by w^-1 into the negatives off
    Phi_I, dim C-_w the negative ones; they always satisfy
    dim C_w = length(w) and dim C_w + dim C-_w = dim G/P_I.

    The data is computed once per group and I and cached on the group as a
    plain tuple with a read-only dims mapping; every call wraps it in a new
    QuotientData, so the cache never refers back to the group.
    """
    I = g.rs.simple_subset(I)
    cached = g._quotients.get(I)
    if cached is None:
        cached = g._quotients[I] = _quotient(g, I)
    return QuotientData(g, I, *cached)


def _quotient(g: WeylGroup, I: frozenset[int]) -> tuple:
    rs = g.rs
    simple_roots = [rs.simple_index(i) for i in sorted(I)]
    reps = tuple(
        w for w in range(g.order)
        if all(rs.is_positive(g.act(w, r)) for r in simple_roots)
    )
    phi_i = rs.sub_system(I)
    dim_x = rs.n_positive - len(phi_i) // 2
    dims = {}
    for w in reps:
        wi = g.inverse(w)
        perm = g.perms[wi]
        plus = 0
        minus = 0
        for a in range(rs.n_roots):
            b = perm[a]
            if rs.is_positive(b) or b in phi_i:
                continue
            if rs.is_positive(a):
                plus += 1
            else:
                minus += 1
        if plus != g.lengths[w] or plus + minus != dim_x:
            raise RuntimeError(f"cell dimensions of rep {w} are inconsistent")
        dims[w] = (plus, minus)
    return reps, MappingProxyType(dims), dim_x


def double_min_reps(g: WeylGroup, J: Iterable[int], I: Iterable[int]) -> tuple[int, ...]:
    """Sorted ids of ^J W^I, the minimal double-coset representatives.

    Filtered from W^I: the members w with w^-1(J) > 0.
    """
    rs = g.rs
    left = [rs.simple_index(j) for j in sorted(rs.simple_subset(J))]
    out = []
    for w in min_reps(g, I).reps:
        wi = g.inverse(w)
        if all(rs.is_positive(g.act(wi, r)) for r in left):
            out.append(w)
    return tuple(out)


def double_max_rep(g: WeylGroup, J: Iterable[int], I: Iterable[int], w: int) -> int:
    """The longest element of the double coset W_I w W_J.

    Computed by exhaustive closure of the coset; uniqueness of the maximum
    is asserted along the way.
    """
    rs = g.rs
    I = rs.simple_subset(I)
    J = rs.simple_subset(J)
    left = g.left_table()
    seen = {w}
    stack = [w]
    while stack:
        u = stack.pop()
        for i in I:
            v = left[u][i - 1]  # s_i * u
            if v not in seen:
                seen.add(v)
                stack.append(v)
        for j in J:
            v = g.gen_table[u][j - 1]  # u * s_j
            if v not in seen:
                seen.add(v)
                stack.append(v)
    top = max(seen, key=lambda u: (g.lengths[u], -u))
    if sum(1 for u in seen if g.lengths[u] == g.lengths[top]) != 1:
        raise RuntimeError("double coset has no unique longest element")
    return top

"""Brute-force reference implementations for differential testing.

Everything here recomputes a quantity by a route independent of the
production code path, which walks W^I (:func:`diagdegen.cosets.quotient`):

* cosets and double cosets by generator closure in W, instead of the
  walk's positivity filters: ``coset_min_reps(g, I, J)`` reads the least
  id of each block of W_J\\W/W_I, ``double_cosets`` lists the blocks;
* the double-coset counts of every J from the weight orbit W·lambda_I
  (``double_coset_counts``), which needs no W;
* Bruhat order by reflection-cover closure instead of subword tests;
* the concrete e_i - e_j model instead of Cartan-matrix closure, and
  one-line permutations instead of root permutations.

The test suite and the ``sweep`` command compare production outputs
against these; none of them sits on a production computation path.
"""

from __future__ import annotations

from typing import Iterable

from .rootsys import RootSystem, all_subsets
from .weyl import WeylGroup


def type_a_positive_vectors(n: int) -> set[tuple[int, ...]]:
    """Positive roots of A_n in the concrete model {e_i - e_j : i < j}."""
    out = set()
    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            v = [0] * (n + 1)
            v[i] = 1
            v[j] = -1
            out.add(tuple(v))
    return out


def simple_coords_to_vector(coords: tuple[int, ...]) -> tuple[int, ...]:
    """Expand type-A simple-root coordinates in the e-basis (alpha_k = e_k - e_{k+1})."""
    n = len(coords)
    v = [0] * (n + 1)
    for k, c in enumerate(coords):
        v[k] += c
        v[k + 1] -= c
    return tuple(v)


def subgroup_ids(g: WeylGroup, I: Iterable[int]) -> frozenset[int]:
    """Elements of the parabolic subgroup W_I, by generator closure."""
    gens = [i - 1 for i in sorted(g.rs.simple_subset(I))]
    seen = {0}
    stack = [0]
    while stack:
        w = stack.pop()
        for i in gens:
            v = g.gen_table[w][i]
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)


def _coset_labels(g: WeylGroup, I: Iterable[int],
                  J: Iterable[int] = ()) -> tuple[list[int], list[int]]:
    """Label every element by its double coset W_J w W_I, closing each seed on both sides.

    The moves are w -> w s_i for i in I, read in the right table, and
    w -> s_j w = (w^-1 s_j)^-1 for j in J, read in the right table through
    the inverses; with J empty the labels are the cosets w W_I.  Returns
    the label of each id and the least id of each label.  Labels are
    numbered by their least ids, and ids are sorted by length, so the
    least id of a block is its minimal representative.
    """
    rs = g.rs
    right = [i - 1 for i in sorted(rs.simple_subset(I))]
    left = [j - 1 for j in sorted(rs.simple_subset(J))]
    gen_table, inverse = g.gen_table, g.inverse
    label = [-1] * g.order
    least: list[int] = []
    for seed in range(g.order):
        if label[seed] >= 0:
            continue
        c = label[seed] = len(least)
        least.append(seed)
        stack = [seed]
        while stack:
            w = stack.pop()
            row = gen_table[w]
            for i in right:
                v = row[i]
                if label[v] < 0:
                    label[v] = c
                    stack.append(v)
            for j in left:
                v = inverse(gen_table[inverse(w)][j])
                if label[v] < 0:
                    label[v] = c
                    stack.append(v)
    return label, least


def coset_min_reps(g: WeylGroup, I: Iterable[int], J: Iterable[int] = ()) -> tuple[int, ...]:
    """Minimal representatives of W_J\\W/W_I, or of W/W_I for J empty.

    The least id of each label of :func:`_coset_labels`; labels are numbered
    by their least ids, so the tuple is sorted.
    """
    return tuple(_coset_labels(g, I, J)[1])


def double_cosets(g: WeylGroup, J: Iterable[int], I: Iterable[int]) -> list[frozenset[int]]:
    """The partition of W into double cosets W_J w W_I, by two-sided closure in W."""
    label, least = _coset_labels(g, I, J)
    members: list[list[int]] = [[] for _ in least]
    for w, c in enumerate(label):
        members[c].append(w)
    return [frozenset(block) for block in members]


def double_coset_counts(rs: RootSystem, I: Iterable[int]) -> dict[frozenset[int], int]:
    """|W_J\\W/W_I| for every J, from the J-dominant weights of W·lambda_I.

    Each W_J-orbit in W·lambda_I holds exactly one J-dominant weight
    (Humphreys, Reflection Groups and Coxeter Groups, 1.12), so the count
    for J is the number of weights negative on no simple root of J.  The
    weights are tallied by the mask of their negative coordinates, and one
    subset-sum pass turns the tally at a mask m into the number of weights
    whose mask lies inside m; the count for J is read at the complement of J.
    """
    full = (1 << rs.rank) - 1
    tally = [0] * (full + 1)
    for mu in weight_orbit(rs, I):
        tally[sum(1 << j for j, c in enumerate(mu) if c < 0)] += 1
    for j in range(rs.rank):
        bit = 1 << j
        for m in range(full + 1):
            if m & bit:
                tally[m] += tally[m ^ bit]
    return {J: tally[full ^ sum(1 << (j - 1) for j in J)] for J in all_subsets(rs.rank)}


def reflection_ids(g: WeylGroup) -> tuple[int, ...]:
    """Ids of the reflections, aligned with the positive root indices.

    Propagated from the simple reflections along root orbits via
    t(s_i(b)) = s_i t(b) s_i.
    """
    rs = g.rs
    refl: dict[int, int] = {}
    queue = []
    for i in range(1, rs.rank + 1):
        b = rs.simple_index(i)
        refl[b] = g.simple(i)
        queue.append(b)
    for b in queue:  # grows while it is walked
        for i in range(1, rs.rank + 1):
            c = rs.reflect(i, b)
            if rs.is_positive(c) and c not in refl:
                si = g.simple(i)
                refl[c] = g.multiply(g.multiply(si, refl[b]), si)
                queue.append(c)
    return tuple(refl[b] for b in rs.positive_indices())


def bruhat_rows_by_covers(g: WeylGroup) -> list[int]:
    """Bruhat order as the transitive closure of reflection covers.

    An element covers u exactly when it equals t*u for a reflection t and
    is one longer; rows are bitmasks with bit u of row w set iff u <= w.
    This route reads lengths (``len(g.words[w])``) and products, and never
    the subword property.
    """
    reflections = reflection_ids(g)
    words = g.words
    rows = [0] * g.order
    for w in range(g.order):  # ids are sorted by length
        acc = 1 << w
        below = len(words[w]) - 1
        for t in reflections:
            u = g.multiply(t, w)
            if len(words[u]) == below:
                acc |= rows[u]
        rows[w] = acc
    return rows


def one_line_permutation(g: WeylGroup, w: int) -> tuple[int, ...]:
    """Type-A elements as one-line permutations of 1..n+1.

    Multiplies out the reduced word as adjacent transpositions in the
    symmetric group, bypassing the root permutation entirely.
    """
    (family, n), = g.rs.dynkin.components
    if family != "A":
        raise ValueError("one-line permutations require an irreducible type A group")
    line = list(range(1, n + 2))
    for a in g.reduced_word(w):
        line[a - 1], line[a] = line[a], line[a - 1]
    return tuple(line)


def inversions(line: tuple[int, ...]) -> int:
    return sum(
        1
        for i in range(len(line))
        for j in range(i + 1, len(line))
        if line[i] > line[j]
    )


def w_orbit_in_subsystem(rs: RootSystem, alpha: int, I: Iterable[int]) -> bool:
    """Whether the full Weyl orbit of the simple root alpha lies in Phi_I."""
    sub = rs.sub_system(I)
    start = rs.simple_index(alpha)
    if start not in sub:
        return False
    orbit = {start}
    stack = [start]
    while stack:
        r = stack.pop()
        for i in range(1, rs.rank + 1):
            r2 = rs.reflect(i, r)
            if r2 not in orbit:
                if r2 not in sub:
                    return False
                orbit.add(r2)
                stack.append(r2)
    return True


def faithful_by_orbits(rs: RootSystem, I: Iterable[int]) -> bool:
    """Faithfulness via Weyl orbits: no simple root's orbit sits inside Phi_I."""
    return not any(w_orbit_in_subsystem(rs, alpha, I) for alpha in range(1, rs.rank + 1))


def weight_orbit(rs: RootSystem, I: Iterable[int]) -> dict[tuple[int, ...], int]:
    """The orbit W·lambda_I with the breadth-first depth of each weight.

    lambda_I = sum of the fundamental weights off I, whose stabilizer is
    W_I, so the orbit is in bijection with W^I.  Each s_i moves the coset
    representative by at most one in length, so a weight's depth in the
    orbit graph is the length of its representative.  Weights are in
    fundamental-weight coordinates and s_i mu = mu - mu_i alpha_i, where
    alpha_i is row i of the Cartan matrix; no root permutation is involved.
    A weight mu with mu_j >= 0 for every j in J is J-dominant, and each
    W_J-orbit in W·lambda_I holds exactly one, so counting them gives
    |^J W^I|.
    """
    I = rs.simple_subset(I)
    cartan = rs.cartan
    start = tuple(0 if i in I else 1 for i in range(1, rs.rank + 1))
    depth = {start: 0}
    layer = [start]
    while layer:
        nxt = []
        for mu in layer:
            for i, c in enumerate(mu):
                if c:
                    nu = tuple(m - c * a for m, a in zip(mu, cartan[i]))
                    if nu not in depth:
                        depth[nu] = depth[mu] + 1
                        nxt.append(nu)
        layer = nxt
    return depth

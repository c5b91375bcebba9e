"""Brute-force reference implementations for differential testing.

Everything here recomputes a quantity by a route independent of the
production code path: cosets labelled by generator closure in W instead
of the walk's positivity filters, reflection-cover closure instead of
subword tests, the concrete e_i - e_j model instead of Cartan-matrix
closure, one-line permutations instead of root permutations.  The test suite and the ``sweep`` command
compare production outputs against these; none of them sits on a
production computation path.
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


def _coset_labels(g: WeylGroup, I: Iterable[int]) -> tuple[list[int], list[int]]:
    """Label every element by its coset w W_I, closing the right table under I.

    Returns the label of each id and the least id of each label.  Labels
    are numbered by their least ids, and ids are sorted by length, so the
    least id of a coset is its minimal representative.
    """
    right = [i - 1 for i in sorted(g.rs.simple_subset(I))]
    gen_table = g.gen_table
    label = [-1] * g.order
    least: list[int] = []
    for seed in range(g.order):
        if label[seed] >= 0:
            continue
        c = label[seed] = len(least)
        least.append(seed)
        stack = [seed]
        while stack:
            row = gen_table[stack.pop()]
            for i in right:
                v = row[i]
                if label[v] < 0:
                    label[v] = c
                    stack.append(v)
    return label, least


def _left_action(g: WeylGroup, I: Iterable[int]) -> tuple[list[int], list[list[int]]]:
    """Coset labels of W/W_I, and left multiplication on them.

    s_j (w W_I) = (s_j w) W_I, so row c of the action holds the labels of
    s_1 u, ..., s_rank u for the least element u of coset c.
    """
    label, least = _coset_labels(g, I)
    left_table = g.left_table()
    return label, [[label[v] for v in left_table[u]] for u in least]


def _orbits(g: WeylGroup, act: list[list[int]], J: Iterable[int]) -> list[list[int]]:
    """Orbits of W_J on the coset labels, by closure under the s_j, j in J."""
    left = [j - 1 for j in sorted(g.rs.simple_subset(J))]
    seen = [False] * len(act)
    out = []
    for c in range(len(act)):
        if seen[c]:
            continue
        seen[c] = True
        orbit = [c]
        for d in orbit:  # grows while it is walked
            row = act[d]
            for j in left:
                e = row[j]
                if not seen[e]:
                    seen[e] = True
                    orbit.append(e)
        out.append(orbit)
    return out


def coset_min_reps(g: WeylGroup, I: Iterable[int]) -> tuple[int, ...]:
    """Minimal representatives of W/W_I: the least element of each coset label."""
    return tuple(_coset_labels(g, I)[1])


def double_cosets(g: WeylGroup, J: Iterable[int], I: Iterable[int]) -> list[frozenset[int]]:
    """The partition of W into double cosets W_J w W_I: unions of W_J-orbits of cosets."""
    label, act = _left_action(g, I)
    members: list[list[int]] = [[] for _ in act]
    for w, c in enumerate(label):
        members[c].append(w)
    return [frozenset(w for c in orbit for w in members[c]) for orbit in _orbits(g, act, J)]


def double_coset_counts(g: WeylGroup, I: Iterable[int]) -> dict[frozenset[int], int]:
    """|W_J\\W/W_I| for every J, from one labelling of the cosets of W_I."""
    _, act = _left_action(g, I)
    return {J: len(_orbits(g, act, J)) for J in all_subsets(g.rs.rank)}


def double_coset_min_reps(g: WeylGroup, J: Iterable[int], I: Iterable[int]) -> tuple[int, ...]:
    """Minimal double-coset representatives, from the explicit partition."""
    reps = [
        min(block, key=lambda u: (g.lengths[u], u))
        for block in double_cosets(g, J, I)
    ]
    return tuple(sorted(reps))


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
    This route never looks at reduced words.
    """
    reflections = reflection_ids(g)
    rows = [0] * g.order
    for w in range(g.order):  # ids are sorted by length
        acc = 1 << w
        lw = g.lengths[w]
        for t in reflections:
            u = g.multiply(t, w)
            if g.lengths[u] == lw - 1:
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

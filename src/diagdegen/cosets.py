"""Minimal coset and double-coset representatives, with Schubert cell dimensions.

The quotient W/W_I is realized through its canonical system of
minimal-length representatives W^I = {w : w(I) > 0}; these index the
T-fixed points and the Schubert cells of G/P_I.  Double cosets W_J\\W/W_I
are represented by ^J W^I = {w : w(I) > 0 and w^-1(J) > 0}.  The explicit
subset enumerations that double-check both live in :mod:`diagdegen.oracles`.

The quotient is the unit of work.  :func:`quotient` walks W^I by length
from the root system alone, never building W: a walk of W(E6)/W(D5) visits
27 permutations, not 51 840.  The catalogue verbs (``cosets``, ``degen``,
``flagdegen``) read everything from the walk: ``^J W^I`` from its cell
masks, the left action on W/W_I from its left table.  ``min_reps`` adapts
the walk to the ids of an enumerated group, for the sweep's oracles and
the tests, and caches it once per group and ``I``; ``QuotientData.entry``
is the one map from ids to walk entries, membership in W^I included;
``double_min_reps`` and :func:`diagdegen.degen.fiber_components` map back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, NamedTuple

from .rootsys import SIZE_CAP, RootSystem, WeylOrderCapError

if TYPE_CHECKING:
    from .weyl import WeylGroup


class Quotient(NamedTuple):
    """W^I listed by a walk: entry k describes the k-th representative w_k.

    Entries are sorted as the ids of :func:`diagdegen.weyl.generate` sort
    (by length, then by lexicographically least reduced word).  ``words``
    holds the reduced word that ``WeylGroup.reduced_word`` prints: the
    colex-least one, which strips the smallest right descent at each step;
    the length of w_k is ``len(words[k])``.
    ``left[k][a - 1]`` is the entry of the coset s_a w_k W_I, which is
    either s_a w_k or w_k itself.  Bit r of ``cell_roots[k]`` is set iff
    w_k^-1 sends root r to a negative root off Phi_I; its positive bits
    count dim C_w, its negative bits dim C-_w, and its simple roots are the
    left descents of w_k, which is how :func:`double` reads ^J W^I.
    """

    I: frozenset[int]
    dim_x: int
    words: tuple[tuple[int, ...], ...]
    left: tuple[tuple[int, ...], ...]
    cell_roots: tuple[int, ...]

    @property
    def dims(self) -> tuple[tuple[int, int], ...]:
        """(dim C_w, dim C-_w) per entry: (length, dim_x - length), as the walk checks."""
        dim_x = self.dim_x
        return tuple((len(word), dim_x - len(word)) for word in self.words)

    def act(self, word: Iterable[int], k: int = 0) -> int:
        """The entry of the coset s_{a_1} ... s_{a_m} w_k W_I, for word (a_1, ..., a_m)."""
        left = self.left
        for a in reversed(tuple(word)):
            k = left[k][a - 1]
        return k


def quotient(rs: RootSystem, I: Iterable[int]) -> Quotient:
    """Walk W^I breadth-first by left multiplication s_a * w, holding each w^-1.

    For w in W^I, s_a w is shorter than w, or lies in W^I one longer, or
    equals w s_i for some i in I (Deodhar's lemma), so the walk never leaves
    W^I.  W^I is closed under removing left descents, and the least reduced
    word of w starts with its smallest left descent, so visiting each layer
    letter by letter and then in order assigns entries in id order.

    The printed word is the colex-least reduced word (compared from the
    right; its last letter is the smallest right descent, and so on).  Every
    reduced word of v is a left descent a followed by a reduced word of s_a v,
    and s_a v lies in W^I one layer down.  So the printed word of v is
    (a,) + words[s_a v] for the left descent a whose entry's word is least
    read from the right, and the walk meets exactly those pairs (a, s_a v)
    when it reaches v: no word is built outside W^I.

    An entry is the byte string of w^-1, byte r holding w^-1(r)
    (``ROOT_CAP`` is 256), so every test reads one byte or one C-level pass
    (Bjorner-Brenti, GTM 231, 2.4):

    * a is a left descent of w iff w^-1(alpha_a) < 0;
    * s_a w = w s_i, with i in I, iff w^-1(alpha_a) = alpha_i;
    * otherwise (s_a w)^-1 = w^-1 s_a is one ``bytes.translate`` of s_a's
      table through w^-1 padded to 256 bytes, one entry of the next layer;
    * bit r of the cell mask is set iff w^-1(r) lies in Phi^- minus Phi_I:
      ``translate`` maps w^-1 to a string of binary digits, read by ``int``.

    Only the next layer is indexed, and the current layer's words are
    compared by their colex places, held as integers.  A quotient over
    ``SIZE_CAP`` is refused before anything is allocated.

    Self-checks: |W^I| = |W| / |W_I| by the degree formula, and every cell
    satisfies dim C_w = length(w) and dim C_w + dim C-_w = dim G/P_I.
    """
    I = rs.simple_subset(I)
    expected = rs.dynkin.weyl_order() // rs.subdiagram_type(I).weyl_order()
    if expected > SIZE_CAP:
        raise WeylOrderCapError(f"{rs.dynkin}: |W^I| = {expected} exceeds cap {SIZE_CAP}")
    n = rs.n_roots
    n_pos, rank = rs.n_positive, rs.rank
    simple = [rs.simple_index(a) for a in range(1, rank + 1)]
    pad = bytes(range(n, 256))
    phi_i = rs.sub_system(I)
    # digits[b] is the binary digit of root b in the cell mask: 1 iff b is in Phi^- minus Phi_I.
    digits = bytes(b"01"[n_pos <= b < n and b not in phi_i] for b in range(256))
    dim_x = digits.count(b"1")
    pos_mask = (1 << n_pos) - 1
    i_roots = frozenset(simple[i - 1] for i in I)

    length = 0
    words: list[tuple[int, ...]] = [()]
    cell_roots: list[int] = []
    left: list[tuple[int, ...]] = []
    layer = [bytes(range(n))]  # w_k^-1 for the entries k of the current layer
    ids = [0]  # their entries, one int object each, shared by the left table
    rows = [[None] * rank]  # their left-table rows
    order = [0]  # positions in the layer, in the colex order of their words
    colex = [0]  # rank times the colex place of each one's word in the layer
    while layer:
        base = ids[0]
        for k, winv in zip(ids, layer):
            mask = int(winv.translate(digits)[::-1], 2)
            if (mask & pos_mask).bit_count() != length or mask.bit_count() != dim_x:
                raise RuntimeError(f"cell dimensions of rep {k} are inconsistent")
            cell_roots.append(mask)
        tables = [winv + pad for winv in layer]
        top = base + len(layer)
        index: dict[bytes, int] = {}  # w^-1 -> entry, over the next layer in order
        nxt_rows: list[list] = []
        least: list[int] = []  # per next entry v_j: min of colex[s_a v_j] + a over descents a
        for a in range(rank):
            root, sa = simple[a], rs.reflections[a]
            for k, winv, table, row, key in zip(ids, layer, tables, rows, colex):
                image = winv[root]
                if image >= n_pos:
                    continue  # a left descent, filled in from below
                if image in i_roots:
                    row[a] = k  # s_a w = w s_i stays in the coset
                    continue
                v = sa.translate(table)
                j = index.get(v)
                if j is None:
                    j = index[v] = top + len(nxt_rows)
                    nxt_rows.append([None] * rank)
                    least.append(key + a)
                elif key + a < least[j - top]:
                    least[j - top] = key + a
                row[a] = j
                nxt_rows[j - top][a] = k
        left.extend(map(tuple, rows))
        # Words of one layer are distinct and equally long, so the colex-least of the
        # words (a + 1,) + words[k] of v_j, over its left descents a with k = s_a v_j,
        # is the one of least (colex place of k, a): the key in least.  Sorting the keys
        # gives the next layer's colex order.
        words.extend((key % rank + 1,) + words[base + order[key // rank]] for key in least)
        order = sorted(range(len(least)), key=least.__getitem__)
        colex = [0] * len(least)
        for place, i in enumerate(order):
            colex[i] = place * rank
        length += 1
        layer, ids, rows = list(index), list(index.values()), nxt_rows

    if len(words) != expected:
        raise RuntimeError(
            f"{rs.dynkin}: walked {len(words)} representatives of W^I, "
            f"the order formula says {expected}"
        )
    return Quotient(I, dim_x, tuple(words), tuple(left), tuple(cell_roots))


def double(rs: RootSystem, q: Quotient, J: Iterable[int]) -> tuple[int, ...]:
    """Entries of ^J W^I: the w_k of the walk q with w_k^-1(alpha_j) > 0 for all j in J.

    For w in W^I a negative w^-1(alpha_j) is off Phi_I (else alpha_j = -w(beta)
    < 0 with beta in Phi_I^+), so it is a bit of the cell mask of w_k.
    """
    simple_j = sum(1 << rs.simple_index(j) for j in rs.simple_subset(J))
    return tuple(k for k, cells in enumerate(q.cell_roots) if not cells & simple_j)


class QuotientData(NamedTuple):
    """W/W_I in the ids of a group, with its walk; w is in W^I iff it is reps[entry(w)]."""

    group: WeylGroup
    reps: tuple[int, ...]
    walk: Quotient

    @property
    def I(self) -> frozenset[int]:
        return self.walk.I

    @property
    def dim_x(self) -> int:
        return self.walk.dim_x

    def __contains__(self, w: int) -> bool:
        return 0 <= w < self.group.order and self.reps[self.entry(w)] == w

    def entry(self, w: int) -> int:
        """The entry of the walk that is the coset w W_I; IndexError off 0..|W|-1."""
        if not 0 <= w < self.group.order:
            raise IndexError(f"no element {w} in a group of order {self.group.order}")
        return self.walk.act(self.group.words[w])

    def canonicalize(self, w: int) -> int:
        """The unique member of W^I in the coset w W_I."""
        return self.reps[self.entry(w)]


def min_reps(g: WeylGroup, I: Iterable[int]) -> QuotientData:
    """Minimal coset representatives W^I, with the walk that lists them.

    Entry k of the walk is ``reps[k]``; its Schubert cell dimensions are
    ``walk.dims[k]``, which always satisfy dim C_w = length(w) and
    dim C_w + dim C-_w = dim G/P_I.

    The walk of :func:`quotient` is mapped to ids by multiplying out its
    words, once per group and I, and cached on the group as the plain pair
    (reps, walk); every call wraps it in a new QuotientData, so the cache
    never refers back to the group.
    """
    I = g.rs.simple_subset(I)
    cached = g._quotients.get(I)
    if cached is None:
        walk = quotient(g.rs, I)
        gen_table = g.gen_table
        reps = []
        for word in walk.words:
            w = 0
            for a in word:
                w = gen_table[w][a - 1]
            reps.append(w)
        if any(u >= v for u, v in zip(reps, reps[1:])):
            raise RuntimeError(f"walk of W^I for I={sorted(I)} is out of id order")
        cached = g._quotients[I] = (tuple(reps), walk)
    return QuotientData(g, *cached)


def double_min_reps(g: WeylGroup, J: Iterable[int], I: Iterable[int]) -> tuple[int, ...]:
    """Sorted ids of ^J W^I, the minimal double-coset representatives, read by :func:`double`."""
    q = min_reps(g, I)
    return tuple(q.reps[k] for k in double(g.rs, q.walk, J))


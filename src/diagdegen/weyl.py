"""Weyl groups as permutation groups on the root index set.

Elements are permutations of ``RootSystem.roots``, stored as byte strings
in the format of ``RootSystem.reflections`` and of the walk of
:func:`diagdegen.cosets.quotient` (byte r holds w(r)), and referenced by
dense integer ids.  The group is enumerated breadth-first over right
multiplication by the simple reflections, which orders ids by length with
the lexicographically least reduced word breaking ties; ids, words and
every downstream serialization are therefore reproducible byte-for-byte
across runs.  Each element stores one reduced word, the one it prints:
the word that strips the smallest right descent at each step, and the
length of w is ``len(g.words[w])``.

Bruhat order is a dense bitmask matrix, |W|^2 bits, built by the subword
recursion on the stored words, relabelling whole rows by the involution
s_i through their binary digits; callers bound |W| (``sweep.ORDER_CAP``).
The independent reflection-cover oracle lives in :mod:`diagdegen.oracles`.

Derived tables (inverses, the Bruhat matrix, and the quotient data of
:func:`diagdegen.cosets.min_reps` per ``I``) are built lazily on first use
and hold plain ids and tuples only, never a reference back to the group,
so dropping the last reference to a group frees it at once.  There is no
left multiplication table: s_j w is (w^-1 s_j)^-1, one lookup in the
right table between two inverses.

Only the ``sweep`` verb, the Bruhat order and the oracles enumerate W.
The catalogue verbs walk W^I with :func:`diagdegen.cosets.quotient`, and
``weyl`` reads the order and the longest word from the root system.
"""

from __future__ import annotations

from operator import itemgetter

from .rootsys import SIZE_CAP, RootSystem, WeylOrderCapError


class WeylGroup:
    """An enumerated Weyl group with constant-time generator multiplication."""

    def __init__(self, rs: RootSystem, perms: list[bytes], words: list[tuple[int, ...]],
                 gen_table: list[tuple[int, ...]], index: dict[bytes, int]):
        self.rs = rs
        self.perms = perms
        self.words = words
        self.gen_table = gen_table
        self.index = index
        self.longest_id = len(perms) - 1
        self._inverses: list[int] | None = None
        self._bruhat_rows: list[int] | None = None
        self._bruhat_up_rows: list[int] | None = None
        #: ``(reps, walk)`` of W^I per I, filled by ``min_reps``; membership reads the walk.
        self._quotients: dict[frozenset[int], tuple] = {}

    @property
    def order(self) -> int:
        return len(self.perms)

    def simple(self, i: int) -> int:
        """Id of the i-th simple reflection (i is 1-based)."""
        return self.gen_table[0][i - 1]

    # -- group operations --------------------------------------------------

    def multiply(self, u: int, w: int) -> int:
        pu = self.perms[u]
        return self.index[bytes(map(pu.__getitem__, self.perms[w]))]

    def inverse(self, w: int) -> int:
        return self._inverse_table()[w]

    def _inverse_table(self) -> list[int]:
        if self._inverses is None:
            roots = range(len(self.perms[0]))
            index = self.index
            self._inverses = [index[bytes(sorted(roots, key=p.__getitem__))]
                              for p in self.perms]
        return self._inverses

    # -- words ---------------------------------------------------------------

    def reduced_word(self, w: int) -> tuple[int, ...]:
        """Reduced word for w, always stripping the smallest right descent."""
        return self.words[w]

    # -- Bruhat order --------------------------------------------------------

    def bruhat_rows(self) -> list[int]:
        """Bitmask rows of the order: bit u of row w is set iff u <= w.

        Built by the aggregated subword recursion ``S(w) = S(w s_i) | S(w s_i) s_i``
        for the last letter i of the stored word, a right descent of w.  As s_i is
        an involution, bit v of ``S s_i`` is bit ``v s_i`` of S, so one ``itemgetter``
        per generator over the column ``u -> u s_i`` of the right table relabels
        a row's binary digits, least significant first.
        """
        if self._bruhat_rows is None:
            n = self.order
            take = [itemgetter(*column) for column in zip(*self.gen_table)]
            rows = [1] * n
            for w in range(1, n):
                i = self.words[w][-1] - 1
                rv = rows[self.gen_table[w][i]]
                digits = format(rv, f"0{n}b")[::-1]
                rows[w] = rv | int("".join(take[i](digits))[::-1], 2) | 1 << w
            self._bruhat_rows = rows
        return self._bruhat_rows

    def bruhat_up_rows(self) -> list[int]:
        """Transposed bitmask rows: bit x of row v is set iff v <= x.

        Each row is written as a binary string, so ``zip`` reads the
        columns without a Python step per bit: column c of the strings is
        bit n - 1 - c of every row, listed by row.
        """
        if self._bruhat_up_rows is None:
            n = self.order
            digits = [format(row, f"0{n}b") for row in self.bruhat_rows()]
            up = [int("".join(column)[::-1], 2) for column in zip(*digits)]
            self._bruhat_up_rows = up[::-1]
        return self._bruhat_up_rows


def generate(rs: RootSystem) -> WeylGroup:
    """Enumerate the Weyl group of a root system.

    Breadth-first over right multiplication by simple reflections, which
    yields ids sorted by (length, lexicographically least reduced word).
    The breadth-first depth of w is its length; the depths are kept only
    while the group is built, to check the longest element and to find
    descents.  The stored word of w is the word of w s_d followed by d,
    for the smallest right descent d of w.  Groups over ``SIZE_CAP``
    elements are refused before anything is built.
    """
    expected = rs.dynkin.weyl_order()
    if expected > SIZE_CAP:
        raise WeylOrderCapError(f"{rs.dynkin}: Weyl group order exceeds cap {SIZE_CAP}")
    n = rs.n_roots
    pad = bytes(range(n, 256))
    identity = bytes(range(n))
    perms: list[bytes] = [identity]
    depths: list[int] = [0]
    index: dict[bytes, int] = {identity: 0}
    gen_table: list[tuple[int, ...]] = []
    w = 0
    while w < len(perms):
        table = perms[w] + pad
        row = []
        for i, sp in enumerate(rs.reflections):
            q = sp.translate(table)  # w s_i: byte r holds w(s_i(r))
            j = index.get(q)
            if j is None:
                j = len(perms)
                index[q] = j
                perms.append(q)
                depths.append(depths[w] + 1)
            row.append(j)
        gen_table.append(tuple(row))
        w += 1

    if len(perms) != expected:
        raise RuntimeError(
            f"{rs.dynkin}: enumerated {len(perms)} elements, order formula says {expected}"
        )
    if len(perms) > 1 and (depths[-1] != rs.n_positive or depths[-2] == depths[-1]):
        raise RuntimeError(f"{rs.dynkin}: longest element is not unique of length |Phi+|")
    words: list[tuple[int, ...]] = [()]
    for row, depth in zip(gen_table[1:], depths[1:]):
        d = next(d for d, v in enumerate(row) if depths[v] < depth)
        words.append(words[row[d]] + (d + 1,))
    return WeylGroup(rs, perms, words, gen_table, index)

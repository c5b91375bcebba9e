"""Weyl groups as permutation groups on the root index set.

Elements are permutations of ``RootSystem.roots``, stored as byte strings
in the format of ``RootSystem.reflections`` and of the walk of
:func:`diagdegen.cosets.quotient` (byte r holds w(r)), and referenced by
dense integer ids.  The group is enumerated breadth-first over right
multiplication by the simple reflections, which orders ids by length with
the lexicographically least reduced word breaking ties; ids, words and
every downstream serialization are therefore reproducible byte-for-byte
across runs.

Bruhat order is a dense bitmask matrix, |W|^2 bits, built by the subword
recursion on the canonical reduced words; callers that read it bound |W|
themselves (``sweep`` refuses groups over 10 000 elements).  The
independent reflection-cover oracle lives in :mod:`diagdegen.oracles`.

Derived tables (inverses, left multiplication, the Bruhat matrix, and the
quotient data of :func:`diagdegen.cosets.min_reps` per ``I``) are built
lazily on first use and hold plain ids and tuples only, never a reference
back to the group, so dropping the last reference to a group frees it at
once.

Only the ``sweep`` verb, the Bruhat order and the oracles enumerate W.
The catalogue verbs walk W^I with :func:`diagdegen.cosets.quotient`, and
``weyl`` reads the order and the longest word from the root system.
"""

from __future__ import annotations

from typing import Iterable

from .rootsys import SIZE_CAP, RootSystem, WeylOrderCapError


class WeylGroup:
    """An enumerated Weyl group with constant-time generator multiplication."""

    def __init__(self, rs: RootSystem, perms: list[bytes],
                 words: list[tuple[int, ...]], lengths: list[int],
                 gen_table: list[tuple[int, ...]], index: dict[bytes, int]):
        self.rs = rs
        self.perms = perms
        self.words = words
        self.lengths = lengths
        self.gen_table = gen_table
        self.index = index
        self.longest_id = len(perms) - 1
        self._inverses: list[int] | None = None
        self._left_table: list[tuple[int, ...]] | None = None
        self._bruhat_rows: list[int] | None = None
        self._bruhat_up_rows: list[int] | None = None
        #: ``(reps, dim_x, walk, rep_mask)`` of W^I per I, filled by ``min_reps``.
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

    def left_table(self) -> list[tuple[int, ...]]:
        """Left multiplication: entry ``[w][i - 1]`` is the id of s_i * w.

        Derived from the right table as s_i w = (w^-1 s_i)^-1 on first use.
        """
        if self._left_table is None:
            inv = self._inverse_table()
            gen_table = self.gen_table
            self._left_table = [
                tuple(inv[v] for v in gen_table[inv[w]]) for w in range(self.order)
            ]
        return self._left_table

    def act(self, w: int, r: int) -> int:
        """Image root index of root r under the element w."""
        return self.perms[w][r]

    # -- words, longest elements, descents ----------------------------------

    def reduced_word(self, w: int) -> tuple[int, ...]:
        """Reduced word for w, always stripping the smallest right descent."""
        out = []
        lengths, gen_table = self.lengths, self.gen_table
        while lengths[w]:
            for i in range(1, self.rs.rank + 1):
                v = gen_table[w][i - 1]
                if lengths[v] < lengths[w]:
                    out.append(i)
                    w = v
                    break
        out.reverse()
        return tuple(out)

    def longest_in(self, I: Iterable[int]) -> int:
        """Longest element of the parabolic subgroup generated by I."""
        I = sorted(self.rs.simple_subset(I))
        w = 0
        while True:
            for i in I:
                v = self.gen_table[w][i - 1]
                if self.lengths[v] > self.lengths[w]:
                    w = v
                    break
            else:
                return w

    # -- Bruhat order --------------------------------------------------------

    def bruhat_rows(self) -> list[int]:
        """Bitmask rows of the order: bit u of row w is set iff u <= w.

        Built by the aggregated subword recursion
        ``S(w) = S(w s_i) | S(w s_i) s_i`` for the last canonical-word letter i.
        """
        if self._bruhat_rows is None:
            gen_table = self.gen_table
            rows = [0] * self.order
            rows[0] = 1
            for w in range(1, self.order):
                i = self.words[w][-1] - 1
                rv = rows[self.gen_table[w][i]]
                acc = rv
                m = rv
                while m:
                    b = m & -m
                    acc |= 1 << gen_table[b.bit_length() - 1][i]
                    m ^= b
                rows[w] = acc | (1 << w)
            self._bruhat_rows = rows
        return self._bruhat_rows

    def bruhat_up_rows(self) -> list[int]:
        """Transposed bitmask rows: bit x of row v is set iff v <= x."""
        if self._bruhat_up_rows is None:
            up = [0] * self.order
            for w, row in enumerate(self.bruhat_rows()):
                m = row
                bit = 1 << w
                while m:
                    b = m & -m
                    up[b.bit_length() - 1] |= bit
                    m ^= b
            self._bruhat_up_rows = up
        return self._bruhat_up_rows


def generate(rs: RootSystem) -> WeylGroup:
    """Enumerate the Weyl group of a root system.

    Breadth-first over right multiplication by simple reflections; new
    elements inherit their parent's word plus the generator letter, which
    yields ids sorted by (length, lexicographically least reduced word).
    Groups over ``SIZE_CAP`` elements are refused before anything is built.
    """
    expected = rs.dynkin.weyl_order()
    if expected > SIZE_CAP:
        raise WeylOrderCapError(f"{rs.dynkin}: Weyl group order exceeds cap {SIZE_CAP}")
    n = rs.n_roots
    pad = bytes(range(n, 256))
    identity = bytes(range(n))
    perms: list[bytes] = [identity]
    words: list[tuple[int, ...]] = [()]
    lengths: list[int] = [0]
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
                words.append(words[w] + (i + 1,))
                lengths.append(lengths[w] + 1)
            row.append(j)
        gen_table.append(tuple(row))
        w += 1

    if len(perms) != expected:
        raise RuntimeError(
            f"{rs.dynkin}: enumerated {len(perms)} elements, order formula says {expected}"
        )
    if len(perms) > 1 and (lengths[-1] != rs.n_positive or lengths[-2] == lengths[-1]):
        raise RuntimeError(f"{rs.dynkin}: longest element is not unique of length |Phi+|")
    return WeylGroup(rs, perms, words, lengths, gen_table, index)

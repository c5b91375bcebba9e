"""Finite crystallographic root systems built from Dynkin type strings.

A root is an integer coordinate vector over the simple-root basis, stored
as a plain tuple.  ``RootSystem.roots`` lists the positive roots first,
sorted by height and then lexicographically, followed by their negatives
in matching order, so index arithmetic and JSON renderings are stable
across runs.  Simple roots are numbered 1..rank per component in Bourbaki
order; subsets of simple roots (the ``I`` and ``J`` arguments used
throughout the package) are frozensets of 1-based indices.  Each root fact
has one form: Phi_I is the frozenset ``RootSystem.sub_system(I)`` of root
indices, and a root's height is the sum of its coordinates.

Cartan convention: ``cartan[i][j]`` holds the pairing of the i-th simple
root against the j-th simple coroot, so the simple reflection acts by
``s_i(b) = b - (sum_j b_j * cartan[j][i]) * alpha_i``.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

Coords = tuple[int, ...]

#: Most roots ``build_root_system`` builds: the quotient walk stores w(r) as a byte.
ROOT_CAP = 256
#: Most objects a layer lists: |W| in ``generate``, |W^I| in ``cosets.quotient``
#: and 2^rank in ``wonderful.orbit_lattice``, each checked before it allocates.
SIZE_CAP = 10**6

#: The admissible ranks of each family: (least, greatest), None for no bound.
_RANKS = {"A": (1, None), "B": (2, None), "C": (3, None), "D": (4, None),
          "E": (6, 8), "F": (4, 4), "G": (2, 2)}
_COMPONENT_RE = re.compile(r"([A-Z])([0-9]+)\Z")


class DynkinError(ValueError):
    """Raised for unparsable or inadmissible Dynkin type descriptions."""


class WeylOrderCapError(ValueError):
    """Raised when a requested type exceeds a size cap.

    The caps are the number of roots (``ROOT_CAP``), the number of objects
    a layer lists (``SIZE_CAP``: |W|, |W^I| or 2^rank), the lower order
    cap of the sweep (``sweep.ORDER_CAP``) and the n of P^n (``projgor.N_CAP``).
    """


def _check_component(family: str, rank: int) -> None:
    if family not in _RANKS:
        raise DynkinError(f"{family}{rank}: unknown family {family!r}")
    if type(rank) is not int:  # bool, float and str are refused too
        raise DynkinError(f"{family}: rank {rank!r} is not an int")
    least, greatest = _RANKS[family]
    if rank < least or (greatest is not None and rank > greatest):
        if family == "E":
            raise DynkinError(f"E{rank}: rank must be 6, 7 or 8")
        if least == greatest:
            raise DynkinError(f"{family}{rank}: only {family}{least} exists")
        raise DynkinError(f"{family}{rank}: inadmissible rank (need {family} >= {least})")


def _degrees(family: str, rank: int) -> Iterator[int]:
    """Degrees of the basic invariants of W; their product is the order of W."""
    if family == "A":
        yield from range(2, rank + 2)
    elif family in ("B", "C"):
        yield from range(2, 2 * rank + 1, 2)
    elif family == "D":
        yield rank
        yield from range(2, 2 * rank - 1, 2)
    elif family == "E":
        yield from {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
                    8: (2, 8, 12, 14, 18, 20, 24, 30)}[rank]
    elif family == "F":
        yield from (2, 6, 8, 12)
    else:  # G2
        yield from (2, 6)


class _DynkinFields(NamedTuple):
    components: tuple[tuple[str, int], ...]


class DynkinType(_DynkinFields):
    """An ordered product of irreducible Dynkin components, e.g. B2xA1.

    Each component is a (family, rank) pair, checked against the one table
    of admissible ranks; a rank must be an ``int``.  The empty product
    ``DynkinType(())`` is the Levi type of J = {}: ``subdiagram_type`` returns
    it, and ``orbits`` prints it as ``-``.
    """

    __slots__ = ()

    def __new__(cls, components: tuple[tuple[str, int], ...]) -> "DynkinType":
        for family, rank in components:
            _check_component(family, rank)
        return super().__new__(cls, components)

    @property
    def rank(self) -> int:
        return sum(rank for _, rank in self.components)

    @property
    def n_roots(self) -> int:
        """|Phi| = 2 * sum(d - 1) over the degrees: each d - 1 is an exponent."""
        return 2 * sum(d - 1 for family, rank in self.components for d in _degrees(family, rank))

    def weyl_order(self, cap: int | None = None) -> int:
        """Order of the Weyl group, multiplied out from the degrees.

        With a cap, stops at the first partial product over it, so a huge
        rank costs a few multiplications, not a factorial.
        """
        out = 1
        for family, rank in self.components:
            for d in _degrees(family, rank):
                out *= d
                if cap is not None and out > cap:
                    return out
        return out

    def __str__(self) -> str:
        return "x".join(f"{family}{rank}" for family, rank in self.components)


def all_subsets(rank: int) -> list[frozenset[int]]:
    """Every subset of the simple roots 1..rank, by size, then lexicographically."""
    return [
        frozenset(c)
        for size in range(rank + 1)
        for c in combinations(range(1, rank + 1), size)
    ]


def simple_subset(rank: int, indices: Iterable[int]) -> frozenset[int]:
    """Validate a subset of 1..rank; the ValueError names the first entry that is
    not an ``int`` in that range (so ``True`` is refused, not read as 1)."""
    if type(indices) is not frozenset:  # a frozenset comes back as is, hash cached
        indices = tuple(indices)
    for i in indices:
        if type(i) is not int or not 1 <= i <= rank:
            raise ValueError(f"index {i!r} out of range 1..{rank}")
    return frozenset(indices)


def parse_dynkin(text: str) -> DynkinType:
    """Parse a type string like ``"A3"`` or ``"B2xA1"`` into a DynkinType.

    Checks the syntax, the number of digits of each rank and the
    non-crystallographic families H and I; ``DynkinType`` checks every other
    family and the ranks.
    """
    if not isinstance(text, str) or not text.strip():
        raise DynkinError("empty Dynkin type")
    components = []
    for part in text.strip().split("x"):
        m = _COMPONENT_RE.match(part)
        if m is None:
            raise DynkinError(f"cannot parse component {part!r} (expected e.g. A3, B2)")
        family, digits = m.groups()
        try:
            rank = int(digits)
        except ValueError:  # more digits than int() converts
            raise DynkinError(f"{family}: rank has {len(digits)} digits") from None
        if family in ("H", "I"):
            raise DynkinError(f"{part}: non-crystallographic family")
        components.append((family, rank))
    return DynkinType(tuple(components))


def _component_cartan(family: str, n: int) -> list[list[int]]:
    m = [[2 if i == j else 0 for j in range(n)] for i in range(n)]

    def bond(i: int, j: int) -> None:
        m[i][j] = -1
        m[j][i] = -1

    if family in ("A", "B", "C"):
        for i in range(n - 1):
            bond(i, i + 1)
        if family == "B":
            m[n - 2][n - 1] = -2  # last simple root is short
        if family == "C":
            m[n - 1][n - 2] = -2  # last simple root is long
    elif family == "D":
        for i in range(n - 2):
            bond(i, i + 1)
        bond(n - 3, n - 1)
    elif family == "E":
        spine = [0] + list(range(2, n))
        for a, b in zip(spine, spine[1:]):
            bond(a, b)
        bond(1, 3)
    elif family == "F":
        bond(0, 1)
        bond(1, 2)
        m[1][2] = -2  # roots 3, 4 are short
        bond(2, 3)
    else:  # G2, first simple root short
        m[0][1] = -1
        m[1][0] = -3
    return m


class RootSystem:
    """A finite crystallographic root system with stable root indexing.

    ``reflections[i - 1]`` tabulates the i-th simple reflection: byte r is
    the index of s_i(r).  The table holds the images the reflection closure
    of :func:`build_root_system` computed (``ROOT_CAP`` keeps every index
    in a byte), so the Cartan formula is evaluated in one place only.
    """

    def __init__(self, dynkin: DynkinType, cartan: tuple[tuple[int, ...], ...],
                 positives: list[Coords], images: dict[Coords, list[Coords]]):
        self.dynkin = dynkin
        self.cartan = cartan
        self.rank = dynkin.rank
        # A partial costs a call no more than a method: the sweep makes ~10^4 calls.
        self.simple_subset = partial(simple_subset, self.rank)
        self.n_positive = len(positives)
        roots = list(positives) + [tuple(-c for c in r) for r in positives]
        self.roots: tuple[Coords, ...] = tuple(roots)
        self.index: dict[Coords, int] = {r: k for k, r in enumerate(roots)}
        self.reflections: tuple[bytes, ...] = tuple(
            bytes(self.index[images[r][i]] for r in roots) for i in range(self.rank)
        )
        self._simple_index = tuple(
            self.index[tuple(1 if j == i else 0 for j in range(self.rank))]
            for i in range(self.rank)
        )
        # The Dynkin diagram, read off the Cartan matrix once: _adjacent[i - 1]
        # holds the nodes joined to node i.
        self._adjacent = tuple(
            frozenset(j for j, c in enumerate(row, 1) if c and j != i)
            for i, row in enumerate(cartan, 1)
        )
        self._components = tuple(self._induced_components(range(1, self.rank + 1)))
        self._sub_systems: dict[frozenset[int], frozenset[int]] = {}
        self._longest_words: dict[frozenset[int], tuple[int, ...]] = {}

    # -- basic queries ---------------------------------------------------

    @property
    def n_roots(self) -> int:
        return 2 * self.n_positive

    def coords(self, r: int) -> Coords:
        return self.roots[r]

    def is_positive(self, r: int) -> bool:
        return r < self.n_positive

    def neg(self, r: int) -> int:
        """Index of the negated root."""
        return (r + self.n_positive) % self.n_roots

    def root_index(self, coords: Iterable[int]) -> int:
        key = tuple(coords)
        try:
            return self.index[key]
        except KeyError:
            raise ValueError(f"{key} is not a root of {self.dynkin}") from None

    def simple_index(self, i: int) -> int:
        """Root index of the i-th simple root (i is 1-based)."""
        return self._simple_index[i - 1]

    def positive_indices(self) -> range:
        return range(self.n_positive)

    def delta(self) -> frozenset[int]:
        return frozenset(range(1, self.rank + 1))

    # -- reflections and subsystems --------------------------------------

    def reflect(self, i: int, r: int) -> int:
        """Index of s_i(r), read from the table of the i-th simple reflection."""
        return self.reflections[i - 1][r]

    def sub_system(self, I: Iterable[int]) -> frozenset[int]:
        """Indices of the roots supported on the simple subset I (cached per I)."""
        I = self.simple_subset(I)
        roots = self._sub_systems.get(I)
        if roots is None:
            roots = self._sub_systems[I] = frozenset(
                r for r, coords in enumerate(self.roots)
                if all(c == 0 or (j + 1) in I for j, c in enumerate(coords))
            )
        return roots

    def longest_word(self, J: Iterable[int]) -> tuple[int, ...]:
        """A reduced word of the longest element w_J of W_J (cached per J).

        Reflects rho (1 on every simple coroot) by the smallest s_j, j in J,
        that pairs positively with it, until rho is J-antidominant.  Read
        backwards, this strips the smallest right descent of w_J each step,
        so for J = Delta it is the word ``WeylGroup.reduced_word`` prints.
        """
        J = self.simple_subset(J)
        word = self._longest_words.get(J)
        if word is None:
            nodes = sorted(J)
            mu = [1] * self.rank
            steps = []
            while (j := next((j for j in nodes if mu[j - 1] > 0), None)) is not None:
                c = mu[j - 1]
                mu = [m - c * a for m, a in zip(mu, self.cartan[j - 1])]
                steps.append(j)
            word = self._longest_words[J] = tuple(reversed(steps))
        return word

    # -- Dynkin diagram structure -----------------------------------------

    def _induced_components(self, nodes: Iterable[int]) -> list[frozenset[int]]:
        """Connected components of the diagram induced on nodes, by smallest node.

        Walks the stored adjacency, cut down to nodes at each step.
        """
        nodes = frozenset(nodes)
        seen: set[int] = set()
        comps = []
        for start in sorted(nodes):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                new = (self._adjacent[stack.pop() - 1] & nodes) - comp
                comp |= new
                stack.extend(new)
            seen |= comp
            comps.append(frozenset(comp))
        return comps

    def diagram_components(self) -> tuple[frozenset[int], ...]:
        """Connected components of the Dynkin diagram (1-based node sets)."""
        return self._components

    def is_faithful(self, I: Iterable[int]) -> bool:
        """Whether the adjoint group acts faithfully on G/P_I.

        True iff no connected component of the Dynkin diagram lies inside I,
        equivalently no simple root has its full Weyl orbit inside Phi_I.
        """
        I = self.simple_subset(I)
        return not any(comp <= I for comp in self._components)

    def subdiagram_type(self, J: Iterable[int]) -> DynkinType:
        """Dynkin type of the diagram induced on the node subset J."""
        J = self.simple_subset(J)
        return DynkinType(tuple(self._classify_component(comp)
                                for comp in self._induced_components(J)))

    def _classify_component(self, nodes: frozenset[int]) -> tuple[str, int]:
        """Family and rank of the connected subdiagram on nodes.

        A multiple bond is read as one directed pair: ``cartan[x][y] < -1``
        means alpha_y is the shorter root, and -3 means G2.  The type is B_k
        when y is a leaf (with two nodes both are), C_k when x is a leaf, and
        F4 otherwise.  A simply-laced diagram with no branch node is A_k; D_k has
        two or more leaves beside its branch node (three in D4), E_k one.
        """
        k = len(nodes)
        if k == 1:  # a fast path: every component of A1^n has one node
            return ("A", 1)
        adjacent = {a: self._adjacent[a - 1] & nodes for a in nodes}
        leaves = {a for a, near in adjacent.items() if len(near) == 1}
        cartan = self.cartan
        bond = next(((x, y) for x in nodes for y in adjacent[x]
                     if cartan[x - 1][y - 1] < -1), None)
        if bond is not None:
            x, y = bond
            if cartan[x - 1][y - 1] == -3:
                return ("G", 2)
            if y in leaves:
                return ("B", k)
            return ("C", k) if x in leaves else ("F", 4)
        branch = next((a for a, near in adjacent.items() if len(near) == 3), None)
        if branch is None:
            return ("A", k)
        return ("D", k) if len(adjacent[branch] & leaves) >= 2 else ("E", k)


def build_root_system(t: DynkinType | str) -> RootSystem:
    """Build the root system of a Dynkin type by reflection closure.

    Types over ``ROOT_CAP`` roots are refused first (by the rank, then by
    ``DynkinType.n_roots``).  The closure must end at exactly that count from
    the degrees, and stops with a RuntimeError at the first root past it; its
    roots are cross-checked for the sign dichotomy.  The closure's images s_i(r)
    become ``RootSystem.reflections``.
    """
    if isinstance(t, str):
        t = parse_dynkin(t)
    rank = t.rank
    # n_roots sums rank-many degrees, so it is read only once the rank is small
    if rank > ROOT_CAP // 2 or (n_roots := t.n_roots) > ROOT_CAP:
        raise WeylOrderCapError(f"{t}: number of roots exceeds cap {ROOT_CAP}")
    matrix = [[0] * rank for _ in range(rank)]
    offset = 0
    for family, n in t.components:
        for i, row in enumerate(_component_cartan(family, n), offset):
            matrix[i][offset:offset + n] = row
        offset += n
    cartan = tuple(map(tuple, matrix))

    def reflect_coords(i: int, coords: Coords) -> Coords:
        pairing = sum(c * cartan[j][i] for j, c in enumerate(coords) if c)
        new = list(coords)
        new[i] -= pairing
        return tuple(new)

    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    seen: set[Coords] = set(simple)
    images: dict[Coords, list[Coords]] = {}  # root -> [s_1(root), ..., s_rank(root)]
    stack = list(simple)
    while stack:
        r = stack.pop()
        images[r] = row = [reflect_coords(i, r) for i in range(rank)]
        for r2 in row:
            if r2 not in seen:
                if len(seen) == n_roots:
                    raise RuntimeError(f"root closure of {t} passes |Phi| = {n_roots}")
                seen.add(r2)
                stack.append(r2)
    if len(seen) != n_roots:
        raise RuntimeError(f"root closure of {t} has {len(seen)} roots, not |Phi| = {n_roots}")

    positives = sorted(
        (r for r in seen if all(c >= 0 for c in r)),
        key=lambda r: (sum(r), r),
    )
    if 2 * len(positives) != len(seen) or any(
        tuple(-c for c in r) not in seen for r in positives
    ):
        raise RuntimeError(f"root closure of {t} is not sign-symmetric")
    return RootSystem(t, cartan, positives, images)

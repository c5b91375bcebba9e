"""Closed-form expectations for the benchmark's output checks.

Nothing here imports or reads the program under test.  Orders and root
counts come from the degrees of the Weyl group (|W| is their product,
|Phi+| the sum of the exponents d - 1); parabolic subgroups are typed from
the Bourbaki diagrams below; double-coset counts |W_J \\ W / W_I| are the
number of W_J-orbits on the weight orbit W.lambda_I, where
lambda_I = sum of the fundamental weights off I, walked with
s_i(mu) = mu - mu_i alpha_i in fundamental-weight coordinates.

Run ``python3 bench/expect.py`` for the self-test on types whose values are
known by hand.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from itertools import combinations

_E_DEGREES = {6: (2, 5, 6, 8, 9, 12), 7: (2, 6, 8, 10, 12, 14, 18),
              8: (2, 8, 12, 14, 18, 20, 24, 30)}


def degrees(family: str, n: int) -> tuple[int, ...]:
    """Degrees of the basic invariants of an irreducible Weyl group."""
    if family == "A":
        return tuple(range(2, n + 2))
    if family in ("B", "C"):
        return tuple(range(2, 2 * n + 1, 2))
    if family == "D":
        return tuple(range(2, 2 * n - 1, 2)) + (n,)
    if family == "E":
        return _E_DEGREES[n]
    if family == "F":
        return (2, 6, 8, 12)
    if family == "G":
        return (2, 6)
    raise ValueError(f"unknown family {family}")


def parse_type(text: str) -> tuple[tuple[str, int], ...]:
    out = []
    for part in text.split("x"):
        m = re.fullmatch(r"([A-G])([0-9]+)", part)
        if m is None:
            raise ValueError(f"bad type {text!r}")
        out.append((m.group(1), int(m.group(2))))
    return tuple(out)


def _component_bonds(family: str, n: int) -> list[tuple[int, int, int]]:
    """Bonds (long end, short end, multiplicity) in Bourbaki numbering, 1-based."""
    if family in ("A", "B", "C"):
        bonds = [(i, i + 1, 1) for i in range(1, n)]
        if family == "B":
            bonds[-1] = (n - 1, n, 2)  # alpha_n short
        if family == "C":
            bonds[-1] = (n, n - 1, 2)  # alpha_n long
        return bonds
    if family == "D":
        return [(i, i + 1, 1) for i in range(1, n - 1)] + [(n - 2, n, 1)]
    if family == "E":
        return [(1, 3, 1), (2, 4, 1)] + [(i, i + 1, 1) for i in range(3, n)]
    if family == "F":
        return [(1, 2, 1), (2, 3, 2), (3, 4, 1)]
    if family == "G":
        return [(2, 1, 3)]  # alpha_1 short
    raise ValueError(f"unknown family {family}")


class Diagram:
    """A Dynkin diagram with global 1-based node numbering across factors."""

    def __init__(self, type_str: str):
        self.type_str = type_str
        self.components = parse_type(type_str)
        self.rank = sum(n for _, n in self.components)
        self.cartan = [[2 if i == j else 0 for j in range(self.rank)] for i in range(self.rank)]
        self.adj: dict[int, dict[int, int]] = {i: {} for i in range(1, self.rank + 1)}
        offset = 0
        for family, n in self.components:
            for a, b, m in _component_bonds(family, n):
                a, b = a + offset, b + offset
                self.adj[a][b] = self.adj[b][a] = m
                # <alpha_long, alpha_short^vee> = -m, <alpha_short, alpha_long^vee> = -1
                self.cartan[a - 1][b - 1] = -m
                self.cartan[b - 1][a - 1] = -1
            offset += n
        self.delta = frozenset(range(1, self.rank + 1))

    def sub_components(self, S) -> list[list[int]]:
        S = set(S)
        seen: set[int] = set()
        out = []
        for start in sorted(S):
            if start in seen:
                continue
            comp, stack = {start}, [start]
            while stack:
                a = stack.pop()
                for b in self.adj[a]:
                    if b in S and b not in comp:
                        comp.add(b)
                        stack.append(b)
            seen |= comp
            out.append(sorted(comp))
        return out

    def sub_type(self, S) -> list[tuple[str, int]]:
        """Irreducible types of the subdiagram on S (B stands for B or C)."""
        out = []
        for comp in self.sub_components(S):
            k = len(comp)
            mults = [self.adj[a][b] for a in comp for b in self.adj[a] if b in comp and a < b]
            valence = {a: sum(1 for b in self.adj[a] if b in comp) for a in comp}
            if k == 1:
                out.append(("A", 1))
            elif 3 in mults:
                out.append(("G", 2))
            elif 2 in mults:
                a, b = next((a, b) for a in comp for b in self.adj[a]
                            if b in comp and self.adj[a][b] == 2)
                end = valence[a] == 1 or valence[b] == 1
                out.append(("B", k) if end else ("F", 4))
            elif any(v == 3 for v in valence.values()):
                out.append(("D", k) if self._short_arms(comp) else ("E", k))
            else:
                out.append(("A", k))
        return out

    def _short_arms(self, comp: list[int]) -> bool:
        """Whether the branch node has at least two arms of length one (type D)."""
        centre = next(a for a in comp if sum(1 for b in self.adj[a] if b in comp) == 3)
        ones = sum(
            1 for b in self.adj[centre]
            if b in comp and sum(1 for c in self.adj[b] if c in comp) == 1
        )
        return ones >= 2

    # -- closed forms ------------------------------------------------------

    def order(self, S=None) -> int:
        """|W_S| (|W| when S is None)."""
        parts = self.components if S is None else self.sub_type(S)
        return math.prod(math.prod(degrees(f, n)) for f, n in parts)

    def n_positive(self, S=None) -> int:
        """|Phi_S^+| (|Phi^+| when S is None)."""
        parts = self.components if S is None else self.sub_type(S)
        return sum(d - 1 for f, n in parts for d in degrees(f, n))

    def dim_x(self, I) -> int:
        return self.n_positive() - self.n_positive(I)

    def dim_g(self) -> int:
        return 2 * self.n_positive() + self.rank

    def faithful(self, I) -> bool:
        I = set(I)
        offset = 0
        for _, n in self.components:
            if set(range(offset + 1, offset + n + 1)) <= I:
                return False
            offset += n
        return True

    def weight_orbit(self, I) -> list[tuple[int, ...]]:
        """The orbit W.lambda_I in fundamental-weight coordinates."""
        lam = tuple(0 if i + 1 in I else 1 for i in range(self.rank))
        seen = {lam}
        order = [lam]
        k = 0
        while k < len(order):
            mu = order[k]
            k += 1
            for i in range(self.rank):
                nu = self.reflect(i, mu)
                if nu not in seen:
                    seen.add(nu)
                    order.append(nu)
        return order

    def reflect(self, i: int, mu: tuple[int, ...]) -> tuple[int, ...]:
        c = mu[i]
        if c == 0:
            return mu
        row = self.cartan[i]
        return tuple(m - c * a for m, a in zip(mu, row))

    def double_cosets(self, J, I) -> int:
        """|W_J \\ W / W_I|: the number of W_J-orbits on W.lambda_I."""
        J = frozenset(J)
        I = frozenset(I)
        if J == self.delta:
            return 1
        if not J:
            return self.order() // self.order(I)
        orbit = self.weight_orbit(I)
        gens = [j - 1 for j in sorted(J)]
        seen: set[tuple[int, ...]] = set()
        count = 0
        for mu in orbit:
            if mu in seen:
                continue
            count += 1
            seen.add(mu)
            stack = [mu]
            while stack:
                nu = stack.pop()
                for j in gens:
                    rho = self.reflect(j, nu)
                    if rho not in seen:
                        seen.add(rho)
                        stack.append(rho)
        return count

    def subsets(self) -> list[frozenset[int]]:
        return [frozenset(c) for k in range(self.rank + 1)
                for c in combinations(range(1, self.rank + 1), k)]


@lru_cache(maxsize=None)
def diagram(type_str: str) -> Diagram:
    return Diagram(type_str)


def sweep_cases(type_str: str) -> dict:
    """Case counts of every sweep check, and the sweep's subset counts."""
    d = diagram(type_str)
    subsets = d.subsets()
    faithful = [I for I in subsets if d.faithful(I)]
    r = d.rank
    w = d.order()
    return {
        "faithful_subsets": len(faithful),
        "strata": 2 ** r,
        "cases": {
            "equidimensionality": sum(d.double_cosets(J, I) for I in faithful for J in subsets),
            "component counts": len(faithful) * (2 ** r + r * 2 ** (r - 1)),
            "closed-fiber formula": len(faithful),
            "fixed-point uniqueness": sum(w // d.order(I) for I in faithful),
            "weight-set identity": sum(w // d.order(I) + 1 for I in faithful),
        },
    }


def self_test() -> None:
    """Check the closed forms on A2, B2, G2 and A2xA1 against hand values."""
    a2, b2, g2, a2a1 = (diagram(t) for t in ("A2", "B2", "G2", "A2xA1"))
    hand = [
        # (diagram, |W|, |Phi+|, dim G)
        (a2, 6, 3, 8),
        (b2, 8, 4, 10),
        (g2, 12, 6, 14),
        (a2a1, 12, 4, 11),
    ]
    for d, w, p, g in hand:
        assert d.order() == w, (d.type_str, d.order())
        assert d.n_positive() == p, (d.type_str, d.n_positive())
        assert d.dim_g() == g, (d.type_str, d.dim_g())
        assert len(d.weight_orbit(frozenset())) == w, d.type_str
        for I in d.subsets():
            assert len(d.weight_orbit(I)) == w // d.order(I), (d.type_str, I)
    # maximal parabolics: |W/W_I| and dim G/P
    assert a2.order({1}) == 2 and a2.dim_x({1}) == 2          # P^2
    assert b2.order({1}) == 2 and b2.dim_x({1}) == 3          # the quadric Q^3
    assert g2.order({2}) == 2 and g2.dim_x({1}) == 5          # G2/P, dim 5
    assert a2a1.order({1, 3}) == 4 and a2a1.dim_x({3}) == 3   # Fl(3) x point
    assert a2a1.sub_type({1, 2}) == [("A", 2)] and a2a1.sub_type({2, 3}) == [("A", 1), ("A", 1)]
    # double cosets: A2 with I = {2}, J = {1} has 2 components (W_J orbits on P^2 points)
    assert a2.double_cosets({1}, {2}) == 2
    # dihedral W of order 2m: m/2 double cosets for s != t, m/2 + 1 for s = t (m even)
    assert b2.double_cosets({1}, {2}) == 2 and b2.double_cosets({2}, {2}) == 3
    assert g2.double_cosets({1}, {2}) == 3 and g2.double_cosets({2}, {1}) == 3
    assert g2.double_cosets({2}, {2}) == 4 and g2.double_cosets({1}, {1}) == 4
    assert a2a1.double_cosets({3}, {1}) == 3 and a2a1.double_cosets({1}, {1}) == 4
    # faithful subsets and the sweep case counts of A2 (as `diagdegen sweep A2` prints them)
    assert not a2.faithful({1, 2}) and not a2a1.faithful({1, 2})
    assert a2a1.faithful({1}) and not a2a1.faithful({1, 3})
    assert sweep_cases("A2") == {
        "faithful_subsets": 3, "strata": 4,
        "cases": {"equidimensionality": 29, "component counts": 24, "closed-fiber formula": 3,
                  "fixed-point uniqueness": 12, "weight-set identity": 15},
    }
    # larger types the workloads use: orders from the classification tables
    assert [diagram(t).order() for t in ("E6", "F4", "D5", "B5", "A6")] == [
        51840, 1152, 1920, 3840, 5040]
    assert [diagram(t).n_positive() for t in ("E6", "E7", "E8")] == [36, 63, 120]
    assert diagram("E6").order({2, 3, 4, 5, 6}) == 1920          # D5 inside E6
    assert diagram("E6").sub_type({2, 3, 4, 5}) == [("D", 4)]
    assert diagram("F4").sub_type({2, 3}) == [("B", 2)]
    assert diagram("E7").sub_type({1, 2, 3, 4, 5, 6}) == [("E", 6)]


if __name__ == "__main__":
    self_test()
    print("expect: self-test passed")

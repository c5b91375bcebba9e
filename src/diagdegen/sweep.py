"""Exhaustive invariant sweeps over all faithful I and all J for one type.

For each check the sweep records the number of cases examined and every
counterexample payload; a clean run is the package's end-to-end evidence
that the component catalogue matches the closed-form expectations.  Each
payload carries a ``repro`` field: the ``diagdegen`` command (``degen``
for checks over a stratum J, ``cosets`` for checks over I alone) that
prints the data the failing check read.
"""

from __future__ import annotations

from . import degen, oracles
from .cosets import min_reps
from .rootsys import DynkinType, WeylOrderCapError, all_subsets, build_root_system, parse_dynkin
from .weyl import generate

#: The sweep refuses Weyl groups over this order: its fixed-point check reads
#: the Bruhat matrix of W, which has |W|^2 bits.
ORDER_CAP = 10_000


class CheckResult:
    def __init__(self, name: str) -> None:
        self.name = name
        self.cases = 0
        self.failures: list[dict] = []

    @property
    def ok(self) -> bool:
        return not self.failures


class SweepReport:
    def __init__(self, type_str: str, faithful_subsets: int, strata: int,
                 checks: list[CheckResult]) -> None:
        self.type_str = type_str
        self.faithful_subsets = faithful_subsets
        self.strata = strata
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json_obj(self) -> dict:
        return {
            "type": self.type_str,
            "faithful_subsets": self.faithful_subsets,
            "strata": self.strata,
            "ok": self.ok,
            "checks": [
                {
                    "name": c.name,
                    "cases": c.cases,
                    "failures": c.failures,
                }
                for c in self.checks
            ],
        }

    def format_text(self) -> str:
        lines = [
            f"sweep {self.type_str}: {self.faithful_subsets} faithful I x {self.strata} J"
        ]
        for c in self.checks:
            status = "ok" if c.ok else f"{len(c.failures)} FAILURES"
            lines.append(f"  {c.name:<24} cases={c.cases:<6} {status}")
            for f in c.failures:
                lines.append(f"    counterexample: {f}")
        lines.append("PASS" if self.ok else "FAIL")
        return "\n".join(lines) + "\n"


def _repro(type_str: str, failure: dict) -> str:
    """The diagdegen command that prints what a failed check read: its catalogue or quotient."""
    def arg(S: list[int]) -> str:
        return ",".join(map(str, S)) or '""'

    if "J" not in failure:
        return f"diagdegen cosets {type_str} --I {arg(failure['I'])}"
    return f"diagdegen degen {type_str} --I {arg(failure['I'])} --J {arg(failure['J'])}"


def run_sweep(type_str: str | DynkinType) -> SweepReport:
    """Run every degeneration invariant check for one Dynkin type.

    Each faithful I is walked once (``min_reps``), and each J is
    catalogued on that walk.  The component counts of every J are checked
    against the J-dominant weights of the orbit W·lambda_I
    (``oracles.double_coset_counts``), which reads no table of W; only the
    closed fiber, the J loop's own catalogue of J empty, is mapped to group
    ids through ``reps`` and compared with ``oracles.coset_min_reps``, the
    one labelling of W/W_I per I.

    Types whose Weyl group has more than ``ORDER_CAP`` elements are refused
    with ``WeylOrderCapError`` before the root system is built.
    """
    dynkin = parse_dynkin(type_str) if isinstance(type_str, str) else type_str
    if dynkin.weyl_order(cap=ORDER_CAP) > ORDER_CAP:
        raise WeylOrderCapError(f"{dynkin}: Weyl group order exceeds the sweep's cap {ORDER_CAP}")
    rs = build_root_system(dynkin)
    g = generate(rs)
    delta = rs.delta()
    subsets = all_subsets(rs.rank)
    faithful = [I for I in subsets if rs.is_faithful(I)]

    equidim = CheckResult("equidimensionality")
    counts = CheckResult("component counts")
    closed = CheckResult("closed-fiber formula")
    fixed = CheckResult("fixed-point uniqueness")
    weights = CheckResult("weight-set identity")

    neg_delta = {rs.neg(rs.simple_index(i)) for i in range(1, rs.rank + 1)}
    for I in faithful:
        q = min_reps(g, I)
        walk, reps, dim_x = q.walk, q.reps, q.dim_x
        payload_i = sorted(I)
        oracle_counts = oracles.double_coset_counts(rs, I)

        counts_by_j: dict[frozenset[int], int] = {}
        for J in subsets:
            comps = degen.components(rs, walk, J)
            if not J:
                fiber = comps
            payload = {"I": payload_i, "J": sorted(J)}

            equidim.cases += len(comps)
            for comp in comps:
                if comp.total_dim != dim_x:
                    equidim.failures.append(
                        payload | {
                            "w": list(walk.words[comp.w]),
                            "total_dim": comp.total_dim,
                            "dim_x": dim_x,
                        }
                    )

            counts.cases += 1
            n = len(comps)
            counts_by_j[J] = n
            oracle_n = oracle_counts[J]
            if n != oracle_n:
                counts.failures.append(payload | {"count": n, "oracle": oracle_n})
            if (n == 1) != (J == delta):
                counts.failures.append(payload | {"count": n, "expected_unique_iff": "J=Delta"})

        # antitonicity along single-element extensions of J
        for J in subsets:
            for j in delta - J:
                counts.cases += 1
                if counts_by_j[J] < counts_by_j[J | {j}]:
                    counts.failures.append(
                        {"I": payload_i, "J": sorted(J), "j": j, "issue": "count not antitone"}
                    )

        # the J = {} catalogue of the loop above against the coset oracle: (X-_w, X_w) per w
        closed.cases += 1
        got = [(reps[c.w], reps[c.left_index], *c[2:]) for c in fiber]
        words = g.words
        direct = [(w, w, 0, dim_x - len(words[w]), len(words[w]))
                  for w in oracles.coset_min_reps(g, I)]
        if got != direct:
            closed.failures.append({"I": payload_i, "pairs": len(got), "direct": len(direct)})

        covered: set[int] = set()
        for k, w in enumerate(reps):
            fixed.cases += 1
            profile = degen.fixed_point_profile(g, I, w)
            if profile != {(w, w)}:
                fixed.failures.append(
                    {"I": payload_i, "w": list(walk.words[k]), "profile_size": len(profile)}
                )
            weights.cases += 1
            try:
                ws = degen.weight_set(g, I, w)
            except AssertionError as exc:
                weights.failures.append({"I": payload_i, "w": list(walk.words[k]), "error": str(exc)})
                continue
            if len(ws) != dim_x:
                weights.failures.append(
                    {"I": payload_i, "w": list(walk.words[k]), "size": len(ws), "dim_x": dim_x}
                )
            covered |= ws & neg_delta
        weights.cases += 1
        if covered != neg_delta:
            weights.failures.append({"I": payload_i, "issue": "negative simple roots not covered"})

    checks = [equidim, counts, closed, fixed, weights]
    for check in checks:
        for failure in check.failures:
            failure["repro"] = _repro(str(dynkin), failure)
    return SweepReport(str(dynkin), len(faithful), len(subsets), checks)

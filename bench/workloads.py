"""The benchmark's workloads: one fixed list of CLI calls per workload and seed.

Each operation is the argv of one ``diagdegen`` call.  The seed draws the
(type, I, J) triples of the catalogue workloads from the pools below and
shuffles the order of every list; the number of operations, their verbs,
types and output formats never depend on it, so every pass of a workload
costs about the same whatever the seed.
"""

from __future__ import annotations

import random

from expect import diagram

WORKLOADS = ("sweep-desk", "catalogue-quotient", "catalogue-fullflag")

#: The exhaustive oracle differential: every faithful I, every J, per type.
SWEEP_TYPES = ("A4", "B3", "C3", "D4", "B4")

#: Maximal parabolics of E6 with |W^I| = 27 (I = Delta minus an end node).
E6_ENDS = (1, 6)
#: Other quotient types: I = Delta minus one node, any node.
QUOTIENT_TYPES = ("F4", "B5", "A6", "D5")
#: Types for the verbs that never need W (roots, orbits), under the order cap.
NO_W_TYPES = ("E6", "F4", "B5", "C5", "A6", "D5", "D4", "A5")
#: Ranks n of A_n for pn and gorenstein, under the order cap.
PN_RANKS = tuple(range(2, 9))
#: Refused today by the Weyl order cap although none of them builds W; the
#: same four in every pass, whatever the seed.
CAP_REFUSALS = (
    ("orbits", "E7"),
    ("roots", "E8"),
    ("pn", "A12", "--J", "1"),
    ("gorenstein", "A9"),
)

#: Full flag and near-full quotients: W^I = W or |W|/2, outputs of 0.1-1 MB.
FULLFLAG_TYPES = ("A5", "A6", "B4", "B5", "D5", "F4")


def _subset_arg(S) -> str:
    return ",".join(str(i) for i in sorted(S))


def _random_subset(rng: random.Random, rank: int) -> list[int]:
    return [i for i in range(1, rank + 1) if rng.random() < 0.5]


def _sweep_desk(rng: random.Random) -> list[tuple[str, ...]]:
    return [("sweep", t, "--json") for t in SWEEP_TYPES]


def _catalogue_quotient(rng: random.Random) -> list[tuple[str, ...]]:
    ops = []
    e6 = diagram("E6").delta
    for verb, fmt in (("cosets", ()), ("degen", ("--json",))):
        I = e6 - {rng.choice(E6_ENDS)}
        argv = [verb, "E6", "--I", _subset_arg(I)]
        if verb == "degen":
            argv += ["--J", _subset_arg(_random_subset(rng, 6))]
        ops.append(tuple(argv) + fmt)
    for t in QUOTIENT_TYPES:
        delta = diagram(t).delta
        I = delta - {rng.randint(1, len(delta))}
        ops.append(("cosets", t, "--I", _subset_arg(I), "--json"))
        I = delta - {rng.randint(1, len(delta))}
        J = _random_subset(rng, len(delta))
        ops.append(("degen", t, "--I", _subset_arg(I), "--J", _subset_arg(J)))
    for fmt in ((), ("--json",)):
        ops.append(("roots", rng.choice(NO_W_TYPES)) + fmt)
        ops.append(("orbits", rng.choice(NO_W_TYPES)) + fmt)
        n = rng.choice(PN_RANKS)
        ops.append(("pn", f"A{n}", "--J", _subset_arg(_random_subset(rng, n))) + fmt)
        ops.append(("gorenstein", f"A{rng.choice(PN_RANKS)}", "--variant",
                    rng.choice(("paper", "signed"))) + fmt)
    ops.extend(CAP_REFUSALS)
    return ops


def _catalogue_fullflag(rng: random.Random) -> list[tuple[str, ...]]:
    ops = []
    for t in FULLFLAG_TYPES:
        rank = diagram(t).rank
        queries = [
            ("flagdegen", t, "--J", str(rng.randint(1, rank))),
            ("cosets", t, "--I", ""),
            ("degen", t, "--I", str(rng.randint(1, rank)), "--J", str(rng.randint(1, rank))),
        ]
        for q in queries:
            ops.append(q)
            ops.append(q + ("--json",))
    return ops


def build(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The operations of one pass of a workload, drawn from the seed."""
    rng = random.Random(f"{workload}/{seed}")
    ops = {
        "sweep-desk": _sweep_desk,
        "catalogue-quotient": _catalogue_quotient,
        "catalogue-fullflag": _catalogue_fullflag,
    }[workload](rng)
    rng.shuffle(ops)
    return ops

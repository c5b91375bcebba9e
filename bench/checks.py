"""Check one CLI call's output against the closed forms in :mod:`expect`.

``expected(argv)`` derives everything a call must print from its argv
alone; ``check(argv, code, out, err)`` compares the call's exit code,
stdout and stderr with it.  Text tables are parsed back into rows, so the
text and the ``--json`` renderings of a query are held to the same values.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import lru_cache

import expect
from workloads import CAP_REFUSALS


class WrongOutput(Exception):
    """The call exited or printed something the closed forms rule out."""


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise WrongOutput(what)


def parse_argv(argv: tuple[str, ...]) -> dict:
    verb, type_str, rest = argv[0], argv[1], list(argv[2:])
    opts = {"verb": verb, "type": type_str, "json": "--json" in rest}
    for flag in ("--I", "--J", "--variant"):
        if flag in rest:
            opts[flag[2:]] = rest[rest.index(flag) + 1]
    for key in ("I", "J"):
        if key in opts:
            opts[key] = frozenset(int(x) for x in opts[key].split(",") if x)
    return opts


@lru_cache(maxsize=None)
def expected(argv: tuple[str, ...]) -> dict:
    """The values a successful call must print, from closed forms only."""
    q = parse_argv(argv)
    verb = q["verb"]
    if verb in ("pn", "gorenstein"):
        n = int(q["type"][1:])
        out = {"n": n}
        if verb == "pn":
            out["components"] = n - len(q["J"]) + 1
        else:
            variant = q.get("variant", "paper")
            out["p"] = -(n + 1) // 2 if variant == "signed" and n % 2 else None
            out["hilbert"] = [math.comb(2 * m + n, n) for m in range(n + 2)]
        return out
    d = expect.diagram(q["type"])
    if verb == "sweep":
        return expect.sweep_cases(q["type"])
    if verb in ("roots", "orbits"):
        return {"rank": d.rank, "n_positive": d.n_positive(), "dim_g": d.dim_g()}
    I = q.get("I", frozenset())
    out = {"dim_x": d.dim_x(I)}
    if verb == "cosets":
        out["count"] = d.order() // d.order(I)
    elif verb == "flagdegen":
        out["count"] = d.order() // d.order(q["J"])
    else:  # degen: 1 over J = Delta, |W/W_I| over J empty, W_J-orbits on W.lambda_I otherwise
        out["count"] = d.double_cosets(q["J"], I)
    return out


def _rows(text: str, header: str, ncols: int) -> tuple[re.Match, list[list[str]]]:
    lines = text.split("\n")
    _require(lines[-1] == "", "text output does not end in a newline")
    m = re.fullmatch(header, lines[0])
    _require(m is not None, f"unexpected first line {lines[0]!r}")
    rows = [re.split(r"\s{2,}", line.strip()) for line in lines[2:-1]]
    _require(all(len(r) == ncols for r in rows), "table row with the wrong number of columns")
    return m, rows


def _word(text: str) -> list[int]:
    return json.loads(text)


def _subset_text(S) -> str:
    return ", ".join(str(i) for i in sorted(S))


def _check_components(exp: dict, comps: list[tuple[list, int, int, int, int]]) -> None:
    _require(len(comps) == exp["count"], f"{len(comps)} components, expected {exp['count']}")
    for w, levi, xminus, x, total in comps:
        _require(total == exp["dim_x"], f"component of dimension {total}, dim X = {exp['dim_x']}")
        _require(levi + xminus + x == total, "dimension split does not add up")
        _require(len(w) == x, "dim X_w differs from the length of w")


def _check_sweep(q, exp, out):
    obj = json.loads(out)
    _require(obj["ok"] is True, "sweep reports failures")
    _require(obj["type"] == q["type"], "sweep of another type")
    _require(obj["faithful_subsets"] == exp["faithful_subsets"], "faithful subset count")
    _require(obj["strata"] == exp["strata"], "strata count")
    cases = {c["name"]: c["cases"] for c in obj["checks"]}
    _require(cases == exp["cases"], f"check cases {cases}, expected {exp['cases']}")
    _require(all(not c["failures"] for c in obj["checks"]), "sweep counterexamples")


def _check_cosets(q, exp, out):
    if q["json"]:
        obj = json.loads(out)
        _require(obj["I"] == sorted(q["I"]) and obj["type"] == q["type"], "echoed query")
        _require(obj["dim_x"] == exp["dim_x"], "dim X")
        reps, dims = obj["reps"], obj["dims"]
    else:
        m, rows = _rows(out, r"W\^I for (\S+), I=\[(.*)\]: (\d+) reps, dim X = (\d+)", 3)
        _require(m[1] == q["type"] and m[2] == _subset_text(q["I"]), "echoed query")
        _require(int(m[3]) == len(rows) and int(m[4]) == exp["dim_x"], "header counts")
        reps = [_word(r[0]) for r in rows]
        dims = [[int(r[1]), int(r[2])] for r in rows]
    _require(len(reps) == exp["count"] == len(dims), f"{len(reps)} reps, expected {exp['count']}")
    _require(len({tuple(w) for w in reps}) == len(reps), "repeated representative")
    for w, (c, cminus) in zip(reps, dims):
        _require(c + cminus == exp["dim_x"] and c == len(w), "cell dimensions")


def _check_degen(q, exp, out):
    if q["json"]:
        obj = json.loads(out)
        _require(obj["type"] == q["type"] and obj["J"] == sorted(q["J"]), "echoed query")
        if q["verb"] == "degen":
            _require(obj["I"] == sorted(q["I"]) and obj["dim_x"] == exp["dim_x"], "echoed I, dim X")
        comps = [(c["w"], c["dims"]["levi"], c["dims"]["xminus"], c["dims"]["x"],
                  c["dims"]["total"]) for c in obj["components"]]
    else:
        head = (r"full-flag degeneration over J=\[(.*)\] for (\S+)()" if q["verb"] == "flagdegen"
                else r"degeneration over J=\[(.*)\] for (\S+), I=\[(.*)\]")
        m, rows = _rows(out, head + r": (\d+) components", 6)
        _require(m[1] == _subset_text(q["J"]) and m[2] == q["type"], "echoed query")
        _require(q["verb"] == "flagdegen" or m[3] == _subset_text(q["I"]), "echoed I")
        _require(int(m[4]) == len(rows), "header count")
        comps = [(_word(r[0]), *map(int, r[2:])) for r in rows]
    _check_components(exp, comps)


def _check_orbits(q, exp, out):
    rank, dim_g = exp["rank"], exp["dim_g"]
    if q["json"]:
        obj = json.loads(out)
        _require(obj["dim_g"] == dim_g, "dim G")
        orbits = [(o["J"], o["orbit_dim"], o["stab_dim"]) for o in obj["orbits"]]
    else:
        m, rows = _rows(out, r"(\S+): (\d+) orbits, dim G = (\d+)", 4)
        _require(m[1] == q["type"] and int(m[2]) == len(rows) and int(m[3]) == dim_g, "header")
        orbits = [(_word(r[0]), int(r[1]), int(r[2])) for r in rows]
    _require(len(orbits) == 2 ** rank, f"{len(orbits)} orbits, expected 2^{rank}")
    _require(len({tuple(J) for J, _, _ in orbits}) == 2 ** rank, "repeated orbit")
    for J, orbit_dim, stab_dim in orbits:
        _require(orbit_dim == dim_g - rank + len(J), f"dim O_{J} = {orbit_dim}")
        _require(orbit_dim + stab_dim == 2 * dim_g, "orbit-stabilizer dimension count")


def _check_roots(q, exp, out):
    if q["json"]:
        obj = json.loads(out)
        rank, n_roots, n_pos = obj["rank"], obj["n_roots"], len(obj["positive"])
    else:
        m, rows = _rows(out, r"type (\S+): rank (\d+), (\d+) roots \((\d+) positive\)", 3)
        _require(m[1] == q["type"] and int(m[4]) == len(rows), "header")
        rank, n_roots, n_pos = int(m[2]), int(m[3]), len(rows)
    _require(rank == exp["rank"], "rank")
    _require(n_roots == 2 * exp["n_positive"] and n_pos == exp["n_positive"], "root count")


def _check_pn(q, exp, out):
    n = exp["n"]
    if q["json"]:
        obj = json.loads(out)
        _require(obj["n"] == n and obj["J"] == sorted(q["J"]), "echoed query")
        blocks = obj["blocks"]
        dims = [(c["dims"]["x"], c["dims"]["y"], c["dims"]["fiber"]) for c in obj["components"]]
    else:
        m, rows = _rows(out, r"P\^(\d+) with blocks \[(.*)\] \(J=\[(.*)\]\): (\d+) components", 6)
        _require(int(m[1]) == n and m[3] == _subset_text(q["J"]), "echoed query")
        _require(int(m[4]) == len(rows), "header count")
        blocks = json.loads(f"[{m[2]}]")
        dims = [(int(r[2]), int(r[3]), int(r[4])) for r in rows]
    _require(len(dims) == exp["components"] == len(blocks), f"{len(dims)} components")
    _require(sum(blocks) == n + 1, "blocks do not partition n + 1")
    _require(all(x + y + f == n for x, y, f in dims), "component not of dimension n")


def _check_gorenstein(q, exp, out):
    n = exp["n"]
    if q["json"]:
        obj = json.loads(out)
        _require(obj["n"] == n, "echoed n")
        coeffs, p = obj["hilbert"], obj["p"]
    else:
        lines = out.split("\n")
        _require(len(lines) == 3 and lines[2] == "", "two lines of text")
        m = re.fullmatch(rf"P\^{n}: Hilbert polynomial coefficients (\[.*\])", lines[0])
        _require(m is not None, "Hilbert polynomial line")
        coeffs = json.loads(m[1])
        m = re.fullmatch(r"variant \w+: (?:p = (-?\d+)|no integer p \(Gorenstein obstructed\))",
                         lines[1])
        _require(m is not None, "variant line")
        p = None if m[1] is None else int(m[1])
    poly = [Fraction(a, b) for a, b in coeffs]
    values = [sum(c * m ** k for k, c in enumerate(poly)) for m in range(n + 2)]
    _require(values == exp["hilbert"], "Hilbert polynomial differs from C(2m+n, n)")
    _require(p == exp["p"], f"p = {p}, expected {exp['p']}")


_CHECKS = {
    "sweep": _check_sweep,
    "cosets": _check_cosets,
    "degen": _check_degen,
    "flagdegen": _check_degen,
    "orbits": _check_orbits,
    "roots": _check_roots,
    "pn": _check_pn,
    "gorenstein": _check_gorenstein,
}


def check(argv: tuple[str, ...], code: int, out: bytes, err: bytes) -> bool:
    """True if the call succeeded correctly, False for a named cap refusal.

    Raises WrongOutput for anything else.
    """
    if code == 3 and argv in CAP_REFUSALS:
        _require(not out and err.startswith(b"error: ") and b"exceeds cap" in err,
                 "cap refusal without its one-line message")
        return False
    _require(code == 0, f"exit code {code}: {err.decode(errors='replace').strip()[-300:]}")
    q = parse_argv(argv)
    try:
        _CHECKS[q["verb"]](q, expected(argv), out.decode())
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise WrongOutput(f"unparsable output: {exc!r}") from None
    return True

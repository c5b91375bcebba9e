"""Command line front end with deterministic JSON and table output.

Grammar: ``diagdegen <verb> <TYPE> [--I a,b,...] [--J a,b,...] [--json]
[--variant paper|signed] [--out PATH]``.  Subsets are comma-separated
1-based simple-root indices; pass ``""`` for the empty subset.  An option
takes its value as ``--I 1,2`` or ``--I=1,2``; option names are matched
whole, never by prefix.  ``-h`` or ``--help``, first or after a verb, prints
the grammar on stdout and exits 0.  :func:`parse_args` reads argv from the
table of verbs, ``_GRAMMAR``, without argparse, whose import and parser
construction cost a call about 6 ms.  Exit codes: 0 success, 1 sweep
failures, 2 usage errors (any malformed argv, an unknown type or index, an
``--out`` path that is empty or cannot be written, and stdout that cannot be
written), 3 domain errors (a size cap of ``rootsys``, of the sweep, or of
``projgor`` for ``pn`` and ``gorenstein``, which build no root system; a
non-faithful I; running out of memory anywhere in the call), 4 internal
invariant failures.  Every error is one line on stderr.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, NamedTuple

from . import VARIANTS, degen
from .cosets import Quotient, quotient
from .rootsys import (DynkinError, RootSystem, WeylOrderCapError, build_root_system,
                      parse_dynkin, simple_subset)

# json.encoder, tempfile, projgor, sweep and wonderful are imported by the code
# paths that use them: each call runs in a fresh process, and most verbs need none.

class Verb(NamedTuple):
    """A row of the grammar: a verb's help text, its handler and the options it
    takes besides --json and --out."""

    help: str
    handler: Callable[[Args], Rendered]
    takes: tuple[str, ...] = ()

    @property
    def options(self) -> tuple[str, ...]:
        return self.takes + ("json", "out")

    @property
    def required(self) -> tuple[str, ...]:
        """The options it takes that have no default in ``Args``."""
        return tuple(n for n in self.takes if Args._field_defaults[n] is None)


#: Option name -> (metavar, help), in the order of the grammar; --json is the one flag.
_OPTIONS = {
    "I": ("a,b,...", 'parabolic subset, e.g. "2,3" ("" = empty)'),
    "J": ("a,b,...", 'stratum subset, e.g. "1" ("" = empty)'),
    "json": (None, "emit canonical JSON"),
    "variant": ("|".join(VARIANTS), "Gorenstein sign convention (default paper)"),
    "out": ("PATH", "write output to a file instead of stdout"),
}
_HELP = ("-h", "--help")


class UsageError(ValueError):
    pass


class Args(NamedTuple):
    """A parsed argv.  With ``help`` set only ``verb`` is read; it is None for the top level."""

    verb: str | None
    type: str | None = None
    I: str | None = None
    J: str | None = None
    variant: str = "paper"
    json: bool = False
    out: str | None = None
    help: bool = False


def parse_args(argv: list[str]) -> Args:
    """Parse argv by the grammar of ``_GRAMMAR``; raise UsageError for anything else.

    An option's value is the rest of its token after ``=``, or else the next
    token, whatever it holds.  Options may come before or after TYPE, and the
    last of a repeated option wins.  Names are matched whole, not by prefix.
    """
    if not argv:
        raise UsageError(f"missing verb: one of {', '.join(VERBS)}")
    verb, *rest = argv
    if verb in _HELP:
        return Args(None, help=True)
    row = _GRAMMAR.get(verb)
    if row is None:
        raise UsageError(f"unknown verb {verb!r}: expected one of {', '.join(VERBS)}")
    values: dict = {}
    positional = []
    tokens = iter(rest)
    for token in tokens:
        if token in _HELP:
            return Args(verb, help=True)
        if not token.startswith("-"):
            positional.append(token)
            continue
        name, eq, value = token.partition("=")
        option = name[2:]
        if not name.startswith("--") or option not in _OPTIONS:
            raise UsageError(f"{verb}: unknown option {name!r}")
        if option not in row.options:
            raise UsageError(f"{verb} takes no {name}")
        if option == "json":
            if eq:
                raise UsageError("--json takes no value")
            values["json"] = True
            continue
        if not eq:
            value = next(tokens, None)
            if value is None:
                raise UsageError(f"{name}: expected a value")
        values[option] = value
    if not positional:
        raise UsageError(f"{verb}: missing TYPE")
    if len(positional) > 1:
        raise UsageError(f"{verb}: unexpected argument {positional[1]!r}")
    for option in row.required:
        if option not in values:
            raise UsageError(f"{verb} requires --{option}")
    if values.get("variant", "paper") not in VARIANTS:
        raise UsageError(f"--variant: expected {' or '.join(VARIANTS)}, got {values['variant']!r}")
    if values.get("out") == "":
        raise UsageError("--out: empty path")
    return Args(verb, positional[0], **values)


def _flag(name: str) -> str:
    metavar = _OPTIONS[name][0]
    return f"--{name} {metavar}" if metavar else f"--{name}"


def _usage(verb: str | None) -> str:
    """The help text of one verb, or of the whole grammar for None."""
    if verb is None:
        flags = " ".join(f"[{_flag(n)}]" for n in _OPTIONS)
        lines = [f"usage: diagdegen <verb> <TYPE> {flags}", "",
                 "Wonderful compactification strata and diagonal degenerations of G/P.", "",
                 "verbs:"]
        lines += [f"  {name:<12}{row.help}" for name, row in _GRAMMAR.items()]
        names = tuple(_OPTIONS)
    else:
        row = _GRAMMAR[verb]
        names = row.options
        flags = " ".join(_flag(n) if n in row.required else f"[{_flag(n)}]" for n in names)
        lines = [f"usage: diagdegen {verb} <TYPE> {flags}", "", row.help]
    lines += ["", "TYPE is a Dynkin type, e.g. A3 or B2xA1.", "", "options:"]
    lines += [f"  {_flag(n):<24}{_OPTIONS[n][1]}" for n in names]
    lines.append(f"  {'-h, --help':<24}print this help and exit")
    return "\n".join(lines) + "\n"


def _parse_subset(rank: int, text: str, flag: str) -> frozenset[int]:
    text = text.strip()
    if not text:
        return frozenset()
    parts = [part.strip() for part in text.split(",")]
    # -?[0-9]+ in ASCII: int() would also take "1_2", "+1" and "٣"
    if not all(p.isascii() and p.removeprefix("-").isdigit() for p in parts):
        raise UsageError(f"--{flag}: expected comma-separated integers, got {text!r}")
    try:
        return simple_subset(rank, [int(part) for part in parts])
    except ValueError as exc:
        raise UsageError(f"--{flag}: {exc}") from None


def _require_type_a(ns: Args) -> int:
    dynkin = parse_dynkin(ns.type)
    if [family for family, _ in dynkin.components] != ["A"]:
        raise UsageError(f"{ns.verb} requires an irreducible type A_n, got {dynkin}")
    return dynkin.rank


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), *(len(r[k]) for r in rows)) if rows else len(h)
              for k, h in enumerate(headers)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    lines = [fmt.format(*headers)]
    lines.extend(fmt.format(*row) for row in rows)
    return "\n".join(lines) + "\n"


# -- verb handlers -----------------------------------------------------------
#
# Each handler returns its JSON payload, less the "verb" that ``_run`` adds, and
# a function that renders the text output from that payload alone (``sweep``'s is
# ``SweepReport.format_text``): the text is only built when printed, prints the
# facts the JSON holds, and keeps none of the objects the handler built.

Rendered = tuple[dict, Callable[[], str]]


def _cmd_roots(ns) -> Rendered:
    rs = build_root_system(ns.type)
    payload = {
        "type": str(rs.dynkin),
        "rank": rs.rank,
        "cartan": [list(row) for row in rs.cartan],
        "n_roots": rs.n_roots,
        "positive": [list(rs.coords(r)) for r in rs.positive_indices()],
    }

    def text() -> str:
        positive = payload["positive"]
        rows = [[str(r), str(coords), str(sum(coords))] for r, coords in enumerate(positive)]
        return (
            f"type {payload['type']}: rank {payload['rank']}, {payload['n_roots']} roots "
            f"({len(positive)} positive)\n"
            + _table(["idx", "coords", "height"], rows)
        )

    return payload, text


def _cmd_weyl(ns) -> Rendered:
    rs = build_root_system(ns.type)
    word = rs.longest_word(rs.delta())
    if len(word) != rs.n_positive:
        raise RuntimeError(f"{rs.dynkin}: longest word has length {len(word)}, not |Phi+|")
    payload = {
        "type": str(rs.dynkin),
        "order": rs.dynkin.weyl_order(),
        "n_positive": rs.n_positive,
        "longest_word": list(word),
    }

    def text() -> str:
        return (
            f"W({payload['type']}): order {payload['order']}, longest element length "
            f"{payload['n_positive']}, word {payload['longest_word']}\n"
        )

    return payload, text


def _cmd_cosets(ns) -> Rendered:
    rs = build_root_system(ns.type)
    I = _parse_subset(rs.rank, ns.I, "I")
    q = quotient(rs, I)
    payload = {
        "type": str(rs.dynkin),
        "I": sorted(I),
        "dim_x": q.dim_x,
        "reps": [list(word) for word in q.words],
        "dims": [list(d) for d in q.dims],
    }

    def text() -> str:
        rows = [[str(word), str(d[0]), str(d[1])]
                for word, d in zip(payload["reps"], payload["dims"])]
        return (
            f"W^I for {payload['type']}, I={payload['I']}: {len(rows)} reps, "
            f"dim X = {payload['dim_x']}\n" + _table(["word", "dim C", "dim C-"], rows)
        )

    return payload, text


def _cmd_orbits(ns) -> Rendered:
    from .wonderful import orbit_lattice

    rs = build_root_system(ns.type)
    lattice = orbit_lattice(rs)
    payload = {
        "type": str(rs.dynkin),
        "dim_g": rs.n_roots + rs.rank,
        "orbits": [
            {
                "J": sorted(o.J),
                "orbit_dim": o.orbit_dim,
                "stab_dim": o.stab_dim,
                "unipotent_count": o.unipotent_count,
                "levi": str(o.levi_type) or None,
            }
            for o in lattice
        ],
    }

    def text() -> str:
        orbits = payload["orbits"]
        rows = [[str(o["J"]), str(o["orbit_dim"]), str(o["stab_dim"]), o["levi"] or "-"]
                for o in orbits]
        return (
            f"{payload['type']}: {len(orbits)} orbits, dim G = {payload['dim_g']}\n"
            + _table(["J", "dim O_J", "dim stab", "levi"], rows)
        )

    return payload, text


def _components_payload(rs: RootSystem, q: Quotient, J: frozenset[int]) -> list[dict]:
    return [
        {
            "w": list(q.words[c.w]),
            "left": list(q.words[c.left_index]),
            "dims": {
                "levi": c.levi_quotient_dim,
                "xminus": c.xminus_dim,
                "x": c.x_dim,
                "total": c.total_dim,
            },
        }
        for c in degen.components(rs, q, J)
    ]


def _components_text(components: list[dict], head: str) -> str:
    rows = []
    for c in components:
        d = c["dims"]
        rows.append([str(c["w"]), str(c["left"]), str(d["levi"]), str(d["xminus"]),
                     str(d["x"]), str(d["total"])])
    return head + _table(["w", "left", "levi", "xminus", "x", "total"], rows)


def _cmd_degen(ns) -> Rendered:
    rs = build_root_system(ns.type)
    I = _parse_subset(rs.rank, ns.I, "I")
    J = _parse_subset(rs.rank, ns.J, "J")
    degen.require_faithful(rs, I)  # before the walk, which may be over SIZE_CAP
    q = quotient(rs, I)
    comps = _components_payload(rs, q, J)
    payload = {
        "type": str(rs.dynkin),
        "I": sorted(I),
        "J": sorted(J),
        "dim_x": q.dim_x,
        "components": comps,
    }
    head = (
        f"degeneration over J={payload['J']} for {payload['type']}, "
        f"I={payload['I']}: {len(comps)} components\n"
    )
    return payload, lambda: _components_text(comps, head)


def _cmd_flagdegen(ns) -> Rendered:
    rs = build_root_system(ns.type)
    J = _parse_subset(rs.rank, ns.J, "J")
    comps = _components_payload(rs, quotient(rs, frozenset()), J)
    payload = {
        "type": str(rs.dynkin),
        "J": sorted(J),
        "components": comps,
    }
    head = (
        f"full-flag degeneration over J={payload['J']} for {payload['type']}: "
        f"{len(comps)} components\n"
    )
    return payload, lambda: _components_text(comps, head)


def _cmd_pn(ns) -> Rendered:
    from . import projgor

    n = _require_type_a(ns)
    projgor.require_under_cap(n)  # before J, as build_root_system is for the other verbs
    J = _parse_subset(n, ns.J, "J")
    comp = projgor.composition_from_J(n, J)
    payload = {
        "n": n,
        "J": sorted(J),
        "blocks": list(comp.blocks),
        "components": [
            {
                "i": c.i,
                "blocks": list(comp.blocks),
                "smooth": c.smooth,
                "blowup_end": c.blowup_end,
                "w_value": c.w_value,
                "dims": {"x": c.x_dim, "y": c.y_dim, "fiber": c.fiber_dim},
            }
            for c in projgor.pn_components(comp)
        ],
    }

    def text() -> str:
        comps = payload["components"]
        rows = [[str(c["i"]), str(c["w_value"]), str(c["dims"]["x"]), str(c["dims"]["y"]),
                 str(c["dims"]["fiber"]), "yes" if c["smooth"] else "no"] for c in comps]
        return (
            f"P^{payload['n']} with blocks {payload['blocks']} (J={payload['J']}): "
            f"{len(comps)} components\n"
            + _table(["i", "w(1)", "x", "y", "fiber", "smooth"], rows)
        )

    return payload, text


def _cmd_gorenstein(ns) -> Rendered:
    from . import projgor

    n = _require_type_a(ns)
    p = projgor.gorenstein_obstruction(n, ns.variant)
    h = projgor.diag_hilbert_poly(n)
    payload = {"n": n, "variant": ns.variant, "p": p, "hilbert": h.json_coeffs()}
    return payload, lambda: (
        f"P^{payload['n']}: Hilbert polynomial coefficients {payload['hilbert']}\n"
        f"variant {payload['variant']}: "
        + (f"p = {payload['p']}\n" if payload["p"] is not None
           else "no integer p (Gorenstein obstructed)\n"))


def _cmd_sweep(ns) -> Rendered:
    from .sweep import run_sweep

    report = run_sweep(ns.type)
    return report.to_json_obj(), report.format_text


_GRAMMAR = {
    "roots": Verb("list the roots of a type", _cmd_roots),
    "weyl": Verb("Weyl group summary", _cmd_weyl),
    "cosets": Verb("minimal coset representatives and cell dimensions", _cmd_cosets, ("I",)),
    "orbits": Verb("orbit lattice of the wonderful compactification", _cmd_orbits),
    "degen": Verb("degeneration components over a stratum", _cmd_degen, ("I", "J")),
    "flagdegen": Verb("degeneration components for the full flag variety", _cmd_flagdegen, ("J",)),
    "pn": Verb("projective-space closed forms (type A_n)", _cmd_pn, ("J",)),
    "gorenstein": Verb("Hilbert polynomial and Gorenstein obstruction (type A_n)",
                       _cmd_gorenstein, ("variant",)),
    "sweep": Verb("run every invariant check over all faithful I and all J", _cmd_sweep),
}
VERBS = tuple(_GRAMMAR)


def _render_json(payload: dict) -> str:
    """The text of ``json.dumps(payload, indent=2, sort_keys=True)``, rendered directly.

    With ``indent`` set, ``json.dumps`` takes CPython's pure-Python encoder.
    This renders the value types the payloads use (dicts with str keys,
    lists, int, str, bool and None) to the same text, lists of ints (the
    words and dims that make up most of the output) in one join; any other
    type raises TypeError.
    """
    from json.encoder import encode_basestring_ascii as quote

    ints = {int}

    def render(value, nl: str) -> str:
        kind = type(value)
        if kind is list:
            if not value:
                return "[]"
            inner = nl + "  "
            if set(map(type, value)) == ints:
                body = ("," + inner).join(map(str, value))
            else:
                body = ("," + inner).join([render(v, inner) for v in value])
            return "[" + inner + body + nl + "]"
        if kind is dict:
            if not value:
                return "{}"
            inner = nl + "  "
            items = [quote(k) + ": " + (str(v) if type(v) is int else render(v, inner))
                     for k, v in sorted(value.items())]
            return "{" + inner + ("," + inner).join(items) + nl + "}"
        if kind is int:
            return str(value)
        if kind is str:
            return quote(value)
        if kind is bool:
            return "true" if value else "false"
        if value is None:
            return "null"
        raise TypeError(f"cannot render {kind.__name__} as JSON")

    return render(payload, "\n")


def _write_file(path: str, text: str) -> None:
    """Write text to the file path names through a temp file and a rename, never partially.

    A symlink is written through, not replaced.  An existing target that is
    neither a regular file nor a directory (a FIFO, a device) is refused,
    since the rename would replace it; a directory fails at the rename.
    """
    import tempfile

    target = os.path.realpath(path)
    if os.path.exists(target) and not (os.path.isfile(target) or os.path.isdir(target)):
        raise OSError("not a regular file")
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".diagdegen-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # the mode open() would have given
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def run(argv: list[str] | None = None) -> int:
    return guarded(lambda: _run(argv))


def guarded(body: Callable[[], int]) -> int:
    """Run body for its exit code; an error it raises prints one line and maps to 2, 3 or 4."""
    try:
        return body()
    except (DynkinError, UsageError, WeylOrderCapError, degen.UnfaithfulActionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (DynkinError, UsageError)) else 3
    except (RuntimeError, AssertionError) as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 4
    except MemoryError:
        pass  # leave the handler first, so the traceback frees what the call held
    print("error: out of memory", file=sys.stderr)
    return 3


def _run(argv: list[str] | None) -> int:
    ns = parse_args(sys.argv[1:] if argv is None else argv)
    if ns.help:
        rendered, code = _usage(ns.verb), 0
    else:
        payload, text = _GRAMMAR[ns.verb].handler(ns)
        payload["verb"] = ns.verb
        rendered = _render_json(payload) + "\n" if ns.json else text()
        code = 1 if ns.verb == "sweep" and not payload["ok"] else 0
    try:
        if ns.out is None:
            sys.stdout.write(rendered)
            sys.stdout.flush()
        else:
            _write_file(ns.out, rendered)
    except OSError as exc:
        if ns.out is None:
            # What stays buffered goes to the null device, so the flush at exit cannot fail.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        target = "stdout" if ns.out is None else ns.out
        print(f"error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 2
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

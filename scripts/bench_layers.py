#!/usr/bin/env python3
"""Time the layers of the full-flag catalogue and the sweep in process, and record them.

For the full flag (I empty) of each type below, and for the call
``flagdegen T --J 1``, this times the median of REPEATS runs of each layer:

* ``quotient``: ``cosets.quotient(rs, ())``, the walk of W;
* ``components``: ``degen.components(rs, q, {1})`` on that walk;
* ``components_all``: ``degen.components(rs, q, J)`` on that walk for
  every J, the per-J filter of ``^J W^I`` over the whole walk;
* ``json``: ``cli.parse_args`` of the call with ``--json`` and the
  rendering ``cli._run`` does, its handler ``cli._cmd_flagdegen`` called
  once beforehand; output goes to a sink that discards it;
* ``text``: the same without ``--json``;
* ``sweep``: ``sweep.run_sweep(T)``, every check over every faithful I
  and every J, or null for a type over ``sweep.ORDER_CAP`` (E6);
* ``bruhat``: ``WeylGroup.bruhat_rows()``, the |W|^2 Bruhat matrix the
  sweep's fixed-point check reads, each call on a fresh ``generate(rs)``
  and only the call timed, or null over ``sweep.ORDER_CAP``;
* ``roots``: ``rootsys.build_root_system(T)``, the root closure and the
  Dynkin diagram;
* ``orbits``: ``wonderful.orbit_lattice(rs)``, a Levi type and a Levi
  root set per subset J, each call on a fresh ``build_root_system(T)``
  (whose ``sub_system`` cache it fills) and only the call timed.

No printed word of a full flag has a prefix off W^I, so it also times
the walk of the maximal parabolic quotients in QUOTIENTS, where many
printed words do.  For each it records
``reps`` (|W^I|), ``quotient`` (the median of REPEATS walks) and
``peak_bytes`` (the ``tracemalloc`` peak of one more, untimed walk).

For each n in GORENSTEIN_RANKS and each variant it records the median of
REPEATS calls of ``projgor.gorenstein_obstruction(n, variant)``, the
work of ``gorenstein A<n>``.

Every CLI call is a fresh process, so it also records ``startup``: the
median over STARTUP_RUNS fresh interpreters of the wall time of
``python -c`` importing ``diagdegen.cli`` and parsing
``flagdegen A5 --J 1 --json``, next to that of a bare ``python -c pass``,
the two run alternately.

It imports ``diagdegen`` from the ``src`` of the checkout it sits in, and
writes ``BENCH_<label>.json`` at that checkout's root, with the Python
version, the git commit, the host and the figures in seconds.  To measure
another commit, copy this script into a checkout of it and run it there.

Usage:
    python scripts/bench_layers.py --label NAME
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from diagdegen import VARIANTS, cli, degen  # noqa: E402
from diagdegen.cosets import quotient  # noqa: E402
from diagdegen.projgor import gorenstein_obstruction  # noqa: E402
from diagdegen.rootsys import all_subsets, build_root_system  # noqa: E402
from diagdegen.sweep import ORDER_CAP, run_sweep  # noqa: E402
from diagdegen.weyl import generate  # noqa: E402
from diagdegen.wonderful import orbit_lattice  # noqa: E402

TYPES = ["A5", "A6", "B4", "B5", "D5", "F4", "E6"]
REPEATS = 5
STARTUP_RUNS = 31
STARTUP_ARGV = ["flagdegen", "A5", "--J", "1", "--json"]
# The CLI's import and the parse of STARTUP_ARGV, in a fresh interpreter.
STARTUP = f"""
import diagdegen.cli as cli
cli.parse_args({STARTUP_ARGV!r})
"""
# (type, I): E6, E7 and E8 with one node of the diagram removed from Delta.
QUOTIENTS = [
    ("E6", (2, 3, 4, 5, 6)),
    ("E7", (1, 2, 3, 4, 5, 6)),
    ("E8", (1, 2, 3, 4, 5, 6, 7)),
    ("E8", (2, 3, 4, 5, 6, 7, 8)),
    ("E8", (1, 3, 4, 5, 6, 7, 8)),
]
GORENSTEIN_RANKS = (9, 15)


class _Sink:
    def write(self, text: str) -> int:
        return len(text)


def _median_time(fn) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _fresh_time(make, fn) -> float:
    """Median time of ``fn(make())``, each call on a fresh argument and only the call timed."""
    times = []
    for _ in range(REPEATS):
        arg = make()
        start = time.perf_counter()
        fn(arg)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _render_time(argv: list[str]) -> float:
    """Median time of parsing argv and rendering as cli._run does, the handler called beforehand."""
    ns = cli.parse_args(argv)
    payload, text = getattr(cli, f"_cmd_{ns.verb}")(ns)
    payload["verb"] = ns.verb  # as cli._run adds it
    sink = _Sink()

    def parse_and_render() -> None:
        ns = cli.parse_args(argv)
        sink.write(cli._render_json(payload) + "\n" if ns.json else text())

    return _median_time(parse_and_render)


def measure(type_str: str) -> dict:
    rs = build_root_system(type_str)
    q = quotient(rs, ())
    argv = ["flagdegen", type_str, "--J", "1"]
    capped = rs.dynkin.weyl_order() > ORDER_CAP
    return {
        "reps": len(q.words),
        "quotient": _median_time(lambda: quotient(rs, ())),
        "components": _median_time(lambda: degen.components(rs, q, {1})),
        "components_all": _median_time(
            lambda: [degen.components(rs, q, J) for J in all_subsets(rs.rank)]),
        "json": _render_time(argv + ["--json"]),
        "text": _render_time(argv),
        "sweep": None if capped else _median_time(lambda: run_sweep(type_str)),
        "bruhat": None if capped else _fresh_time(lambda: generate(rs),
                                                  lambda g: g.bruhat_rows()),
        "roots": _median_time(lambda: build_root_system(type_str)),
        "orbits": _fresh_time(lambda: build_root_system(type_str), orbit_lattice),
    }


def measure_quotient(type_str: str, I: tuple[int, ...]) -> dict:
    rs = build_root_system(type_str)
    tracemalloc.start()
    try:
        reps = len(quotient(rs, I).words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return {"reps": reps, "quotient": _median_time(lambda: quotient(rs, I)), "peak_bytes": peak}


def measure_gorenstein(n: int) -> dict:
    """Median time of ``gorenstein_obstruction(n, variant)``, per variant; it keeps no cache."""
    return {v: _median_time(lambda: gorenstein_obstruction(n, v)) for v in VARIANTS}


def measure_startup() -> dict:
    """Median wall times of fresh interpreters: the CLI's import and parse, and a bare one."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times: dict[str, list[float]] = {"cli": [], "bare": []}
    for _ in range(STARTUP_RUNS):
        for key, code in (("cli", STARTUP), ("bare", "pass")):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=env, check=True)
            times[key].append(time.perf_counter() - start)
    cli_s, bare_s = (statistics.median(times[key]) for key in ("cli", "bare"))
    return {"argv": STARTUP_ARGV, "runs": STARTUP_RUNS, "cli": cli_s, "bare": bare_s,
            "cli_minus_bare": cli_s - bare_s}


def _cpu() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--label", required=True, help="names the output file BENCH_<label>.json")
    args = parser.parse_args()

    layers = {}
    for type_str in TYPES:
        layers[type_str] = row = measure(type_str)
        print(f"{type_str:<4} |W| {row['reps']:>6}  " + "  ".join(
            f"{k} {'-' if row[k] is None else f'{row[k]:.4f}s'}"
            for k in ("quotient", "components", "components_all", "json", "text", "sweep",
                      "bruhat", "roots", "orbits")),
            flush=True)
    quotients = {}
    for type_str, I in QUOTIENTS:
        key = f"{type_str} I={','.join(map(str, I))}"
        quotients[key] = row = measure_quotient(type_str, I)
        print(f"{key:<18} |W^I| {row['reps']:>6}  quotient {row['quotient']:.4f}s  "
              f"peak {row['peak_bytes'] / 1e6:.1f} MB", flush=True)
    gorenstein = {}
    for n in GORENSTEIN_RANKS:
        gorenstein[f"A{n}"] = row = measure_gorenstein(n)
        print(f"gorenstein A{n:<3} " + "  ".join(f"{v} {row[v]:.4f}s" for v in VARIANTS),
              flush=True)
    startup = measure_startup()
    print(f"startup  cli {startup['cli']:.4f}s  bare {startup['bare']:.4f}s  "
          f"difference {startup['cli_minus_bare']:.4f}s", flush=True)
    status = _git("status", "--porcelain", "--", "src")
    record = {
        "label": args.label,
        "python": platform.python_version(),
        "commit": _git("rev-parse", "HEAD"),
        "src_modified": None if status is None else bool(status),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(), "cpu": _cpu()},
        "repeats": REPEATS,
        "statistic": "median",
        "unit": "s",
        "call": ("flagdegen T --J 1 (full flag, I empty); components on every J; sweep T; "
                 "bruhat_rows() on a fresh group; build_root_system(T); "
                 "orbit_lattice(rs) on a fresh root system; "
                 "gorenstein_obstruction(n, variant)"),
        "layers": layers,
        "quotients": quotients,
        "gorenstein": gorenstein,
        "startup": startup,
    }
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

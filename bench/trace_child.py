"""Run one diagdegen CLI call with a span recorded around every public function.

Usage: python3 bench/trace_child.py TRACE_FILE VERB TYPE [options...]

The program's modules import each other's functions by name, so each
module's binding is replaced by the same wrapper.  Spans (name, start, end,
parent) are kept in flat arrays while the call runs and written to
TRACE_FILE when it returns: one JSON header line, then the name, parent,
start and end arrays in native byte order, then one double holding the time
from the end of the call to the end of the write.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from types import FunctionType

import diagdegen
from diagdegen import (
    cli, cosets, degen, oracles, projgor, rootsys, sweep, weyl, wonderful,
)

MODULES = (rootsys, weyl, cosets, degen, wonderful, projgor, oracles, sweep, cli)
#: Methods that are layers of their own although they hang off a class.
METHODS = (
    (weyl.WeylGroup, "weyl", ("inverse", "reduced_word", "bruhat_rows", "bruhat_up_rows")),
    (rootsys.RootSystem, "rootsys", ("sub_system",)),
)

names: list[str] = []
span_name = array("i")
span_parent = array("i")
span_start = array("d")
span_end = array("d")
stack = [-1]
counts = {"weyl.generate.elements": 0, "degen.fiber_components.components": 0, "sweep.cases": 0}
min_reps_keys: set[tuple[int, frozenset]] = set()


def _measure(name: str, result) -> None:
    if name == "weyl.generate":
        counts["weyl.generate.elements"] += result.order
    elif name == "degen.fiber_components":
        counts["degen.fiber_components.components"] += len(result)
    elif name == "sweep.run_sweep":
        counts["sweep.cases"] += sum(c.cases for c in result.checks)
    elif name == "cosets.min_reps":
        min_reps_keys.add((id(result.group), result.I))


MEASURED = frozenset({"weyl.generate", "degen.fiber_components", "sweep.run_sweep",
                      "cosets.min_reps"})


def wrap(name: str, fn):
    k = len(names)
    names.append(name)
    measured = name in MEASURED
    clock = time.monotonic

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        i = len(span_start)
        span_name.append(k)
        span_parent.append(stack[-1])
        span_end.append(0.0)
        stack.append(i)
        span_start.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            span_end[i] = clock()
            stack.pop()
        if measured:
            _measure(name, result)
        return result

    return wrapper


def install() -> None:
    replaced = {}
    for mod in MODULES:
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if (isinstance(obj, FunctionType) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                replaced[obj] = wrap(f"{short}.{attr}", obj)
    for mod in (diagdegen, *MODULES):
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and obj in replaced:
                setattr(mod, attr, replaced[obj])
    for cls, short, attrs in METHODS:
        for attr in attrs:
            setattr(cls, attr, wrap(f"{short}.{attr}", getattr(cls, attr)))


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    t_imported = time.monotonic()
    install()
    install_s = time.monotonic() - t_imported
    run0 = time.monotonic()
    code = cli.run(argv)
    run1 = time.monotonic()
    sys.stdout.flush()
    header = {
        "names": names,
        "spans": len(span_start),
        "counts": counts | {"cosets.min_reps.distinct": len(min_reps_keys)},
        "install_s": install_s,
        "run": [run0, run1],
    }
    with open(trace_path, "wb") as fh:
        fh.write(json.dumps(header).encode() + b"\n")
        for arr in (span_name, span_parent, span_start, span_end):
            arr.tofile(fh)
        array("d", [time.monotonic() - run1]).tofile(fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark the diagdegen CLI the way its users run it: one process per call.

Usage:
    python3 bench/run.py --workload sweep-desk --seed 1 --seconds 20 --trace 0

The seed defaults to 1.

Every operation of a workload is one fresh ``diagdegen`` process, started
only after the previous one has exited, so no cache survives from one call
to the next.  A pass runs the workload's whole list once; passes repeat
until ``--seconds`` have gone by and there are an odd number of at least
three untraced ones, unless the next would not end before the deadline.
Every output is checked against the closed forms in ``expect.py``; the
program is never imported here.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics:
``setup_s`` (median time of a fresh interpreter importing ``diagdegen.cli``,
the entry point, and exiting; sampled a few times in every pass),
``wall_s`` (wall time of one pass, summed over the operations' median wall
times) and ``peak_rss_mb`` (median over passes of the largest resident set
of any process of the pass).  With ``--trace 1`` untraced and traced passes
alternate; the traced passes run each call under ``trace_child.py`` and the
line holds the per-layer metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

import checks
import expect
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TRACE_CHILD = BENCH / "trace_child.py"

#: The console-script entry point of the installed ``diagdegen`` command.
MAIN = "import sys; from diagdegen.cli import main; sys.argv[0] = 'diagdegen'; main()"
#: What every call imports before it parses its arguments.
IMPORT = "import diagdegen.cli"
#: ``setup_s`` samples taken in each untraced pass, spread over its operations.
SETUP_PER_PASS = 5
MIN_PASSES = 3
DEADLINE_S = 170
#: Time kept free before the deadline for the checks and the report.
DEADLINE_MARGIN_S = 10

_current_child: list[int] = []


class Stop(Exception):
    """Raised by SIGALRM (the run's deadline), SIGTERM or SIGINT."""


def _stop(signum, frame):
    raise Stop(signal.Signals(signum).name)


def spawn(cmd: list[str], env: dict) -> tuple[float, float, int, int, bytes, bytes]:
    """Run one process to its end: (start, end, exit code, max RSS in KiB, stdout, stderr).

    stdout and stderr go to files, so the child never waits on a pipe and
    its resource usage comes back from wait4.
    """
    out_path, err_path = OUT / "stdout", OUT / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_CLOSE, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644),
    ]
    t0 = time.monotonic()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    _current_child.append(pid)
    _, status, usage = os.wait4(pid, 0)
    t1 = time.monotonic()
    _current_child.pop()
    return (t0, t1, os.waitstatus_to_exitcode(status), usage.ru_maxrss,
            out_path.read_bytes(), err_path.read_bytes())


def read_trace(path: Path) -> tuple[dict, dict[str, int], dict[str, float]]:
    """Header, calls per span name and self time per span name of one trace."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        name, parent, start, end = (array(code) for code in "iidd")
        for arr in (name, parent, start, end):
            arr.fromfile(fh, n)
        dump = array("d")
        dump.fromfile(fh, 1)
    header["dump_s"] = dump[0]
    dur = [e - s for s, e in zip(start, end)]
    covered = [0.0] * n
    for i, p in enumerate(parent):
        if p >= 0:
            covered[p] += dur[i]
    names = header["names"]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for k, d, c in zip(name, dur, covered):
        calls[names[k]] += 1
        self_s[names[k]] += d - c
    return header, calls, self_s


class Pass:
    """What one pass over the workload's operations measured."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.op_walls: list[float] = []
        self.setup: list[float] = []
        self.peak_kib = 0
        self.failed = 0
        self.output_bytes = 0
        self.startup_s = 0.0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)


def run_pass(ops, env, traced: bool, sample_setup: bool, digests: dict,
             errors: list[str]) -> Pass:
    result = Pass(traced)
    trace_path = OUT / "trace.bin"
    # Before which operations to take a setup_s sample: evenly spread, so the
    # samples see the same phases of the machine as the operations do.
    setup_at = Counter(len(ops) * i // SETUP_PER_PASS
                       for i in range(SETUP_PER_PASS if sample_setup else 0))
    for k, argv in enumerate(ops):
        for _ in range(setup_at[k]):
            t0, t1, code, _, _, err = spawn([sys.executable, "-c", IMPORT], env)
            if code != 0:
                errors.append(f"importing diagdegen.cli failed: {err!r}")
            result.setup.append(t1 - t0)
        if traced:
            cmd = [sys.executable, str(TRACE_CHILD), str(trace_path), *argv]
        else:
            cmd = [sys.executable, "-c", MAIN, *argv]
        t0, t1, code, rss, out, err = spawn(cmd, env)
        result.op_walls.append(t1 - t0)
        result.peak_kib = max(result.peak_kib, rss)
        result.output_bytes += len(out)
        label = "diagdegen " + " ".join(a if a else '""' for a in argv)
        try:
            if not checks.check(argv, code, out, err):
                result.failed += 1
        except checks.WrongOutput as exc:
            errors.append(f"{label}: {exc}")
        digest = hashlib.sha256(out).hexdigest()
        if digests.setdefault(k, digest) != digest:
            errors.append(f"{label}: stdout differs from an earlier run of the same call")
        if traced:
            header, calls, self_s = read_trace(trace_path)
            run0, run1 = header["run"]
            result.startup_s += (t1 - t0) - (run1 - run0) - header["install_s"] - header["dump_s"]
            for name, c in calls.items():
                result.calls[name] += c
            for name, s in self_s.items():
                result.self_s[name] += s
            for name, c in header["counts"].items():
                result.counts[name] += c
    return result


def pass_wall(passes: list[Pass]) -> float:
    """Wall time of one pass: the sum over operations of each one's median wall time.

    With three or more passes, the median per operation keeps a stall that
    hits one call of one pass out of the figure.  A run has fewer passes only
    when passes are so slow that another would not end before the deadline;
    over two passes the median is their mean.
    """
    return sum(statistics.median(walls) for walls in zip(*(p.op_walls for p in passes)))


#: Spans whose call counts are reported as ``<span>.calls``.
CALL_COUNTS = (
    "cosets.min_reps", "cosets.double_min_reps", "degen.fixed_point_profile",
    "degen.weight_set", "degen.fiber_components", "oracles.double_cosets",
    "rootsys.sub_system", "weyl.inverse", "weyl.reduced_word",
)
#: Self-time metrics and the spans each one sums; ``orbit_lattice`` includes
#: its per-J ``orbit`` calls, and ``projgor`` is the whole module.
SELF_TIMES = {
    f"{span}.self_s": (span,) for span in (
        "cosets.min_reps", "cosets.double_min_reps", "degen.fixed_point_profile",
        "degen.weight_set", "degen.fiber_components", "oracles.double_cosets",
        "rootsys.sub_system", "rootsys.build_root_system", "weyl.generate", "weyl.inverse",
        "weyl.bruhat_rows", "weyl.bruhat_up_rows", "weyl.reduced_word",
        "sweep.run_sweep", "cli.run",
    )
} | {"wonderful.orbit_lattice.self_s": ("wonderful.orbit_lattice", "wonderful.orbit")}


def layer_metrics(p: Pass) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: name -> (value, unit)."""
    out = {f"{span}.calls": (p.calls.get(span, 0), "count") for span in CALL_COUNTS}
    out |= {name: (sum(p.self_s.get(span, 0.0) for span in spans), "s")
            for name, spans in SELF_TIMES.items()}
    out["projgor.self_s"] = (sum(v for k, v in p.self_s.items() if k.startswith("projgor.")), "s")
    out |= {name: (count, "count") for name, count in p.counts.items()}
    calls = p.calls.get("cosets.min_reps", 0)
    out["cosets.min_reps.useful_ratio"] = (
        p.counts["cosets.min_reps.distinct"] / calls if calls else 0.0, "ratio")
    out["cli.startup_s"] = (p.startup_s, "s")
    out["cli.output_bytes"] = (p.output_bytes, "bytes")
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "diagdegen" / "__init__.py").is_file():
        print(f"error: no diagdegen source under {SRC}", file=sys.stderr)
        return 2
    expect.self_test()
    ops = workloads.build(args.workload, args.seed)
    for argv in ops:
        checks.expected(argv)
    OUT.mkdir(exist_ok=True)
    # The caller's PYTHON* settings (unbuffered output, no bytecode cache, ...)
    # would change what every call costs, so the children get none of them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)

    for signum in (signal.SIGALRM, signal.SIGTERM, signal.SIGINT):
        signal.signal(signum, _stop)
    signal.alarm(DEADLINE_S)
    deadline = time.monotonic() + DEADLINE_S - DEADLINE_MARGIN_S
    try:
        _, _, code, _, out, err = spawn(
            [sys.executable, "-c", f"{IMPORT}; print(diagdegen.__file__)"], env)
        where = Path(out.decode().strip()).resolve()
        if code != 0 or SRC.resolve() not in where.parents:
            print(f"error: diagdegen does not import from {SRC}: {out!r} {err!r}",
                  file=sys.stderr)
            return 2

        errors: list[str] = []
        digests: dict[int, str] = {}
        passes: list[Pass] = []
        start = time.monotonic()
        longest = 0.0
        while True:
            t0 = time.monotonic()
            for traced in ((False, True) if args.trace else (False,)):
                passes.append(run_pass(ops, env, traced, not args.trace, digests, errors))
            now = time.monotonic()
            longest = max(longest, now - t0)
            n = sum(1 for p in passes if not p.traced)
            if n >= MIN_PASSES and n % 2 == 1 and now - start >= args.seconds:
                break
            if now + longest > deadline:
                break
    except Stop as exc:
        for pid in _current_child:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        print(f"error: stopped by {exc} (the deadline is {DEADLINE_S} s)", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    wall = pass_wall(plain)
    if args.trace:
        per_pass = [layer_metrics(p) for p in traced]
        metrics = {
            name: {"value": statistics.median(m[name][0] for m in per_pass), "unit": unit}
            for name, (_, unit) in per_pass[0].items()
        }
        overhead = pass_wall(traced) - wall
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": overhead / wall, "unit": "ratio"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s for p in plain for s in p.setup),
                        "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.peak_kib for p in plain) / 1024,
                            "unit": "MB"},
        }
    for e in errors:
        print(f"wrong: {e}", file=sys.stderr)
    walls = ", ".join(f"{sum(p.op_walls):.3f}{'t' if p.traced else ''}" for p in passes)
    print(f"{args.workload} seed {args.seed}: {len(ops)} operations x {len(passes)} passes, "
          f"pass wall {walls}", file=sys.stderr)
    result = {
        "correct": not errors,
        "attempted": len(ops) * len(passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())

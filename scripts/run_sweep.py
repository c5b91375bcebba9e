#!/usr/bin/env python3
"""Run the full invariant sweep across the desk-scale type list.

Every check compares the component catalogue against brute-force oracles
(double-coset enumeration, closed-fiber formula, fixed points, weight
sets); a clean run prints PASS per type and exits 0.  Errors end the run
with one ``error:`` line on stderr and the exit code of ``diagdegen
sweep``, mapped by the same ``diagdegen.cli.guarded``: 2 for a type it
cannot parse, 3 for one over the sweep's order cap or for running out of
memory, 4 for an internal invariant failure; exit 1 always means a FAIL.

Usage:
    python scripts/run_sweep.py
    python scripts/run_sweep.py --types A2,B3,G2 --json
"""

import argparse
import json
import sys
import time

from diagdegen.cli import guarded
from diagdegen.sweep import run_sweep

DEFAULT_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2", "A2xA1", "B4", "A5", "F4",
                 "D5", "B5", "C5", "A6"]


def main() -> int:
    return guarded(_main)


def _main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--types", default=",".join(DEFAULT_TYPES),
                        help="comma-separated Dynkin types to sweep")
    parser.add_argument("--json", action="store_true", help="emit one JSON report per line")
    args = parser.parse_args()

    failures = 0
    for type_str in args.types.split(","):
        start = time.perf_counter()
        report = run_sweep(type_str.strip())
        elapsed = time.perf_counter() - start
        if args.json:
            print(json.dumps(report.to_json_obj(), sort_keys=True))
        else:
            cases = sum(c.cases for c in report.checks)
            status = "PASS" if report.ok else "FAIL"
            print(f"{report.type_str:<8} {status}  {cases} cases in {elapsed:.2f}s")
            if not report.ok:
                print(report.format_text())
        failures += 0 if report.ok else 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

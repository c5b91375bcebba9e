#!/usr/bin/env python3
"""Run two sets of benchmark runs of the same checkout and compare them.

Usage:
    python3 bench/steady.py

Each set runs every workload in BENCHMARK.json once per seed, seed by seed:
seeds 1 to 10, then 11 to 20.  For every end-to-end metric and workload the
report gives each set's median and spread (third quartile minus first, as a
share of the median; for information) and the change of the second median
against the first.  The sets agree on a metric when that change stays
within the metric's bound in BENCHMARK.json.  Exits 0 only when every run
was correct, the share of failed operations was the same in every run of a
workload, and every pair of medians agrees.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
FIRST_SEED = 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True) as proc:
        try:
            out, err = proc.communicate()
        except BaseException:
            proc.terminate()  # run.py stops its own child on SIGTERM
            proc.wait()
            raise
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(err)
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    results: dict[tuple[int, str], list[dict]] = {}
    for set_no in (0, 1):
        first = FIRST_SEED + set_no * RUNS
        for seed in range(first, first + RUNS):
            for w in names:
                r = run_once(spec, w, seed)
                results.setdefault((set_no, w), []).append(r)
                vals = " ".join(f"{k}={v['value']:.4f}" for k, v in r["metrics"].items())
                print(f"set {set_no + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} {vals}", flush=True)

    ok = True
    report = []
    print(f"\n{'workload':<20} {'metric':<12} {'median 1':>10} {'median 2':>10} "
          f"{'spread 1':>9} {'spread 2':>9} {'change':>8} {'bound':>6}  verdict")
    for w in names:
        runs = results[(0, w)] + results[(1, w)]
        if not all(r["correct"] for r in runs):
            ok = False
            print(f"{w}: a run reported wrong output")
        shares = {(r["failed"] / r["attempted"]) for r in runs}
        if len(shares) != 1:
            ok = False
            print(f"{w}: failed shares differ between runs: {sorted(shares)}")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            q = [quartiles([r["metrics"][name]["value"] for r in results[(s, w)]]) for s in (0, 1)]
            spreads = [(q3 - q1) / med for q1, med, q3 in q]
            change = (q[1][1] - q[0][1]) / q[0][1]
            if m["better"] == "higher":
                change = -change
            agree = abs(change) <= bound
            ok &= agree
            verdict = "agree" if agree else "DISAGREE"
            print(f"{w:<20} {name:<12} {q[0][1]:>10.4f} {q[1][1]:>10.4f} {spreads[0]:>9.2%} "
                  f"{spreads[1]:>9.2%} {change:>+8.2%} {bound:>6.2f}  {verdict}")
            report.append({"workload": w, "metric": name, "quartiles": q, "spreads": spreads,
                           "change": change, "bound": bound, "agree": agree})
        print(f"{w:<20} failed share {sorted(shares)}")
    (BENCH / "out").mkdir(exist_ok=True)
    (BENCH / "out" / "steady.json").write_text(json.dumps(
        {"report": report, "runs": {f"{s + 1}/{w}": v for (s, w), v in results.items()}},
        indent=1) + "\n")
    print("\nAGREE" if ok else "\nDISAGREE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

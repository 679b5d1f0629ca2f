"""Command line of the contest-suite benchmark.

    PYTHONPATH=src:. python -m benchmarks.suite run [--workload W]... \\
        [--seed S] [--trace] --out R.json
    PYTHONPATH=src:. python -m benchmarks.suite compare A.json... \\
        --vs B.json...

``run`` measures each workload in a fresh interpreter, one at a time,
prints every metric with its unit, and cross-checks that ``parallel``
learns the same circuits as ``trees``.  ``compare`` gives, per workload
and end-to-end metric, each side's median and quartiles and a verdict
against the bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

from benchmarks.suite.bench import OUT_DIR, ROOT, RUN_SCRIPT, load_spec
from benchmarks.suite.workloads import LEARNER_SEED, WORKLOADS

FAILURE_RATE = {"name": "failure_rate", "unit": "ratio", "better": "lower",
                "bound": 0.0}
"""Failed over attempted case-runs.  It is 0 when all is well, so the
result line carries it as ``failed``/``attempted`` instead of a metric;
``compare`` treats any rise as worse."""


def cross_check(results: Dict[str, dict]) -> None:
    """``parallel`` must learn the circuits ``trees`` learns (same seed)."""
    if "parallel" not in results or "trees" not in results:
        return
    reference = {row["case"]: row["digest"]
                 for row in results["trees"]["cases"]}
    par = results["parallel"]
    for row in par["cases"]:
        want = reference.get(row["case"])
        if want is not None and row["digest"] is not None \
                and row["digest"] != want:
            par["failures"].append(
                f"{row['case']}: circuit differs from trees at jobs=1")
            if not row["failed"]:
                row["failed"] = True
                par["failed"] += 1
            par["correct"] = False


def cmd_run(args: argparse.Namespace) -> int:
    results: Dict[str, dict] = {}
    for name in args.workload or list(WORKLOADS):
        detail = OUT_DIR / f"detail-{name}-{args.seed}.json"
        proc = subprocess.run(
            [sys.executable, str(RUN_SCRIPT), "--workload", name,
             "--seed", str(args.seed),
             "--learner-seed", str(args.learner_seed),
             "--trace", "1" if args.trace else "0",
             "--detail", str(detail)], cwd=ROOT, timeout=900)
        if proc.returncode != 0:
            print(f"workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(detail.read_text())
    cross_check(results)
    for name, res in results.items():
        res["failure_rate"] = res["failed"] / res["attempted"]
        print(f"{name:10s} failure_rate {res['failure_rate']:.6f} "
              f"({res['failed']}/{res['attempted']} case-runs)")
        for failure in res["failures"]:
            print(f"{name:10s} FAILED {failure}")
    args.out.write_text(json.dumps(
        {"seed": args.seed, "learner_seed": args.learner_seed,
         "trace": args.trace, "workloads": results}, indent=1))
    print(f"wrote {args.out}")
    return 0 if all(r["correct"] for r in results.values()) else 1


# -- compare ------------------------------------------------------------------


def quartiles(values: List[float]) -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: List[float], head: List[float], better: str,
            bound: float) -> "tuple[str, float]":
    """``better``, ``same``, ``worse`` or ``unresolved``, plus the change.

    The change is how much worse the head median is than the base median,
    as a share of the base median (an absolute difference when the base
    median is 0).  Runs are paired in order.  A gain needs the head to win
    at least nine tenths of the pairs and the medians to differ by more
    than the base's inter-quartile spread, or every head run to beat every
    base run.  A metric whose run-to-run spread is wider than its bound is
    otherwise unresolved.
    """
    sign = 1.0 if better == "lower" else -1.0
    b1, bm, b3 = quartiles(base)
    h1, hm, h3 = quartiles(head)
    scale = abs(bm) if bm else 1.0
    change = sign * (hm - bm) / scale
    spread = max((b3 - b1) / scale, (h3 - h1) / (abs(hm) or 1.0))
    pairs = list(zip(base, head))
    wins = sum(sign * (h - b) < 0 for b, h in pairs)
    if (wins >= 0.9 * len(pairs) and sign * (bm - hm) > b3 - b1) \
            or all(sign * (h - b) < 0 for h in head for b in base):
        return "better", change
    if spread > bound:
        return "unresolved", change
    return ("worse" if change > bound else "same"), change


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    sides = [[json.loads(Path(p).read_text()) for p in paths]
             for paths in (args.base, args.vs)]
    workloads = [w for w in WORKLOADS
                 if all(w in r["workloads"] for side in sides for r in side)]
    metrics = spec["end_to_end"] + [FAILURE_RATE]
    worse = False
    print(f"{'workload':10s} {'metric':14s} {'base median [q1, q3]':>34s} "
          f"{'head median [q1, q3]':>34s} {'change':>8s} {'bound':>7s}  "
          "verdict")
    for w in workloads:
        for m in metrics:
            values = []
            for side in sides:
                if m is FAILURE_RATE:
                    values.append([r["workloads"][w]["failed"]
                                   / r["workloads"][w]["attempted"]
                                   for r in side])
                else:
                    values.append([r["workloads"][w]["metrics"][m["name"]]
                                   ["value"] for r in side])
            word, change = verdict(values[0], values[1], m["better"],
                                   m["bound"])
            worse |= word == "worse"
            cells = []
            for vals in values:
                q1, q2, q3 = quartiles(vals)
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] {m['unit']}")
            print(f"{w:10s} {m['name']:14s} {cells[0]:>34s} "
                  f"{cells[1]:>34s} {100 * change:+7.2f}% "
                  f"{100 * m['bound']:6.2f}%  {word}")
    return 1 if worse else 0


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.suite",
                                     description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="measure workloads")
    run.add_argument("--workload", action="append", choices=WORKLOADS,
                     help="repeatable; default: all four")
    run.add_argument("--seed", type=int, default=2019)
    run.add_argument("--learner-seed", type=int, default=LEARNER_SEED)
    run.add_argument("--trace", action="store_true",
                     help="per-layer metrics from a traced pass")
    run.add_argument("--out", type=Path, required=True)
    compare = sub.add_parser("compare", help="judge head runs against "
                             "base runs")
    compare.add_argument("base", nargs="+", type=Path)
    compare.add_argument("--vs", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

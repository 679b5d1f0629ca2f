"""One run of one workload: set-up, timed passes, scoring, result line.

``--trace 0`` learns the workload's cases in a closed loop, pass after
pass, for ``--seconds`` (at least one pass) and reports every end-to-end
metric: the timings as medians over passes, the quality and billing of
the first pass (later passes must give the same circuits).  ``--trace 1``
runs one untraced and one traced pass and reports every per-layer metric.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.oracle.suite import ContestCase

from benchmarks.suite import tracing
from benchmarks.suite.score import BAR, netlist_digest, score_result
from benchmarks.suite.workloads import (LEARNER_SEED, WORKLOADS, CaseRun,
                                        Learner, Workload, build_inputs,
                                        default_learner, learn_pass)

ROOT = Path(__file__).resolve().parents[2]
RUN_SCRIPT = ROOT / "benchmarks" / "suite" / "run.py"
OUT_DIR = ROOT / ".bench_out"
SETUP_LAUNCHES = 5


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- set-up -------------------------------------------------------------------


def setup_probe(workload: str, learner_seed: int, started: float) -> float:
    """Seconds from the first line of ``run.py`` to built cases and
    oracles, imports included."""
    build_inputs(WORKLOADS[workload], learner_seed)
    return time.perf_counter() - started


def measure_setup(workload: str, learner_seed: int) -> float:
    """Median set-up time of fresh interpreters (import + build)."""
    times = []
    for _ in range(SETUP_LAUNCHES):
        proc = subprocess.run(
            [sys.executable, str(RUN_SCRIPT), "--setup-probe",
             "--workload", workload, "--learner-seed", str(learner_seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def peak_rss_mib() -> float:
    """Largest resident set of this process or any child it waited for
    (set-up probes included; they stay far below a learning process)."""
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kib, child_kib) / 1024.0


# -- checks and quality -------------------------------------------------------


class Ledger:
    """Case-runs attempted and failed, with every reason for a failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: List[str] = []
        self._failed: set = set()

    @property
    def failed(self) -> int:
        return len(self._failed)

    def has_failed(self, run: CaseRun) -> bool:
        return id(run) in self._failed

    def add(self, runs: List[CaseRun]) -> None:
        self.attempted += len(runs)
        for run in runs:
            if run.result is None:
                self.fail(run, f"learn raised {run.error}")

    def fail(self, run: CaseRun, reason: str) -> None:
        self._failed.add(id(run))
        self.failures.append(f"{run.case_id}: {reason}")

    def same_circuits(self, runs: List[CaseRun], reference: List[CaseRun],
                      what: str) -> None:
        """Count every run whose circuit differs from its reference run."""
        for run, ref in zip(runs, reference):
            if run.result is None or ref.result is None:
                continue
            if netlist_digest(run.result.netlist) \
                    != netlist_digest(ref.result.netlist):
                self.fail(run, f"circuit differs from {what}")


def quality(cases: List[ContestCase], runs: List[CaseRun], seed: int,
            ledger: Ledger) -> Dict[str, float]:
    """Gates, billing and ground-truth quality of one pass."""
    gates = rows = calls = 0
    accuracies: List[float] = []
    output_accuracy: List[float] = []
    for case, run in zip(cases, runs):
        if run.result is None:
            continue
        score, reasons = score_result(case.golden, run.result, seed,
                                      case.case_id)
        for reason in reasons:
            ledger.fail(run, reason)
        gates += run.result.gate_count
        rows += run.billed_rows
        calls += run.billed_calls
        if score is not None:
            accuracies.append(score.accuracy)
            output_accuracy.extend(score.output_accuracy.tolist())
    n_out = max(1, len(output_accuracy))
    return {
        "gates": gates,
        "accuracy": 100.0 * statistics.fmean(accuracies or [0.0]),
        "outputs_at_bar": 100.0 * sum(a >= BAR for a in output_accuracy)
        / n_out,
        "output_accuracy": 100.0 * sum(output_accuracy) / n_out,
        "billed_rows": rows,
        "billed_calls": calls,
    }


def case_rows(cases: List[ContestCase], runs: List[CaseRun],
              ledger: Ledger) -> List[dict]:
    return [{"case": case.case_id, "wall_s": run.wall_s,
             "failed": ledger.has_failed(run),
             "gates": run.result.gate_count if run.result else None,
             "billed_rows": run.billed_rows if run.result else None,
             "digest": (netlist_digest(run.result.netlist)
                        if run.result else None)}
            for case, run in zip(cases, runs)]


def pass_wall(runs: List[CaseRun]) -> float:
    """Summed ``LogicRegressor.learn`` wall of one pass."""
    return sum(run.wall_s for run in runs)


# -- the two kinds of run -----------------------------------------------------


def untraced_run(workload: Workload, cases: List[ContestCase], seed: int,
                 seconds: float, learner_seed: int = LEARNER_SEED,
                 learner: Learner = default_learner
                 ) -> "tuple[Dict[str, float], Ledger, List[dict]]":
    """End-to-end metrics of one workload (everything but ``setup_s``)."""
    ledger = Ledger()
    passes: List[List[CaseRun]] = []
    start = time.perf_counter()
    while True:
        runs = learn_pass(cases, workload, seed, learner_seed=learner_seed,
                          learner=learner)
        ledger.add(runs)
        if passes:
            ledger.same_circuits(runs, passes[0], "the first pass")
        passes.append(runs)
        elapsed = time.perf_counter() - start
        # Start another pass only if it should end inside the window.
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    metrics = {"wall_s": statistics.median(pass_wall(p) for p in passes),
               "peak_rss_mib": peak_rss_mib()}
    metrics.update(quality(cases, passes[0], seed, ledger))
    return metrics, ledger, case_rows(cases, passes[0], ledger)


def traced_run(workload: Workload, cases: List[ContestCase], seed: int,
               trace_out: Optional[Path], learner_seed: int = LEARNER_SEED,
               learner: Learner = default_learner
               ) -> "tuple[Dict[str, float], Ledger, List[dict]]":
    """Per-layer metrics: an untraced pass, then a traced one."""
    ledger = Ledger()
    plain = learn_pass(cases, workload, seed, learner_seed=learner_seed,
                       learner=learner)
    ledger.add(plain)
    tracer = tracing.Tracer()
    with tracing.patched(tracer):
        traced = learn_pass(cases, workload, seed, learner_seed=learner_seed,
                            profile=True, tracer=tracer, learner=learner)
    ledger.add(traced)
    ledger.same_circuits(traced, plain, "the untraced pass")
    quality(cases, plain, seed, ledger)  # for its ground-truth checks
    metrics = tracing.layer_metrics(
        tracer, [run.result for run in traced if run.result is not None],
        pass_wall(traced), pass_wall(plain))
    if trace_out is not None:
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_jsonl(str(trace_out))
    return metrics, ledger, case_rows(cases, plain, ledger)


# -- command line -------------------------------------------------------------


def result_line(spec_metrics: List[dict], values: Dict[str, float],
                ledger: Ledger) -> dict:
    declared = {m["name"] for m in spec_metrics}
    if declared != set(values):
        raise RuntimeError(
            f"metrics computed {sorted(set(values) - declared)} but not "
            f"declared, declared {sorted(declared - set(values))} but not "
            "computed")
    return {"correct": not ledger.failed, "attempted": ledger.attempted,
            "failed": ledger.failed,
            "metrics": {m["name"]: {"value": values[m["name"]],
                                    "unit": m["unit"]}
                        for m in spec_metrics}}


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks/suite/run.py",
        description="Run one workload of the contest-suite benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2019,
                        help="makes the ground-truth patterns")
    parser.add_argument("--learner-seed", type=int, default=LEARNER_SEED,
                        help="seeds the learner and the fault stream "
                             "(for seed sweeps)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring window (default: BENCHMARK.json "
                             "run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--detail", type=Path, default=None,
                        help="also write per-case rows and failures here")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: List[str], started: float) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        probe = setup_probe(args.workload, args.learner_seed, started)
        print(f"{probe:.6f}")
        return 0
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None \
        else spec["run_seconds"]
    workload = WORKLOADS[args.workload]
    cases, _ = build_inputs(workload, args.learner_seed)
    if args.trace:
        trace_out = OUT_DIR / f"trace-{workload.name}-{args.seed}.jsonl"
        values, ledger, rows = traced_run(workload, cases, args.seed,
                                          trace_out, args.learner_seed)
        spec_metrics = spec["per_layer"]
        if workload.jobs > 1:
            print("note: spans are recorded in the parent process only; "
                  "worker-side layer time shows as perf.parallel.busy_s")
        print(f"trace: {trace_out}")
    else:
        # Probed before the passes: a user's fresh start does not follow
        # a long learn.
        setup_s = measure_setup(workload.name, args.learner_seed)
        values, ledger, rows = untraced_run(workload, cases, args.seed,
                                            seconds, args.learner_seed)
        values["setup_s"] = setup_s
        spec_metrics = spec["end_to_end"]
    line = result_line(spec_metrics, values, ledger)
    for m in spec_metrics:
        print(f"{workload.name:10s} {m['name']:40s} "
              f"{values[m['name']]:16.6f} {m['unit']}")
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps(
            {"workload": workload.name, "seed": args.seed,
             "learner_seed": args.learner_seed, "trace": bool(args.trace),
             "cases": rows, "failures": ledger.failures, **line},
            indent=1))
    print(json.dumps(line))
    return 0

"""The four workloads of the contest-suite benchmark and their learn loop.

A workload is a fixed list of ``oracle.suite`` cases plus the way the
learner meets them.  The load is a closed loop with one client: it learns
one case, and only then starts the next.  The learner runs the default
contest configuration of ``examples/contest_evaluation.py``,
``RegressorConfig(time_limit=60, r_support=512, seed=S)``, with
observability at its default (on, profiler off).  No case comes near the
60 s limit, so at a fixed learner seed the circuits, gate counts and
billed rows are exact and only the timings are noisy.

Two seeds are kept apart.  The benchmark seed makes the inputs the
learner never sees: the ground-truth patterns its circuits are scored on.
The learner seed is part of the workload and stays at
:data:`LEARNER_SEED`; it seeds the learner and the fault stream of
``flaky``.  Quality swings widely from one learner seed to the next, and
under faults the verify stage (which queries the faulty oracle directly)
repairs differently for every fault stream (README.md), so letting either
follow the benchmark seed would make every quality metric as noisy as a
seed sweep.

Budget-bound cases (case_9, case_14, case_18) stay out: their results
depend on when the deadline fires, so they measure the machine.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.config import ObsConfig, RegressorConfig
from repro.core.regressor import LearnResult, LogicRegressor
from repro.oracle.base import Oracle
from repro.oracle.suite import ContestCase, build_case
from repro.robustness.faults import FaultModel, FaultyOracle

LEARNER_SEED = 2019


@dataclass(frozen=True)
class Workload:
    name: str
    cases: Tuple[str, ...]
    jobs: int = 1
    faults: bool = False
    """Serve the cases through a seeded :class:`FaultyOracle`, with the
    learner's retry and audit wrappers on."""


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # DIAG + DATA: the time goes to synthesis and template matching;
    # support identification, FBDT and learn-side QM do almost nothing.
    Workload("templates", ("case_2", "case_3", "case_6", "case_8",
                           "case_12", "case_15", "case_16", "case_20")),
    # ECO + NEQ cases that finish: FBDT plus QM and synthesis, and most
    # of the outputs that carry the quality signal.
    Workload("trees", ("case_1", "case_4", "case_5", "case_7", "case_10",
                       "case_11", "case_13", "case_17", "case_19")),
    # The learner's oracle wrappers under load: the retry memo writes
    # rows, the audit re-queries them.  Deterministic at jobs=1.
    Workload("flaky", ("case_1", "case_4", "case_19", "case_5"),
             faults=True),
    # The supervised worker pool with bank forks; its circuits must equal
    # those of ``trees`` for the same seed.
    Workload("parallel", ("case_1", "case_5", "case_11", "case_17"),
             jobs=2),
)}


def learner_config(workload: Workload, learner_seed: int,
                   profile: bool = False) -> RegressorConfig:
    """The contest configuration, plus the workload's execution knobs."""
    config = RegressorConfig(time_limit=60, r_support=512,
                             seed=learner_seed, jobs=workload.jobs)
    if workload.faults:
        config.robustness.max_retries = 3
        config.robustness.audit_rate = 0.05
    if profile:
        config.observability = ObsConfig(profile=True)
    return config


def make_oracle(case: ContestCase, workload: Workload,
                learner_seed: int) -> Oracle:
    """The black box the learner queries (and is billed by) for a case."""
    oracle: Oracle = case.oracle()
    if workload.faults:
        oracle = FaultyOracle(
            oracle, FaultModel(transient_rate=0.05, malform_rate=0.025,
                               hang_rate=0.025, bitflip_rate=0.0),
            seed=learner_seed)
    return oracle


def build_inputs(workload: Workload, learner_seed: int
                 ) -> Tuple[List[ContestCase], List[Oracle]]:
    """The benchmark's set-up: the workload's cases and one oracle each."""
    cases = [build_case(case_id) for case_id in workload.cases]
    return cases, [make_oracle(case, workload, learner_seed)
                   for case in cases]


Learner = Callable[[RegressorConfig, Oracle], LearnResult]


def default_learner(config: RegressorConfig, oracle: Oracle) -> LearnResult:
    return LogicRegressor(config).learn(oracle)


@dataclass
class CaseRun:
    """One learned case: the learn wall time and its result or error."""

    case_id: str
    wall_s: float
    result: Optional[LearnResult] = None
    error: str = ""

    @property
    def billed_rows(self) -> int:
        """Rows billed by the oracle, worker shards included."""
        return self.result.queries

    @property
    def billed_calls(self) -> int:
        """Billed oracle round-trips, folded back from worker shards."""
        metrics = self.result.instrumentation.metrics
        return int(metrics.counter("oracle.calls_billed").total())


def learn_case(case: ContestCase, workload: Workload, seed: int, *,
               learner_seed: int = LEARNER_SEED, profile: bool = False,
               tracer=None, learner: Learner = default_learner) -> CaseRun:
    """Learn one case on a fresh oracle; a raising learn is recorded."""
    oracle = make_oracle(case, workload, learner_seed)
    config = learner_config(workload, learner_seed, profile)
    start = time.perf_counter()
    try:
        if tracer is None:
            result = learner(config, oracle)
        else:
            with tracer.case(f"{workload.name}/{case.case_id}/{seed}",
                             oracle):
                result = learner(config, oracle)
    except Exception as exc:  # noqa: BLE001 - a failed case-run is data
        return CaseRun(case.case_id, time.perf_counter() - start,
                       error=f"{type(exc).__name__}: {exc}")
    return CaseRun(case.case_id, time.perf_counter() - start, result=result)


def learn_pass(cases: List[ContestCase], workload: Workload, seed: int,
               **kwargs) -> List[CaseRun]:
    """One pass of the closed loop over the workload's cases."""
    return [learn_case(case, workload, seed, **kwargs) for case in cases]

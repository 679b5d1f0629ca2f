"""The traced run: per-layer spans recorded from outside the learner.

Nothing in ``src/`` changes.  :func:`patched` replaces the module and
class attributes through which the pipeline calls each layer
(``core.regressor``, ``perf.parallel``, ``synth.scripts``, ``core.fbdt``
and a few class methods) with wrappers that record a span, and puts the
originals back on exit.  Spans live in memory: name, start, end, parent,
the ``<workload>/<case>/<seed>`` id shared by one case-run, and the
billed-row count of the case's oracle at both boundaries.  A layer's self
time is its spans' time minus their direct children's.

Worker processes of ``--jobs`` inherit the wrappers but their spans stay
in the worker, so under ``parallel`` only parent-side spans are seen.
Counters the program already keeps (``ObsConfig(profile=True)``, the
learn result's statistics) are read from the result, where worker
payloads have been folded back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

import repro.core.fbdt
import repro.core.regressor
import repro.core.templates.extended
import repro.logic.minimize
import repro.perf.parallel
import repro.synth.rebuild
import repro.synth.redundancy
import repro.synth.scripts
from repro.oracle.netlist_oracle import NetlistOracle
from repro.perf.bank import SampleBank
from repro.robustness.audit import AuditingOracle
from repro.robustness.retry import RetryingOracle
from repro.sat.solver import Solver

SYNTH_PASSES = ("strash", "collapse", "balance", "rewrite", "refactor",
                "fraig", "rewrite_x", "mfs")


class Span:
    __slots__ = ("id", "name", "parent", "trace_id", "start", "end",
                 "rows_start", "rows_end")

    def __init__(self, id_: int, name: str, parent: int, trace_id: str,
                 start: float, rows_start: int):
        self.id = id_
        self.name = name
        self.parent = parent
        self.trace_id = trace_id
        self.start = start
        self.end = start
        self.rows_start = rows_start
        self.rows_end = rows_start

    def to_json(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "trace_id": self.trace_id, "start": self.start,
                "end": self.end, "rows_start": self.rows_start,
                "rows_end": self.rows_end}


class Tracer:
    """In-memory spans plus the counts taken at the same boundaries."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[Span] = []
        self._trace_id = ""
        self._meter = None
        self._audits: Dict[int, AuditingOracle] = {}

    def _rows(self) -> int:
        return self._meter.query_count if self._meter is not None else 0

    def saw_audit(self, audit: AuditingOracle) -> None:
        """Remember an audit wrapper; its counters are read at case end."""
        self._audits[id(audit)] = audit

    @contextmanager
    def case(self, trace_id: str, meter) -> Iterator[None]:
        """Attribute spans to one case-run billed by ``meter``."""
        self._trace_id, self._meter = trace_id, meter
        self._audits = {}
        try:
            yield
        finally:
            for audit in self._audits.values():
                c = audit.counters
                self.counts["robustness.audit.rows"] += c.audit_rows_queried
                self.counts["robustness.audit.disagreements"] += \
                    c.rows_disagreed
            self._trace_id, self._meter = "", None

    def call(self, name: str, fn: Callable, args, kwargs):
        parent = self._stack[-1].id if self._stack else -1
        span = Span(len(self.spans), name, parent, self._trace_id,
                    time.perf_counter(), self._rows())
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()
            span.rows_end = self._rows()

    # -- derived numbers ----------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, direct children's time subtracted."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.end - span.start - child_time[span.id]
        return out

    def rows(self, name: str) -> int:
        """Billed rows inside spans called ``name``, children included."""
        return sum(s.rows_end - s.rows_start for s in self.spans
                   if s.name == name)

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


# -- patching ---------------------------------------------------------------


def _span(name: str, hook: Optional[Callable] = None):
    """A wrapper maker: one span per call, then ``hook(tracer, args,
    result)`` to count what the call did."""
    def make(tracer: Tracer, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer.call(name, original, args, kwargs)
            if hook is not None:
                hook(tracer, args, result)
            return result
        return traced
    return make


def _synth_pass(name: str):
    """A wrapper maker for one synthesis pass: calls and AIG nodes saved.

    ``rewrite`` doubles as ``rewrite -x`` when called with ``exact=True``.
    """
    def make(tracer: Tracer, original: Callable) -> Callable:
        @functools.wraps(original)
        def traced(aig, *args, **kwargs):
            pass_name = "rewrite_x" if kwargs.get("exact") else name
            before = aig.size()
            result = tracer.call(f"synth.{pass_name}", original,
                                 (aig,) + args, kwargs)
            tracer.counts[f"synth.{pass_name}.calls"] += 1
            tracer.counts[f"synth.{pass_name}.nodes_saved"] += \
                before - result.size()
            return result
        return traced
    return make


def _count_template(tracer: Tracer, args, result) -> None:
    tracer.counts["core.templates.attempts"] += 1
    tracer.counts["core.templates.matches"] += result is not None


def _count_assembled(tracer: Tracer, args, result) -> None:
    tracer.counts["network.gates_before_opt"] += result.gate_count()


def _count_optimized(tracer: Tracer, args, result) -> None:
    tracer.counts["synth.gates_saved"] += \
        args[0].gate_count() - result[0].gate_count()


def _keep_audit(tracer: Tracer, args, result) -> None:
    tracer.saw_audit(args[0])


_PATCHES = [
    (NetlistOracle, "_evaluate", _span("oracle")),
    (repro.core.regressor, "group_names", _span("core.grouping")),
    (repro.core.regressor, "match_linear",
     _span("core.templates", _count_template)),
    (repro.core.regressor, "match_comparator",
     _span("core.templates", _count_template)),
    (repro.core.templates.extended, "match_mux",
     _span("core.templates", _count_template)),
    (repro.core.templates.extended, "match_bitwise",
     _span("core.templates", _count_template)),
    (repro.core.templates.extended, "match_wiring",
     _span("core.templates", _count_template)),
    (repro.core.regressor, "identify_supports", _span("core.support")),
    (repro.core.regressor, "learn_output", _span("core.fbdt")),
    (repro.perf.parallel, "learn_output", _span("core.fbdt")),
    (repro.core.regressor, "learn_outputs", _span("perf.parallel")),
    (repro.core.fbdt, "quine_mccluskey", _span("logic.minimize.qm.learn")),
    (repro.synth.rebuild, "quine_mccluskey",
     _span("logic.minimize.qm.synth")),
    (repro.logic.minimize, "espresso_lite",
     _span("logic.minimize.espresso")),
    (SampleBank, "take", _span("perf.bank.take")),
    (repro.core.regressor.LogicRegressor, "_assemble",
     _span("network.assemble", _count_assembled)),
    (repro.core.regressor, "optimize_netlist",
     _span("synth", _count_optimized)),
    (repro.synth.scripts, "copy_strash", _synth_pass("strash")),
    (repro.synth.scripts, "collapse", _synth_pass("collapse")),
    (repro.synth.scripts, "balance", _synth_pass("balance")),
    (repro.synth.scripts, "rewrite", _synth_pass("rewrite")),
    (repro.synth.scripts, "refactor", _synth_pass("refactor")),
    (repro.synth.scripts, "fraig", _synth_pass("fraig")),
    (repro.synth.redundancy, "remove_redundancies", _synth_pass("mfs")),
    (Solver, "solve", _span("sat")),
    (repro.core.regressor, "verify_and_repair",
     _span("robustness.verify")),
    (RetryingOracle, "_evaluate", _span("robustness.retry")),
    (AuditingOracle, "_evaluate", _span("robustness.audit", _keep_audit)),
]
"""(owner, attribute, wrapper maker) for every layer boundary traced."""


def _current(owner, attr: str) -> Callable:
    # A class attribute is read raw so that restoring it does not turn a
    # plain function into a bound method.
    return owner.__dict__[attr] if isinstance(owner, type) \
        else getattr(owner, attr)


@contextmanager
def patched(tracer: Tracer) -> Iterator[None]:
    """Route every layer call in :data:`_PATCHES` through ``tracer``."""
    saved = []
    try:
        for owner, attr, make in _PATCHES:
            original = _current(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(tracer, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def patch_targets() -> List[Callable]:
    """The attributes :func:`patched` replaces, as they are now."""
    return [_current(owner, attr) for owner, attr, _ in _PATCHES]


# -- per-layer metrics --------------------------------------------------------

ALL = ("templates", "trees", "flaky", "parallel")

MOVES: Dict[str, tuple] = {
    # per-layer metric: (end-to-end metric it should move, workloads)
    "oracle.calls": ("billed_calls", ALL),
    "oracle.busy_s": ("wall_s", ALL),
    "core.grouping.busy_s": ("wall_s", ("templates",)),
    "core.templates.busy_s": ("wall_s", ("templates",)),
    "core.templates.rows": ("billed_rows", ("templates",)),
    "core.templates.attempts": ("wall_s", ("templates",)),
    "core.templates.matches": ("gates", ("templates",)),
    "core.support.busy_s": ("wall_s", ("trees",)),
    "core.support.rows": ("billed_rows", ("trees",)),
    "core.fbdt.busy_s": ("wall_s", ("trees", "flaky")),
    "core.fbdt.rows": ("billed_rows", ("trees", "flaky")),
    "core.fbdt.nodes": ("wall_s", ("trees", "flaky")),
    "core.fbdt.tree_outputs": ("outputs_at_bar", ("trees", "flaky")),
    "core.fbdt.exhaustive_outputs": ("outputs_at_bar", ("trees", "flaky")),
    "core.fbdt.forced_leaves": ("output_accuracy", ("trees", "flaky")),
    "core.fbdt.fused_rows": ("billed_rows", ("trees", "flaky")),
    "core.fbdt.timed_out_outputs": ("output_accuracy", ("trees", "flaky")),
    "logic.minimize.qm_busy_s.learn": ("wall_s", ("trees",)),
    "logic.minimize.qm_busy_s.synth": ("wall_s", ("templates",)),
    "logic.minimize.espresso_busy_s": ("wall_s", ("trees",)),
    "logic.minimize.qm_calls": ("wall_s", ("trees", "templates")),
    "logic.minimize.qm_implicant_pairs": ("wall_s", ("trees", "templates")),
    "logic.minimize.espresso_iterations": ("wall_s", ("trees",)),
    "logic.bitops.words_packed": ("wall_s", ("trees",)),
    "logic.bitops.words_popcounted": ("wall_s", ("trees",)),
    "logic.bitops.cube_match_words": ("wall_s", ("trees",)),
    "logic.bitops.bits_tested": ("wall_s", ("trees",)),
    "perf.bank.hits": ("billed_rows", ("trees", "flaky")),
    "perf.bank.misses": ("billed_rows", ("trees", "flaky")),
    "perf.bank.hit_ratio": ("billed_rows", ("trees", "flaky")),
    "perf.bank.evicted": ("billed_rows", ("trees", "flaky")),
    "perf.bank.scan_words": ("wall_s", ("trees",)),
    "perf.bank.take_busy_s": ("wall_s", ("trees",)),
    "perf.parallel.busy_s": ("wall_s", ("parallel",)),
    "perf.parallel.workers_spawned": ("wall_s", ("parallel",)),
    "perf.parallel.redispatches": ("failure_rate", ("parallel",)),
    "perf.parallel.crashes": ("failure_rate", ("parallel",)),
    "network.assemble_busy_s": ("wall_s", ALL),
    "network.gates_before_opt": ("gates", ALL),
    "synth.busy_s": ("wall_s", ("templates", "trees")),
    "synth.gates_saved": ("gates", ALL),
    **{f"synth.{p}.{m}": (("gates", ALL) if m == "nodes_saved"
                          else ("wall_s", ("templates", "trees")))
       for p in SYNTH_PASSES for m in ("busy_s", "calls", "nodes_saved")},
    "sat.solve_calls": ("wall_s", ("templates",)),
    "sat.busy_s": ("wall_s", ("templates",)),
    "robustness.verify.busy_s": ("wall_s", ALL),
    "robustness.verify.rows": ("billed_rows", ALL),
    **{f"robustness.verify.{s}": ("failure_rate", ALL)
       for s in ("verified", "repaired", "inconclusive", "skipped",
                 "failed")},
    "robustness.retry.busy_s": ("wall_s", ("flaky",)),
    "robustness.retry.retries": ("wall_s", ("flaky",)),
    "robustness.retry.cache_hits": ("billed_rows", ("flaky",)),
    "robustness.retry.cache_entries": ("billed_rows", ("flaky",)),
    "robustness.audit.busy_s": ("wall_s", ("flaky",)),
    "robustness.audit.rows": ("billed_rows", ("flaky",)),
    "robustness.audit.disagreements": ("billed_rows", ("flaky",)),
    "trace.overhead_pct": ("wall_s", ALL),
    "trace.coverage_pct": ("wall_s", ALL),
}
"""Which end-to-end metric each per-layer metric should move, and where."""

_BUSY = {
    "oracle": "oracle.busy_s",
    "core.grouping": "core.grouping.busy_s",
    "core.templates": "core.templates.busy_s",
    "core.support": "core.support.busy_s",
    "core.fbdt": "core.fbdt.busy_s",
    "logic.minimize.qm.learn": "logic.minimize.qm_busy_s.learn",
    "logic.minimize.qm.synth": "logic.minimize.qm_busy_s.synth",
    "logic.minimize.espresso": "logic.minimize.espresso_busy_s",
    "perf.bank.take": "perf.bank.take_busy_s",
    "perf.parallel": "perf.parallel.busy_s",
    "network.assemble": "network.assemble_busy_s",
    "synth": "synth.busy_s",
    **{f"synth.{p}": f"synth.{p}.busy_s" for p in SYNTH_PASSES},
    "sat": "sat.busy_s",
    "robustness.verify": "robustness.verify.busy_s",
    "robustness.retry": "robustness.retry.busy_s",
    "robustness.audit": "robustness.audit.busy_s",
}
"""Span name -> the self-time metric it feeds."""

_PROFILE_COUNTERS = {
    "core.fbdt.fused_rows": "fbdt.fused_rows",
    "logic.minimize.qm_calls": "minimize.qm_calls",
    "logic.minimize.qm_implicant_pairs": "minimize.qm_implicant_pairs",
    "logic.minimize.espresso_iterations": "minimize.espresso_iterations",
    "logic.bitops.words_packed": "bitops.words_packed",
    "logic.bitops.words_popcounted": "bitops.words_popcounted",
    "logic.bitops.cube_match_words": "bitops.cube_match_words",
    "logic.bitops.bits_tested": "bitops.bits_tested",
    "perf.bank.scan_words": "bank.scan_words",
}
"""Per-layer metric -> the program's own ``ObsConfig(profile=True)``
counter (summed over stages, worker payloads folded back)."""


def layer_metrics(tracer: Tracer, results: list, traced_wall: float,
                  untraced_wall: float) -> Dict[str, float]:
    """Every per-layer metric of one traced pass over a workload.

    ``results`` are the pass's :class:`LearnResult` objects; the walls
    are the summed learn walls of the traced pass and of an untraced pass
    over the same cases.
    """
    out: Dict[str, float] = {name: 0.0 for name in MOVES}
    busy = tracer.self_times()
    for span_name, metric in _BUSY.items():
        out[metric] = busy.get(span_name, 0.0)
    out["oracle.calls"] = tracer.calls("oracle")
    out["sat.solve_calls"] = tracer.calls("sat")
    for layer in ("core.templates", "core.support", "core.fbdt",
                  "robustness.verify"):
        out[f"{layer}.rows"] = tracer.rows(layer)
    for name, value in tracer.counts.items():
        out[name] = value

    for result in results:
        metrics = result.instrumentation.metrics
        for name, counter in _PROFILE_COUNTERS.items():
            out[name] += metrics.counter(counter).total()
        for report in result.reports:
            stats = report.stats
            if stats is None:
                continue
            out["core.fbdt.nodes"] += stats.nodes_expanded
            out["core.fbdt.forced_leaves"] += stats.forced_leaves
            out["core.fbdt.exhaustive_outputs"] += stats.exhausted
            out["core.fbdt.tree_outputs"] += (not stats.exhausted
                                              and stats.nodes_expanded > 0)
            out["core.fbdt.timed_out_outputs"] += stats.timed_out
        if result.bank_stats is not None:
            out["perf.bank.hits"] += result.bank_stats.hits
            out["perf.bank.misses"] += result.bank_stats.misses
            out["perf.bank.evicted"] += result.bank_stats.rows_evicted
        if result.supervisor is not None:
            sup = result.supervisor
            out["perf.parallel.workers_spawned"] += sup["workers_spawned"]
            out["perf.parallel.redispatches"] += sup["redispatches"]
            out["perf.parallel.crashes"] += sup["workers_crashed"]
        if result.verification is not None:
            for status, n in result.verification.status_counts().items():
                key = "failed" if status == "verify-failed" else status
                out[f"robustness.verify.{key}"] += n
        if result.retry_stats is not None:
            out["robustness.retry.retries"] += \
                result.retry_stats["retries_performed"]
            out["robustness.retry.cache_hits"] += result.retry_stats["hits"]
            out["robustness.retry.cache_entries"] += \
                result.retry_stats["entries"]
    looked_up = out["perf.bank.hits"] + out["perf.bank.misses"]
    out["perf.bank.hit_ratio"] = (out["perf.bank.hits"] / looked_up
                                  if looked_up else 0.0)
    out["trace.overhead_pct"] = 100.0 * (traced_wall / untraced_wall - 1.0)
    out["trace.coverage_pct"] = 100.0 * sum(busy.values()) / traced_wall
    return out

"""Fast checks of the contest-suite benchmark (case_7 only).

    PYTHONPATH=src:. python -m pytest benchmarks/suite/test_suite.py -q
"""

import re

import pytest

from repro.oracle.suite import build_case

from benchmarks.suite import tracing
from benchmarks.suite.__main__ import FAILURE_RATE, verdict
from benchmarks.suite.bench import (Ledger, load_spec, quality, traced_run,
                                    untraced_run)
from benchmarks.suite.score import netlist_digest, score_netlist
from benchmarks.suite.workloads import WORKLOADS, Workload, learn_case

NAME = re.compile(r"[A-Za-z0-9_.-]+")
MINI = Workload("mini", ("case_7",))
SEED = 11


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def case7():
    return build_case("case_7")


def test_every_name_is_well_formed(spec):
    names = [w["name"] for w in spec["workloads"]] \
        + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_declares_what_it_moves(spec):
    end_to_end = {m["name"] for m in spec["end_to_end"]} \
        | {FAILURE_RATE["name"]}
    assert set(tracing.MOVES) == {m["name"] for m in spec["per_layer"]}
    for name, (target, workloads) in tracing.MOVES.items():
        assert target in end_to_end, name
        assert workloads and set(workloads) <= set(WORKLOADS), name


def test_traced_run_restores_patched_functions(spec, case7, tmp_path):
    before = tracing.patch_targets()
    values, ledger, _ = traced_run(MINI, [case7], SEED,
                                   tmp_path / "trace.jsonl")
    assert tracing.patch_targets() == before
    assert ledger.failed == 0 and ledger.attempted == 2
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    assert values["oracle.calls"] > 0 and values["core.fbdt.nodes"] >= 0
    assert values["core.fbdt.timed_out_outputs"] == 0
    assert (tmp_path / "trace.jsonl").read_text().count("\n") > 0


def test_untraced_run_reports_every_end_to_end_metric(spec, case7):
    values, ledger, rows = untraced_run(MINI, [case7], SEED, seconds=0)
    assert ledger.failed == 0 and ledger.attempted == 1
    assert set(values) | {"setup_s"} == {m["name"]
                                         for m in spec["end_to_end"]}
    assert values["accuracy"] == 100.0 and values["gates"] > 0
    assert rows[0]["digest"]


def test_raising_learner_counts_as_failure(case7):
    def broken(config, oracle):
        raise RuntimeError("boom")

    _, ledger, _ = untraced_run(MINI, [case7], SEED, seconds=0,
                                learner=broken)
    assert ledger.attempted == 1 and ledger.failed == 1
    assert "boom" in ledger.failures[0]


def test_mislabelled_verified_output_counts_as_failure(case7):
    run = learn_case(case7, MINI, SEED)
    ledger = Ledger()
    quality([case7], [run], SEED, ledger)
    assert ledger.failed == 0
    net = run.result.netlist
    for j in (0, 1):  # both outputs now wrong, both claimed certified
        net.po_nodes[j] = net.add_not(net.po_nodes[j])
        run.result.verification.outputs[j].status = "verified"
    quality([case7], [run], SEED, ledger)
    assert ledger.failed == 1 and len(ledger.failures) == 2
    assert net.po_names[0] in ledger.failures[0]


def test_two_runs_give_equal_digests(case7):
    # The benchmark seed only changes the ground-truth patterns.
    first = learn_case(case7, MINI, SEED)
    second = learn_case(case7, MINI, SEED + 1)
    assert netlist_digest(first.result.netlist) \
        == netlist_digest(second.result.netlist)


def test_scorer_counts_every_wrong_pattern(case7):
    golden = case7.golden
    same = score_netlist(golden, golden, SEED, 7)
    assert same.patterns == 1_500_000 and same.hits == same.patterns
    assert not same.mismatches.any()
    wrong = build_case("case_7").golden
    wrong.po_nodes[1] = wrong.add_not(wrong.po_nodes[1])
    flipped = score_netlist(golden, wrong, SEED, 7)
    assert flipped.mismatches[1] == flipped.patterns and flipped.hits == 0


@pytest.mark.parametrize("base, head, word", [
    ([10.0, 10.1, 9.9], [10.0, 10.05, 9.95], "same"),
    ([10.0, 10.1, 9.9], [12.0, 12.1, 11.9], "worse"),
    ([10.0, 10.1, 9.9], [8.0, 8.1, 7.9], "better"),
    ([10.0, 14.0, 6.0, 12.0], [10.5, 14.0, 6.0, 12.0], "unresolved"),
])
def test_compare_verdicts(base, head, word):
    assert verdict(base, head, "lower", 0.1)[0] == word

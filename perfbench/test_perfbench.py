"""Tests of the benchmark itself: the known-answer oracle, the tracer and
the agreement of ``BENCHMARK.json`` with ``metrics.py``.

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import pathlib

import pytest

import metrics
import run
from workloads import CORPUS, answer, doc

REPO = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", REPO)
    return tmp_path


def run_pass(commands, workdir, trace=False):
    job = run.job_for(commands, [], trace, False, str(workdir / "spans.json"))
    return run.run_child(job, workdir, hashseed=0)


def test_wrong_expected_answer_is_counted(workdir):
    right = answer(["validate", doc("sign.json")], golden="validate-sign.txt")
    wrong = answer(["validate", doc("sign.json")], exit=1, verdict="fail",
                   violated=["category-unity"])
    checker = run.Checker()
    result = run_pass([right, wrong], workdir)
    checker.check([right, wrong], result["commands"])
    assert (checker.attempted, checker.failed) == (2, 1)
    assert len(checker.unexpected) == 1
    assert "exit 0, expected 1" in checker.unexpected[0]


def test_recorded_defect_counts_as_failed_but_not_incorrect(workdir):
    defect = next(c for c in CORPUS if c["defect"])
    checker = run.Checker()
    checker.check([defect], run_pass([defect], workdir)["commands"])
    assert (checker.attempted, checker.failed, checker.unexpected) == (1, 1, [])


def test_traced_pass_reproduces_untraced_bytes(workdir):
    commands = [answer(["validate", doc("sign.json")]),
                answer(["validate", doc("mutant-multicat-unity.json")], exit=1,
                       verdict="fail", violated=["left-unity", "associativity"])]
    plain = run_pass(commands, workdir)
    traced = run_pass(commands, workdir, trace=True)
    for a, b in zip(plain["commands"], traced["commands"]):
        assert (a["exit"], a["stdout"], a["report"]) == (b["exit"], b["stdout"], b["report"])
    layers = traced["layers"]
    assert layers["documents.parse_document.calls"] == 2
    assert layers["reports.render.calls"] > 0
    assert layers["multicat.validate_multicat.instances"] > 0
    assert layers["tensor.make_decomp.calls"] == 0
    spans = json.loads((workdir / "spans.json").read_text())
    ids = {s["id"] for s in spans}
    assert all(s["parent"] in ids | {0} for s in spans)
    assert [s["name"] for s in spans if s["parent"] == 0] == ["command", "command"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == metrics.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)

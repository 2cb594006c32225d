"""Smoke test of the benchmark harness on the seconds-long ``smoke`` workload.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import passrun  # noqa: E402
from workloads import WORKLOADS, op_id  # noqa: E402


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _run(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "smoke",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"),
                                         (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(trace, kind):
    result = _run(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= WORKLOADS["smoke"].op_count()
    emitted = {k: m["unit"] for k, m in result["metrics"].items()}
    assert emitted == _declared(kind)


def test_wrong_pinned_answer_counts_as_failed():
    refs = passrun.load_refs()
    key = op_id(WORKLOADS["smoke"].groups[1][1][0])
    refs[key] = {**refs[key], "observed": {"components": 999}}
    summary, records = passrun.run_pass(WORKLOADS["smoke"], 0, refs, 60.0)
    assert summary["failed"] == 1
    assert summary["outcomes"]["mismatch"] == 1
    assert [r[0] for r in records if r[2] != "ok"] == [key]


def test_op_over_budget_is_stopped_and_counted(monkeypatch):
    monkeypatch.setattr(passrun, "OP_BUDGET_S", 1e-6)
    summary, _ = passrun.run_pass(WORKLOADS["smoke"], 0, passrun.load_refs(),
                                  60.0)
    assert summary["outcomes"]["timeout"] == summary["attempted"] == 4


def test_seed_permutes_order_but_not_ops():
    w = WORKLOADS["catalog_sweep"]
    pinned = [op for _, ops in w.ordered(0) for op in ops]
    shuffled = [op for _, ops in w.ordered(7) for op in ops]
    assert pinned == [op for _, ops in w.groups for op in ops]
    assert pinned[0][0] == sorted(w.exprs)[0]
    assert shuffled != pinned and sorted(shuffled) == sorted(pinned)
    assert len(pinned) == 1066

"""Regenerate perfbench/references.json, the pinned answer of every op.

Usage (from the repository root): python3 perfbench/make_references.py

The references were generated once, at the commit that added the benchmark,
and must not be regenerated to make a later commit pass: a changed answer is
a failure for the benchmark to report. The op of ``known_defects`` does not
finish there, so its answer is pinned from the literature instead.
"""
from __future__ import annotations

import json
import os
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import charposet.catalog  # noqa: E402
import charposet.gamma  # noqa: E402
from passrun import REFERENCES, run_op  # noqa: E402
from workloads import WORKLOADS, op_id  # noqa: E402


# Answers that do not come from running the op at the seed commit.
_FROM_THEORY = {
    "PSL(2,8)|p=2|e=0|Cor2.2": (
        {"status": "pass", "observed": {"s_disconnected": True},
         "expected": {"s_disconnected": True}},
        "Bender 1971: PSL(2,8) has a strongly embedded subgroup (the Borel "
        "subgroup of order 56), and its 2^3+1 = 9 Sylow 2-subgroups are TI, "
        "so S(2,0) has 9 components; not run here, because the op does not "
        "finish at the seed commit"),
}
_SOURCES = {
    "every ThmC op": (
        "expected.components is |I|, the intersection of all subgroups of "
        "order p^2, from group.common_intersection_of_order; it does not use "
        "Gamma"),
    "PSL(2,8)|p=2|e=0|ThmA": (
        "s_structural = 9 = 2^3+1 Sylow 2-subgroups of PSL(2,8), which are "
        "TI (Bender 1971), so S(2,0) has 9 components"),
}


def main():
    ops = {}
    sources = dict(_SOURCES)
    for name, workload in WORKLOADS.items():
        for expr, group_ops in workload.ordered(0):
            G = None
            for op in group_ops:
                key = op_id(op)
                if key in _FROM_THEORY:
                    ops[key], sources[key] = _FROM_THEORY[key]
                    continue
                if G is None:
                    G = charposet.catalog.realize(expr)
                answer = run_op(charposet, G, op)
                if ops.setdefault(key, answer) != answer:
                    raise SystemExit(f"{key}: answers differ across workloads")
        print(f"{name}: {workload.op_count()} ops", file=sys.stderr)
    totals = Counter(ops[op_id(op)]["status"]
                     for _, group_ops in WORKLOADS["catalog_sweep"].groups
                     for op in group_ops)
    if totals != {"pass": 337, "inapplicable": 729}:
        raise SystemExit(f"catalog_sweep totals are {dict(totals)}")
    doc = {
        "about": ("Pinned answer (status, observed, expected) of every op "
                  "of every workload, generated at the commit that added "
                  "the benchmark. `sources` names an independent source "
                  "where one exists."),
        "catalog_sweep_totals": {
            "pass": 337, "fail": 0, "inapplicable": 729,
            "source": "`charposet catalog-run` at the same commit prints "
                      "pass: 337  fail: 0  inapplicable: 729"},
        "sources": dict(sorted(sources.items())),
        "ops": dict(sorted(ops.items())),
    }
    write_references(doc)


def write_references(doc):
    """Write the document with one line per op, so diffs show single ops."""
    lines = [f"  {json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in doc["ops"].items()]
    head = json.dumps({k: v for k, v in doc.items() if k != "ops"},
                      indent=1)[:-2]
    with open(REFERENCES, "w") as fh:
        fh.write(head + ',\n "ops": {\n' + ",\n".join(lines) + "\n }\n}\n")


if __name__ == "__main__":
    main()

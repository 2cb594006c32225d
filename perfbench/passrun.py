"""One pass of a workload, in a fresh process.

Usage: python3 perfbench/passrun.py WORKLOAD SEED TRACE DEADLINE_S

Runs every op of WORKLOAD in the order SEED gives, as a closed loop: each op
starts only after the previous one returns. Each op runs under the per-op
budget; an op that overruns is stopped and counted as failed, and the pass
goes on. An op still running DEADLINE_S seconds after the pass began is
stopped too, and later ops are not started; all of them count as failed, so
a pass always ends in bounded time. With TRACE 1 the layer wrappers are
installed and the per-layer metrics are reported. Prints one JSON object on its last line.
"""
from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCES = os.path.join(HERE, "references.json")

sys.path.insert(0, HERE)
from workloads import OP_BUDGET_S, WORKLOADS, op_id  # noqa: E402


class OpTimeout(BaseException):
    """Raised in the op when its budget runs out.

    A BaseException, so that no ``except Exception`` in the package can
    swallow it.
    """


def _on_alarm(signum, frame):
    raise OpTimeout()


def _normalize(value):
    """The JSON form of a result, as the references store it."""
    return json.loads(json.dumps(value, sort_keys=True))


def run_op(charposet, G, op):
    """The answer of one op on the realized group G."""
    _, p, e, kind = op
    if kind == "components":
        n = charposet.gamma.gamma_poset(G, p, e).partition.count
        return {"status": "value", "observed": {"components": n},
                "expected": {}}
    report = charposet.gamma.verify(G, p, e, kind)
    return _normalize({"status": report.status, "observed": report.observed,
                       "expected": report.expected})


def _realize_and_run(charposet, expr, G, op, fresh):
    """Realize the group unless G can be reused, then run the op on it."""
    if G is None or fresh:
        G = charposet.catalog.realize_group(
            charposet.catalog.parse_group_expr(expr))
    return G, run_op(charposet, G, op)


def run_pass(workload, seed, refs, deadline_s, tracer=None):
    """Run one pass; return (summary dict, per-op records).

    ``refs`` maps op ids to pinned answers. ``tracer`` (a tracing.Tracer),
    when given, is installed for the pass and removed after it.
    """
    import charposet.catalog
    import charposet.gamma

    signal.signal(signal.SIGALRM, _on_alarm)
    if tracer is not None:
        tracer.install()
    records = []
    outcome = {"ok": 0, "mismatch": 0, "error": 0, "timeout": 0,
               "deadline": 0}
    start = time.perf_counter()
    try:
        for expr, ops in workload.ordered(seed):
            G = None
            for op in ops:
                t0 = time.perf_counter()
                budget = min(OP_BUDGET_S, deadline_s - (t0 - start))
                if budget <= 0:
                    records.append((op_id(op), 0.0, "deadline"))
                    outcome["deadline"] += 1
                    continue
                try:
                    # the timer is one-shot: once it has fired, nothing is
                    # left to cancel, so an alarm that lands in the inner
                    # finally still reaches the handler below
                    signal.setitimer(signal.ITIMER_REAL, budget)
                    try:
                        G, answer = _realize_and_run(charposet, expr, G, op,
                                                     not workload.shared)
                    finally:
                        signal.setitimer(signal.ITIMER_REAL, 0)
                    status = "ok" if answer == refs.get(op_id(op)) \
                        else "mismatch"
                except OpTimeout:
                    status = "timeout" if budget == OP_BUDGET_S \
                        else "deadline"
                except Exception:           # noqa: BLE001 - counted as failed
                    status = "error"
                records.append((op_id(op), time.perf_counter() - t0, status))
                outcome[status] += 1
    finally:
        wall = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    attempted = len(records)
    failed = attempted - outcome["ok"]
    summary = {
        "wall_s": wall,
        "slowest_op_s": max(t for _, t, _ in records),
        "op_s": [t for _, t, _ in records],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "attempted": attempted,
        "failed": failed,
        "outcomes": outcome,
    }
    return summary, records


def load_refs():
    with open(REFERENCES) as fh:
        return json.load(fh)["ops"]


def main(argv):
    name, seed, trace, deadline_s = argv
    workload = WORKLOADS[name]
    tracer = None
    if trace == "1":
        from tracing import Tracer
        tracer = Tracer()
    summary, records = run_pass(workload, int(seed), load_refs(),
                                float(deadline_s), tracer)
    summary["failed_ops"] = [r for r in records if r[2] != "ok"]
    if tracer is not None:
        summary["layers"] = tracer.metrics(summary["wall_s"])
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"spans-{name}-seed{seed}.json")
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "tag"],
                       "spans": tracer.spans}, fh)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

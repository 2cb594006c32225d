"""Pinned workload definitions for the charposet benchmark.

Everything a workload runs is fixed here, not read from the package at run
time, so that a later change to the package's catalog or claim table cannot
silently change what the benchmark measures.

An op is ``(expr, p, e, kind)``. ``kind`` is a claim id, run through
``charposet.gamma.verify``, or ``"components"``, the count |pi_0 Gamma(p, e)|
from ``charposet.gamma.gamma_poset``.
"""
from __future__ import annotations

import random

# One per-op budget for every workload and every commit. It sits well above
# the slowest op that completes at the seed commit (PSL(2,7) ThmB, which
# pays the whole all-subgroup scan: 15-23 s on a 2-CPU machine).
OP_BUDGET_S = 60.0

# The 41 expressions of the package's built-in catalog at the seed commit.
CATALOG = (
    "C(4)", "E(2,2)",
    "C(8)", "C(4) x C(2)", "E(2,3)", "D(4)", "Q(8)",
    "C(16)", "C(8) x C(2)", "C(4) x C(4)", "C(4) x C(2) x C(2)", "E(2,4)",
    "D(8)", "Q(16)", "SD(16)", "M(2,4)", "D(4) x C(2)", "Q(8) x C(2)",
    "sd[8: (1 2 3 4), (2 4)(5 6 7 8); (1 2 3 4); (2 4)(5 6 7 8)]",
    "C(9)", "E(3,2)",
    "C(27)", "C(9) x C(3)", "E(3,3)", "X(3,+)", "X(3,-)",
    "C(81)", "C(27) x C(3)", "C(9) x C(9)", "C(9) x C(3) x C(3)", "E(3,4)",
    "M(3,4)", "X(3,+) x C(3)", "X(3,-) x C(3)",
    "S(3)", "S(4)", "A(4)", "A(5)", "SL(2,3)", "PSL(2,5)", "PSL(2,7)",
)

# Claim order and the e values each claim is swept at, as `catalog-run`
# does at the seed commit.
CLAIM_ES = (
    ("ThmA", (0, 1)), ("ThmB", (0,)), ("ThmC", (1,)), ("L2.3", (0, 1)),
    ("L4.1", (0,)), ("L4.2", (1,)), ("L4.3", (1,)), ("L4.4", (1,)),
    ("L4.6", (1,)), ("Cor2.2", (0, 1)),
)
CLAIM_IDS = tuple(claim for claim, _ in CLAIM_ES)

# The catalog groups of order above 60: PSL(2,7) (order 168, whose ThmB op
# alone takes 15-23 s) and the eight groups of order 81. Without them a pass
# of the catalog takes seconds instead of most of a minute, so one timed run
# holds a dozen passes and reports their medians.
LARGE_CATALOG = (
    "PSL(2,7)", "C(81)", "C(27) x C(3)", "C(9) x C(9)", "C(9) x C(3) x C(3)",
    "E(3,4)", "M(3,4)", "X(3,+) x C(3)", "X(3,-) x C(3)",
)
SMALL_CATALOG = tuple(expr for expr in CATALOG if expr not in LARGE_CATALOG)


def _catalog_claims(expr):
    return [(expr, p, e, claim)
            for p in (2, 3) for claim, es in CLAIM_ES for e in es]


def _thm_a(exprs):
    return [(expr, [(expr, p, 0, "ThmA") for p in (2, 3)]) for expr in exprs]


def _gamma_pair(expr, p):
    return [(expr, p, 0, "components"), (expr, p, 1, "ThmC")]


class Workload:
    """Ops grouped by group expression, run as one closed loop.

    ``shared`` means each group is realized once and serves all of its ops,
    as `catalog-run` does; otherwise every op realizes its group afresh, as
    a one-shot `charposet verify` does.
    """

    def __init__(self, name, groups, shared):
        self.name = name
        self.groups = tuple((expr, tuple(ops)) for expr, ops in groups)
        self.shared = shared

    @property
    def exprs(self):
        return [expr for expr, _ in self.groups]

    def ordered(self, seed):
        """Groups and their ops in the run order for ``seed``.

        Seed 0 keeps the pinned order, which for ``catalog_sweep`` is the
        order `catalog-run` verifies in. Any other seed shuffles the groups
        and, independently, the ops inside each group; the set of ops and
        their answers do not change.
        """
        groups = [(expr, list(ops)) for expr, ops in self.groups]
        if seed:
            rng = random.Random(seed)
            rng.shuffle(groups)
            for _, ops in groups:
                rng.shuffle(ops)
        return groups

    def op_count(self):
        return sum(len(ops) for _, ops in self.groups)


def op_id(op):
    expr, p, e, kind = op
    return f"{expr}|p={p}|e={e}|{kind}"


WORKLOADS = {
    w.name: w for w in (
        # catalog-run: 41 groups x p in {2,3} x claims = 1,066 verifications.
        # One pass takes most of a minute, a third of it in one op, so it is
        # run by name; catalog_small is the timed part of it.
        Workload("catalog_sweep",
                 [(expr, _catalog_claims(expr)) for expr in sorted(CATALOG)],
                 shared=True),
        # catalog-run on the 32 catalog groups of order at most 60: 832
        # verifications, with the all-subgroup scan on S(3), A(4), S(4),
        # SL(2,3), A(5) and PSL(2,5).
        Workload("catalog_small",
                 [(expr, _catalog_claims(expr))
                  for expr in sorted(SMALL_CATALOG)],
                 shared=True),
        # p-groups whose Gamma posets have 100-2,500 nodes; tables dominate.
        # Not in BENCHMARK.json: its ops take seconds each and a pass about
        # 25 s, too few passes per run for a steady median. Run it by name.
        Workload("gamma_pgroups",
                 [("E(2,5)", _gamma_pair("E(2,5)", 2)),
                  ("D(4) x D(4)", _gamma_pair("D(4) x D(4)", 2)),
                  ("X(3,+) x C(3)", _gamma_pair("X(3,+) x C(3)", 3)),
                  ("M(3,5)", _gamma_pair("M(3,5)", 3)),
                  ("Q(32)", _gamma_pair("Q(32)", 2))],
                 shared=False),
        # orders 360-720: realization and the component action dominate.
        # S(6) at p=2 is half of a pass, so this is run by name and
        # large_simple is the timed part of it.
        Workload("large_groups",
                 _thm_a(("PSL(2,11)", "PSL(2,8)", "A(6)", "S(6)")),
                 shared=False),
        # the simple groups of large_groups, orders 360-660.
        Workload("large_simple",
                 _thm_a(("PSL(2,11)", "PSL(2,8)", "A(6)")),
                 shared=False),
        # Cor2.2 on PSL(2,8) runs the all-subgroup scan on a group of order
        # 504 and does not finish within the budget at the seed commit. It
        # is kept out of the timed workloads, because every run of a
        # workload holding it would fail this op and spend the whole budget
        # on it; run this workload by name to see the defect as a failure.
        Workload("known_defects",
                 [("PSL(2,8)", [("PSL(2,8)", 2, 0, "Cor2.2")])],
                 shared=False),
        # seconds-long harness check used by test_smoke.py.
        Workload("smoke",
                 [("S(3)", [("S(3)", 3, 0, "ThmB"), ("S(3)", 2, 0, "ThmA")]),
                  ("C(4)", [("C(4)", 2, 0, "components"),
                            ("C(4)", 2, 1, "ThmC")])],
                 shared=True),
    )
}

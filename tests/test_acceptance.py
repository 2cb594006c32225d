"""End-to-end acceptance suite.

Each test checks one acceptance criterion and prints a single PASS/FAIL
line to the real stdout so the run log shows the verdicts even under
pytest's output capture. All quantities are exact integers.
"""
import numpy as np

from charposet.catalog import SEMIDIRECT_C4_C4, catalog_roster
from charposet.chartab import (
    CharContext,
    check_row_orthogonality,
    decompose_restriction,
    induce,
    restrict_values,
)
from charposet.gamma import (
    gamma_poset,
    has_strongly_embedded_subgroup,
    s_poset,
    verify,
    x_of_sylow,
)
from charposet.group import (
    all_subgroups,
    enumerate_p_subgroups,
    is_p_power,
    normalizer,
    omega1,
)
from util import (
    brute_force_subgroups,
    cached_group,
    check_column_orthogonality,
    check_component_projection,
    element_component_action,
    five_conditions,
    full_comparability_partition,
)


def _report(capsys, n, desc, failures):
    status = "FAIL" if failures else "PASS"
    with capsys.disabled():
        print(f"[ACCEPTANCE {n}] {desc}: {status}", flush=True)
    assert not failures, f"criterion {n}: {failures}"


def test_criterion_01_component_count_formula_instances(capsys):
    failures = []
    cases = [("C(4)", 2, 2), ("Q(8)", 2, 2), ("S(3)", 3, 3),
             ("SL(2,3)", 3, 12)]
    for text, p, expected in cases:
        G = cached_group(text)
        gam = gamma_poset(G, p, 0)
        if gam.partition.count != expected:
            failures.append((text, "count", gam.partition.count))
        lat = gam.s
        P = lat.nodes[lat.sylow_ids[0]]
        index = G.order // normalizer(G, omega1(P, p)).order
        if gam.partition.count != p * index:
            failures.append((text, "formula", p * index))
    # the SL(2,3) instance has normalizer index 4
    G = cached_group("SL(2,3)")
    lat = gamma_poset(G, 3, 0).s
    P = lat.nodes[lat.sylow_ids[0]]
    if G.order // normalizer(G, omega1(P, 3)).order != 4:
        failures.append(("SL(2,3)", "index", "!= 4"))
    _report(capsys, 1, "component-count formula instances", failures)


def test_criterion_02_disconnection_biconditional_sweep(capsys):
    failures = []
    for text in catalog_roster():
        G = cached_group(text)
        if G.order > 60:
            continue
        for p in (2, 3, 5):
            if G.order % p:
                continue
            gam = gamma_poset(G, p, 0)
            lat = gam.s
            P = lat.nodes[lat.sylow_ids[0]]
            unique = sum(1 for s in lat.nodes
                         if s.order == p
                         and set(s.members) <= set(P.members)) == 1
            embedded = has_strongly_embedded_subgroup(G, p, 0)
            if (gam.partition.count > 1) != (unique or embedded):
                failures.append((text, p))
            if text == "A(5)" and p == 2:
                if gam.partition.count != 5 or not embedded:
                    failures.append(("A(5)", "expected 5 disconnected"))
            if text == "S(4)" and p == 2:
                if gam.partition.count != 1:
                    failures.append(("S(4)", "expected connected"))
    _report(capsys, 2, "disconnection biconditional sweep (order <= 60)", failures)


def test_criterion_03_intersection_count_sweep(capsys):
    failures = []
    spots = {"C(8)": 4, "E(2,2)": 4, "D(4)": 2, "Q(8)": 2, "Q(16)": 2,
             "C(4) x C(2)": 2, "X(3,+)": 3, "C(4) x C(4)": 1, "E(2,3)": 1}
    for text in catalog_roster():
        G = cached_group(text)
        for p, bound in ((2, 64), (3, 81)):
            if not is_p_power(G.order, p) or not p * p <= G.order <= bound:
                continue
            r = verify(G, p, 1, "ThmC")
            if r.status != "pass":
                failures.append((text, p, r.observed, r.expected))
            if text in spots and \
                    r.observed.get("components") != spots[text]:
                failures.append((text, "spot", r.observed))
    _report(capsys, 3, "order-p^2 intersection count sweep", failures)


def test_criterion_04_product_law(capsys):
    failures = []
    for text in catalog_roster():
        G = cached_group(text)
        for p in (2, 3):
            for e in (0, 1):
                if G.order % p ** (e + 1):
                    continue
                spos = s_poset(G, p, e)
                gam = gamma_poset(G, p, e)
                P = spos.sylow_ids[0]
                x = x_of_sylow(gam, P)
                if gam.partition.count != x * spos.partition.count:
                    failures.append((text, p, e, "product"))
                r = verify(G, p, e, "ThmA")
                if r.status != "pass":
                    failures.append((text, p, e, r.status))
    # the A(5) instance: 5 = 5 * 1, stabilizer order 12
    spos = s_poset(cached_group("A(5)"), 2, 0)
    gam = gamma_poset(cached_group("A(5)"), 2, 0)
    act = element_component_action(spos)
    if not (gam.partition.count == 5
            and x_of_sylow(gam, spos.sylow_ids[0]) == 1
            and spos.partition.count == 5
            and act.stabilizer.order == 12):
        failures.append(("A(5)", "instance"))
    _report(capsys, 4, "component product law", failures)


def test_criterion_05_five_condition_equivalence(capsys):
    failures = []
    for text in catalog_roster():
        G = cached_group(text)
        if G.order > 24:
            continue
        for p in (2, 3):
            for e in (0, 1):
                if G.order % p ** (e + 1):
                    continue
                for M in all_subgroups(G):
                    if M.order == G.order:
                        continue
                    answers = set(five_conditions(G, p, e, M))
                    if len(answers) != 1:
                        failures.append((text, p, e, M.members))
    _report(capsys, 5, "five-way strong-embedding equivalence (order <= 24)",
            failures)


def test_criterion_06_induced_character_identity(capsys):
    failures = []
    for text, p in [("D(4)", 2), ("Q(8)", 2), ("X(3,+)", 3), ("X(3,-)", 3),
                    ("X(5,+)", 5), ("X(5,-)", 5)]:
        r = verify(cached_group(text), p, 1, "L4.3")
        if r.status != "pass":
            failures.append((text, r.observed))
        if r.observed.get("checked") != p - 1:
            failures.append((text, "checked", r.observed))
    _report(capsys, 6, "induction/restriction identity for nonabelian p^3 groups",
            failures)


def test_criterion_07_e1_component_instances(capsys):
    failures = []
    cases = [("C(4) x C(4)", 1), ("E(2,3)", 1), ("C(8)", 4), ("D(4)", 2),
             ("Q(8)", 2), ("C(4) x C(2)", 2), (SEMIDIRECT_C4_C4, 1)]
    for text, expected in cases:
        gam = gamma_poset(cached_group(text), 2, 1)
        if gam.partition.count != expected:
            failures.append((text, gam.partition.count, expected))
    _report(capsys, 7, "e = 1 component-count instances", failures)


def test_criterion_08_character_property_suite(capsys):
    failures = []
    for text in catalog_roster():
        G = cached_group(text)
        if G.order > 64:
            continue
        ctx = CharContext(G)
        whole = ctx.whole()
        tG = ctx.table()
        try:
            check_row_orthogonality(tG)
            check_column_orthogonality(tG)
        except AssertionError as exc:
            failures.append((text, str(exc)))
            continue
        if sum(c.degree ** 2 for c in tG.chars) != G.order:
            failures.append((text, "degree sum"))
        subs = [H for H in all_subgroups(G) if 1 < H.order < G.order]
        for H in subs:
            tH = ctx.table(H)
            check_row_orthogonality(tH)
            downs = [decompose_restriction(ctx, whole, chi, H)
                     for chi in tG.chars]
            for j, theta in enumerate(tH.chars):
                ind = induce(ctx, H, theta)
                for i in range(tG.count):
                    if ind.decomposition[i] != downs[i][j]:
                        failures.append((text, H.members, "reciprocity"))
        # restriction transitivity through one intermediate subgroup
        for K in subs:
            inner = [H for H in subs if set(H.members) < set(K.members)]
            for H in inner[:2]:
                for chi in tG.chars:
                    via = restrict_values(ctx, whole, chi, K)

                    class _Psi:
                        values = tuple(int(v) for v in via)
                        degree = chi.degree
                    if (restrict_values(ctx, whole, chi, H) !=
                            restrict_values(ctx, K, _Psi, H)).any():
                        failures.append((text, "transitivity"))
    _report(capsys, 8, "character-theory property suite", failures)


def test_criterion_09_oracle_equivalences(capsys):
    failures = []
    for text in catalog_roster():
        G = cached_group(text)
        if G.order <= 16:
            for p in (2, 3):
                if G.order % p:
                    continue
                oracle = {
                    m for m in brute_force_subgroups(G)
                    if len(m) > 1 and is_p_power(len(m), p)
                }
                lat = enumerate_p_subgroups(G, p)
                if {s.members for s in lat.nodes} != oracle:
                    failures.append((text, p, "lattice"))
        if G.order <= 32:
            for p in (2, 3):
                for e in (0, 1):
                    if G.order % p ** (e + 1):
                        continue
                    covers = gamma_poset(G, p, e)
                    full = full_comparability_partition(G, p, e)
                    if not np.array_equal(covers.partition.component_of,
                                          full.component_of):
                        failures.append((text, p, e, "components"))
    _report(capsys, 9, "oracle equivalences (subset closure, full comparability)",
            failures)


def test_criterion_10_projection_validator(capsys):
    failures = []
    for text in catalog_roster():
        G = cached_group(text)
        for p in (2, 3):
            for e in (0, 1):
                if G.order % p ** (e + 1):
                    continue
                try:
                    check_component_projection(gamma_poset(G, p, e))
                except AssertionError as exc:
                    failures.append((text, p, e, str(exc)))
    _report(capsys, 10, "component projection validator", failures)

"""S and Gamma posets, strong embedding, and claim verification."""
import gc
import json
import weakref

import pytest

from charposet.catalog import SEMIDIRECT_C4_C4, catalog_roster, realize
from charposet.errors import (
    HypothesisNotSatisfied,
    NotASylowNode,
    PreconditionViolated,
)
from charposet.gamma import (
    build_gamma_poset,
    check_component_projection,
    gamma_poset,
    has_strongly_embedded_subgroup,
    s_poset,
    scan_nontrivial_I,
    strongly_embedded_check,
    subgroup_reaches_all_components,
    verify,
    x_of_sylow,
)
from charposet.group import all_subgroups, common_intersection_of_order
from util import brute_force_has_strongly_embedded, cached_group


def test_s_poset_examples():
    sp = s_poset(cached_group("Q(8)"), 2, 0)
    assert sp.lattice.node_count == 5
    assert sp.partition.count == 1
    sp = s_poset(cached_group("A(5)"), 2, 0)
    assert sp.lattice.node_count == 20
    assert sp.partition.count == 5
    sp = s_poset(cached_group("S(3)"), 3, 0)
    assert sp.lattice.node_count == 1
    assert sp.partition.count == 1


def test_gamma_poset_examples():
    gam = gamma_poset(cached_group("C(4)"), 2, 0)
    assert gam.node_count == 6
    assert gam.partition.count == 2
    gam = gamma_poset(cached_group("Q(8)"), 2, 0)
    assert gam.node_count == 19
    assert gam.partition.count == 2
    gam = gamma_poset(cached_group("S(3)"), 3, 0)
    assert gam.node_count == 3
    assert len(gam.edges) == 0
    assert gam.partition.count == 3


def test_x_of_sylow():
    gam = gamma_poset(cached_group("A(5)"), 2, 0)
    assert x_of_sylow(gam, gam.s.lattice.sylow_ids[0]) == 1
    gam = gamma_poset(cached_group("SL(2,3)"), 3, 0)
    assert x_of_sylow(gam, gam.s.lattice.sylow_ids[0]) == 3
    # a p-group: X(P) covers all of Gamma
    gam = gamma_poset(cached_group("Q(8)"), 2, 0)
    P = gam.s.lattice.sylow_ids[0]
    assert x_of_sylow(gam, P) == gam.partition.count
    with pytest.raises(NotASylowNode):
        x_of_sylow(gam, 0)


@pytest.mark.parametrize("text,p,e", [
    (t, p, e)
    for t in catalog_roster(max_order=32)
    for p in (2, 3)
    for e in (0, 1)
    if cached_group(t).order % p ** (e + 1) == 0
])
def test_cover_edges_match_full_comparability(text, p, e):
    G = cached_group(text)
    covers = gamma_poset(G, p, e)
    full = build_gamma_poset(G, p, e, full_comparability=True)
    assert covers.partition.count == full.partition.count
    assert covers.partition.component_of == full.partition.component_of


def test_strongly_embedded_a5():
    G = cached_group("A(5)")
    M = next(s for s in all_subgroups(G) if s.order == 12)
    for c in (1, 2, 3, 4, 5):
        assert strongly_embedded_check(G, 2, 0, M, c)


def test_strongly_embedded_small_order_fails_divisibility():
    G = cached_group("A(5)")
    M = next(s for s in all_subgroups(G) if s.order == 3)
    assert not strongly_embedded_check(G, 2, 0, M, 5)


def test_s4_has_no_strongly_embedded_subgroup():
    assert not has_strongly_embedded_subgroup(cached_group("S(4)"), 2, 0)


@pytest.mark.parametrize("text,p,e", [
    (t, p, e)
    for t in catalog_roster(max_order=60)
    for p in (2, 3, 5)
    for e in (0, 1)
    if cached_group(t).order % p == 0
] + [("PSL(2,7)", 2, 0), ("S(5)", 2, 0)])
def test_overgroup_search_matches_all_subgroup_scan(text, p, e):
    G = cached_group(text)
    assert has_strongly_embedded_subgroup(G, p, e) == \
        brute_force_has_strongly_embedded(G, p, e)


def test_bender_family_psl_2_8():
    # PSL(2, 2^n) has a strongly embedded Borel subgroup (Bender 1971), and
    # its 2^n + 1 Sylow 2-subgroups are the components of S_{2,0}
    G = cached_group("PSL(2,8)")
    assert s_poset(G, 2, 0).partition.count == 2 ** 3 + 1
    assert has_strongly_embedded_subgroup(G, 2, 0)
    assert has_strongly_embedded_subgroup(G, 2, 1)
    for claim in ("Cor2.2", "ThmB"):
        assert verify(G, 2, 0, claim).status == "pass", claim


@pytest.mark.parametrize("text", ["A(6)", "PSL(2,11)"])
def test_no_strongly_embedded_subgroup_in_larger_simple_groups(text):
    assert not has_strongly_embedded_subgroup(cached_group(text), 2, 0)


def test_strongly_embedded_preconditions():
    G = cached_group("A(5)")
    whole = next(s for s in all_subgroups(G) if s.order == 60)
    M = next(s for s in all_subgroups(G) if s.order == 12)
    with pytest.raises(PreconditionViolated):
        strongly_embedded_check(G, 2, 0, whole, 5)
    with pytest.raises(PreconditionViolated):
        strongly_embedded_check(G, 7, 0, M, 5)


@pytest.mark.parametrize("text,p,e", [
    (t, p, e)
    for t in catalog_roster(max_order=24)
    for p in (2, 3)
    for e in (0, 1)
    if cached_group(t).order % p ** (e + 1) == 0
])
def test_five_conditions_agree(text, p, e):
    G = cached_group(text)
    for M in all_subgroups(G):
        if M.order == G.order:
            continue
        answers = {strongly_embedded_check(G, p, e, M, c)
                   for c in (1, 2, 3, 4, 5)}
        assert len(answers) == 1, (text, p, e, M.members)


def test_fixed_subgroup_reaches_all_components():
    # components are exactly the classes [(H, phi)] over any fixed H of
    # order >= p^(e+1)
    for text, p, e in [("Q(16)", 2, 0), ("D(8)", 2, 1), ("X(3,+)", 3, 0),
                       ("C(4) x C(2)", 2, 1)]:
        G = cached_group(text)
        gam = gamma_poset(G, p, e)
        for i, sub in enumerate(gam.s.lattice.nodes):
            if sub.order >= p ** (e + 1):
                assert subgroup_reaches_all_components(gam, i), (text, i)


def test_component_projection_validator():
    for text, p, e in [("A(5)", 2, 0), ("S(4)", 2, 0), ("SL(2,3)", 3, 0),
                       ("Q(8)", 2, 1), ("C(8)", 2, 1), ("E(3,2)", 3, 1)]:
        G = cached_group(text)
        n_gamma, n_s = check_component_projection(gamma_poset(G, p, e))
        assert n_gamma >= n_s


def test_verify_report_shape_and_json():
    r = verify(cached_group("Q(8)"), 2, 1, "ThmC")
    assert r.status == "pass"
    blob = json.loads(r.to_json())
    assert set(blob) == {"group", "p", "e", "claim", "observed", "expected",
                         "status", "millis"}
    assert blob["observed"] == {"components": 2}


def test_verify_inapplicable_cases():
    assert verify(cached_group("S(3)"), 2, 1, "ThmC").status == "inapplicable"
    assert verify(cached_group("C(27)"), 2, 0, "ThmA").status == "inapplicable"
    assert verify(cached_group("Q(8)"), 2, 1, "ThmB").status == "inapplicable"
    assert verify(cached_group("C(8)"), 2, 1, "L4.6").status == "inapplicable"
    with pytest.raises(PreconditionViolated):
        verify(cached_group("Q(8)"), 2, 0, "NoSuchClaim")
    with pytest.raises(PreconditionViolated):
        verify(cached_group("Q(8)"), 4, 0, "ThmC")


def test_verify_theorem_b_branches():
    # unique-subgroup branch with the component-count formula
    r = verify(cached_group("SL(2,3)"), 3, 0, "ThmB")
    assert r.status == "pass"
    assert r.observed["components"] == 12
    # strongly-embedded branch
    r = verify(cached_group("A(5)"), 2, 0, "ThmB")
    assert r.status == "pass"
    assert r.observed["disconnected"] is True
    # connected case
    r = verify(cached_group("S(4)"), 2, 0, "ThmB")
    assert r.status == "pass"
    assert r.observed["disconnected"] is False


def test_verify_lemma_instances():
    assert verify(cached_group("C(4) x C(4)"), 2, 1, "L2.3").status == "pass"
    assert verify(cached_group("E(2,3)"), 2, 1, "L2.3").status == "pass"
    assert verify(cached_group("E(2,2)"), 2, 0, "L2.3").status == "pass"
    assert verify(cached_group("C(8)"), 2, 1, "L4.2").observed == \
        {"components": 4}
    assert verify(cached_group("D(4)"), 2, 1, "L4.4").observed == \
        {"components": 2}
    r = verify(cached_group(SEMIDIRECT_C4_C4), 2, 1, "L4.6")
    assert r.status == "pass" and r.observed == {"components": 1}


def test_disconnection_direction_for_higher_e():
    # one-direction check at e = 2: nontrivial intersection of the
    # order-p^(e+1) subgroups forces at least p components
    for text in ["C(8)", "C(16)", "Q(16)", "C(32)"]:
        G = cached_group(text)
        I = common_intersection_of_order(G, 2, 3)
        if I.order > 1:
            gam = gamma_poset(G, 2, 2)
            assert gam.partition.count >= 2, text


def test_scan_nontrivial_i():
    roster = ["C(4)", "E(2,2)", "C(8)", "C(4) x C(2)", "D(4)", "Q(8)",
              "E(2,3)"]
    results, errors = scan_nontrivial_I(roster, 2, 2)
    assert errors == []
    assert dict(results) == {"C(4)": 4, "E(2,2)": 4, "C(8)": 4,
                             "C(4) x C(2)": 2, "D(4)": 2, "Q(8)": 2}
    results, errors = scan_nontrivial_I(["C(9)", "E(3,2)", "X(3,+)"], 3, 2)
    assert errors == []
    assert dict(results) == {"C(9)": 9, "E(3,2)": 9, "X(3,+)": 3}
    assert scan_nontrivial_I([], 2, 2) == ([], [])


def test_scan_collects_errors_per_entry():
    results, errors = scan_nontrivial_I(["C(4)", "S(3)", "C("], 2, 2)
    assert dict(results) == {"C(4)": 4}
    assert len(errors) == 2


def test_derived_data_is_freed_with_its_table():
    G = realize("S(4)")
    for claim in ("ThmA", "ThmB", "Cor2.2"):
        assert verify(G, 2, 0, claim).status == "pass"
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None

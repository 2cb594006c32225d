"""S and Gamma posets, strong embedding, and claim verification."""
import dataclasses
import gc
import io
import json
import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import charposet
import charposet.chartab
import charposet.gamma
from charposet.catalog import SEMIDIRECT_C4_C4, realize
from charposet.cli import run
from charposet.errors import (
    HypothesisNotSatisfied,
    NotASylowNode,
    PreconditionViolated,
    TableConstructionFailed,
)
from charposet.gamma import (
    _generating_set,
    _sylow_has_cc_or_elem_abelian,
    build_gamma_poset,
    gamma_poset,
    has_strongly_embedded_subgroup,
    s_node_images,
    s_poset,
    scan_nontrivial_I,
    strongly_embedded_check,
    verify,
    x_of_sylow,
)
from charposet.group import (
    all_subgroups,
    common_intersection_of_order,
    p_lattice,
)
from util import (
    DIFFERENTIAL_GROUPS,
    all_nodes_sylow_has_cc_or_elem_abelian,
    brute_force_has_strongly_embedded,
    cached_group,
    catalog_up_to,
    check_component_projection,
    conjugated_node_images,
    element_node_images,
    every_element_strongly_embedded_check,
    five_conditions,
    full_comparability_partition,
    looped_x_of_sylow,
    per_node_gamma,
    subgroup_reaches_all_components,
)


def test_s_poset_examples():
    sp = s_poset(cached_group("Q(8)"), 2, 0)
    assert sp.node_count == 5
    assert sp.partition.count == 1
    sp = s_poset(cached_group("A(5)"), 2, 0)
    assert sp.node_count == 20
    assert sp.partition.count == 5
    sp = s_poset(cached_group("S(3)"), 3, 0)
    assert sp.node_count == 1
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
    assert x_of_sylow(gam, gam.s.sylow_ids[0]) == 1
    gam = gamma_poset(cached_group("SL(2,3)"), 3, 0)
    assert x_of_sylow(gam, gam.s.sylow_ids[0]) == 3
    # a p-group: X(P) covers all of Gamma
    gam = gamma_poset(cached_group("Q(8)"), 2, 0)
    P = gam.s.sylow_ids[0]
    assert x_of_sylow(gam, P) == gam.partition.count
    with pytest.raises(NotASylowNode):
        x_of_sylow(gam, 0)


@pytest.mark.parametrize("text,p,e", [
    (t, p, e)
    for t in catalog_up_to(32)
    for p in (2, 3)
    for e in (0, 1)
    if cached_group(t).order % p ** (e + 1) == 0
])
def test_cover_edges_match_full_comparability(text, p, e):
    G = cached_group(text)
    covers = gamma_poset(G, p, e)
    full = full_comparability_partition(G, p, e)
    assert covers.partition.count == full.count
    assert np.array_equal(covers.partition.component_of, full.component_of)


def test_strongly_embedded_a5():
    G = cached_group("A(5)")
    M = next(s for s in all_subgroups(G) if s.order == 12)
    assert five_conditions(G, 2, 0, M) == [True] * 5


def test_strongly_embedded_small_order_fails_divisibility():
    G = cached_group("A(5)")
    M = next(s for s in all_subgroups(G) if s.order == 3)
    assert not strongly_embedded_check(G, 2, 0, M)


def test_s4_has_no_strongly_embedded_subgroup():
    assert not has_strongly_embedded_subgroup(cached_group("S(4)"), 2, 0)


@pytest.mark.parametrize("text,p,e", [
    (t, p, e)
    for t in catalog_up_to(60)
    for p in (2, 3, 5)
    for e in (0, 1)
    if cached_group(t).order % p == 0
] + [("PSL(2,7)", 2, 0), ("S(5)", 2, 0)])
def test_overgroup_search_matches_all_subgroup_scan(text, p, e):
    G = cached_group(text)
    assert has_strongly_embedded_subgroup(G, p, e) == \
        brute_force_has_strongly_embedded(G, p, e)


@pytest.mark.parametrize("text", catalog_up_to(60) + ["PSL(2,7)"])
def test_condition_5_per_double_coset_matches_every_element(text):
    G = cached_group(text)
    proper = [M for M in all_subgroups(G) if M.order < G.order]
    for p in (2, 3):
        for e in (0, 1):
            if G.order % p ** (e + 1):
                continue
            for M in proper:
                assert strongly_embedded_check(G, p, e, M) == \
                    every_element_strongly_embedded_check(G, p, e, M), \
                    (p, e, M.members)


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
        strongly_embedded_check(G, 2, 0, whole)
    with pytest.raises(PreconditionViolated):
        strongly_embedded_check(G, 7, 0, M)


@pytest.mark.parametrize("text,p,e", [
    (t, p, e)
    for t in catalog_up_to(24)
    for p in (2, 3)
    for e in (0, 1)
    if cached_group(t).order % p ** (e + 1) == 0
])
def test_five_conditions_agree(text, p, e):
    G = cached_group(text)
    for M in all_subgroups(G):
        if M.order == G.order:
            continue
        answers = set(five_conditions(G, p, e, M))
        assert len(answers) == 1, (text, p, e, M.members)


def test_fixed_subgroup_reaches_all_components():
    # components are exactly the classes [(H, phi)] over any fixed H of
    # order >= p^(e+1)
    for text, p, e in [("Q(16)", 2, 0), ("D(8)", 2, 1), ("X(3,+)", 3, 0),
                       ("C(4) x C(2)", 2, 1)]:
        G = cached_group(text)
        gam = gamma_poset(G, p, e)
        for i, sub in enumerate(gam.s.nodes):
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


@pytest.mark.parametrize("text, claim, components", [
    ("Q(8)", "ThmC", 2), ("D(4)", "ThmC", 2), ("C(8)", "L4.2", 4),
    ("D(4)", "L4.4", 2), (SEMIDIRECT_C4_C4, "L4.6", 1)])
def test_claims_stated_at_e_one_are_inapplicable_elsewhere(text, claim,
                                                           components):
    # these claims count Gamma_{p,1}; at any other e that count says nothing
    G = cached_group(text)
    r = verify(G, 2, 1, claim)
    assert r.status == "pass" and r.observed == {"components": components}
    for e in (0, 2):
        r = verify(G, 2, e, claim)
        assert r.status == "inapplicable", (claim, e)
        assert r.observed == {"reason": "claim is stated for e = 1"}


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
    roster = [cached_group(t) for t in ("C(4)", "E(2,2)", "C(8)",
                                        "C(4) x C(2)", "D(4)", "Q(8)",
                                        "E(2,3)")]
    results, errors = scan_nontrivial_I(roster, 2, 2)
    assert errors == []
    assert dict(results) == {"C(4)": 4, "E(2,2)": 4, "C(8)": 4,
                             "C(4) x C(2)": 2, "D(4)": 2, "Q(8)": 2}
    roster = [cached_group(t) for t in ("C(9)", "E(3,2)", "X(3,+)")]
    results, errors = scan_nontrivial_I(roster, 3, 2)
    assert errors == []
    assert dict(results) == {"C(9)": 9, "E(3,2)": 9, "X(3,+)": 3}
    assert scan_nontrivial_I([], 2, 2) == ([], [])


def test_scan_collects_errors_per_entry():
    roster = [cached_group("C(4)"), cached_group("S(3)")]
    results, errors = scan_nontrivial_I(roster, 2, 2)
    assert dict(results) == {"C(4)": 4}
    assert len(errors) == 1


def test_scan_reports_failed_cross_check_by_its_typed_name(monkeypatch):
    wrong = SimpleNamespace(partition=SimpleNamespace(count=999))
    monkeypatch.setattr(charposet.gamma, "gamma_poset",
                        lambda G, p, e: wrong)
    results, errors = scan_nontrivial_I([cached_group("C(4)")], 2, 2)
    assert results == []
    assert errors == [("C(4)", "CrossCheckFailed: |I| = 4 but Gamma(p,1) "
                       "has 999 components")]


def test_scan_does_not_report_programming_errors_as_bad_entries(monkeypatch):
    def broken(G, p, k):
        raise ZeroDivisionError("a bug, not a bad input")

    monkeypatch.setattr(charposet.gamma, "common_intersection_of_order",
                        broken)
    with pytest.raises(ZeroDivisionError):
        scan_nontrivial_I([cached_group("C(4)")], 2, 2)


def test_derived_data_is_freed_with_its_table():
    G = realize("S(4)")
    for claim in ("ThmA", "ThmB", "Cor2.2"):
        assert verify(G, 2, 0, claim).status == "pass"
    ref = weakref.ref(G)
    del G
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_node_images_by_composition_match_conjugation(text):
    G = cached_group(text)
    for p in (2, 3):
        for e in (0, 1):
            spos = s_poset(G, p, e)
            img = element_node_images(spos)
            assert img.shape == (G.order, spos.node_count)
            conj = [list(t) for t in conjugated_node_images(spos)]
            assert img.tolist() == conj
            assert s_node_images(spos).tolist() == \
                [conj[g] for g in _generating_set(G)]


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS + ("E(2,5)", "M(3,5)"))
def test_transported_gamma_matches_per_node_tables(text):
    # the build from class representatives by transport gives the Gamma
    # of every node's own table and one restriction product per cover
    G = cached_group(text)
    for p in (2, 3):
        for e in (0, 1):
            gam = gamma_poset(G, p, e)
            old = per_node_gamma(G, p, e)
            assert np.array_equal(gam.offsets, old.offsets), (p, e)
            assert np.array_equal(gam.edges, old.edges), (p, e)
            assert np.array_equal(gam.partition.component_of,
                                  old.partition.component_of), (p, e)
            assert gam.partition.component_sizes == \
                old.partition.component_sizes


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_x_of_sylow_matches_node_loop(text):
    # the np.repeat over offsets against a loop over Gamma's nodes, at
    # every Sylow node
    G = cached_group(text)
    for p in (2, 3):
        for e in (0, 1):
            if G.order % p ** (e + 1):
                continue
            gam = gamma_poset(G, p, e)
            assert gam.s.sylow_ids, (p, e)
            for P in gam.s.sylow_ids:
                got = x_of_sylow(gam, P)
                assert type(got) is int
                assert got == looped_x_of_sylow(gam, P), (p, e, P)


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_cover_keys_match_np_unique(monkeypatch, text):
    # the lexsort dedupe of the cover keys against np.unique(axis=0)
    seen = []
    distinct = charposet.gamma._distinct_rows

    def spy(rows):
        keys, key_of = distinct(rows)
        seen.append((rows, keys, key_of))
        return keys, key_of

    monkeypatch.setattr(charposet.gamma, "_distinct_rows", spy)
    G = cached_group(text)
    with_covers = 0
    for p in (2, 3):
        for e in (0, 1):
            build_gamma_poset(G, p, e)
            with_covers += len(s_poset(G, p, e).covers) > 0
    assert len(seen) == with_covers
    for rows, keys, key_of in seen:
        want, want_of = np.unique(rows, axis=0, return_inverse=True)
        assert keys.dtype == want.dtype
        assert np.array_equal(keys, want)
        assert np.array_equal(key_of, want_of.reshape(-1))


def test_wrong_conjugating_element_is_typed():
    G = realize("A(6)")
    lat = p_lattice(G, 2)
    i = next(i for i, (r, _) in enumerate(lat.conjugates) if r != i)
    conjugates = lat.conjugates.copy()
    conjugates[i, 1] = 0            # R itself, not the node i
    G._memo[("p_lattice", 2)] = dataclasses.replace(
        lat, conjugates=conjugates)
    with pytest.raises(TableConstructionFailed, match="not conjugate"):
        build_gamma_poset(G, 2, 0)


@pytest.mark.parametrize("text", ["A(6)", "S(6)", "D(4) x D(4)"])
def test_gamma_build_reads_representative_tables_only(monkeypatch, text):
    # neither the Gamma build nor a Clifford build below it asks for the
    # table of a node that is not its class's representative
    G = realize(text)
    lat = p_lattice(G, 2)
    moved = {lat.nodes[i].members
             for i, (r, _) in enumerate(lat.conjugates) if r != i}
    build = charposet.chartab.CharContext._build

    def refuse(self, T, members):
        if members in moved:
            raise AssertionError("a non-representative table was built")
        return build(self, T, members)

    monkeypatch.setattr(charposet.chartab.CharContext, "_build", refuse)
    gam = gamma_poset(G, 2, 0)
    assert gam.node_count > 0 and moved
    if text == "A(6)":
        assert gam.node_count == 615 and gam.partition.count == 1
        assert verify(G, 2, 0, "ThmA").status == "pass"


def test_verify_does_not_import_numpy_ma():
    # numpy.ma costs 12-14 ms to import; the 1-D np.unique imports it
    code = ("import sys\n"
            "from charposet.catalog import realize\n"
            "from charposet.gamma import verify\n"
            "assert verify(realize('A(6)'), 2, 0, 'ThmA').status == 'pass'\n"
            "assert verify(realize('S(4)'), 2, 0, 'ThmB').status == 'pass'\n"
            "assert verify(realize('E(2,4)'), 2, 0, 'ThmA').status == 'pass'\n"
            "print('numpy.ma' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(charposet.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# Test oracles that stay in src/ only because the benchmark's tracer wraps
# them by name, each with its defining module.
_SRC_ORACLES = (("charposet.gamma", "s_node_images"),
                ("charposet.gamma", "_generating_set"),
                ("charposet.poset", "action_on_components"),
                ("charposet.group", "all_subgroups"),
                ("charposet.group", "build_all_subgroups"))


def test_library_never_runs_its_oracles(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the library ran a test oracle")

    for module, name in _SRC_ORACLES:
        original = getattr(sys.modules[module], name)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name == "charposet" or mod_name.startswith("charposet."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, forbidden)
    assert charposet.gamma.s_node_images is forbidden
    assert charposet.all_subgroups is forbidden
    out = io.StringIO()
    assert run(["catalog-run"], out) == 0
    assert out.getvalue().splitlines()[-1] == \
        "pass: 337  fail: 0  inapplicable: 729"
    for text in ("PSL(2,11)", "PSL(2,8)", "A(6)"):
        G = realize(text)
        for p in (2, 3):
            assert verify(G, p, 0, "ThmA").status == "pass", (text, p)


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_structural_search_on_class_representatives_matches_all_nodes(text):
    # being abelian, the exponent and the number of elements of order <= p
    # are isomorphism invariants, so one node per class decides the search
    G = cached_group(text)
    for p in (2, 3):
        for e in (0, 1):
            assert _sylow_has_cc_or_elem_abelian(G, p, e) == \
                all_nodes_sylow_has_cc_or_elem_abelian(G, p, e), (p, e)


def test_structural_search_finds_both_answers():
    assert _sylow_has_cc_or_elem_abelian(cached_group("E(2,4)"), 2, 0)
    assert _sylow_has_cc_or_elem_abelian(cached_group("C(4) x C(4)"), 2, 1)
    assert not _sylow_has_cc_or_elem_abelian(cached_group("Q(8)"), 2, 0)
    assert not _sylow_has_cc_or_elem_abelian(cached_group("S(3)"), 3, 0)

"""Connected components and group actions on them."""
import io

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charposet.group
import util
from charposet.catalog import realize
from charposet.cli import run
from charposet.errors import ActionNotCompatible
from charposet.gamma import gamma_poset, s_poset
from charposet.poset import action_on_components, components
from util import (
    DIFFERENTIAL_GROUPS,
    cached_group,
    check_node_action,
    commuting_graph_components,
    element_component_action,
    element_node_images,
    s_component_action,
)


def test_components_trivial_cases():
    assert components(3, [(0, 1), (1, 2)]).count == 1
    assert components(0, []).count == 0
    part = components(5, [(0, 1), (2, 3)])
    assert part.count == 3
    assert sorted(part.component_sizes) == [1, 2, 2]


def test_component_numbering_is_canonical():
    part = components(6, [(4, 5), (1, 2)])
    # ids are assigned by minimum contained node
    assert part.component_of[0] == 0
    assert part.component_of[1] == part.component_of[2] == 1
    assert part.component_of[3] == 2
    assert part.component_of[4] == part.component_of[5] == 3
    assert part.component_sizes == (1, 2, 1, 2)


@given(st.integers(1, 40), st.data())
@settings(max_examples=60)
def test_components_against_networkx(n, data):
    edges = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=60))
    part = components(n, edges)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    oracle = list(nx.connected_components(g))
    assert part.count == len(oracle)
    for comp in oracle:
        ids = {part.component_of[v] for v in comp}
        assert len(ids) == 1


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_s_and_gamma_partitions_match_networkx(text):
    # the numpy components of every S and Gamma against networkx, in the
    # canonical numbering: components ordered by their least node
    G = cached_group(text)
    for p in (2, 3):
        for e in (0, 1):
            gam = gamma_poset(G, p, e)
            lat = gam.s
            for n, edges, part in (
                    (lat.node_count, lat.covers, gam.s.partition),
                    (gam.node_count, gam.edges, gam.partition)):
                g = nx.Graph()
                g.add_nodes_from(range(n))
                g.add_edges_from(edges.tolist())
                want = sorted(tuple(sorted(c))
                              for c in nx.connected_components(g))
                of = [0] * n
                for k, comp in enumerate(want):
                    for v in comp:
                        of[v] = k
                assert part.component_sizes == \
                    tuple(len(c) for c in want), (p, e)
                assert part.component_of.tolist() == of, (p, e)


def test_action_p_group_is_trivial():
    G = cached_group("D(4)")
    spos = s_poset(G, 2, 0)
    act = element_component_action(spos)
    assert s_component_action(spos) == act.orbit
    assert len(act.orbit) == 1
    assert act.stabilizer.order == G.order


def test_action_a5_orbit_and_stabilizer():
    spos = s_poset(cached_group("A(5)"), 2, 0)
    act = element_component_action(spos)
    assert s_component_action(spos) == act.orbit
    assert len(act.orbit) == 5
    assert act.stabilizer.order == 12


def test_action_sl23_orbit_and_stabilizer():
    spos = s_poset(cached_group("SL(2,3)"), 3, 0)
    act = element_component_action(spos)
    assert s_component_action(spos) == act.orbit
    assert len(act.orbit) == 4
    assert act.stabilizer.order == 6


def test_orbit_stabilizer_identity_across_catalog():
    for text, p in [("S(4)", 2), ("S(4)", 3), ("A(4)", 3), ("PSL(2,5)", 5),
                    ("SL(2,3)", 2), ("Q(16)", 2)]:
        G = cached_group(text)
        spos = s_poset(G, p, 0)
        check_node_action(G, element_node_images(spos), spos.covers)
        act = element_component_action(spos)
        assert len(act.orbit) * act.stabilizer.order == G.order


def test_incompatible_action_rejected():
    G = cached_group("C(2)")
    # the identity element must act as the identity map
    bad = [(1, 0), (0, 1)]
    with pytest.raises(ActionNotCompatible):
        check_node_action(G, bad, [])


def test_non_permutation_rejected():
    G = cached_group("C(2)")
    with pytest.raises(ActionNotCompatible, match="permute the nodes"):
        check_node_action(G, [(0, 0), (0, 0)], [])


def test_edge_breaking_action_rejected():
    G = cached_group("C(2)")
    # the involution maps the edge {0, 1} to {0, 2}, which is no edge
    with pytest.raises(ActionNotCompatible, match="preserve edges"):
        check_node_action(G, [(0, 1, 2), (0, 2, 1)], [(0, 1)])


def test_component_splitting_action_rejected():
    part = components(3, [(0, 1)])
    # the involution maps the component {0, 1} to {0, 2}, across two
    with pytest.raises(ActionNotCompatible, match="splits a component"):
        action_on_components(part, [(0, 2, 1)])


def test_non_homomorphic_action_rejected():
    G = cached_group("C(3)")
    # each row permutes, but a generator acting as an involution cannot
    # extend to an action of C(3): 1 * 1 = 2 should act as the identity
    with pytest.raises(ActionNotCompatible, match="multiplication"):
        check_node_action(G, [(0, 1), (1, 0), (1, 0)], [])


def test_node_images_of_the_wrong_shape_rejected():
    with pytest.raises(ActionNotCompatible, match="shape"):
        action_on_components(components(2, []), [(0, 1, 2)])
    with pytest.raises(ActionNotCompatible, match="shape"):
        action_on_components(components(2, []), [0, 1])


def test_orbit_is_closed_under_the_generators():
    # two generators, each a transposition of components: 0 -> 1 -> 2
    part = components(3, [])
    assert action_on_components(part, [(1, 0, 2), (0, 2, 1)]) == (0, 1, 2)
    assert action_on_components(part, [(1, 0, 2)], base_node=2) == (2,)


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_generator_orbit_matches_element_action(text):
    G = cached_group(text)
    for p in (2, 3):
        for e in (0, 1):
            spos = s_poset(G, p, e)
            if spos.node_count:
                assert s_component_action(spos) == \
                    element_component_action(spos).orbit, (p, e)


def _identity_rows(spos):
    return np.arange(spos.node_count, dtype=np.int32)[None, :]


def test_orbit_that_misses_a_sylow_component_is_rejected(monkeypatch):
    # with every generator acting trivially, the orbit of the base component
    # is itself, but A(5) has five Sylow 2-subgroups in five components
    monkeypatch.setattr(util, "s_node_images", _identity_rows)
    with pytest.raises(ActionNotCompatible, match="Sylow"):
        s_component_action(s_poset(realize("A(5)"), 2, 0))


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_orbit_length_is_the_sylow_component_count(text):
    # the orbit walk, the components holding a Sylow node (what ThmA
    # reads) and all of pi_0 S are one count, wherever S is nonempty
    G = cached_group(text)
    for p in (2, 3, 5, 7):
        for e in (0, 1):
            spos = s_poset(G, p, e)
            if spos.node_count:
                sylow = {spos.partition.component_of[i]
                         for i in spos.sylow_ids}
                assert len(s_component_action(spos)) == len(sylow) == \
                    spos.partition.count, (p, e)


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_commuting_graph_counts_the_components_of_s(text):
    # Quillen's A_p(G) and S_p(G) have the same components; the graph is
    # built from the elements of order p, without the lattice
    G = cached_group(text)
    for p in (2, 3, 5, 7):
        if G.order % p == 0:
            assert commuting_graph_components(G, p) == \
                s_poset(G, p, 0).partition.count, p


def _classes_split(G, nmask):
    # the transversal [1] makes every node its own conjugacy class
    return np.array([0])


def test_verify_reports_split_sylow_classes_as_one_error(monkeypatch,
                                                        capsys):
    monkeypatch.setattr(charposet.group, "_right_transversal", _classes_split)
    out = io.StringIO()
    assert run(["verify", "--theorem", "A", "--p", "2", "A(5)"], out) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert err.count("error:") == 1 and out.getvalue() == ""
    assert "LatticeConstructionFailed" in err and "Traceback" not in err
    assert "not one conjugacy class" in err

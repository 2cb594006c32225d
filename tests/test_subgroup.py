"""Subgroup tables read from the parent's, against an independent rebuild."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charposet.group as group_module
from charposet.catalog import realize
from charposet.errors import NotASubgroup
from charposet.gamma import gamma_poset, s_poset, verify
from charposet.group import (
    center,
    closure_members,
    enumerate_p_subgroups,
    make_subgroup,
    make_subgroups,
    normalizer,
    p_lattice,
    whole_group_subgroup,
)
from util import (
    DIFFERENTIAL_GROUPS,
    cached_group,
    catalog_up_to,
    check_node_action,
    element_component_action,
    element_node_images,
    induced_table,
)

SMALL_CATALOG = tuple(catalog_up_to(24))


def _assert_table_matches_oracle(H):
    want = induced_table(H.parent, H.members)
    got = H.local
    assert got.order == want.order == H.order
    for name in ("mul", "inv", "elem_order"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
        assert not a.flags.writeable, name


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_node_and_normalizer_tables_match_oracle(text):
    G = cached_group(text)
    for p in (2, 3):
        for H in enumerate_p_subgroups(G, p).nodes:
            _assert_table_matches_oracle(H)
            _assert_table_matches_oracle(normalizer(G, H))
    _assert_table_matches_oracle(center(G))


def test_e24_order_2_nodes_share_one_local_table():
    nodes = [H for H in p_lattice(cached_group("E(2,4)"), 2).nodes
             if H.order == 2]
    assert len(nodes) == 15
    assert len({id(H.local) for H in nodes}) == 1


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_nodes_share_a_local_table_exactly_when_their_mul_is_equal(text):
    G = cached_group(text)
    for p in (2, 3):
        muls_of, tables_of = {}, {}
        for H in p_lattice(G, p).nodes:
            mul = H.local.mul.tobytes()
            muls_of.setdefault(id(H.local), set()).add(mul)
            tables_of.setdefault(mul, set()).add(id(H.local))
        assert all(len(m) == 1 for m in muls_of.values()), p
        assert all(len(t) == 1 for t in tables_of.values()), p


@pytest.mark.parametrize("text", ["A(6)", "PSL(2,8)", "PSL(2,11)"])
@pytest.mark.parametrize("p", [2, 3])
def test_component_stabilizer_tables_match_oracle(text, p):
    spos = s_poset(cached_group(text), p, 0)
    check_node_action(spos.group, element_node_images(spos),
                      spos.lattice.covers)
    _assert_table_matches_oracle(element_component_action(spos).stabilizer)


@pytest.mark.parametrize("text", ["C(1)", "S(3)", "D(4)", "A(6)"])
def test_whole_group_subgroup_shares_the_parent_table(text):
    G = cached_group(text)
    W = whole_group_subgroup(G)
    assert W.local is G
    assert W.members == tuple(range(G.order))


def test_sylow_node_of_a_p_group_is_the_group_itself():
    G = cached_group("D(8)")
    lat = enumerate_p_subgroups(G, 2)
    assert lat.nodes[lat.sylow_ids[0]].local is G


@pytest.mark.parametrize("members", [[0, 7], [0, 4], [-1, 0]])
def test_members_outside_the_group_are_rejected(members):
    with pytest.raises(NotASubgroup):
        make_subgroup(realize("C(4)"), members)


@settings(max_examples=200, deadline=None)
@given(text=st.sampled_from(SMALL_CATALOG), data=st.data())
def test_make_subgroup_accepts_exactly_the_closed_subsets(text, data):
    G = cached_group(text)
    subset = {0} | data.draw(st.sets(st.integers(1, G.order - 1)))
    if data.draw(st.booleans()):        # reach the closed case often too
        subset = set(closure_members(G, subset))
    if tuple(sorted(subset)) == closure_members(G, subset):
        _assert_table_matches_oracle(make_subgroup(G, subset))
    else:
        with pytest.raises(NotASubgroup):
            make_subgroup(G, subset)


def test_no_subgroup_table_goes_through_table_from_mul():
    A6 = realize("A(6)")
    DD = realize("D(4) x D(4)")
    expected = gamma_poset(cached_group("D(4) x D(4)"), 2, 0).partition.count
    assert not hasattr(group_module, "table_from_mul")
    assert verify(A6, 2, 0, "ThmA").status == "pass"
    assert gamma_poset(DD, 2, 0).partition.count == expected


def test_batch_with_one_non_closed_row_is_rejected():
    G = cached_group("A(6)")
    involution = int(np.flatnonzero(G.elem_order == 2)[0])
    three = int(np.flatnonzero(G.elem_order == 3)[0])
    closed = [0, involution]
    assert len(make_subgroups(G, [closed])) == 1
    with pytest.raises(NotASubgroup, match="not closed"):
        make_subgroups(G, [closed, [0, three]])
    with pytest.raises(NotASubgroup, match="not closed"):
        make_subgroups(G, [[0, three], closed])


@pytest.mark.parametrize("text", ["A(6)", "D(4) x D(4)", "S(4)"])
def test_lattice_nodes_are_read_only_and_indexed_by_members(text):
    G = cached_group(text)
    for p in (2, 3):
        for H in enumerate_p_subgroups(G, p).nodes:
            assert not H.mask.flags.writeable
            assert np.flatnonzero(H.mask).tolist() == list(H.members)
            assert H.member_set == frozenset(H.members)
            for a in (H.local.mul, H.local.inv, H.local.elem_order):
                assert not a.flags.writeable
            with pytest.raises(ValueError):
                H.mask[0] = False


def test_lattice_makes_its_nodes_once_per_level(monkeypatch):
    calls = []
    batch = make_subgroups

    def counting(G, rows):
        calls.append(len(rows))
        return batch(G, rows)

    monkeypatch.setattr(group_module, "make_subgroups", counting)
    lat = p_lattice(realize("A(6)"), 2)
    assert sorted({H.order for H in lat.nodes}) == [2, 4, 8]
    assert len(calls) == 3
    assert sum(calls) == lat.node_count

"""Group tables, subgroups, and the p-subgroup lattice."""
import dataclasses
import os

import numpy as np
import pytest

from charposet.catalog import realize
from charposet.errors import (
    ClosureCapExceeded,
    InvalidPermutation,
    NoSuchSubgroups,
    NotAPGroup,
    NotASubgroup,
    PreconditionViolated,
)
from charposet.group import (
    all_subgroups,
    center,
    common_intersection_of_order,
    conjugate_subgroup,
    direct_table_product,
    enumerate_p_subgroups,
    frattini_of_p_group,
    group_from_generators,
    make_subgroup,
    normalizer,
    omega1,
    order_cap,
    prime_power,
    subgroup_closure,
    validate_group_table,
    whole_group_subgroup,
)
from util import brute_force_subgroups, cached_group


def test_cyclic_table_basics():
    G = cached_group("C(6)")
    validate_group_table(G)
    assert G.order == 6
    assert G.is_abelian()
    assert G.exponent() == 6
    assert sorted(int(o) for o in G.elem_order) == [1, 2, 3, 3, 6, 6]


def test_identity_is_element_zero():
    for text in ["C(5)", "D(6)", "Q(8)", "S(4)"]:
        G = cached_group(text)
        assert (G.mul[0] == np.arange(G.order)).all()
        assert (G.mul[:, 0] == np.arange(G.order)).all()


def test_bad_generator_rejected():
    with pytest.raises(InvalidPermutation):
        group_from_generators(3, [(0, 0, 1)])


def test_closure_cap():
    cyc = tuple(list(range(1, 30)) + [0])
    with pytest.raises(ClosureCapExceeded):
        group_from_generators(30, [cyc], cap=10)


def test_order_cap_env_override(monkeypatch):
    monkeypatch.setenv("CHARPOSET_ORDER_CAP", "64")
    assert order_cap() == 64
    monkeypatch.delenv("CHARPOSET_ORDER_CAP")
    assert order_cap() == 1024
    for raw in ("abc", "0", ""):
        monkeypatch.setenv("CHARPOSET_ORDER_CAP", raw)
        with pytest.raises(ValueError, match="positive integer"):
            order_cap()


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(81) == (3, 4)
    assert prime_power(7) == (7, 1)
    assert prime_power(2) == (2, 1)
    for n in (0, 1, 6, 12, 100):
        assert prime_power(n) is None


def test_memo_is_per_table_and_not_copied_by_replace():
    G = realize("C(6)")
    builds = []

    def build():
        builds.append(1)
        return len(builds)

    assert G.memo("k", build) == 1
    assert G.memo("k", build) == 1
    H = dataclasses.replace(G, label="renamed")
    assert H.memo("k", build) == 2
    assert all_subgroups(G)[0].parent is G
    assert all_subgroups(H)[0].parent is H


def test_subgroup_closure_and_membership():
    G = cached_group("S(4)")
    H = subgroup_closure(G, [1])       # some nontrivial element
    assert G.order % H.order == 0
    assert 0 in H.member_set
    # local table is itself a valid group
    validate_group_table(H.local)


def test_make_subgroup_rejects_non_closed():
    G = cached_group("C(6)")
    # an order-2 element together with identity only is closed; adding an
    # order-6 element without its powers is not
    gen6 = int(np.flatnonzero(G.elem_order == 6)[0])
    gen2 = int(np.flatnonzero(G.elem_order == 2)[0])
    with pytest.raises(NotASubgroup):
        make_subgroup(G, (0, gen2, gen6))


def test_conjugate_and_normalizer():
    G = cached_group("S(3)")
    transposition = int(np.flatnonzero(G.elem_order == 2)[0])
    H = subgroup_closure(G, [transposition])
    conjs = {conjugate_subgroup(G, H, g).members for g in range(G.order)}
    assert len(conjs) == 3             # three reflections
    N = normalizer(G, H)
    assert N.order == 2                # self-normalizing order-2 subgroup
    # the order-3 rotation subgroup is normal
    rot = int(np.flatnonzero(G.elem_order == 3)[0])
    K = subgroup_closure(G, [rot])
    assert normalizer(G, K).order == 6


def test_center_and_omega1():
    Q8 = cached_group("Q(8)")
    Z = center(Q8)
    assert Z.order == 2
    om = omega1(whole_group_subgroup(Q8), 2)
    assert om.members == Z.members     # unique involution
    D4 = cached_group("D(4)")
    assert center(D4).order == 2
    assert omega1(whole_group_subgroup(D4), 2).order == 8


def test_frattini_two_ways():
    for text, expected in [("Q(8)", 2), ("D(4)", 2), ("C(8)", 4),
                           ("X(3,+)", 3), ("E(2,3)", 1), ("C(16)", 8)]:
        G = cached_group(text)
        p = 2 if G.order % 2 == 0 else 3
        # frattini_of_p_group cross-checks the maximal-intersection and
        # commutator/power constructions internally
        phi = frattini_of_p_group(whole_group_subgroup(G), p)
        assert phi.order == expected, text


@pytest.mark.parametrize("text,p", [
    ("C(8)", 2), ("D(4)", 2), ("Q(8)", 2), ("E(2,3)", 2),
    ("C(16)", 2), ("D(8)", 2), ("Q(16)", 2), ("SD(16)", 2), ("M(2,4)", 2),
    ("C(4) x C(4)", 2), ("E(3,2)", 3), ("S(4)", 2), ("A(4)", 2), ("A(4)", 3),
    ("S(3)", 3), ("C(9)", 3),
])
def test_p_subgroup_lattice_against_brute_force(text, p):
    G = cached_group(text)
    if G.order <= 16:
        oracle = {
            m for m in brute_force_subgroups(G)
            if len(m) > 1 and _is_power(len(m), p)
        }
        lat = enumerate_p_subgroups(G, p)
        assert {sub.members for sub in lat.nodes} == oracle
    else:
        lat = enumerate_p_subgroups(G, p)
    # covers really are index-p inclusions
    for i, j in lat.covers:
        H, K = lat.nodes[i], lat.nodes[j]
        assert K.order == p * H.order
        assert H.member_set <= K.member_set
    # every non-Sylow node has at least one cover upward
    tops = set(lat.sylow_ids)
    for i, sub in enumerate(lat.nodes):
        if i not in tops:
            assert any(a == i for a, _ in lat.covers)


def _is_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def test_lattice_levels_filtered_by_e():
    G = cached_group("Q(16)")
    lat0 = enumerate_p_subgroups(G, 2, e=0)
    lat1 = enumerate_p_subgroups(G, 2, e=1)
    assert {s.order for s in lat0.nodes} == {2, 4, 8, 16}
    assert {s.order for s in lat1.nodes} == {4, 8, 16}
    assert len(lat1.nodes) < len(lat0.nodes)


def test_lattice_rejects_bad_parameters():
    G = cached_group("C(6)")
    with pytest.raises(PreconditionViolated):
        enumerate_p_subgroups(G, 4)
    with pytest.raises(PreconditionViolated):
        enumerate_p_subgroups(G, 2, e=-1)


def test_common_intersection_of_order():
    assert common_intersection_of_order(cached_group("C(8)"), 2, 2).order == 4
    assert common_intersection_of_order(cached_group("Q(8)"), 2, 2).order == 2
    assert common_intersection_of_order(cached_group("E(2,3)"), 2, 2).order == 1
    with pytest.raises(NoSuchSubgroups):
        common_intersection_of_order(cached_group("S(3)"), 2, 2)


def test_all_subgroups_counts():
    # subgroup counts of standard small groups
    assert len(all_subgroups(cached_group("S(3)"))) == 6
    assert len(all_subgroups(cached_group("Q(8)"))) == 6
    assert len(all_subgroups(cached_group("D(4)"))) == 10
    assert len(all_subgroups(cached_group("A(4)"))) == 10
    assert len(all_subgroups(cached_group("S(4)"))) == 30


def test_direct_product_metadata():
    A = cached_group("C(4)")
    B = cached_group("C(2)")
    G = direct_table_product(A, B)
    validate_group_table(G)
    assert G.order == 8
    assert G.exponent() == 4
    assert len(G.direct_factors) == 2
    orders = sorted(len(f) for f in G.direct_factors)
    assert orders == [2, 4]
    # each recorded factor is an embedded subgroup
    for mem in G.direct_factors:
        make_subgroup(G, mem)


def test_omega1_requires_p_group():
    G = cached_group("S(3)")
    with pytest.raises(NotAPGroup):
        omega1(whole_group_subgroup(G), 2)

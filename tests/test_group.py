"""Group tables, subgroups, and the p-subgroup lattice."""
import dataclasses
import hashlib
import os
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import charposet.group as group_module
from charposet.catalog import realize
from charposet.errors import (
    ClosureCapExceeded,
    InvalidPermutation,
    LatticeConstructionFailed,
    NoSuchSubgroups,
    NotAPGroup,
    NotASubgroup,
    PreconditionViolated,
)
from charposet.gamma import s_poset
from charposet.group import (
    _index_p_overgroups,
    _normalizer_mask,
    _right_transversal,
    all_subgroups,
    center,
    closure_members,
    closure_of_permutations,
    common_intersection_of_order,
    direct_table_product,
    enumerate_p_subgroups,
    frattini_of_p_group,
    group_from_generators,
    is_p_power,
    is_prime,
    make_subgroup,
    normalizer,
    omega1,
    order_cap,
    p_lattice,
    p_valuation,
    prime_power,
    subgroup_closure,
    whole_group_subgroup,
)
from util import (
    DIFFERENTIAL_GROUPS,
    batched_overgroups,
    brute_force_subgroups,
    cached_group,
    catalog_up_to,
    composition_closure,
    conjugate_subgroup,
    conjugated_node_images,
    conjugation_orbits,
    element_node_images,
    fixed_point_closure_members,
    intersection_of_level,
    iterated_elem_orders,
    kron_direct_product,
    levelled_p_subgroups,
    looped_overgroups,
    looped_right_transversal,
    scanned_inverses,
    scanned_p_lattice,
    table_from_mul,
    validate_group_table,
)


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


def _realization_closures(monkeypatch, text):
    """(degree, gens) of every permutation closure realize(text) makes."""
    calls = []
    fill = closure_of_permutations

    def recording(degree, gens, label="G", cap=None):
        calls.append((degree, gens))
        return fill(degree, gens, label=label, cap=cap)

    monkeypatch.setattr(group_module, "closure_of_permutations", recording)
    monkeypatch.setattr("charposet.catalog.closure_of_permutations",
                        recording)
    G = realize(text)
    monkeypatch.undo()
    return G, calls


@pytest.mark.parametrize("text", ["PSL(2,7)", "A(6)"])
def test_closure_cap_boundary(monkeypatch, text):
    G, calls = _realization_closures(monkeypatch, text)
    (degree, gens), = calls
    H, _ = closure_of_permutations(degree, gens, cap=G.order)
    assert np.array_equal(H.mul, G.mul)
    with pytest.raises(ClosureCapExceeded, match=f"exceeds cap {G.order - 1}"):
        closure_of_permutations(degree, gens, cap=G.order - 1)


@pytest.mark.parametrize("text", ["S(4)", "A(6)", "PSL(2,11)", "M(2,4)"])
def test_generator_index_is_the_generator_word(monkeypatch, text):
    _, calls = _realization_closures(monkeypatch, text)
    for degree, gens in calls:
        G, index = closure_of_permutations(degree, gens)
        assert set(index) == {tuple(g) for g in gens}
        for sym, g in zip("abcdefghijklmnopqrstuvwxyz", gens):
            assert G.words[index[tuple(g)]] == sym


@pytest.mark.parametrize("text, parts", [
    ("sd[8: (1 2 3 4), (2 4)(5 6 7 8); (1 2 3 4); (2 4)(5 6 7 8)]",
     ((0, 1, 3, 7), (0, 2, 6, 11))),
    # the complement's generator is not among G's: a third generator c
    ("sd[3: (1 2 3), (1 2); (1 2 3); (2 3)]", ((0, 1, 4), (0, 3))),
])
def test_semidirect_realization_keeps_its_parts(text, parts):
    G = realize(text)
    assert G.semidirect_parts == parts


def test_closure_lagrange_exit_on_psl_2_11():
    G = cached_group("PSL(2,11)")
    # the realization's generators a and b give G
    seed = [G.words.index("a"), G.words.index("b")]
    assert closure_members(G, seed) == tuple(range(G.order))
    assert closure_members(G, seed) == fixed_point_closure_members(G, seed)
    # a Borel subgroup: the normalizer of a Sylow 11-subgroup, order 55
    x = int(np.flatnonzero(G.elem_order == 11)[0])
    B = normalizer(G, subgroup_closure(G, [x]))
    assert B.order == 55
    y = next(m for m in B.members if G.elem_order[m] == 5)
    for seed in ([x, y], [y], list(B.members[:30])):
        got = closure_members(G, seed)
        assert got == fixed_point_closure_members(G, seed)
        assert set(got) <= set(B.members)
    assert closure_members(G, [x, y]) == B.members


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
    assert 0 in H.members
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
        assert set(H.members) <= set(K.members)
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


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_lattice_suffixes_match_pairwise_scan_oracle(text):
    # S_{p,e} for every e up to the empty suffix past the Sylow order, and
    # I and Phi read from the lattice, against the per-e enumeration with
    # covers found by comparing every pair of nodes
    G = cached_group(text)
    for p in (2, 3):
        if G.order % p:
            continue
        levels = levelled_p_subgroups(G, p)
        n = p_valuation(G.order, p)
        for e in range(n + 2):
            lat = enumerate_p_subgroups(G, p, e)
            old = scanned_p_lattice(G, p, e, levels)
            assert [s.members for s in lat.nodes] == \
                [s.members for s in old.nodes], (p, e)
            assert np.array_equal(lat.covers, old.covers), (p, e)
            assert lat.sylow_ids == old.sylow_ids, (p, e)
            assert lat.node_index == old.node_index, (p, e)
        assert lat.nodes == () and lat.sylow_ids == ()
        for k in range(1, n + 1):
            assert common_intersection_of_order(G, p, k).members == \
                intersection_of_level(levels, k), (p, k)
        if is_p_power(G.order, p):
            phi = frattini_of_p_group(whole_group_subgroup(G), p)
            assert phi.members == (
                intersection_of_level(levels, n - 1) if n > 1 else (0,))


def test_one_lattice_build_per_group_and_prime(monkeypatch):
    built = []
    build = group_module._build_p_lattice
    monkeypatch.setattr(group_module, "_build_p_lattice",
                        lambda G, p: built.append(p) or build(G, p))
    G = realize("D(4)")
    s_poset(G, 2, 0)
    s_poset(G, 2, 1)
    common_intersection_of_order(G, 2, 2)
    frattini_of_p_group(whole_group_subgroup(G), 2)
    assert built == [2]


def test_extension_step_finds_each_overgroup_once():
    G = cached_group("S(4)")
    lat = enumerate_p_subgroups(G, 2)
    for i, H in enumerate(lat.nodes):
        found = [m for m, _ in batched_overgroups(G, 2, [H])[0]]
        assert len(found) == len(set(found))
        assert sorted(lat.node_index[m] for m in found) == \
            [j for a, j in lat.covers if a == i]


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_lattice_classes_match_conjugation_oracle(text):
    # conjugates[i] = (r, g): nodes[r]^g = nodes[i] with r the least node of
    # the class, and the classes are the orbits of G acting by conjugation
    G = cached_group(text)
    for p in (2, 3):
        for e in (0, 1):
            lat = enumerate_p_subgroups(G, p, e)
            orbit_of = conjugation_orbits(lat)
            assert len(lat.conjugates) == lat.node_count
            for i, (r, g) in enumerate(lat.conjugates):
                image = tuple(sorted(G.conj_set(lat.nodes[r].members, g)
                                     .tolist()))
                assert image == lat.nodes[i].members, (p, e, i)
                assert r == min(orbit_of[i]), (p, e, i)
                assert {j for j, (s, _) in enumerate(lat.conjugates)
                        if s == r} == orbit_of[i], (p, e, i)


@pytest.mark.parametrize("text,p,calls", [
    ("A(6)", 2, 5), ("S(6)", 2, 18), ("E(2,4)", 2, 66)])
def test_one_extension_step_per_conjugacy_class(monkeypatch, text, p, calls):
    seen = []
    extend = group_module._index_p_overgroups
    monkeypatch.setattr(group_module, "_index_p_overgroups",
                        lambda G, p, hmasks, nmasks, xp:
                        seen.extend(tuple(np.flatnonzero(m).tolist())
                                    for m in hmasks)
                        or extend(G, p, hmasks, nmasks, xp))
    lat = group_module._build_p_lattice(realize(text), p)
    assert len(seen) == calls
    assert sorted(lat.node_index[m] for m in seen) == \
        sorted({r for r, _ in lat.conjugates})


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_batched_extension_matches_element_loop(text):
    # every node, normal in G or not, a whole level per batch: the same
    # overgroups, each with its least x, in the same order as the loop
    G = cached_group(text)
    for p in (2, 3):
        lat = enumerate_p_subgroups(G, p)
        for order in sorted({H.order for H in lat.nodes}):
            level = [H for H in lat.nodes if H.order == order]
            assert batched_overgroups(G, p, level) == [
                looped_overgroups(G, H.members, H.members, p)
                for H in level], (p, order)


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
@pytest.mark.parametrize("p", [2, 3])
def test_right_transversal_matches_argmin_loop(text, p):
    # the normalizer of every class representative, and N = G itself
    G = cached_group(text)
    lat = p_lattice(G, p)
    nmasks = [np.ones(G.order, dtype=bool)] + [
        _normalizer_mask(G, H.members, H.mask)
        for i, (H, (r, _)) in enumerate(zip(lat.nodes, lat.conjugates))
        if r == i]
    for nmask in nmasks:
        T = _right_transversal(G, nmask)
        assert T.tolist() == looped_right_transversal(G, nmask).tolist()
        assert T.size * nmask.sum() == G.order


@pytest.mark.parametrize("text", ["D(4)", "Q(8)", "X(3,+)", "X(3,-)"])
def test_frattini_is_the_lattice_node(text):
    # L4.3 reads Phi(G)'s table; the lattice node carries the cached one
    G = realize(text)
    p = prime_power(G.order)[0]
    phi = frattini_of_p_group(whole_group_subgroup(G), p)
    lat = enumerate_p_subgroups(G, p)
    assert phi is lat.nodes[lat.node_index[phi.members]]


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


_PRODUCTS = tuple(t for t in DIFFERENTIAL_GROUPS if " x " in t) + (
    "E(2,5)", "E(3,3)", "D(4) x D(4)", "C(6) x S(3)", "Q(8) x C(2) x C(3)")


@pytest.mark.parametrize("text", _PRODUCTS)
def test_direct_product_matches_kron_oracle(text):
    # E(p,k) and A x B x C are realized as iterated products: each step is
    # checked against the Kronecker-product table and its |G|^2 scans
    if text.startswith("E("):
        p, k = map(int, text[2:-1].split(","))
        factors = [cached_group(f"C({p})")] * k
    else:
        factors = [cached_group(f) for f in text.split(" x ")]
    G = oracle = factors[0]
    for B in factors[1:]:
        G, oracle = direct_table_product(G, B), kron_direct_product(oracle, B)
        for name in ("mul", "inv", "elem_order"):
            got, want = getattr(G, name), getattr(oracle, name)
            assert got.dtype == want.dtype and (got == want).all()
            assert not got.flags.writeable
        assert G.words == oracle.words
        assert G.direct_factors == oracle.direct_factors
    realized = realize(text)
    assert (realized.mul == G.mul).all() and realized.words == G.words
    assert realized.direct_factors == G.direct_factors
    _assert_inverses_and_orders_match_oracles(realized)


def test_omega1_requires_p_group():
    G = cached_group("S(3)")
    with pytest.raises(NotAPGroup):
        omega1(whole_group_subgroup(G), 2)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(catalog_up_to(60)), st.data())
def test_frontier_closure_matches_fixed_point(text, data):
    G = cached_group(text)
    seed = data.draw(st.lists(st.integers(0, G.order - 1), max_size=4))
    assert closure_members(G, seed) == fixed_point_closure_members(G, seed)


def test_is_prime_matches_trial_division():
    for n in range(10 ** 5):
        trial = n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
        assert is_prime(n) == trial, n


def test_is_prime_large_values():
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime((2 ** 31 - 1) * (10 ** 9 + 7))
    # composites that pass Miller-Rabin to every prime base up to 31 and 37
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    with pytest.raises(PreconditionViolated):
        is_prime(2 ** 89 - 1)


def _assert_table_matches_oracles(G, degree, gens, cap):
    mul, words = composition_closure(degree, gens, cap)
    assert G.mul.dtype == mul.dtype and (G.mul == mul).all()
    assert G.words == words


def _assert_inverses_and_orders_match_oracles(G):
    inv = scanned_inverses(G.mul)
    assert G.inv.dtype == inv.dtype and (G.inv == inv).all()
    orders = iterated_elem_orders(G.mul)
    assert G.elem_order.dtype == orders.dtype
    assert (G.elem_order == orders).all()


@pytest.mark.parametrize("text", DIFFERENTIAL_GROUPS)
def test_generator_fill_matches_composition_oracle(monkeypatch, text):
    # every permutation closure the realization makes, products' factors too
    closures = []
    fill = closure_of_permutations

    def recording(degree, gens, label="G", cap=None):
        table, index = fill(degree, gens, label=label, cap=cap)
        closures.append((table, degree, gens, cap or order_cap()))
        return table, index

    monkeypatch.setattr("charposet.group.closure_of_permutations", recording)
    monkeypatch.setattr("charposet.catalog.closure_of_permutations",
                        recording)
    G = realize(text)
    assert closures
    for table, degree, gens, cap in closures:
        _assert_table_matches_oracles(table, degree, gens, cap)
    _assert_inverses_and_orders_match_oracles(G)


def test_frontier_group_realizes_from_its_permutations(monkeypatch):
    # PSL(2,23): the row fill and the inverted permutations give a table
    # the |G|^2 scans agree with, and no raw-table scan runs
    monkeypatch.setenv("CHARPOSET_ORDER_CAP", "6072")
    assert not hasattr(group_module, "table_from_mul")
    G = realize("PSL(2,23)")
    assert G.order == 6072
    # pinned: any change to the numbering or to one product shows here
    table = np.ascontiguousarray(G.mul, dtype="<i4")
    assert hashlib.sha1(table).hexdigest() == \
        "1ad982c0416024d5cece304c96f1c13df8106df0"
    _assert_inverses_and_orders_match_oracles(G)
    x, y, z = np.random.default_rng(23).integers(G.order, size=(3, 10_000))
    assert (G.mul[G.mul[x, y], z] == G.mul[x, G.mul[y, z]]).all()


@pytest.mark.parametrize("text", [
    "perm[6: (1 2 3 4 5 6), (1 2)]", "S(4)", "PSL(2,7)",
    "sd[8: (1 2 3 4), (2 4)(5 6 7 8); (1 2 3 4); (2 4)(5 6 7 8)]",
])
def test_permutation_closure_never_calls_table_from_mul(text):
    expected = cached_group(text)
    assert not hasattr(group_module, "table_from_mul")
    G = realize(text)
    assert np.array_equal(G.mul, expected.mul)


@st.composite
def _permutation_generators(draw):
    degree = draw(st.integers(1, 7))
    gens = draw(st.lists(st.permutations(range(degree)), max_size=3))
    return degree, gens


@settings(max_examples=60, deadline=None)
@given(_permutation_generators())
def test_generator_fill_matches_oracles_on_random_generators(case):
    degree, gens = case
    cap = 200
    try:
        composition_closure(degree, gens, cap)
    except ClosureCapExceeded:
        with pytest.raises(ClosureCapExceeded):
            closure_of_permutations(degree, gens, cap=cap)
        return
    G, _ = closure_of_permutations(degree, gens, cap=cap)
    _assert_table_matches_oracles(G, degree, gens, cap)
    _assert_inverses_and_orders_match_oracles(G)
    for p in (2, 3):
        spos = s_poset(G, p, 0)
        img = element_node_images(spos)
        assert img.shape == (G.order, spos.node_count)
        assert img.tolist() == [list(t) for t in conjugated_node_images(spos)]


@pytest.mark.parametrize("mul", [
    [[0, 1, 2], [1, 0, 0], [2, 1, 0]],      # four identities in three rows
    [[0, 1, 2], [1, 0, 0], [2, 2, 1]],      # three, but none in the last row
])
def test_table_from_mul_rejects_rows_without_one_inverse(mul):
    with pytest.raises(ValueError, match="rows must be permutations"):
        table_from_mul(mul)


def test_table_from_mul_rejects_an_element_of_no_finite_order():
    # rows permute and one identity per row, but 1 -> 1*1 = 2 -> 2*1 = 1
    # never reaches the identity: a square that is no group
    with pytest.raises(ValueError, match="no power equal to the identity"):
        table_from_mul([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


def test_coset_union_of_wrong_size_is_typed():
    # pretend the involution of C(2) is a 3-element with trivial cube
    with pytest.raises(LatticeConstructionFailed, match="coset union"):
        _index_p_overgroups(cached_group("C(2)"), 3,
                            np.array([[True, False]]),
                            np.ones((1, 2), dtype=bool),
                            np.zeros(2, dtype=np.int32))


def test_missed_sylow_level_is_typed(monkeypatch):
    # no extension step finds anything: the lattice stops at order p
    monkeypatch.setattr(group_module, "_index_p_overgroups",
                        lambda G, p, hmasks, nmasks, xp:
                        (np.zeros(0, dtype=np.int64),) * 3)
    with pytest.raises(LatticeConstructionFailed, match="Sylow level"):
        enumerate_p_subgroups(realize("C(4)"), 2)


def test_frattini_disagreement_is_typed(monkeypatch):
    monkeypatch.setattr(group_module, "closure_members", lambda G, seed: (0,))
    with pytest.raises(LatticeConstructionFailed, match="Frattini"):
        frattini_of_p_group(whole_group_subgroup(realize("C(4)")), 2)

"""Exact modular character tables: construction, orthogonality, functoriality."""
import dataclasses
import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charposet import chartab, modlinalg
from charposet.catalog import catalog_roster, realize
from charposet.chartab import (
    CharContext,
    Character,
    abelian_rows,
    check_row_orthogonality,
    classes_by_conjugation,
    conjugacy_classes,
    decompose_restriction,
    dixon_modulus,
    dixon_rows,
    induce,
    inner_product,
    irr_table,
    restrict_values,
)
from charposet.errors import (
    NotASemidirectDecomposition,
    PreconditionViolated,
    TableConstructionFailed,
)
from charposet.gamma import build_gamma_poset, s_poset
from charposet.group import (
    all_subgroups,
    is_prime,
    make_subgroup,
    p_lattice,
    subgroup_closure,
    validate_semidirect,
)
from charposet.modlinalg import roots_in_field
from util import (
    cached_group,
    check_column_orthogonality,
    complex_character_values,
    conjugated_table,
    direct_product_char,
    interpolated_charpoly,
    lift_through_complement,
    regular_character,
    validate_direct_product,
)


def _ctx(text):
    return CharContext(cached_group(text))


def test_dixon_modulus_properties():
    for text in ["C(2)", "S(3)", "Q(8)", "A(4)", "SL(2,3)", "A(5)"]:
        G = cached_group(text)
        q = dixon_modulus(G)
        e = G.exponent()
        assert q > G.order ** 2
        assert (q - 1) % e == 0
        # minimality: no smaller prime with both properties
        for smaller in range(e + 1, q, e):
            if smaller > G.order ** 2:
                assert any(smaller % d == 0
                           for d in range(2, int(smaller ** 0.5) + 1))


def test_s3_table_values():
    ctx = _ctx("S(3)")
    t = ctx.table()
    assert ctx.q == 37
    assert [int(s) for s in t.classes.sizes] == [1, 3, 2]
    assert sorted(c.degree for c in t.chars) == [1, 1, 2]
    # the degree-2 character: 2 on identity, 0 on transpositions, -1 on
    # 3-cycles (as residues mod q)
    chi = next(c for c in t.chars if c.degree == 2)
    assert list(chi.values) == [2, 0, ctx.q - 1]


def test_conjugacy_class_order_is_deterministic():
    G = cached_group("Q(8)")
    cls = conjugacy_classes(G)
    assert cls.reps[0] == 0
    assert list(cls.reps) == sorted(cls.reps)
    assert int(cls.sizes.sum()) == G.order


@pytest.mark.parametrize("text", [
    "C(4)", "E(2,2)", "D(4)", "Q(8)", "C(8)", "S(3)", "A(4)", "S(4)",
    "SL(2,3)", "X(3,+)", "X(3,-)", "M(2,4)", "SD(16)", "A(5)", "PSL(2,7)",
])
def test_orthogonality_and_degree_sum(text):
    ctx = _ctx(text)
    t = ctx.table()
    assert check_row_orthogonality(t)
    assert check_column_orthogonality(t)
    assert sum(c.degree ** 2 for c in t.chars) == t.group.order
    assert all(t.group.order % c.degree == 0 for c in t.chars)
    assert t.count == t.classes.count


def test_canonical_character_order():
    t = _ctx("Q(8)").table()
    degrees = [c.degree for c in t.chars]
    assert degrees == sorted(degrees)
    assert all(v == 1 for v in t.chars[0].values)   # principal char first


def test_regular_character_decomposition():
    ctx = _ctx("S(4)")
    t = ctx.table()
    reg = regular_character(t)
    for chi in t.chars:
        assert inner_product(t, reg, chi.values) == chi.degree


def test_restriction_s3_to_c3():
    ctx = _ctx("S(3)")
    G = ctx.group
    rot = int(np.flatnonzero(G.elem_order == 3)[0])
    H = subgroup_closure(G, [rot])
    whole = ctx.whole()
    chi = next(c for c in ctx.table().chars if c.degree == 2)
    mults = decompose_restriction(ctx, whole, chi, H)
    assert sorted(mults) == [0, 1, 1]


def test_frobenius_reciprocity_all_pairs():
    for text in ["S(3)", "D(4)", "Q(8)", "A(4)", "SL(2,3)", "C(4) x C(2)"]:
        G = cached_group(text)
        ctx = CharContext(G)
        whole = ctx.whole()
        tG = ctx.table()
        for H in all_subgroups(G):
            if H.order in (1, G.order):
                continue
            tH = ctx.table(H)
            for theta in tH.chars:
                ind = induce(ctx, H, theta)
                for i, chi in enumerate(tG.chars):
                    down = decompose_restriction(ctx, whole, chi, H)
                    assert ind.decomposition[i] == \
                        down[tH.chars.index(theta)]


def test_induction_degree():
    G = cached_group("A(4)")
    ctx = CharContext(G)
    V = next(H for H in all_subgroups(G) if H.order == 4)
    for theta in ctx.table(V).chars:
        ind = induce(ctx, V, theta)
        assert ind.degree == theta.degree * (G.order // V.order)
        assert sum(m * c.degree for m, c in zip(ind.decomposition,
                                                ctx.table().chars)) == \
            ind.degree


def test_restriction_transitivity():
    G = cached_group("Q(16)")
    ctx = CharContext(G)
    whole = ctx.whole()
    subs = all_subgroups(G)
    for K in subs:
        if K.order in (1, G.order):
            continue
        for H in subs:
            if H.order == 1 or not (set(H.members) < set(K.members)):
                continue
            for chi in ctx.table().chars:
                via_k = restrict_values(ctx, whole, chi, K)

                class _Psi:
                    values = tuple(int(v) for v in via_k)
                    degree = chi.degree
                direct = restrict_values(ctx, whole, chi, H)
                stepped = restrict_values(ctx, K, _Psi, H)
                assert (direct == stepped).all()


def test_direct_product_characters():
    G = cached_group("C(4) x C(2)")
    ctx = CharContext(G)
    A = make_subgroup(G, G.direct_factors[0])
    B = make_subgroup(G, G.direct_factors[1])
    dp = validate_direct_product(G, A, B)
    tG = ctx.table()
    seen = set()
    for phi in ctx.table(A).chars:
        for psi in ctx.table(B).chars:
            chi = direct_product_char(ctx, dp, phi, psi)
            assert chi.degree == phi.degree * psi.degree
            seen.add(tG.chars.index(chi))
    assert len(seen) == tG.count       # every irreducible arises once


def test_semidirect_lift():
    G = cached_group(
        "sd[8: (1 2 3 4), (2 4)(5 6 7 8); (1 2 3 4); (2 4)(5 6 7 8)]")
    ctx = CharContext(G)
    H = make_subgroup(G, G.semidirect_parts[0])
    K = make_subgroup(G, G.semidirect_parts[1])
    validate_semidirect(G, H, K)
    tK = ctx.table(K)
    for phi in tK.chars:
        lifted = lift_through_complement(ctx, H, K, phi)
        back = decompose_restriction(ctx, ctx.whole(), lifted, K)
        assert back[tK.chars.index(phi)] == 1
        down_h = restrict_values(ctx, ctx.whole(), lifted, H)
        assert int(down_h[0]) == phi.degree
        assert (down_h == phi.degree).all()   # trivial on the normal part


def test_semidirect_validation_rejects_non_normal():
    G = cached_group("S(3)")
    refl = int(np.flatnonzero(G.elem_order == 2)[0])
    rot = int(np.flatnonzero(G.elem_order == 3)[0])
    H = subgroup_closure(G, [refl])     # not normal
    K = subgroup_closure(G, [rot])
    with pytest.raises(NotASemidirectDecomposition):
        validate_semidirect(G, H, K)


def _wrong_parent():
    G = cached_group("S(3)")
    other = realize("S(3)")
    rot = int(np.flatnonzero(other.elem_order == 3)[0])
    refl = int(np.flatnonzero(G.elem_order == 2)[0])
    return G, subgroup_closure(other, [rot]), subgroup_closure(G, [refl])


def _wrong_orders():
    G = cached_group("S(3)")
    rot = int(np.flatnonzero(G.elem_order == 3)[0])
    return G, subgroup_closure(G, [rot]), subgroup_closure(G, [])


def _meeting_parts():
    G = cached_group("C(4)")
    H = subgroup_closure(G, [int(np.flatnonzero(G.elem_order == 2)[0])])
    return G, H, H


@pytest.mark.parametrize("parts, branch", [
    (_wrong_parent, "different group"),
    (_wrong_orders, "|H||K| != |G|"),
    (_meeting_parts, "intersect nontrivially"),
])
def test_semidirect_validation_rejects(parts, branch):
    G, H, K = parts()
    with pytest.raises(NotASemidirectDecomposition, match=re.escape(branch)):
        validate_semidirect(G, H, K)


def test_shared_modulus_across_subgroups():
    G = cached_group("Q(8)")
    ctx = CharContext(G)
    q = ctx.q
    for H in all_subgroups(G):
        if H.order > 1:
            assert ctx.table(H).q == q


def test_complex_lift_is_consistent():
    ctx = _ctx("C(4)")
    t = ctx.table()
    vals = complex_character_values(t)
    # column 0 carries the degrees; all values are roots of unity scaled sums
    for row, chi in zip(vals, t.chars):
        assert abs(row[0] - chi.degree) < 1e-9
        assert all(abs(abs(v) - 1) < 1e-9 for v in row[1:] if chi.degree == 1)


# --- the abelian path against Dixon's eigenvector splitting ---------------

def _rows(table):
    return [(c.degree, c.values) for c in table.chars]


def _assert_fast_rows_equal_dixon(G, table):
    """Irr of an abelian G: the table's rows equal the sorted Dixon rows."""
    assert G.is_abelian()
    dixon = sorted(dixon_rows(G, conjugacy_classes(G), table.q))
    assert sorted(abelian_rows(G, table.q)) == dixon
    assert _rows(table) == dixon


def test_abelian_rows_equal_dixon_on_catalog_s_poset_nodes():
    # Both builders depend only on the multiplication table and q, so each
    # distinct (table, q) pair is compared once.
    seen = set()
    for text in catalog_roster():
        G = cached_group(text)
        ctx = CharContext(G)
        for p in (2, 3):
            if G.order % p:
                continue
            for H in s_poset(G, p, 0).nodes:
                key = (H.local.mul.tobytes(), ctx.q)
                if not H.local.is_abelian() or key in seen:
                    continue
                seen.add(key)
                _assert_fast_rows_equal_dixon(H.local, ctx.table(H))
    assert len(seen) >= 100


@pytest.mark.parametrize("text", ["E(2,5)", "C(81)", "C(9) x C(9)", "E(3,4)"])
def test_abelian_rows_equal_dixon_on_whole_groups(text):
    G = cached_group(text)
    _assert_fast_rows_equal_dixon(G, irr_table(G, dixon_modulus(G)))


@st.composite
def _three_cyclic_factors(draw):
    a = draw(st.integers(1, 64))
    b = draw(st.integers(1, 64 // a))
    c = draw(st.integers(1, 64 // (a * b)))
    return a, b, c


@settings(max_examples=30, deadline=None)
@given(_three_cyclic_factors())
def test_abelian_rows_equal_dixon_on_products_of_cyclics(factors):
    G = cached_group(" x ".join(f"C({n})" for n in factors))
    _assert_fast_rows_equal_dixon(G, irr_table(G, dixon_modulus(G)))


@pytest.mark.parametrize("text", ["C(4) x C(2)", "A(4)"])
def test_table_construction_failure_is_typed(text):
    # 11 - 1 is divisible by neither exp = 4 nor exp = 6
    with pytest.raises(TableConstructionFailed):
        irr_table(cached_group(text), q=11)


def test_roots_outside_the_field_are_typed():
    with pytest.raises(TableConstructionFailed):
        roots_in_field([1, 0, 1], 7)          # x^2 + 1 has no root mod 7


def test_modulus_without_int64_headroom_is_rejected():
    G = cached_group("E(2,4)")
    # the largest q with |G| (q-1)^2 < 2^63 is 759,250,125
    q_ok = next(q for q in range(759_250_125, 0, -2) if is_prime(q))
    q_big = next(q for q in range(759_250_127, 2 ** 31, 2) if is_prime(q))
    assert CharContext(G, q=q_ok).q == q_ok
    with pytest.raises(PreconditionViolated):
        CharContext(G, q=q_big)
    with pytest.raises(PreconditionViolated):
        irr_table(G, q=q_big)


# --- the row orthogonality check itself -----------------------------------

def _with_values(table, rows):
    chars = tuple(Character(degree=c.degree, values=tuple(v), id=c.id)
                  for c, v in zip(table.chars, rows))
    return dataclasses.replace(table, chars=chars)


def test_row_orthogonality_holds_on_every_catalog_table():
    for text in catalog_roster():
        assert check_row_orthogonality(_ctx(text).table()), text


def test_row_orthogonality_rejects_a_corrupted_value():
    t = _ctx("Q(8)").table()
    rows = [list(c.values) for c in t.chars]
    rows[2][3] = (rows[2][3] + 1) % t.q
    assert not check_row_orthogonality(_with_values(t, rows))


def test_row_orthogonality_rejects_a_repeated_row():
    # every [chi, chi] is still 1; only the off-diagonal entries fail
    t = _ctx("Q(8)").table()
    rows = [c.values for c in t.chars]
    rows[2] = rows[1]
    assert not check_row_orthogonality(_with_values(t, rows))


def test_row_orthogonality_rejects_swapped_class_columns():
    t = _ctx("S(3)").table()
    assert [int(s) for s in t.classes.sizes] == [1, 3, 2]
    rows = [(v[0], v[2], v[1]) for v in (c.values for c in t.chars)]
    assert not check_row_orthogonality(_with_values(t, rows))


def test_abelian_classes_equal_conjugation_orbits_on_catalog_s_poset_nodes():
    seen = set()
    for text in catalog_roster():
        G = cached_group(text)
        for p in (2, 3):
            if G.order % p:
                continue
            for H in s_poset(G, p, 0).nodes:
                A = H.local
                key = A.mul.tobytes()
                if not A.is_abelian() or key in seen:
                    continue
                seen.add(key)
                fast, orbits = conjugacy_classes(A), classes_by_conjugation(A)
                assert fast.group is A and orbits.group is A
                assert fast.reps == orbits.reps
                assert all(type(r) is int for r in fast.reps)
                for name in ("class_of", "sizes", "inverse_class"):
                    a, b = getattr(fast, name), getattr(orbits, name)
                    assert a.dtype == b.dtype and (a == b).all(), name
                    assert not a.flags.writeable
    assert len(seen) >= 50


def test_failed_induction_and_restriction_checks_are_typed():
    G = cached_group("S(3)")
    ctx = CharContext(G)
    C3 = s_poset(G, 3, 0).nodes[0]
    theta = ctx.table(C3).chars[1]
    with pytest.raises(TableConstructionFailed, match="induced degree"):
        induce(ctx, C3, Character(degree=2, values=theta.values, id=-1))
    # a third of the regular character of C3 is a class function but not a
    # character: its induction does not decompose into degrees that add up
    third = Character(degree=1, values=(1, 0, 0), id=-1)
    with pytest.raises(TableConstructionFailed, match="do not add up"):
        induce(ctx, C3, third)
    chi = ctx.table().chars[0]
    with pytest.raises(TableConstructionFailed, match="restriction degrees"):
        decompose_restriction(ctx, ctx.whole(),
                              Character(degree=5, values=chi.values, id=-1),
                              C3)


def _charpoly_inputs(d, q, rng):
    """Random matrices plus ones with repeated or zero eigenvalues."""
    yield rng.integers(0, q, size=(d, d))
    yield rng.integers(0, 2, size=(d, d))
    yield np.zeros((d, d), dtype=np.int64)
    yield int(rng.integers(0, q)) * np.eye(d, dtype=np.int64)
    yield np.eye(d, k=1, dtype=np.int64)                  # nilpotent
    u, v = rng.integers(0, q, size=(2, d, 1))
    yield u @ v.T                                         # rank <= 1
    yield np.eye(d, dtype=np.int64)[rng.permutation(d)]


@pytest.mark.parametrize("q", [7, 11, 101, 28229, 1000003])
def test_charpoly_matches_interpolation(q):
    rng = np.random.default_rng(q)
    for d in range(min(13, q - 1) + 1):
        for _ in range(4):
            for A in _charpoly_inputs(d, q, rng):
                want = interpolated_charpoly(A, q)
                assert modlinalg.charpoly(A, q) == want, (d, A.tolist())


def test_charpoly_needs_every_dimension_invertible():
    q = 7
    assert modlinalg.charpoly(np.eye(q - 1, dtype=np.int64), q) == \
        interpolated_charpoly(np.eye(q - 1, dtype=np.int64), q)
    with pytest.raises(TableConstructionFailed, match="needs q > 7"):
        modlinalg.charpoly(np.eye(q, dtype=np.int64), q)


def test_root_splitting_stops_at_its_proved_bound(monkeypatch):
    q, n = 7, 3                               # 3 is not a square mod 7
    tries = []
    pow_mod = modlinalg.poly_pow_mod
    monkeypatch.setattr(modlinalg, "poly_pow_mod",
                        lambda *args: tries.append(args) or pow_mod(*args))
    with pytest.raises(TableConstructionFailed, match="root splitting"):
        roots_in_field([q - n, 0, 1], q)      # x^2 - 3 is irreducible
    assert len(tries) == (q + 3) // 2


@pytest.mark.parametrize("q", [3, 5, 7, 11, 13, 17, 19, 23])
def test_root_splitting_separates_every_pair_within_the_bound(q):
    for r, s in itertools.combinations(range(q), 2):
        assert roots_in_field([r * s % q, -(r + s) % q, 1], q) == [r, s]


def _direct_table(T, q):
    """Classes and sorted rows of T built from T alone, not from a conjugate."""
    cls = conjugacy_classes(T)
    if T.is_abelian():
        return cls, [(c.degree, c.values) for c in irr_table(T, q).chars]
    return cls, sorted(dixon_rows(T, cls, q))


def _assert_table_is(table, cls, rows, where):
    got = table.classes
    assert got.reps == cls.reps, where
    for name in ("class_of", "sizes", "inverse_class"):
        a, b = getattr(got, name), getattr(cls, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), (where, name)
    assert [(c.degree, c.values) for c in table.chars] == rows, where


@pytest.mark.parametrize("text,p", [
    (text, p) for text in ("A(6)", "S(6)", "PSL(2,7)", "PSL(2,8)",
                           "PSL(2,11)", "D(4) x D(4)", "X(3,+) x C(3)")
    for p in (2, 3) if cached_group(text).order % p == 0])
def test_relabelled_tables_equal_direct_builds(text, p):
    # every node's table, as CharContext builds it from the node's own
    # group, equals the table built by Dixon (or Hom(S, GF(q)^*)) from that
    # group, and the table relabelled from its class representative's
    # along the conjugation (util.conjugated_table)
    G = cached_group(text)
    lat = p_lattice(G, p)
    ctx = CharContext(G)
    direct = {}
    relabelled = 0
    for i, S in enumerate(lat.nodes):
        table = ctx.table(S)
        key = S.local.mul.tobytes()
        if key not in direct:
            direct[key] = _direct_table(S.local, ctx.q)
        _assert_table_is(table, *direct[key], i)
        r, g = lat.conjugates[i]
        R = lat.nodes[r]
        old = conjugated_table(G, ctx.table(R), R.members, g, S.local,
                               S.members)
        _assert_table_is(table, old.classes,
                         [(c.degree, c.values) for c in old.chars], (i, r))
        relabelled += r != i
    assert relabelled > 0


def test_gamma_build_classifies_each_distinct_local_table_once(monkeypatch):
    # A(6) at p = 2 has five classes of 2-subgroups among 165 nodes: 45
    # C(2), two classes of 15 C(2) x C(2), 45 C(4) and 45 D(4); the two
    # classes of C(2) x C(2) share one local table
    calls = []
    classes = chartab.conjugacy_classes
    monkeypatch.setattr(chartab, "conjugacy_classes",
                        lambda T: calls.append(T.order) or classes(T))
    gam = build_gamma_poset(realize("A(6)"), 2, 0)
    assert gam.s.node_count == 165
    assert sorted(calls) == [2, 4, 4, 8]


def test_e24_gamma_builds_one_table_per_distinct_local_table(monkeypatch):
    # E(2,4) at p = 2 has 66 class representatives (every subgroup is its
    # own class) but only four local tables, one per order 2, 4, 8, 16
    calls = []
    build = CharContext._build
    monkeypatch.setattr(CharContext, "_build",
                        lambda self, T, members: calls.append(T.order)
                        or build(self, T, members))
    gam = build_gamma_poset(realize("E(2,4)"), 2, 0)
    assert gam.s.node_count == 66
    assert sorted(calls) == [2, 4, 8, 16]


def test_relabelling_by_a_wrong_element_is_typed():
    G = cached_group("A(6)")
    lat = p_lattice(G, 2)
    r, _ = lat.conjugates[1]
    R, S = lat.nodes[r], lat.nodes[1]
    assert r != 1
    with pytest.raises(TableConstructionFailed, match="not conjugate"):
        conjugated_table(G, CharContext(G).table(R), R.members, 0, S.local,
                         S.members)


def test_clifford_cover_by_a_wrong_element_is_typed():
    # S(6) at p = 2: node 330 (order 8) is a non-abelian representative
    # whose first lower cover, node 76, is not one; taken by g = 1, the
    # cover's representative lies outside node 330
    G = realize("S(6)")
    lat = p_lattice(G, 2)
    S = lat.nodes[330]
    r, _ = lat.conjugates[76]
    assert lat.conjugates[330][0] == 330 and not S.local.is_abelian()
    assert r != 76 and 76 in lat.lower[330]
    conjugates = lat.conjugates.copy()
    conjugates[76, 1] = 0
    G._memo[("p_lattice", 2)] = dataclasses.replace(
        lat, conjugates=conjugates)
    with pytest.raises(TableConstructionFailed, match="not conjugate"):
        CharContext(G).table(S)


def test_values_matrix_is_built_once_and_read_only():
    t = CharContext(cached_group("S(4)")).table()
    V = t.values_matrix()
    assert V is t.values_matrix()
    assert V.dtype == np.int64 and V.shape == (t.count, t.classes.count)
    with pytest.raises(ValueError, match="read-only"):
        V[0, 0] = 1

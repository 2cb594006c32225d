"""Tables of non-abelian p-groups built along lattice covers, against Dixon."""
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charposet import chartab
from charposet.catalog import catalog_roster, realize
from charposet.chartab import CharContext, conjugacy_classes, dixon_rows
from charposet.errors import TableConstructionFailed
from charposet.gamma import build_gamma_poset, gamma_poset, verify
from charposet.group import p_lattice, prime_power
from util import DIFFERENTIAL_GROUPS, cached_group


def _rows(table):
    return [(c.degree, c.values) for c in table.chars]


def _dixon(T, q):
    return sorted(dixon_rows(T, conjugacy_classes(T), q))


def _assert_nonabelian_nodes_equal_dixon(G, p):
    """Compare every non-abelian S_{p,0} node once per distinct local table."""
    ctx = CharContext(G)
    seen = set()
    for S in p_lattice(G, p).nodes:
        T = S.local
        if T.is_abelian() or T.mul.tobytes() in seen:
            continue
        seen.add(T.mul.tobytes())
        assert _rows(ctx.table(S)) == _dixon(T, ctx.q), (G.label, S.members)
    return len(seen)


EXTRA_P_GROUPS = ("D(4) x D(4)", "Q(32)", "X(3,+) x C(3)", "M(3,5)")


@pytest.mark.parametrize("text,p", [
    (text, p) for text in DIFFERENTIAL_GROUPS + EXTRA_P_GROUPS
    for p in (2, 3) if cached_group(text).order % p == 0])
def test_clifford_tables_equal_dixon_on_nonabelian_nodes(text, p):
    _assert_nonabelian_nodes_equal_dixon(cached_group(text), p)


@pytest.mark.parametrize("text", [
    t for t in tuple(catalog_roster()) + EXTRA_P_GROUPS
    if prime_power(cached_group(t).order)
    and not cached_group(t).is_abelian()])
def test_whole_p_group_table_equals_dixon(text):
    G = cached_group(text)
    ctx = CharContext(G)
    assert _rows(ctx.table()) == _dixon(G, ctx.q)


def _product_pairs():
    pgroups = [(t, prime_power(cached_group(t).order))
               for t in catalog_roster()]
    pgroups = [(t, pk[0]) for t, pk in pgroups if pk]
    return [(a, b) for (a, p), (b, r) in
            itertools.combinations_with_replacement(pgroups, 2)
            if p == r and cached_group(a).order * cached_group(b).order <= 64
            and not (cached_group(a).is_abelian()
                     and cached_group(b).is_abelian())]


@settings(max_examples=6, deadline=None)
@given(st.sampled_from(_product_pairs()))
def test_clifford_tables_equal_dixon_on_direct_products(pair):
    G = cached_group(" x ".join(pair))
    p = prime_power(G.order)[0]
    assert _assert_nonabelian_nodes_equal_dixon(G, p) >= 1


def test_gamma_builds_run_no_charpoly(monkeypatch):
    def refuse(*args):
        raise AssertionError("charpoly called on a Gamma build")
    monkeypatch.setattr(chartab, "charpoly", refuse)
    G = realize("A(6)")
    for e in (0, 1):
        assert gamma_poset(G, 2, e).node_count > 0
    for text in catalog_roster():
        G = realize(text)
        pk = prime_power(G.order)
        if pk:
            for e in (0, 1):
                build_gamma_poset(G, pk[0], e)


def test_whole_group_has_one_cache_entry():
    for text in ("X(3,+)", "S(4)"):
        ctx = CharContext(cached_group(text))
        assert ctx.table() is ctx.table(ctx.whole())
        assert ctx.table(ctx.whole()).group is ctx.group


def test_l4_3_builds_the_whole_group_table_once(monkeypatch):
    built = []
    for name in ("irr_table", "clifford_rows"):
        def spy(T, *args, _build=getattr(chartab, name), **kwargs):
            built.append(T.order)
            return _build(T, *args, **kwargs)
        monkeypatch.setattr(chartab, name, spy)
    assert verify(realize("X(3,+)"), 3, 1, "L4.3").status == "pass"
    assert built.count(27) == 1


def test_clifford_rows_stop_reading_covers_once_complete():
    G = cached_group("Q(8)")
    ctx = CharContext(G)
    lat = p_lattice(G, 2)
    first = lat.nodes[lat.lower[lat.node_index[tuple(range(G.order))]][0]]

    def covers():
        yield first.members, ctx.table(first)
        raise AssertionError("a cover was read after sum d^2 = |G|")

    rows = chartab.clifford_rows(G, conjugacy_classes(G), ctx.q, 2, covers())
    assert sorted(d for d, _ in rows) == [1, 1, 1, 1, 2]


def test_clifford_rows_without_covers_fail_validation():
    G = cached_group("Q(8)")
    cls = conjugacy_classes(G)
    q = CharContext(G).q
    rows = chartab.clifford_rows(G, cls, q, 2, [])
    with pytest.raises(TableConstructionFailed, match="number of characters"):
        chartab._validated_table(G, cls, q, rows)

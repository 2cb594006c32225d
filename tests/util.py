"""Shared test helpers: cached group realization and brute-force oracles."""
import functools
import itertools

import numpy as np

from charposet.catalog import catalog_roster, realize
from charposet.errors import ClosureCapExceeded
from charposet.gamma import strongly_embedded_check
from charposet.group import all_subgroups, closure_members

# The catalog plus the largest groups the engine handles: the groups on
# which the generator-based fast paths are checked against their oracles.
DIFFERENTIAL_GROUPS = tuple(catalog_roster()) + (
    "PSL(2,8)", "PSL(2,11)", "A(6)", "S(6)")


@functools.lru_cache(maxsize=None)
def cached_group(text):
    """Realize once per expression so per-table caches are shared."""
    return realize(text)


def brute_force_subgroups(G, max_gens=4):
    """All subgroup member tuples, independently of the lattice builder.

    For tiny groups (|G| <= 8) checks closure of every subset; otherwise
    closes every generating set of size <= max_gens (sufficient for
    |G| <= 2^max_gens).
    """
    n = G.order
    out = set()
    if n <= 8:
        elems = list(range(n))
        for r in range(n + 1):
            for sub in itertools.combinations(elems, r):
                if 0 not in sub:
                    continue
                s = set(sub)
                if all(int(G.mul[a, b]) in s for a in sub for b in sub):
                    out.add(tuple(sorted(sub)))
        return out
    for r in range(max_gens + 1):
        for gens in itertools.combinations(range(n), r):
            out.add(closure_members(G, gens))
    return out


def fixed_point_closure_members(G, seed):
    """Closure by squaring the member set until it stops growing."""
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    for s in seed:
        mask[int(s)] = True
    size = int(mask.sum())
    while True:
        cur = np.flatnonzero(mask)
        mask[np.unique(G.mul[np.ix_(cur, cur)])] = True
        new_size = int(mask.sum())
        if new_size == size:
            break
        size = new_size
    return tuple(int(x) for x in np.flatnonzero(mask))


def brute_force_has_strongly_embedded(G, p, e):
    """Condition 5 tested on every proper subgroup of G."""
    pe1 = p ** (e + 1)
    return any(M.order < G.order and M.order % pe1 == 0
               and strongly_embedded_check(G, p, e, M, 5)
               for M in all_subgroups(G))


def composition_closure(degree, gens, cap):
    """(mul, words) of the closure: BFS over words, then n^2 compositions."""
    def compose(a, b):
        return tuple(b[a[i]] for i in range(len(a)))

    gens = [tuple(int(i) for i in g) for g in gens]
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    words = ["e"]
    pos = 0
    while pos < len(elems):
        cur = elems[pos]
        for gi, g in enumerate(gens):
            new = compose(cur, g)
            if new not in index:
                if len(elems) >= cap:
                    raise ClosureCapExceeded(f"closure exceeds cap {cap}")
                index[new] = len(elems)
                elems.append(new)
                sym = "abcdefghijklmnopqrstuvwxyz"[gi]
                words.append(sym if pos == 0 else words[pos] + "*" + sym)
        pos += 1
    n = len(elems)
    mul = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mul[i, j] = index[compose(a, b)]
    return mul, tuple(words)


def scanned_inverses(mul):
    """inv[x] = the one y with x*y = identity, row by row."""
    inv = np.zeros(mul.shape[0], dtype=np.int32)
    for x in range(mul.shape[0]):
        hits = np.flatnonzero(mul[x] == 0)
        assert hits.size == 1
        inv[x] = hits[0]
    return inv


def iterated_elem_orders(mul):
    """Order of each element by multiplying by it until the identity."""
    out = np.zeros(mul.shape[0], dtype=np.int64)
    for x in range(mul.shape[0]):
        k, y = 1, x
        while y != 0:
            y = int(mul[y, x])
            k += 1
        out[x] = k
    return out


def conjugated_node_images(spos):
    """node_image[g][i] = node id of (node i)^g, conjugating by every g."""
    G = spos.group
    lat = spos.lattice
    return [tuple(lat.node_of_members(G.conj_set(sub.members, g))
                  for sub in lat.nodes)
            for g in range(G.order)]

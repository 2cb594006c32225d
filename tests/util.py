"""Shared test helpers: cached group realization and brute-force oracles."""
import functools
import itertools

import numpy as np

from charposet.catalog import realize
from charposet.gamma import strongly_embedded_check
from charposet.group import all_subgroups, closure_members


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

"""Finite groups as explicit multiplication tables, with subgroup primitives.

Every table is built from the structure it comes from: a permutation group's
from its permutations (`closure_of_permutations`), a direct product's from
its factors' arrays (`direct_table_product`) and a subgroup's from its
parent's when first read (`Subgroup.local`); none is scanned for inverses
afterwards. Every table holds its products and inverses as `TABLE_DTYPE`
(uint16), so a table takes 2|G|^2 bytes and no group of order over
`MAX_TABLE_ORDER` (65,536) is built; `order_cap` never exceeds it. Every
product, conjugation and power goes through `GroupTable` (`prod`,
`conj_set`, `power`, `powers`), and so has the table's dtype; outside it,
only `direct_table_product` reads a table, its factors'. A subgroup is its
member tuple and membership mask. The poset S_{p,e}(G) is one
`PSubgroupLattice`, which keeps its covers, classes and components as the
int arrays they are computed as. Element 0 is always the identity. All
types are immutable after construction, except for each table's cache of
derived data (`GroupTable.memo`) and the cached properties of subgroups and
lattices; every operation is a pure function of its inputs.
"""
from __future__ import annotations

import os
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count
from math import isqrt, lcm

import numpy as np

from .errors import (
    ClosureCapExceeded,
    InvalidPermutation,
    LatticeConstructionFailed,
    NoSuchSubgroups,
    NotAPGroup,
    NotASemidirectDecomposition,
    NotASubgroup,
    PreconditionViolated,
)
from .poset import components

DEFAULT_ORDER_CAP = 1024

# the dtype of every table's mul and inv, half int32's bytes; it numbers at
# most 2^16 elements, whose table would already take 8.6 GB
TABLE_DTYPE = np.dtype(np.uint16)
MAX_TABLE_ORDER = int(np.iinfo(TABLE_DTYPE).max) + 1

_GEN_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"


def order_cap():
    """Construction cap on group order; CHARPOSET_ORDER_CAP overrides it,
    up to MAX_TABLE_ORDER, the most elements TABLE_DTYPE can number."""
    raw = os.environ.get("CHARPOSET_ORDER_CAP")
    if raw is None:
        return DEFAULT_ORDER_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(
            f"CHARPOSET_ORDER_CAP must be a positive integer, got {raw!r}")
    return min(cap, MAX_TABLE_ORDER)


# Miller-Rabin with the first 13 prime bases is exact for n below this bound
# (Sorenson and Webster 2017, psi_13); the first 12 bases only reach 3.2e23.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3_317_044_064_679_887_385_961_981


def is_prime(n):
    """Exact primality for n < 3.3e24 by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_EXACT_BELOW:
        raise PreconditionViolated(
            f"primality is decided exactly only below {_MR_EXACT_BELOW}, "
            f"got a {len(str(n))}-digit number")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_p_power(n, p):
    """True if n is a (possibly zeroth) power of the prime p."""
    if n < 1:
        return False
    while n % p == 0:
        n //= p
    return n == 1


def prime_power(n):
    """(p, k) with n = p^k and k >= 1, or None if n is not a prime power."""
    if n < 2:
        return None
    p = next((d for d in range(2, isqrt(n) + 1) if n % d == 0), n)
    k = next(k for k in count(1) if p ** k >= n)
    return (p, k) if p ** k == n else None


def p_valuation(n, p):
    """The exponent of the prime p in n >= 1."""
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group given by its full multiplication table.

    mul[x][y] is the index of x*y and inv[x] that of x^-1, both of dtype
    TABLE_DTYPE, as is every product read through `prod`, `conj_set`,
    `power` and `powers`; element 0 is the identity. Data derived
    from the group (posets, character tables) is cached on the table
    through `memo`, so it lives exactly as long as the table.
    """

    order: int
    mul: np.ndarray
    inv: np.ndarray
    elem_order: np.ndarray
    label: str = "G"
    words: tuple = None
    direct_factors: tuple = None
    semidirect_parts: tuple = None
    # not an init field, so dataclasses.replace starts the copy with no cache
    _memo: dict = field(default_factory=dict, init=False, repr=False)

    def memo(self, key, build):
        """The value cached under key, computed by build() on first use."""
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def prod(self, x, y=slice(None)):
        """x*y for elements, broadcasting index arrays or slices; without y,
        the row of products x*g over every g, for each x."""
        return self.mul[x, y]

    def conj_set(self, members, g):
        """Image of a member array under conjugation by g."""
        return self.prod(self.prod(self.inv[g], np.asarray(members)), g)

    def power(self, x, k):
        """x^k for an element or an array of them and any int k, by
        square-and-multiply; an int for a scalar x."""
        x, k = np.asarray(x), int(k)
        if k < 0:
            x, k = self.inv[x], -k
        acc = np.zeros_like(x)
        while k:
            if k & 1:
                acc = self.prod(acc, x)
            x = self.prod(x, x)
            k >>= 1
        return int(acc) if np.ndim(acc) == 0 else acc

    def powers(self, x, k):
        """x^0, ..., x^(k-1) of an element or an array x, on a new last axis."""
        x = np.asarray(x)
        out = np.zeros(x.shape + (k,), dtype=self.mul.dtype)
        for j in range(1, k):
            out[..., j] = self.prod(out[..., j - 1], x)
        return out

    def exponent(self):
        return lcm(*set(self.elem_order.tolist()))

    def is_abelian(self):
        return self.memo("abelian",
                         lambda: bool((self.mul == self.mul.T).all()))

    def word(self, x):
        if self.words is not None:
            return self.words[x]
        return str(x)

    def __repr__(self):
        return f"GroupTable({self.label}, order={self.order})"


def _elem_orders(mul):
    """Order of every element at once: powers x^k for all x, k = 1, 2, ..."""
    n = mul.shape[0]
    rng = np.arange(n)
    out = np.zeros(n, dtype=np.int64)
    powers = rng
    for k in range(1, n + 1):
        out[(powers == 0) & (out == 0)] = k
        if out.all():
            return out
        powers = mul[powers, rng]
    raise ValueError("some element has no power equal to the identity")


def closure_of_permutations(degree, gens, label="G", cap=None):
    """Level-synchronous BFS closure over generator words.

    Returns (GroupTable, index), index mapping each generator's image tuple
    to its element index. Element enumeration is breadth-first over words,
    generators in input order, so numbering is reproducible: each level's
    frontier is composed with every generator in one gather, and its new
    elements are numbered in (element, generator) order, exactly as a queue
    BFS numbers them. Products compose left to right, (x*g)[i] = g[x[i]].

    The frontiers, kept in order, are the permutations of the elements, and
    one lookup per (generator, element) gives left[g][z] = g*z. For each new
    element y = x*g the row of y is the row of x gathered at left[g], since
    y*z = x*(g*z); rows are filled in BFS order, so x's row is ready before
    y's. Inverses are read from the inverted permutations and checked by
    x*inv[x] = 1. Raises ClosureCapExceeded when |G| exceeds cap or
    MAX_TABLE_ORDER, before any table is allocated.
    """
    cap = min(order_cap() if cap is None else cap, MAX_TABLE_ORDER)
    gens = [tuple(int(i) for i in g) for g in gens]
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise InvalidPermutation(f"not a bijection on {degree} points: {g}")
    ngens = len(gens)
    dtype = np.min_scalar_type(max(degree - 1, 0))
    garr = np.array(gens, dtype=dtype).reshape(ngens, degree)
    row = np.dtype((np.void, degree * dtype.itemsize))     # one permutation

    def lookup(perms):
        # element index of each permutation row; every row must be known
        return [index[key] for key in
                np.ascontiguousarray(perms).view(row).ravel().tolist()]

    syms = [
        _GEN_SYMBOLS[i] if i < len(_GEN_SYMBOLS) else f"g{i}"
        for i in range(ngens)
    ]
    frontier = np.arange(degree, dtype=dtype)[None, :]
    index = {frontier.tobytes(): 0}        # permutation bytes -> element
    words = ["e"]
    perms = [frontier]                     # per level: its elements' images
    parents = []                           # per level: (x, g) of each new y
    while frontier.shape[0]:
        # cand[x, g] = frontier[x] then gens[g]
        cand = garr[:, frontier].transpose(1, 0, 2).reshape(-1, degree)
        n0 = len(index)
        ids = np.array([index.setdefault(key, len(index)) for key in
                        np.ascontiguousarray(cand).view(row)
                        .ravel().tolist()], dtype=np.int32)
        if len(index) > cap:
            raise ClosureCapExceeded(
                f"closure exceeds cap {cap} (degree {degree})")
        # a new id is numbered on first sight, above every id seen before it
        seen = np.maximum.accumulate(np.concatenate(([n0 - 1], ids[:-1])))
        pos = np.flatnonzero(ids > seen)
        xs = (n0 - frontier.shape[0]) + pos // ngens
        gis = pos % ngens
        words.extend(syms[gi] if x == 0 else f"{words[x]}*{syms[gi]}"
                     for x, gi in zip(xs.tolist(), gis.tolist()))
        parents.append((xs.tolist(), gis.tolist()))
        frontier = cand[pos]
        perms.append(frontier)
    n = len(index)
    perms = np.concatenate(perms)
    # left[g][z] = g*z, whose images are (g*z)[i] = z[g[i]]
    left = np.array([lookup(perms[:, g]) for g in garr],
                    dtype=np.intp).reshape(ngens, n)
    mul = np.empty((n, n), dtype=TABLE_DTYPE)
    mul[0] = np.arange(n, dtype=TABLE_DTYPE)
    y = 1
    for xs, gis in parents:
        for x, gi in zip(xs, gis):
            # mode="clip": "raise" buffers every call that has an out=
            mul[x].take(left[gi], out=mul[y], mode="clip")
            y += 1
    inverted = np.empty_like(perms)
    inverted[np.arange(n)[:, None], perms] = np.arange(degree, dtype=dtype)
    inv = np.array(lookup(inverted), dtype=TABLE_DTYPE)
    if (mul[np.arange(n), inv] != 0).any():
        raise ValueError("an inverted permutation is not the inverse")
    elem_order = _elem_orders(mul)
    for a in (mul, inv, elem_order):
        a.setflags(write=False)
    table = GroupTable(order=n, mul=mul, inv=inv, elem_order=elem_order,
                       label=label, words=tuple(words))
    return table, {g: index[a.tobytes()] for g, a in zip(gens, garr)}


def group_from_generators(degree, gens, label="G", cap=None):
    """Close a list of permutations (0-based image tuples) into a GroupTable."""
    table, _ = closure_of_permutations(degree, gens, label=label, cap=cap)
    return table


@dataclass(frozen=True, eq=False)
class Subgroup:
    """A subgroup as a membership mask over a parent GroupTable.

    `members` doubles as the embedding map local index -> parent index.
    """

    parent: GroupTable
    members: tuple
    mask: np.ndarray

    @property
    def order(self):
        return len(self.members)

    @cached_property
    def local(self):
        """Its own GroupTable, read from the parent's on first use: one
        |H|^2 gather and one searchsorted give `mul`; the inverses and
        element orders are the parent's at the members. Subgroups of one
        parent with byte-equal `mul` share one GroupTable, and so its memo.
        The whole group's table is the parent itself."""
        G, m = self.parent, self.order
        if m == G.order:
            return G
        marr = np.array(self.members)
        mul = np.searchsorted(marr, G.prod(marr[:, None], marr))
        key = ("local", mul.astype(TABLE_DTYPE).tobytes())

        def build():
            inv = np.searchsorted(marr, G.inv[marr]).astype(TABLE_DTYPE)
            orders = G.elem_order[marr]
            inv.setflags(write=False)
            orders.setflags(write=False)
            # a read-only view of the key's bytes, so they are kept once
            view = np.frombuffer(key[1], TABLE_DTYPE).reshape(m, m)
            return GroupTable(m, view, inv, orders, label=f"{G.label}|{{{m}}}")

        return G.memo(key, build)

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label})"


def make_subgroups(G, rows):
    """Closed member rows of G, all of one order, as Subgroups in one batch.

    rows is a (t, m) array, each row sorted and holding distinct members
    of G. One scatter makes all membership masks, and one gather of all
    products, read against the masks, checks closure: a product outside
    its row raises NotASubgroup. Closure under products is the one check a
    finite group needs. Each table is made when first read (`local`).
    """
    rows = np.asarray(rows, dtype=np.int64)
    t, m = rows.shape
    at = np.arange(t)[:, None]
    masks = np.zeros((t, G.order), dtype=bool)
    masks[at, rows] = True
    masks.setflags(write=False)
    if m < G.order and not masks[at[:, :, None], G.prod(
            rows[:, :, None], rows[:, None, :])].all():
        raise NotASubgroup("member set is not closed under multiplication")
    return [Subgroup(parent=G, members=tuple(members), mask=mask)
            for members, mask in zip(rows.tolist(), masks)]


def make_subgroup(G, members):
    """A closed member set of G as a Subgroup: the one-row make_subgroups.

    members may be any iterable and may repeat. The identity and the range
    are checked here; make_subgroups checks closure.
    """
    members = sorted({int(x) for x in members})
    if not members or members[0] != 0:
        raise NotASubgroup("subgroup must contain the identity")
    if members[-1] >= G.order:
        raise NotASubgroup(f"member {members[-1]} >= |G| = {G.order}")
    return make_subgroups(G, np.array([members]))[0]


def whole_group_subgroup(G):
    return make_subgroup(G, range(G.order))


def closure_members(G, seed):
    """Member tuple of the smallest subgroup of G containing seed.

    Breadth-first over words in the seed: only the elements found in the
    last round are multiplied by the seed. In a finite group the nonempty
    words already contain every inverse, so this is the generated subgroup.

    Lagrange exit: once more than |G|/2 elements are found, the generated
    subgroup H has |G : H| = |G|/|H| < 2, so H = G and the search stops.
    """
    gens = np.array(sorted({int(s) for s in seed}), dtype=np.int64)
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    size = 1
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        if 2 * size > G.order:
            return tuple(range(G.order))
        found = np.zeros(G.order, dtype=bool)
        found[G.prod(frontier[:, None], gens)] = True
        frontier = np.flatnonzero(found & ~mask)
        mask[frontier] = True
        size += frontier.size
    return tuple(int(x) for x in np.flatnonzero(mask))


def subgroup_closure(G, seed):
    """Smallest subgroup of G containing the seed element indices."""
    for s in seed:
        if not 0 <= int(s) < G.order:
            raise PreconditionViolated(f"seed element {s} out of range")
    return make_subgroup(G, closure_members(G, seed))


def _normalizer_mask(G, gens, mask):
    """Mask of N_G(H), H given by its membership mask and generators.

    g normalizes H exactly when it conjugates every generator into H, since
    H^g is generated by their images and has the order of H. Any member
    array of H that generates it will do, all of H included.
    """
    hg = G.prod(np.asarray(gens, dtype=np.int32)).T     # (n, |gens|): h*g
    return mask[G.prod(G.inv[:, None], hg)].all(axis=1)


def normalizer(G, H):
    """N_G(H) = {g : H^g = H}."""
    if H.parent is not G:
        raise NotASubgroup("subgroup belongs to a different parent group")
    ok = _normalizer_mask(G, H.members, H.mask)
    return make_subgroup(G, (int(x) for x in np.flatnonzero(ok)))


def validate_semidirect(G, H, K):
    """Check that G = H K with H normal in G and K a complement to H.

    Once |H||K| = |G| and H and K meet trivially, every g in G is hk for
    exactly one pair: hk = h'k' gives h'^-1 h = k' k^-1 in H and K, so
    h = h' and k = k', and the |H||K| products hk are the |G| elements of G.
    """
    if H.parent is not G or K.parent is not G:
        raise NotASemidirectDecomposition("parts belong to a different group")
    if H.order * K.order != G.order:
        raise NotASemidirectDecomposition("|H||K| != |G|")
    if (H.mask & K.mask).sum() != 1:
        raise NotASemidirectDecomposition("parts intersect nontrivially")
    if not _normalizer_mask(G, H.members, H.mask).all():
        raise NotASemidirectDecomposition("H is not normal in G")


def center(G):
    """Z(G): the x with x*g = g*x for every g."""
    rows = G.prod(slice(None))
    return make_subgroup(G, np.flatnonzero((rows == rows.T).all(axis=1)))


def omega1(P, p):
    """Subgroup of the p-group P generated by its elements of order <= p."""
    G = P.parent
    if not is_p_power(P.order, p):
        raise NotAPGroup(f"|P| = {P.order} is not a power of {p}")
    gens = [m for m in P.members if int(G.elem_order[m]) in (1, p)]
    sub = make_subgroup(G, closure_members(G, gens))
    if (sub.mask & ~P.mask).any():
        raise NotASubgroup("omega1 escaped P; P is not closed")
    return sub


@dataclass(frozen=True, eq=False)
class PSubgroupLattice:
    """S_{p,e}(G): the p-subgroups of order > p^e, with their index-p covers,
    G-classes and connected components.

    covers and conjugates are read-only int64 arrays: a row (i, j) of covers
    has nodes[i] maximal in nodes[j], and conjugates[i] = (r, g) has
    nodes[r]^g = nodes[i], r least in i's class.
    """

    group: GroupTable
    p: int
    e: int
    nodes: tuple
    covers: np.ndarray     # (covers, 2)
    sylow_ids: tuple
    conjugates: np.ndarray  # (nodes, 2)

    @property
    def node_count(self):
        return len(self.nodes)

    @cached_property
    def node_index(self):
        """Member tuple -> node id."""
        return {s.members: i for i, s in enumerate(self.nodes)}

    @cached_property
    def lower(self):
        """lower[j] = ids of the nodes that node j covers, ascending."""
        below = [[] for _ in self.nodes]
        for i, j in self.covers.tolist():
            below[j].append(i)
        return tuple(tuple(sorted(b)) for b in below)

    @cached_property
    def partition(self):
        """The connected components of S_{p,e} over its cover edges."""
        return components(self.node_count, self.covers)


def _int_rows(rows):
    """rows as a read-only (len(rows), 2) int64 array."""
    out = np.array(rows, dtype=np.int64).reshape(-1, 2)
    out.setflags(write=False)
    return out


def _right_transversal(G, nmask):
    """The least element of each right coset of N, given by its mask,
    ascending: column g of N's rows is the coset Ng, and g represents Ng
    when it is that column's least element."""
    if nmask.all():
        return np.zeros(1, dtype=np.intp)
    least = G.prod(nmask).min(axis=0)
    return np.flatnonzero(least == np.arange(G.order))


def _conjugates(G, elems, T):
    """elems conjugated by each t in T, each sorted; as given if T = [1]."""
    if T.size == 1:
        return [elems]
    rows = np.sort(G.conj_set(np.array(elems), T[:, None]), axis=1)
    return [tuple(r) for r in rows.tolist()]


def _index_p_overgroups(G, p, hmasks, nmasks, xp):
    """The index-p overgroups of many p-subgroups H of one order, at once.

    Row t of hmasks is the mask of H and row t of nmasks the mask of
    N_G(H); xp[x] = x^p. Each overgroup is <H, x> = H u Hx u ... u
    Hx^(p-1) for an x in N_G(H) outside H with x^p in H (x is then a
    p-element, as x^p is). Every such x's coset union is one sorted row of
    a (candidates, p|H|) array. Every element of K = <H, x> outside H is a
    candidate, and two such K meet in H, so K is kept once, with its least
    x: the x that is the least element of its cosets other than H.
    Returns (t, member rows, x) per overgroup, ordered by t, then x.
    """
    reps = np.nonzero(hmasks)[1].reshape(len(hmasks), -1)
    ri, xs = np.nonzero(nmasks & ~hmasks & hmasks[:, xp])
    # cosets[c, j] = H x^j for the candidate x = xs[c]
    cosets = G.prod(reps[ri][:, None, :], G.powers(xs, p)[:, :, None])
    rows = np.sort(cosets.reshape(xs.size, p * reps.shape[1]), axis=1)
    if (rows[:, 1:] == rows[:, :-1]).any():
        raise LatticeConstructionFailed("coset union has wrong size")
    keep = xs == cosets[:, 1:].min(axis=(1, 2))
    return ri[keep], rows[keep], xs[keep]


def _build_p_lattice(G, p):
    """S_{p,0}(G) by levels of order p, p^2, ..., one conjugacy class at a time.

    Nodes are sorted by order, then by member tuple. The first node H of a
    level not yet in a class represents its class {H^t : t in a right
    transversal of N_G(H)}, and only H is extended. Every index-p inclusion
    H < K is one extension step of H (any x in K outside H lies in N_G(H)
    and has x^p in H), and the covers of H^t are the H^t < K^t, so each
    cover is recorded once. A level's representatives are collected first
    and extended in one batch (`_index_p_overgroups`). Each node keeps
    generators: one element of order p, one more per step, conjugated along
    with the node. The Subgroups of one level are made together, by one
    make_subgroups call.
    """
    xs = np.flatnonzero(G.elem_order == p)
    # an element of order p bounds p by |G|; p itself may be any huge prime
    cyclic = np.sort(G.powers(xs, p), axis=1).tolist() if xs.size else []
    gens = {tuple(c): (x,) for c, x in zip(cyclic, xs.tolist())}
    level = sorted(gens)
    xp = G.power(np.arange(G.order), p)
    levels = []
    classes = {}                     # member tuple -> (representative, g)
    steps = []                       # (H, K) member tuples, |K : H| = p
    while level:
        levels.append(level)
        hmasks, nmasks, reps = [], [], []   # per class representative
        for mem in level:
            if mem in classes:
                continue
            hmask = np.zeros(G.order, dtype=bool)
            hmask[list(mem)] = True
            nmask = _normalizer_mask(G, gens[mem], hmask)
            T = _right_transversal(G, nmask)
            conj = _conjugates(G, mem, T)
            classes.update(zip(conj, ((mem, g) for g in T.tolist())))
            hmasks.append(hmask)
            nmasks.append(nmask)
            reps.append((mem, T, conj))
        above = set()
        for r, over, x in zip(*(a.tolist() for a in _index_p_overgroups(
                G, p, np.array(hmasks), np.array(nmasks), xp))):
            mem, T, conj = reps[r]
            found = _conjugates(G, tuple(over), T)
            steps.extend(zip(conj, found))
            above.update(found)
            gens.update(zip(found, _conjugates(G, gens[mem] + (x,), T)))
        level = sorted(above)
    members = [mem for level in levels for mem in level]
    node_index = {mem: i for i, mem in enumerate(members)}
    covers = sorted((node_index[K], node_index[H]) for H, K in steps)
    nodes = tuple(s for level in levels for s in make_subgroups(G, level))
    sylow = p ** p_valuation(G.order, p)
    if nodes and nodes[-1].order != sylow:
        raise LatticeConstructionFailed(
            "p-subgroup enumeration missed a Sylow level")
    # Sylow's theorem: G is transitive on its Sylow p-subgroups
    if nodes and len({classes[m][0] for m in levels[-1]}) > 1:
        raise LatticeConstructionFailed(
            "the Sylow p-subgroups are not one conjugacy class")
    return PSubgroupLattice(
        group=G, p=p, e=0, nodes=nodes,
        covers=_int_rows([(i, j) for j, i in covers]),
        sylow_ids=tuple(i for i, s in enumerate(nodes) if s.order == sylow),
        conjugates=_int_rows([(node_index[classes[m][0]], classes[m][1])
                              for m in members]))


def p_lattice(G, p):
    """S_{p,0}(G) for a prime p, built once per (G, p) and cached on G."""
    return G.memo(("p_lattice", p), lambda: _build_p_lattice(G, p))


def enumerate_p_subgroups(G, p, e=0):
    """S_{p,e}(G): the nodes of order > p^e of the cached S_{p,0}(G).

    S_{p,0} is built once per (G, p). S_{p,e} is the suffix of its nodes of
    order exponent > e, renumbered from 0, with the covers and Sylow nodes
    inside that suffix.
    """
    if not is_prime(p):
        raise PreconditionViolated(f"p = {p} is not prime")
    if e < 0:
        raise PreconditionViolated("e must be >= 0")
    lat = p_lattice(G, p)
    if e == 0:
        return lat
    start = bisect_right(lat.nodes, e,
                         key=lambda s: p_valuation(s.order, p))
    # a class lies in one level, so each representative is in the suffix
    return PSubgroupLattice(
        group=G, p=p, e=e, nodes=lat.nodes[start:],
        covers=_int_rows(lat.covers[lat.covers[:, 0] >= start] - start),
        sylow_ids=tuple(i - start for i in lat.sylow_ids if i >= start),
        conjugates=_int_rows(lat.conjugates[start:] - [start, 0]))


def _intersection(subgroups):
    """Sorted member tuple of the intersection of a nonempty list."""
    meet = np.logical_and.reduce([s.mask for s in subgroups])
    return tuple(np.flatnonzero(meet).tolist())


def frattini_of_p_group(P, p):
    """Phi(P) for a p-group P, computed two independent ways and compared.

    A nontrivial Phi(P) has the members of a node of G's p-lattice, and so
    shares that node's local table and its character tables.
    """
    G = P.parent
    if not is_p_power(P.order, p) or P.order < p:
        raise NotAPGroup(f"|P| = {P.order} is not a power of {p} with |P| >= {p}")
    # (b) closure of commutators and p-th powers
    x = np.array(P.members, dtype=np.int32)
    y = x[:, None]
    commutators = G.prod(G.inv[G.prod(x, y)], G.prod(y, x))  # (xy)^-1 yx = [x,y]
    by_powers = closure_members(
        G, np.concatenate((G.power(x, p), commutators.ravel())))
    # (a) intersection of the index-p subgroups of P: its lower covers in G's
    # p-subgroup lattice
    if P.order == p:
        by_maximals = (0,)
    else:
        lat = enumerate_p_subgroups(G, p)
        j = lat.node_index.get(P.members)
        if j is None:
            raise LatticeConstructionFailed("P is not a node of G's lattice")
        by_maximals = _intersection([lat.nodes[i] for i in lat.lower[j]])
    if by_powers != by_maximals:
        raise LatticeConstructionFailed("Frattini computations disagree")
    return make_subgroup(G, by_powers)


def common_intersection_of_order(G, p, k):
    """Intersection of all subgroups of G of order p^k."""
    if not is_prime(p) or k < 1:
        raise PreconditionViolated("need p prime and k >= 1")
    if p_valuation(G.order, p) < k:
        raise NoSuchSubgroups(f"{p}^{k} does not divide |G| = {G.order}")
    lat = enumerate_p_subgroups(G, p)
    # nonempty: by Sylow's theorem, checked when the lattice was built
    level = [s for s in lat.nodes if p_valuation(s.order, p) == k]
    return make_subgroup(G, _intersection(level))


def all_subgroups(G):
    """Cached build_all_subgroups; a test oracle, not used by the library.
    It stays in src/ because the benchmark's tracer wraps it by name."""
    return G.memo("all_subgroups", lambda: build_all_subgroups(G))


def build_all_subgroups(G):
    """Every subgroup of G, by breadth-first generator adjunction.

    Bounded scan per the non-goals: intended for the catalog's small orders.
    A test oracle, kept in src/ for all_subgroups.
    """
    seen = {(0,)}
    queue = [(0,)]
    while queue:
        mem = queue.pop()
        sset = set(mem)
        for g in range(1, G.order):
            if g in sset:
                continue
            new = closure_members(G, mem + (g,))
            if new not in seen:
                seen.add(new)
                queue.append(new)
    ordered = sorted(seen, key=lambda m: (len(m), m))
    return tuple(make_subgroup(G, m) for m in ordered)


def direct_table_product(A, B, label=None):
    """External direct product of two tables, read from the factors' arrays.

    Element (a, b) is a*|B| + b, so the identity is 0. Its product is
    (ac, bd), its inverse (a^-1, b^-1) and its order lcm(|a|, |b|); the
    direct factors of A and B, flattened, are the product's. `mul` is one
    TABLE_DTYPE sum of A's table times |B| and B's table, which cannot
    wrap: a*|B| + b < |A||B| <= MAX_TABLE_ORDER.
    """
    na, nb = A.order, B.order
    n = na * nb
    if n > MAX_TABLE_ORDER:
        raise ClosureCapExceeded(
            f"product order {n} exceeds {MAX_TABLE_ORDER}")
    shift = (np.arange(na) * nb).astype(TABLE_DTYPE)        # a -> a*|B|
    mul = np.empty((na, nb, na, nb), dtype=TABLE_DTYPE)
    np.add(shift[A.mul][:, None, :, None], B.mul[None, :, None, :], out=mul)
    mul = mul.reshape(n, n)
    inv = (shift[A.inv][:, None] + B.inv).ravel()
    elem_order = np.lcm.outer(A.elem_order, B.elem_order).ravel()
    for a in (mul, inv, elem_order):
        a.setflags(write=False)
    words = None
    if A.words is not None and B.words is not None:
        words = tuple(f"({a},{b})" for a in A.words for b in B.words)
    a_factors = A.direct_factors or ((tuple(range(na)),) if na > 1 else ())
    b_factors = B.direct_factors or ((tuple(range(nb)),) if nb > 1 else ())
    factors = tuple(tuple(i * nb for i in f) for f in a_factors) + b_factors
    return GroupTable(order=n, mul=mul, inv=inv, elem_order=elem_order,
                      label=label or f"{A.label} x {B.label}", words=words,
                      direct_factors=factors or None)

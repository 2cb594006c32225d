"""Finite groups as explicit multiplication tables, with subgroup primitives.

Element 0 is always the identity. All types are immutable after construction,
except for each table's cache of derived data (`GroupTable.memo`); every
operation is a pure function of its inputs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import count
from math import isqrt, lcm

import numpy as np

from .errors import (
    ClosureCapExceeded,
    InvalidPermutation,
    NoSuchSubgroups,
    NotAPGroup,
    NotASubgroup,
    PreconditionViolated,
)

DEFAULT_ORDER_CAP = 1024

_GEN_SYMBOLS = "abcdefghijklmnopqrstuvwxyz"


def order_cap():
    """Construction cap on group order; CHARPOSET_ORDER_CAP overrides."""
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
    return cap


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


def p_part(n, p):
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


@dataclass(frozen=True, eq=False)
class GroupTable:
    """A finite group given by its full multiplication table.

    mul[x][y] is the index of x*y; element 0 is the identity. Data derived
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

    def conj(self, x, g):
        """g^{-1} x g."""
        return int(self.mul[self.mul[self.inv[g], x], g])

    def conj_set(self, members, g):
        """Image of a member array under conjugation by g."""
        members = np.asarray(members)
        return self.mul[self.mul[self.inv[g], members], g]

    def power(self, x, k):
        acc = 0
        b = int(x)
        k = int(k)
        if k < 0:
            b = int(self.inv[b])
            k = -k
        while k:
            if k & 1:
                acc = int(self.mul[acc, b])
            b = int(self.mul[b, b])
            k >>= 1
        return acc

    def exponent(self):
        return lcm(*(int(k) for k in self.elem_order))

    def is_abelian(self):
        return bool((self.mul == self.mul.T).all())

    def word(self, x):
        if self.words is not None:
            return self.words[x]
        return str(x)

    def __repr__(self):
        return f"GroupTable({self.label}, order={self.order})"


def _elem_orders(mul):
    n = mul.shape[0]
    out = np.zeros(n, dtype=np.int64)
    for x in range(n):
        k = 1
        y = x
        while y != 0:
            y = int(mul[y, x])
            k += 1
        out[x] = k
    return out


def table_from_mul(mul, label="G", words=None, direct_factors=None,
                   semidirect_parts=None):
    """Build a GroupTable from a raw multiplication table (identity = 0)."""
    mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int32))
    n = mul.shape[0]
    if mul.shape != (n, n):
        raise ValueError("multiplication table must be square")
    rng = np.arange(n, dtype=np.int32)
    if not (mul[0] == rng).all() or not (mul[:, 0] == rng).all():
        raise ValueError("element 0 is not a two-sided identity")
    inv = np.zeros(n, dtype=np.int32)
    for x in range(n):
        hits = np.flatnonzero(mul[x] == 0)
        if hits.size != 1:
            raise ValueError("table rows must be permutations")
        inv[x] = hits[0]
    elem_order = _elem_orders(mul)
    mul.setflags(write=False)
    inv.setflags(write=False)
    elem_order.setflags(write=False)
    return GroupTable(order=n, mul=mul, inv=inv, elem_order=elem_order,
                      label=label, words=words, direct_factors=direct_factors,
                      semidirect_parts=semidirect_parts)


def validate_group_table(G, check_associativity=True):
    """Exhaustive structural validation; used by test builds (n <= 256)."""
    n = G.order
    mul = G.mul
    rng = np.arange(n)
    assert all((np.sort(mul[x]) == rng).all() for x in range(n)), "not a Latin square (rows)"
    assert all((np.sort(mul[:, x]) == rng).all() for x in range(n)), "not a Latin square (cols)"
    assert (mul[0] == rng).all() and (mul[:, 0] == rng).all(), "identity broken"
    assert all(mul[x, G.inv[x]] == 0 for x in range(n)), "inverses broken"
    if check_associativity and n <= 256:
        for z in range(n):
            left = mul[:, z][mul]            # (x*y)*z
            right = mul[:, mul[:, z]]        # x*(y*z)
            assert (left == right).all(), "associativity fails"
    for x in range(n):
        k = int(G.elem_order[x])
        assert G.power(x, k) == 0 and all(G.power(x, j) != 0 for j in range(1, k))
        assert n % k == 0, "element order does not divide group order"
    return True


def _compose(a, b):
    """Permutation product 'a then b' on points."""
    return tuple(b[a[i]] for i in range(len(a)))


def closure_of_permutations(degree, gens, label="G", cap=None):
    """BFS closure over generator words; returns (GroupTable, perm->index map).

    Element enumeration is breadth-first over words, generators in input
    order, so numbering is reproducible.
    """
    if cap is None:
        cap = order_cap()
    gens = [tuple(int(i) for i in g) for g in gens]
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise InvalidPermutation(f"not a bijection on {degree} points: {g}")
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident: 0}
    words = ["e"]
    syms = [
        _GEN_SYMBOLS[i] if i < len(_GEN_SYMBOLS) else f"g{i}"
        for i in range(len(gens))
    ]
    pos = 0
    while pos < len(elems):
        cur = elems[pos]
        for gi, g in enumerate(gens):
            new = _compose(cur, g)
            if new not in index:
                if len(elems) >= cap:
                    raise ClosureCapExceeded(
                        f"closure exceeds cap {cap} (degree {degree})")
                index[new] = len(elems)
                elems.append(new)
                words.append(syms[gi] if pos == 0 else words[pos] + "*" + syms[gi])
        pos += 1
    n = len(elems)
    mul = np.zeros((n, n), dtype=np.int32)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            mul[i, j] = index[_compose(a, b)]
    table = table_from_mul(mul, label=label, words=tuple(words))
    return table, index


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
    local: GroupTable
    index_of: dict
    member_set: frozenset
    mask: np.ndarray

    @property
    def order(self):
        return len(self.members)

    def contains(self, other):
        return other.member_set <= self.member_set

    def __repr__(self):
        return f"Subgroup(order={self.order} of {self.parent.label})"


def make_subgroup(G, members, check=True):
    """Wrap a closed member set of G as a Subgroup with its induced table."""
    members = tuple(sorted(int(m) for m in set(members)))
    if not members or members[0] != 0:
        raise NotASubgroup("subgroup must contain the identity")
    marr = np.array(members, dtype=np.int32)
    lut = np.full(G.order, -1, dtype=np.int32)
    lut[marr] = np.arange(len(members), dtype=np.int32)
    prods = G.mul[np.ix_(marr, marr)]
    local_mul = lut[prods]
    if (local_mul < 0).any():
        raise NotASubgroup("member set is not closed under multiplication")
    if check and (lut[G.inv[marr]] < 0).any():
        raise NotASubgroup("member set is not closed under inversion")
    local = table_from_mul(
        local_mul,
        label=f"{G.label}|{{{len(members)}}}",
        words=tuple(G.word(m) for m in members) if G.words else None,
    )
    mask = np.zeros(G.order, dtype=bool)
    mask[marr] = True
    mask.setflags(write=False)
    return Subgroup(parent=G, members=members, local=local,
                    index_of={int(m): i for i, m in enumerate(members)},
                    member_set=frozenset(members), mask=mask)


def whole_group_subgroup(G):
    return make_subgroup(G, range(G.order), check=False)


def closure_members(G, seed):
    """Member tuple of the smallest subgroup of G containing seed.

    Breadth-first over words in the seed: only the elements found in the
    last round are multiplied by the seed. In a finite group the nonempty
    words already contain every inverse, so this is the generated subgroup.
    """
    gens = np.unique(np.array([int(s) for s in seed], dtype=np.int64))
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        found = np.unique(G.mul[np.ix_(frontier, gens)])
        frontier = found[~mask[found]]
        mask[frontier] = True
    return tuple(int(x) for x in np.flatnonzero(mask))


def subgroup_closure(G, seed):
    """Smallest subgroup of G containing the seed element indices."""
    for s in seed:
        if not 0 <= int(s) < G.order:
            raise PreconditionViolated(f"seed element {s} out of range")
    return make_subgroup(G, closure_members(G, seed), check=False)


def conjugate_subgroup(G, H, g):
    """H^g = {g^-1 h g : h in H}."""
    if H.parent is not G:
        raise NotASubgroup("subgroup belongs to a different parent group")
    return make_subgroup(G, (int(x) for x in G.conj_set(H.members, g)),
                         check=False)


def normalizer(G, H):
    """N_G(H) = {g : H^g = H}."""
    if H.parent is not G:
        raise NotASubgroup("subgroup belongs to a different parent group")
    marr = np.array(H.members, dtype=np.int32)
    t = G.mul[G.inv[:, None], marr[None, :]]           # (n, |H|)
    imgs = G.mul[t, np.arange(G.order, dtype=np.int32)[:, None]]
    ok = H.mask[imgs].all(axis=1)
    return make_subgroup(G, (int(x) for x in np.flatnonzero(ok)), check=False)


def centralizer_members(G, members):
    members = np.asarray(members, dtype=np.int32)
    ok = (G.mul[:, members] == G.mul[members, :].T).all(axis=1)
    return tuple(int(x) for x in np.flatnonzero(ok))


def center(G):
    """Z(G)."""
    return make_subgroup(G, centralizer_members(G, np.arange(G.order)),
                         check=False)


def omega1(P, p):
    """Subgroup of the p-group P generated by its elements of order <= p."""
    G = P.parent
    if not is_p_power(P.order, p):
        raise NotAPGroup(f"|P| = {P.order} is not a power of {p}")
    gens = [m for m in P.members if int(G.elem_order[m]) in (1, p)]
    sub = make_subgroup(G, closure_members(G, gens), check=False)
    if not P.member_set >= sub.member_set:
        raise NotASubgroup("omega1 escaped P; P is not closed")
    return sub


def _extend_p_subgroup(G, mem, p):
    """Index-p overgroups of the p-subgroup with member tuple `mem`."""
    H = make_subgroup(G, mem, check=False)
    nz = normalizer(G, H)
    out = set()
    hset = H.member_set
    for x in nz.members:
        if x in hset or not is_p_power(int(G.elem_order[x]), p):
            continue
        if G.power(x, p) not in hset:
            continue
        members = set(mem)
        cur = np.array(mem, dtype=np.int32)
        for _ in range(p - 1):
            cur = G.mul[cur, x]
            members.update(int(v) for v in cur)
        if len(members) != p * len(mem):
            raise AssertionError("coset union has wrong size")
        out.add(tuple(sorted(members)))
    return out


def _p_subgroup_levels(G, p):
    """All p-subgroups of G by order exponent: {k: sorted member tuples}."""
    lvl1 = sorted({
        tuple(sorted({G.power(x, i) for i in range(p)}))
        for x in range(G.order) if int(G.elem_order[x]) == p
    })
    levels = {}
    if not lvl1:
        return levels
    levels[1] = lvl1
    k = 1
    while True:
        nxt = set()
        for mem in levels[k]:
            nxt |= _extend_p_subgroup(G, mem, p)
        if not nxt:
            break
        k += 1
        levels[k] = sorted(nxt)
    return levels


@dataclass(frozen=True, eq=False)
class PSubgroupLattice:
    """All p-subgroups of order > p^e with index-p cover relations."""

    group: GroupTable
    p: int
    e: int
    nodes: tuple
    covers: tuple          # (i, j) with nodes[i] maximal in nodes[j]
    sylow_ids: tuple
    node_index: dict       # member tuple -> node id

    @property
    def node_count(self):
        return len(self.nodes)

    def node_of_members(self, members):
        key = tuple(sorted(int(m) for m in members))
        return self.node_index[key]

    def nodes_of_order(self, order):
        return tuple(i for i, s in enumerate(self.nodes) if s.order == order)


def enumerate_p_subgroups(G, p, e=0):
    """Build the S_{p,e}(G) lattice bottom-up via normalizer extensions."""
    if not is_prime(p):
        raise PreconditionViolated(f"p = {p} is not prime")
    if e < 0:
        raise PreconditionViolated("e must be >= 0")
    levels = _p_subgroup_levels(G, p)
    node_members = []
    for k in sorted(levels):
        if p ** k > p ** e:
            node_members.extend(levels[k])
    nodes = tuple(make_subgroup(G, mem, check=False) for mem in node_members)
    node_index = {mem: i for i, mem in enumerate(node_members)}
    covers = []
    for j, K in enumerate(nodes):
        big = K.member_set
        target = K.order // p
        for i, H in enumerate(nodes):
            if H.order == target and H.member_set <= big:
                covers.append((i, j))
    if levels:
        full = p_part(G.order, p)
        if max(p ** k for k in levels) != full:
            raise AssertionError("p-subgroup enumeration missed a Sylow level")
        sylow_ids = tuple(i for i, s in enumerate(nodes) if s.order == full)
    else:
        sylow_ids = ()
    return PSubgroupLattice(group=G, p=p, e=e, nodes=nodes,
                            covers=tuple(covers), sylow_ids=sylow_ids,
                            node_index=node_index)


def frattini_of_p_group(P, p):
    """Phi(P) for a p-group P, computed two independent ways and compared."""
    G = P.parent
    if not is_p_power(P.order, p) or P.order < p:
        raise NotAPGroup(f"|P| = {P.order} is not a power of {p} with |P| >= {p}")
    # (b) closure of commutators and p-th powers
    gens = set()
    marr = np.array(P.members, dtype=np.int32)
    for x in P.members:
        gens.add(G.power(x, p))
        xy = G.mul[x, marr]
        yx = G.mul[marr, x]
        gens.update(int(v) for v in G.mul[G.inv[xy], yx])  # (xy)^-1 yx = [x,y]
    by_powers = closure_members(G, gens)
    # (a) intersection of the index-p subgroups of P
    if P.order == p:
        by_maximals = (0,)
    else:
        levels = _p_subgroup_levels(P.local, p)
        kmax = max(levels)
        if p ** kmax != P.order:
            raise NotAPGroup("P is not a p-group")
        common = None
        for mem in levels[kmax - 1]:
            s = set(mem)
            common = s if common is None else common & s
        by_maximals = tuple(sorted(P.members[i] for i in common))
    if by_powers != by_maximals:
        raise AssertionError("Frattini computations disagree")
    return make_subgroup(G, by_powers, check=False)


def common_intersection_of_order(G, p, k):
    """Intersection of all subgroups of G of order p^k."""
    if not is_prime(p) or k < 1:
        raise PreconditionViolated("need p prime and k >= 1")
    if G.order % (p ** k) != 0:
        raise NoSuchSubgroups(f"p^k = {p**k} does not divide |G| = {G.order}")
    levels = _p_subgroup_levels(G, p)
    if k not in levels or not levels[k]:
        raise NoSuchSubgroups(f"no subgroup of order {p**k}")
    common = None
    for mem in levels[k]:
        s = set(mem)
        common = s if common is None else common & s
    return make_subgroup(G, sorted(common), check=False)


def all_subgroups(G):
    """Cached build_all_subgroups; a test oracle, not used by the library."""
    return G.memo("all_subgroups", lambda: build_all_subgroups(G))


def build_all_subgroups(G):
    """Every subgroup of G, by breadth-first generator adjunction.

    Bounded scan per the non-goals: intended for the catalog's small orders.
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
    return tuple(make_subgroup(G, m, check=False) for m in ordered)


def direct_table_product(A, B, label=None):
    """External direct product of two tables, with flattened factor metadata."""
    na, nb = A.order, B.order
    n = na * nb
    ia = np.arange(na, dtype=np.int64)
    ib = np.arange(nb, dtype=np.int64)
    # element (i, j) -> i * nb + j; identity (0, 0) -> 0
    amul = A.mul.astype(np.int64)
    bmul = B.mul.astype(np.int64)
    mul = (np.kron(amul, np.ones((nb, nb), dtype=np.int64)) * nb
           + np.kron(np.ones((na, na), dtype=np.int64), bmul))
    words = None
    if A.words is not None and B.words is not None:
        words = tuple(
            f"({A.words[i]},{B.words[j]})" for i in ia for j in ib
        )
    a_factors = A.direct_factors or ((tuple(range(na)),) if na > 1 else ())
    b_factors = B.direct_factors or ((tuple(range(nb)),) if nb > 1 else ())
    factors = tuple(
        tuple(int(i) * nb for i in f) for f in a_factors
    ) + tuple(
        tuple(int(j) for j in f) for f in b_factors
    )
    return table_from_mul(
        mul.astype(np.int32),
        label=label or f"{A.label} x {B.label}",
        words=words,
        direct_factors=factors or None,
    )

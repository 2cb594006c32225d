"""Exact complex irreducible characters, stored as residues modulo a prime q.

The modulus satisfies q = 1 (mod exp(G)) and q > |G|^2, so GF(q) contains
every needed root of unity and all integer quantities compared by the rest
of the artifact (degrees, multiplicities, induction coefficients) are
recovered exactly from their residues. Values are never lifted to floating
point.

Irr(G) is made in one of three ways, all ending in the same validation:
abelian groups as Hom(G, GF(q)^*) (`abelian_rows`), non-abelian p-groups
from the tables of their maximal subgroups by Clifford theory
(`clifford_rows`, fed by `CharContext`), and every other group by Dixon's
eigenvector splitting (`dixon_rows`).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isqrt

import numpy as np

from .errors import (
    ContextMismatch,
    ModulusSearchFailed,
    NotASubgroup,
    PreconditionViolated,
    TableConstructionFailed,
)
from .group import (
    GroupTable,
    is_prime,
    p_lattice,
    prime_power,
    whole_group_subgroup,
)
from .modlinalg import charpoly, inv_mod, nullspace, roots_in_field, solve_right


@dataclass(frozen=True, eq=False)
class ConjugacyData:
    """Conjugacy classes of one group, in deterministic order.

    Classes are numbered by their minimum element, ascending, so class 0 is
    always the identity class.
    """

    group: GroupTable
    class_of: np.ndarray
    reps: tuple
    sizes: np.ndarray
    inverse_class: np.ndarray

    @property
    def count(self):
        return len(self.reps)


def _class_data(G, class_of, reps, sizes, inverse_class):
    """ConjugacyData over read-only arrays."""
    for a in (class_of, sizes, inverse_class):
        a.setflags(write=False)
    return ConjugacyData(group=G, class_of=class_of, reps=tuple(reps),
                         sizes=sizes, inverse_class=inverse_class)


def conjugacy_classes(G):
    """Classes of G: each element alone when G is abelian, else by orbits."""
    if not G.is_abelian():
        return classes_by_conjugation(G)
    n = G.order
    return _class_data(G, np.arange(n, dtype=np.int32), range(n),
                       np.ones(n, dtype=np.int64), G.inv.astype(np.int32))


def classes_by_conjugation(G):
    """Classes as conjugation orbits, each from its least element."""
    n = G.order
    class_of = np.full(n, -1, dtype=np.int32)
    reps = []
    rng = np.arange(n, dtype=np.int32)
    for x in range(n):
        if class_of[x] >= 0:
            continue
        t = G.mul[G.inv, x]
        class_of[G.mul[t, rng]] = len(reps)     # the orbit, with repeats
        reps.append(x)
    sizes = np.bincount(class_of, minlength=len(reps)).astype(np.int64)
    inverse_class = np.array([class_of[G.inv[r]] for r in reps], dtype=np.int32)
    return _class_data(G, class_of, reps, sizes, inverse_class)


_MODULUS_SEARCH_LIMIT = 10 ** 7     # candidates q = 1 (mod exp(G)) tried


def dixon_modulus(G):
    """Smallest prime q with q = 1 (mod exp(G)) and q > |G|^2."""
    e = G.exponent()
    n = G.order
    q = n * n + 1 + (-n * n) % e        # the least q = 1 (mod e) above n^2
    for _ in range(_MODULUS_SEARCH_LIMIT):
        if is_prime(q):
            return q
        q += e
    raise ModulusSearchFailed(f"no modulus below bound for |G| = {n}")


def _require_int64_headroom(order, q):
    """Reject q if a sum of |G| products of two residues could wrap int64.

    Row orthogonality and restriction multiplicities are such sums, and the
    modular linear algebra multiplies two residues before reducing.
    """
    if order * (q - 1) ** 2 >= 2 ** 63:
        raise PreconditionViolated(
            f"modulus {q} is too large for exact int64 sums over a group "
            f"of order {order}: need |G| (q-1)^2 < 2^63")


def _class_matrix(G, cls, i):
    """A_i with A_i[j, k] = #{(x, y) in C_i x C_j : x y = rep_k}."""
    m = cls.count
    members_i = np.flatnonzero(cls.class_of == i).astype(np.int32)
    reps = np.array(cls.reps, dtype=np.int32)
    ys = G.mul[G.inv[members_i][:, None], reps[None, :]]
    cj = cls.class_of[ys]                      # (|C_i|, m)
    A = np.zeros((m, m), dtype=np.int64)
    cols = np.broadcast_to(np.arange(m), cj.shape)
    np.add.at(A, (cj, cols), 1)
    return A


@dataclass(frozen=True, eq=False)
class Character:
    """One irreducible character: integer degree plus residues per class."""

    degree: int
    values: tuple
    id: int

    def __repr__(self):
        return f"Character(id={self.id}, degree={self.degree})"


@dataclass(frozen=True, eq=False)
class CharTable:
    group: GroupTable
    classes: ConjugacyData
    q: int
    chars: tuple

    @property
    def count(self):
        return len(self.chars)

    def values_matrix(self):
        """The (characters, classes) int64 array of values, read-only."""
        return self._values

    @cached_property
    def _values(self):
        V = np.array([c.values for c in self.chars], dtype=np.int64)
        V.setflags(write=False)
        return V


def _eigenvector_splitting(G, cls, q):
    """Common eigenvectors of all class matrices, split deterministically."""
    m = cls.count
    spaces = [np.eye(m, dtype=np.int64)]
    for i in range(1, m):
        if all(B.shape[1] == 1 for B in spaces):
            break
        A = _class_matrix(G, cls, i)
        nxt = []
        for B in spaces:
            d = B.shape[1]
            if d == 1:
                nxt.append(B)
                continue
            R = solve_right(B, (A @ B) % q, q)
            eigs = roots_in_field(charpoly(R, q), q)
            found = 0
            for lam in eigs:
                Nb = nullspace((R - lam * np.eye(d, dtype=np.int64)) % q, q)
                if Nb.shape[1]:
                    nxt.append((B @ Nb) % q)
                    found += Nb.shape[1]
            if found != d:
                raise TableConstructionFailed(
                    "class matrix failed to diagonalize")
        spaces = nxt
    if not all(B.shape[1] == 1 for B in spaces):
        raise TableConstructionFailed(
            "common eigenspaces did not split to dimension 1")
    return spaces


def dixon_rows(G, cls, q):
    """Irr(G) as (degree, values) rows, from the class matrices (Dixon)."""
    n = G.order
    m = cls.count
    spaces = _eigenvector_splitting(G, cls, q)
    inv_sizes = np.array([inv_mod(s, q) for s in cls.sizes], dtype=np.int64)
    rows = []
    for B in spaces:
        v = B[:, 0] % q
        v = v * inv_mod(v[0], q) % q               # central character, omega(1) = 1
        s = int((v * v[cls.inverse_class] % q * inv_sizes % q).sum() % q)
        d2 = n * inv_mod(s, q) % q                 # degree^2 as a residue
        d = isqrt(d2)
        if d * d != d2 or not 1 <= d <= isqrt(n):
            raise TableConstructionFailed("degree recovery failed")
        vals = tuple(int(d * v[k] % q * inv_sizes[k] % q) for k in range(m))
        rows.append((d, vals))
    return rows


def abelian_rows(G, q):
    """Irr(G) = Hom(G, GF(q)^*) of an abelian G, as (1, values) rows.

    Fixes omega of order exp(G) and walks a chain 1 = H_0 < H_1 < ... = G
    with H_{i+1} = <H_i, g>, g the least element outside H_i. If k is the
    least exponent with g^k in H_i, every chi of H_i extends in exactly k
    ways, by chi(g) = omega^s with k s = log chi(g^k) (mod exp(G)). Since
    the classes of G are its elements, the values are the rows of
    omega^logs.
    """
    n, e = G.order, G.exponent()
    omega = _roots_of_unity(q, e)
    logs = np.zeros((1, n), dtype=np.int64)    # logs[c, x] = log chi_c(x), x in H
    inside = np.zeros(n, dtype=bool)
    inside[0] = True
    H = np.zeros(1, dtype=np.int64)
    while H.size < n:
        g = int(np.argmin(inside))
        powers = [0]
        x = g
        while not inside[x]:
            powers.append(x)
            x = int(G.mul[x, g])
        k = len(powers)                        # x = g^k is in H
        a = logs[:, x]
        if (a % k).any():
            raise TableConstructionFailed(
                f"a character of a subgroup of order {H.size} does not "
                f"extend to <H, {g}>")
        s = (a // k)[:, None] + np.arange(k) * (e // k)     # (chars, k)
        j = np.arange(k)[:, None]
        # extension (c, t) takes g^j h to j s[c, t] + log chi_c(h)
        vals = (j * s[:, :, None, None] + logs[:, None, None, H]) % e
        coset_elems = G.mul[np.array(powers)[:, None], H[None, :]].ravel()
        logs = np.zeros((s.size, n), dtype=np.int64)
        logs[:, coset_elems] = vals.reshape(s.size, -1)
        inside[coset_elems] = True
        H = coset_elems
    return [(1, tuple(row)) for row in omega[logs].tolist()]


def clifford_rows(G, cls, q, p, covers):
    """Irr(G) of a non-abelian p-group G from the tables of maximal subgroups.

    `covers` yields (members, table) pairs for maximal subgroups L: Irr(L)
    mod q, and members[t] the index in G of L's element t, in any order.
    L is normal of index p, so G = L<y> for y the least element outside L.
    - Linear: each linear chi restricts to a G-invariant linear psi of the
      first L, and each such psi extends in p ways, chi(m y^j) =
      psi(m) mu^j with mu^p = psi(y^p), on exponents of omega of order
      exp(G) as in `abelian_rows`.
    - Non-linear: a theta in Irr(L) that y moves induces irreducibly
      (Clifford), theta^G(g) = sum_j theta(y^-j g y^j) on L and 0 off it.
      G is an M-group, so each non-linear chi is lambda^G for a linear
      lambda below some L, and theta = lambda^L is such a moved theta.
    Covers are read until the degree squares sum to |G|.
    """
    n, e = G.order, G.exponent()
    omega = _roots_of_unity(q, e)
    by_residue = np.argsort(omega)
    reps = np.array(cls.reps, dtype=np.int64)
    found = {}                                 # values -> degree
    total = 0
    for k, (mem, tL) in enumerate(covers):
        mem = np.asarray(mem)
        local = np.full(n, -1, dtype=np.int64)
        local[mem] = np.arange(len(mem))
        y = int(np.argmin(local >= 0))
        ys = [0]
        for _ in range(p - 1):
            ys.append(int(G.mul[ys[-1], y]))
        ys = np.array(ys)                      # y^0, ..., y^(p-1)
        lcls = tL.classes
        V = tL.values_matrix()
        degrees = np.array([c.degree for c in tL.chars])
        sigma = lcls.class_of[local[G.conj_set(mem[list(lcls.reps)], y)]]
        fixed = (V[:, sigma] == V).all(axis=1)
        if k == 0:
            lin = V[fixed & (degrees == 1)]
            logs = by_residue[np.searchsorted(omega, lin, sorter=by_residue)
                              .clip(max=e - 1)]
            if (omega[logs] != lin).any():
                raise TableConstructionFailed(
                    "a linear character value is not a power of omega")
            a = logs[:, lcls.class_of[local[G.mul[ys[-1], y]]]]   # psi(y^p)
            if (a % p).any():
                raise TableConstructionFailed(
                    "an invariant linear character does not extend")
            mu = (a // p)[:, None] + np.arange(p) * (e // p)
            # each class rep r is m y^j with m = r y^-j in L
            cand = G.mul[reps[:, None], G.inv[ys]]
            j = np.argmax(local[cand] >= 0, axis=1)
            m = cand[np.arange(reps.size), j]
            ext = (logs[:, None, lcls.class_of[local[m]]]
                   + mu[:, :, None] * j) % e
            found.update((tuple(row), 1) for row
                         in omega[ext].reshape(-1, reps.size).tolist())
            total += ext.shape[0] * p
        moved = ~fixed
        inside = local[reps] >= 0
        conj = G.mul[G.mul[G.inv[ys], reps[inside, None]], ys]
        induced = V[moved][:, lcls.class_of[local[conj]]].sum(axis=2) % q
        vals = np.zeros((induced.shape[0], reps.size), dtype=np.int64)
        vals[:, inside] = induced
        for d, row in zip((p * degrees[moved]).tolist(), vals.tolist()):
            row = tuple(row)
            if row not in found:
                found[row] = d
                total += d * d
        if total == n:
            break
    return [(d, vals) for vals, d in found.items()]


def _validated_table(G, cls, q, rows):
    """The CharTable of rows, sorted, after the checks all three paths share."""
    n = G.order
    if len(rows) != cls.count:
        raise TableConstructionFailed("wrong number of characters")
    if sum(d * d for d, _ in rows) != n:
        raise TableConstructionFailed("degree squares do not sum to |G|")
    if any(n % d for d, _ in rows):
        raise TableConstructionFailed("character degree does not divide |G|")
    chars = tuple(Character(degree=d, values=vals, id=i)
                  for i, (d, vals) in enumerate(sorted(rows)))
    table = CharTable(group=G, classes=cls, q=q, chars=chars)
    if not check_row_orthogonality(table):
        raise TableConstructionFailed("row orthogonality failed")
    return table


def irr_table(G, q):
    """Full irreducible character table of G as residues mod q.

    An abelian G takes Hom(G, GF(q)^*) directly (`abelian_rows`); any other
    group is split by Dixon's method (`dixon_rows`), which serves as the
    oracle for `clifford_rows` on p-groups.
    """
    cls = conjugacy_classes(G)
    _require_int64_headroom(G.order, q)
    rows = abelian_rows(G, q) if G.is_abelian() else dixon_rows(G, cls, q)
    return _validated_table(G, cls, q, rows)


def class_products(table, A, B):
    """[A_i, B_j] = sum_c |c| A_i(c) B_j(c^-1) / |G| mod q, in [0, q), for
    all rows A_i of A and B_j of B, class functions of table's group."""
    q = table.q
    cls = table.classes
    A = np.asarray(A, dtype=np.int64) % q
    B = np.asarray(B, dtype=np.int64) % q
    W = A * (cls.sizes % q) % q
    return W @ B[:, cls.inverse_class].T % q * inv_mod(table.group.order, q) % q


def inner_product(table, a, b):
    """[a, b] for class functions mod q, lifted to its integer value in [0, q)."""
    if np.shape(a) != (table.classes.count,) or np.shape(b) != np.shape(a):
        raise ContextMismatch("class functions do not match the table's classes")
    return int(class_products(table, [a], [b])[0, 0])


def check_row_orthogonality(table):
    """[chi_i, chi_k] = delta_ik for all rows, as one product mod q."""
    V = table.values_matrix()
    return np.array_equal(class_products(table, V, V),
                          np.eye(table.count, dtype=np.int64))


class CharContext:
    """Shared-modulus character tables for one parent group and its subgroups.

    A table is cached on the subgroup's own multiplication table (S.local,
    G for the whole group) under ("irr", q), so the subgroups that share a
    local table (`make_subgroups`) share one CharTable: classes are
    numbered by least local element and rows sorted, so Irr depends on the
    local table only. A subgroup made on its own (Phi(G), a normalizer)
    has its own local table, and so its own CharTable. Each table is built
    from the group it belongs to: one that is not a p-group, or is abelian,
    through `irr_table`, and a non-abelian p-group (a node of the parent's
    S_{p,0} lattice, or G itself) by `clifford_rows` from its lower covers
    in the lattice. A cover R^g is read through its class representative
    R, as Irr(R) on R's members carried into the node by g, so a Clifford
    build asks only for class representatives' tables.

    The Gamma build (`gamma.build_gamma_poset`) also asks only for class
    representatives' tables and reaches every other node by transport;
    `restrict_values` and `induce` may ask for any subgroup's. The cache
    follows a single-writer/multi-reader contract; tables themselves are
    immutable.
    """

    def __init__(self, G, q=None):
        self.group = G
        self.q = q if q is not None else dixon_modulus(G)
        _require_int64_headroom(G.order, self.q)

    def table(self, S=None):
        """CharTable of the subgroup S (or of the whole group if S is None)."""
        G = self.group
        if S is None:
            T, members = G, tuple(range(G.order))
        elif S.parent is not G:
            raise ContextMismatch("subgroup belongs to a different group")
        else:
            T, members = S.local, S.members
        return T.memo(("irr", self.q), lambda: self._build(T, members))

    def _build(self, T, members):
        """Irr of the subgroup with these members, whose own table is T."""
        pk = prime_power(T.order)
        if pk is None or T.is_abelian():
            return irr_table(T, self.q)
        lat = p_lattice(self.group, pk[0])
        marr = np.array(members, dtype=np.int64)
        covers = (self._cover(lat, j, marr)
                  for j in lat.lower[lat.node_index[members]])
        cls = conjugacy_classes(T)
        return _validated_table(
            T, cls, self.q, clifford_rows(T, cls, self.q, pk[0], covers))

    def _cover(self, lat, j, marr):
        """Lower cover j = R^g of the node with members marr, as (at, Irr(R)):
        at[t] is the node-local index of g^-1 R[t] g."""
        r, g = lat.conjugates[j]
        R = lat.nodes[r]
        img = self.group.conj_set(R.members, g)
        at = np.searchsorted(marr, img).clip(max=marr.size - 1)
        if (marr[at] != img).any():
            raise TableConstructionFailed("the subgroups are not conjugate by g")
        return at, self.table(R)

    def whole(self):
        return whole_group_subgroup(self.group)


def restrict_values(ctx, K, psi, H):
    """psi|_H as a class-function vector over H's classes (mod ctx.q)."""
    tK = ctx.table(K)
    tH = ctx.table(H)
    if (H.mask & ~K.mask).any():
        raise NotASubgroup("H is not contained in K")
    reps = np.array(H.members)[list(tH.classes.reps)]
    fusion = tK.classes.class_of[np.searchsorted(K.members, reps)]
    return np.asarray(psi.values, dtype=np.int64)[fusion]


def decompose_restriction(ctx, K, psi, H):
    """Multiplicity vector of psi|_H over Irr(H)."""
    tH = ctx.table(H)
    vals = restrict_values(ctx, K, psi, H)
    mults = tuple(class_products(tH, [vals], tH.values_matrix())[0].tolist())
    if sum(m * phi.degree for m, phi in zip(mults, tH.chars)) != psi.degree:
        raise TableConstructionFailed("restriction degrees do not add up")
    return mults


@dataclass(frozen=True, eq=False)
class InducedCharacter:
    """theta^G: values over G's classes plus its decomposition into Irr(G)."""

    values: tuple
    decomposition: tuple
    degree: int


def induce(ctx, H, theta):
    """Induced class function theta^G with its Irr(G) decomposition."""
    G = ctx.group
    if H.parent is not G:
        raise NotASubgroup("H is not a subgroup of the context group")
    q = ctx.q
    tG = ctx.table(None)
    tH = ctx.table(H)
    # theta as a function on parent elements, zero outside H
    theta_parent = np.zeros(G.order, dtype=np.int64)
    marr = np.array(H.members, dtype=np.int32)
    theta_vals = np.asarray(theta.values, dtype=np.int64)
    theta_parent[marr] = theta_vals[tH.classes.class_of]
    inv_h = inv_mod(H.order, q)
    rng = np.arange(G.order, dtype=np.int32)
    values = []
    for g in tG.classes.reps:
        conj = G.mul[G.mul[G.inv, g], rng]      # x^{-1} g x over all x
        inside = conj[H.mask[conj]]
        values.append(int(theta_parent[inside].sum() % q * inv_h % q))
    values = tuple(values)
    degree = (G.order // H.order) * theta.degree
    if values[0] != degree % q:
        raise TableConstructionFailed("induced degree mismatch")
    decomposition = tuple(
        class_products(tG, [values], tG.values_matrix())[0].tolist())
    if sum(m * chi.degree for m, chi in zip(decomposition, tG.chars)) != degree:
        raise TableConstructionFailed(
            "induction decomposition degrees do not add up")
    return InducedCharacter(values=values, decomposition=decomposition,
                            degree=degree)


def _roots_of_unity(q, e):
    """omega^i for 0 <= i < e, for a fixed omega of order e in GF(q)^*."""
    if (q - 1) % e:
        raise TableConstructionFailed(f"q = {q} is not 1 mod exp(G) = {e}")
    omega = pow(_primitive_root(q), (q - 1) // e, q)
    return np.array([pow(omega, i, q) for i in range(e)], dtype=np.int64)


def _primitive_root(q):
    factors = []
    m = q - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for r in range(1, q):      # 1 generates GF(2)^* only
        if all(pow(r, (q - 1) // f, q) != 1 for f in factors):
            return r
    raise TableConstructionFailed(f"no primitive root mod {q}")

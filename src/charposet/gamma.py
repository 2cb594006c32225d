"""Character-augmented p-subgroup posets and claim verification.

S(p, e) is the inclusion poset of p-subgroups of order > p^e, a
`PSubgroupLattice`. Gamma(p, e) augments each subgroup H with its irreducible
characters; (H, phi) <= (K, psi) when H <= K and phi occurs in the
restriction of psi to H. A `GammaPoset` numbers its nodes by subgroup, then
character, and keeps its edges as one int array. Components of both posets
are computed over index-p cover edges, which induce the same partition as the
full comparability relation (every inclusion refines into index-p steps
through intermediate subgroups of admissible order).
"""
from __future__ import annotations

import json
import time
from dataclasses import asdict, astuple, dataclass, fields
from itertools import groupby

import numpy as np

from .chartab import (
    CharContext,
    class_products,
    decompose_restriction,
    induce,
)
from .errors import (
    CharposetError,
    CrossCheckFailed,
    HypothesisNotSatisfied,
    NotAPGroup,
    NotASylowNode,
    PreconditionViolated,
    TableConstructionFailed,
)
from .group import (
    PSubgroupLattice,
    center,
    closure_members,
    common_intersection_of_order,
    enumerate_p_subgroups,
    frattini_of_p_group,
    is_p_power,
    is_prime,
    make_subgroup,
    normalizer,
    omega1,
    p_valuation,
    validate_semidirect,
    whole_group_subgroup,
)
from .poset import Partition, components


def _power_text(p, k):
    """p^k in decimal, or as "p^k" when it would take over 64 bits.

    e is unbounded, and a huge power is slow to form and too long to print.
    """
    return str(p ** k) if k * p.bit_length() <= 64 else f"{p}^{k}"


def char_context(G):
    """The shared-modulus character context of G (cached per table)."""
    return G.memo("char_context", lambda: CharContext(G))


# --- S_{p,e}(G) -----------------------------------------------------------

def build_s_poset(G, p, e):
    """S_{p,e}(G) as its PSubgroupLattice, with the partition computed."""
    lat = enumerate_p_subgroups(G, p, e)
    lat.partition               # found here, not at its first read
    return lat


def s_poset(G, p, e):
    """Cached build_s_poset."""
    return G.memo(("s_poset", p, e), lambda: build_s_poset(G, p, e))


def _generating_set(G):
    """Greedy generators: the least element outside the subgroup so far.

    A test oracle, kept in src/ for s_node_images.
    """
    gens = []
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    while not mask.all():
        gens.append(int(np.argmin(mask)))
        mask[list(closure_members(G, gens))] = True
    return gens


def s_node_images(lat):
    """img[k, i] = lattice node id of (node i)^g = g^-1 (node i) g, for the
    k-th element g of _generating_set(G).

    Each generator conjugates the nodes a level (the nodes of one order) at
    a time in one gather, and each sorted row is looked up as a member
    tuple. Returns an int32 array of shape (generators, nodes). A test
    oracle, not used by the library; it stays in src/ because the
    benchmark's tracer wraps it by name.
    """
    G = lat.group
    levels = [np.array([s.members for s in level])
              for _, level in groupby(lat.nodes, key=lambda s: s.order)]
    gens = _generating_set(G)
    rows = [lat.node_index[tuple(row)] for g in gens for level in levels
            for row in np.sort(G.conj_set(level, g), axis=1).tolist()]
    return np.array(rows, dtype=np.int32).reshape(len(gens), lat.node_count)


# --- Gamma_{p,e}(G) -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GammaPoset:
    """Gamma_{p,e}(G): node offsets[i] + a is (S node i, character a).

    offsets (one entry per S node, then the node count) and edges, an
    (edges, 2) array of node pairs, are read-only int64 arrays.
    """

    s: PSubgroupLattice
    offsets: np.ndarray
    edges: np.ndarray
    partition: Partition

    @property
    def node_count(self):
        return int(self.offsets[-1])


def restriction_multiplicities(tH, tK, fusion):
    """Matrix M[a, b] = [phi_a, (psi_b)|_H] over Irr(H) x Irr(K), exactly.

    fusion[c] is the class of K that holds H's class c, so psi|_H has the
    values psi[fusion] over H's classes.
    """
    return class_products(tH, tH.values_matrix(),
                          tK.values_matrix()[:, fusion])


def _transported_rows(G, R, tR, gs, members):
    """pi[k, a]: the row of tR that row a of Irr(R^g) is, g = gs[k].

    The characters of S = R^g are the phi^g, phi^g(y) = phi(g y g^-1). S's
    classes are numbered by their least element and its rows sorted by
    degree, then values, as CharContext.table numbers and sorts them.
    members[k] is the member tuple of R^(gs[k]), which is checked.
    """
    img = G.conj_set(R.members, gs[:, None])
    if not np.array_equal(np.sort(img, axis=1), members):
        raise TableConstructionFailed("the subgroups are not conjugate by g")
    cls = tR.classes
    by_class = np.argsort(cls.class_of, kind="stable")
    starts = np.searchsorted(cls.class_of[by_class], np.arange(cls.count))
    least = np.minimum.reduceat(img[:, by_class], starts, axis=1)
    cols = tR.values_matrix()[:, np.argsort(least, axis=1)]  # (rows, k, m)
    degrees = np.array([c.degree for c in tR.chars])
    keys = np.concatenate([cols.T[::-1], np.broadcast_to(
        degrees, (1, len(gs), degrees.size))])
    return np.lexsort(keys)


def _cover_keys(G, lat, tables, g):
    """Each cover's key (r_H, r_K, f), as the rows of one int array.

    r_H (r_K) is the least representative with R_H's (R_K's) table object.
    f[c] is the class of R_K that holds g_j g_i^-1 x g_i g_j^-1 for the
    representative x of R_H's class c, padded with 0s (the identity's
    class) to the longest R_H. Returns (keys, key_of): the distinct rows,
    sorted, and each cover's row index.
    """
    pos = np.zeros(lat.node_count, dtype=np.int64)    # row of r's table
    pos[list(tables)] = np.arange(len(tables))
    width = max(t.classes.count for t in tables.values())
    # class_in[pos[r], y] = R's class of the element y of G, -1 outside R
    class_in = np.full((len(tables), G.order), -1, dtype=np.int32)
    reps = np.zeros((len(tables), width), dtype=np.int64)
    for r, t in tables.items():
        mem = np.array(lat.nodes[r].members)
        class_in[pos[r], mem] = t.classes.class_of
        reps[pos[r], :t.classes.count] = mem[list(t.classes.reps)]
    rep = pos[lat.conjugates[:, 0]]
    i, j = lat.covers.T
    h = G.prod(g[i], G.inv[g[j]])
    fusion = class_in[rep[j, None], G.conj_set(reps[rep[i]], h[:, None])]
    if (fusion < 0).any():
        raise TableConstructionFailed("a cover is not an inclusion")
    first = {}                          # table id -> least representative
    owner = np.array([first.setdefault(id(t), r) for r, t in tables.items()])
    return _distinct_rows(
        np.column_stack([owner[rep[i]], owner[rep[j]], fusion]))


def _distinct_rows(rows):
    """np.unique(rows, axis=0, return_inverse=True) of a 2-D int array."""
    order = np.lexsort(rows.T[::-1])
    rows = rows[order]
    new = np.ones(len(rows), dtype=bool)
    new[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    key_of = np.empty(len(rows), dtype=np.int64)
    key_of[order] = np.cumsum(new) - 1
    return rows[new], key_of


def build_gamma_poset(G, p, e):
    """Gamma_{p,e}(G) over the cover edges of S_{p,e}(G).

    Only the class representatives' tables are built. Node i = R^g, with
    lattice.conjugates[i] = (r, g), takes its characters by transport,
    phi^g(y) = phi(g y g^-1), and row a of its table is row pi_i[a] of R's
    (`_transported_rows`; pi_r is the identity). Conjugation keeps
    multiplicities, [phi^g, psi^g|_(H^g)] = [phi, psi|_H]. So a cover
    (i, j) with conjugates (r_H, g_i) and (r_K, g_j) has the matrix of R_H
    in R_K under the class fusion f: x -> g_j g_i^-1 x g_i g_j^-1, from
    R_H's class representatives into R_K's classes, with rows pi_i and
    columns pi_j. That matrix is computed once per key (table of R_H,
    table of R_K, f) (`_cover_keys`), and its nonzero entries give the
    edges of every cover with that key. The edges are listed in the order
    of lattice.covers (by upper node, then lower node), row-major in each.
    """
    lat = s_poset(G, p, e)
    ctx = char_context(G)
    rep, g = lat.conjugates[:, 0].tolist(), lat.conjugates[:, 1]
    by_rep = {}
    for i, r in enumerate(rep):
        by_rep.setdefault(r, []).append(i)
    tables = {r: ctx.table(lat.nodes[r]) for r in by_rep}
    offsets = np.cumsum([0] + [tables[r].count for r in rep])
    # slot[offsets[i] + a] = the node of Gamma that R's row a is at node i
    slot = np.arange(offsets[-1], dtype=np.int64)
    for r, (_, *ids) in by_rep.items():
        if ids:
            members = np.array([lat.nodes[i].members for i in ids])
            pi = _transported_rows(G, lat.nodes[r], tables[r], g[ids],
                                   members)
            first = offsets[ids, None]
            slot[first + pi] = first + np.arange(pi.shape[1])

    pairs = np.empty((0, 2), dtype=np.int64)
    if len(lat.covers):
        keys, key_of = _cover_keys(G, lat, tables, g)
        nonzero = []
        for rH, rK, *f in keys.tolist():
            tH = tables[rH]
            nonzero.append(np.nonzero(restriction_multiplicities(
                tH, tables[rK], f[:tH.classes.count])))
        a, b = (np.concatenate([nz[t] for nz in nonzero]) for t in (0, 1))
        size = np.array([nz[0].size for nz in nonzero])
        start = np.cumsum(size) - size      # key k's first entry of a, b
        per_cover = size[key_of]
        cover = np.repeat(np.arange(key_of.size), per_cover)
        # edge t of cover c is entry start[key_of[c]] + t of a and b
        entry = np.arange(cover.size) + np.repeat(
            start[key_of] - (np.cumsum(per_cover) - per_cover), per_cover)
        i, j = lat.covers[cover].T
        src = slot[offsets[i] + a[entry]]
        tgt = slot[offsets[j] + b[entry]]
        order = np.lexsort((tgt, src, cover))
        pairs = np.column_stack((src[order], tgt[order]))
    for a in (offsets, pairs):
        a.setflags(write=False)
    return GammaPoset(lat, offsets, pairs, components(offsets[-1], pairs))


def gamma_poset(G, p, e):
    """Cached build_gamma_poset (cover edges)."""
    return G.memo(("gamma_poset", p, e), lambda: build_gamma_poset(G, p, e))


def x_of_sylow(gamma, sylow_node):
    """|pi_0 X(P)|: Gamma components over subgroups S-connected to P."""
    if sylow_node not in gamma.s.sylow_ids:
        raise NotASylowNode(f"node {sylow_node} is not a Sylow node")
    s_of = gamma.s.partition.component_of
    # subgroup[n] = the S node of Gamma node n
    subgroup = np.repeat(np.arange(gamma.s.node_count), np.diff(gamma.offsets))
    inside = s_of[subgroup] == s_of[sylow_node]
    seen = np.bincount(gamma.partition.component_of[inside])
    return int(np.count_nonzero(seen))


# --- strongly embedded subgroups ------------------------------------------

def strongly_embedded_check(G, p, e, M):
    """Whether M is strongly p^(e+1)-embedded in G: p^(e+1) divides |M| but
    no |M intersect M^x| for x outside M (condition 5 of the five equivalent
    conditions of Quillen 1978, Prop. 5.2).

    One x per double coset MxM is enough: |M intersect M^(m x m')| =
    |M intersect M^x|, because M^(m x m') = (M^x)^m' and M^m' = M.
    """
    if M.parent is not G or M.order == G.order:
        raise PreconditionViolated("M must be a proper subgroup of G")
    if p_valuation(G.order, p) <= e:
        raise PreconditionViolated(
            f"{_power_text(p, e + 1)} does not divide |G|")
    pe1 = p ** (e + 1)
    if M.order % pe1:
        return False
    reps = np.array(_double_coset_reps(G, M), dtype=np.int64)[:, None]
    meets = M.mask[G.conj_set(M.members, reps)].sum(axis=1)
    return not (meets % pe1 == 0).any()


def _double_coset_reps(G, M):
    """One element g outside M for each double coset MgM != M."""
    marr = np.array(M.members, dtype=np.int32)
    covered = M.mask.copy()
    reps = []
    while not covered.all():
        g = int(np.argmin(covered))
        reps.append(g)
        covered[G.prod(G.prod(marr, g)[:, None], marr)] = True
    return reps


def has_strongly_embedded_subgroup(G, p, e):
    """Whether some proper subgroup of G satisfies condition 5.

    Only the overgroups of N_G(P0), for one Sylow p-subgroup P0, are tested.
    Lemma: if M satisfies condition 5 and P is a Sylow p-subgroup of M, then
    P is Sylow in G and N_G(P) <= M. Proof: an x in N_G(P) outside M would
    put P inside both M and M^x, and p^(e+1) divides |P|. If P were not
    Sylow in G, N_G(P) would hold a p-element x outside P, and x is outside
    M because <P, x> is a p-group larger than P. Condition 5 is invariant
    under conjugation and P = P0^g for some g, so M^(g^-1) contains N_G(P0).

    The overgroups are built upward from N_G(P0): <M, g> depends only on
    the double coset MgM, so M is extended by one element of each.
    """
    if p_valuation(G.order, p) <= e:
        return False
    lat = s_poset(G, p, e)
    N = normalizer(G, lat.nodes[lat.sylow_ids[0]])
    seen = {N.members}
    queue = [N.members]
    while queue:
        mem = queue.pop()
        if len(mem) == G.order:
            continue
        M = make_subgroup(G, mem)
        if strongly_embedded_check(G, p, e, M):
            return True
        for g in _double_coset_reps(G, M):
            over = closure_members(G, mem + (g,))
            if over not in seen:
                seen.add(over)
                queue.append(over)
    return False


# --- structural subgroup searches ------------------------------------------

def _sylow_has_cc_or_elem_abelian(G, p, e):
    """Does a Sylow contain C_{p^{e+1}} x C_{p^{e+1}} or elem. ab. p^{e+2}?

    Structural search over the p-subgroup lattice: a group of order
    p^(2e+2) that is abelian with exponent p^(e+1) and p^2 elements of order
    dividing p is homocyclic of rank 2; elementary abelian means exponent p.
    These are isomorphism invariants, so one node per G-class is read.
    """
    lat = enumerate_p_subgroups(G, p)
    for sub in (lat.nodes[r] for r in set(lat.conjugates[:, 0].tolist())):
        if sub.order == p ** (2 * e + 2):
            loc = sub.local
            if loc.is_abelian() and loc.exponent() == p ** (e + 1) and \
                    int((loc.elem_order <= p).sum()) == p * p:
                return True
        if sub.order == p ** (e + 2):
            if sub.local.is_abelian() and sub.local.exponent() == p:
                return True
    return False


# --- claim verification -----------------------------------------------------

@dataclass(frozen=True)
class VerificationReport:
    group: str
    p: int
    e: int
    claim: str
    observed: dict
    expected: dict
    status: str          # pass | fail | inapplicable
    millis: int

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)

    def csv_row(self):
        return [json.dumps(v, sort_keys=True) if isinstance(v, dict) else str(v)
                for v in astuple(self)]


CSV_COLUMNS = [f.name for f in fields(VerificationReport)]


def _require(cond, why):
    if not cond:
        raise HypothesisNotSatisfied(why)


def _require_pe1_divides(G, p, e):
    _require(p_valuation(G.order, p) > e,
             f"p^(e+1) = {_power_text(p, e + 1)} does not divide "
             f"|G| = {G.order}")


def _claim_thm_a(G, p, e):
    """Theorem A: |pi_0 Gamma_{p,e}| = x * |pi_0 S_{p,e}|, x = |pi_0 X(P)|.

    When a Sylow contains C_{p^{e+1}} x C_{p^{e+1}} or an elementary
    abelian group of order p^{e+2}, it also compares both counts with
    |G : Stab(C_0)|, C_0 the Sylow's component. C_0^g holds P^g and the
    Sylows are one class (checked when the lattice is built), so that orbit
    is the set of components holding a Sylow node. Every p-subgroup lies in
    a Sylow, so only the gamma_structural pair carries content.
    """
    _require_pe1_divides(G, p, e)
    spos = s_poset(G, p, e)
    gam = gamma_poset(G, p, e)
    sylow_ids = spos.sylow_ids
    x = x_of_sylow(gam, sylow_ids[0])
    s = spos.partition.count
    n_gamma = gam.partition.count
    observed = {"gamma_components": n_gamma}
    expected = {"gamma_components": x * s}
    if _sylow_has_cc_or_elem_abelian(G, p, e):
        index = len({spos.partition.component_of[i] for i in sylow_ids})
        observed["gamma_structural"] = n_gamma
        observed["s_structural"] = s
        expected["gamma_structural"] = index
        expected["s_structural"] = index
    return observed, expected


def _count_order_p_subgroups_of_sylow(lat, p):
    P = lat.nodes[lat.sylow_ids[0]]
    return sum(1 for sub in lat.nodes
               if sub.order == p and not (sub.mask & ~P.mask).any())


def _claim_thm_b(G, p, e):
    _require(e == 0, "claim is stated for e = 0")
    _require(G.order % p == 0, f"p = {p} does not divide |G| = {G.order}")
    spos = s_poset(G, p, 0)
    gam = gamma_poset(G, p, 0)
    n_gamma = gam.partition.count
    unique = _count_order_p_subgroups_of_sylow(spos, p) == 1
    embedded = has_strongly_embedded_subgroup(G, p, 0)
    observed = {"disconnected": n_gamma > 1}
    expected = {"disconnected": unique or embedded}
    if unique:
        P = spos.nodes[spos.sylow_ids[0]]
        om = omega1(P, p)
        index = G.order // normalizer(G, om).order
        observed["components"] = n_gamma
        expected["components"] = p * index
    return observed, expected


def _claim_thm_c(G, p, e):
    _require(e == 1, "claim is stated for e = 1")
    _require(is_p_power(G.order, p) and G.order >= p * p,
             f"G must be a p-group of order >= {p * p}")
    I = common_intersection_of_order(G, p, 2)
    gam = gamma_poset(G, p, 1)
    return ({"components": gam.partition.count}, {"components": I.order})


def _claim_l2_3(G, p, e):
    _require(is_p_power(G.order, p), "G must be a p-group")
    factors = G.direct_factors
    _require(factors is not None and len(factors) >= 2,
             "G carries no direct-product decomposition")
    _require(all(p_valuation(G.order // len(f), p) > e for f in factors),
             f"some factor has index < {_power_text(p, e + 1)}")
    gam = gamma_poset(G, p, e)
    return ({"components": gam.partition.count}, {"components": 1})


def _cyclic_or_cp_cp(G, p):
    return bool((G.elem_order == G.order).any()) or \
        (G.order == p * p and G.exponent() == p)


def _claim_l4_1(G, p, e):
    _require(is_p_power(G.order, p) and G.order > 1,
             "G must be a nontrivial p-group")
    lat = s_poset(G, p, 0)
    Z = center(G)
    normal_orders = {1, G.order}
    central_ok = True
    # a node is normal exactly when it is alone in its conjugacy class
    rep = lat.conjugates[:, 0]
    alone = np.bincount(rep, minlength=lat.node_count)[rep] == 1
    for sub, normal in zip(lat.nodes, alone.tolist()):
        if normal:
            normal_orders.add(sub.order)
            if sub.order < G.order and (sub.mask & Z.mask).sum() == 1:
                central_ok = False
    n = p_valuation(G.order, p)
    orders_ok = normal_orders == {p ** i for i in range(n + 1)}
    p2_ok = True
    if G.order >= p * p and \
            sum(s.order == p * p for s in lat.nodes) == 1:
        p2_ok = _cyclic_or_cp_cp(G, p)
    observed = {"central_intersections": central_ok,
                "normal_orders": orders_ok,
                "unique_p2_classification": p2_ok}
    return observed, {k: True for k in observed}


def _claim_l4_2(G, p, e):
    _require(e == 1, "claim is stated for e = 1")
    _require(is_p_power(G.order, p) and G.order >= p * p,
             f"G must be a p-group of order >= {p * p}")
    _require(_cyclic_or_cp_cp(G, p), "G must be cyclic or C_p x C_p")
    gam = gamma_poset(G, p, 1)
    return ({"components": gam.partition.count}, {"components": p * p})


def _claim_l4_3(G, p, e):
    _require(is_p_power(G.order, p) and G.order == p ** 3
             and not G.is_abelian(), "G must be nonabelian of order p^3")
    ctx = char_context(G)
    whole = whole_group_subgroup(G)
    N = frattini_of_p_group(whole, p)
    tN = ctx.table(N)
    tG = ctx.table()
    ok = True
    checked = 0
    for theta in tN.chars:
        if all(v == 1 for v in theta.values):
            continue            # principal character
        checked += 1
        ind = induce(ctx, N, theta)
        hits = [(i, m) for i, m in enumerate(ind.decomposition) if m]
        if len(hits) != 1 or hits[0][1] != p:
            ok = False
            continue
        chi = tG.chars[hits[0][0]]
        down = np.array(decompose_restriction(ctx, whole, chi, N))
        target = np.zeros(len(tN.chars), dtype=np.int64)
        target[tN.chars.index(theta)] = p
        if not (down == target).all():
            ok = False
    observed = {"checked": checked, "all_theta_pass": ok}
    return observed, {"checked": N.order - 1, "all_theta_pass": True}


def _claim_l4_4(G, p, e):
    _require(e == 1, "claim is stated for e = 1")
    _require(is_p_power(G.order, p) and G.order == p ** 3,
             "G must have order p^3")
    N = frattini_of_p_group(whole_group_subgroup(G), p)
    _require(N.order == p, f"|Phi(G)| = {N.order} != {p}")
    gam = gamma_poset(G, p, 1)
    return ({"components": gam.partition.count}, {"components": p})


def _claim_l4_6(G, p, e):
    _require(e == 1, "claim is stated for e = 1")
    parts = G.semidirect_parts
    _require(parts is not None, "G carries no semidirect decomposition")
    H = make_subgroup(G, parts[0])
    K = make_subgroup(G, parts[1])
    _require(H.order == p * p and K.order == p * p,
             f"need |H| = |K| = {p * p}")
    validate_semidirect(G, H, K)
    gam = gamma_poset(G, p, 1)
    return ({"components": gam.partition.count}, {"components": 1})


def _claim_cor2_2(G, p, e):
    _require_pe1_divides(G, p, e)
    spos = s_poset(G, p, e)
    observed = {"s_disconnected": spos.partition.count > 1}
    expected = {"s_disconnected": has_strongly_embedded_subgroup(G, p, e)}
    return observed, expected


# claim -> (check, the e values a catalog sweep verifies it at)
_CLAIMS = {
    "ThmA": (_claim_thm_a, (0, 1)),
    "ThmB": (_claim_thm_b, (0,)),
    "ThmC": (_claim_thm_c, (1,)),
    "L2.3": (_claim_l2_3, (0, 1)),
    "L4.1": (_claim_l4_1, (0,)),
    "L4.2": (_claim_l4_2, (1,)),
    "L4.3": (_claim_l4_3, (1,)),
    "L4.4": (_claim_l4_4, (1,)),
    "L4.6": (_claim_l4_6, (1,)),
    "Cor2.2": (_claim_cor2_2, (0, 1)),
}

CLAIM_IDS = tuple(_CLAIMS)


def verify(G, p, e, claim):
    """Check one claim on G; hypothesis failures report as inapplicable."""
    if claim not in _CLAIMS:
        raise PreconditionViolated(f"unknown claim {claim!r}")
    if not is_prime(p):
        raise PreconditionViolated(f"p = {p} is not prime")
    start = time.perf_counter()
    try:
        observed, expected = _CLAIMS[claim][0](G, p, e)
        status = "pass" if observed == expected else "fail"
    except HypothesisNotSatisfied as exc:
        observed, expected = {"reason": str(exc)}, {}
        status = "inapplicable"
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(G.label, p, e, claim, observed, expected,
                              status, millis)


def scan_nontrivial_I(roster, p, k):
    """Per p-group, |I| = |intersection of all order-p^k subgroups|, if > 1.

    roster holds GroupTables. Entries whose computation fails are collected
    as (label, message) instead of aborting the scan. For k = 2 each
    reported value is cross-checked against |pi_0 Gamma(p, 1)|.
    """
    results = []
    errors = []
    for G in roster:
        try:
            if not is_p_power(G.order, p) or p_valuation(G.order, p) < k:
                raise NotAPGroup(f"{G.label} is not a p-group of order >= "
                                 f"{_power_text(p, k)}")
            size = common_intersection_of_order(G, p, k).order
            if size > 1:
                if k == 2:
                    got = gamma_poset(G, p, 1).partition.count
                    if got != size:
                        raise CrossCheckFailed(
                            f"|I| = {size} but Gamma(p,1) has {got} "
                            "components")
                results.append((G.label, size))
        except CharposetError as exc:
            errors.append((G.label, f"{type(exc).__name__}: {exc}"))
    return results, errors

"""Character-augmented p-subgroup posets and claim verification.

S(p, e) is the inclusion poset of p-subgroups of order > p^e. Gamma(p, e)
augments each subgroup H with its irreducible characters; (H, phi) <= (K,
psi) when H <= K and phi occurs in the restriction of psi to H. Components
of both posets are computed over index-p cover edges, which induce the same
partition as the full comparability relation (every inclusion refines into
index-p steps through intermediate subgroups of admissible order).
"""
from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .chartab import (
    CharContext,
    decompose_restriction,
    induce,
    validate_semidirect,
)
from .errors import (
    HypothesisNotSatisfied,
    NotAPGroup,
    NotASylowNode,
    PreconditionViolated,
)
from .group import (
    GroupTable,
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
    whole_group_subgroup,
)
from .modlinalg import inv_mod
from .poset import Partition, action_on_components, components


def char_context(G):
    """The shared-modulus character context of G (cached per table)."""
    return G.memo("char_context", lambda: CharContext(G))


# --- S_{p,e}(G) -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SPoset:
    """The poset of p-subgroups of order > p^e with its component partition."""

    group: GroupTable
    p: int
    e: int
    lattice: object        # PSubgroupLattice
    partition: Partition


def build_s_poset(G, p, e):
    lattice = enumerate_p_subgroups(G, p, e)
    part = components(lattice.node_count, lattice.covers)
    return SPoset(G, p, e, lattice, part)


def s_poset(G, p, e):
    """Cached build_s_poset."""
    return G.memo(("s_poset", p, e), lambda: build_s_poset(G, p, e))


def s_node_images(spos):
    """node_image[g][i] = lattice node id of (node i)^g, for conjugation."""
    G = spos.group
    lat = spos.lattice
    out = []
    for g in range(G.order):
        img = tuple(
            lat.node_of_members(G.conj_set(sub.members, g))
            for sub in lat.nodes
        )
        out.append(img)
    return out


def s_component_action(spos, base_node=None, check=True):
    """Conjugation action of G on pi_0 S, based at a Sylow node by default."""
    if base_node is None:
        if not spos.lattice.sylow_ids:
            raise PreconditionViolated("empty poset has no base component")
        base_node = spos.lattice.sylow_ids[0]
    return action_on_components(spos.group, spos.partition,
                                s_node_images(spos), base_node=base_node,
                                edges=spos.lattice.covers, check=check)


# --- Gamma_{p,e}(G) -------------------------------------------------------

@dataclass(frozen=True)
class GammaNode:
    subgroup_id: int
    char_id: int


@dataclass(frozen=True, eq=False)
class GammaPoset:
    group: GroupTable
    p: int
    e: int
    s: SPoset
    ctx: CharContext
    nodes: tuple           # GammaNode, grouped by subgroup in char order
    offsets: tuple         # offsets[i] = first node index of subgroup i
    edges: tuple
    partition: Partition

    @property
    def node_count(self):
        return len(self.nodes)


def restriction_multiplicities(ctx, H, K):
    """Matrix M[a, b] = [phi_a, (psi_b)|_H] over Irr(H) x Irr(K), exactly."""
    q = ctx.q
    tH, tK = ctx.table(H), ctx.table(K)
    VH = tH.values_matrix()
    VK = tK.values_matrix()
    kcls = np.array(
        [int(tK.classes.class_of[K.index_of[H.members[r]]])
         for r in tH.classes.reps], dtype=np.int64)
    # psi restricted to H, evaluated at H's inverse classes
    R = VK[:, kcls][:, tH.classes.inverse_class]
    W = (VH * tH.classes.sizes[None, :]) % q
    M = (W @ R.T) % q
    return (M * inv_mod(H.order, q)) % q


def build_gamma_poset(G, p, e, ctx=None, full_comparability=False):
    spos = s_poset(G, p, e)
    lat = spos.lattice
    if ctx is None:
        ctx = char_context(G)
    nodes = []
    offsets = []
    for i, sub in enumerate(lat.nodes):
        offsets.append(len(nodes))
        nodes.extend(GammaNode(i, a) for a in range(ctx.table(sub).count))
    if full_comparability:
        pairs = [(i, j) for i, H in enumerate(lat.nodes)
                 for j, K in enumerate(lat.nodes)
                 if H.order < K.order and H.member_set <= K.member_set]
    else:
        pairs = lat.covers
    edges = []
    for i, j in pairs:
        M = restriction_multiplicities(ctx, lat.nodes[i], lat.nodes[j])
        for a, b in zip(*np.nonzero(M)):
            edges.append((offsets[i] + int(a), offsets[j] + int(b)))
    part = components(len(nodes), edges)
    return GammaPoset(G, p, e, spos, ctx, tuple(nodes), tuple(offsets),
                      tuple(edges), part)


def gamma_poset(G, p, e):
    """Cached build_gamma_poset (cover edges)."""
    return G.memo(("gamma_poset", p, e), lambda: build_gamma_poset(G, p, e))


def x_of_sylow(gamma, sylow_node):
    """|pi_0 X(P)|: Gamma components over subgroups S-connected to P."""
    if sylow_node not in gamma.s.lattice.sylow_ids:
        raise NotASylowNode(f"node {sylow_node} is not a Sylow node")
    scomp = gamma.s.partition.component_of[sylow_node]
    seen = {
        gamma.partition.component_of[n]
        for n, node in enumerate(gamma.nodes)
        if gamma.s.partition.component_of[node.subgroup_id] == scomp
    }
    return len(seen)


# --- strongly embedded subgroups ------------------------------------------

def _p_nodes_inside(lat, member_set):
    return [i for i, sub in enumerate(lat.nodes)
            if sub.member_set <= member_set]


def strongly_embedded_check(G, p, e, M, condition):
    """Evaluate one of the five equivalent strong-embedding conditions.

    The conditions characterize the stabilizer of a component of S(p, e):
    (1) containment of some component stabilizer; (2) Sylow-local normalizer
    trapping; (3) normalizer trapping inside M; (4) Sylow normalizer plus
    p-overgroup closure; (5) p^(e+1) divides |M| but no |M intersect M^x|.
    """
    if M.parent is not G or M.order == G.order:
        raise PreconditionViolated("M must be a proper subgroup of G")
    pe1 = p ** (e + 1)
    if G.order % pe1:
        raise PreconditionViolated(f"{pe1} does not divide |G|")
    spos = s_poset(G, p, e)
    lat = spos.lattice

    if condition == 1:
        act = s_component_action(spos, check=False)
        for c in range(spos.partition.count):
            stab = [g for g in range(G.order)
                    if act.component_image[g][c] == c]
            if all(g in M.member_set for g in stab):
                return True
        return False

    if condition == 2:
        for sid in lat.sylow_ids:
            S = lat.nodes[sid]
            if all(normalizer(G, lat.nodes[i]).member_set <= M.member_set
                   for i in _p_nodes_inside(lat, S.member_set)):
                return True
        return False

    if condition == 3:
        if M.order % pe1:
            return False
        return all(normalizer(G, lat.nodes[i]).member_set <= M.member_set
                   for i in _p_nodes_inside(lat, M.member_set))

    if condition == 4:
        if not any(normalizer(G, lat.nodes[sid]).member_set <= M.member_set
                   for sid in lat.sylow_ids):
            return False
        for i in _p_nodes_inside(lat, M.member_set):
            small = lat.nodes[i].member_set
            for j, Q in enumerate(lat.nodes):
                if small <= Q.member_set and \
                        not Q.member_set <= M.member_set:
                    return False
        return True

    if condition == 5:
        if M.order % pe1:
            return False
        marr = np.array(M.members, dtype=np.int32)
        for x in range(G.order):
            if x in M.member_set:
                continue
            conj = set(int(v) for v in G.conj_set(marr, x))
            if len(conj & M.member_set) % pe1 == 0:
                return False
        return True

    raise PreconditionViolated(f"condition must be 1..5, got {condition}")


def _double_coset_reps(G, M):
    """One element g outside M for each double coset MgM != M."""
    marr = np.array(M.members, dtype=np.int32)
    covered = M.mask.copy()
    reps = []
    for g in range(G.order):
        if not covered[g]:
            reps.append(g)
            covered[G.mul[G.mul[marr, g][:, None], marr[None, :]]] = True
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
    if G.order % p ** (e + 1):
        return False
    lat = s_poset(G, p, e).lattice
    N = normalizer(G, lat.nodes[lat.sylow_ids[0]])
    seen = {N.members}
    queue = [N.members]
    while queue:
        mem = queue.pop()
        if len(mem) == G.order:
            continue
        M = make_subgroup(G, mem, check=False)
        if strongly_embedded_check(G, p, e, M, 5):
            return True
        for g in _double_coset_reps(G, M):
            over = closure_members(G, mem + (g,))
            if over not in seen:
                seen.add(over)
                queue.append(over)
    return False


# --- component projection (poset-map) validation ---------------------------

def check_component_projection(gamma):
    """Validate the projection Gamma -> S, (H, phi) -> H, component-wise.

    Checks that the preimage of each S-component is a union of whole Gamma
    components, that the projection is surjective, hence |pi_0 Gamma| >=
    |pi_0 S|, and that the Gamma components partition into the per-S-component
    families. Returns (|pi_0 Gamma|, |pi_0 S|).
    """
    sp = gamma.s.partition
    gp = gamma.partition
    comp_target = {}
    for n, node in enumerate(gamma.nodes):
        c = gp.component_of[n]
        t = sp.component_of[node.subgroup_id]
        if comp_target.setdefault(c, t) != t:
            raise AssertionError(
                "a Gamma component projects onto two S components")
    if set(comp_target.values()) != set(range(sp.count)):
        raise AssertionError("projection is not surjective on components")
    if gp.count < sp.count:
        raise AssertionError("surjective poset map increased components")
    per_target = {}
    for c, t in comp_target.items():
        per_target[t] = per_target.get(t, 0) + 1
    if sum(per_target.values()) != gp.count:
        raise AssertionError("component families do not partition pi_0 Gamma")
    return gp.count, sp.count


def subgroup_reaches_all_components(gamma, subgroup_id):
    """Whether every Gamma component contains a node over this subgroup."""
    reached = {
        gamma.partition.component_of[n]
        for n, node in enumerate(gamma.nodes)
        if node.subgroup_id == subgroup_id
    }
    return len(reached) == gamma.partition.count


# --- structural subgroup searches ------------------------------------------

def _sylow_has_cc_or_elem_abelian(G, p, e):
    """Does a Sylow contain C_{p^{e+1}} x C_{p^{e+1}} or elem. ab. p^{e+2}?

    Structural search over the p-subgroup lattice: a group of order
    p^(2e+2) that is abelian with exponent p^(e+1) and p^2 elements of order
    dividing p is homocyclic of rank 2; elementary abelian means exponent p.
    """
    lat = s_poset(G, p, 0).lattice
    for sub in lat.nodes:
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
        return json.dumps({
            "group": self.group, "p": self.p, "e": self.e,
            "claim": self.claim, "observed": self.observed,
            "expected": self.expected, "status": self.status,
            "millis": self.millis,
        }, sort_keys=True)

    def csv_row(self):
        return [self.group, str(self.p), str(self.e), self.claim,
                json.dumps(self.observed, sort_keys=True),
                json.dumps(self.expected, sort_keys=True),
                self.status, str(self.millis)]


CSV_COLUMNS = ["group", "p", "e", "claim", "observed", "expected",
               "status", "millis"]


def _require(cond, why):
    if not cond:
        raise HypothesisNotSatisfied(why)


def _claim_thm_a(G, p, e):
    _require(G.order % p ** (e + 1) == 0,
             f"p^(e+1) = {p ** (e + 1)} does not divide |G| = {G.order}")
    spos = s_poset(G, p, e)
    gam = gamma_poset(G, p, e)
    P = spos.lattice.sylow_ids[0]
    x = x_of_sylow(gam, P)
    s = spos.partition.count
    n_gamma = gam.partition.count
    observed = {"gamma_components": n_gamma}
    expected = {"gamma_components": x * s}
    if _sylow_has_cc_or_elem_abelian(G, p, e):
        act = s_component_action(spos, base_node=P, check=False)
        index = G.order // act.stabilizer.order
        observed["gamma_structural"] = n_gamma
        observed["s_structural"] = s
        expected["gamma_structural"] = index
        expected["s_structural"] = index
    return observed, expected


def _count_order_p_subgroups_of_sylow(spos, p):
    lat = spos.lattice
    P = lat.nodes[lat.sylow_ids[0]]
    return sum(1 for sub in lat.nodes
               if sub.order == p and sub.member_set <= P.member_set)


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
        P = spos.lattice.nodes[spos.lattice.sylow_ids[0]]
        om = omega1(P, p)
        index = G.order // normalizer(G, om).order
        observed["components"] = n_gamma
        expected["components"] = p * index
    return observed, expected


def _claim_thm_c(G, p, e):
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
    pe1 = p ** (e + 1)
    _require(all(G.order // len(f) >= pe1 for f in factors),
             f"some factor has index < {pe1}")
    gam = gamma_poset(G, p, e)
    return ({"components": gam.partition.count}, {"components": 1})


def _claim_l4_1(G, p, e):
    _require(is_p_power(G.order, p) and G.order > 1,
             "G must be a nontrivial p-group")
    lat = s_poset(G, p, 0).lattice
    Z = center(G)
    normal_orders = {1, G.order}
    central_ok = True
    for sub in lat.nodes:
        if normalizer(G, sub).order == G.order:
            normal_orders.add(sub.order)
            if sub.order < G.order and \
                    len(sub.member_set & Z.member_set) == 1:
                central_ok = False
    n = 0
    o = G.order
    while o > 1:
        o //= p
        n += 1
    orders_ok = normal_orders == {p ** i for i in range(n + 1)}
    p2_ok = True
    if G.order >= p * p and len(lat.nodes_of_order(p * p)) == 1:
        cyclic = bool((G.elem_order == G.order).any())
        cpcp = G.order == p * p and G.exponent() == p
        p2_ok = cyclic or cpcp
    observed = {"central_intersections": central_ok,
                "normal_orders": orders_ok,
                "unique_p2_classification": p2_ok}
    return observed, {k: True for k in observed}


def _claim_l4_2(G, p, e):
    _require(is_p_power(G.order, p) and G.order >= p * p,
             f"G must be a p-group of order >= {p * p}")
    cyclic = bool((G.elem_order == G.order).any())
    cpcp = G.order == p * p and G.exponent() == p
    _require(cyclic or cpcp, "G must be cyclic or C_p x C_p")
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
    _require(is_p_power(G.order, p) and G.order == p ** 3,
             "G must have order p^3")
    N = frattini_of_p_group(whole_group_subgroup(G), p)
    _require(N.order == p, f"|Phi(G)| = {N.order} != {p}")
    gam = gamma_poset(G, p, 1)
    return ({"components": gam.partition.count}, {"components": p})


def _claim_l4_6(G, p, e):
    parts = G.semidirect_parts
    _require(parts is not None, "G carries no semidirect decomposition")
    H = make_subgroup(G, parts[0], check=False)
    K = make_subgroup(G, parts[1], check=False)
    _require(H.order == p * p and K.order == p * p,
             f"need |H| = |K| = {p * p}")
    validate_semidirect(G, H, K)
    gam = gamma_poset(G, p, 1)
    return ({"components": gam.partition.count}, {"components": 1})


def _claim_cor2_2(G, p, e):
    _require(G.order % p ** (e + 1) == 0,
             f"p^(e+1) = {p ** (e + 1)} does not divide |G| = {G.order}")
    spos = s_poset(G, p, e)
    observed = {"s_disconnected": spos.partition.count > 1}
    expected = {"s_disconnected": has_strongly_embedded_subgroup(G, p, e)}
    return observed, expected


_CLAIMS = {
    "ThmA": _claim_thm_a,
    "ThmB": _claim_thm_b,
    "ThmC": _claim_thm_c,
    "L2.3": _claim_l2_3,
    "L4.1": _claim_l4_1,
    "L4.2": _claim_l4_2,
    "L4.3": _claim_l4_3,
    "L4.4": _claim_l4_4,
    "L4.6": _claim_l4_6,
    "Cor2.2": _claim_cor2_2,
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
        observed, expected = _CLAIMS[claim](G, p, e)
        status = "pass" if observed == expected else "fail"
    except HypothesisNotSatisfied as exc:
        observed, expected = {"reason": str(exc)}, {}
        status = "inapplicable"
    millis = int((time.perf_counter() - start) * 1000)
    return VerificationReport(G.label, p, e, claim, observed, expected,
                              status, millis)


def scan_nontrivial_I(roster, p, k):
    """Per p-group, |I| = |intersection of all order-p^k subgroups|, if > 1.

    Accepts expression strings, GroupExpr nodes, or GroupTables. Entries
    whose computation fails are collected as (label, message) instead of
    aborting the scan. For k = 2 each reported value is cross-checked
    against |pi_0 Gamma(p, 1)|.
    """
    from .catalog import parse_group_expr, realize_group
    results = []
    errors = []
    for entry in roster:
        label = entry if isinstance(entry, str) else str(entry)
        try:
            if isinstance(entry, GroupTable):
                G = entry
                label = G.label
            else:
                expr = parse_group_expr(entry) if isinstance(entry, str) \
                    else entry
                G = realize_group(expr)
                label = G.label
            if not is_p_power(G.order, p) or G.order < p ** k:
                raise NotAPGroup(
                    f"{label} is not a p-group of order >= {p ** k}")
            size = common_intersection_of_order(G, p, k).order
            if size > 1:
                if k == 2:
                    got = gamma_poset(G, p, 1).partition.count
                    if got != size:
                        raise AssertionError(
                            f"|I| = {size} but Gamma(p,1) has {got} "
                            "components")
                results.append((label, size))
        except Exception as exc:        # noqa: BLE001 - per-entry reporting
            errors.append((label, f"{type(exc).__name__}: {exc}"))
    return results, errors

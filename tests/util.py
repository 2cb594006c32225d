"""Shared test helpers: cached group realization and brute-force oracles."""
import cmath
import dataclasses
import functools
import itertools
from dataclasses import dataclass

import networkx as nx
import numpy as np

from charposet.catalog import catalog_roster, realize
from charposet.chartab import _class_data, _primitive_root, _validated_table
from charposet.errors import (
    ActionNotCompatible,
    CharposetError,
    ClosureCapExceeded,
    ContextMismatch,
    LatticeConstructionFailed,
    NotASubgroup,
    PreconditionViolated,
    TableConstructionFailed,
)
from charposet.gamma import (
    GammaNode,
    _generating_set,
    char_context,
    s_node_images,
    s_poset,
    strongly_embedded_check,
)
from charposet.group import (
    GroupTable,
    PSubgroupLattice,
    Subgroup,
    _elem_orders,
    _index_p_overgroups,
    _normalizer_mask,
    _pth_powers,
    all_subgroups,
    closure_members,
    is_p_power,
    make_subgroup,
    normalizer,
    p_lattice,
    p_valuation,
)
from charposet.modlinalg import (
    inv_mod,
    poly_add,
    poly_divmod,
    poly_mul,
    poly_scale,
    poly_trim,
)
from charposet.poset import action_on_components, components

# The catalog plus the largest groups the engine handles: the groups on
# which the generator-based fast paths are checked against their oracles.
DIFFERENTIAL_GROUPS = tuple(catalog_roster()) + (
    "PSL(2,8)", "PSL(2,11)", "A(6)", "S(6)")


class NotADirectProduct(CharposetError):
    """The claimed internal direct-product structure does not validate."""


@functools.lru_cache(maxsize=None)
def cached_group(text):
    """Realize once per expression so per-table caches are shared."""
    return realize(text)


def catalog_up_to(max_order):
    """The catalog expressions whose groups have order at most max_order."""
    return [text for text in catalog_roster()
            if cached_group(text).order <= max_order]


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
               and strongly_embedded_check(G, p, e, M)
               for M in all_subgroups(G))


def every_element_strongly_embedded_check(G, p, e, M):
    """Condition 5 tested on every x outside M, one set intersection each."""
    if M.parent is not G or M.order == G.order:
        raise PreconditionViolated("M must be a proper subgroup of G")
    if p_valuation(G.order, p) <= e:
        raise PreconditionViolated(f"p^{e + 1} does not divide |G|")
    pe1 = p ** (e + 1)
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


def _p_nodes_inside(lat, member_set):
    return [i for i, sub in enumerate(lat.nodes)
            if sub.member_set <= member_set]


def strong_embedding_condition(G, p, e, M, condition):
    """Evaluate one of conditions 1-4, each equivalent to condition 5
    (`strongly_embedded_check`) by Quillen 1978, Prop. 5.2.

    The conditions characterize the stabilizer of a component of S(p, e):
    (1) containment of some component stabilizer; (2) Sylow-local normalizer
    trapping; (3) normalizer trapping inside M; (4) Sylow normalizer plus
    p-overgroup closure.
    """
    if M.parent is not G or M.order == G.order:
        raise PreconditionViolated("M must be a proper subgroup of G")
    if p_valuation(G.order, p) <= e:
        raise PreconditionViolated(f"p^{e + 1} does not divide |G|")
    pe1 = p ** (e + 1)
    spos = s_poset(G, p, e)
    lat = spos.lattice

    if condition == 1:
        img = element_component_action(spos).component_image
        return any(M.mask[np.flatnonzero(img[:, c] == c)].all()
                   for c in range(spos.partition.count))

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

    raise PreconditionViolated(f"condition must be 1..4, got {condition}")


def five_conditions(G, p, e, M):
    """Conditions 1-4 from the oracle above and condition 5 from the library."""
    return [strong_embedding_condition(G, p, e, M, c) for c in (1, 2, 3, 4)] \
        + [strongly_embedded_check(G, p, e, M)]


def check_node_action(G, node_image, edges):
    """Validate node_image[g][v], the image of node v under g, as an action.

    Each map must permute the nodes and preserve every given edge, and the
    maps must be compatible with the multiplication table; a failure raises
    ActionNotCompatible.
    """
    img = np.asarray(node_image)
    n = img.shape[1]
    permutes = (np.sort(img, axis=1) == np.arange(n)).all(axis=1)
    # an undirected edge {a, b} is keyed as min * n + max, in int64
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    keys = np.unique(ends.min(axis=1) * n + ends.max(axis=1))
    a, b = (img[:, ends[:, k]].astype(np.int64) for k in (0, 1))
    images = np.minimum(a, b) * n + np.maximum(a, b)
    preserves = np.isin(images, keys).all(axis=1)
    bad = np.flatnonzero(~(permutes & preserves))
    if bad.size:
        g = int(bad[0])
        what = "preserve edges" if permutes[g] else "permute the nodes"
        raise ActionNotCompatible(f"element {g} does not {what}")
    # homomorphism spot-check: all g against a bounded slice of h keeps
    # validation near-linear in |G| while still catching orientation bugs
    for h in range(min(G.order, 8)):
        if (img[h][img] != img[G.mul[:, h]]).any():
            raise ActionNotCompatible(
                "node maps are not compatible with multiplication")


def element_node_images(spos):
    """img[g, i] = node id of (node i)^g for every g in G, as an int32
    array of shape (|G|, nodes).

    The rows of the library's generators compose breadth-first from the
    identity, by X^(x s) = (X^x)^s.
    """
    G = spos.group
    gens = _generating_set(G)
    gen_img = s_node_images(spos)
    img = np.zeros((G.order, spos.lattice.node_count), dtype=np.int32)
    img[0] = np.arange(spos.lattice.node_count)
    done = np.zeros(G.order, dtype=bool)
    done[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while not done.all():
        found = []
        for g, gimg in zip(gens, gen_img):
            ys = G.mul[frontier, g]
            new = ~done[ys]
            ys, xs = ys[new], frontier[new]
            img[ys] = gimg[img[xs]]
            done[ys] = True
            found.append(ys)
        frontier = np.concatenate(found)
    return img


def s_component_action(spos):
    """Orbit of the first Sylow node's component under G's generators.

    The orbit walk over `s_node_images`. Sylow's theorem makes G transitive
    on its Sylow p-subgroups, so the orbit must be exactly the components
    that hold a Sylow node; any other orbit raises ActionNotCompatible.
    """
    lat = spos.lattice
    if not lat.sylow_ids:
        raise PreconditionViolated("empty poset has no base component")
    orbit = action_on_components(spos.partition, s_node_images(spos),
                                 base_node=lat.sylow_ids[0])
    sylow = {spos.partition.component_of[i] for i in lat.sylow_ids}
    if set(orbit) != sylow:
        raise ActionNotCompatible(f"orbit of {len(orbit)} components, but "
                                  f"{len(sylow)} hold a Sylow node")
    return orbit


def commuting_graph_components(G, p):
    """Components of Quillen's commuting graph on the subgroups of order p.

    Its nodes are the subgroups <x> with x of order p, and X ~ Y when their
    generators commute. By Quillen (1978, Prop. 2.1) the count equals
    |pi_0 S_{p,0}(G)|. Reads only G's element orders and products, never
    the p-subgroup lattice.
    """
    xs = np.flatnonzero(G.elem_order == p)
    # each x of order p generates <x>; keep one generator per subgroup
    powers = [xs]
    for _ in range(p - 2):
        powers.append(G.mul[powers[-1], xs])
    gens = xs[np.stack(powers).min(axis=0) == xs]
    commute = G.mul[gens[:, None], gens] == G.mul[gens[None, :], gens[:, None]]
    graph = nx.Graph()
    graph.add_nodes_from(range(gens.size))
    graph.add_edges_from(zip(*np.nonzero(commute)))
    return nx.number_connected_components(graph)


@dataclass(frozen=True, eq=False)
class ElementAction:
    """G's action on the components of S, read element by element."""

    component_image: np.ndarray  # [g, c] = image of component c, read-only
    orbit: tuple                 # orbit of the base component, sorted
    stabilizer: Subgroup         # stabilizer of the base component


def element_component_action(spos):
    """Conjugation action of G on pi_0 S from every element's node images,
    based at the first Sylow node.

    A wrong shape, an element that splits a component across components, or
    a failed orbit-stabilizer identity |orbit| * |stab| = |G| raises
    ActionNotCompatible.
    """
    G = spos.group
    partition = spos.partition
    img = element_node_images(spos)
    if img.shape != (G.order, partition.node_count):
        raise ActionNotCompatible(f"node images have shape {img.shape}")
    comp_of = np.array(partition.component_of, dtype=np.int32)
    # cimg[g, c] = component of g's image of the least node of component c
    cimg = comp_of[img[:, list(partition.representatives)]]
    split = np.flatnonzero((comp_of[img] != cimg[:, comp_of]).any(axis=1))
    if split.size:
        raise ActionNotCompatible(
            f"element {int(split[0])} splits a component across components")
    base = int(comp_of[spos.lattice.sylow_ids[0]])
    orbit = sorted(set(cimg[:, base].tolist()))
    stabilizer = make_subgroup(G, np.flatnonzero(cimg[:, base] == base))
    if len(orbit) * stabilizer.order != G.order:
        raise ActionNotCompatible("orbit-stabilizer identity failed")
    cimg.setflags(write=False)
    return ElementAction(cimg, tuple(orbit), stabilizer)


def conjugated_table(G, tR, rmembers, g, T, members):
    """Irr(S) for S = R^g in G, relabelled from tR = Irr(R); T is S's table.

    R-local t goes to the S-local index of g^-1 R[t] g. S's classes are
    renumbered by their least element, as `ConjugacyData` requires, and the
    class sizes and value columns follow.
    """
    marr = np.asarray(members)
    img = G.conj_set(rmembers, g)
    perm = np.searchsorted(marr, img).clip(max=marr.size - 1)
    if (marr[perm] != img).any():
        raise TableConstructionFailed("the subgroups are not conjugate by g")
    old = tR.classes.class_of[np.argsort(perm)]    # S-local -> R's class
    first = np.unique(old, return_index=True)[1]
    order = np.argsort(first)                  # new class k is old class order[k]
    class_of = np.argsort(order).astype(np.int32)[old]
    reps = first[order]
    cls = _class_data(T, class_of, reps.tolist(), tR.classes.sizes[order],
                      class_of[T.inv[reps]])
    V = tR.values_matrix()[:, order].tolist()
    rows = [(c.degree, tuple(v)) for c, v in zip(tR.chars, V)]
    return _validated_table(T, cls, tR.q, rows)


def node_restriction_multiplicities(tH, tK, H, K):
    """M[a, b] = [phi_a, (psi_b)|_H] over the node tables tH of H and tK of
    K, each built from the node's own group."""
    q = tH.q
    VH = tH.values_matrix()
    VK = tK.values_matrix()
    kcls = np.array(
        [int(tK.classes.class_of[K.members.index(H.members[r])])
         for r in tH.classes.reps], dtype=np.int64)
    # psi restricted to H, evaluated at H's inverse classes
    R = VK[:, kcls][:, tH.classes.inverse_class]
    W = (VH * tH.classes.sizes[None, :]) % q
    M = (W @ R.T) % q
    return (M * inv_mod(H.order, q)) % q


@dataclass(frozen=True)
class PerNodeGamma:
    nodes: tuple
    offsets: tuple
    edges: tuple
    partition: object


def own_tables(G, p):
    """Each node of S_{p,0}(G), by member tuple, to its own table: built by
    `CharContext._build` from an unshared copy of the node's local table,
    so that no two nodes share a table object. Cached on G."""
    ctx = char_context(G)
    return G.memo(("own_tables", p), lambda: {
        S.members: ctx._build(dataclasses.replace(S.local), S.members)
        for S in p_lattice(G, p).nodes})


def per_node_gamma(G, p, e):
    """Gamma(p, e) from every node's own table (`own_tables`) and one
    restriction product per cover: the oracle for
    `gamma.build_gamma_poset`, which transports the representatives'
    tables and shares each table among the nodes with equal local tables."""
    lat = s_poset(G, p, e).lattice
    own = own_tables(G, p)
    nodes = []
    offsets = []
    for i, sub in enumerate(lat.nodes):
        offsets.append(len(nodes))
        nodes.extend(GammaNode(i, a) for a in range(own[sub.members].count))
    edges = []
    for i, j in lat.covers:
        H, K = lat.nodes[i], lat.nodes[j]
        M = node_restriction_multiplicities(own[H.members], own[K.members],
                                            H, K)
        for a, b in zip(*np.nonzero(M)):
            edges.append((offsets[i] + int(a), offsets[j] + int(b)))
    return PerNodeGamma(tuple(nodes), tuple(offsets), tuple(edges),
                        components(len(nodes), edges))


def full_comparability_partition(G, p, e):
    """Gamma(p, e)'s partition with edges over every comparable pair H < K
    of S(p, e), not only the index-p covers."""
    lat = s_poset(G, p, e).lattice
    ctx = char_context(G)
    offsets = np.cumsum([0] + [ctx.table(sub).count for sub in lat.nodes])
    edges = []
    for i, H in enumerate(lat.nodes):
        for j, K in enumerate(lat.nodes):
            if H.order < K.order and H.member_set <= K.member_set:
                M = node_restriction_multiplicities(ctx.table(H),
                                                    ctx.table(K), H, K)
                edges.extend((int(offsets[i]) + int(a), int(offsets[j]) + int(b))
                             for a, b in zip(*np.nonzero(M)))
    return components(int(offsets[-1]), edges)


def det_mod(A, q):
    A = np.array(A, dtype=np.int64) % q
    n = A.shape[0]
    det = 1
    for c in range(n):
        hits = np.flatnonzero(A[c:, c])
        if hits.size == 0:
            return 0
        k = c + int(hits[0])
        if k != c:
            A[[c, k]] = A[[k, c]]
            det = (-det) % q
        det = (det * A[c, c]) % q
        inv = inv_mod(A[c, c], q)
        A[c] = (A[c] * inv) % q
        below = np.flatnonzero(A[c + 1:, c]) + c + 1
        if below.size:
            A[below] = (A[below] - np.outer(A[below, c], A[c])) % q
    return int(det)


def poly_eval(f, x, q):
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % q
    return acc


def interpolated_charpoly(A, q):
    """Characteristic polynomial det(xI - A) mod q, by interpolation."""
    A = np.asarray(A, dtype=np.int64) % q
    d = A.shape[0]
    xs = list(range(d + 1))
    eye = np.eye(d, dtype=np.int64)
    ys = [det_mod((x * eye - A) % q, q) for x in xs]
    # Lagrange interpolation on d+1 points
    master = [1]
    for x in xs:
        master = poly_mul(master, [(-x) % q, 1], q)
    out = [0]
    for x, y in zip(xs, ys):
        li, rem = poly_divmod(master, [(-x) % q, 1], q)
        if rem != [0]:
            raise TableConstructionFailed(
                "interpolation node is not a root of the master polynomial")
        denom = poly_eval(li, x, q)
        out = poly_add(out, poly_scale(li, y * inv_mod(denom, q) % q, q), q)
    return poly_trim(out)


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


def table_from_mul(mul, label="G", words=None, direct_factors=None):
    """A GroupTable from a raw multiplication table (identity = 0) alone.

    The identity and the rows are checked, and the inverses and element
    orders are derived by scanning the |G|^2 table.
    """
    mul = np.ascontiguousarray(np.asarray(mul, dtype=np.int32))
    n = mul.shape[0]
    if mul.shape != (n, n):
        raise ValueError("multiplication table must be square")
    rng = np.arange(n, dtype=np.int32)
    if not (mul[0] == rng).all() or not (mul[:, 0] == rng).all():
        raise ValueError("element 0 is not a two-sided identity")
    rows, inv = np.nonzero(mul == 0)
    if rows.size != n or (rows != rng).any():
        raise ValueError("table rows must be permutations")
    inv = inv.astype(np.int32)
    elem_order = _elem_orders(mul)
    for a in (mul, inv, elem_order):
        a.setflags(write=False)
    return GroupTable(order=n, mul=mul, inv=inv, elem_order=elem_order,
                      label=label, words=words, direct_factors=direct_factors)


def kron_direct_product(A, B):
    """A x B from its Kronecker-product table, (a, b) -> a*|B| + b, by
    `table_from_mul`, with the words and flattened factors of A and B."""
    na, nb = A.order, B.order
    amul = A.mul.astype(np.int64)
    bmul = B.mul.astype(np.int64)
    mul = (np.kron(amul, np.ones((nb, nb), dtype=np.int64)) * nb
           + np.kron(np.ones((na, na), dtype=np.int64), bmul))
    words = None
    if A.words is not None and B.words is not None:
        words = tuple(f"({A.words[i]},{B.words[j]})"
                      for i in range(na) for j in range(nb))
    a_factors = A.direct_factors or ((tuple(range(na)),) if na > 1 else ())
    b_factors = B.direct_factors or ((tuple(range(nb)),) if nb > 1 else ())
    factors = tuple(tuple(int(i) * nb for i in f) for f in a_factors) + \
        tuple(tuple(int(j) for j in f) for f in b_factors)
    return table_from_mul(mul.astype(np.int32),
                          label=f"{A.label} x {B.label}", words=words,
                          direct_factors=factors or None)


def induced_table(G, members):
    """The subgroup's table from its induced product table alone.

    `table_from_mul` checks the identity and the rows and derives the
    inverses and element orders itself, reading nothing else of G.
    """
    marr = np.array(sorted(members), dtype=np.int32)
    lut = np.full(G.order, -1, dtype=np.int32)
    lut[marr] = np.arange(marr.size, dtype=np.int32)
    return table_from_mul(lut[G.mul[np.ix_(marr, marr)]])


def conjugated_node_images(spos):
    """node_image[g][i] = node id of (node i)^g, conjugating by every g."""
    G = spos.group
    lat = spos.lattice
    return [tuple(lat.node_index[tuple(sorted(G.conj_set(sub.members, g)
                                              .tolist()))]
                  for sub in lat.nodes)
            for g in range(G.order)]


def conjugation_orbits(lat):
    """The lattice's nodes partitioned into G-orbits, conjugating by all of G.

    Returns {node id: frozenset of the node ids in its orbit}.
    """
    G = lat.group
    every = np.arange(G.order)[:, None]
    orbit_of = {}
    for i, sub in enumerate(lat.nodes):
        if i not in orbit_of:
            rows = np.sort(G.conj_set(np.array(sub.members), every), axis=1)
            orbit = frozenset(lat.node_index[tuple(r)] for r in rows.tolist())
            orbit_of.update((j, orbit) for j in orbit)
    return orbit_of


def _extensions_by_subgroup_tables(G, mem, p):
    """Index-p overgroups of H: the coset union for every x in N_G(H) - H."""
    H = make_subgroup(G, mem)
    hset = H.member_set
    out = set()
    for x in normalizer(G, H).members:
        if x in hset or not is_p_power(int(G.elem_order[x]), p):
            continue
        if G.power(x, p) not in hset:
            continue
        members = set(mem)
        cur = np.array(mem, dtype=np.int32)
        for _ in range(p - 1):
            cur = G.mul[cur, x]
            members.update(int(v) for v in cur)
        assert len(members) == p * len(mem)
        out.add(tuple(sorted(members)))
    return out


def looped_right_transversal(G, nmask):
    """The least element of each right coset of N, given by its mask, one
    argmin per coset: the oracle of the one-gather `_right_transversal`."""
    covered = nmask.copy()
    narr = np.flatnonzero(nmask)
    reps = [0]
    while not covered.all():
        reps.append(int(np.argmin(covered)))
        covered[G.mul[narr, reps[-1]]] = True
    return np.array(reps)


def looped_overgroups(G, mem, gens, p):
    """Index-p overgroups of the p-subgroup H = <gens> with members `mem`,
    by a loop over the elements of N_G(H): the oracle of the batched
    `_index_p_overgroups`.

    Each is <H, x> = H u Hx u ... u Hx^(p-1) for a p-element x in N_G(H)
    outside H with x^p in H, returned as (member tuple, x). An x inside an
    overgroup already found only finds that overgroup again, so it is
    skipped.
    """
    marr = np.array(mem, dtype=np.int32)
    hmask = np.zeros(G.order, dtype=bool)
    hmask[marr] = True
    seen = hmask.copy()             # H and every overgroup found so far
    out = []
    for x in np.flatnonzero(_normalizer_mask(G, gens, hmask)):
        x = int(x)
        if seen[x] or not is_p_power(int(G.elem_order[x]), p):
            continue
        if not hmask[G.power(x, p)]:
            continue
        cosets = [marr]
        for _ in range(p - 1):
            cosets.append(G.mul[cosets[-1], x])
        members = np.sort(np.concatenate(cosets))
        if (members[1:] == members[:-1]).any():
            raise LatticeConstructionFailed("coset union has wrong size")
        seen[members] = True
        out.append((tuple(int(v) for v in members), x))
    return out


def batched_overgroups(G, p, nodes):
    """[(member tuple, x), ...] per node from one `_index_p_overgroups`
    batch over the given nodes, all of one order.
    """
    hmasks = np.array([H.mask for H in nodes])
    nmasks = np.array([_normalizer_mask(G, H.members, H.mask) for H in nodes])
    out = [[] for _ in nodes]
    for t, over, x in zip(*(a.tolist() for a in _index_p_overgroups(
            G, p, hmasks, nmasks, _pth_powers(G, p)))):
        out[t].append((tuple(over), x))
    return out


def levelled_p_subgroups(G, p):
    """All p-subgroups of G by order exponent: {k: sorted member tuples}."""
    level = sorted({
        tuple(sorted({G.power(x, i) for i in range(p)}))
        for x in range(G.order) if int(G.elem_order[x]) == p
    })
    levels = {}
    k = 1
    while level:
        levels[k] = level
        level = sorted(set().union(
            *(_extensions_by_subgroup_tables(G, mem, p) for mem in level)))
        k += 1
    return levels


def scanned_p_lattice(G, p, e, levels):
    """S_{p,e} from levelled_p_subgroups, covers by comparing every pair."""
    mems = [mem for k in sorted(levels) if p ** k > p ** e
            for mem in levels[k]]
    nodes = tuple(make_subgroup(G, mem) for mem in mems)
    covers = [(i, j) for j, K in enumerate(nodes) for i, H in enumerate(nodes)
              if H.order * p == K.order and H.member_set <= K.member_set]
    full = p ** max(levels) if levels else None
    return PSubgroupLattice(
        group=G, p=p, e=e, nodes=nodes, covers=tuple(covers),
        sylow_ids=tuple(i for i, s in enumerate(nodes) if s.order == full),
        node_index={mem: i for i, mem in enumerate(mems)},
        conjugates=None)      # the scan forms no classes


def intersection_of_level(levels, k):
    """Members of the intersection of all subgroups at order exponent k."""
    return tuple(sorted(set.intersection(*(set(m) for m in levels[k]))))


def validate_group_table(G, check_associativity=True):
    """Exhaustive structural validation (associativity for n <= 256)."""
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


def conjugate_subgroup(G, H, g):
    """H^g = {g^-1 h g : h in H}."""
    if H.parent is not G:
        raise NotASubgroup("subgroup belongs to a different parent group")
    return make_subgroup(G, (int(x) for x in G.conj_set(H.members, g)))


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


# --- character constructions checked against the tables ----------------

def check_column_orthogonality(table):
    q = table.q
    V = table.values_matrix() % q
    cls = table.classes
    n = table.group.order
    for j in range(cls.count):
        for k in range(cls.count):
            s = int((V[:, j] * V[:, cls.inverse_class[k]] % q).sum() % q)
            expected = n * inv_mod(int(cls.sizes[j]), q) % q if j == k else 0
            if s != expected:
                return False
    return True


def regular_character(table):
    """Class-function vector of the regular character."""
    vals = np.zeros(table.classes.count, dtype=np.int64)
    vals[0] = table.group.order
    return vals


@dataclass(frozen=True, eq=False)
class DirectProductStructure:
    """Validated internal direct product G = A x B with factor maps."""

    group: GroupTable
    a: Subgroup
    b: Subgroup
    a_of: np.ndarray
    b_of: np.ndarray


def validate_direct_product(G, A, B):
    if A.parent is not G or B.parent is not G:
        raise NotADirectProduct("factors belong to a different group")
    if A.order * B.order != G.order:
        raise NotADirectProduct("|A||B| != |G|")
    if A.member_set & B.member_set != {0}:
        raise NotADirectProduct("factors intersect nontrivially")
    amarr = np.array(A.members, dtype=np.int32)
    bmarr = np.array(B.members, dtype=np.int32)
    if not (G.mul[np.ix_(amarr, bmarr)] == G.mul[np.ix_(bmarr, amarr)].T).all():
        raise NotADirectProduct("factors do not commute elementwise")
    a_of = np.full(G.order, -1, dtype=np.int32)
    b_of = np.full(G.order, -1, dtype=np.int32)
    prods = G.mul[np.ix_(amarr, bmarr)]
    for i, a in enumerate(A.members):
        for j, b in enumerate(B.members):
            g = int(prods[i, j])
            if a_of[g] >= 0:
                raise NotADirectProduct("factorization is not unique")
            a_of[g] = a
            b_of[g] = b
    if (a_of < 0).any():
        raise NotADirectProduct("AB != G")
    return DirectProductStructure(group=G, a=A, b=B, a_of=a_of, b_of=b_of)


def direct_product_char(ctx, dp, phi, psi):
    """(phi x psi)(ab) = phi(a) psi(b), returned as a row of Irr(G)."""
    if dp.group is not ctx.group:
        raise ContextMismatch("direct product structure for a different group")
    q = ctx.q
    tG = ctx.table(None)
    tA = ctx.table(dp.a)
    tB = ctx.table(dp.b)
    phi_vals = np.asarray(phi.values, dtype=np.int64)
    psi_vals = np.asarray(psi.values, dtype=np.int64)
    vals = []
    for g in tG.classes.reps:
        a = int(dp.a_of[g])
        b = int(dp.b_of[g])
        va = phi_vals[tA.classes.class_of[dp.a.members.index(a)]]
        vb = psi_vals[tB.classes.class_of[dp.b.members.index(b)]]
        vals.append(int(va * vb % q))
    vals = tuple(vals)
    for chi in tG.chars:
        if chi.values == vals:
            return chi
    raise AssertionError("product character is not a table row")


def lift_through_complement(ctx, H, K, phi):
    """Lift of phi in Irr(K) to G = HK along g = hk -> phi(k)."""
    G = ctx.group
    if H.parent is not G or K.parent is not G:
        raise ContextMismatch("semidirect parts of a different group")
    tG = ctx.table(None)
    tK = ctx.table(K)
    vals = []
    for g in tG.classes.reps:
        # the k with g k^-1 in H; it is unique since H and K meet trivially
        k = next(k for k in K.members if H.mask[G.mul[g, G.inv[k]]])
        vals.append(int(phi.values[tK.classes.class_of[K.members.index(k)]]))
    vals = tuple(vals)
    for chi in tG.chars:
        if chi.values == vals:
            return chi
    raise AssertionError("lift is not a table row; character not constant on classes?")


def complex_character_values(table):
    """Approximate complex values, for display only (never used in logic)."""
    G = table.group
    q = table.q
    root = _primitive_root(q)
    out = []
    for chi in table.chars:
        row = []
        for j, rep in enumerate(table.classes.reps):
            e = int(G.elem_order[rep])
            z = pow(root, (q - 1) // e, q)
            # chi on the powers of rep
            powers = [table.classes.class_of[G.power(rep, s)] for s in range(e)]
            inv_e = inv_mod(e, q)
            val = 0.0 + 0.0j
            for t in range(e):
                c = sum(chi.values[powers[s]] * pow(z, (-s * t) % (q - 1), q)
                        for s in range(e)) % q * inv_e % q
                val += c * cmath.exp(2j * cmath.pi * t / e)
            row.append(val)
        out.append(row)
    return out

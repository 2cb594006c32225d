"""Connected components of node/edge structures and group actions on them.

Components are computed with union-find and reported as a canonical
Partition: each node is labeled by the smallest node index in its component,
and component ids are assigned in ascending order of those representatives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ActionNotCompatible


@dataclass(frozen=True)
class Partition:
    """Canonical partition of range(node_count) into connected components."""

    node_count: int
    component_of: tuple    # node index -> component id
    components: tuple      # component id -> sorted tuple of node indices

    @property
    def count(self):
        return len(self.components)

    @property
    def component_sizes(self):
        return tuple(len(c) for c in self.components)

    @property
    def representatives(self):
        return tuple(c[0] for c in self.components)


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        root = a
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[a] != root:
            self.parent[a], a = root, self.parent[a]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # keep the smaller index as representative for canonical labels
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def components(node_count, edges):
    """Partition of range(node_count) under the given undirected edges."""
    uf = _UnionFind(node_count)
    for a, b in edges:
        uf.union(a, b)
    roots = sorted({uf.find(i) for i in range(node_count)})
    comp_id = {r: k for k, r in enumerate(roots)}
    component_of = tuple(comp_id[uf.find(i)] for i in range(node_count))
    comps = [[] for _ in roots]
    for i, c in enumerate(component_of):
        comps[c].append(i)
    return Partition(node_count, component_of,
                     tuple(tuple(c) for c in comps))


def action_on_components(partition, node_image, base_node=0):
    """Orbit of the component containing base_node under a group given by
    generators, as a sorted tuple of component ids.

    node_image[k][v] must be the image of node v under the k-th generator,
    read as a (generators, nodes) int array. The maps are assumed, not
    checked, to permute the nodes. A wrong shape or a generator that splits
    a component across components raises ActionNotCompatible. The orbit is
    the closure of the base component under the generators: in a finite
    group every inverse is a positive power, so the closure is the orbit.
    """
    n = partition.node_count
    img = np.asarray(node_image)
    if img.ndim != 2 or img.shape[1] != n:
        raise ActionNotCompatible(
            f"node images have shape {img.shape}, need (generators, {n})")
    comp_of = np.array(partition.component_of, dtype=np.int32)
    # cimg[k, c] = component of generator k's image of c's least node
    cimg = comp_of[img[:, list(partition.representatives)]]
    split = np.flatnonzero((comp_of[img] != cimg[:, comp_of]).any(axis=1))
    if split.size:
        raise ActionNotCompatible(
            f"generator {int(split[0])} splits a component across components")

    orbit = {int(comp_of[base_node])}
    frontier = list(orbit)
    while frontier:
        found = set(cimg[:, frontier].ravel().tolist()) - orbit
        orbit |= found
        frontier = list(found)
    return tuple(sorted(orbit))

"""Connected components of node/edge structures and group actions on them.

Components are computed with union-find and reported as a canonical
Partition: each node is labeled by the smallest node index in its component,
and component ids are assigned in ascending order of those representatives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ActionNotCompatible
from .group import Subgroup, make_subgroup


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


@dataclass(frozen=True, eq=False)
class ComponentAction:
    """A group's permutation action on the components of a partition."""

    partition: Partition
    component_image: np.ndarray  # [g, c] = image of component c, read-only
    orbit: tuple                 # orbit of the base component, sorted
    stabilizer: Subgroup         # stabilizer of the base component


def action_on_components(G, partition, node_image, base_node=0):
    """Induced action of G on components, with the orbit and stabilizer of
    the component containing base_node.

    node_image[g][v] must be the image of node v under group element g,
    read as a (|G|, nodes) int array. The maps are assumed, not checked, to
    form an action. A wrong shape, an element that splits a component
    across components, or a failed orbit-stabilizer identity
    |orbit| * |stab| = |G| raises ActionNotCompatible.
    """
    n = partition.node_count
    img = np.asarray(node_image)
    if img.shape != (G.order, n):
        raise ActionNotCompatible(
            f"node images have shape {img.shape}, need {(G.order, n)}")
    comp_of = np.array(partition.component_of, dtype=np.int32)
    # cimg[g, c] = component of g's image of the least node of component c
    cimg = comp_of[img[:, list(partition.representatives)]]
    split = np.flatnonzero((comp_of[img] != cimg[:, comp_of]).any(axis=1))
    if split.size:
        raise ActionNotCompatible(
            f"element {int(split[0])} splits a component across components")

    base = int(comp_of[base_node])
    orbit = sorted(set(cimg[:, base].tolist()))
    stabilizer = make_subgroup(G, np.flatnonzero(cimg[:, base] == base))
    if len(orbit) * stabilizer.order != G.order:
        raise ActionNotCompatible("orbit-stabilizer identity failed")
    cimg.setflags(write=False)
    return ComponentAction(partition, cimg, tuple(orbit), stabilizer)

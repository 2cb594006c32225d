"""Connected components of node/edge structures and group actions on them.

Components are computed by hooking and pointer jumping over numpy arrays and
reported as a canonical Partition, one read-only array of component ids:
ids are assigned in ascending order of each component's least node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ActionNotCompatible


@dataclass(frozen=True, eq=False)
class Partition:
    """Canonical partition of range(node_count) into connected components."""

    component_of: np.ndarray   # node -> component id, a read-only int array

    @property
    def node_count(self):
        return len(self.component_of)

    @property
    def count(self):
        return int(self.component_of.max(initial=-1)) + 1

    @property
    def component_sizes(self):
        return tuple(np.bincount(self.component_of).tolist())


def components(node_count, edges):
    """Partition of range(node_count) under the given undirected edges.

    edges is a sequence of pairs or an (m, 2) int array. Each node points
    at a lesser node of its component, or at itself as a root. A round
    jumps every pointer to its root, then hooks the greater root of every
    edge that joins two trees onto the least root it is joined to. Each
    round merges trees, and the last leaves one tree per component, rooted
    at its least node.
    """
    a, b = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    parent = np.arange(node_count)
    while True:
        jump = parent[parent]
        while (jump != parent).any():
            parent, jump = jump, jump[jump]
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            break
        lo, hi = np.minimum(ra, rb)[cross], np.maximum(ra, rb)[cross]
        np.minimum.at(parent, hi, lo)
    roots = parent == np.arange(node_count)
    component_of = (np.cumsum(roots) - 1)[parent]
    component_of.setflags(write=False)
    return Partition(component_of)


def action_on_components(partition, node_image, base_node=0):
    """Orbit of the component containing base_node under a group given by
    generators, as a sorted tuple of component ids.

    node_image[k][v] must be the image of node v under the k-th generator,
    read as a (generators, nodes) int array. The maps are assumed, not
    checked, to permute the nodes. A wrong shape or a generator that splits
    a component across components raises ActionNotCompatible. The orbit is
    the closure of the base component under the generators: in a finite
    group every inverse is a positive power, so the closure is the orbit.
    A test oracle, not used by the library; it stays in src/ because the
    benchmark's tracer wraps it by name.
    """
    n = partition.node_count
    img = np.asarray(node_image)
    if img.ndim != 2 or img.shape[1] != n:
        raise ActionNotCompatible(
            f"node images have shape {img.shape}, need (generators, {n})")
    comp_of = partition.component_of
    # cimg[k, c] = component of generator k's image of c's least node
    least = np.unique(comp_of, return_index=True)[1]
    cimg = comp_of[img[:, least]]
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

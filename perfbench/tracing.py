"""Outside-in per-layer tracing for the charposet benchmark.

Wrappers are installed around the public functions of each layer, on every
``charposet`` module attribute that refers to them, because ``gamma`` and
``chartab`` bind the names they import at import time: patching only the
defining module would miss those calls. Each wrapper calls the original
unchanged and passes its result through. Spans (name, start, end, parent,
tag) are kept in memory and written out when the pass ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

from workloads import CLAIM_IDS

# (module, attribute, span name). Span names are the metric prefixes.
_SPANNED = (
    ("charposet.catalog", "realize_group", "catalog.realize_group"),
    ("charposet.group", "enumerate_p_subgroups", "group.enumerate_p_subgroups"),
    ("charposet.group", "all_subgroups", "group.all_subgroups"),
    ("charposet.chartab", "irr_table", "chartab.irr_table"),
    ("charposet.chartab", "conjugacy_classes", "chartab.conjugacy_classes"),
    ("charposet.chartab", "CharContext.table", "chartab.table"),
    ("charposet.modlinalg", "charpoly", "modlinalg.charpoly"),
    ("charposet.modlinalg", "roots_in_field", "modlinalg.roots_in_field"),
    ("charposet.modlinalg", "nullspace", "modlinalg.nullspace"),
    ("charposet.gamma", "build_s_poset", "gamma.build_s_poset"),
    ("charposet.gamma", "build_gamma_poset", "gamma.build_gamma_poset"),
    ("charposet.gamma", "restriction_multiplicities",
     "gamma.restriction_multiplicities"),
    ("charposet.gamma", "has_strongly_embedded_subgroup",
     "gamma.has_strongly_embedded_subgroup"),
    ("charposet.gamma", "strongly_embedded_check",
     "gamma.strongly_embedded_check"),
    ("charposet.gamma", "s_node_images", "gamma.s_node_images"),
    ("charposet.gamma", "s_poset", "gamma.s_poset"),
    ("charposet.gamma", "gamma_poset", "gamma.gamma_poset"),
    ("charposet.gamma", "verify", "gamma.verify"),
    ("charposet.poset", "components", "poset.components"),
    ("charposet.poset", "action_on_components", "poset.action_on_components"),
)
# Called tens of thousands of times by the all-subgroup scan: counted only.
_COUNTED = (("charposet.group", "closure_members", "group.closure_members"),)

# A cache front hits when the function that fills it was not called inside.
_FILLED_BY = {
    "chartab.table": "chartab.irr_table",
    "gamma.s_poset": "gamma.build_s_poset",
    "gamma.gamma_poset": "gamma.build_gamma_poset",
}


def _metric_names():
    out = [("catalog.realize_group.s", "s"),
           ("catalog.realize_group.calls", "count")]

    def timed(name, self_s=False):
        out.append((f"{name}.s", "s"))
        if self_s:
            out.append((f"{name}.self_s", "s"))
        out.append((f"{name}.calls", "count"))

    timed("group.enumerate_p_subgroups", self_s=True)
    out += [("group.lattice.nodes", "count"), ("group.lattice.covers", "count")]
    timed("group.all_subgroups")
    out += [("group.all_subgroups.groups", "count"),
            ("group.all_subgroups.subgroups", "count"),
            ("group.closure_members.calls", "count")]
    timed("chartab.irr_table", self_s=True)
    out.append(("chartab.irr_table.classes", "count"))
    timed("chartab.irr_table.abelian")
    timed("chartab.conjugacy_classes")
    out += [("chartab.table.hits", "count"), ("chartab.table.misses", "count"),
            ("chartab.table.hit_ratio", "ratio")]
    for name in ("charpoly", "roots_in_field", "nullspace"):
        timed(f"modlinalg.{name}")
    timed("gamma.build_s_poset")
    timed("gamma.build_gamma_poset", self_s=True)
    out += [("gamma.gamma.nodes", "count"), ("gamma.gamma.edges", "count")]
    for name in ("restriction_multiplicities", "has_strongly_embedded_subgroup",
                 "strongly_embedded_check", "s_node_images"):
        timed(f"gamma.{name}")
    out += [("gamma.s_poset.hit_ratio", "ratio"),
            ("gamma.gamma_poset.hit_ratio", "ratio")]
    out += [(f"gamma.verify.{c.replace('.', '_')}.s", "s") for c in CLAIM_IDS]
    timed("poset.components")
    timed("poset.action_on_components")
    out += [("trace.overhead_frac", "ratio"), ("trace.unattributed_s", "s")]
    return tuple(out)


# Every per-layer metric a traced run reports, with its unit.
PER_LAYER = _metric_names()


class Tracer:
    """Span recorder plus counters; ``install`` patches, ``uninstall`` undoes."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, tag]
        self._stack = []
        self.calls = Counter()
        self.counts = Counter()
        self.hits = Counter()
        self._scanned = {}       # id(G) -> G, groups given to all_subgroups
        self._patches = []       # (owner, attribute, original)
        self._in_realize = False

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name, fn):
        filler = _FILLED_BY.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "catalog.realize_group":
                if tracer._in_realize:      # recursion for products
                    return fn(*args, **kwargs)
                tracer._in_realize = True
            before = tracer.calls[filler] if filler else 0
            tracer.calls[name] += 1
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [name, 0.0, 0.0, parent, tracer._tag(name, args)]
            if span[4] == "abelian":
                tracer.calls["chartab.irr_table.abelian"] += 1
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
                if name == "catalog.realize_group":
                    tracer._in_realize = False
            if filler:
                tracer.hits[name] += tracer.calls[filler] == before
            tracer._count(name, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @staticmethod
    def _tag(name, args):
        if name == "chartab.irr_table":
            return "abelian" if args[0].is_abelian() else ""
        if name == "gamma.verify":
            return args[3]
        return ""

    def _count(self, name, args, result):
        c = self.counts
        if name == "group.enumerate_p_subgroups":
            c["group.lattice.nodes"] += result.node_count
            c["group.lattice.covers"] += len(result.covers)
        elif name == "group.all_subgroups":
            G = args[0]
            if id(G) not in self._scanned:
                self._scanned[id(G)] = G
                c["group.all_subgroups.groups"] += 1
                c["group.all_subgroups.subgroups"] += len(result)
        elif name == "chartab.irr_table":
            c["chartab.irr_table.classes"] += result.classes.count
        elif name == "gamma.build_gamma_poset":
            c["gamma.gamma.nodes"] += result.node_count
            c["gamma.gamma.edges"] += len(result.edges)

    # -- installation -----------------------------------------------------

    def install(self):
        """Replace every charposet binding of each traced function."""
        for targets, make in ((_SPANNED, self._span_wrapper),
                              (_COUNTED, self._count_wrapper)):
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._patch(owner, meth, original, make(name, original))
                    continue
                original = getattr(module, attr)
                wrapper = make(name, original)
                for mod in list(sys.modules.values()):
                    mod_name = getattr(mod, "__name__", "")
                    if mod_name != "charposet" and \
                            not mod_name.startswith("charposet."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self, wall_s):
        """Per-layer metrics of a traced pass of ``wall_s`` seconds.

        Keyed as in PER_LAYER, except ``trace.overhead_frac``, which needs an
        untraced pass to compare with.
        """
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        incl = Counter()
        self_s = Counter()
        roots = 0.0
        for i, (name, t0, t1, parent, tag) in enumerate(self.spans):
            dur = t1 - t0
            self_s[name] += dur - child[i]
            if parent < 0:
                roots += dur
            if not self._has_ancestor(i, name):
                incl[name] += dur
                if tag == "abelian":
                    incl["chartab.irr_table.abelian"] += dur
                elif name == "gamma.verify":
                    incl[f"gamma.verify.{tag.replace('.', '_')}"] += dur
        out = {}
        for key, _ in PER_LAYER:
            base, _, field = key.rpartition(".")
            if base == "trace":
                continue
            if field == "s":
                out[key] = incl[base]
            elif field == "self_s":
                out[key] = self_s[base]
            elif field == "calls":
                out[key] = self.calls[base]
            elif field == "hits":
                out[key] = self.hits[base]
            elif field == "misses":
                out[key] = self.calls[base] - self.hits[base]
            elif field == "hit_ratio":
                calls = self.calls[base]
                out[key] = self.hits[base] / calls if calls else 0.0
            else:
                out[key] = self.counts[key]
        out["trace.unattributed_s"] = wall_s - roots
        return out

    def _has_ancestor(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

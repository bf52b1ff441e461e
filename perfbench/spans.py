"""Call wrappers for domlab's public functions: node tallies and spans.

Both kinds of wrapper are installed from outside the program: each wrapped
function is rebound under every name that refers to it in the ``domlab``
modules, including values in module-level dicts (``claims._PLAIN_CHECKS``
holds the check functions themselves), because a module that imported a name
calls its own binding, not the defining module's.

* ``Tally`` records only ``Certificate.nodes`` per solver.  It stays on in
  timed runs so that node counts can be compared between passes; it takes no
  clock readings.
* ``Tracer`` records a span per wrapped call: group, start, end and parent.
  Spans are kept in memory and written out at the end.  A group's self time
  is its spans' durations minus the durations of their direct child spans.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

SOLVERS = {
    "domination_number": "gamma",
    "total_domination_number": "gamma_t",
    "paired_domination_number": "gamma_pr",
    "upper_domination_number": "upper_gamma",
    "packing_number": "rho_k",
    "independence_number": "alpha",
}

# (module, function) -> span group.  Claims' check functions are added from
# SUITE_ORDER at install time.
LAYER_GROUPS = {
    **{("solvers", fn): f"solvers.{p}" for fn, p in SOLVERS.items()},
    **{
        ("solvers", fn): "solvers.checks"
        for fn in (
            "is_dominating",
            "is_total_dominating",
            "is_paired_dominating",
            "pairing_is_valid",
            "is_minimal_dominating",
            "is_k_packing",
            "private_neighbors",
        )
    },
    ("solvers", "minimal_total_dominating_sizes"): "solvers.exhaustive",
    ("solvers", "upper_domination_exhaustive"): "solvers.exhaustive",
    ("claims", "distinct_trees"): "claims.distinct_trees",
    ("claims", "ratio_scan"): "claims.ratio_scan",
    **{
        ("families", fn): "families.build"
        for fn in (
            "build_family",
            "complete",
            "path",
            "cycle",
            "star",
            "subdivided_star",
            "lollipop",
            "pendant_pairs",
            "rook2xn",
            "cayleypop",
            "random_tree",
            "random_graph",
        )
    },
    ("products", "direct_product"): "products.direct",
    ("products", "cartesian_product"): "products.cartesian",
    ("products", "multiway_direct_complete"): "products.multiway",
    ("products", "implicit_direct_domination_check"): "products.implicit_check",
    ("products", "implicit_direct_total_check"): "products.implicit_check",
    ("products", "product_pairing_is_valid"): "products.implicit_check",
    ("products", "product_pair_adjacent"): "products.implicit_check",
    ("matching", "has_perfect_matching"): "matching",
    ("graphs", "read_graph_text"): "graphs.read",
    ("graphs", "write_graph_text"): "graphs.write",
    ("graphs", "connected_components"): "graphs.components",
    ("graphs", "induced_subgraph"): "graphs.induced",
    ("graphs", "distance_power_conflict_graph"): "graphs.conflict",
}


def _rebind(originals_to_wrappers):
    """Points every domlab binding of each original at its wrapper; returns
    the undo list."""
    undo = []
    for modname, mod in list(sys.modules.items()):
        if modname != "domlab" and not modname.startswith("domlab."):
            continue
        for ns in [vars(mod)] + [v for v in vars(mod).values() if isinstance(v, dict)]:
            for key, val in list(ns.items()):
                wrapper = originals_to_wrappers.get(id(val))
                if wrapper is not None and val is wrapper[0]:
                    ns[key] = wrapper[1]
                    undo.append((ns, key, val))
    return undo


def _unbind(undo):
    for ns, key, val in reversed(undo):
        ns[key] = val


def layer_groups():
    """The span group of every wrapped function, claims' checks included."""
    from domlab.claims import SUITE_ORDER

    groups = dict(LAYER_GROUPS)
    for claim_id in SUITE_ORDER:
        groups[("claims", "check_" + claim_id.replace("-", "_"))] = f"claims.{claim_id}"
    return groups


class Tally:
    """Per-solver totals of ``Certificate.nodes`` and calls, no timing."""

    def __init__(self):
        self.nodes = {p: 0 for p in SOLVERS.values()}
        self._undo = None

    def take(self):
        """Returns the totals since the last take and resets them."""
        out, self.nodes = self.nodes, {p: 0 for p in SOLVERS.values()}
        return out

    def install(self):
        import domlab.solvers as solvers

        wrappers = {}
        for fn, p in SOLVERS.items():
            orig = getattr(solvers, fn)
            wrappers[id(orig)] = (orig, self._wrap(orig, p))
        self._undo = _rebind(wrappers)

    def uninstall(self):
        _unbind(self._undo)

    def _wrap(self, fn, p):
        def tallied(*args, **kwargs):
            cert = fn(*args, **kwargs)
            self.nodes[p] += cert.nodes
            return cert

        tallied.__wrapped__ = fn
        return tallied


class Tracer:
    """Spans in memory plus per-group aggregates keyed by the benchmark-level
    operation that was open when the span started."""

    def __init__(self):
        self.spans = []  # (group, op label, op span index, start, end, parent index or -1)
        self.agg = {}  # (op label, group) -> stats dict
        self._stack = []  # [span index, time in child spans] of open spans
        self._depth = {}  # group -> number of open spans of that group
        self._root = ""
        self._op = -1
        self._undo = None

    def install(self):
        wrappers = {}
        for (modname, fn), group in layer_groups().items():
            orig = getattr(sys.modules[f"domlab.{modname}"], fn)
            wrappers[id(orig)] = (orig, self._wrap(orig, group))
        self._undo = _rebind(wrappers)

    def uninstall(self):
        _unbind(self._undo)

    def _stats(self, group):
        key = (self._root, group)
        st = self.agg.get(key)
        if st is None:
            st = self.agg[key] = {
                "calls": 0, "ms": 0.0, "self_ms": 0.0,
                "nodes": 0, "exact": 0, "vertices": 0, "bytes": 0,
                "max_order": 0, "items": 0,
            }
        return st

    def _enter(self, group):
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append([idx, 0.0])
        self._depth[group] = self._depth.get(group, 0) + 1
        return idx, parent, time.perf_counter()

    def _exit(self, group, idx, parent, start):
        end = time.perf_counter()
        dur = end - start
        _, child = self._stack.pop()
        self.spans[idx] = (group, self._root, self._op, start, end, parent)
        if self._stack:
            self._stack[-1][1] += dur
        st = self._stats(group)
        st["self_ms"] += (dur - child) * 1000.0
        self._depth[group] -= 1
        outermost = self._depth[group] == 0
        if outermost:
            st["calls"] += 1
            st["ms"] += dur * 1000.0
        return st, outermost

    @contextmanager
    def span(self, group):
        """A span opened by the benchmark itself, e.g. around ``cli.main``."""
        idx, parent, start = self._enter(group)
        try:
            yield
        finally:
            self._exit(group, idx, parent, start)

    @contextmanager
    def operation(self, root):
        """A benchmark-level span: one command or file round trip."""
        prev = self._root, self._op
        self._root, self._op = root, len(self.spans)
        idx, parent, start = self._enter("op")
        try:
            yield
        finally:
            self._exit("op", idx, parent, start)
            self._root, self._op = prev

    def _wrap(self, fn, group):
        tracer = self

        def traced(*args, **kwargs):
            idx, parent, start = tracer._enter(group)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                st, outermost = tracer._exit(group, idx, parent, start)
                if outermost and result is not None:
                    _count(st, group, args, result)

        traced.__wrapped__ = fn
        return traced

    def write(self, path):
        """Writes the spans as JSON lines, times in ms from the first span.
        Spans of one operation share its ``op_id``, the index of its span."""
        t0 = min((s[3] for s in self.spans if s), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (group, root, op_id, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "parent": parent, "op": root, "op_id": op_id, "group": group,
                    "start_ms": round((start - t0) * 1000.0, 4),
                    "end_ms": round((end - t0) * 1000.0, 4),
                }) + "\n")


def _count(st, group, args, result):
    """Work counts read from a finished outermost call."""
    if group.startswith("solvers.") and hasattr(result, "nodes"):
        st["nodes"] += result.nodes
        st["exact"] += int(result.exact)
    elif group in ("products.direct", "products.cartesian"):
        st["vertices"] += result[0].n
    elif group == "products.multiway":
        st["vertices"] += result.n
    elif group == "matching":
        st["max_order"] = max(st["max_order"], args[0].n)
    elif group == "graphs.read":
        st["bytes"] += len(args[0])  # canonical graph text is ASCII
    elif group == "graphs.write":
        st["bytes"] += len(result)
    elif group == "claims.distinct_trees":
        st["items"] += len(result)
    elif group == "claims.ratio_scan":
        st["items"] += len(args[0])

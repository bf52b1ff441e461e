"""Constructors for every graph family the harness uses, seeded random generators
for property tests, and the FamilySpec string grammar: a family name, then the
parts its _FAMILIES shape names, as in complete:6, cayleypop[2,5]:3,
random_graph:10:30#7 (edge percent 0..100) or lollipop(pendant_pairs(path:3)):2@0.
Only the canonical spelling parses (canonical_spec gives it back).
"""

from __future__ import annotations

import heapq
import random
import re
from typing import NamedTuple

from .graphs import EDGE_CAP, ORDER_CAP, DomainError, Graph, ResourceError
from .products import cartesian_product, multiway_direct_complete


def _guard_order(family: str, n: int, order: int, least: int = 1):
    """A parameter n below least is a domain error; an order over the one
    desk-scale ceiling of the whole lab, shared with product
    materialization, a resource error."""
    if n < least:
        raise DomainError(f"{family}: n >= {least}")
    if order > ORDER_CAP:
        raise ResourceError(f"{family}: order {order} exceeds the {ORDER_CAP}-vertex cap")


def complete(n: int) -> Graph:
    _guard_order("complete", n, n)
    full = (1 << n) - 1
    return Graph.from_rows([full ^ (1 << v) for v in range(n)], f"complete:{n}")


def path(n: int) -> Graph:
    _guard_order("path", n, n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)], f"path:{n}")


def cycle(n: int) -> Graph:
    _guard_order("cycle", n, n, 3)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, edges, f"cycle:{n}")


def star(n: int) -> Graph:
    """Center 0 joined to leaves 1..n."""
    _guard_order("star", n, n + 1)
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)], f"star:{n}")


def subdivided_star(n: int) -> Graph:
    """Star with every edge subdivided once: center 0, midpoints 1..n, leaf n+i
    hanging off midpoint i."""
    _guard_order("subdivided_star", n, 2 * n + 1)
    edges = [(0, i) for i in range(1, n + 1)] + [(i, n + i) for i in range(1, n + 1)]
    return Graph(2 * n + 1, edges, f"subdivided_star:{n}")


def lollipop(g: Graph, ell: int, anchor: int) -> Graph:
    """Append a path on ell new vertices, bridged from anchor to the first new one.

    New vertices are labeled n..n+ell-1 along the path; ell = 0 returns g as is.
    """
    if ell < 0:
        raise DomainError("lollipop: ell >= 0")
    _guard_order("lollipop", ell, g.n + ell, 0)
    if not 0 <= anchor < g.n:
        raise IndexError(f"anchor {anchor} out of range")
    if ell == 0:
        return g
    n = g.n
    rows = list(g.adj) + [0] * ell
    chain = [(anchor, n)] + [(n + i, n + i + 1) for i in range(ell - 1)]
    for u, v in chain:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    label = f"lollipop({g.label}):{ell}@{anchor}" if g.label else ""
    return Graph.from_rows(rows, label)


def pendant_pairs(g: Graph) -> Graph:
    """Attach a two-vertex path to every vertex: v - (n+2v) - (n+2v+1)."""
    n = g.n
    _guard_order("pendant_pairs", n, 3 * n, 0)
    rows = list(g.adj) + [0] * (2 * n)
    for v in range(n):
        mid, tip = n + 2 * v, n + 2 * v + 1
        rows[v] |= 1 << mid
        rows[mid] |= (1 << v) | (1 << tip)
        rows[tip] |= 1 << mid
    label = f"pendant_pairs({g.label})" if g.label else ""
    return Graph.from_rows(rows, label)


def rook2xn(n: int) -> Graph:
    """The 2xn rook graph: two n-cliques plus the perfect matching between them.
    Vertex (i, j) has index i*n + j."""
    _guard_order("rook2xn", n, 2 * n)
    g, _ = cartesian_product(complete(2), complete(n))
    return Graph.from_rows(g.adj, f"rook2xn:{n}")


def cayleypop(factor_orders, ell: int) -> Graph:
    """Lollipop over a complete-graph product with pairwise distinct factor orders,
    anchored at the all-zero tuple."""
    orders = list(factor_orders)
    if len(set(orders)) != len(orders):
        raise DomainError("cayleypop: factor orders must be distinct")
    g = lollipop(multiway_direct_complete(orders), ell, 0)
    label = "cayleypop[" + ",".join(map(str, orders)) + f"]:{ell}"
    return Graph.from_rows(g.adj, label)


def prufer_decode(seq, n: int):
    """Edge list of the labeled tree on n >= 2 vertices with Prufer sequence seq."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, v), max(leaf, v)))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, w), max(u, w)))
    return edges


def random_tree(n: int, seed: int) -> Graph:
    """Uniform labeled tree by decoding a random Prufer sequence; deterministic in seed."""
    _guard_order("random_tree", n, n)
    label = f"random_tree:{n}#{seed}"
    if n == 1:
        return Graph(1, [], label)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph(n, prufer_decode(seq, n), label)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with independent edge flips in fixed (u, v) order; raises
    ResourceError, drawing no more pairs, once its rows pass EDGE_CAP edges."""
    if not 0 <= p <= 1:
        raise DomainError("random_graph: probability in [0, 1]")
    _guard_order("random_graph", n, n)
    draw = random.Random(seed).random
    rows = [0] * n
    m = 0
    for u in range(n):
        row, bit = rows[u], 1 << u
        for v in range(u + 1, n):
            if draw() < p:
                row |= 1 << v
                rows[v] |= bit
        rows[u] = row
        m += (row >> u).bit_count()
        if m > EDGE_CAP:
            raise ResourceError(f"random_graph: {m} edges in {u + 1} of {n} rows, above the {EDGE_CAP}-edge cap")
    return Graph.from_rows(rows, f"random_graph:{n}:{p:g}#{seed}")


def _random_graph_percent(n: int, pct: int, seed: int) -> Graph:
    """random_graph with its edge probability given in percent, as specs do."""
    if not 0 <= pct <= 100:
        raise DomainError("random_graph edge percent must be 0..100")
    return random_graph(n, pct / 100, seed)


class FamilySpec(NamedTuple):
    """Declarative description of a constructed graph; see the module grammar."""

    family: str
    params: tuple = ()
    seed: int | None = None
    inner: FamilySpec | None = None
    anchor: int | None = None


def _anchored_lollipop(g: Graph, ell: int, anchor: int) -> Graph:
    """lollipop for specs: an anchor outside g is a spec error, not an IndexError."""
    if not 0 <= anchor < g.n:
        raise DomainError(f"lollipop anchor {anchor} outside the inner graph's {g.n} vertices")
    return lollipop(g, ell, anchor)


# family -> (constructor, shape). The shape spells the canonical form after the
# name, one mark per part: "(" an inner spec, "[" a bracket list of leading
# parameters, each ":" one more parameter, "@" an anchor, "#" a seed. The
# constructor takes the parts in that order, the inner spec built.
_FAMILIES = {
    "complete": (complete, ":"),
    "path": (path, ":"),
    "cycle": (cycle, ":"),
    "star": (star, ":"),
    "subdivided_star": (subdivided_star, ":"),
    "rook2xn": (rook2xn, ":"),
    "complete_product": (multiway_direct_complete, "["),
    "cayleypop": (cayleypop, "[:"),
    "random_tree": (random_tree, ":#"),
    "random_graph": (_random_graph_percent, "::#"),
    "lollipop": (_anchored_lollipop, "(:@"),
    "pendant_pairs": (pendant_pairs, "("),
}
_FORMS = {"(": "(<spec>)", "[": "[n,...]", ":": ":n", "@": "@anchor", "#": "#seed"}
MAX_NESTING = 32  # inner specs inside inner specs
MAX_DIGITS = 100  # per number, so int() never meets its own digit limit
_NAME = re.compile(r"[a-z_0-9]+")
_NUMBER = re.compile(r"-?(\d+)")


def _parts(spec: FamilySpec, inner):
    """Yields (mark, value) for each mark of spec's shape, in order; the
    inner spec's value is inner(spec.inner)."""
    shape = _FAMILIES[spec.family][1]
    split = len(spec.params) - shape.count(":")
    tail = iter(spec.params[split:])
    for mark in shape:
        if mark == "(":
            yield mark, inner(spec.inner)
        elif mark == "[":
            yield mark, spec.params[:split]
        elif mark == ":":
            yield mark, next(tail)
        else:
            yield mark, spec.anchor if mark == "@" else spec.seed


def canonical_spec(spec: FamilySpec) -> str:
    """The one spelling parse_family_spec accepts for spec, once spec is
    held to its shape."""
    _validate(spec)
    text = spec.family
    for mark, value in _parts(spec, canonical_spec):
        if mark == "[":
            value = ",".join(map(str, value)) + "]"
        text += f"({value})" if mark == "(" else f"{mark}{value}"
    return text


def parse_family_spec(text: str) -> FamilySpec:
    """Parses the canonical spelling only, naming it when rejecting another:
    a lenient reading can build a different graph than the text says."""
    text = text.strip()
    spec, end = _parse(text, 0, 0)
    if end < len(text):
        raise DomainError(f"trailing text {text[end:]!r} in family spec")
    canonical = canonical_spec(spec)
    if text != canonical:
        raise DomainError(f"family spec {text!r} is not canonical; write {canonical!r}")
    return spec


def _number(s: str, i: int):
    m = _NUMBER.match(s, i)
    if not m or len(m.group(1)) > MAX_DIGITS:
        raise DomainError(f"expected a number of at most {MAX_DIGITS} digits near {s[i:i + 20]!r}")
    return int(m.group()), m.end()


def _parse(s: str, i: int, depth: int):
    """Reads one spec at s[i:] with each part optional, in shape order;
    returns it and the index after it. _validate holds it to its shape."""
    if depth > MAX_NESTING:
        raise DomainError(f"family spec nested deeper than {MAX_NESTING} levels")
    m = _NAME.match(s, i)
    if not m:
        raise DomainError(f"bad family spec near {s[i:i + 20]!r}")
    i = m.end()
    params, inner, anchor, seed = [], None, None, None
    if s.startswith("(", i):
        inner, i = _parse(s, i + 1, depth + 1)
        if not s.startswith(")", i):
            raise DomainError("unclosed inner spec")
        i += 1
    if s.startswith("[", i):
        while not params or s.startswith(",", i):
            value, i = _number(s, i + 1)
            params.append(value)
        if not s.startswith("]", i):
            raise DomainError("unclosed bracket list")
        i += 1
    while s.startswith(":", i):
        value, i = _number(s, i + 1)
        params.append(value)
    if s.startswith("@", i):
        anchor, i = _number(s, i + 1)
    if s.startswith("#", i):
        seed, i = _number(s, i + 1)
    return FamilySpec(m.group(), tuple(params), seed, inner, anchor), i


def _validate(spec: FamilySpec):
    """Holds spec and each inner spec to its family's shape, walking at most
    MAX_NESTING levels down as the parser does, so a spec built by hand
    cannot reach the recursion limit."""
    for _ in range(MAX_NESTING + 1):
        f = spec.family
        if f not in _FAMILIES:
            raise DomainError(f"unknown family {f!r}")
        shape = _FAMILIES[f][1]
        listed = len(spec.params) - shape.count(":")  # in the bracket list
        given = {"(": spec.inner, "@": spec.anchor, "#": spec.seed}
        if listed < 0 or (listed > 0) != ("[" in shape) or any(
            (value is not None) != (mark in shape) for mark, value in given.items()
        ):
            raise DomainError(f"{f} specs take the form {f}" + "".join(map(_FORMS.get, shape)))
        spec = spec.inner
        if spec is None:
            return
    raise DomainError(f"family spec nested deeper than {MAX_NESTING} levels")


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph; the label is the canonical spec string."""
    _validate(spec)
    g = _FAMILIES[spec.family][0](*(value for _, value in _parts(spec, build_family)))
    return Graph.from_rows(g.adj, canonical_spec(spec))

"""Constructors for every graph family the harness uses, seeded random generators
for property tests, and the FamilySpec string grammar.

Grammar (the CLI's construct argument):
    complete:6  path:5  cycle:7  star:4  subdivided_star:3  rook2xn:5
    complete_product[4,4,4]      cayleypop[2,5]:3
    random_tree:9#42             random_graph:10:30#7   (edge percent 0..100)
    lollipop(<spec>):ell@anchor  pendant_pairs(<spec>)
Only these canonical spellings parse (canonical_spec gives them back).
"""

from __future__ import annotations

import heapq
import random
import re
from typing import NamedTuple

from .graphs import ORDER_CAP, DomainError, Graph, ResourceError
from .products import cartesian_product, multiway_direct_complete


def _guard_order(family: str, n: int):
    # one desk-scale ceiling for the whole lab, shared with product materialization
    if n > ORDER_CAP:
        raise ResourceError(f"{family}: order {n} exceeds the {ORDER_CAP}-vertex cap")


def complete(n: int) -> Graph:
    if n < 1:
        raise DomainError("complete: n >= 1")
    _guard_order("complete", n)
    full = (1 << n) - 1
    return Graph.from_rows([full ^ (1 << v) for v in range(n)], f"complete:{n}")


def path(n: int) -> Graph:
    if n < 1:
        raise DomainError("path: n >= 1")
    _guard_order("path", n)
    return Graph(n, [(i, i + 1) for i in range(n - 1)], f"path:{n}")


def cycle(n: int) -> Graph:
    if n < 3:
        raise DomainError("cycle: n >= 3")
    _guard_order("cycle", n)
    edges = [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)]
    return Graph(n, edges, f"cycle:{n}")


def star(n: int) -> Graph:
    """Center 0 joined to leaves 1..n."""
    if n < 1:
        raise DomainError("star: n >= 1")
    _guard_order("star", n + 1)
    return Graph(n + 1, [(0, i) for i in range(1, n + 1)], f"star:{n}")


def subdivided_star(n: int) -> Graph:
    """Star with every edge subdivided once: center 0, midpoints 1..n, leaf n+i
    hanging off midpoint i."""
    if n < 1:
        raise DomainError("subdivided_star: n >= 1")
    _guard_order("subdivided_star", 2 * n + 1)
    edges = [(0, i) for i in range(1, n + 1)] + [(i, n + i) for i in range(1, n + 1)]
    return Graph(2 * n + 1, edges, f"subdivided_star:{n}")


def lollipop(g: Graph, ell: int, anchor: int) -> Graph:
    """Append a path on ell new vertices, bridged from anchor to the first new one.

    New vertices are labeled n..n+ell-1 along the path; ell = 0 returns g as is.
    """
    if ell < 0:
        raise DomainError("lollipop: ell >= 0")
    _guard_order("lollipop", g.n + ell)
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
    _guard_order("pendant_pairs", 3 * n)
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
    if n < 1:
        raise DomainError("rook2xn: n >= 1")
    _guard_order("rook2xn", 2 * n)
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
    if n < 1:
        raise DomainError("random_tree: n >= 1")
    _guard_order("random_tree", n)
    label = f"random_tree:{n}#{seed}"
    if n == 1:
        return Graph(1, [], label)
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    return Graph(n, prufer_decode(seq, n), label)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with independent edge flips in fixed (u, v) order."""
    if n < 1:
        raise DomainError("random_graph: n >= 1")
    if not 0 <= p <= 1:
        raise DomainError("random_graph: probability in [0, 1]")
    _guard_order("random_graph", n)
    rng = random.Random(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges, f"random_graph:{n}:{p:g}#{seed}")


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


# leaf family -> (constructor, parameter count); a seeded one takes the seed last
_LEAVES = {
    "complete": (complete, 1),
    "path": (path, 1),
    "cycle": (cycle, 1),
    "star": (star, 1),
    "subdivided_star": (subdivided_star, 1),
    "rook2xn": (rook2xn, 1),
    "random_tree": (random_tree, 1),
    "random_graph": (_random_graph_percent, 2),
}
_SEEDED = {"random_tree", "random_graph"}


def canonical_spec(spec: FamilySpec) -> str:
    if spec.family == "lollipop":
        return f"lollipop({canonical_spec(spec.inner)}):{spec.params[0]}@{spec.anchor}"
    if spec.family == "pendant_pairs":
        return f"pendant_pairs({canonical_spec(spec.inner)})"
    if spec.family == "complete_product":
        return "complete_product[" + ",".join(map(str, spec.params)) + "]"
    if spec.family == "cayleypop":
        orders = ",".join(map(str, spec.params[:-1]))
        return f"cayleypop[{orders}]:{spec.params[-1]}"
    text = spec.family + "".join(f":{p}" for p in spec.params)
    if spec.seed is not None:
        text += f"#{spec.seed}"
    return text


def parse_family_spec(text: str) -> FamilySpec:
    """Parses the canonical spelling only, naming it when rejecting another:
    a lenient reading can build a different graph than the text says."""
    text = text.strip()
    spec, rest = _parse(text)
    if rest:
        raise DomainError(f"trailing text {rest!r} in family spec")
    _validate(spec)
    canonical = canonical_spec(spec)
    if text != canonical:
        raise DomainError(f"family spec {text!r} is not canonical; write {canonical!r}")
    return spec


def _parse(s: str):
    m = re.match(r"[a-z_0-9]+", s)
    if not m:
        raise DomainError(f"bad family spec near {s!r}")
    name = m.group(0)
    s = s[m.end():]
    if name in ("lollipop", "pendant_pairs"):
        if not s.startswith("("):
            raise DomainError(f"{name} needs a parenthesized inner spec")
        inner, s = _parse(s[1:])
        if not s.startswith(")"):
            raise DomainError("unclosed inner spec")
        s = s[1:]
        if name == "pendant_pairs":
            return FamilySpec("pendant_pairs", inner=inner), s
        m = re.match(r":(\d+)@(\d+)", s)
        if not m:
            raise DomainError("lollipop spec needs :ell@anchor")
        spec = FamilySpec(
            "lollipop", (int(m.group(1)),), inner=inner, anchor=int(m.group(2))
        )
        return spec, s[m.end():]
    params: list[int] = []
    if s.startswith("["):
        end = s.find("]")
        if end < 0:
            raise DomainError("unclosed bracket list")
        body = s[1:end]
        try:
            params.extend(int(x) for x in body.split(","))
        except ValueError:
            raise DomainError(f"bad bracket list {body!r}") from None
        s = s[end + 1:]
    while (m := re.match(r":(-?\d+)", s)):
        params.append(int(m.group(1)))
        s = s[m.end():]
    seed = None
    if (m := re.match(r"#(-?\d+)", s)):
        seed = int(m.group(1))
        s = s[m.end():]
    return FamilySpec(name, tuple(params), seed), s


def _validate(spec: FamilySpec):
    f = spec.family
    if f in ("lollipop", "pendant_pairs"):
        _validate(spec.inner)
        return
    if f == "complete_product":
        if not spec.params:
            raise DomainError("complete_product needs factor orders")
    elif f == "cayleypop":
        if len(spec.params) < 2:
            raise DomainError("cayleypop needs factor orders and a tail length")
    elif f in _LEAVES:
        arity = _LEAVES[f][1]
        if len(spec.params) != arity:
            raise DomainError(f"{f} takes {arity} parameter(s), got {len(spec.params)}")
    else:
        raise DomainError(f"unknown family {f!r}")
    if (spec.seed is not None) != (f in _SEEDED):
        need = "requires" if f in _SEEDED else "does not take"
        raise DomainError(f"{f} {need} a #seed")


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph; the label is the canonical spec string."""
    _validate(spec)
    f = spec.family
    if f == "lollipop":
        g = build_family(spec.inner)
        if not 0 <= spec.anchor < g.n:
            raise DomainError(f"lollipop anchor {spec.anchor} outside the inner graph's {g.n} vertices")
        g = lollipop(g, spec.params[0], spec.anchor)
    elif f == "pendant_pairs":
        g = pendant_pairs(build_family(spec.inner))
    elif f == "complete_product":
        g = multiway_direct_complete(spec.params)
    elif f == "cayleypop":
        g = cayleypop(spec.params[:-1], spec.params[-1])
    else:
        seed = () if spec.seed is None else (spec.seed,)
        g = _LEAVES[f][0](*spec.params, *seed)
    return Graph.from_rows(g.adj, canonical_spec(spec))

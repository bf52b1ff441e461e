"""Independent brute-force oracles used to pin solver outputs.

Everything here enumerates subsets directly and reimplements the predicates
from scratch (queue BFS, recursive matching, edge lists and structural checks
read off the rows), sharing only the Graph container
(and, for the graph text reader, the error types and the order cap) with the
package. Intended for orders up to about 10.
"""

from collections import deque
from itertools import permutations

from domlab.graphs import ORDER_CAP, FormatError, Graph, ResourceError


def _closed(g, v):
    return g.adj[v] | 1 << v


def _closed_union(g, mask):
    cov = 0
    for v in range(g.n):
        if mask >> v & 1:
            cov |= _closed(g, v)
    return cov


def _open_union(g, mask):
    cov = 0
    for v in range(g.n):
        if mask >> v & 1:
            cov |= g.adj[v]
    return cov


def _dist(g, src):
    d = [-1] * g.n
    d[src] = 0
    q = deque([src])
    while q:
        u = q.popleft()
        for v in range(g.n):
            if g.adj[u] >> v & 1 and d[v] < 0:
                d[v] = d[u] + 1
                q.append(v)
    return d


def _bit_list(row):
    """Ascending indices of the set bits of row, found in its binary digits."""
    digits = bin(row)[:1:-1]  # least significant digit first
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def edge_list(g):
    """Edges (u, v) with u < v in lexicographic order, read off the rows."""
    return [(u, v) for u, row in enumerate(g.adj) for v in _bit_list(row) if v > u]


def check_structure(g):
    """Raises AssertionError unless the rows describe a simple graph: one row
    per vertex, no bit past the order, no loop, and v in row u iff u in row v."""
    if len(g.adj) != g.n:
        raise AssertionError("row count differs from order")
    for u, row in enumerate(g.adj):
        if row >> g.n:
            raise AssertionError(f"row {u} has a bit beyond the order")
        if row >> u & 1:
            raise AssertionError(f"loop at vertex {u}")
        for v in _bit_list(row):
            if not g.adj[v] >> u & 1:
                raise AssertionError(f"edge ({u},{v}) missing from row {v}")


def distances(g):
    """Hop-distance matrix; -1 marks a pair in different components."""
    return [_dist(g, v) for v in range(g.n)]


def is_connected(g):
    return g.n == 0 or min(_dist(g, 0)) >= 0


def is_bipartite(g):
    """Two-colours every component by BFS parity; False on an odd cycle."""
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] >= 0:
            continue
        side[root] = 0
        q = deque([root])
        while q:
            u = q.popleft()
            for v in range(g.n):
                if g.adj[u] >> v & 1:
                    if side[v] < 0:
                        side[v] = 1 - side[u]
                        q.append(v)
                    elif side[v] == side[u]:
                        return False
    return True


def brute_tree_form(n, edges):
    """Lexicographically least sorted edge list over all n! relabelings, and
    the number of relabelings that map the edge list onto itself (|Aut|)."""
    own = sorted(tuple(sorted(e)) for e in edges)
    best = None
    auts = 0
    for perm in permutations(range(n)):
        relabeled = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges)
        if best is None or relabeled < best:
            best = relabeled
        auts += relabeled == own
    return best, auts


def brute_product_edges(g, h, cartesian):
    """Edges of the direct or Cartesian product of g and h in row-major
    labels, straight from the definitions over all pairs of vertex pairs."""
    out = set()
    for a in range(g.n):
        for b in range(h.n):
            for c in range(g.n):
                for d in range(h.n):
                    ga, hb = g.adj[a] >> c & 1, h.adj[b] >> d & 1
                    if cartesian:
                        adjacent = (a == c and hb) or (b == d and ga)
                    else:
                        adjacent = ga and hb
                    if adjacent:
                        out.add((a * h.n + b, c * h.n + d))
    return out


def _subset_has_pm(g, mask):
    if mask == 0:
        return True
    if bin(mask).count("1") % 2:
        return False
    u = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << u)
    for v in range(g.n):
        if rest >> v & 1 and g.adj[u] >> v & 1:
            if _subset_has_pm(g, rest & ~(1 << v)):
                return True
    return False


def brute_gamma(g):
    full = (1 << g.n) - 1
    best = g.n
    for mask in range(1, 1 << g.n):
        if bin(mask).count("1") < best and _closed_union(g, mask) == full:
            best = bin(mask).count("1")
    return best if g.n else 0


def brute_gamma_t(g):
    full = (1 << g.n) - 1
    best = None
    for mask in range(1, 1 << g.n):
        if _open_union(g, mask) == full:
            size = bin(mask).count("1")
            if best is None or size < best:
                best = size
    if g.n == 0:
        return 0
    assert best is not None
    return best


def brute_gamma_pr(g):
    full = (1 << g.n) - 1
    best = None
    for mask in range(1, 1 << g.n):
        size = bin(mask).count("1")
        if size % 2 or (best is not None and size >= best):
            continue
        if _closed_union(g, mask) == full and _subset_has_pm(g, mask):
            best = size
    if g.n == 0:
        return 0
    assert best is not None
    return best


def brute_is_minimal_dominating(g, mask):
    full = (1 << g.n) - 1
    if _closed_union(g, mask) != full:
        return False
    for v in range(g.n):
        if mask >> v & 1 and _closed_union(g, mask & ~(1 << v)) == full:
            return False
    return True


def brute_upper_gamma(g):
    best = 0
    for mask in range(1, 1 << g.n):
        if bin(mask).count("1") > best and brute_is_minimal_dominating(g, mask):
            best = bin(mask).count("1")
    return best


def brute_rho_k(g, k):
    dist = distances(g)
    best = 0
    for mask in range(1 << g.n):
        members = [v for v in range(g.n) if mask >> v & 1]
        ok = True
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                if 0 <= dist[u][v] <= k:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            best = max(best, len(members))
    return best


def brute_alpha(g):
    return brute_rho_k(g, 1)


def brute_minimal_covers(cover, full):
    """{size: lowest mask} over the inclusion-minimal masks whose covers union
    to full, by trying every mask in increasing order. Covers are closed
    under adding members, so a cover is minimal when dropping any one member
    leaves something of full uncovered."""

    def union(members):
        out = 0
        for v in members:
            out |= cover[v]
        return out

    found = {}
    for mask in range(1 << len(cover)):
        members = [v for v in range(len(cover)) if mask >> v & 1]
        if union(members) & full != full:
            continue
        if any(union(members[:i] + members[i + 1:]) & full == full for i in range(len(members))):
            continue
        found.setdefault(len(members), mask)
    return found


def brute_write_graph_text(g, comment=None):
    """The canonical text form written one f-string per edge."""
    lines = []
    if comment:
        for c in str(comment).splitlines():
            lines.append(f"# {c}" if c else "#")
    edges = edge_list(g)
    lines.append(f"{g.n} {len(edges)}")
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def _brute_read_pair(line, what):
    parts = line.split(" ")
    if len(parts) != 2:
        raise FormatError(f"{what} must be two integers: {line!r}")
    try:
        a, b = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"non-integer {what}: {line!r}") from None
    if line != f"{a} {b}":
        raise FormatError(f"non-canonical {what}: {line!r}")
    return a, b


def brute_read_graph_text(text):
    """The strict reader line by line: every line is split, parsed and
    checked on its own, and Graph re-checks every edge. str.splitlines also
    breaks lines at carriage returns, form feeds, U+2028 and the other
    Unicode line boundaries, where the package reader breaks at newlines
    only."""
    data = []
    for raw in text.splitlines():
        if raw.startswith("#"):
            continue
        if raw.strip() == "":
            raise FormatError("blank line in graph text")
        data.append(raw)
    if not data:
        raise FormatError("missing 'n m' header line")
    n, m = _brute_read_pair(data[0], "header")
    if n < 0 or m < 0:
        raise FormatError("negative header value")
    if n > ORDER_CAP:
        raise ResourceError(f"graph text order {n} exceeds the {ORDER_CAP}-vertex cap")
    if len(data) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(data) - 1}")
    edges = []
    prev = None
    for line in data[1:]:
        u, v = _brute_read_pair(line, "edge line")
        if not 0 <= u < v < n:
            raise FormatError(f"edge ({u},{v}) violates 0 <= u < v < n")
        if prev is not None and (u, v) <= prev:
            raise FormatError("edge lines not strictly sorted")
        prev = (u, v)
        edges.append((u, v))
    return Graph(n, edges)

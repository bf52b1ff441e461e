"""Direct and Cartesian graph products with row-major vertex labeling, plus
domination checks that never materialize the product and visit only the
columns that hold members."""

from __future__ import annotations

from itertools import product as iter_product
from typing import NamedTuple

from .graphs import ORDER_CAP, DomainError, Graph, ResourceError, bit_indices, bits_of


class ProductIndexMap(NamedTuple):
    """Row-major pairing: index(g, h) = g * right_order + h (shadowing
    tuple.index)."""

    left_order: int
    right_order: int

    def index(self, g: int, h: int) -> int:
        if not (0 <= g < self.left_order and 0 <= h < self.right_order):
            raise IndexError(f"pair ({g},{h}) out of range")
        return g * self.right_order + h


def _cap_check(n: int, what: str):
    if n > ORDER_CAP:
        raise ResourceError(
            f"{what} would have {n} vertices, above the materialization cap {ORDER_CAP};"
            " use the implicit product checks instead"
        )


def _pair_label(tag: str, g: Graph, h: Graph) -> str:
    if g.label and h.label:
        return f"{tag}({g.label},{h.label})"
    return ""


def _spread(g: Graph, nh: int) -> list[int]:
    """spread[a] sets bit a2 * nh for each neighbor a2 of a: one bit per
    column of the product that a's rows reach."""
    spread = []
    for row in g.adj:
        s = 0
        while row:
            low = row & -row
            row ^= low
            s |= 1 << (low.bit_length() - 1) * nh
        spread.append(s)
    return spread


def direct_product(g: Graph, h: Graph):
    """(a,b) ~ (a2,b2) iff a ~ a2 and b ~ b2; returns (graph, index map).

    Row (a, b) is h's row b copied at the offset of each neighbor column of
    a (Weichsel, The Kronecker product of graphs, 1962): h.adj[b] times
    spread[a]. Each copy fits in its nh bits, so the shifted copies never
    overlap and the product is their OR, built by one multiplication."""
    _cap_check(g.n * h.n, "direct product")
    rows = [hrow * s for s in _spread(g, h.n) for hrow in h.adj]
    return Graph.from_rows(rows, _pair_label("direct", g, h)), ProductIndexMap(g.n, h.n)


def cartesian_product(g: Graph, h: Graph):
    """(a,b) ~ (a2,b2) iff coordinates agree on one side and are adjacent on
    the other: row (a, b) is h's row b in column a plus bit b of each
    neighbor column of a (spread[a] << b)."""
    _cap_check(g.n * h.n, "cartesian product")
    nh = h.n
    rows = [
        (hrow << a * nh) | (s << b)
        for a, s in enumerate(_spread(g, nh))
        for b, hrow in enumerate(h.adj)
    ]
    return Graph.from_rows(rows, _pair_label("cartesian", g, h)), ProductIndexMap(g.n, nh)


def multiway_direct_complete(orders) -> Graph:
    """Direct product of complete graphs; tuples map to mixed-radix row-major indices,
    and two vertices are adjacent iff they differ in every coordinate, so row x
    is every tuple less those that agree with x in some coordinate."""
    orders = list(orders)
    if not orders:
        raise DomainError("need at least one factor order")
    if any(n < 2 for n in orders):
        raise DomainError("every factor order must be at least 2")
    total = 1
    for i, n in enumerate(orders, 1):
        total *= n
        # stop at the first partial product over the cap: the full one can
        # run to thousands of digits, past what str() converts
        if total > ORDER_CAP:
            raise ResourceError(
                f"complete-graph product: its first {i} of {len(orders)} factor orders"
                f" multiply past the materialization cap {ORDER_CAP}"
            )
    tuples = list(iter_product(*map(range, orders)))
    agree = [[0] * n for n in orders]  # agree[i][v]: the tuples whose coordinate i is v
    for idx, x in enumerate(tuples):
        bit = 1 << idx
        for i, v in enumerate(x):
            agree[i][v] |= bit
    full = (1 << total) - 1
    rows = []
    for x in tuples:
        same = 0
        for i, v in enumerate(x):
            same |= agree[i][v]
        rows.append(full & ~same)
    label = "complete_product[" + ",".join(map(str, orders)) + "]"
    return Graph.from_rows(rows, label)


def _column_cover_pass(g: Graph, h: Graph, members, closed: bool):
    """Yields, for each column x of g in order, whether every (x, y) is
    dominated by the member pairs: some member (a, b) has a in N(x) and b in
    N(y), or, for the closed check, (x, y) is itself a member. Only the
    columns that hold members are visited, so the cost per column follows the
    member columns, not the degree of g."""
    cols: dict[int, int] = {}
    reach: dict[int, int] = {}
    for a, b in members:
        if not (0 <= a < g.n and 0 <= b < h.n):
            raise IndexError(f"member ({a},{b}) out of range")
        cols[a] = cols.get(a, 0) | 1 << b
        reach[a] = reach.get(a, 0) | h.adj[b]
    held = bits_of(cols)
    full = (1 << h.n) - 1
    for x in range(g.n):
        covered = cols.get(x, 0) if closed else 0
        for a in bit_indices(g.adj[x] & held):
            covered |= reach[a]
        yield covered == full


def implicit_direct_domination_check(g: Graph, h: Graph, members) -> bool:
    """True iff the pair set dominates g x h; the product is never materialized.

    (x, y) is dominated when it is a member or some member (a, b) has a in N(x)
    and b in N(y); per column x this is the union of h-neighborhoods of members
    sitting in member columns adjacent to x.
    """
    return all(_column_cover_pass(g, h, members, closed=True))


def implicit_direct_total_check(g: Graph, h: Graph, members) -> bool:
    """Open-neighborhood variant: every product vertex, members included, needs an
    adjacent member; again only member columns are visited."""
    return all(_column_cover_pass(g, h, members, closed=False))


def product_pair_adjacent(g: Graph, h: Graph, p, q) -> bool:
    """Coordinate-wise adjacency predicate for two product vertices given as pairs."""
    (a, b), (a2, b2) = p, q
    return bool(g.adj[a] >> a2 & 1) and bool(h.adj[b] >> b2 & 1)


def product_pairing_is_valid(g: Graph, h: Graph, members, pairing) -> bool:
    """True iff the pairing partitions the member pairs into coordinate-adjacent
    couples; with a domination check this certifies paired domination on a
    product that is never materialized."""
    seen = set()
    for p, q in pairing:
        p = tuple(p)
        q = tuple(q)
        if p == q or p in seen or q in seen:
            return False
        if not product_pair_adjacent(g, h, p, q):
            return False
        seen.add(p)
        seen.add(q)
    return seen == set(map(tuple, members))

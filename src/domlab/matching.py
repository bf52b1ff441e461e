"""Exact perfect-matching existence with witness, on general graphs.

Strategy choice (documented contract): subset dynamic programming over the
vertex bitmask rather than augmenting search with blossom contraction. Its
only library caller is the public predicate solvers.is_paired_dominating,
which feeds small candidate sets, so the DP is simpler and still exact; the
order cap is 30, and crossing it raises ResourceError instead of degrading.
Constructed witnesses, the lollipop stages included, carry explicit pairings
as their certificates and never hit this oracle.
"""

from __future__ import annotations

from .graphs import Graph, ResourceError, bit_indices, connected_components, ensure

MATCHING_CAP = 30


def has_perfect_matching(g: Graph):
    """(exists, pairs): pairs is a tuple of matched (u, v) edges covering V(G)
    exactly once, or None when no perfect matching exists."""
    if g.n == 0:
        return True, ()
    if g.n % 2:
        return False, None
    if g.n > MATCHING_CAP:
        raise ResourceError(f"matching DP capped at order {MATCHING_CAP}, got {g.n}")
    for comp in connected_components(g):
        if comp.bit_count() % 2:
            return False, None
    memo = {0: True}
    adj = g.adj
    full = g.full_bits()
    if not _feasible(adj, memo, full):
        return False, None
    pairs = []
    mask = full
    while mask:
        v = (mask & -mask).bit_length() - 1
        rest = mask & ~(1 << v)
        for u in bit_indices(adj[v] & rest):
            if _feasible(adj, memo, rest & ~(1 << u)):
                pairs.append((v, u))
                mask = rest & ~(1 << u)
                break
    witness = tuple(pairs)
    _assert_matching(g, witness)
    return True, witness


def _feasible(adj, memo, mask: int) -> bool:
    """Whether mask's vertices have a perfect matching; depth <= MATCHING_CAP / 2."""
    hit = memo.get(mask)
    if hit is not None:
        return hit
    v = (mask & -mask).bit_length() - 1
    rest = mask & ~(1 << v)
    for u in bit_indices(adj[v] & rest):
        if _feasible(adj, memo, rest & ~(1 << u)):
            memo[mask] = True
            return True
    memo[mask] = False
    return False


def _assert_matching(g: Graph, pairs):
    seen = 0
    for u, v in pairs:
        ensure(g.adj[u] >> v & 1, "matched pair is not an edge")
        ensure(not seen >> u & 1 and not seen >> v & 1, "vertex matched twice")
        seen |= (1 << u) | (1 << v)
    ensure(seen == g.full_bits(), "matching does not cover all vertices")

"""Exact solvers for the domination chain with certificates and the predicate
checkers they certify against. The module builds on graphs and matching
only; the witness constructors on complete-graph products live with the
claim checks that use them.

Parameters use their standard tags: gamma (domination), gamma_t (total),
gamma_pr (paired), upper_gamma (largest minimal dominating set), rho_k
(distance-k packing), alpha (independence, the k=1 packing).

Every solver runs through one driver, _solve: split the graph into connected
components, solve each in place (a vertex mask in the graph's own labels)
with a budget shared across them, merge the parts' bounds into one
certificate, and re-check its witness with the matching predicate (an
explicit check that also runs under python -O). A certificate is exact
exactly when its bounds meet, lo == hi, whichever way the search ended.

The minimum side is one deepening cover search over elements with pairwise
disjointness: vertices with closed covers for gamma and open covers for
gamma_t, edges covering both closed neighborhoods for gamma_pr. Elements
carry their covers and, for edges, their two ends, which is all the greedy
needs to keep its picks disjoint. The greedy less its redundant picks gives
the upper end, the larger of a counting bound and the root's disjoint-coverer
count the lower end, and the search tries each size in between. Only when a
size is left to try are the search's tables built: what each pick blocks,
and each vertex's coverers as one mask over element indices, the vertices
grouped into levels, one mask per coverer count. The search branches on
the lowest uncovered vertex of the lowest level, and each child also blocks
its lower siblings, so each pick set is reached once. A node is pruned
when the picks left cannot finish the cover by either of two bounds:
counting (no pick covers more than the largest cover), or disjoint coverers
(uncovered vertices whose coverer sets are pairwise disjoint each need a
pick of their own). The second walks the levels, and each vertex it counts
clears its conflict mask, the vertices whose coverers meet its own, so it
loops once per vertex counted. It is skipped where a cap computed from the
coverer counts shows it cannot prune, and at the last pick, which one AND of
coverer masks settles while still counting one node per free coverer tried.
The maximum side walks the irredundant sets (each
member covers a vertex no other member covers) once, passing the cover
masks and the addable candidates from parent to child: upper_gamma with a
floor that starts at the minimalized greedy, and with no floor and no
tracker the exhaustive upper_gamma, the minimal total dominating sizes and
a budget-hit upper_gamma component of at most UPPER_SCAN_CAP vertices (so
it comes back exact, and that work is not in nodes). rho_k and alpha run a
maximum independent set search bounded by the part count of a clique
partition. Both searches run on explicit stacks, so the call stack bounds
neither depth.

All tie-breaks pick the lowest vertex or edge index, so witnesses are
deterministic. Every solver takes a budget, a plain node count
(DEFAULT_NODE_BUDGET unless given) that one tracker checks and spends;
exceeding it yields an interval certificate whose witness stays valid for
its own bound, and one whose witness already meets the certified bound is
exact. No solver uses another parameter as an internal bound, so
cross-parameter inequality checks compare independent computations.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (
    DomainError,
    Graph,
    ResourceError,
    VertexSet,
    ball_bits,
    bit_indices,
    bits_of,
    closed_cover_bits,
    connected_components,
    distance_power_conflict_graph,
    ensure,
    has_isolated_vertex,
    homed_bits,
    induced_subgraph,
    open_cover_bits,
)
from .matching import has_perfect_matching

DEFAULT_NODE_BUDGET = 2_000_000
UPPER_SCAN_CAP = 20  # order cap of the exhaustive upper_gamma enumeration


class _BudgetExceeded(Exception):
    pass


class _Tracker:
    """Search nodes spent against the budget; the one place it is checked."""

    __slots__ = ("cap", "nodes")

    def __init__(self, budget: int):
        if budget < 1:
            raise DomainError("budget needs a positive node count")
        self.cap = budget
        self.nodes = 0

    def tick(self):
        self.nodes += 1
        if self.nodes > self.cap:
            raise _BudgetExceeded

    def spend(self, k):
        """k ticks at once, after one that passed: raises where they would."""
        if self.nodes + k > self.cap:
            self.nodes = self.cap + 1
            raise _BudgetExceeded
        self.nodes += k


class Certificate(NamedTuple):
    """Parameter result: the certified interval [lo, hi] plus a witness that
    always passes the matching checker (minimum-side witnesses certify hi,
    maximum-side witnesses certify lo). exact is derived, lo == hi, so a
    certificate stands for its bounds and nothing more."""

    parameter: str
    lo: int
    hi: int
    witness: VertexSet | None
    pairing: tuple = ()
    k: int | None = None
    nodes: int = 0

    @property
    def exact(self):
        return self.lo == self.hi

    @property
    def value(self):
        return self.lo if self.exact else None


# ---------------------------------------------------------------------------
# predicates


def is_dominating(g: Graph, s: VertexSet) -> bool:
    return closed_cover_bits(g, homed_bits(g, s)) == g.full_bits()


def is_total_dominating(g: Graph, s: VertexSet) -> bool:
    return open_cover_bits(g, homed_bits(g, s)) == g.full_bits()


def is_paired_dominating(g: Graph, s: VertexSet) -> bool:
    """Dominating with a perfect matching in the induced subgraph; |S| must be even."""
    bits = homed_bits(g, s)
    if bits.bit_count() % 2:
        return False
    if closed_cover_bits(g, bits) != g.full_bits():
        return False
    sub, _ = induced_subgraph(g, s)
    ok, _ = has_perfect_matching(sub)
    return ok


def pairing_is_valid(g: Graph, s: VertexSet, pairing) -> bool:
    """The pairs partition S and each pair is an edge; with is_dominating this
    certifies paired domination without the matching oracle (big witnesses)."""
    bits = homed_bits(g, s)
    seen = 0
    for u, v in pairing:
        if u == v or not 0 <= u < g.n or not 0 <= v < g.n:
            return False
        if not g.adj[u] >> v & 1:
            return False
        pb = (1 << u) | (1 << v)
        if seen & pb:
            return False
        seen |= pb
    return seen == bits


def private_neighbors(g: Graph, s: VertexSet, v: int) -> VertexSet:
    """Vertices of N[v] dominated by no other member; may include v itself."""
    bits = homed_bits(g, s)
    if not bits >> v & 1:
        raise DomainError(f"vertex {v} is not in the set")
    others = closed_cover_bits(g, bits & ~(1 << v))
    return VertexSet(g, g.closed(v) & ~others)


def is_minimal_dominating(g: Graph, s: VertexSet) -> bool:
    """Dominating, and every member has a private neighbor: a vertex of its
    closed neighborhood that no other member covers, which is one covered
    exactly once. One pass collects the vertices covered at least once and at
    least twice."""
    bits = homed_bits(g, s)
    once = twice = 0
    for v in bit_indices(bits):
        nv = g.closed(v)
        twice |= once & nv
        once |= nv
    if once != g.full_bits():
        return False
    return all(g.closed(v) & ~twice for v in bit_indices(bits))


def is_k_packing(g: Graph, s: VertexSet, k: int) -> bool:
    """Pairwise distance strictly greater than k."""
    if k < 1:
        raise DomainError("k must be at least 1")
    bits = homed_bits(g, s)
    for v in bit_indices(bits):
        if ball_bits(g, v, k) & bits & ~(1 << v):
            return False
    return True


# ---------------------------------------------------------------------------
# shared solver plumbing: split into components, solve each, merge, re-check


class _Part(NamedTuple):
    lo: int
    hi: int
    bits: int
    pairs: tuple = ()


def _solve(g, parameter, solve_part, check, budget=DEFAULT_NODE_BUDGET, k=None) -> Certificate:
    """Runs solve_part(component, tracker) on each connected component of g,
    given as a vertex mask and solved in place, sums the parts' bounds into
    one certificate and re-checks it with check(certificate). Every part has
    lo <= hi, so the certificate is exact (lo == hi) exactly when each part's
    bounds meet."""
    tracker = _Tracker(budget)
    lo = hi = bits = 0
    pairing = []
    for comp in connected_components(g):
        part = solve_part(comp, tracker)
        lo += part.lo
        hi += part.hi
        bits |= part.bits
        pairing.extend(part.pairs)
    cert = Certificate(parameter, lo, hi, VertexSet(g, bits), tuple(sorted(pairing)), k, tracker.nodes)
    ensure(check(cert), f"{parameter} certificate fails its re-check")
    return cert


# ---------------------------------------------------------------------------
# minimum side: one deepening cover search over elements
#
# An element is a vertex (gamma: its closed neighborhood, gamma_t: its open
# one), indexed by itself, or an edge of the component in lexicographic order
# (gamma_pr: both closed neighborhoods). A component's elements are (cov,
# ends, edges): cov[i] is element i's cover, ends[i] masks edge i's two ends
# (picks share no vertex) and edges lists the edges. Vertex elements have no
# ends and no edges (None): a picked vertex covers no uncovered vertex again,
# so nothing blocks it. The search's tables (_search_tables), built only when
# the search runs, are blk[i], the elements picking i blocks, and cm[y], the
# coverers of vertex y. Covers are symmetric: a vertex's coverers are its own
# cover.


def _vertex_elements(g: Graph, open_nbh: bool):
    """(cov, None, None) for the vertex elements of all of g."""
    cov = g.adj if open_nbh else [row | 1 << v for v, row in enumerate(g.adj)]
    return cov, None, None


def _edge_elements(g: Graph, comp: int):
    """(cov, ends, edges) for the edges of component comp."""
    adj = g.adj
    edges = []
    for u in bit_indices(comp):
        above = adj[u] >> u + 1
        while above:
            low = above & -above
            above ^= low
            edges.append((u, u + low.bit_length()))
    return [adj[u] | adj[v] for u, v in edges], [1 << u | 1 << v for u, v in edges], edges


def _search_tables(cov, edges, span: int):
    """(blk, cm) for the cover search over the elements cov, on vertices
    below span. inc[x] masks the edges at x, (u, v) blocks inc[u] | inc[v],
    and y's coverers, the edges with an end in N[y], are those y's edges
    block."""
    if edges is None:
        return [0] * len(cov), cov
    inc = [0] * span
    for j, (u, v) in enumerate(edges):
        inc[u] |= 1 << j
        inc[v] |= 1 << j
    blk = [inc[u] | inc[v] for u, v in edges]
    cm = [0] * span
    for (u, v), b in zip(edges, blk):
        cm[u] |= b
        cm[v] |= b
    return blk, cm


def _greedy(cov, ends, elems, full: int):
    """Indices of disjoint elements among elems, picked by largest gain,
    lowest index on ties, until full is covered; an element whose ends meet
    the vertices already picked is skipped (ends None: nothing is).

    Disjointness never blocks it on an isolated-free graph (any graph for
    closed covers): an uncovered vertex u has no picked vertex in N[u], so u
    is free as a closed element, and u with any neighbor is free as an edge
    element; a neighbor of u is free as an open element covering u (the
    maximal-matching argument of Haynes & Slater, Paired-domination in
    graphs, 1998)."""
    covered = used = 0
    picks = []
    while covered != full:
        unc = full & ~covered
        best_i = -1
        best_gain = 0
        for i in elems:
            gain = (cov[i] & unc).bit_count()
            if gain > best_gain and not (ends and ends[i] & used):
                best_gain = gain
                best_i = i
        ensure(best_i >= 0, "greedy cover found no free element with a gain")
        covered |= cov[best_i]
        if ends:
            used |= ends[best_i]
        picks.append(best_i)
    return picks


def _cover_search(cov, blk, cm, full, room, maxcov, tracker):
    """(search, root_need): search(size) -> indices of `size` disjoint
    elements covering full, or None; root_need is the root's disjoint-coverer
    count, a lower bound on the cover size. Both are built once per search.
    full is the component, solved in place, and room its element count.

    levels groups the vertices by coverer count, ascending, one vertex mask
    per count. The search runs depth-first on an explicit stack of (covered,
    blocked, picks) nodes. It branches on the lowest uncovered vertex of the
    first level that holds one (fewest coverers, lowest index on ties),
    pushing the bits of its free coverer mask highest first to pop them in
    index order. When the child for coverer i is pushed, free holds exactly
    the free coverers below i, and the child blocks them too: a cover through
    i and a lower sibling j lies in j's subtree, which the depth-first search
    exhausts before it reaches i. So refutations stay complete, the first
    cover found at each size is unchanged, and each pick set is reached
    once. Two lower bounds on the picks still needed prune a node:

    - counting: no pick covers more than maxcov vertices;
    - disjoint coverers: walking the uncovered vertices fewest coverers
      first, each one whose coverers share none with those of the vertices
      counted before it needs a pick of its own (van Rooij & Bodlaender,
      Exact algorithms for dominating set, 2011). conf[v], built the first
      time the walk counts v, masks the vertices whose coverers meet v's
      (the covers of v's coverers, as covers are symmetric), so the walk
      takes the lowest candidate of each level in turn and clears conf[v]
      from the candidates: it loops once per vertex it counts. The root's
      count, root_need, does not depend on the size, so it is walked once.

    Both cut only subtrees that hold no cover, so no witness depends on
    them. The second runs only where it can prune: at most `cap` coverer
    sets are pairwise disjoint (their sizes, smallest first, must fit into
    the element count), so it is skipped once the picks left reach cap. It
    is also skipped at the last pick, which one computation settles: the AND
    of the branching vertex's free coverer mask with the coverer masks of
    the uncovered vertices holds the picks that finish the cover. Each free
    coverer tried counts one node, in index order up to and including the
    lowest hit, or all of them when there is none, so node counts and budget
    hits are those of trying the coverers one by one (_Tracker.spend)."""
    verts = bit_indices(full)
    counts = [cm[v].bit_count() for v in verts]
    by_count = {}
    for v, c in zip(verts, counts):
        by_count[c] = by_count.get(c, 0) | 1 << v
    levels = [by_count[c] for c in sorted(by_count)]
    cap = 0
    for c in sorted(counts):
        room -= c
        if room < 0:
            break
        cap += 1
    conf = {}

    def walk(unc, bound):
        """Disjoint-coverer count of the vertices unc, up to bound + 1."""
        need = 0
        for level in levels:
            cand = unc & level
            while cand:
                v = (cand & -cand).bit_length() - 1
                c = conf.get(v)
                if c is None:
                    c = 0
                    for e in bit_indices(cm[v]):
                        c |= cov[e]
                    conf[v] = c
                unc &= ~c
                cand &= ~c
                need += 1
                if need > bound:
                    return need
        return need

    root_need = walk(full, cap - 1) if cap > 2 else 0

    def search(size):
        stack = [(0, 0, ())]
        while stack:
            covered, blocked, picks = stack.pop()
            tracker.tick()
            if covered == full:
                return picks
            left = size - len(picks)
            unc = full & ~covered
            if left * maxcov < unc.bit_count():
                continue
            if 1 < left < cap:
                need = walk(unc, left) if picks else root_need
                if need > left:
                    continue
            for level in levels:
                low = unc & level
                if low:
                    break
            free = hits = cm[(low & -low).bit_length() - 1] & ~blocked
            if left == 1:
                scan = unc
                while scan and hits:
                    low = scan & -scan
                    hits &= cm[low.bit_length() - 1]
                    scan ^= low
                if hits:
                    low = hits & -hits
                    tracker.spend((free & (low << 1) - 1).bit_count())
                    return picks + (low.bit_length() - 1,)
                tracker.spend(free.bit_count())
                continue
            while free:
                i = free.bit_length() - 1
                free ^= 1 << i
                stack.append((covered | cov[i], blocked | blk[i] | free, picks + (i,)))
        return None

    return search, root_need


def _minimalize(cov, picks, full: int) -> list:
    """The picks in index order, less each one that the picks kept before it
    and all those after it still cover full without. One pass is enough:
    dropping picks only shrinks the cover, so a pick kept because the set
    without it missed a vertex stays needed. Suffix ORs make it O(k) ORs."""
    picks = sorted(picks)
    after = [0] * (len(picks) + 1)
    for t in range(len(picks) - 1, -1, -1):
        after[t] = after[t + 1] | cov[picks[t]]
    kept = []
    before = 0
    for t, i in enumerate(picks):
        if full & ~(before | after[t + 1]):
            kept.append(i)
            before |= cov[i]
    return kept


def _min_cover(comp: int, cov, ends, edges, tracker) -> _Part:
    """Fewest disjoint elements covering component comp (exact unless the
    budget ends it); sizes in vertices, picked edges pair them. The greedy
    less its redundant picks (_minimalize) is the upper end and the witness
    unless a smaller cover is found. Deepening starts at the larger of the
    counting bound and root_need, so a budget hit's lo is at least that. The
    greedy needs only the covers and ends, so the search's tables are built
    only when the counting bound leaves a size to try."""
    elems = bit_indices(comp) if edges is None else range(len(edges))
    picks = _greedy(cov, ends, elems, comp)
    maxcov = max(map(int.bit_count, map(cov.__getitem__, elems)))
    lb = max(1, -(-comp.bit_count() // maxcov))
    if lb < len(picks):
        picks = _minimalize(cov, picks, comp)
    lo = top = len(picks)
    if lb < top:
        blk, cm = _search_tables(cov, edges, comp.bit_length())
        search, root_need = _cover_search(cov, blk, cm, comp, len(elems), maxcov, tracker)
        for size in range(max(lb, root_need), top):
            try:
                found = search(size)
            except _BudgetExceeded:
                lo = size
                break
            if found is not None:
                picks, lo, top = found, size, size
                break
    if edges is None:
        return _Part(lo, top, bits_of(picks))
    pairs = tuple(edges[i] for i in picks)
    return _Part(2 * lo, 2 * top, bits_of(x for e in pairs for x in e), pairs)


def domination_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> Certificate:
    """gamma: smallest dominating set."""
    elements = _vertex_elements(g, False)
    return _solve(
        g, "gamma",
        lambda comp, tracker: _min_cover(comp, *elements, tracker),
        lambda cert: is_dominating(g, cert.witness),
        budget,
    )


def total_domination_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> Certificate:
    """gamma_t: smallest set whose open neighborhoods cover everything."""
    if has_isolated_vertex(g):
        raise DomainError("total domination undefined with isolated vertices")
    elements = _vertex_elements(g, True)
    return _solve(
        g, "gamma_t",
        lambda comp, tracker: _min_cover(comp, *elements, tracker),
        lambda cert: is_total_dominating(g, cert.witness),
        budget,
    )


def paired_domination_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> Certificate:
    """gamma_pr: smallest dominating set induced by vertex-disjoint edges.

    Deepening is over the pair count, so only even sizes are visited and the
    witness pairing is the search's own edge choice; the pairing and the
    domination are re-checked on the result."""
    if has_isolated_vertex(g):
        raise DomainError("paired domination undefined with isolated vertices")
    return _solve(
        g, "gamma_pr",
        lambda comp, tracker: _min_cover(comp, *_edge_elements(g, comp), tracker),
        lambda cert: pairing_is_valid(g, cert.witness, cert.pairing)
        and is_dominating(g, cert.witness),
        budget,
    )


# ---------------------------------------------------------------------------
# maximum-side: upper_gamma


def _irredundant_walk(cov, full, found, floor=None, tracker=None) -> dict:
    """Records in found ({size: lowest mask}, returned) the minimal covers of
    full, a union of components of the symmetric cover list cov: the covers
    among the irredundant sets, where each member covers a vertex no other
    member covers. A candidate is addable while its cover meets an uncovered
    vertex and misses a private vertex (cover & once & ~twice) of each
    member; by symmetry, the candidates covering all of a set P are the AND
    of P's covers. Neither test passes again once it fails, so the addable
    mask passes from parent to child, and a pick re-checks only the
    candidates covering a vertex it newly covers and the private sets it
    makes or shrinks. The walk branches on the lowest addable v, included
    first, on an explicit stack; the child excluding v is pushed only if
    each uncovered vertex v covers keeps another addable coverer. A leaf
    that leaves nothing uncovered is a minimal cover, reached once.

    With a floor (upper_gamma; found holds its cover) the walk ticks tracker
    per node, prunes a node that cannot pass the floor and raises the floor
    to each cover it records. Below a node at most min(addable, uncovered)
    members join: each is addable there, and the private vertex it keeps in
    the cover is one that no member there covers. Covers are met in
    one order (the set holding the lowest vertex of a symmetric difference
    first) and pruning cuts only subtrees without a larger cover, so no
    record depends on it."""
    stack = [(0, 0, 0, bits_of(v for v in bit_indices(full) if cov[v]))]
    while stack:
        members, once, twice, add = stack.pop()
        if floor is not None:
            tracker.tick()
            if members.bit_count() + min(add.bit_count(), (full ^ once).bit_count()) <= floor:
                continue
        if not add:
            size = members.bit_count()
            if once == full and members < found.get(size, members + 1):
                found[size] = members
                floor = None if floor is None else size
            continue
        low = add & -add
        rest = add ^ low
        c = cov[low.bit_length() - 1]
        # v's private vertices are those it newly covers: hold covers them all
        near, hold, alive = 0, rest, True
        scan = c & ~once
        while scan:
            u = scan & -scan
            scan ^= u
            cu = cov[u.bit_length() - 1]
            alive = alive and cu & rest
            near |= cu
            hold &= cu
        if alive:
            stack.append((members, once, twice, rest))
        taken = c & once & ~twice
        twice |= once & c
        once |= c
        keep = rest & ~hold
        near &= keep
        while near:
            x = near & -near
            near ^= x
            if not cov[x.bit_length() - 1] & ~once:
                keep ^= x
        # v takes private vertices from their owners: drop what covers the rest
        while taken:
            u = taken & -taken
            cd = cov[(cov[u.bit_length() - 1] & members).bit_length() - 1]
            taken &= ~cd
            hold = keep
            scan = cd & once & ~twice
            while scan and hold:
                w = scan & -scan
                scan ^= w
                hold &= cov[w.bit_length() - 1]
            keep ^= hold
        stack.append((members | low, once, twice, keep))
    return found


def _upper_component(g: Graph, comp: int, elements, tracker) -> _Part:
    """Largest minimal dominating set of component comp: the irredundant walk
    over closed covers, its floor starting at the minimalized greedy; a
    budget hit on at most UPPER_SCAN_CAP vertices walks comp again with no
    floor and no tracker, exact and not counted in nodes. The upper end is
    n - delta (Bollobas & Cockayne 1979) for a minimal dominating set D: if
    a member d has a private vertex u outside D, then u and N(u) - {d} lie
    outside D; if none has, D is independent and any member u has N(u)
    outside D; either way |V - D| >= deg(u). It is only the budget-hit hi
    and skips the walk when the greedy meets it, so it moves no witness."""
    closed = elements[0]
    verts = bit_indices(comp)
    best_bits = bits_of(_minimalize(closed, _greedy(closed, None, verts, comp), comp))
    best = best_bits.bit_count()
    top = len(verts) - min(g.adj[v].bit_count() for v in verts)
    found = {best: best_bits}
    try:
        if best < top:
            _irredundant_walk(closed, comp, found, best, tracker)
    except _BudgetExceeded:
        if len(verts) > UPPER_SCAN_CAP:
            return _Part(max(found), top, found[max(found)])
        found = _irredundant_walk(closed, comp, {})
    best = max(found)
    return _Part(best, best, found[best])


def upper_domination_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> Certificate:
    """upper_gamma: largest minimal dominating set (the irredundant walk with
    a floor, private-vertex obligations kept incrementally)."""
    elements = _vertex_elements(g, False)
    return _solve(
        g, "upper_gamma",
        lambda comp, tracker: _upper_component(g, comp, elements, tracker),
        lambda cert: is_minimal_dominating(g, cert.witness),
        budget,
    )


def upper_domination_exhaustive(g: Graph):
    """Exhaustive upper_gamma: the lowest mask of the largest size among all
    minimal dominating sets, which the irredundant walk with no floor lists;
    order <= 20 overall; returns (value, witness)."""
    if g.n > UPPER_SCAN_CAP:
        raise ResourceError(f"exhaustive minimal-dominating scan capped at order {UPPER_SCAN_CAP}")
    closed = _vertex_elements(g, False)[0]

    def largest(comp, _):
        found = _irredundant_walk(closed, comp, {})
        return _Part(max(found), max(found), found[max(found)])

    cert = _solve(g, "upper_gamma", largest, lambda cert: is_minimal_dominating(g, cert.witness))
    return cert.lo, cert.witness


def minimal_total_dominating_sizes(g: Graph) -> set:
    """Sizes of the inclusion-minimal members of the total dominating family
    (minimal among total dominating sets); exhaustive, order <= 16."""
    if g.n > 16:
        raise ResourceError("exhaustive total-dominating scan capped at order 16")
    if has_isolated_vertex(g):
        raise DomainError("total domination undefined with isolated vertices")
    return set(_irredundant_walk(g.adj, g.full_bits(), {}))


# ---------------------------------------------------------------------------
# maximum-side: packings via maximum independent set


def _clique_partition(g: Graph, comp: int) -> list[int]:
    """Pairwise disjoint cliques covering the vertices comp of g, as masks; an independent set
    meets each at most once, so their count bounds alpha from above.

    Greedy cliques first: vertices in ascending degree (lowest index on
    ties), each joining the first part it is adjacent to in full, else
    starting its own. Then the size-1 and size-2 parts, read as a matching
    with free vertices, grow by augmenting paths (free vertices in index
    order, one breadth-first alternating tree each). Each path found is
    simple, so the result stays a matching, and a maximum one when comp is
    bipartite (no part is larger than 2 there), where the part count is
    n - nu = alpha by Koenig's theorem."""
    adj = g.adj
    parts = []
    for v in sorted(bit_indices(comp), key=lambda v: adj[v].bit_count()):
        for i, p in enumerate(parts):
            if p & adj[v] == p:
                parts[i] = p | 1 << v
                break
        else:
            parts.append(1 << v)
    small = 0
    mate = dict.fromkeys(bit_indices(comp), -1)
    for p in parts:
        if p.bit_count() <= 2:
            small |= p
        if p.bit_count() == 2:
            a, b = bit_indices(p)
            mate[a], mate[b] = b, a

    def augment(root):
        prev = {}
        seen = 1 << root
        queue = [root]
        for u in queue:
            for w in bit_indices(adj[u] & small & ~seen):
                prev[w] = u
                if mate[w] < 0:
                    while w >= 0:
                        u = prev[w]
                        nxt = mate[u]
                        mate[u], mate[w] = w, u
                        w = nxt
                    return
                seen |= 1 << w | 1 << mate[w]
                queue.append(mate[w])

    for v in bit_indices(small):
        if mate[v] < 0:
            augment(v)
    parts = [p for p in parts if p.bit_count() > 2]
    for v in bit_indices(small):
        if mate[v] < 0:
            parts.append(1 << v)
        elif v < mate[v]:
            parts.append(1 << v | 1 << mate[v])
    seen = 0
    for p in parts:
        ensure(
            not seen & p and all(p & ~adj[v] == 1 << v for v in bit_indices(p)),
            "clique partition has a part that is not a clique or overlaps another",
        )
        seen |= p
    ensure(seen == comp, "clique partition does not cover the graph")
    return parts


def _mis_component(g: Graph, comp: int, tracker) -> _Part:
    """Maximum independent set of component comp of g by branch and bound:
    take the isolated vertices, then branch on the highest-degree vertex
    (lowest index on ties), taking it first. The greedy (lowest degree
    first) gives the starting best, and a node is pruned when its size plus
    the parts of a clique partition (_clique_partition, built once) that
    meet the vertices left cannot beat the best; no more parts than vertices
    meet them, so this prunes wherever counting the vertices left would. It
    cuts only subtrees holding no set larger than the best, and the best
    changes only on a strict improvement, so the sequence of improvements
    and the witness do not depend on it. The search is skipped when the
    greedy meets the part count, and a budget-exhausted part reports the
    part count as hi, so it is exact when the best already meets it."""
    adj = g.adj
    parts = _clique_partition(g, comp)
    part_bit = {}
    for i, p in enumerate(parts):
        for v in bit_indices(p):
            part_bit[v] = 1 << i
    avail = comp
    greedy_bits = 0
    while avail:
        best_v = -1
        best_d = 1 << 30
        for v in bit_indices(avail):
            d = (adj[v] & avail).bit_count()
            if d < best_d:
                best_d = d
                best_v = v
        greedy_bits |= 1 << best_v
        avail &= ~g.closed(best_v)
    best, best_bits = greedy_bits.bit_count(), greedy_bits
    # Depth-first on an explicit stack (a path can be thousands of levels
    # deep): the taking child is pushed last, so it is explored first.
    stack = [(comp, 0, 0)] if best < len(parts) else []
    try:
        while stack:
            avail, size, cur = stack.pop()
            tracker.tick()
            # One pass takes the isolated vertices, finds the highest-degree
            # other vertex (lowest index on ties) and marks the parts the
            # others meet: an isolated vertex is nobody's neighbor, so taking
            # it changes no other degree in avail, and its part meets avail
            # only at itself.
            iso = met = 0
            pick = -1
            pick_d = 0
            scan = avail
            while scan:
                low = scan & -scan
                scan ^= low
                v = low.bit_length() - 1
                d = (adj[v] & avail).bit_count()
                if not d:
                    iso |= low
                    continue
                met |= part_bit[v]
                if d > pick_d:
                    pick_d = d
                    pick = v
            cur |= iso
            size += iso.bit_count()
            avail &= ~iso
            if size + met.bit_count() <= best:
                continue
            if not avail:
                best, best_bits = size, cur
                continue
            stack.append((avail & ~(1 << pick), size, cur))
            stack.append((avail & ~g.closed(pick), size + 1, cur | 1 << pick))
    except _BudgetExceeded:
        return _Part(best, len(parts), best_bits)
    return _Part(best, best, best_bits)


def packing_number(g: Graph, k: int, budget: int = DEFAULT_NODE_BUDGET) -> Certificate:
    """rho_k: largest set with pairwise distance greater than k (maximum
    independent set of the distance-power conflict graph, whose components
    are g's own)."""
    conflict = distance_power_conflict_graph(g, k)
    return _solve(
        g, "rho_k",
        lambda comp, tracker: _mis_component(conflict, comp, tracker),
        lambda cert: is_k_packing(g, cert.witness, k),
        budget, k,
    )


def independence_number(g: Graph, budget: int = DEFAULT_NODE_BUDGET) -> Certificate:
    """alpha = rho_1."""
    return _solve(
        g, "alpha",
        lambda comp, tracker: _mis_component(g, comp, tracker),
        lambda cert: is_k_packing(g, cert.witness, 1),
        budget,
    )

"""Exact solvers: frozen values, certificates, budgets, witness constructions."""

import gc
import hashlib
import inspect
import itertools
import os
import random
import subprocess
import sys

import pytest

import domlab

from oracles import (
    brute_alpha,
    brute_gamma,
    brute_gamma_pr,
    brute_gamma_t,
    brute_is_minimal_dominating,
    brute_minimal_covers,
    brute_rho_k,
    brute_upper_gamma,
    is_bipartite,
)

from domlab.graphs import (
    DomainError,
    Graph,
    ResourceError,
    VertexSet,
    bits_of,
    connected_components,
    has_isolated_vertex,
    induced_subgraph,
)
from domlab.families import (
    build_family,
    complete,
    cycle,
    lollipop,
    parse_family_spec,
    path,
    pendant_pairs,
    random_graph,
    random_tree,
    rook2xn,
    star,
    subdivided_star,
)
from domlab.products import direct_product, multiway_direct_complete, product_pairing_is_valid
from domlab.matching import has_perfect_matching
from domlab.claims import appended_path_paired_witness, distinct_trees, ratio_scan
from domlab.solvers import (
    DEFAULT_NODE_BUDGET,
    _clique_partition,
    _edge_elements,
    _greedy,
    _irredundant_walk,
    _minimalize,
    _vertex_elements,
    domination_number,
    independence_number,
    is_dominating,
    is_k_packing,
    is_minimal_dominating,
    is_paired_dominating,
    is_total_dominating,
    minimal_total_dominating_sizes,
    packing_number,
    paired_domination_number,
    pairing_is_valid,
    private_neighbors,
    total_domination_number,
    upper_domination_exhaustive,
    upper_domination_number,
)


def _vs(g, idx):
    return VertexSet.of(g, idx)


# frozen small values, all hand-checkable

def test_domination_small_values():
    assert domination_number(path(6)).value == 2
    assert domination_number(complete(9)).value == 1
    assert domination_number(cycle(7)).value == 3
    assert domination_number(star(6)).value == 1
    assert domination_number(Graph(3)).value == 3  # edgeless: every vertex needed


def test_total_domination_small_values():
    assert total_domination_number(path(6)).value == 4
    assert total_domination_number(complete(4)).value == 2
    assert total_domination_number(cycle(6)).value == 4
    assert total_domination_number(star(6)).value == 2
    with pytest.raises(DomainError):
        total_domination_number(Graph(2))


def test_paired_domination_small_values():
    assert paired_domination_number(path(3)).value == 2
    assert paired_domination_number(subdivided_star(2)).value == 4
    assert paired_domination_number(cycle(9)).value == 6
    assert paired_domination_number(complete(2)).value == 2
    with pytest.raises(DomainError):
        paired_domination_number(star(0))  # K_1 has no pair at all
    with pytest.raises(DomainError):
        paired_domination_number(Graph(3, [(0, 1)]))  # isolated vertex


def test_upper_domination_small_values():
    assert upper_domination_number(complete(7)).value == 1
    assert upper_domination_number(path(4)).value == 2
    assert upper_domination_number(star(5)).value == 5  # all leaves
    assert upper_domination_number(rook2xn(6)).value == 6


def test_packing_and_independence_small_values():
    assert packing_number(path(7), 3).value == 2
    assert packing_number(path(7), 1).value == independence_number(path(7)).value == 4
    assert packing_number(cycle(8), 2).value == 2
    assert packing_number(path(4), 9).value == 1  # k beyond the diameter
    assert independence_number(complete(5)).value == 1
    with pytest.raises(DomainError):
        packing_number(path(4), 0)


def test_certificate_shape():
    g = cycle(5)
    c = paired_domination_number(g)
    assert c.parameter == "gamma_pr" and c.exact and c.lo == c.hi == c.value == 4
    assert is_paired_dominating(g, c.witness)
    assert pairing_is_valid(g, c.witness, c.pairing)
    c2 = packing_number(path(7), 3)
    assert c2.parameter == "rho_k" and c2.k == 3


# predicates

def test_predicates_positive_and_negative():
    g = path(6)
    assert is_dominating(g, _vs(g, [1, 4]))
    assert not is_dominating(g, _vs(g, [0, 1]))
    assert is_total_dominating(g, _vs(g, [1, 2, 3, 4]))
    assert not is_total_dominating(g, _vs(g, [1, 4]))  # members lack in-set neighbors
    assert is_paired_dominating(g, _vs(g, [1, 2, 3, 4]))
    assert not is_paired_dominating(g, _vs(g, [1, 2, 4]))  # odd size
    assert is_minimal_dominating(g, _vs(g, [1, 4]))
    assert not is_minimal_dominating(g, _vs(g, [0, 1, 4]))
    assert is_k_packing(g, _vs(g, [0, 4]), 3)
    assert not is_k_packing(g, _vs(g, [0, 3]), 3)


def test_pairing_is_valid_rejects_bad_pairings():
    g = path(6)
    s = _vs(g, [1, 2, 3, 4])
    assert pairing_is_valid(g, s, ((1, 2), (3, 4)))
    assert not pairing_is_valid(g, s, ((1, 2), (2, 3)))  # reuse
    assert not pairing_is_valid(g, s, ((1, 3), (2, 4)))  # non-edges
    assert not pairing_is_valid(g, s, ((1, 2),))  # leaves members uncovered
    assert not pairing_is_valid(g, s, ((1, 2), (3, 5)))  # strays outside the set


def test_private_neighbors():
    g = path(5)
    s = _vs(g, [1, 3])
    assert private_neighbors(g, s, 1).members() == [0, 1]
    with pytest.raises(DomainError):
        private_neighbors(g, s, 2)


# budgets and intervals

def test_budget_interval_certificate():
    g = multiway_direct_complete([5, 5, 5, 5])
    c = total_domination_number(g, 1500)
    assert not c.exact and c.value is None
    assert c.lo == 3 and c.hi == 5
    assert is_total_dominating(g, c.witness)  # hi end is always witnessed
    assert len(c.witness) == c.hi
    c2 = total_domination_number(g, 1500)
    assert (c2.lo, c2.hi, c2.witness.bits) == (c.lo, c.hi, c.witness.bits)  # deterministic


def test_budget_on_max_side():
    g = random_graph(24, 0.2, seed=81)
    c = upper_domination_number(g, 200)
    if not c.exact:
        assert is_minimal_dominating(g, c.witness)  # lo end witnessed for max side
        assert c.lo == len(c.witness) and c.hi >= c.lo


@pytest.mark.parametrize(
    "n, p, seed, budget, value",
    [(14, 0.5, 17, 6, 5), (16, 0.15, 45, 16, 9), (12, 0.3, 67, 4, 6)],
)
def test_drained_mis_search_is_exact(n, p, seed, budget, value):
    # the search reaches the clique-partition bound, then runs out of budget
    # popping the nodes left on its stack: the bounds meet, so it is exact
    c = independence_number(random_graph(n, p, seed), budget)
    assert (c.lo, c.hi, c.exact, c.value, c.nodes) == (value, value, True, value, budget + 1)


def test_drained_packing_search_is_exact():
    c = packing_number(random_graph(19, 0.15, 147), 2, 12)
    assert (c.lo, c.hi, c.exact, c.value, c.nodes) == (6, 6, True, 6, 13)


def test_search_node_counts_pinned():
    # A change to search order or pruning must update these counts on purpose.
    # The disjoint-coverer bound prunes the gamma search on C5xC6 and the
    # gamma_pr search on C7xC8, but no node of the other two.
    c5c6, _ = direct_product(cycle(5), cycle(6))
    g = domination_number(c5c6)
    t = total_domination_number(multiway_direct_complete([3, 3, 3]), 10_000)
    p = paired_domination_number(c5c6)
    p78 = paired_domination_number(direct_product(cycle(7), cycle(8))[0])
    assert (g.value, g.nodes, g.witness.members()) == (7, 244, [0, 1, 9, 12, 17, 20, 28])
    assert (t.value, t.nodes, t.witness.members()) == (5, 961, [1, 3, 9, 13, 26])
    assert (p.value, p.nodes) == (10, 10854)
    assert p.pairing == ((0, 7), (1, 24), (8, 15), (14, 21), (22, 29))
    assert (p78.value, p78.nodes) == (16, 21687)


_K5_4_GT = (3, 5, False)  # gamma_t of K5^4 under a budget: bounds from the greedy
_K5_4_WITNESS = (0, 156, 312, 468, 624)
_C78_WITNESS = (0, 1, 4, 5, 8, 9, 12, 13, 24, 25, 28, 29, 32, 33, 36, 37)
_C78_PAIRING = ((0, 9), (1, 8), (4, 13), (5, 12), (24, 33), (25, 32), (28, 37), (29, 36))
_PAIR34_WITNESS = (10, 11, 15, 23, 34, 40, 42, 47, 50, 53)  # the greedy's less 26
_LOL120_WITNESS = (0, 5, *[v for u in range(8, 121, 4) for v in (u, u + 1)], 122, 123)

# (graph, parameter, budget) -> (lo, hi, exact, nodes, witness, pairing). The
# last pick counts one node per free coverer tried, so the budgets around
# 256 (the coverer count of a K5^4 vertex) and C7xC8 at 21686 (its exact
# search ends at node 21687, on a last pick) must end at these nodes. pair34's
# greedy has a redundant pick, and the minimalized greedy is optimal: the
# deepening starts at the root's disjoint-coverer count 7 (the counting
# bound is 4), so a budget of 10 reports lo 7, and one of 5,000 runs out
# inside the size-9 refutation. P4xP5 and P4xP6 settle gamma at the root.
_SEARCH_TABLE = [
    *[(("K5^4", "gamma_t", b), (*_K5_4_GT, b + 1, _K5_4_WITNESS, ()))
      for b in (1, 2, 255, 256, 257, 1000, 4097)],
    (("pair34", "gamma", None), (10, 10, True, 8486, _PAIR34_WITNESS, ())),
    (("pair34", "gamma", 10), (7, 10, False, 11, _PAIR34_WITNESS, ())),
    (("pair34", "gamma", 5000), (9, 10, False, 5001, _PAIR34_WITNESS, ())),
    (("lol120", "gamma_t", None), (62, 62, True, 129, _LOL120_WITNESS, ())),
    (("lol120", "gamma_t", 50), (61, 62, False, 51, _LOL120_WITNESS, ())),
    (("C7xC8", "gamma_pr", 1000), (14, 16, False, 1001, _C78_WITNESS, _C78_PAIRING)),
    (("C7xC8", "gamma_pr", 21686), (14, 16, False, 21687, _C78_WITNESS, _C78_PAIRING)),
    (("C7xC8", "gamma_pr", None), (16, 16, True, 21687, _C78_WITNESS, _C78_PAIRING)),
    (("P4xP5", "gamma", None), (6, 6, True, 0, (6, 7, 8, 11, 12, 13), ())),
    (("P4xP5", "gamma_t", None), (6, 6, True, 0, (6, 7, 8, 11, 12, 13), ())),
    (("P4xP5", "gamma_pr", None),
     (8, 8, True, 0, (2, 6, 7, 8, 9, 11, 12, 13), ((2, 8), (6, 12), (7, 11), (9, 13)))),
    (("P4xP6", "gamma", None), (8, 8, True, 0, (4, 7, 8, 10, 12, 13, 15, 16), ())),
]


def test_min_side_search_outputs_pinned():
    # Bounds, node counts, witnesses and pairings of the cover search, also
    # on the two-component P4xP5 and P4xP6, whose components are solved in
    # the product's own labels; the oracles referee the P4xP5 values per
    # component.
    graphs = {
        "K5^4": multiway_direct_complete([5, 5, 5, 5]),
        "pair34": direct_product(
            build_family(parse_family_spec("random_graph:7:50#21008106")),
            build_family(parse_family_spec("random_graph:8:50#21000188")),
        )[0],
        "C7xC8": direct_product(cycle(7), cycle(8))[0],
        "lol120": lollipop(complete(5), 120, 0),
        "P4xP5": direct_product(path(4), path(5))[0],
        "P4xP6": direct_product(path(4), path(6))[0],
    }
    solvers = {
        "gamma": (domination_number, brute_gamma),
        "gamma_t": (total_domination_number, brute_gamma_t),
        "gamma_pr": (paired_domination_number, brute_gamma_pr),
    }
    for (name, param, budget), want in _SEARCH_TABLE:
        c = solvers[param][0](graphs[name], budget or DEFAULT_NODE_BUDGET)
        got = (c.lo, c.hi, c.exact, c.nodes, tuple(c.witness.members()), c.pairing)
        assert got == want, (name, param, budget)
    p45 = graphs["P4xP5"]
    comps = [induced_subgraph(p45, VertexSet(p45, comp))[0] for comp in connected_components(p45)]
    assert len(comps) == 2
    for param, want in (("gamma", 6), ("gamma_t", 6), ("gamma_pr", 8)):
        assert sum(map(solvers[param][1], comps)) == want, param


def test_max_side_node_counts_pinned():
    # upper_gamma, rho_k and alpha search trees: a change to their branching
    # or pruning must update these on purpose. The budgeted runs end at the
    # same node however cheap a node is. The greedy meets the clique-partition
    # bound at the root for alpha(C5xC6) (bipartite, so the partition is
    # exact) and for the pendant-pairs rho_3 and alpha.
    lol = lollipop(complete(6), 2, 0)
    u = upper_domination_number(direct_product(lol, lol)[0], 1000)
    assert (u.lo, u.hi, u.exact, u.nodes) == (20, 63, False, 1001)  # hi = n - delta
    assert u.witness.members() == [
        0, 1, 2, 3, 4, 5, 7, 15, 23, 31, 39, 47, 55, 56, 57, 58, 59, 60, 61, 63,
    ]
    pp, _ = direct_product(pendant_pairs(path(4)), pendant_pairs(cycle(5)))
    r = packing_number(pp, 3, 50_000)
    assert (r.lo, r.hi, r.exact, r.nodes) == (40, 40, True, 0)
    assert r.witness.members() == [
        80, 81, 82, 83, 84, 85, 86, 87, 88, 89,
        110, 111, 112, 113, 114, 115, 116, 117, 118, 119,
        126, 128, 130, 134, 141, 143, 145, 146, 147, 149,
        156, 158, 160, 161, 162, 164, 171, 173, 175, 179,
    ]
    a = independence_number(pp, 50_000)
    assert (a.lo, a.hi, a.exact, a.nodes) == (90, 90, True, 0)
    assert a.witness.members() == [
        0, 1, 2, 3, 4, 6, 8, 10, 12, 14, 21, 23, 25, 27, 29,
        30, 31, 32, 33, 34, 36, 38, 40, 42, 44, 51, 53, 55, 57, 59,
        66, 68, 70, 72, 74, 75, 76, 77, 78, 79, 81, 83, 85, 87, 89,
        90, 91, 92, 93, 94, 96, 98, 100, 102, 104, 111, 113, 115, 117, 119,
        126, 128, 130, 132, 134, 135, 136, 137, 138, 139, 141, 143, 145, 147, 149,
        150, 151, 152, 153, 154, 156, 158, 160, 162, 164, 171, 173, 175, 177, 179,
    ]
    r6 = upper_domination_number(rook2xn(6))
    assert (r6.value, r6.nodes, r6.witness.members()) == (6, 19, [0, 1, 2, 3, 4, 5])
    c5c6, _ = direct_product(cycle(5), cycle(6))
    u56 = upper_domination_number(c5c6)
    assert (u56.value, u56.nodes, u56.witness.members()) == (15, 52_613, list(range(0, 30, 2)))
    a56 = independence_number(c5c6)
    assert (a56.value, a56.nodes, a56.witness.members()) == (15, 0, list(range(0, 30, 2)))
    p56 = packing_number(c5c6, 2)
    assert (p56.value, p56.nodes, p56.witness.members()) == (4, 535, [0, 9, 10, 13])


def test_budget_hit_mis_reports_the_part_count():
    g = build_family(parse_family_spec("random_graph:60:10#3"))
    c = independence_number(g, 200)
    assert (c.lo, c.hi, c.exact, c.nodes) == (23, 25, False, 201)
    assert is_k_packing(g, c.witness, 1) and len(c.witness) == c.lo
    x = independence_number(g)
    assert (x.value, x.nodes) == (24, 921)


def test_mis_search_depth_is_not_bounded_by_the_call_stack():
    # An odd cycle is not closed at the root, and its search path runs
    # through hundreds of include and exclude levels.
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        c = independence_number(cycle(501))
        u = upper_domination_number(cycle(301), 2000)
    finally:
        sys.setrecursionlimit(old)
    assert (c.value, c.nodes) == (250, 503)
    assert (u.lo, u.hi, u.exact, u.nodes) == (150, 299, False, 2001)


def _hub_cycle(n, spokes):
    """Cycle on 0..n-1 plus a hub n joined to vertices 0..spokes-1."""
    return Graph(n + 1, [(i, (i + 1) % n) for i in range(n)] + [(n, i) for i in range(spokes)])


def test_cover_search_deeper_than_the_call_stack_is_exact():
    # gamma_t of this graph is 102 and the root's disjoint-coverer count 101,
    # so the one size searched is 101, 100 picks deep at its last picks:
    # deeper than the lowered limit would let a recursion go. The search runs
    # on its own stack, so the limit changes nothing.
    g = _hub_cycle(300, 100)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 100)
    try:
        c = total_domination_number(g)
    finally:
        sys.setrecursionlimit(old)
    assert (c.value, c.nodes) == (102, 201)
    assert len(c.witness) == 102 and is_total_dominating(g, c.witness)
    assert total_domination_number(g) == c


def test_searches_leave_no_cyclic_garbage():
    # No search state refers to itself, so a search's objects are freed by
    # reference counting as it returns, even when a spent budget ends it.
    k5 = multiway_direct_complete([5, 5, 5, 5])
    prod, _ = direct_product(
        build_family(parse_family_spec("random_graph:7:50#21008106")),
        build_family(parse_family_spec("random_graph:8:50#21000188")),
    )
    calls = [
        lambda: total_domination_number(k5, 500_000),
        lambda: domination_number(prod),
        lambda: has_perfect_matching(complete(8)),
        lambda: minimal_total_dominating_sizes(rook2xn(5)),
        lambda: upper_domination_exhaustive(rook2xn(4)),
    ]
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for i, call in enumerate(calls):
            call()
            assert gc.collect() == 0, i
    finally:
        if enabled:
            gc.enable()


def _mis_cases():
    """Seeded random graphs of order 1..14, sparse (often bipartite) to dense."""
    rng = random.Random(101)
    for i in range(60):
        yield random_graph(rng.randrange(1, 15), rng.choice([0.1, 0.2, 0.35, 0.5, 0.8]), 11000 + i)


def test_packings_match_the_oracles():
    for g in _mis_cases():
        assert independence_number(g).value == brute_alpha(g), g.label
        for k in (1, 2, 3):
            c = packing_number(g, k)
            assert c.value == brute_rho_k(g, k) == len(c.witness), (g.label, k)
            assert is_k_packing(g, c.witness, k)


def test_clique_partition_is_a_cover_by_disjoint_cliques():
    graphs = list(_mis_cases())
    graphs += [random_tree(n, 40 + n) for n in range(1, 15)]
    graphs += [direct_product(cycle(5), cycle(6))[0], rook2xn(5), complete(6), Graph(4)]
    bipartite = 0
    for g in graphs:
        parts = _clique_partition(g, g.full_bits())
        seen = 0
        for p in parts:
            assert p and not seen & p, g.label
            members = VertexSet(g, p).members()
            assert all(g.adj[u] >> w & 1 for u in members for w in members if u != w), g.label
            seen |= p
        assert seen == g.full_bits(), g.label
        alpha = brute_alpha(g) if g.n <= 14 else independence_number(g).value
        assert len(parts) >= alpha, g.label
        if is_bipartite(g):
            # the size-2 parts are a maximum matching: n - nu = alpha (Koenig)
            assert len(parts) == alpha, g.label
            bipartite += 1
    assert bipartite >= 20


def _upper_cases():
    """Seeded isolate-free random graphs of order 2..12."""
    rng = random.Random(103)
    for trial in range(200):
        g = random_graph(rng.randrange(2, 13), rng.choice([0.3, 0.5, 0.8, 0.95]), 12000 + trial)
        if not has_isolated_vertex(g):
            yield g


def test_upper_gamma_root_bound_against_exhaustive():
    # Gamma <= n - delta on each component: the search is skipped where the
    # minimalized greedy meets it, and a budget-hit part above the
    # exhaustive fallback's order cap reports it as hi.
    skipped = checked = 0
    for g in _upper_cases():
        value, _ = upper_domination_exhaustive(g)
        c = upper_domination_number(g)
        assert c.value == value, g.label
        for comp in connected_components(g):
            sub, _ = induced_subgraph(g, VertexSet(g, comp))
            assert upper_domination_exhaustive(sub)[0] <= sub.n - min(map(int.bit_count, sub.adj))
        skipped += c.nodes == 0
        checked += 1
    assert checked >= 150 and skipped >= 10
    g = random_graph(21, 0.3, 300)
    top = g.n - min(map(int.bit_count, g.adj))
    two = Graph.from_rows(g.adj + tuple(row << 21 for row in g.adj))
    for h, hi in ((g, top), (two, 2 * top)):
        c = upper_domination_number(h, 1)
        assert not c.exact and c.hi == hi >= upper_domination_number(h).value


def test_upper_gamma_witnesses_pinned():
    # The branch and bound and the exhaustive scan share one walk. Node
    # counts may move with its pruning; values and witnesses may not. One
    # digest covers both on _upper_cases and on direct products of seeded
    # isolate-free graphs of order at most 16.
    def products():
        rng = random.Random(109)
        for trial in range(100):
            a = rng.randrange(2, 5)
            g = random_graph(a, 0.8, 13000 + trial)
            h = random_graph(rng.randrange(3, 16 // a + 1), rng.choice([0.3, 0.5, 0.8]), 13500 + trial)
            if not has_isolated_vertex(g) and not has_isolated_vertex(h):
                yield direct_product(g, h)[0]

    digest = hashlib.sha256()
    count = 0
    for g in itertools.chain(_upper_cases(), products()):
        c = upper_domination_number(g)
        value, wit = upper_domination_exhaustive(g)
        digest.update(f"{c.value} {c.witness.members()} {value} {wit.members()}\n".encode())
        count += 1
    assert count == 223
    assert digest.hexdigest() == "be6ac24054133b4df46833e45dc6faf0915d779d1639f1c658b64447bc1e8e9d"


# Direct products of order 14..16 on which the disjoint-coverer bound starts
# the deepening above the counting bound or prunes search nodes: gamma on all
# but P3xP5, gamma_t on all, gamma_pr on the three K2 products. The
# brute-force gamma_pr stays under a second at these orders.
_PRUNED_PRODUCTS = {
    "C5xP3": (cycle(5), path(3)),
    "C7xK2": (cycle(7), path(2)),
    "C3xP5": (cycle(3), path(5)),
    "P3xP5": (path(3), path(5)),
    "K2xT8": (path(2), random_tree(8, 1)),
    "K2xG7": (path(2), random_graph(7, 0.45, 2)),
    "K2xG8": (path(2), random_graph(8, 0.45, 17)),
    "G5xG3": (random_graph(5, 0.5, 3), random_graph(3, 0.5, 1003)),
}


@pytest.mark.parametrize("name", _PRUNED_PRODUCTS)
def test_min_side_matches_oracles_where_the_bound_prunes(name):
    g, _ = direct_product(*_PRUNED_PRODUCTS[name])
    assert domination_number(g).value == brute_gamma(g)
    assert total_domination_number(g).value == brute_gamma_t(g)
    assert paired_domination_number(g).value == brute_gamma_pr(g)


def _min_side_cases():
    """Seeded isolate-free random graphs of order 2..14, sparse enough that
    the greedy often overshoots, and direct products of two small ones up to
    order 15, some with several components."""
    rng = random.Random(151)
    graphs = []
    for i in range(120):
        g = random_graph(rng.randrange(2, 15), rng.choice([0.15, 0.25, 0.35, 0.5]), 14000 + i)
        if not has_isolated_vertex(g):
            graphs.append(g)
    yield from graphs
    small = [g for g in graphs if g.n <= 5]
    for i in range(40):
        g, _ = direct_product(rng.choice(small), rng.choice(small))
        if g.n <= 15 and not has_isolated_vertex(g):
            yield g


def test_min_side_matches_the_oracles_on_random_graphs_and_products():
    # Sibling exclusion, the minimalized upper end and the root start each
    # change which covers the search visits; the values must not move.
    checked = 0
    for g in _min_side_cases():
        for solve, brute, check in (
            (domination_number, brute_gamma, is_dominating),
            (total_domination_number, brute_gamma_t, is_total_dominating),
            (paired_domination_number, brute_gamma_pr, is_dominating),
        ):
            c = solve(g)
            assert c.value == brute(g) == len(c.witness), (g.label, c.parameter)
            assert check(g, c.witness)
        checked += 1
    assert checked >= 60


def test_minimalize_matches_dropping_in_index_order():
    # The quadratic definition: for each pick in index order, drop it when
    # the picks still held without it cover full.
    def union(cov, picks):
        out = 0
        for i in picks:
            out |= cov[i]
        return out

    rng = random.Random(157)
    for _ in range(300):
        n = rng.randrange(1, 12)
        cov = [rng.getrandbits(n) for _ in range(rng.randrange(1, 16))]
        full = union(cov, range(len(cov)))
        picks = rng.sample(range(len(cov)), rng.randrange(1, len(cov) + 1))
        if union(cov, picks) != full:
            picks = list(range(len(cov)))
        want = sorted(picks)
        for i in sorted(picks):
            rest = [j for j in want if j != i]
            if union(cov, rest) == full:
                want = rest
        got = _minimalize(cov, picks, full)
        assert got == want
        assert all(union(cov, [j for j in got if j != i]) != full for i in got)


def test_greedy_cover_never_blocks_on_isolated_free_graphs():
    # An uncovered vertex is free as a closed element, its neighbors are
    # free as open elements, and it forms a free edge with any neighbor.
    rng = random.Random(131)
    for i in range(120):
        g = random_graph(rng.randrange(2, 25), rng.choice([0.1, 0.2, 0.4, 0.7]), 13000 + i)
        if has_isolated_vertex(g):
            continue
        full = g.full_bits()
        for cov, ends, edges in (
            _vertex_elements(g, False), _vertex_elements(g, True), _edge_elements(g, full)
        ):
            picked = [(v,) for v in range(g.n)] if edges is None else edges
            covered = used = 0
            for e in _greedy(cov, ends, range(len(picked)), full):
                assert not used & bits_of(picked[e])
                used |= bits_of(picked[e])
                covered |= cov[e]
            assert covered == full


def _tree_scan_pairs():
    trees = distinct_trees(2, 7)
    return trees, [(trees[i], trees[j]) for i in range(len(trees)) for j in range(i, len(trees))]


def test_search_tables_are_built_only_when_the_search_runs(monkeypatch):
    # Over the order-2..7 tree scan the blocking and coverer tables are built
    # once per cover search: 181 times, of 624 components; a product the
    # greedy settles builds none.
    calls = []
    build = domlab.solvers._search_tables
    monkeypatch.setattr(domlab.solvers, "_search_tables", lambda *args: calls.append(1) or build(*args))
    ratio_scan(_tree_scan_pairs()[1])
    assert len(calls) == 181
    calls.clear()
    c = paired_domination_number(direct_product(path(4), path(5))[0])
    assert (c.value, c.nodes, len(calls)) == (8, 0, 0)


def test_tree_scan_paired_certificates_pinned():
    # gamma_pr of the 24 trees of orders 2..7 and their 300 direct products:
    # bounds, witness bits, pairing and node counts in one hash, so a change
    # that moves any pick, witness or node count of the tree scan shows here.
    trees, pairs = _tree_scan_pairs()
    digest = hashlib.sha256()
    for g in trees + [direct_product(a, b)[0] for a, b in pairs]:
        c = paired_domination_number(g)
        digest.update(repr((c.lo, c.hi, c.witness.bits, c.pairing, c.nodes)).encode())
    assert digest.hexdigest() == "b57149efffd5075f007ec7839c7bbf43944ef04845f8de09862688db1a07b0a3"


def test_corrupt_component_result_raises_under_O():
    # the certificate re-check must survive python -O, which strips asserts
    script = """
import domlab.solvers as s
from domlab.families import path
solve = s._min_cover
s._min_cover = lambda *args: solve(*args)._replace(bits=1)
try:
    s.domination_number(path(6))
except AssertionError as exc:
    print("raised:", exc)
"""
    src = os.path.dirname(os.path.dirname(os.path.abspath(domlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "raised: gamma certificate fails its re-check\n"


def test_budget_validation():
    # a budget is a node count: every public solver and ratio_scan refuse one below 1
    g = cycle(5)
    solves = (
        domination_number,
        total_domination_number,
        paired_domination_number,
        upper_domination_number,
        independence_number,
        lambda g, b: packing_number(g, 2, b),
        lambda g, b: ratio_scan([(g, g)], b),
    )
    for budget in (0, -1):
        for solve in solves:
            with pytest.raises(DomainError, match="budget needs a positive node count"):
                solve(g, budget)


# parameter-specific structure

def test_upper_domination_agrees_with_exhaustive():
    rng = random.Random(83)
    for trial in range(40):
        g = random_graph(rng.randrange(1, 10), rng.choice([0.2, 0.5, 0.8]), seed=6000 + trial)
        a = upper_domination_number(g).value
        b, wit = upper_domination_exhaustive(g)
        assert a == b == brute_upper_gamma(g)
        if g.n:
            assert is_minimal_dominating(g, wit) and len(wit) == b


def test_is_minimal_dominating_agrees_with_brute_force():
    # random subsets: some minimal dominating, some dominating but not
    # minimal, most of them not dominating
    rng = random.Random(89)
    minimal = redundant = 0
    for trial in range(300):
        g = random_graph(rng.randrange(1, 11), rng.choice([0.2, 0.5, 0.8]), seed=7000 + trial)
        s = VertexSet(g, rng.getrandbits(g.n))
        want = brute_is_minimal_dominating(g, s.bits)
        assert is_minimal_dominating(g, s) == want, (g.adj, s.bits)
        minimal += want
        redundant += is_dominating(g, s) and not want
    assert minimal >= 20 and redundant >= 20


def test_upper_domination_exhaustive_cap():
    with pytest.raises(ResourceError):
        upper_domination_exhaustive(path(21))


def _cover_cases():
    """(name, cover list, full): the closed and open covers of seeded random
    graphs, and the shapes where the walk prunes least (complete graphs,
    where every single vertex is already a cover, and stars) or most (rook
    graphs, with many small irredundant sets that are not covers)."""
    rng = random.Random(97)
    graphs = [
        (f"G{i}", random_graph(rng.randrange(1, 13), rng.choice([0.15, 0.3, 0.5, 0.8]), 7000 + i))
        for i in range(30)
    ]
    graphs += [(f"star{n}", star(n)) for n in (1, 5, 11)]
    graphs += [(f"K{n}", complete(n)) for n in (1, 6, 12)]
    graphs += [(f"rook2x{n}", rook2xn(n)) for n in range(3, 8)]
    for name, g in graphs:
        yield name + "/closed", [g.closed(v) for v in range(g.n)], g.full_bits()
        if not any(row == 0 for row in g.adj):
            yield name + "/open", list(g.adj), g.full_bits()
    # an empty entry: the open covers of a graph with an isolated vertex, once
    # against every vertex (nothing covers it) and once against the rest
    g = Graph(7, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (0, 4)])
    yield "isolated/all", list(g.adj), g.full_bits()
    yield "isolated/coverable", list(g.adj), g.full_bits() & ~(1 << 6)


def test_minimal_covers_match_the_all_subsets_oracle():
    cases = list(_cover_cases())
    assert len(cases) == 63
    for name, cover, full in cases:
        assert _irredundant_walk(cover, full, {}) == brute_minimal_covers(cover, full), name


def test_minimal_total_sizes():
    assert minimal_total_dominating_sizes(path(4)) == {2}
    assert minimal_total_dominating_sizes(rook2xn(4)) == {2, 4}
    assert minimal_total_dominating_sizes(rook2xn(5)) == {2, 4, 5}
    with pytest.raises(ResourceError):
        minimal_total_dominating_sizes(path(17))
    with pytest.raises(DomainError):
        minimal_total_dominating_sizes(Graph(3, [(0, 1)]))


# witness constructions

# ell = 0 is the constant-tuple diagonal on the complete product itself

def test_diagonal_paired_dominating_odd():
    g, s, pairing = appended_path_paired_witness([4, 4, 4], 0)
    assert g.n == 64 and s.members() == [0, 21, 42, 63]
    assert is_paired_dominating(g, s) and pairing_is_valid(g, s, pairing)


def test_diagonal_paired_dominating_even():
    g, s, pairing = appended_path_paired_witness([5, 5, 5, 5], 0)
    assert len(s) == 6
    assert is_paired_dominating(g, s) and pairing_is_valid(g, s, pairing)
    # the last diagonal vertex pairs with the first unit vector (1,0,0,0)
    diag_last = 4 * (125 + 25 + 5 + 1)
    unit = 125
    assert (diag_last, unit) in pairing or (unit, diag_last) in pairing


def test_diagonal_guards():
    with pytest.raises(DomainError):
        appended_path_paired_witness([4, 4], 0)  # too few factors
    with pytest.raises(DomainError):
        appended_path_paired_witness([3, 4, 4], 0)  # factor smaller than t+1


def test_appended_path_witness_sizes_and_validity():
    # t+1+ell rounded up to even, for every parity of t and ell
    for orders, sizes in (
        ([4, 4, 4], (4, 6, 6, 8, 8, 10, 10, 12)),
        ([5, 5, 5, 5], (6, 6, 8, 8, 10, 10, 12, 12)),
    ):
        base = multiway_direct_complete(orders)
        for ell, size in enumerate(sizes):
            g, s, pairing = appended_path_paired_witness(orders, ell)
            assert g.n == base.n + ell
            assert len(s) == size
            assert is_paired_dominating(g, s)
            assert pairing_is_valid(g, s, pairing)


def test_lollipop_paired_monotone():
    rng = random.Random(89)
    checked = 0
    for trial in range(40):
        g = random_graph(rng.randrange(2, 8), rng.choice([0.4, 0.7]), seed=7000 + trial)
        if 0 in g.adj:
            continue
        base = paired_domination_number(g).value
        for ell in (1, 2, 3):
            ext = paired_domination_number(lollipop(g, ell, 0)).value
            assert ext >= base
        checked += 1
    assert checked >= 20


def test_parameter_chain_invariants():
    rng = random.Random(97)
    for trial in range(100):
        n = rng.randrange(2, 11)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), seed=8000 + trial)
        if 0 in g.adj:
            continue
        gamma = domination_number(g).value
        gamma_t = total_domination_number(g).value
        gamma_pr = paired_domination_number(g).value
        upper = upper_domination_number(g).value
        rho3 = packing_number(g, 3).value
        alpha = independence_number(g).value
        assert gamma <= gamma_t <= gamma_pr <= 2 * gamma
        assert gamma_pr >= 2 * rho3
        assert gamma <= upper <= alpha or upper >= alpha  # both are >= gamma
        assert upper >= gamma and alpha >= packing_number(g, 2).value


def test_worked_example_product():
    left = pendant_pairs(complete(1))
    right = pendant_pairs(complete(3))
    prod, _ = direct_product(left, right)
    assert paired_domination_number(left).value == 2
    assert paired_domination_number(right).value == 6
    assert paired_domination_number(prod).value == 12
    assert packing_number(prod, 3).value == 6
    assert domination_number(prod).value == 8

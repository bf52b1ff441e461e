"""Perfect-matching oracle against brute enumeration."""

import random

import pytest

from oracles import _subset_has_pm, edge_list

from domlab.graphs import Graph, ResourceError, VertexSet, induced_subgraph
from domlab.families import complete, path, random_graph, star
from domlab.matching import MATCHING_CAP, has_perfect_matching
from domlab.products import multiway_direct_complete
from domlab.claims import appended_path_paired_witness


def _witness_ok(g, pairs):
    used = set()
    for u, v in pairs:
        assert g.adj[u] >> v & 1
        assert u not in used and v not in used
        used.update((u, v))
    assert used == set(range(g.n))


def test_matches_brute_force_on_seeded_graphs():
    rng = random.Random(71)
    for trial in range(500):
        n = rng.randrange(0, 9)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.9]), seed=3000 + trial) if n else Graph(0)
        want = _subset_has_pm(g, (1 << n) - 1)
        got, pairs = has_perfect_matching(g)
        assert got == want
        if got:
            _witness_ok(g, pairs)
        else:
            assert pairs is None


def test_known_cases():
    assert has_perfect_matching(complete(6))[0]
    assert not has_perfect_matching(complete(5))[0]
    assert has_perfect_matching(path(4))[0]
    assert not has_perfect_matching(path(5))[0]
    assert not has_perfect_matching(star(3))[0]
    ok, pairs = has_perfect_matching(Graph(0))
    assert ok and pairs == ()


def test_adding_edges_preserves_matchability():
    rng = random.Random(73)
    kept = 0
    for trial in range(100):
        n = rng.choice([4, 6, 8])
        g = random_graph(n, 0.5, seed=4000 + trial)
        if not has_perfect_matching(g)[0]:
            continue
        non_edges = [(u, v) for u in range(n) for v in range(u + 1, n) if not g.adj[u] >> v & 1]
        if not non_edges:
            continue
        g2 = Graph(n, edge_list(g) + [rng.choice(non_edges)])
        assert has_perfect_matching(g2)[0]
        kept += 1
    assert kept > 20


def test_order_cap():
    with pytest.raises(ResourceError):
        has_perfect_matching(path(MATCHING_CAP + 2))
    # odd orders short-circuit before the cap check matters
    assert has_perfect_matching(path(MATCHING_CAP + 1)) == (False, None)


def test_diagonal_member_graph_is_matchable():
    # the induced graph on the 6-member diagonal witness in the 4-fold product
    g, members, _ = appended_path_paired_witness([5, 5, 5, 5], 0)
    sub, _ = induced_subgraph(g, members)
    ok, pairs = has_perfect_matching(sub)
    assert ok
    _witness_ok(sub, pairs)

"""Product constructors, implicit checks against materialized ones, the rook corner class."""

import random

import pytest

from oracles import brute_product_edges, check_structure

from domlab.graphs import (
    Graph,
    ResourceError,
    bits_of,
    closed_cover_bits,
    open_cover_bits,
)
from domlab.families import complete, path, random_graph, rook2xn
from domlab.products import (
    cartesian_product,
    direct_product,
    implicit_direct_domination_check,
    implicit_direct_total_check,
    multiway_direct_complete,
    product_pair_adjacent,
    product_pairing_is_valid,
)


def test_index_map_round_trip():
    _, imap = direct_product(path(5), path(7))
    for g in range(5):
        for h in range(7):
            assert imap.index(g, h) == g * 7 + h


def test_direct_product_adjacency_definition():
    rng = random.Random(41)
    for trial in range(25):
        g = random_graph(rng.randrange(2, 7), 0.5, seed=100 + trial)
        h = random_graph(rng.randrange(2, 7), 0.5, seed=200 + trial)
        gp, imap = direct_product(g, h)
        for _ in range(60):
            a, b = rng.randrange(g.n), rng.randrange(h.n)
            c, d = rng.randrange(g.n), rng.randrange(h.n)
            want = bool(g.adj[a] >> c & 1 and h.adj[b] >> d & 1)
            assert bool(gp.adj[imap.index(a, b)] >> imap.index(c, d) & 1) == want


def test_cartesian_product_adjacency_definition():
    rng = random.Random(43)
    for trial in range(25):
        g = random_graph(rng.randrange(2, 7), 0.5, seed=300 + trial)
        h = random_graph(rng.randrange(2, 7), 0.5, seed=400 + trial)
        gp, imap = cartesian_product(g, h)
        for _ in range(60):
            a, b = rng.randrange(g.n), rng.randrange(h.n)
            c, d = rng.randrange(g.n), rng.randrange(h.n)
            want = (a == c and bool(h.adj[b] >> d & 1)) or (b == d and bool(g.adj[a] >> c & 1))
            assert bool(gp.adj[imap.index(a, b)] >> imap.index(c, d) & 1) == want


def test_products_match_the_edge_definition_oracle():
    # Every row against the definitions, on seeded pairs that include order-1
    # factors, edgeless factors and factors with isolated vertices.
    rng = random.Random(47)
    factors = [Graph(1), Graph(3), Graph(3, [(0, 2)]), complete(2)]
    factors += [random_graph(rng.randrange(1, 7), rng.choice([0.2, 0.5, 0.9]), 500 + i) for i in range(16)]
    for g in factors:
        for h in rng.sample(factors, 6) + [Graph(1)]:
            for build, cartesian in ((direct_product, False), (cartesian_product, True)):
                gp, _ = build(g, h)
                check_structure(gp)
                edges = {(u, v) for u in range(gp.n) for v in range(gp.n) if gp.adj[u] >> v & 1}
                assert (gp.n, edges) == (g.n * h.n, brute_product_edges(g, h, cartesian))


def test_multiway_matches_direct_for_two_factors():
    for n1, n2 in [(2, 3), (4, 4), (5, 6), (6, 2)]:
        gp, _ = direct_product(complete(n1), complete(n2))
        mw = multiway_direct_complete([n1, n2])
        assert mw.adj == gp.adj
    # more factors, mixed orders: against chained two-factor products
    for orders in ([2, 3, 4], [5, 4, 4], [3, 3, 3, 3]):
        chained = complete(orders[0])
        for n in orders[1:]:
            chained, _ = direct_product(chained, complete(n))
        assert multiway_direct_complete(orders).adj == chained.adj


def test_multiway_small_orders():
    g = multiway_direct_complete([4, 4, 4])
    assert g.n == 64
    # (0,0,0) is adjacent exactly to tuples differing in every coordinate
    assert g.adj[0].bit_count() == 27


def test_product_caps():
    with pytest.raises(ResourceError):
        direct_product(complete(150), complete(150))
    with pytest.raises(ResourceError):
        cartesian_product(complete(150), complete(150))
    with pytest.raises(ResourceError):
        multiway_direct_complete([30, 30, 30])


def test_implicit_checks_match_materialized():
    rng = random.Random(47)
    agree = 0
    for trial in range(500):
        ng = rng.randrange(2, 13)
        nh = rng.randrange(2, 13)
        g = random_graph(ng, rng.choice([0.25, 0.5, 0.8]), seed=1000 + trial)
        h = random_graph(nh, rng.choice([0.25, 0.5, 0.8]), seed=2000 + trial)
        gp, imap = direct_product(g, h)
        k = rng.randrange(1, ng * nh // 2 + 2)
        members = sorted({(rng.randrange(ng), rng.randrange(nh)) for _ in range(k)})
        bits = bits_of([imap.index(a, b) for a, b in members])
        want_dom = closed_cover_bits(gp, bits) == gp.full_bits()
        want_tot = open_cover_bits(gp, bits) == gp.full_bits()
        assert implicit_direct_domination_check(g, h, members) == want_dom
        assert implicit_direct_total_check(g, h, members) == want_tot
        agree += 1
    assert agree == 500
    # dense factors with members in one or two columns: most neighbors of a
    # column hold no member, and a lone member column has none adjacent
    dense = [complete(4), complete(6), multiway_direct_complete([3, 3, 3])]
    seen = set()
    for g in dense:
        for h in dense:
            gp, imap = direct_product(g, h)
            for trial in range(40):
                xs = rng.sample(range(g.n), 1 + trial % 2)
                ys = range(rng.randrange(1, h.n + 1))
                members = sorted({(x, y) for x in xs for y in ys} | {(xs[0], h.n - 1)})
                bits = bits_of([imap.index(a, b) for a, b in members])
                want_dom = closed_cover_bits(gp, bits) == gp.full_bits()
                want_tot = open_cover_bits(gp, bits) == gp.full_bits()
                assert implicit_direct_domination_check(g, h, members) == want_dom
                assert implicit_direct_total_check(g, h, members) == want_tot
                seen |= {("dom", want_dom), ("tot", want_tot)}
    assert len(seen) == 4


def test_implicit_check_rejects_out_of_range():
    with pytest.raises(IndexError):
        implicit_direct_domination_check(path(3), path(3), [(0, 5)])


def test_product_pair_adjacent_matches_materialized():
    rng = random.Random(53)
    g = random_graph(8, 0.4, seed=71)
    h = random_graph(9, 0.6, seed=72)
    gp, imap = direct_product(g, h)
    for _ in range(200):
        p = (rng.randrange(8), rng.randrange(9))
        q = (rng.randrange(8), rng.randrange(9))
        want = bool(gp.adj[imap.index(*p)] >> imap.index(*q) & 1) if p != q else False
        assert product_pair_adjacent(g, h, p, q) == want


def test_product_pairing_validation():
    g = complete(4)
    members = [(i, i) for i in range(4)]
    good = [(((0, 0), (1, 1))), ((2, 2), (3, 3))]
    assert product_pairing_is_valid(g, g, members, good)
    # vertex reused across couples
    assert not product_pairing_is_valid(g, g, members, [((0, 0), (1, 1)), ((1, 1), (2, 2))])
    # couple not coordinate-adjacent: 0-2 is a non-edge of the path factor
    pg = path(4)
    assert not product_pairing_is_valid(pg, pg, [(0, 0), (2, 2)], [((0, 0), (2, 2))])
    # member left unmatched
    assert not product_pairing_is_valid(g, g, members + [(0, 1)], good)
    # self-couple
    assert not product_pairing_is_valid(g, g, [(0, 0), (0, 0)], [((0, 0), (0, 0))])


def test_rook_corner_class_dominates():
    n = 3
    g = rook2xn(n)
    gp, imap = direct_product(g, g)
    corner = bits_of(imap.index(b, d) for b in range(n) for d in range(n))
    assert closed_cover_bits(gp, corner) == gp.full_bits()


def test_products_allow_isolated_factor_vertices():
    g = Graph(3, [(0, 1)])  # vertex 2 isolated
    gp, _ = direct_product(g, complete(3))
    assert gp.n == 9
    assert gp.adj[6] == 0  # column of the isolated factor vertex stays isolated

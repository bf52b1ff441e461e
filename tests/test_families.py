"""Family constructors, labelings, and the family-string grammar."""

import random
import re
import tracemalloc
from types import SimpleNamespace

import pytest

from oracles import check_structure, distances, is_connected

from domlab import families
from domlab.graphs import DomainError, Graph, ResourceError
from domlab.families import (
    _FAMILIES,
    MAX_DIGITS,
    MAX_NESTING,
    FamilySpec,
    build_family,
    canonical_spec,
    cayleypop,
    complete,
    cycle,
    lollipop,
    parse_family_spec,
    path,
    pendant_pairs,
    prufer_decode,
    random_graph,
    random_tree,
    rook2xn,
    star,
    subdivided_star,
)
from domlab.products import multiway_direct_complete


def test_basic_family_shapes():
    assert complete(5).m == 10 and complete(1).n == 1
    assert path(6).m == 5 and path(1).m == 0
    assert cycle(5).m == 5
    g = star(4)
    assert g.n == 5 and g.adj[0].bit_count() == 4 and g.adj[3].bit_count() == 1
    s = subdivided_star(3)
    assert s.n == 7 and s.adj[0].bit_count() == 3
    assert s.adj[1].bit_count() == 2 and s.adj[4].bit_count() == 1  # midpoint, leaf
    assert s.adj[1] >> 4 & 1 and not s.adj[0] >> 4 & 1


def test_family_labels():
    assert complete(4).label == "complete:4"
    assert rook2xn(5).label == "rook2xn:5"
    assert random_graph(6, 0.5, seed=3).label == "random_graph:6:0.5#3"
    assert random_tree(6, seed=3).label == "random_tree:6#3"


def test_lollipop_labels_and_shape():
    base = complete(5)
    g = lollipop(base, 3, anchor=2)
    assert g.n == 8
    assert g.adj[5] == 1 << 2 | 1 << 6 and g.adj[6] == 1 << 5 | 1 << 7
    assert g.label == "lollipop(complete:5):3@2"
    assert lollipop(base, 0, 0) is base


def test_lollipop_extends_diameter_by_tail_length():
    d = distances(lollipop(complete(5), 2, 0))
    assert max(max(r) for r in d) == 1 + 2


def test_lollipop_guards():
    with pytest.raises(DomainError):
        lollipop(path(3), -1, 0)
    with pytest.raises(IndexError):
        lollipop(path(3), 1, 9)


def test_pendant_pairs_shape_and_tip_distances():
    rng = random.Random(61)
    for base in (cycle(5), complete(4), random_tree(7, seed=62)):
        g = pendant_pairs(base)
        n = base.n
        assert g.n == 3 * n
        d = distances(g)
        for v in range(n):
            mid, tip = n + 2 * v, n + 2 * v + 1
            assert g.adj[v] >> mid & 1 and g.adj[tip] == 1 << mid
        # tips sit 4 apart plus the base distance, so they form a 3-packing
        for u in range(n):
            for v in range(u + 1, n):
                base_d = distances(base)[u][v]
                assert d[n + 2 * u + 1][n + 2 * v + 1] == base_d + 4


def test_rook2xn_structure():
    n = 5
    g = rook2xn(n)
    assert g.n == 2 * n
    for v in range(2 * n):
        assert g.adj[v].bit_count() == n
    assert g.adj[0] >> n & 1  # matching edge between the two cliques
    assert g.adj[0] >> 1 & 1 and not g.adj[0] >> n + 1 & 1


def test_cayleypop_small_case_is_hexagon_with_tail():
    g = cayleypop([2, 3], 2)
    assert g.n == 8
    assert g.label == "cayleypop[2,3]:2"
    # the tailless part is K_2 x K_3: a 6-cycle, adjacency iff both coords differ
    for a in range(2):
        for b in range(3):
            for c in range(2):
                for d_ in range(3):
                    i, j = a * 3 + b, c * 3 + d_
                    if i != j:
                        assert bool(g.adj[i] >> j & 1) == (a != c and b != d_)
    assert g.adj[0] >> 6 & 1 and g.adj[6] >> 7 & 1
    with pytest.raises(DomainError):
        cayleypop([3, 3], 1)


def test_prufer_decode_degree_invariant():
    rng = random.Random(67)
    for _ in range(50):
        n = rng.randrange(2, 12)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        edges = prufer_decode(seq, n)
        assert len(edges) == n - 1
        deg = [0] * n
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        for v in range(n):
            assert deg[v] == seq.count(v) + 1


def test_random_tree_is_tree_and_deterministic():
    for seed in (1, 7, 42):
        t = random_tree(9, seed=seed)
        assert t.n == 9 and t.m == 8 and is_connected(t)
        assert t.adj == random_tree(9, seed=seed).adj
    assert random_tree(9, seed=1).adj != random_tree(9, seed=2).adj


def test_random_graph_extremes_and_determinism():
    assert random_graph(7, 0.0, seed=5).m == 0
    assert random_graph(7, 1.0, seed=5).m == 21
    g = random_graph(10, 0.4, seed=9)
    assert g.adj == random_graph(10, 0.4, seed=9).adj


def _edge_list_random_graph(n, p, seed):
    # the edge-list build random_graph had before it built rows: one draw per
    # pair (u, v), u < v, in order
    rng = random.Random(seed)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def test_random_graph_rows_match_the_edge_list_draws():
    for n in (1, 2, 7, 13, 29):
        for p in (0.0, 0.1, 0.3, 0.5, 0.9, 1.0):
            for seed in (0, 1, 7, 42):
                assert random_graph(n, p, seed).adj == _edge_list_random_graph(n, p, seed).adj


def test_random_graph_builds_no_edge_list():
    # an edge list of K300 is 44,850 tuples, about 4 MB; with every
    # allocation traced, building K1000 (47 MB of tuples) takes seconds
    tracemalloc.start()
    try:
        g = random_graph(300, 1.0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.m == 44_850 and peak < 1_000_000


def test_random_graph_raises_past_the_edge_cap_before_drawing_every_pair(monkeypatch):
    # K40 at p = 1/2 has about 390 edges over 780 pairs; with the cap at 30
    # the first rows pass it, so most pairs are never drawn
    draws = 0

    class CountingRandom(random.Random):
        def random(self):
            nonlocal draws
            draws += 1
            return super().random()

    monkeypatch.setattr(families, "random", SimpleNamespace(Random=CountingRandom))
    g = random_graph(40, 0.5, seed=3)
    assert draws == 780
    monkeypatch.setattr(families, "EDGE_CAP", g.m)
    assert random_graph(40, 0.5, seed=3).adj == g.adj  # at the cap: the same graph
    monkeypatch.setattr(families, "EDGE_CAP", 30)
    draws = 0
    with pytest.raises(ResourceError, match="above the 30-edge cap"):
        random_graph(40, 0.5, seed=3)
    assert 0 < draws < 780 // 4


def test_family_order_guards():
    with pytest.raises(ResourceError):
        complete(25000)
    with pytest.raises(ResourceError):
        pendant_pairs(path(7000))
    with pytest.raises(ResourceError):
        lollipop(path(3), 30000, 0)


def test_parse_and_canonical_round_trip():
    for text in (
        "complete:4",
        "path:17",
        "rook2xn:5",
        "subdivided_star:3",
        "complete_product[4,4,4]",
        "cayleypop[2,3]:2",
        "random_tree:9#42",
        "random_graph:10:30#7",
        "lollipop(complete:6):2@0",
        "pendant_pairs(complete:1)",
        "lollipop(pendant_pairs(complete:3)):2@1",
    ):
        spec = parse_family_spec(text)
        assert canonical_spec(spec) == text
        check_structure(build_family(spec))


# one spec per family, beside the direct constructor call it must build
_DIRECT = {
    "complete:6": lambda: complete(6),
    "path:5": lambda: path(5),
    "cycle:7": lambda: cycle(7),
    "star:4": lambda: star(4),
    "subdivided_star:3": lambda: subdivided_star(3),
    "rook2xn:5": lambda: rook2xn(5),
    "complete_product[3,2,4]": lambda: multiway_direct_complete([3, 2, 4]),
    "cayleypop[2,5]:3": lambda: cayleypop([2, 5], 3),
    "random_tree:9#42": lambda: random_tree(9, 42),
    "random_graph:10:30#7": lambda: random_graph(10, 0.3, 7),
    "lollipop(complete:6):2@4": lambda: lollipop(complete(6), 2, 4),
    "pendant_pairs(star:3)": lambda: pendant_pairs(star(3)),
}


def test_build_family_matches_direct_constructors():
    assert {re.match(r"[a-z_0-9]+", text).group() for text in _DIRECT} == set(_FAMILIES)
    for text, direct in _DIRECT.items():
        got = build_family(parse_family_spec(text))
        assert got.adj == direct().adj and got.label == text, text


@pytest.mark.parametrize(
    "text",
    [
        "nosuch:3",
        "complete",  # missing arity
        "complete:3:4",  # extra param
        "complete:3#7",  # seed on a non-seeded family
        "random_tree:9",  # missing seed
        "complete:4 junk",
        "complete_product[4,4",  # unclosed bracket
        "complete_product[a,b]",
        "lollipop(complete:4)",  # missing :ell@anchor
        "lollipop(complete:4:2@0",  # unclosed paren
        "random_graph:10:200#7",  # percent out of range
        "complete:3@1",  # anchor on a family without one
        "pendant_pairs",  # missing inner spec
        "cayleypop[2,3]",  # missing tail length
        "complete_product[]",
        "lollipop(complete:4):2@0#3",  # seed on a family without one
        # non-canonical spellings, some of which would build another graph
        "complete_product[2,2]:3",
        "cycle[5]",
        "complete_product:3:3",
        "cayleypop:3:4:2",
        "cycle:05",
    ],
)
def test_parse_rejections(text):
    with pytest.raises(DomainError):
        build_family(parse_family_spec(text))


def test_spec_nesting_and_number_limits():
    deepest = "pendant_pairs(" * MAX_NESTING + "path:1" + ")" * MAX_NESTING
    assert canonical_spec(parse_family_spec(deepest)) == deepest
    with pytest.raises(DomainError, match="nested deeper"):
        parse_family_spec("pendant_pairs(" + deepest + ")")
    longest = "random_tree:5#" + "9" * MAX_DIGITS
    assert parse_family_spec(longest).seed == int("9" * MAX_DIGITS)
    with pytest.raises(DomainError, match="digits"):
        parse_family_spec(longest + "9")


def test_hand_built_specs_outside_the_grammar_raise_domain_error():
    # the parser caps text at MAX_NESTING levels; a FamilySpec built in code
    # meets the same cap, and an unknown family or a missing part is named
    deep = FamilySpec("path", (1,))
    for _ in range(3000):
        deep = FamilySpec("pendant_pairs", inner=deep)
    for call in (build_family, canonical_spec):
        with pytest.raises(DomainError, match="nested deeper"):
            call(deep)
    with pytest.raises(DomainError, match="unknown family 'nope'"):
        canonical_spec(FamilySpec("nope"))
    with pytest.raises(DomainError, match="path specs take the form path:n"):
        canonical_spec(FamilySpec("path"))
    spec = FamilySpec("path", (1,))
    for _ in range(MAX_NESTING):
        spec = FamilySpec("lollipop", (1,), inner=spec, anchor=0)
    g = build_family(spec)
    assert g.n == MAX_NESTING + 1 and g.label == canonical_spec(spec)


def test_non_canonical_spec_names_the_canonical_form():
    with pytest.raises(DomainError, match=r"write 'complete_product\[2,2,3\]'"):
        parse_family_spec("complete_product[2,2]:3")


def test_family_spec_is_hashable_value_object():
    a = parse_family_spec("complete:4")
    b = FamilySpec("complete", (4,))
    assert a == b and hash(a) == hash(b)

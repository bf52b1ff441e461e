"""Core container, bitset helpers, metrics, and the text format."""

import random

import pytest

from domlab import graphs
from domlab.graphs import (
    EDGE_CAP,
    ORDER_CAP,
    DomainError,
    FormatError,
    Graph,
    ResourceError,
    VertexSet,
    ball_bits,
    bit_indices,
    bits_of,
    closed_cover_bits,
    connected_components,
    distance_power_conflict_graph,
    has_isolated_vertex,
    induced_subgraph,
    open_cover_bits,
    read_graph_text,
    write_graph_text,
)
from domlab.families import cycle, lollipop, path, pendant_pairs, random_graph, star
from domlab.solvers import is_dominating
from oracles import brute_read_graph_text, brute_write_graph_text, check_structure, distances, edge_list


def test_bitset_round_trip():
    rng = random.Random(11)
    for _ in range(100):
        idx = sorted(rng.sample(range(60), rng.randrange(0, 20)))
        assert bit_indices(bits_of(idx)) == idx


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (2, 3)], "demo")
    assert g.n == 4 and g.m == 3 and g.label == "demo"
    assert g.adj == (0b0010, 0b0101, 0b1010, 0b0100)
    assert g.closed(1) == bits_of([0, 1, 2])
    assert g.full_bits() == 0b1111
    assert edge_list(g) == [(0, 1), (1, 2), (2, 3)]


def test_graph_from_rows_matches_edge_form():
    g = Graph(3, [(0, 1), (1, 2)])
    h = Graph.from_rows([0b010, 0b101, 0b010])
    assert g.adj == h.adj


def test_graph_rejects_bad_input():
    with pytest.raises(DomainError):
        Graph(2, [(0, 0)])  # self loop
    with pytest.raises(IndexError):
        Graph(2, [(0, 5)])
    # from_rows trusts its caller; the oracle's structural check catches a bad row
    with pytest.raises(AssertionError, match="missing"):
        check_structure(Graph.from_rows([0b010, 0b000]))
    with pytest.raises(AssertionError, match="loop"):
        check_structure(Graph.from_rows([0b01]))
    with pytest.raises(AssertionError, match="beyond"):
        check_structure(Graph.from_rows([0b100, 0b000]))
    check_structure(Graph(3, [(0, 1), (1, 2)]))


def test_vertex_set_operations():
    g = path(6)
    a = VertexSet.of(g, [0, 2, 4])
    assert a.members() == [0, 2, 4] and list(a) == [0, 2, 4]
    assert len(a) == 3 and 2 in a and 1 not in a
    assert a == VertexSet.of(g, [4, 2, 0]) and hash(a) == hash(VertexSet.of(g, [0, 2, 4]))


def test_vertex_set_home_mismatch():
    # an equal graph is still another home: predicates check homes by identity
    a = VertexSet.of(path(4), [1, 2])
    assert is_dominating(a.home, a)
    with pytest.raises(DomainError):
        is_dominating(path(4), a)


def test_cover_bits():
    g = star(4)  # center 0, leaves 1..4
    assert closed_cover_bits(g, 1 << 0) == g.full_bits()
    assert open_cover_bits(g, 1 << 0) == bits_of([1, 2, 3, 4])
    assert open_cover_bits(g, 1 << 2) == 1 << 0
    assert closed_cover_bits(g, bits_of([1, 2])) == bits_of([0, 1, 2])


def _brute_dist(g):
    # Floyd-Warshall on the adjacency, independent of the BFS code
    inf = float("inf")
    d = [[0 if i == j else (1 if g.adj[i] >> j & 1 else inf) for j in range(g.n)] for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def test_ball_bits():
    g = path(7)
    assert ball_bits(g, 0, 2) == bits_of([0, 1, 2])
    assert ball_bits(g, 3, 1) == bits_of([2, 3, 4])
    assert ball_bits(g, 3, 10) == g.full_bits()


def test_distance_power_conflict_graph():
    rng = random.Random(23)
    for trial in range(30):
        g = random_graph(rng.randrange(2, 10), rng.choice([0.2, 0.4, 0.7]), seed=500 + trial)
        d = _brute_dist(g)
        for k in (1, 2, 3):
            c = distance_power_conflict_graph(g, k)
            for u in range(g.n):
                for v in range(u + 1, g.n):
                    assert bool(c.adj[u] >> v & 1) == (d[u][v] <= k)
    with pytest.raises(DomainError):
        distance_power_conflict_graph(path(6), 0)


def test_components_and_connectivity():
    g = Graph(6, [(0, 1), (1, 2), (4, 5)])
    comps = connected_components(g)
    assert sorted(comps) == sorted([bits_of([0, 1, 2]), bits_of([3]), bits_of([4, 5])])
    assert connected_components(cycle(5)) == [cycle(5).full_bits()]
    assert has_isolated_vertex(g)
    assert not has_isolated_vertex(path(2))


def test_components_and_balls_match_the_distance_oracle():
    """connected_components and ball_bits against BFS distances, orders 0 to
    12: sparse draws give isolated vertices and several components, and a
    disjoint union of two draws always has at least two."""
    rng = random.Random(71)
    isolated = several = 0
    for trial in range(300):
        n = rng.randrange(13)
        g = random_graph(n, rng.choice([0.0, 0.1, 0.2, 0.4, 0.8]), seed=7100 + trial) if n else Graph(0)
        if trial % 3 == 0 and 0 < n < 12:
            h = random_graph(12 - n, rng.random(), seed=7500 + trial)
            g = Graph.from_rows(g.adj + tuple(row << n for row in h.adj))
        d = distances(g)
        want = []  # first seen over ascending vertices: ordered by smallest member
        for v in range(g.n):
            comp = bits_of(u for u in range(g.n) if d[v][u] >= 0)
            if comp not in want:
                want.append(comp)
        assert connected_components(g) == want
        for v in range(g.n):
            for k in range(g.n + 1):
                assert ball_bits(g, v, k) == bits_of(u for u in range(g.n) if 0 <= d[v][u] <= k)
        isolated += 0 in g.adj
        several += len(want) > 1
    assert isolated > 50 and several > 100


def test_induced_subgraph():
    g = cycle(6)
    sub, relab = induced_subgraph(g, VertexSet.of(g, [0, 1, 2, 4]))
    assert sub.n == 4
    assert relab == {0: 0, 1: 1, 2: 2, 4: 3}
    assert edge_list(sub) == [(0, 1), (1, 2)]


def test_text_format_round_trip():
    rng = random.Random(31)
    for trial in range(40):
        g = random_graph(rng.randrange(1, 12), rng.random(), seed=900 + trial)
        text = write_graph_text(g)
        h = read_graph_text(text)
        assert h.n == g.n and h.adj == g.adj
        assert write_graph_text(h) == text


def test_text_format_comments_allowed_blank_lines_rejected():
    g = read_graph_text("# hello\n3 2\n# mid\n0 1\n1 2\n")
    assert g.n == 3 and edge_list(g) == [(0, 1), (1, 2)]
    with pytest.raises(FormatError):
        read_graph_text("3 2\n\n0 1\n1 2\n")


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "2\n",  # header needs two counts
        "2 1\n",  # missing edge line
        "2 1\n0 1\n0 1\n",  # extra edge line
        "3 2\n1 0\n1 2\n",  # u >= v
        "3 2\n1 2\n0 1\n",  # not sorted
        "3 2\n0 1\n0 1\n",  # duplicate
        "2 1\n0 2\n",  # out of range
        "2 1\n0 x\n",  # non-integer
        "-1 0\n",  # negative order
        "11 1\n0 1_0\n",  # int() would read 1_0 as 10
        "2 1\n+0 1\n",  # explicit sign
        "2 1\n00 1\n",  # leading zero
        "2 1\n0\t1\n",  # tab separator
        "2 1\n0 1 \n",  # trailing space
        "2 1\n0  1\n",  # double space
        "2 1 \n0 1\n",  # trailing space in the header
        "02 1\n0 1\n",  # leading zero in the header
        "2 1\r0 1\n",  # only a newline ends a line
        "2 1\x0c0 1\n",
        "2 1\u20280 1\n",
        "2 1\n0 \ud800\n",  # a lone surrogate, which no codec encodes
        "2 1\n0 \u0661\n",  # int() reads Arabic-Indic digits
        "2 1\n0 1e0\n",  # JSON would read a float
        "2 1\n0 1.0\n",
        "3 2\n0 2\n0 1\n",  # same u, v falls
        "3 1\n0 100000\n",  # six digits
    ],
)
def test_text_format_rejections(text):
    with pytest.raises(FormatError):
        read_graph_text(text)


def test_text_format_six_digit_index_is_out_of_range():
    with pytest.raises(FormatError, match="violates"):
        read_graph_text("3 1\n0 100000\n")


def test_text_format_order_cap():
    assert read_graph_text(f"{ORDER_CAP} 0\n").n == ORDER_CAP
    with pytest.raises(ResourceError):
        read_graph_text(f"{ORDER_CAP + 1} 0\n")


def test_text_format_edge_cap():
    # the header's edge count is checked before the edge block: a block too
    # short for m would otherwise be a FormatError
    with pytest.raises(ResourceError, match="edge cap"):
        read_graph_text(f"3 {EDGE_CAP + 1}\n0 1\n")
    with pytest.raises(FormatError, match="expected"):
        read_graph_text(f"3 {EDGE_CAP}\n0 1\n")


def test_writer_raises_past_the_edge_cap_with_the_full_count(monkeypatch):
    g = cycle(12)
    monkeypatch.setattr(graphs, "EDGE_CAP", 12)
    assert read_graph_text(write_graph_text(g)).adj == g.adj
    monkeypatch.setattr(graphs, "EDGE_CAP", 5)
    with pytest.raises(ResourceError, match="cycle:12 has 12 edges, above the 5-edge cap"):
        write_graph_text(g)


# Mutation characters for the differential test: digits, the separators, the
# comment mark, characters int() or str.split treat specially, a digit that
# is not ASCII (int() reads it) and the marks of a JSON float. '\r' is left
# out: str.splitlines in the oracle breaks lines there, the reader does not.
_MUTATION_ALPHABET = "0123456789 \n#-+_x\t\u0661.e"


def _mutate(rng, text):
    """One or two single-character insertions, substitutions or deletions."""
    for _ in range(rng.choice((1, 2))):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(_MUTATION_ALPHABET)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + c + text[i:]
        elif op == 1:
            text = text[:i] + c + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:]
    return text


def _outcome(read, text):
    """(n, adj) of the graph read, or None when the text is rejected."""
    try:
        g = read(text)
    except (FormatError, ResourceError):
        return None
    return g.n, g.adj


@pytest.mark.parametrize("slice_chars", [graphs._SLICE_CHARS, 7])
def test_reader_agrees_with_the_line_by_line_oracle(monkeypatch, slice_chars):
    """Mutated canonical texts, with comments at the top and inside the edge
    block: the reader accepts exactly what the oracle accepts, as the same
    graph. A 7-character slice holds about one line, so every line break is
    also a slice boundary and lines longer than a slice occur."""
    monkeypatch.setattr(graphs, "_SLICE_CHARS", slice_chars)
    rng = random.Random(47)
    accepted = 0
    trials = 2500
    for trial in range(trials):
        g = random_graph(rng.randrange(1, 12), rng.random(), seed=4700 + trial)
        lines = brute_write_graph_text(g, rng.choice([None, "note", "two\nlines"])).splitlines(True)
        if rng.random() < 0.3:
            lines.insert(rng.randrange(len(lines) + 1), "# inside\n")
        text = _mutate(rng, "".join(lines))
        want = _outcome(brute_read_graph_text, text)
        assert _outcome(read_graph_text, text) == want, repr(text)
        accepted += want is not None
    assert trials // 10 < accepted < trials * 9 // 10


def test_writer_matches_the_line_by_line_oracle():
    """Byte for byte, over dense rows (decoded from binary digits) and sparse
    rows with far neighbours (walked bit by bit)."""
    rng = random.Random(53)
    cases = [pendant_pairs(cycle(40)), lollipop(random_graph(30, 0.9, seed=1), 60, 7)]
    for trial in range(120):
        n = rng.randrange(1, 150)
        cases.append(random_graph(n, rng.choice([0.003, 0.02, 0.1, 0.5, 0.97]), seed=5300 + trial))
    for g in cases:
        assert write_graph_text(g) == brute_write_graph_text(g)


def _slice_starts(text):
    """Where each slice of the edge block starts: after the header line, then
    after the last newline within graphs._SLICE_CHARS characters."""
    pos, starts = text.index("\n") + 1, []
    while pos < len(text):
        starts.append(pos)
        pos = text.rfind("\n", pos, pos + graphs._SLICE_CHARS) + 1
    return starts


def test_edge_checks_carry_across_slices():
    """The order check and the edge count run over the whole block, not per
    slice: a duplicate or a swap placed exactly across a slice boundary and a
    count that is off by one line only in the last slice are all rejected."""
    g = pendant_pairs(cycle(6666))
    text = write_graph_text(g)
    assert text == brute_write_graph_text(g)
    starts = _slice_starts(text)
    assert len(starts) > 3
    assert read_graph_text(text).adj == g.adj

    def around(cut):
        """The line that ends at cut and the line that starts there."""
        return text[text.rindex("\n", 0, cut - 1) + 1:cut], text[cut:text.index("\n", cut) + 1]

    # a boundary between two lines of equal length, so swapping them moves no cut
    cut = next(c for c in starts[1:] if len(set(map(len, around(c)))) == 1)
    last, first = around(cut)
    duplicate = text[:cut] + last + text[cut + len(first):]
    swapped = text[:cut - len(last)] + first + last + text[cut + len(first):]
    for bad in (duplicate, swapped):
        assert cut in _slice_starts(bad)  # the two lines still straddle the boundary
        with pytest.raises(FormatError, match="sorted"):
            read_graph_text(bad)

    # Comment lines at the boundary and a missing final newline are fine.
    commented = text[:cut] + "# boundary\n" + text[cut:]
    assert read_graph_text(commented).adj == g.adj
    assert read_graph_text(text[:-1]).adj == g.adj

    n, m = g.n, g.m
    assert text.startswith(f"{n} {m}\n")
    for header in (f"{n} {m + 1}\n", f"{n} {m - 1}\n"):  # one line short, one extra
        with pytest.raises(FormatError, match="edge lines"):
            read_graph_text(header + text[text.index("\n") + 1:])

"""Immutable bitset graphs and the structural queries every other module builds on.

Vertices are dense indices 0..n-1 and a set of vertices is a Python int used as
a bitset. VertexSet wraps such an int together with the graph it indexes so sets
homed on different graphs cannot be mixed by accident.
"""

from __future__ import annotations

import json
from itertools import compress
from operator import ge, lt

ORDER_CAP = 20000  # one desk-scale ceiling: constructed, materialized and read graphs
EDGE_CAP = 1_000_000  # edges of constructed and read graphs: at most 12 MB of edge lines

# Graph text is read in slices of about this many characters, each cut after
# a line break, so the reader's working memory stays bounded by the slice.
_SLICE_CHARS = 1 << 16

_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")  # binary digits to 0/1 selectors


class DomainError(ValueError):
    """Input lies outside an operation's documented domain."""


class ResourceError(RuntimeError):
    """Instance exceeds a documented size cap."""


class FormatError(ValueError):
    """Malformed graph text."""


def ensure(ok, message: str) -> None:
    """Raises AssertionError(message) unless ok; unlike assert it also runs
    under python -O, so certificate re-checks never vanish."""
    if not ok:
        raise AssertionError(message)


def bit_indices(bits: int) -> list[int]:
    """Ascending indices of the set bits."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def bits_of(indices) -> int:
    mask = 0
    for v in indices:
        mask |= 1 << v
    return mask


class Graph:
    """Simple undirected graph: order, per-vertex neighbor bitsets, optional label.

    Instances are immutable by convention; adj is a tuple of ints where bit u of
    adj[v] means u ~ v.
    """

    __slots__ = ("n", "adj", "label")

    def __init__(self, n: int, edges=(), label: str = ""):
        if n < 0:
            raise DomainError("negative order")
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"edge ({u},{v}) out of range for order {n}")
            if u == v:
                raise DomainError(f"loop at vertex {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.n = n
        self.adj = tuple(rows)
        self.label = label

    @classmethod
    def from_rows(cls, rows, label: str = "") -> "Graph":
        """Adopt prebuilt symmetric adjacency rows (used by product constructors)."""
        g = object.__new__(cls)
        g.n = len(rows)
        g.adj = tuple(rows)
        g.label = label
        return g

    @property
    def m(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def closed(self, v: int) -> int:
        return self.adj[v] | (1 << v)

    def full_bits(self) -> int:
        return (1 << self.n) - 1

    def __repr__(self):
        tag = f" {self.label!r}" if self.label else ""
        return f"<Graph n={self.n} m={self.m}{tag}>"


class VertexSet:
    """Bitset of vertices tied to its home graph; the predicates reject a set
    homed on another graph (homed_bits)."""

    __slots__ = ("home", "bits")

    def __init__(self, home: Graph, bits: int = 0):
        if bits < 0 or bits >> home.n:
            raise DomainError("bit outside the home graph's order")
        self.home = home
        self.bits = bits

    @classmethod
    def of(cls, home: Graph, indices) -> "VertexSet":
        return cls(home, bits_of(indices))

    def members(self) -> list[int]:
        return bit_indices(self.bits)

    def __iter__(self):
        return iter(bit_indices(self.bits))

    def __len__(self):
        return self.bits.bit_count()

    def __contains__(self, v) -> bool:
        return 0 <= v < self.home.n and bool(self.bits >> v & 1)

    def __eq__(self, other):
        return (
            isinstance(other, VertexSet)
            and other.home is self.home
            and other.bits == self.bits
        )

    def __hash__(self):
        return hash((id(self.home), self.bits))

    def __repr__(self):
        return f"VertexSet({self.members()})"


def homed_bits(g: Graph, s: VertexSet) -> int:
    """Raw bits of s after checking it is homed on g."""
    if not isinstance(s, VertexSet) or s.home is not g:
        raise DomainError("vertex set not homed on this graph")
    return s.bits


def open_cover_bits(g: Graph, bits: int) -> int:
    """N(S) as bits: the one loop that expands a vertex mask by its rows."""
    adj = g.adj
    cover = 0
    while bits:
        low = bits & -bits
        cover |= adj[low.bit_length() - 1]
        bits ^= low
    return cover


def closed_cover_bits(g: Graph, bits: int) -> int:
    """N[S] as bits."""
    return bits | open_cover_bits(g, bits)


def ball_bits(g: Graph, src: int, k: int) -> int:
    """Vertices within distance <= k of src, including src."""
    seen = frontier = 1 << src
    for _ in range(k):
        frontier = open_cover_bits(g, frontier) & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def distance_power_conflict_graph(g: Graph, k: int) -> Graph:
    """Same vertices; u ~ v iff 1 <= dist(u, v) <= k. k-packings of g are exactly
    the independent sets of the result."""
    if k < 1:
        raise DomainError("k must be at least 1")
    rows = [ball_bits(g, v, k) & ~(1 << v) for v in range(g.n)]
    label = f"conflict{k}({g.label})" if g.label else ""
    return Graph.from_rows(rows, label)


def connected_components(g: Graph) -> list[int]:
    """Component vertex sets as bits, ordered by smallest member."""
    comps = []
    left = g.full_bits()
    while left:
        comp = ball_bits(g, (left & -left).bit_length() - 1, g.n)
        comps.append(comp)
        left &= ~comp
    return comps


def has_isolated_vertex(g: Graph) -> bool:
    return 0 in g.adj


def induced_subgraph(g: Graph, s: VertexSet):
    """Subgraph on S with dense relabeling; returns (graph, old-to-new index map)."""
    bits = homed_bits(g, s)
    old = bit_indices(bits)
    remap = {o: i for i, o in enumerate(old)}
    rows = []
    for o in old:
        row = 0
        for t in bit_indices(g.adj[o] & bits):
            row |= 1 << remap[t]
        rows.append(row)
    return Graph.from_rows(rows), remap


def write_graph_text(g: Graph) -> str:
    """Canonical text form: the 'n m' header, then sorted 'u v' lines.

    Row u contributes one string, its lines naming the bits of adj[u] above
    u. A row dense over its span is decoded from its binary digits in C; a
    sparse one bit by bit from the top, so a far neighbour costs one big-int
    step, not a scan of the span. Besides the result, the working memory is
    the decimal names and one string per row, not one per edge. Once the
    running edge count passes EDGE_CAP it raises ResourceError, naming the
    full count, before building more text."""
    out = [""]  # the header, filled in once the edges are counted
    names = list(map(str, range(g.n)))
    m = 0
    for u, row in enumerate(g.adj):
        above = row >> (u + 1)
        if not above:
            continue
        width, count = above.bit_length(), above.bit_count()
        m += count
        if m > EDGE_CAP:
            m += sum((row >> v + 1).bit_count() for v, row in enumerate(g.adj[u + 1 :], u + 1))
            raise ResourceError(f"{g.label or 'graph'} has {m} edges, above the {EDGE_CAP}-edge cap")
        if count == 1:  # a path or pendant row: its one line whole
            out.append(names[u] + " " + names[u + width] + "\n")
            continue
        if count * 32 >= width:  # a set bit per 32 of span: decoding digits is cheaper
            digits = bin(above)[:1:-1].encode().translate(_BIT_BYTES)
            ends = compress(names[u + 1 : u + 1 + width], digits)
        else:
            ends = []
            while above:
                top = above.bit_length() - 1
                ends.append(names[u + 1 + top])
                above ^= 1 << top
            ends.reverse()
        lead = names[u] + " "
        out.append(lead + ("\n" + lead).join(ends) + "\n")
    out[0] = f"{g.n} {m}\n"
    return "".join(out)


def _read_pair(line: str, what: str):
    """The two integers of a data line that must read exactly 'a b'."""
    if line.strip() == "":
        raise FormatError("blank line in graph text")
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


def _line_end(text: str, pos: int) -> int:
    """Index just past the line break that ends the line at pos, or the
    text's length when no line break follows."""
    return text.find("\n", pos) + 1 or len(text)


def _slice_end(text: str, pos: int) -> int:
    """End of the slice that starts at pos: just past its last line break
    within _SLICE_CHARS characters (past the first one beyond them when a
    single line is longer), or the text's end when that is nearer."""
    cap = pos + _SLICE_CHARS
    if cap >= len(text):
        return len(text)
    return text.rfind("\n", pos, cap) + 1 or _line_end(text, cap)


def _edge_error(us, vs, n: int, last: int):
    """Raises FormatError naming the first pair that breaks 0 <= u < v < n or
    the strict order after key last (u*n + v of the previous pair)."""
    for u, v in zip(us, vs):
        if not 0 <= u < v < n:
            raise FormatError(f"edge ({u},{v}) violates 0 <= u < v < n")
        if u * n + v <= last:
            raise FormatError("edge lines not strictly sorted")
        last = u * n + v


def _edge_numbers(chunk: str):
    """The numbers of a slice of well-formed edge lines in order, or None
    when the slice is not one: it is not ASCII, its non-digits do not read
    ' \\n' over and over, or JSON rejects an empty number or a leading zero.
    The slice then goes line by line, which words the error."""
    if not chunk.isascii():
        return None
    seps = chunk.encode("ascii").translate(None, b"0123456789")
    if seps != b" \n" * (len(seps) // 2):
        return None
    try:
        return json.loads("[" + chunk[:-1].replace(" ", ",").replace("\n", ",") + "]")
    except ValueError:
        return None


def read_graph_header(text: str):
    """(n, m, end) from the comment lines and the 'n m' header line that open
    graph text, end the index just past the header; raises as
    read_graph_text does, ResourceError for a header over the caps."""
    pos = 0
    while text.startswith("#", pos):
        pos = _line_end(text, pos)
    if pos == len(text):
        raise FormatError("missing 'n m' header line")
    end = _line_end(text, pos)
    n, m = _read_pair(text[pos:end].removesuffix("\n"), "header")
    if n < 0 or m < 0:
        raise FormatError("negative header value")
    if n > ORDER_CAP:
        raise ResourceError(f"graph text order {n} exceeds the {ORDER_CAP}-vertex cap")
    if m > EDGE_CAP:
        raise ResourceError(f"graph text edge count {m} exceeds the {EDGE_CAP}-edge cap")
    return n, m, end


def read_graph_text(text: str) -> Graph:
    """Strict reader for the canonical text form; any violation raises
    FormatError, and a header order above ORDER_CAP or edge count above
    EDGE_CAP raises ResourceError. Only a newline ends a line.

    The edge block is read in slices of about _SLICE_CHARS characters cut
    after a line break. A byte-class check tests a slice's line shapes, its
    numbers are converted in one call, and the range and order checks run
    over whole lists: u rises weakly, and strictly where v does not, and the
    last key u*n + v is carried from slice to slice. A slice that fails the
    shape check (a comment line or an error) goes line by line through
    _read_pair, the one place that words a line error. Slicing bounds the
    working memory beyond the text and the adjacency rows: lists of the
    numbers of the whole block would cost more than the rows."""
    n, m, pos = read_graph_header(text)
    rows = [0] * n
    count, last = 0, -1
    while pos < len(text):
        end = _slice_end(text, pos)
        chunk = text[pos:end]
        pos = end
        if not chunk.endswith("\n"):
            chunk += "\n"
        nums = _edge_numbers(chunk)
        if nums is not None:
            us, vs = nums[::2], nums[1::2]
        else:
            lines = chunk[:-1].split("\n")
            pairs = [_read_pair(line, "edge line") for line in lines if not line.startswith("#")]
            us, vs = [u for u, _ in pairs], [v for _, v in pairs]
        count += len(us)
        if count > m:
            raise FormatError(f"expected {m} edge lines, found more")
        if not us:
            continue
        # u rises weakly, and strictly where v does not. The first key u*n + v
        # tops the last key (-1 at first); with v < n that puts the least u,
        # us[0], and so every u, at 0 or above.
        if not (max(vs) < n and all(map(lt, us, vs)) and last < us[0] * n + vs[0]
                and us == sorted(us)
                and all(us[i - 1] < us[i] for i in compress(range(1, len(vs)), map(ge, vs, vs[1:])))):
            _edge_error(us, vs, n, last)
        last = us[-1] * n + vs[-1]
        for u, v in zip(us, vs):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    if count != m:
        raise FormatError(f"expected {m} edge lines, found {count}")
    return Graph.from_rows(rows)

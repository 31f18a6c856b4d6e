"""Simple undirected graphs on contiguous integer ids, with bitmask vertex sets.

A vertex set is a plain Python int used as a bitmask (bit v set <=> vertex v
in the set).  Neighbourhood algebra -- closed neighbourhoods, deletions,
boundary edge counts -- then runs in a handful of machine-word operations,
which matters because these are the inner loops of exhaustive enumeration
and exact search.  Graphs are immutable after construction and safe to share.

`components` is the one walk over a graph: it splits a mask into its
components, for the solver, the certificate and the constructive pieces.
Each comes with its edge count and its least vertex of maximum degree,
both read off the degrees the walk computes anyway; only the constructive
recursion uses that vertex, the one its case analysis dispatches on.
`connected` runs the whole walk and answers whether it found at most one
component, for the connectivity tests of `is_connected`, the enumerator
and `recognize`.

The public set helpers, `as_mask`, `closed_neighborhood` and
`boundary_edge_count`, take a Graph and validate every set they are given:
ids outside 0..n-1, negative masks and, for e(A, B), overlapping sets raise
ValueError.  The mask kernels `components`, `connected`, `closed_of` and
`edges_between` take the adjacency rows and masks the caller vouches for,
and check nothing; the public helpers validate, then call them.  Code that
builds its masks from a graph's own rows, like the constructive recursion,
calls the kernels directly.

graph6 support is bit-exact: column-major upper triangle x(0,1), x(0,2),
x(1,2), x(0,3), ..., six bits per byte, each byte offset by 63.  Only the
single-byte order header (n <= 62) is supported.  The 6-bit groups are
base64's with another alphabet, so binascii packs and unpacks them.  The
codec and the Graph checks take Python steps per vertex and per edge,
never per vertex pair; what work remains per pair runs inside C (str and
int conversions).  So a sparse graph costs O(n + m) steps, and a dense
one, with about n^2/2 edges, costs about what a per-pair walk did.

`graph_from_code` is the one place pair bits become a Graph: parse_graph6
decodes its payload with it, and survey's enumerator its canonical codes.
`from_edge_list` is the other builder.  Each pair bit, or each edge, sets
the rows of both its ends, so the rows they build are symmetric and
loop-free by construction; both skip Graph's checks, and m is the number
of pair bits or half the rows' bit count.  A graph from pair bits keeps
them in a private slot, so encode_graph6, which a survey runs on every
graph it is handed, writes a decoded graph without walking its rows.
Rows that a caller hands to Graph(n, adj) are checked in one pass, ids
and loops in every row first, then the first asymmetric pair in scan
order; no pair bits are kept.

`parse_edge_list` reads ASCII decimal integers and feeds `from_edge_list`
one line's edge at a time, so the builder's loop and range checks are the
only ones; the parser puts that line's number in front of any error.

`bits` returns a mask's ids as a tuple.  A table of the 256 id tuples of a
byte answers a mask below 256 in one lookup and gives the ids 0..7 of a
wider one; its set bits above those are taken one at a time into a list.
The recursion's masks are sparse, about three ids each, so that loop is
short.  A table per higher byte reads them faster still, but such tables,
like per-byte tuples or bytes joined together, raise the peak memory of a
survey pass by more than the benchmark's bound.
"""

from __future__ import annotations

from binascii import a2b_base64, b2a_base64
from itertools import accumulate
from operator import lshift
from typing import Iterable, Sequence, Union

VertexSet = int  # bitmask over vertex ids

GRAPH6_MAX_N = 62


class GraphFormatError(ValueError):
    """Malformed graph6 or edge-list input."""


def mask_of(vertices: Iterable[int]) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


# _BYTE_IDS[b]: the ids of the bits set in byte b, for the low byte of a mask
_BYTE_IDS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def bits(mask: VertexSet) -> tuple[int, ...]:
    """The vertex ids in a mask in increasing order: ids 0..7 from a table
    of the low byte, the rest one set bit at a time."""
    if mask < 256:
        if mask < 0:
            raise ValueError("a vertex mask cannot be negative")
        return _BYTE_IDS[mask]
    ids = list(_BYTE_IDS[mask & 255])
    mask = mask >> 8 << 8
    while mask:
        low = mask & -mask
        ids.append(low.bit_length() - 1)
        mask ^= low
    return tuple(ids)


class Graph:
    """Immutable simple graph: vertex ids 0..n-1, per-vertex neighbour bitmasks."""

    __slots__ = ("n", "adj", "m", "_code")

    def __init__(self, n: int, adj: Sequence[VertexSet]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency length must equal vertex count")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"vertex {v} has a neighbour id >= {n}")
            if row >> v & 1:
                raise ValueError(f"vertex {v} is adjacent to itself")
        for v, row in enumerate(adj):
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"adjacency not symmetric at ({v}, {u})")
        _fill(self, n, adj, sum(map(int.bit_count, adj)) // 2, None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]


def _fill(g: Graph, n: int, adj: tuple[VertexSet, ...], m: int, code: int | None) -> None:
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "adj", adj)
    object.__setattr__(g, "m", m)
    object.__setattr__(g, "_code", code)


def as_mask(g: Graph, s: Union[VertexSet, Iterable[int]]) -> VertexSet:
    """Coerce an int mask or an iterable of ids to a validated mask for g."""
    try:
        m = s if isinstance(s, int) else mask_of(s)
    except ValueError:  # 1 << v refuses a negative id
        m = -1
    if m < 0 or m & ~g.full_mask:
        raise ValueError("vertex set contains ids outside 0..n-1")
    return m


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate edges collapse, loops are rejected.

    Each edge sets the rows of both its ends, so the rows are symmetric and
    loop-free as built: Graph's checks are skipped, as in graph_from_code."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside id range 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    g = Graph.__new__(Graph)
    _fill(g, n, tuple(adj), sum(map(int.bit_count, adj)) // 2, None)
    return g


def closed_neighborhood(g: Graph, s: Union[VertexSet, Iterable[int]]) -> VertexSet:
    """N[S] = S together with every neighbour of a member of S."""
    return closed_of(g.adj, as_mask(g, s))


def closed_of(adj: Sequence[VertexSet], mask: VertexSet) -> VertexSet:
    """N[S] for a mask of valid ids, unchecked."""
    out = mask
    while mask:
        low = mask & -mask
        out |= adj[low.bit_length() - 1]
        mask ^= low
    return out


def edges_between(adj: Sequence[VertexSet], a: VertexSet, b: VertexSet) -> int:
    """e(A, B) for disjoint masks of valid ids, unchecked; with b = a it is
    twice the edge count of the subgraph induced on a."""
    total = 0
    while a:
        low = a & -a
        total += (adj[low.bit_length() - 1] & b).bit_count()
        a ^= low
    return total


def components(
    adj: Sequence[VertexSet], alive: VertexSet
) -> list[tuple[VertexSet, int, int]]:
    """The components of the subgraph induced on alive as (vertex mask, edge
    count, top), least vertex first, where top is the component's least
    vertex of maximum degree.  One walk per component visits each vertex
    once, taking the lowest unvisited one, and reads its degree
    |N(u) & alive| once: the degrees sum to twice the component's edge
    count, and a tie for the largest goes to the lower id, since the walk
    does not visit in id order."""
    out = []
    while alive:
        comp = todo = alive & -alive
        degrees = 0
        top = delta = -1
        while todo:
            low = todo & -todo
            todo ^= low
            u = low.bit_length() - 1
            row = adj[u] & alive
            du = row.bit_count()
            degrees += du
            if du >= delta and (du > delta or u < top):
                top, delta = u, du
            row &= ~comp
            comp |= row
            todo |= row
        out.append((comp, degrees // 2, top))
        alive &= ~comp
    return out


def connected(adj: Sequence[VertexSet], alive: VertexSet) -> bool:
    """Whether the subgraph induced on alive is connected; the empty one is."""
    return len(components(adj, alive)) <= 1


def is_connected(g: Graph) -> bool:
    return connected(g.adj, g.full_mask)


def boundary_edge_count(
    g: Graph, a: Union[VertexSet, Iterable[int]], b: Union[VertexSet, Iterable[int]]
) -> int:
    """e(A, B): edges with one end in A and the other in B; A and B must be disjoint."""
    ma = as_mask(g, a)
    mb = as_mask(g, b)
    if ma & mb:
        raise ValueError("boundary_edge_count requires disjoint vertex sets")
    return edges_between(g.adj, ma, mb)


# -- graph6 ------------------------------------------------------------------


# Pair index p of the column-major order x(0,1), x(0,2), x(1,2), x(0,3), ...
# is the pair (_PAIR_I[p], _PAIR_J[p]); the order does not depend on n.
_PAIR_I = bytes(i for j in range(1, GRAPH6_MAX_N) for i in range(j))
_PAIR_J = bytes(j for j in range(1, GRAPH6_MAX_N) for i in range(j))

# graph6 writes a 6-bit group v as the byte v + 63, base64 as _BASE64[v]
_GRAPH6 = bytes(range(63, 127))
_BASE64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_TO_BASE64 = bytes.maketrans(_GRAPH6, _BASE64)
_FROM_BASE64 = bytes.maketrans(_BASE64, _GRAPH6)


def encode_graph6(g: Graph) -> str:
    """graph6 of g; the canonical search in survey writes its pair order under any vertex order.

    A graph built from pair bits (parse_graph6, graph_from_code) kept them,
    and its body is read straight off them; only a graph built from rows
    (Graph(n, adj), from_edge_list) has its rows walked."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"graph6 support is limited to n <= {GRAPH6_MAX_N}")
    nbits = n * (n - 1) // 2
    code = g._code
    if code is None:
        # Row j below the diagonal holds x(0,j), ..., x(j-1,j) from bit 0 up.
        # Shifted to bit j(j-1)/2, the rows sum to the pair bits in reverse.
        lower = [row & ((1 << j) - 1) for j, row in enumerate(g.adj)]
        reverse = sum(map(lshift, lower, accumulate(range(n), initial=0)))
        code = int(format(reverse, "b").zfill(nbits)[::-1], 2)
    # pad to whole 6-bit groups, then to whole 24-bit base64 blocks
    groups = (nbits + 5) // 6
    blocks = (groups + 3) // 4
    raw = (code << (24 * blocks - nbits)).to_bytes(3 * blocks, "big")
    body = b2a_base64(raw, newline=False)[:groups].translate(_FROM_BASE64)
    return chr(n + 63) + body.decode()


def parse_graph6(text: Union[str, bytes]) -> Graph:
    try:
        data = text.encode("ascii") if isinstance(text, str) else bytes(text)
    except UnicodeEncodeError as exc:
        char = exc.object[exc.start]
        raise GraphFormatError(f"non-ASCII character {char!r} in graph6 text") from None
    data = data.strip()
    if data.startswith(b">>graph6<<"):
        data = data[len(b">>graph6<<"):]
    if not data:
        raise GraphFormatError("empty graph6 string")
    if data[0] == 126:  # '~' starts the multi-byte order header
        raise GraphFormatError(f"graph6 orders above {GRAPH6_MAX_N} are not supported")
    n = data[0] - 63
    if not 0 <= n <= GRAPH6_MAX_N:
        raise GraphFormatError(f"bad graph6 order byte {data[0]!r}")
    nbits = n * (n - 1) // 2
    want = 1 + (nbits + 5) // 6
    if len(data) != want:
        raise GraphFormatError(f"graph6 string has {len(data)} bytes, expected {want}")
    body = data[1:]
    if body and (min(body) < 63 or max(body) > 126):
        byte = next(b for b in body if not 63 <= b <= 126)
        raise GraphFormatError(f"graph6 byte {byte!r} outside printable range 63..126")
    fill = -len(body) % 4  # zero groups up to a whole base64 block
    stream = int.from_bytes(a2b_base64(body.translate(_TO_BASE64) + b"A" * fill), "big")
    stream >>= 6 * fill
    pad = 6 * len(body) - nbits
    if stream & ((1 << pad) - 1):
        raise GraphFormatError("graph6 padding bits are not zero")
    return graph_from_code(n, stream >> pad)


def adjacency_from_code(n: int, code: int) -> list[VertexSet]:
    """Rows of the graph whose graph6 pair bits, x(0,1) most significant, are
    code: an unpadded graph6 payload, or a canonical code of survey.  Needs
    n <= GRAPH6_MAX_N and 0 <= code < 2**(n(n-1)/2)."""
    adj = [0] * n
    last = n * (n - 1) // 2 - 1  # bit of the pair (0, 1)
    while code:
        b = code.bit_length() - 1
        p = last - b
        i = _PAIR_I[p]
        j = _PAIR_J[p]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        code ^= 1 << b
    return adj


def graph_from_code(n: int, code: int) -> Graph:
    """The graph whose graph6 pair bits, x(0,1) most significant, are code.

    Each pair bit sets the rows of both its ends, so the rows are symmetric
    and loop-free as built: Graph's checks are skipped, and m is the number
    of pair bits.  The graph keeps code, from which encode_graph6 writes it."""
    if not 0 <= n <= GRAPH6_MAX_N or code < 0 or code >> (n * (n - 1) // 2):
        raise ValueError(f"need 0 <= n <= {GRAPH6_MAX_N} and 0 <= code < 2**(n(n-1)/2)")
    g = Graph.__new__(Graph)
    _fill(g, n, tuple(adjacency_from_code(n, code)), code.bit_count(), code)
    return g


# -- edge-list text format ----------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the "n <count>" header plus one "u v" pair per line; ids may be negative."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.split("\n"), start=1) if ln.strip()]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    lineno, head = lines[0]
    # int() alone would also take "1_0", "+1" and non-ASCII digits
    if len(head) != 2 or head[0] != "n" or not (head[1].isascii() and head[1].isdigit()):
        raise GraphFormatError(
            f'line {lineno}: edge-list input must start with a "n <count>" header'
        )

    def edges():
        nonlocal lineno
        for lineno, parts in lines[1:]:
            if len(parts) != 2:
                raise ValueError("expected 'u v'")
            if not all(p.isascii() and p.removeprefix("-").isdigit() for p in parts):
                raise ValueError("non-integer vertex id")
            yield int(parts[0]), int(parts[1])

    try:
        return from_edge_list(int(head[1]), edges())
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: {exc}") from exc

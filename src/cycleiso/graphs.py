"""Simple undirected graphs on contiguous integer ids, with bitmask vertex sets.

A vertex set is a plain Python int used as a bitmask (bit v set <=> vertex v
in the set).  Neighbourhood algebra -- closed neighbourhoods, deletions,
boundary edge counts -- then runs in a handful of machine-word operations,
which matters because these are the inner loops of exhaustive enumeration
and exact search.  Graphs are immutable after construction and safe to share.

graph6 support is bit-exact: column-major upper triangle x(0,1), x(0,2),
x(1,2), x(0,3), ..., six bits per byte, each byte offset by 63.  Only the
single-byte order header (n <= 62) is supported.  The 6-bit groups are
base64's with another alphabet, so binascii packs and unpacks them.  The
codec and the Graph checks take Python steps per vertex and per edge,
never per vertex pair; what work remains per pair runs inside C (str and
int conversions).  So a sparse graph costs O(n + m) steps, and a dense
one, with about n^2/2 edges, costs about what a per-pair walk did.

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
from typing import Iterable, NoReturn, Sequence, Union

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


def bit_set(mask: VertexSet) -> frozenset[int]:
    """The vertex ids in a mask as a frozenset."""
    return frozenset(bits(mask))


def _reject(n: int, adj: Sequence[VertexSet]) -> NoReturn:
    """Raise the first defect of rows that fail Graph's checks: ids and loops
    over every row first, then the first asymmetric pair in scan order."""
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
    raise AssertionError("rows passed every check")


class Graph:
    """Immutable simple graph: vertex ids 0..n-1, per-vertex neighbour bitmasks."""

    __slots__ = ("n", "adj", "m", "_hash")

    def __init__(self, n: int, adj: Sequence[VertexSet]):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj = tuple(adj)
        if len(adj) != n:
            raise ValueError("adjacency length must equal vertex count")
        # any failed check hands over to _reject, which names the first defect
        if adj and (min(adj) < 0 or max(adj) >> n):
            _reject(n, adj)
        # Each of the m pairs below the diagonal needs its mirror above it.
        # The rows then hold 2m bits in all only if no other bit lies above
        # the diagonal and none on it: no asymmetric pair and no loop.
        m = 0
        for v, row in enumerate(adj):
            row &= (1 << v) - 1
            m += row.bit_count()
            while row:
                u = row.bit_length() - 1
                if not adj[u] >> v & 1:
                    _reject(n, adj)
                row ^= 1 << u
        if 2 * m != sum(map(int.bit_count, adj)):
            _reject(n, adj)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "adj", adj)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "_hash", hash((n, adj)))

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def __delattr__(self, name):
        raise AttributeError("Graph is immutable")

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"

    @property
    def full_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def degrees(self) -> tuple[int, ...]:
        return tuple(row.bit_count() for row in self.adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in bits(self.adj[u]) if u < v]


def as_mask(g: Graph, s: Union[VertexSet, Iterable[int]]) -> VertexSet:
    """Coerce an int mask or an iterable of ids to a validated mask for g."""
    m = s if isinstance(s, int) else mask_of(s)
    if m < 0 or m & ~g.full_mask:
        raise ValueError("vertex set contains ids outside 0..n-1")
    return m


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate edges collapse, loops are rejected."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside id range 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, adj)


def closed_neighborhood(g: Graph, s: Union[VertexSet, Iterable[int]]) -> VertexSet:
    """N[S] = S together with every neighbour of a member of S."""
    m = as_mask(g, s)
    out = m
    for v in bits(m):
        out |= g.adj[v]
    return out


def reach(adj: Sequence[VertexSet], start: VertexSet, alive: VertexSet) -> VertexSet:
    """Vertices of alive joined to the start mask by paths inside alive."""
    comp = frontier = start
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & alive & ~comp
        comp |= frontier
    return comp


def component_masks(g: Graph, within: VertexSet | None = None) -> list[VertexSet]:
    """Vertex masks of the connected components of g (or of g restricted to a mask)."""
    alive = g.full_mask if within is None else as_mask(g, within)
    out = []
    while alive:
        comp = reach(g.adj, alive & -alive, alive)
        out.append(comp)
        alive &= ~comp
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or reach(g.adj, 1, g.full_mask) == g.full_mask


def boundary_edge_count(
    g: Graph, a: Union[VertexSet, Iterable[int]], b: Union[VertexSet, Iterable[int]]
) -> int:
    """e(A, B): edges with one end in A and the other in B; A and B must be disjoint."""
    ma = as_mask(g, a)
    mb = as_mask(g, b)
    if ma & mb:
        raise ValueError("boundary_edge_count requires disjoint vertex sets")
    return sum((g.adj[v] & mb).bit_count() for v in bits(ma))


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
    """graph6 of g; the canonical search in survey writes its pair order under any vertex order."""
    n = g.n
    if n > GRAPH6_MAX_N:
        raise GraphFormatError(f"graph6 support is limited to n <= {GRAPH6_MAX_N}")
    nbits = n * (n - 1) // 2
    # Row j below the diagonal holds x(0,j), ..., x(j-1,j) from bit 0 up.
    # Shifted to bit j(j-1)/2, the rows sum to the pair bits in reverse.
    lower = [row & ((1 << j) - 1) for j, row in enumerate(g.adj)]
    reverse = sum(map(lshift, lower, accumulate(range(n), initial=0)))
    # pad to whole 6-bit groups, then to whole 24-bit base64 blocks
    groups = (nbits + 5) // 6
    blocks = (groups + 3) // 4
    text = format(reverse, "b").zfill(nbits)[::-1] + "0" * (24 * blocks - nbits)
    raw = int(text, 2).to_bytes(3 * blocks, "big")
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
    return Graph(n, adjacency_from_code(n, stream >> pad))


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


# -- edge-list text format ----------------------------------------------------


def parse_edge_list(text: str) -> Graph:
    """Parse the "n <count>" header plus one "u v" pair per line."""
    lines = [(no, ln.split()) for no, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
    if not lines:
        raise GraphFormatError("empty edge-list input")
    headno, head = lines[0]
    if len(head) != 2 or head[0] != "n" or not head[1].isdigit():
        raise GraphFormatError(
            f'line {headno}: edge-list input must start with a "n <count>" header'
        )
    n = int(head[1])
    edges = []
    for lineno, parts in lines[1:]:
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected 'u v'")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(f"line {lineno}: non-integer vertex id") from exc
        edges.append((u, v))
    try:
        return from_edge_list(n, edges)
    except ValueError as exc:
        raise GraphFormatError(str(exc)) from exc

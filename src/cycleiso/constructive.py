"""Constructive 4-cycle isolating sets of size at most (m+1)/6, with a trace.

For any connected graph other than the plain 4-cycle this builds an
isolating set D with |D| <= floor((m+1)/6) by structural recursion:

* tiny bases (no 4-cycle at all, or at most five edges); a piece with
  n - 1 edges is a tree, since pieces are connected, so it settles where
  it is split, with an empty set and no dispatch or 4-cycle search;
* maximum degree 3: pick a working 4-cycle, preferring one whose induced
  span is K4, then the diamond, then a chordless one with the fewest edges
  leaving it, and split on that boundary count;
* maximum degree >= 4: peel the closed neighbourhood of a maximum-degree
  vertex together with the special components (4-cycles, diamonds, family
  members) it cuts off cheaply, then recurse on the remainder.  Each
  special piece H is measured once, for its attachment N(H) ∩ N(v) and
  e(H, N[v]); Subcase 2.2 enters a 4-cycle or diamond H at the least
  neighbour in H of H's least attachment vertex.

Choosing the working cycle extremally up front makes the redirections
between subcases unnecessary: whenever a branch would defer to a subcase
with a smaller boundary, that configuration simply cannot be selected.
Each recursion level additionally keeps the strengthened guarantee that a
graph outside {diamond} + family gets a set of size at most floor(m/6);
the refined equality branches below exist exactly to preserve it.

Each piece of the recursion is one ComponentClass record, a vertex mask of
the input graph with its edge count, dispatch vertex, tag and family
decomposition, so nothing is renumbered.  The set is a VertexSet of the
input graph, and so is every TraceStep's `working` and `increment`; its
`recursed` is a tuple of VertexSet piece masks, and `graphs.bits` lists
any of them as input ids.  The split into pieces is `graphs.components`,
whose one walk per component also counts its edges and finds its least
vertex of maximum degree, the vertex both cases dispatch on; so no piece
is walked a second time, for its edge count or for that vertex.
`_solve_pieces` settles a tree piece as it meets it, with one shared
"base:no-C4" step, and hands every other piece to `_construct`.  Only a
piece whose order and size fit a member's (n = 5t, m = 6t - 1,
recognize's own first test) is handed to `recognize`.  A ":member" label
only marks the case of its branch where every endpoint is its own anchor.
Every branch that recurses glues onto the set it settled, its working set.

The recursion reads only masks it built itself from the input's rows, each
a subset of the piece at hand, so it calls the unchecked kernels
`graphs.closed_of` and `graphs.edges_between` rather than the validating
public helpers; the input graph is checked once, when it is built.

Every step is validated by the fact its soundness rests on, with no
search of the whole piece after dispatch.  A leaf step's increment must
isolate its piece, checked by a 4-cycle search.  A glued step must meet
the gluing hypothesis, and its recursed pieces must cover exactly the
piece minus the working set; each comes from a split of a superset of that
rest, so they are then its components, and sound sets on them extend the
increment to an isolating set of the piece (Borg's gluing argument).  A
"base:no-C4" step is proved by its edge count (a tree, settled in
`_solve_pieces`) or by the probe that found no 4-cycle.  Every level's set
must also meet the size bound.  If a structural step ever fails
validation the level falls back to the exact solver and marks its trace
step "fallback", so the returned set is always sound; the fallback firing
at all signals a fidelity bug in the case analysis and is treated as a
reportable finding.  The fallback search runs under FALLBACK_NODE_BUDGET
nodes on pieces of any order, and raises BudgetExceededError when it runs
out rather than return an unproven set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cycles import all_cycles, find_cycle
from .family import recognize
from .graphs import (
    Graph,
    VertexSet,
    bits,
    closed_of,
    components,
    edges_between,
    mask_of,
)
from .isolation import check_gluing_hypothesis, iota_exact

#: solver nodes the exact fallback may spend on one piece
FALLBACK_NODE_BUDGET = 1_000_000

TRACE_LABELS = frozenset(
    {
        "base:no-C4",
        "base:m<=5",
        "Case 1:K4",
        "Subcase 1.1(i)",
        "Subcase 1.1(ii)",
        "Subcase 1.2.1(i)",
        "Subcase 1.2.1(ii)",
        "Subcase 1.2.1(ii):member",
        "Subcase 1.2.2:G'=C4",
        "Subcase 1.2.2(i)",
        "Subcase 1.2.2(ii)",
        "Subcase 1.2.3:G'=C4",
        "Subcase 1.2.3(i)",
        "Subcase 1.2.3(ii)",
        "Subcase 1.2.4:G'=C4",
        "Subcase 1.2.4(i)",
        "Subcase 1.2.4(ii)",
        "Case 2:e=0",
        "Case 2:no-special",
        "Case 2:star-bridge",
        "Subcase 2.1",
        "Subcase 2.1(i)",
        "Subcase 2.1(i):member",
        "Subcase 2.1(ii)",
        "Subcase 2.2(i)",
        "Subcase 2.2(i):rescue",
        "Subcase 2.2(ii)",
        "fallback",
    }
)


@dataclass(frozen=True)
class TraceStep:
    """One step of the recursion: its case label, its working set and
    increment as vertex masks of the input graph, and the masks of the
    pieces it recurses on, in the order they are solved."""

    label: str
    working: VertexSet
    increment: VertexSet
    recursed: tuple[VertexSet, ...] = ()


@dataclass(frozen=True)
class CaseTrace:
    steps: tuple[TraceStep, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps)

    def used_fallback(self) -> bool:
        return any(s.label == "fallback" for s in self.steps)


def bound_value(m: int) -> Fraction:
    """The target bound (m+1)/6 as an exact rational."""
    if m < 0:
        raise ValueError("edge count must be non-negative")
    return Fraction(m + 1, 6)


class ComponentClass:
    """One connected piece of a graph: a vertex mask of g, its edge count,
    its least vertex of maximum degree (top) and its structural class, tag
    "C4", "diamond", "extremal" (a family member, with its decomposition in
    g's ids) or "other".  Its maker passes m and top in, as
    `graphs.components` gives them, so the piece is not walked again."""

    __slots__ = ("mask", "m", "top", "tag", "decomposition")

    def __init__(self, g: Graph, mask: VertexSet, m: int, top: int):
        self.mask = mask
        self.m = m
        self.top = top
        self.decomposition = None
        n = mask.bit_count()
        # the paw, the other connected graph with n = m = 4, has a top of degree 3
        if n == 4 and m == 4 and (g.adj[top] & mask).bit_count() == 2:
            self.tag = "C4"
        elif n == 4 and m == 5:
            self.tag = "diamond"
        elif n % 5 == 0 and m == 6 * (n // 5) - 1:
            # recognize's own order and size test: only such pieces can be members
            self.decomposition = recognize(g, 4, mask)
            self.tag = "other" if self.decomposition is None else "extremal"
        else:
            self.tag = "other"

    def conn_mask(self) -> VertexSet:
        return self.decomposition.connection_vertices

    def anchor_of(self, w: int) -> int:
        """Connection vertex of the constituent holding w."""
        return self.decomposition.connection_of(w)

    def swap_set(self, w: int) -> VertexSet:
        """{w} plus the connection vertices minus the one anchoring w.

        When w is itself a connection vertex this degenerates to the plain
        connection set.
        """
        return (1 << w) | (self.conn_mask() & ~(1 << self.anchor_of(w)))


class _DispatchError(Exception):
    """A structural branch saw a configuration it believes impossible."""


def _split(g: Graph, alive: VertexSet) -> list[ComponentClass]:
    """The components of g on alive as piece records, least vertex first."""
    return [ComponentClass(g, comp, m, top) for comp, m, top in components(g.adj, alive)]


def _single_bit(mask: VertexSet) -> int:
    if mask == 0 or mask & (mask - 1):
        raise _DispatchError("expected exactly one vertex")
    return mask.bit_length() - 1


def construct(g: Graph) -> tuple[VertexSet, CaseTrace]:
    """Isolating set of size <= floor((m_i+1)/6) per connected component.

    Components isomorphic to the plain 4-cycle are rejected before any is
    solved: no isolating set of theirs meets the bound.  Raises
    BudgetExceededError when the exact fallback runs out of
    FALLBACK_NODE_BUDGET nodes.
    """
    pieces = _split(g, g.full_mask)
    if any(p.tag == "C4" for p in pieces):
        raise ValueError("excluded graph C4: a component is a plain 4-cycle")
    d, steps = _solve_pieces(g, pieces)
    return d, CaseTrace(tuple(steps))


#: the step of every piece settled with the empty set, trees included
_NO_C4_STEP = TraceStep("base:no-C4", 0, 0)


def _solve_pieces(g: Graph, pieces: list[ComponentClass]) -> tuple[VertexSet, list[TraceStep]]:
    """Solve each piece; the union of their sets and their trace steps.

    A connected piece with n - 1 edges is a tree: it has no cycle, so it
    settles here with the empty set and no recursion."""
    d = 0
    steps: list[TraceStep] = []
    for piece in pieces:
        if piece.m == piece.mask.bit_count() - 1:
            steps.append(_NO_C4_STEP)
            continue
        local, local_steps = _construct(g, piece)
        d |= local
        steps.extend(local_steps)
    return d, steps


def _construct(g: Graph, piece: ComponentClass) -> tuple[VertexSet, list[TraceStep]]:
    """Connected recursion with a size check and exact-solver fallback; each
    step's isolation is checked where `_result` assembles it."""
    try:
        d, steps = _dispatch(g, piece)
        ok = _within_contract(piece, d)
    except (_DispatchError, StopIteration):
        ok = False
    if not ok:
        res = iota_exact(g, 4, FALLBACK_NODE_BUDGET, piece.mask)
        d = res.witness
        steps = [TraceStep("fallback", piece.mask, d)]
    return d, steps


def _isolates(g: Graph, p: VertexSet, d: VertexSet) -> bool:
    alive = p & ~closed_of(g.adj, d)
    return find_cycle(g, 4, alive) is None


def _within_contract(piece: ComponentClass, d: VertexSet) -> bool:
    m = piece.m
    limit = (m + 1) // 6 if piece.tag in ("diamond", "extremal") else m // 6
    return d.bit_count() <= limit


def _result(
    g: Graph,
    p: VertexSet,
    label: str,
    working: VertexSet,
    direct: VertexSet,
    recursed: list[ComponentClass] | None = None,
) -> tuple[VertexSet, list[TraceStep]]:
    """Assemble a branch result on piece p: direct part plus recursion on
    components.  A leaf's direct part must isolate p.  A branch that recurses
    glues onto its working set, so (working, direct) must meet the gluing
    hypothesis and the recursed pieces must cover exactly p - working."""
    if recursed is None:
        if not _isolates(g, p, direct):
            raise _DispatchError("a leaf increment leaves a 4-cycle in its piece")
        recursed = []
    else:
        if not check_gluing_hypothesis(g, working, direct, 4, p):
            raise _DispatchError("gluing hypothesis violated in a structural branch")
        cover = 0
        for c in recursed:
            cover |= c.mask
        if cover != p & ~working:
            raise _DispatchError("recursed pieces do not cover the piece outside the working set")
    d, sub_steps = _solve_pieces(g, recursed)
    head = TraceStep(label, working, direct, tuple(c.mask for c in recursed))
    return direct | d, [head] + sub_steps


def _dispatch(g: Graph, piece: ComponentClass) -> tuple[VertexSet, list[TraceStep]]:
    p = piece.mask
    # the probe's own search proves the empty set isolates p
    if find_cycle(g, 4, p) is None:
        return 0, [_NO_C4_STEP]
    adj = g.adj
    if piece.m <= 5:
        # connected, has a 4-cycle, not the plain C4: diamond or C4-plus-pendant
        want = 3 if p.bit_count() == 4 else 1
        d = 1 << next(v for v in bits(p) if (adj[v] & p).bit_count() == want)
        return _result(g, p, "base:m<=5", p, d)
    # the least vertex of maximum degree, found by the split that made the
    # piece; sets and traces depend on the tie-break
    v = piece.top
    delta = (adj[v] & p).bit_count()
    if delta == 3:
        return _case1(g, p)
    return _case2(g, piece, v, delta)


# -- maximum degree 3 ----------------------------------------------------------


def _case1(g: Graph, p: VertexSet) -> tuple[VertexSet, list[TraceStep]]:
    adj = g.adj
    spans = []
    for cyc in all_cycles(g, 4, p):
        mask = mask_of(cyc)
        spans.append((cyc, mask, edges_between(adj, mask, mask) // 2))
    for cyc, mask, se in spans:
        if se == 6:
            if mask != p:
                raise _DispatchError("K4 span inside a larger graph at maximum degree 3")
            return _result(g, p, "Case 1:K4", mask, p & -p)
    diamonds = [s for s in spans if s[2] == 5]
    if diamonds:
        cyc, mask, _ = min(diamonds, key=lambda s: tuple(sorted(s[0])))
        return _subcase_1_1(g, p, mask)
    # with no K4 or diamond span a vertex set holds one 4-cycle, so keys are unique
    e, _, cyc, mask = min(
        (edges_between(adj, m, p & ~m), sorted(c), c, m) for c, m, _ in spans
    )
    carriers = sorted(u for u in cyc if adj[u] & p & ~mask)
    if len(carriers) != e:  # maximum degree 3 allows one external edge per vertex
        raise _DispatchError("carrier count does not match the boundary")
    if e == 1:
        return _sub_1_2_1(g, p, mask, carriers[0])
    if 2 <= e <= 4:
        return _sub_1_2_234(g, p, cyc, mask, carriers, e)
    raise _DispatchError(f"chordless working cycle with boundary {e}")


def _subcase_1_1(g: Graph, p: VertexSet, wmask: VertexSet) -> tuple[VertexSet, list[TraceStep]]:
    w = bits(wmask)
    low = [v for v in w if (g.adj[v] & wmask).bit_count() == 2]
    high = [v for v in w if (g.adj[v] & wmask).bit_count() == 3]
    if len(low) != 2 or len(high) != 2:
        raise _DispatchError("diamond span without the 2+2 degree split")
    rest = p & ~wmask
    carriers = sorted(u for u in low if g.adj[u] & rest)
    e = sum((g.adj[u] & rest).bit_count() for u in low)
    if not 1 <= e <= 2 or len(carriers) != e:
        raise _DispatchError("diamond span boundary outside 1..2")
    comps = _split(g, rest)

    if any(c.tag == "C4" for c in comps):
        if len(comps) == 1:
            return _result(g, p, "Subcase 1.1(i)", wmask, 1 << carriers[0])
        if len(comps) == 2 and all(c.tag == "C4" for c in comps):
            return _result(g, p, "Subcase 1.1(i)", wmask, mask_of(carriers))
        if len(comps) == 2:
            ha = next(c for c in comps if c.tag == "C4")
            hb = next(c for c in comps if c.tag != "C4")
            ux = next(u for u in carriers if g.adj[u] & ha.mask)
            return _result(
                g,
                p,
                "Subcase 1.1(i)",
                wmask | ha.mask,
                1 << ux,
                recursed=[hb],
            )
        raise _DispatchError("more than two components off a diamond span")

    if len(comps) == e and all(c.tag in ("diamond", "extremal") for c in comps):
        if e == 1:
            h = comps[0]
            wv = _single_bit(g.adj[carriers[0]] & h.mask)
            d = (1 << wv) if h.tag == "diamond" else h.swap_set(wv)
            return _result(g, p, "Subcase 1.1(ii)", wmask | h.mask, d)
        ha = next(c for c in comps if g.adj[carriers[0]] & c.mask)
        hb = next(c for c in comps if c is not ha)
        wa = _single_bit(g.adj[carriers[0]] & ha.mask)
        wb = _single_bit(g.adj[carriers[1]] & hb.mask)
        if ha.tag == "diamond" and hb.tag == "diamond":
            d = (1 << wa) | (1 << wb)
        elif ha.tag == "diamond":
            d = (1 << wa) | hb.conn_mask()
        elif hb.tag == "diamond":
            d = (1 << wb) | ha.conn_mask()
        else:
            d = ha.swap_set(wa) | hb.conn_mask()
        return _result(g, p, "Subcase 1.1(ii)", p, d)

    return _result(g, p, "Subcase 1.1(ii)", wmask, 1 << high[0], recursed=comps)


def _sub_1_2_1(
    g: Graph, p: VertexSet, wmask: VertexSet, u1: int
) -> tuple[VertexSet, list[TraceStep]]:
    v = _single_bit(g.adj[u1] & p & ~wmask)
    smask = wmask | (1 << v)
    comps = _split(g, p & ~smask)
    if not comps:
        raise _DispatchError("pendant-cycle base should have been handled earlier")
    ep = (g.adj[v] & p & ~smask).bit_count()
    if not 1 <= ep <= 2:
        raise _DispatchError("pendant vertex boundary outside 1..2")

    c4s = [c for c in comps if c.tag == "C4"]
    if c4s:
        if len(c4s) == len(comps):
            return _result(g, p, "Subcase 1.2.1(i)", smask, 1 << v)
        if len(comps) == 2 and len(c4s) == 1:
            ha = c4s[0]
            hb = next(c for c in comps if c is not ha)
            return _result(
                g,
                p,
                "Subcase 1.2.1(i)",
                smask | ha.mask,
                1 << v,
                recursed=[hb],
            )
        raise _DispatchError("unexpected component layout around a pendant cycle")

    if any(c.tag == "diamond" for c in comps):
        raise _DispatchError("diamond component despite no diamond span being chosen")

    if len(comps) == ep and all(c.tag == "extremal" for c in comps):
        d = 1 << v
        member = True
        for c in comps:
            wv = _single_bit(g.adj[v] & c.mask)
            d |= c.conn_mask()
            if wv != c.anchor_of(wv):
                # v already covers wv, so the anchor of wv is dropped
                d &= ~(1 << c.anchor_of(wv))
                member = False
        label = "Subcase 1.2.1(ii):member" if member else "Subcase 1.2.1(ii)"
        return _result(g, p, label, p, d)

    return _result(g, p, "Subcase 1.2.1(ii)", smask, 1 << u1, recursed=comps)


def _sub_1_2_234(
    g: Graph,
    p: VertexSet,
    cyc: tuple[int, ...],
    wmask: VertexSet,
    carriers: list[int],
    e: int,
) -> tuple[VertexSet, list[TraceStep]]:
    tag = f"Subcase 1.2.{e}"
    comps = _split(g, p & ~wmask)

    if any(c.tag == "C4" for c in comps):
        # with the minimal working cycle a 4-cycle component must take the
        # whole boundary, i.e. the residual graph is that single 4-cycle
        if len(comps) != 1 or comps[0].tag != "C4":
            raise _DispatchError("4-cycle component with a smaller boundary than the working cycle")
        if e == 4:
            ux = carriers[0]
            w1 = min(bits(g.adj[ux] & comps[0].mask))
            return _result(g, p, f"{tag}:G'=C4", wmask, (1 << ux) | (1 << w1))
        return _result(g, p, f"{tag}:G'=C4", wmask, 1 << carriers[0])

    if any(c.tag == "diamond" for c in comps):
        raise _DispatchError("diamond component despite no diamond span being chosen")

    extremals = [c for c in comps if c.tag == "extremal"]
    if extremals:
        if len(comps) == 1:
            h = comps[0]
            if e == 2:
                w1 = min(bits(g.adj[carriers[0]] & h.mask))
                return _result(g, p, f"{tag}(i)", p, h.swap_set(w1))
            d = (1 << carriers[0]) | h.conn_mask()
            return _result(g, p, f"{tag}(i)", p, d)
        if len(comps) != 2:
            raise _DispatchError("boundary split cannot host a family component")
        # a family component attached by fewer edges would expose one of its
        # cycles with a smaller boundary than the minimal working cycle
        h1 = next(
            (c for c in extremals if edges_between(g.adj, c.mask, wmask) == e - 1),
            None,
        )
        if h1 is None:
            raise _DispatchError("family component attached too loosely for the minimal cycle")
        h2 = next(c for c in comps if c is not h1)
        ux = next(u for u in carriers if g.adj[u] & h1.mask)
        if e == 4:
            d_s = (1 << ux) | h1.conn_mask()
        else:
            w1 = min(bits(g.adj[ux] & h1.mask))
            d_s = h1.swap_set(w1)
        return _result(g, p, f"{tag}(i)", wmask | h1.mask, d_s, recursed=[h2])

    if e == 4:
        ui = cyc[0]
    else:
        ui = min(u for i, u in enumerate(cyc) if cyc[(i + 2) % 4] not in carriers)
    return _result(g, p, f"{tag}(ii)", wmask, 1 << ui, recursed=comps)


# -- maximum degree >= 4 -------------------------------------------------------


def _case2(
    g: Graph, piece: ComponentClass, v: int, delta: int
) -> tuple[VertexSet, list[TraceStep]]:
    p = piece.mask
    adj = g.adj
    nv_closed = (adj[v] & p) | (1 << v)
    rest = p & ~nv_closed
    if rest == 0:
        return _result(g, p, "Case 2:e=0", nv_closed, 1 << v)
    comps = _split(g, rest)
    specials = [c for c in comps if c.tag != "other"]
    others = [c for c in comps if c.tag == "other"]

    if not specials:
        # only the star-bridge test, at delta = 4, reads e(N[v], rest) and N[v]'s inner edges
        if (
            delta == 4
            and edges_between(adj, nv_closed, rest) == 1
            and edges_between(adj, nv_closed, nv_closed) // 2 == 4
        ):
            return _result(g, p, "Case 2:star-bridge", nv_closed, 0, recursed=others)
        return _result(g, p, "Case 2:no-special", nv_closed, 1 << v, recursed=others)

    # each special piece H measured once: its attachment N(H) ∩ P - H and
    # e(H, N[v]); H is a component of P - N[v] inside the connected piece P,
    # so its attachment lies in N(v) and is never empty
    measured = [
        (c, closed_of(adj, c.mask) & p & ~c.mask, edges_between(adj, c.mask, nv_closed))
        for c in specials
    ]
    # H* is the first that qualifies: pieces come least vertex first
    for _, attachment, e in measured:
        if attachment.bit_count() == 1 or e <= 2:
            return _subcase_2_1(g, p, v, measured, attachment)
    return _subcase_2_2(g, piece, v, delta, nv_closed, measured, others)


def _subcase_2_1(
    g: Graph,
    p: VertexSet,
    v: int,
    measured: list[tuple[ComponentClass, VertexSet, int]],
    hstar_attachment: VertexSet,
) -> tuple[VertexSet, list[TraceStep]]:
    low = hstar_attachment & -hstar_attachment
    v1 = low.bit_length() - 1
    picked = [
        (c, e)
        for c, attachment, e in measured
        if attachment == low or (attachment & low and e <= 2)
    ]
    smask = 1 << v1
    for c, _ in picked:
        smask |= c.mask
    outside = p & ~smask
    pieces = _split(g, outside)
    gv = next(c for c in pieces if c.mask >> v & 1)
    others = [c for c in pieces if c is not gv]

    c1 = sum(1 for c, _ in picked if c.tag == "C4")
    c2 = sum(1 for c, _ in picked if c.tag == "diamond")
    h3 = [c for c, _ in picked if c.tag == "extremal"]
    all_single = all(e == 1 for _, e in picked)
    e_v1_out = (g.adj[v1] & outside).bit_count()
    conns = 0
    for c in h3:
        conns |= c.conn_mask()

    if (
        c1 == 1
        and c2 == 0
        and not others
        and e_v1_out == 1
        and all_single
    ):
        if gv.tag == "diamond":
            return _result(g, p, "Subcase 2.1(i)", smask, 1 << v1 | conns)
        if gv.tag == "extremal":
            # gv first, then h3 in vertex order: the order _split yields them
            endpoints = [(gv, _single_bit(g.adj[v1] & outside))]
            endpoints += [(c, _single_bit(g.adj[v1] & c.mask)) for c in h3]
            stray = [(c, w) for c, w in endpoints if w != c.anchor_of(w)]
            d = 1 << v1 | gv.conn_mask() | conns
            if stray:
                # v1 already covers the first stray endpoint, so its anchor is dropped
                c, w = stray[0]
                d &= ~(1 << c.anchor_of(w))
            label = "Subcase 2.1(i)" if stray else "Subcase 2.1(i):member"
            return _result(g, p, label, smask, d)

    recursed = [gv] + others
    if c1 == 0 and c2 == 0:
        d_s = 0
        for c in h3:
            u_h = min(bits(g.adj[v1] & c.mask))
            d_s |= c.swap_set(u_h)
        return _result(g, p, "Subcase 2.1(ii)", smask, d_s, recursed=recursed)
    return _result(g, p, "Subcase 2.1", smask, 1 << v1 | conns, recursed=recursed)


def _subcase_2_2(
    g: Graph,
    piece: ComponentClass,
    v: int,
    delta: int,
    nv_closed: VertexSet,
    measured: list[tuple[ComponentClass, VertexSet, int]],
    others: list[ComponentClass],
) -> tuple[VertexSet, list[TraceStep]]:
    p = piece.mask
    nv_open = nv_closed & ~(1 << v)
    smask = nv_closed
    d_s = 1 << v
    for c, attachment, _ in measured:
        smask |= c.mask
        if c.tag in ("C4", "diamond"):
            # the entry vertex: the least neighbour in H of H's least attachment vertex
            a = (attachment & -attachment).bit_length() - 1
            hit = g.adj[a] & c.mask
            d_s |= hit & -hit
        else:
            d_s |= c.conn_mask()

    if not others:
        if delta == 4 and [c.tag for c, _, _ in measured] == ["C4"] and piece.m == 11:
            hstar = measured[0][0].mask

            def bridges(x: int) -> int:
                hood = (g.adj[x] & hstar) | (1 << x)
                return edges_between(g.adj, hood, nv_open)

            best_u = max(bits(hstar), key=bridges)
            if bridges(best_u) < 2:
                raise _DispatchError("no cycle vertex sees two bridge edges")
            return _result(g, p, "Subcase 2.2(i):rescue", smask, 1 << best_u)
        return _result(g, p, "Subcase 2.2(i)", smask, d_s)

    return _result(g, p, "Subcase 2.2(ii)", smask, d_s, recursed=others)

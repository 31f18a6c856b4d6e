"""Constructive 4-cycle isolating sets of size at most (m+1)/6, with a trace.

For any connected graph other than the plain 4-cycle this builds an
isolating set D with |D| <= floor((m+1)/6) by structural recursion:

* tiny bases (no 4-cycle at all, or at most five edges);
* maximum degree 3: pick a working 4-cycle, preferring one whose induced
  span is K4, then the diamond, then a chordless one with the fewest edges
  leaving it, and split on that boundary count;
* maximum degree >= 4: peel the closed neighbourhood of a maximum-degree
  vertex together with the special components (4-cycles, diamonds, family
  members) it cuts off cheaply, then recurse on the remainder.

Choosing the working cycle extremally up front makes the redirections
between subcases unnecessary: whenever a branch would defer to a subcase
with a smaller boundary, that configuration simply cannot be selected.
Each recursion level additionally keeps the strengthened guarantee that a
graph outside {diamond} + family gets a set of size at most floor(m/6);
the refined equality branches below exist exactly to preserve it.

Every level is validated (the set isolates, the size bound holds).  If a
structural step ever fails validation the level falls back to the exact
solver and marks its trace step "fallback", so the returned set is always
sound; the fallback firing at all signals a fidelity bug in the case
analysis and is treated as a reportable finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .cycles import all_cycles, find_cycle
from .family import ConsDecomposition, recognize
from .graphs import (
    Graph,
    VertexSet,
    bits,
    boundary_edge_count,
    closed_neighborhood,
    component_masks,
    induced_subgraph,
    is_connected,
    mask_of,
    vertices_of,
)
from .isolation import check_gluing_hypothesis, iota_exact

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
    label: str
    working: tuple[int, ...]
    increment: tuple[int, ...]
    recursed: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class CaseTrace:
    steps: tuple[TraceStep, ...]

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.steps)

    def used_fallback(self) -> bool:
        return any(s.label == "fallback" for s in self.steps)

    def increments_union(self) -> VertexSet:
        out = 0
        for s in self.steps:
            out |= mask_of(s.increment)
        return out


@dataclass(frozen=True)
class ComponentClass:
    """Structural class of a connected graph: C4, diamond, family member, other."""

    tag: str  # "C4" | "diamond" | "extremal" | "other"
    decomposition: Optional[ConsDecomposition] = None


def bound_value(m: int) -> Fraction:
    """The target bound (m+1)/6 as an exact rational."""
    if m < 0:
        raise ValueError("edge count must be non-negative")
    return Fraction(m + 1, 6)


def is_c4_graph(g: Graph) -> bool:
    return g.n == 4 and g.m == 4 and all(d == 2 for d in g.degrees())


def is_diamond(g: Graph) -> bool:
    return g.n == 4 and g.m == 5


def classify_component(h: Graph) -> ComponentClass:
    if not is_connected(h):
        raise ValueError("classification requires a connected graph")
    if is_c4_graph(h):
        return ComponentClass("C4")
    if is_diamond(h):
        return ComponentClass("diamond")
    decomp = recognize(h, 4)
    if decomp is not None:
        return ComponentClass("extremal", decomp)
    return ComponentClass("other")


class _DispatchError(Exception):
    """A structural branch saw a configuration it believes impossible."""


class _Comp:
    """One connected component of a residual graph, with its classification."""

    __slots__ = ("mask", "sub", "emb", "cls", "_index")

    def __init__(self, g: Graph, mask: VertexSet):
        self.mask = mask
        self.sub, self.emb = induced_subgraph(g, mask)
        self.cls = classify_component(self.sub)
        self._index = {v: i for i, v in enumerate(self.emb)}

    @property
    def tag(self) -> str:
        return self.cls.tag

    def conn_mask(self) -> VertexSet:
        d = self.cls.decomposition
        return mask_of(self.emb[i] for i in bits(d.connection_vertices))

    def anchor_of(self, parent_vertex: int) -> int:
        """Connection vertex (parent ids) of the constituent holding parent_vertex."""
        d = self.cls.decomposition
        return self.emb[d.connection_of(self._index[parent_vertex])]

    def swap_set(self, w: int) -> VertexSet:
        """{w} plus the connection vertices minus the one anchoring w.

        When w is itself a connection vertex this degenerates to the plain
        connection set.
        """
        return (1 << w) | (self.conn_mask() & ~(1 << self.anchor_of(w)))


def _split(g: Graph, removed: VertexSet) -> list[_Comp]:
    return [_Comp(g, m) for m in component_masks(g, g.full_mask & ~removed)]


def _single_bit(mask: VertexSet) -> int:
    if mask == 0 or mask & (mask - 1):
        raise _DispatchError("expected exactly one vertex")
    return mask.bit_length() - 1


def construct(g: Graph) -> tuple[VertexSet, CaseTrace]:
    """Isolating set of size <= floor((m_i+1)/6) per connected component.

    Components isomorphic to the plain 4-cycle are rejected: no isolating
    set of theirs meets the bound.
    """
    steps: list[TraceStep] = []
    out = 0
    for mask in component_masks(g):
        sub, emb = induced_subgraph(g, mask)
        if is_c4_graph(sub):
            raise ValueError("excluded graph C4: a component is a plain 4-cycle")
        local, local_steps = _construct(sub)
        for i in bits(local):
            out |= 1 << emb[i]
        steps.extend(_lift(s, emb) for s in local_steps)
    return out, CaseTrace(tuple(steps))


def _lift(step: TraceStep, emb: tuple[int, ...]) -> TraceStep:
    return TraceStep(
        label=step.label,
        working=tuple(emb[i] for i in step.working),
        increment=tuple(emb[i] for i in step.increment),
        recursed=tuple(tuple(emb[i] for i in piece) for piece in step.recursed),
    )


def _construct(g: Graph) -> tuple[VertexSet, list[TraceStep]]:
    """Connected recursion with validation and exact-solver fallback."""
    try:
        d, steps = _dispatch(g)
        ok = _isolates(g, d) and _within_contract(g, d)
    except (_DispatchError, StopIteration):
        ok = False
    if not ok:
        res = iota_exact(g, 4)
        d = res.witness
        steps = [
            TraceStep(
                label="fallback",
                working=vertices_of(g.full_mask),
                increment=vertices_of(d),
            )
        ]
    return d, steps


def _isolates(g: Graph, d: VertexSet) -> bool:
    alive = g.full_mask & ~closed_neighborhood(g, d)
    return find_cycle(g, 4, alive) is None


def _within_contract(g: Graph, d: VertexSet) -> bool:
    m = g.m
    special = is_diamond(g) or recognize(g, 4) is not None
    limit = (m + 1) // 6 if special else m // 6
    return d.bit_count() <= limit


def _result(
    g: Graph,
    label: str,
    working: VertexSet,
    direct: VertexSet,
    recursed: list[_Comp] | None = None,
    lemma_s: VertexSet | None = None,
) -> tuple[VertexSet, list[TraceStep]]:
    """Assemble a branch result: direct part plus recursion on components."""
    recursed = recursed or []
    if lemma_s is not None and not check_gluing_hypothesis(g, lemma_s, direct, 4):
        raise _DispatchError("gluing hypothesis violated in a structural branch")
    d = direct
    sub_steps: list[TraceStep] = []
    pieces = []
    for comp in recursed:
        local, local_steps = _construct(comp.sub)
        for i in bits(local):
            d |= 1 << comp.emb[i]
        sub_steps.extend(_lift(s, comp.emb) for s in local_steps)
        pieces.append(comp.emb)
    head = TraceStep(
        label=label,
        working=vertices_of(working),
        increment=vertices_of(direct),
        recursed=tuple(pieces),
    )
    return d, [head] + sub_steps


def _dispatch(g: Graph) -> tuple[VertexSet, list[TraceStep]]:
    if find_cycle(g, 4) is None:
        return _result(g, "base:no-C4", 0, 0)
    m = g.m
    if m <= 5:
        # connected, has a 4-cycle, not the plain C4: diamond or C4-plus-pendant
        if g.n == 4:
            d = 1 << min(v for v in range(4) if g.degree(v) == 3)
        else:
            d = 1 << min(v for v in range(g.n) if g.degree(v) == 1)
        return _result(g, "base:m<=5", g.full_mask, d)
    if g.max_degree == 3:
        return _case1(g)
    return _case2(g)


# -- maximum degree 3 ----------------------------------------------------------


def _span_edges(g: Graph, mask: VertexSet) -> int:
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def _case1(g: Graph) -> tuple[VertexSet, list[TraceStep]]:
    cycles = all_cycles(g, 4)
    spans = [(cyc, mask_of(cyc), _span_edges(g, mask_of(cyc))) for cyc in cycles]
    for cyc, mask, se in spans:
        if se == 6:
            if g.n != 4 or g.m != 6:
                raise _DispatchError("K4 span inside a larger graph at maximum degree 3")
            return _result(g, "Case 1:K4", mask, 1)
    diamonds = [s for s in spans if s[2] == 5]
    if diamonds:
        cyc, mask, _ = min(diamonds, key=lambda s: tuple(sorted(s[0])))
        return _subcase_1_1(g, mask)
    ranked = sorted(
        spans,
        key=lambda s: (boundary_edge_count(g, s[1], g.full_mask & ~s[1]), tuple(sorted(s[0]))),
    )
    cyc, mask, _ = ranked[0]
    e = boundary_edge_count(g, mask, g.full_mask & ~mask)
    return _subcase_1_2(g, cyc, mask, e)


def _subcase_1_1(g: Graph, wmask: VertexSet) -> tuple[VertexSet, list[TraceStep]]:
    w = vertices_of(wmask)
    low = [v for v in w if (g.adj[v] & wmask).bit_count() == 2]
    high = [v for v in w if (g.adj[v] & wmask).bit_count() == 3]
    if len(low) != 2 or len(high) != 2:
        raise _DispatchError("diamond span without the 2+2 degree split")
    carriers = sorted(u for u in low if g.adj[u] & ~wmask)
    e = sum((g.adj[u] & ~wmask).bit_count() for u in low)
    if not 1 <= e <= 2 or len(carriers) != e:
        raise _DispatchError("diamond span boundary outside 1..2")
    comps = _split(g, wmask)

    if any(c.tag == "C4" for c in comps):
        if len(comps) == 1:
            return _result(g, "Subcase 1.1(i)", wmask, 1 << carriers[0])
        if len(comps) == 2 and all(c.tag == "C4" for c in comps):
            return _result(g, "Subcase 1.1(i)", wmask, mask_of(carriers))
        if len(comps) == 2:
            ha = next(c for c in comps if c.tag == "C4")
            hb = next(c for c in comps if c.tag != "C4")
            ux = next(u for u in carriers if g.adj[u] & ha.mask)
            return _result(
                g,
                "Subcase 1.1(i)",
                wmask | ha.mask,
                1 << ux,
                recursed=[hb],
                lemma_s=wmask | ha.mask,
            )
        raise _DispatchError("more than two components off a diamond span")

    if len(comps) == e and all(c.tag in ("diamond", "extremal") for c in comps):
        if e == 1:
            h = comps[0]
            wv = _single_bit(g.adj[carriers[0]] & h.mask)
            d = (1 << wv) if h.tag == "diamond" else h.swap_set(wv)
            return _result(g, "Subcase 1.1(ii)", wmask | h.mask, d)
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
        return _result(g, "Subcase 1.1(ii)", g.full_mask, d)

    return _result(
        g, "Subcase 1.1(ii)", wmask, 1 << high[0], recursed=comps, lemma_s=wmask
    )


def _subcase_1_2(
    g: Graph, cyc: tuple[int, ...], wmask: VertexSet, e: int
) -> tuple[VertexSet, list[TraceStep]]:
    carriers = sorted(u for u in cyc if g.adj[u] & ~wmask)
    if len(carriers) != e:  # maximum degree 3 allows one external edge per vertex
        raise _DispatchError("carrier count does not match the boundary")
    if e == 1:
        return _sub_1_2_1(g, cyc, wmask, carriers[0])
    if 2 <= e <= 4:
        return _sub_1_2_234(g, cyc, wmask, carriers, e)
    raise _DispatchError(f"chordless working cycle with boundary {e}")


def _sub_1_2_1(
    g: Graph, cyc: tuple[int, ...], wmask: VertexSet, u1: int
) -> tuple[VertexSet, list[TraceStep]]:
    v = _single_bit(g.adj[u1] & ~wmask)
    smask = wmask | (1 << v)
    comps = _split(g, smask)
    if not comps:
        raise _DispatchError("pendant-cycle base should have been handled earlier")
    ep = (g.adj[v] & ~smask).bit_count()
    if not 1 <= ep <= 2:
        raise _DispatchError("pendant vertex boundary outside 1..2")

    c4s = [c for c in comps if c.tag == "C4"]
    if c4s:
        if len(c4s) == len(comps):
            return _result(g, "Subcase 1.2.1(i)", smask, 1 << v)
        if len(comps) == 2 and len(c4s) == 1:
            ha = c4s[0]
            hb = next(c for c in comps if c is not ha)
            return _result(
                g,
                "Subcase 1.2.1(i)",
                smask | ha.mask,
                1 << v,
                recursed=[hb],
                lemma_s=smask | ha.mask,
            )
        raise _DispatchError("unexpected component layout around a pendant cycle")

    if any(c.tag == "diamond" for c in comps):
        raise _DispatchError("diamond component despite no diamond span being chosen")

    if len(comps) == ep and all(c.tag == "extremal" for c in comps):
        endpoints = [(c, _single_bit(g.adj[v] & c.mask)) for c in comps]
        if all(wv == c.anchor_of(wv) for c, wv in endpoints):
            d = 1 << v
            for c, _ in endpoints:
                d |= c.conn_mask()
            return _result(g, "Subcase 1.2.1(ii):member", g.full_mask, d)
        d = 1 << v
        for c, wv in endpoints:
            if wv == c.anchor_of(wv):
                d |= c.conn_mask()
            else:
                d |= c.conn_mask() & ~(1 << c.anchor_of(wv))
        return _result(g, "Subcase 1.2.1(ii)", g.full_mask, d)

    return _result(
        g, "Subcase 1.2.1(ii)", smask, 1 << u1, recursed=comps, lemma_s=smask
    )


def _sub_1_2_234(
    g: Graph,
    cyc: tuple[int, ...],
    wmask: VertexSet,
    carriers: list[int],
    e: int,
) -> tuple[VertexSet, list[TraceStep]]:
    tag = f"Subcase 1.2.{e}"
    comps = _split(g, wmask)

    if any(c.tag == "C4" for c in comps):
        # with the minimal working cycle a 4-cycle component must take the
        # whole boundary, i.e. the residual graph is that single 4-cycle
        if len(comps) != 1 or comps[0].tag != "C4":
            raise _DispatchError("4-cycle component with a smaller boundary than the working cycle")
        if e == 4:
            ux = carriers[0]
            w1 = min(bits(g.adj[ux] & comps[0].mask))
            return _result(g, f"{tag}:G'=C4", wmask, (1 << ux) | (1 << w1))
        return _result(g, f"{tag}:G'=C4", wmask, 1 << carriers[0])

    if any(c.tag == "diamond" for c in comps):
        raise _DispatchError("diamond component despite no diamond span being chosen")

    extremals = [c for c in comps if c.tag == "extremal"]
    if extremals:
        if len(comps) == 1:
            h = comps[0]
            if e == 2:
                w1 = min(bits(g.adj[carriers[0]] & h.mask))
                return _result(g, f"{tag}(i)", g.full_mask, h.swap_set(w1))
            d = (1 << carriers[0]) | h.conn_mask()
            return _result(g, f"{tag}(i)", g.full_mask, d)
        if len(comps) != 2:
            raise _DispatchError("boundary split cannot host a family component")
        # a family component attached by fewer edges would expose one of its
        # cycles with a smaller boundary than the minimal working cycle
        h1 = next(
            (c for c in extremals if boundary_edge_count(g, c.mask, wmask) == e - 1),
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
        return _result(
            g, f"{tag}(i)", wmask | h1.mask, d_s, recursed=[h2], lemma_s=wmask | h1.mask
        )

    if e == 4:
        ui = cyc[0]
    else:
        ui = min(u for i, u in enumerate(cyc) if cyc[(i + 2) % 4] not in carriers)
    return _result(g, f"{tag}(ii)", wmask, 1 << ui, recursed=comps, lemma_s=wmask)


# -- maximum degree >= 4 -------------------------------------------------------


def _case2(g: Graph) -> tuple[VertexSet, list[TraceStep]]:
    delta = g.max_degree
    v = next(u for u in range(g.n) if g.degree(u) == delta)
    nv_closed = g.closed_adj(v)
    rest = g.full_mask & ~nv_closed
    if rest == 0:
        return _result(g, "Case 2:e=0", nv_closed, 1 << v)
    comps = _split(g, nv_closed)
    e = boundary_edge_count(g, nv_closed, rest)
    specials = [c for c in comps if c.tag != "other"]
    others = [c for c in comps if c.tag == "other"]

    if not specials:
        inner = _span_edges(g, nv_closed)
        if delta == 4 and e == 1 and inner == 4:
            return _result(
                g, "Case 2:star-bridge", nv_closed, 0, recursed=others, lemma_s=nv_closed
            )
        return _result(
            g, "Case 2:no-special", nv_closed, 1 << v, recursed=others, lemma_s=nv_closed
        )

    def n_of(c: _Comp) -> VertexSet:
        out = 0
        for x in bits(c.mask):
            out |= g.adj[x] & ~c.mask
        return out

    def e_of(c: _Comp) -> int:
        return boundary_edge_count(g, c.mask, nv_closed)

    qualifying = [c for c in specials if n_of(c).bit_count() == 1 or e_of(c) <= 2]
    if qualifying:
        return _subcase_2_1(g, v, nv_closed, specials, qualifying, n_of, e_of)
    return _subcase_2_2(g, v, delta, nv_closed, comps, specials, others)


def _subcase_2_1(
    g: Graph,
    v: int,
    nv_closed: VertexSet,
    specials: list[_Comp],
    qualifying: list[_Comp],
    n_of,
    e_of,
) -> tuple[VertexSet, list[TraceStep]]:
    hstar = min(qualifying, key=lambda c: c.emb)
    v1 = min(bits(n_of(hstar)))
    picked = [
        c
        for c in specials
        if n_of(c) == 1 << v1 or ((n_of(c) >> v1 & 1) and e_of(c) <= 2)
    ]
    smask = 1 << v1
    for c in picked:
        smask |= c.mask
    outside = g.full_mask & ~smask
    pieces = component_masks(g, outside)
    gv_mask = next(p for p in pieces if p >> v & 1)
    other_masks = [p for p in pieces if p != gv_mask]

    c1 = sum(1 for c in picked if c.tag == "C4")
    c2 = sum(1 for c in picked if c.tag == "diamond")
    h3 = [c for c in picked if c.tag == "extremal"]
    all_single = all(e_of(c) == 1 for c in picked)
    e_v1_out = (g.adj[v1] & outside).bit_count()

    if (
        c1 == 1
        and c2 == 0
        and not other_masks
        and e_v1_out == 1
        and all_single
    ):
        gv = _Comp(g, gv_mask)
        if gv.tag == "diamond":
            d = 1 << v1
            for c in h3:
                d |= c.conn_mask()
            return _result(g, "Subcase 2.1(i)", smask, d)
        if gv.tag == "extremal":
            u = _single_bit(g.adj[v1] & outside)
            endpoints = [(c, _single_bit(g.adj[v1] & c.mask)) for c in h3]
            if u != gv.anchor_of(u):
                # v1 already covers u, so only the anchor of u is dropped
                d = (1 << v1) | (gv.conn_mask() & ~(1 << gv.anchor_of(u)))
                for c, _ in endpoints:
                    d |= c.conn_mask()
                return _result(g, "Subcase 2.1(i)", smask, d)
            stray = [(c, w) for c, w in endpoints if w != c.anchor_of(w)]
            if stray:
                hs, ws = min(stray, key=lambda cw: cw[0].emb)
                d = (1 << v1) | gv.conn_mask()
                for c, w in endpoints:
                    if c is hs:
                        d |= c.conn_mask() & ~(1 << c.anchor_of(w))
                    else:
                        d |= c.conn_mask()
                return _result(g, "Subcase 2.1(i)", smask, d)
            d = (1 << v1) | gv.conn_mask()
            for c, _ in endpoints:
                d |= c.conn_mask()
            return _result(g, "Subcase 2.1(i):member", smask, d)

    recursed = [_Comp(g, gv_mask)] + [_Comp(g, p) for p in other_masks]
    if c1 == 0 and c2 == 0:
        d_s = 0
        for c in h3:
            u_h = min(bits(g.adj[v1] & c.mask))
            d_s |= c.swap_set(u_h)
        return _result(
            g, "Subcase 2.1(ii)", smask, d_s, recursed=recursed, lemma_s=smask
        )
    d_s = 1 << v1
    for c in h3:
        d_s |= c.conn_mask()
    return _result(g, "Subcase 2.1", smask, d_s, recursed=recursed, lemma_s=smask)


def _subcase_2_2(
    g: Graph,
    v: int,
    delta: int,
    nv_closed: VertexSet,
    comps: list[_Comp],
    specials: list[_Comp],
    others: list[_Comp],
) -> tuple[VertexSet, list[TraceStep]]:
    nv_open = g.adj[v]
    smask = nv_closed
    for c in specials:
        smask |= c.mask

    def entry_vertex(c: _Comp) -> int:
        for a in bits(nv_open):
            hit = g.adj[a] & c.mask
            if hit:
                return min(bits(hit))
        raise _DispatchError("special component not attached to the neighbourhood")

    c1 = sum(1 for c in specials if c.tag == "C4")
    c2 = sum(1 for c in specials if c.tag == "diamond")
    c3 = sum(1 for c in specials if c.tag == "extremal")

    d_s = 1 << v
    for c in specials:
        if c.tag in ("C4", "diamond"):
            d_s |= 1 << entry_vertex(c)
        else:
            d_s |= c.conn_mask()

    if not others:
        if delta == 4 and (c1, c2, c3) == (1, 0, 0) and g.m == 11:
            hstar = next(c for c in specials if c.tag == "C4")
            best_u = None
            best_cnt = -1
            for x in sorted(bits(hstar.mask)):
                hood = (g.adj[x] & hstar.mask) | (1 << x)
                cnt = sum((g.adj[y] & nv_open).bit_count() for y in bits(hood))
                if cnt > best_cnt:
                    best_u, best_cnt = x, cnt
            if best_cnt < 2:
                raise _DispatchError("no cycle vertex sees two bridge edges")
            return _result(g, "Subcase 2.2(i):rescue", smask, 1 << best_u)
        return _result(g, "Subcase 2.2(i)", smask, d_s)

    return _result(g, "Subcase 2.2(ii)", smask, d_s, recursed=others, lemma_s=smask)

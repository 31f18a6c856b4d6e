"""Verification of cycle-isolating sets and exact isolation numbers.

A set D is k-cycle-isolating for G when G - N[D] has no k-cycle subgraph.
The gluing hypothesis on (S, D) is the condition under which D, joined
with any isolating set of G - S, isolates all of G; the constructive
recursion checks it for every part it settles.
The exact solver works per connected component (isolation numbers add over
components), on the component's vertex mask in the input's own ids, and
inside a component runs iterative-deepening search: any isolating set must
meet the closed neighbourhood of every surviving cycle, so branching over
N[V(C)] for one surviving cycle C is sound and complete.
A node's state is (alive set comp - N[chosen], vertices left), and failures
are memoised on the alive set: a failed entry refutes every candidate in
N[V(C)] & comp, whichever branch reached that residual and whichever branch
asks next.  Each search also memoises the first surviving cycle of every
alive set it asks about (or None), so iterative deepening, the packing and
the witness walk run the cycle search once per residual, and every node
names the cycle it branches on.  Before branching, a node packs surviving
cycles greedily: cycles whose candidate sets N[V(C)] are pairwise disjoint
each need their own vertex, so a node with more of them than vertices left
fails at once (the packing argument behind Caro-Hansberg isolation lower
bounds).  A node with one vertex left takes the last pick (`last_pick`):
it tries its candidates in order while keeping `need`, the candidates
common to its own cycle and to the cycle each failed candidate leaves
alive.  A candidate outside `need` leaves a known cycle alive, so it is
refuted without a cycle search; the last slot of the witness walk runs the
same pick over every vertex past the previous one.  A leaf refuted this way
still ticks, so `explored`, the budget stops and the witnesses are those of
a cycle search per leaf.
On the extremal family cons(T, C_k) the packing is tight, so a
tree of t <= 9 vertices costs at most a few dozen nodes.
Among optimal sets the lexicographically least (as a sorted id tuple) is
returned, so outputs are stable enough for golden tests.
A caller that needs only iota (the survey) passes witness=False, and a
component then skips the witness walk where that cannot change the answer:
always without a budget, and under one only on the last component, when
`walk_bound` (a worst-case count of the walk's nodes) fits in the budget
left, so the walk could not have exhausted it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .cycles import CycleWitness, check_length, find_cycle
from .graphs import (
    Graph,
    VertexSet,
    as_mask,
    bits,
    closed_of,
    components,
    edges_between,
)

#: graphs above this order require an explicit node budget
UNBUDGETED_MAX_N = 20


class BudgetExceededError(RuntimeError):
    """Search ran out of nodes; carries the lower bound proven so far and
    the nodes explored."""

    def __init__(self, lower_bound: int, explored: int):
        self.lower_bound = lower_bound
        self.explored = explored
        super().__init__(
            f"node budget exhausted after {explored} nodes "
            f"(bounds: {lower_bound} <= iota <= ?)"
        )


@dataclass(frozen=True)
class IsolationCertificate:
    """Verdict for one candidate set, with the residual components of G - N[D].

    Each residual component is a vertex mask of G.
    """

    k: int
    members: VertexSet
    valid: bool
    residual: tuple[VertexSet, ...]

    @property
    def vertices(self) -> tuple[int, ...]:
        return bits(self.members)


@dataclass(frozen=True)
class ExactResult:
    """iota, a lex-least optimal witness (None when solved with
    witness=False) and the search nodes explored."""

    iota: int
    witness: Optional[VertexSet]
    explored: int

    @property
    def vertices(self) -> tuple[int, ...]:
        if self.witness is None:
            raise ValueError("solved with witness=False: there is no witness to list")
        return bits(self.witness)


def verify(g: Graph, d: Union[VertexSet, Iterable[int]], k: int) -> IsolationCertificate:
    """Certificate stating whether d is a k-cycle-isolating set of g."""
    check_length(k)
    dm = as_mask(g, d)
    alive = g.full_mask & ~closed_of(g.adj, dm)
    residual = tuple(comp for comp, _, _ in components(g.adj, alive))
    valid = find_cycle(g, k, alive) is None
    return IsolationCertificate(k=k, members=dm, valid=valid, residual=residual)


class _Search:
    """Iterative-deepening search for one connected component, in g's ids."""

    def __init__(self, g: Graph, comp: VertexSet, k: int, budget: int | None):
        self.g = g
        self.comp = comp
        self.k = k
        self.budget = budget
        #: closed rows N[v] = adj[v] | v, read without validating masks
        self.rows = [row | 1 << v for v, row in enumerate(g.adj)]
        self.explored = 0
        self.lower = 0  # the size being tried or witnessed
        #: alive set -> the largest vertex count refuted on it
        self.failed: dict[VertexSet, int] = {}
        #: alive set -> its first surviving cycle, or None once it is isolated
        self.cycles: dict[VertexSet, Optional[CycleWitness]] = {}

    def _tick(self) -> None:
        self.explored += 1
        if self.budget is not None and self.explored > self.budget:
            raise BudgetExceededError(self.lower, self.explored)

    def cycle(self, alive: VertexSet) -> Optional[CycleWitness]:
        """find_cycle on the alive set, asked at most once per search."""
        cycles = self.cycles
        if alive not in cycles:
            cycles[alive] = find_cycle(self.g, self.k, alive)
        return cycles[alive]

    def candidates(self, cyc: CycleWitness) -> VertexSet:
        """N[V(C)] & comp: under `within`, a cycle's neighbours outside the
        mask are not candidates."""
        rows = self.rows
        out = 0
        for v in cyc:
            out |= rows[v]
        return out & self.comp

    def feasible(self, alive: VertexSet, remaining: int) -> bool:
        """Can `remaining` more vertices of the component isolate the alive set?"""
        self._tick()
        cyc = self.cycle(alive)
        if cyc is None:
            return True
        if remaining == 0 or self.failed.get(alive, -1) >= remaining:
            return False
        hood = self.candidates(cyc)
        # cycles with pairwise disjoint candidate sets each need their own vertex
        adj = self.g.adj
        rest = alive & ~closed_of(adj, hood)
        packed = 1
        while packed <= remaining and (other := self.cycle(rest)) is not None:
            packed += 1
            rest &= ~closed_of(adj, self.candidates(other))
        if packed <= remaining:
            if remaining == 1:
                if self.last_pick(alive, hood) is not None:
                    return True
            else:
                rows = self.rows
                for v in bits(hood):
                    if self.feasible(alive & ~rows[v], remaining - 1):
                        return True
        self.failed[alive] = remaining
        return False

    def last_pick(self, alive: VertexSet, pool: VertexSet) -> Optional[int]:
        """The least v of pool whose closed row leaves the alive set (which
        holds a cycle) with no cycle, or None.  Each v tried is a leaf and
        ticks once; a v outside `need`, the candidates common to every cycle
        met so far, leaves a known cycle alive and is refuted unsearched."""
        rows = self.rows
        need = self.candidates(self.cycle(alive))
        for v in bits(pool):
            self._tick()
            if need >> v & 1:
                cyc = self.cycle(alive & ~rows[v])
                if cyc is None:
                    return v
                need &= self.candidates(cyc)
        return None

    def solve(self, walk: bool = True) -> tuple[int, Optional[VertexSet]]:
        """iota of the component and its lex-least witness.  With walk=False
        the witness is None wherever the walk could not have run out of
        budget: always without a budget, else when `walk_bound` fits in the
        nodes left."""
        for size in range(self.comp.bit_count() + 1):
            self.lower = size
            if self.feasible(self.comp, size):
                if not walk:
                    if self.budget is None:
                        return size, None
                    spare = self.budget - self.explored
                    if walk_bound(self.comp.bit_count(), size, spare) <= spare:
                        return size, None
                return size, self.lex_min_witness(size)
        raise AssertionError("the full vertex set always isolates")

    def lex_min_witness(self, size: int) -> VertexSet:
        """Lex-least isolating set of `size` = iota vertices: each slot takes
        the least v past the last pick whose residual some `size - slot - 1`
        vertices of any ids isolate.  If the picks so far open the lex-least
        optimal D and some v below D's next member d passed, the picks, v and
        its completion would be an optimal set with more members below d than
        D, so below D in sorted order: hence the walk picks d."""
        if size == 0:
            return 0
        chosen = 0
        alive = self.comp
        lo = 0
        for slot in range(size - 1):
            for v in bits(self.comp >> lo << lo):
                trial = alive & ~self.rows[v]
                if self.feasible(trial, size - slot - 1):
                    chosen |= 1 << v
                    alive = trial
                    lo = v + 1
                    break
            else:
                raise AssertionError("witness reconstruction lost feasibility")
        # size is least, so the picks so far leave a cycle alive
        if self.cycle(alive) is not None:
            last = self.last_pick(alive, self.comp >> lo << lo)
            if last is not None:
                return chosen | 1 << last
        raise AssertionError("witness reconstruction lost feasibility")


def walk_bound(c: int, size: int, cap: int | None = None) -> int:
    """W(c, size), the most nodes `lex_min_witness(size)` ticks on a
    component of c vertices; once the sum passes `cap` it is returned as is.

    T(0) = 1 and T(j) = 1 + c T(j-1) bound a `feasible(., j)` call: it ticks
    once, then returns, or at j = 1 takes a last pick of at most c leaves,
    or calls at most c children with j - 1.  Each of the size - 1 slots
    tries at most c vertices, one `feasible(., j)` each for j = size - 1
    down to 1, and the last slot is a last pick over at most c vertices, so
    W(c, size) = c + c (T(1) + ... + T(size - 1)), and W(c, 0) = 0.
    """
    bound = c if size else 0
    t = 1
    for _ in range(size - 1):
        if cap is not None and bound > cap:
            break
        t = 1 + c * t
        bound += c * t
    return bound


def iota_exact(
    g: Graph,
    k: int,
    node_budget: int | None = None,
    within: VertexSet | None = None,
    *,
    witness: bool = True,
) -> ExactResult:
    """Exact k-cycle isolation number with a lex-least optimal witness.

    With `within`, the subgraph induced on that vertex mask is solved and
    the witness is given in g's ids.  Components are solved independently
    and summed.  Unbudgeted runs are only allowed up to order
    UNBUDGETED_MAX_N; larger graphs must pass an explicit node budget so
    runtimes stay predictable.

    With witness=False the result's witness is None, and a component skips
    its witness walk where the walk could not have exhausted the budget, so
    `iota` and every budget stop are those of a full solve: always without a
    budget, and under one only on the last component (an earlier walk's
    nodes shrink the budget of the components after it) when `walk_bound`
    fits in the nodes left.  A skipped walk's nodes are missing from
    `explored`.
    """
    check_length(k)
    alive = g.full_mask if within is None else as_mask(g, within)
    if node_budget is None and alive.bit_count() > UNBUDGETED_MAX_N:
        raise ValueError(
            f"graphs with more than {UNBUDGETED_MAX_N} vertices require an explicit node_budget"
        )
    total = 0
    found = 0
    explored = 0
    comps = [comp for comp, _, _ in components(g.adj, alive)]
    for comp in comps:
        budget = None if node_budget is None else node_budget - explored
        search = _Search(g, comp, k, budget)
        if search.cycle(comp) is None:
            continue
        walk = witness or (budget is not None and comp != comps[-1])
        try:
            size, local = search.solve(walk)
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                total + exc.lower_bound, explored + exc.explored
            ) from None
        explored += search.explored
        total += size
        if witness:
            found |= local
    return ExactResult(iota=total, witness=found if witness else None, explored=explored)


def check_gluing_hypothesis(
    g: Graph,
    s: Union[VertexSet, Iterable[int]],
    d: Union[VertexSet, Iterable[int]],
    k: int,
    within: VertexSet | None = None,
) -> bool:
    """Does (S, D) satisfy the gluing hypothesis?

    True when D isolates the induced subgraph G[S] and every component of
    G[S] - N[D] sends at most one edge out of S.  Under that condition an
    isolating set of G - S extends D to an isolating set of all of G.
    With `within`, G is the subgraph induced on that vertex mask: S must
    lie inside it, and only edges to the rest of the mask leave S.
    """
    check_length(k)
    alive = g.full_mask if within is None else as_mask(g, within)
    sm = as_mask(g, s)
    dm = as_mask(g, d)
    if sm & ~alive:
        raise ValueError("S must be contained in the vertex mask")
    if dm & ~sm:
        raise ValueError("D must be contained in S")
    # the masks are checked above, so the kernels take them as they are
    adj = g.adj
    residual = sm & ~closed_of(adj, dm)
    if find_cycle(g, k, residual) is not None:
        return False
    outside = alive & ~sm
    for comp, _, _ in components(adj, residual):
        if edges_between(adj, comp, outside) > 1:
            return False
    return True

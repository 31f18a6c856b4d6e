"""Verification of cycle-isolating sets and exact isolation numbers.

A set D is k-cycle-isolating for G when G - N[D] has no k-cycle subgraph.
The exact solver works per connected component (isolation numbers add over
components), on the component's vertex mask in the input's own ids, and
inside a component runs iterative-deepening search: any isolating set must
meet the closed neighbourhood of every surviving cycle, so branching over
N[V(C)] for one surviving cycle C is sound and complete.
Among optimal sets the lexicographically least (as a sorted id tuple) is
returned, so outputs are stable enough for golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .cycles import find_cycle
from .graphs import (
    Graph,
    VertexSet,
    as_mask,
    bits,
    boundary_edge_count,
    closed_neighborhood,
    component_masks,
    mask_of,
    vertices_of,
)

#: graphs above this order require an explicit node budget
UNBUDGETED_MAX_N = 20


class BudgetExceededError(RuntimeError):
    """Search ran out of nodes; carries the best bounds proven so far."""

    def __init__(self, lower_bound: int, upper_bound: int | None, explored: int):
        self.lower_bound = lower_bound
        self.upper_bound = upper_bound
        self.explored = explored
        hi = "?" if upper_bound is None else str(upper_bound)
        super().__init__(
            f"node budget exhausted after {explored} nodes "
            f"(bounds: {lower_bound} <= iota <= {hi})"
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
        return vertices_of(self.members)


@dataclass(frozen=True)
class ExactResult:
    iota: int
    witness: VertexSet
    explored: int

    @property
    def vertices(self) -> tuple[int, ...]:
        return vertices_of(self.witness)


def verify(g: Graph, d: Union[VertexSet, Iterable[int]], k: int) -> IsolationCertificate:
    """Certificate stating whether d is a k-cycle-isolating set of g."""
    if k < 3:
        raise ValueError("cycle length must be at least 3")
    dm = as_mask(g, d)
    alive = g.full_mask & ~closed_neighborhood(g, dm)
    residual = tuple(component_masks(g, alive))
    valid = find_cycle(g, k, alive) is None
    return IsolationCertificate(k=k, members=dm, valid=valid, residual=residual)


class _Search:
    """Iterative-deepening search for one connected component, in g's ids."""

    def __init__(self, g: Graph, comp: VertexSet, k: int, budget: int | None):
        self.g = g
        self.comp = comp
        self.k = k
        self.budget = budget
        self.explored = 0
        self.failed: dict[tuple[VertexSet, int], int] = {}

    def _tick(self, lower: int) -> None:
        self.explored += 1
        if self.budget is not None and self.explored > self.budget:
            raise BudgetExceededError(lower, None, self.explored)

    def feasible(self, chosen: VertexSet, remaining: int, lo: int, lower: int) -> bool:
        """Can chosen be extended by `remaining` vertices with ids >= lo?"""
        self._tick(lower)
        g = self.g
        alive = self.comp & ~closed_neighborhood(g, chosen)
        cyc = find_cycle(g, self.k, alive)
        if cyc is None:
            return True
        if remaining == 0:
            return False
        key = (chosen, lo)
        if self.failed.get(key, -1) >= remaining:
            return False
        # under `within`, a cycle's neighbours outside the mask are not candidates
        hood = closed_neighborhood(g, mask_of(cyc)) & self.comp
        for v in bits(hood):
            if v < lo:
                continue
            if self.feasible(chosen | (1 << v), remaining - 1, lo, lower):
                return True
        self.failed[key] = remaining
        return False

    def solve(self) -> tuple[int, VertexSet]:
        for size in range(self.comp.bit_count() + 1):
            if self.feasible(0, size, 0, size):
                return size, self.lex_min_witness(size)
        raise AssertionError("the full vertex set always isolates")

    def lex_min_witness(self, size: int) -> VertexSet:
        chosen = 0
        lo = 0
        for slot in range(size):
            for v in bits(self.comp >> lo << lo):
                if self.feasible(chosen | (1 << v), size - slot - 1, v + 1, size):
                    chosen |= 1 << v
                    lo = v + 1
                    break
            else:
                raise AssertionError("witness reconstruction lost feasibility")
        return chosen


def iota_exact(
    g: Graph, k: int, node_budget: int | None = None, within: VertexSet | None = None
) -> ExactResult:
    """Exact k-cycle isolation number with a lex-least optimal witness.

    With `within`, the subgraph induced on that vertex mask is solved and
    the witness is given in g's ids.  Components are solved independently
    and summed.  Unbudgeted runs are only allowed up to order
    UNBUDGETED_MAX_N; larger graphs must pass an explicit node budget so
    runtimes stay predictable.
    """
    if k < 3:
        raise ValueError("cycle length must be at least 3")
    alive = g.full_mask if within is None else as_mask(g, within)
    if node_budget is None and alive.bit_count() > UNBUDGETED_MAX_N:
        raise ValueError(
            f"graphs with more than {UNBUDGETED_MAX_N} vertices require an explicit node_budget"
        )
    total = 0
    witness = 0
    explored = 0
    for comp in component_masks(g, alive):
        if find_cycle(g, k, comp) is None:
            continue
        budget = None if node_budget is None else node_budget - explored
        search = _Search(g, comp, k, budget)
        try:
            size, local = search.solve()
        except BudgetExceededError as exc:
            raise BudgetExceededError(
                total + exc.lower_bound, None, explored + exc.explored
            ) from None
        explored += search.explored
        total += size
        witness |= local
    return ExactResult(iota=total, witness=witness, explored=explored)


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
    if k < 3:
        raise ValueError("cycle length must be at least 3")
    alive = g.full_mask if within is None else as_mask(g, within)
    sm = as_mask(g, s)
    dm = as_mask(g, d)
    if sm & ~alive:
        raise ValueError("S must be contained in the vertex mask")
    if dm & ~sm:
        raise ValueError("D must be contained in S")
    residual = sm & ~closed_neighborhood(g, dm)
    if find_cycle(g, k, residual) is not None:
        return False
    outside = alive & ~sm
    for comp in component_masks(g, residual):
        if boundary_edge_count(g, comp, outside) > 1:
            return False
    return True


def compose_gluing(
    g: Graph,
    s: Union[VertexSet, Iterable[int]],
    d: Union[VertexSet, Iterable[int]],
    d_rest: Union[VertexSet, Iterable[int]],
    k: int,
) -> IsolationCertificate:
    """Glue a local set D on G[S] with a set for G - S into one certificate.

    Raises if the hypothesis fails or d_rest does not isolate G - S; the
    returned certificate is always valid.
    """
    sm = as_mask(g, s)
    dm = as_mask(g, d)
    rm = as_mask(g, d_rest)
    if not check_gluing_hypothesis(g, sm, dm, k):
        raise ValueError("gluing hypothesis does not hold for (S, D)")
    if rm & sm:
        raise ValueError("d_rest must avoid S")
    rest_alive = (g.full_mask & ~sm) & ~closed_neighborhood(g, rm)
    if find_cycle(g, k, rest_alive) is not None:
        raise ValueError("d_rest does not isolate G - S")
    cert = verify(g, dm | rm, k)
    if not cert.valid:
        raise AssertionError("composition produced an invalid set despite the hypothesis")
    return cert

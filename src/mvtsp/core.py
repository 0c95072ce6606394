"""Shared data model for many-visits tours.

An instance is a complete directed cost matrix together with a positive visit
quota per city.  Candidate solutions are directed multigraphs given as edge
multiplicity maps; a multigraph is a valid tour edge set when every vertex is
balanced at exactly its quota and the underlying undirected graph is
connected (for a single city the self-loop multiset is the tour).

Costs are nonnegative integers or ``float("inf")``.  All arithmetic is exact;
inputs and aggregate results are capped at 2**63 - 1 and violations raise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Iterator, Mapping, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .transport import TransportSolution

INF = float("inf")

#: Largest admissible finite cost, visit quota, or edge multiplicity.
MAX_VALUE = 2**63 - 1

Cost = int | float
Edge = tuple[int, int]


def check_cost(value: Cost, what: str = "cost") -> Cost:
    """Return `value` if it is a valid cost (int in [0, MAX_VALUE] or inf)."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be an integer or inf, got a bool")
    if isinstance(value, int):
        if not 0 <= value <= MAX_VALUE:
            raise ValueError(f"{what} {value} outside [0, {MAX_VALUE}]")
        return value
    if isinstance(value, float) and value == INF:
        return INF
    raise ValueError(f"{what} must be a nonnegative integer or inf, got {value!r}")


class CostMatrix(tuple):
    """A square cost matrix whose every entry has passed `check_cost`.

    Building one checks each entry once; code handed a CostMatrix may skip
    the check, and wrapping one again returns it unchanged.  It is a tuple
    of row tuples and compares equal to one.
    """

    __slots__ = ()

    def __new__(cls, rows) -> "CostMatrix":
        if isinstance(rows, CostMatrix):
            return rows
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"cost row {i} has {len(row)} entries, expected {n}")
            for j, value in enumerate(row):
                check_cost(value, f"cost[{i}][{j}]")
        return super().__new__(cls, rows)


def _check_count(value: int, what: str, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if not minimum <= value <= MAX_VALUE:
        raise ValueError(f"{what} {value} outside [{minimum}, {MAX_VALUE}]")
    return value


@dataclass(frozen=True)
class Instance:
    """A complete directed cost matrix plus per-city visit quotas.

    `cost[i][j]` is the cost of travelling from city i to city j; it may be
    asymmetric, zero, or infinite, and the diagonal need not be zero.  `k[i]`
    is the required number of visits to city i (at least 1).  Any square
    nested sequence of costs is accepted and stored as a CostMatrix, so the
    costs are checked here once.
    """

    cost: CostMatrix
    k: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        rows = CostMatrix(self.cost)
        n = len(rows)
        if n < 1:
            raise ValueError("instance needs at least one city")
        quotas = tuple(self.k)
        if len(quotas) != n:
            raise ValueError(f"got {len(quotas)} visit quotas for {n} cities")
        for i, quota in enumerate(quotas):
            _check_count(quota, f"k[{i}]", minimum=1)
        object.__setattr__(self, "cost", rows)
        object.__setattr__(self, "k", quotas)
        object.__setattr__(self, "n", n)

    @property
    def total_visits(self) -> int:
        return sum(self.k)


@dataclass(frozen=True)
class DirectedMultigraph:
    """A directed multigraph on vertices 0..n-1, stored as multiplicities.

    `mult` maps ordered pairs (u, v) to a positive multiplicity; absent pairs
    have multiplicity zero.  Self-loops are allowed.  Degree lookups are O(1)
    from aggregates built at construction.
    """

    n: int
    mult: Mapping[Edge, int]
    _out: tuple[int, ...] = field(init=False, repr=False)
    _in: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        _check_count(self.n, "vertex count", minimum=1)
        out_deg = [0] * self.n
        in_deg = [0] * self.n
        cleaned: dict[Edge, int] = {}
        for key, m in self.mult.items():
            try:
                u, v = key
            except (TypeError, ValueError):
                raise ValueError(f"edge key {key!r} is not a vertex pair") from None
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge {key!r} outside vertex range 0..{self.n - 1}")
            _check_count(m, f"multiplicity of {key!r}", minimum=1)
            cleaned[(u, v)] = m
            out_deg[u] += m
            in_deg[v] += m
        for v in range(self.n):
            if out_deg[v] > MAX_VALUE or in_deg[v] > MAX_VALUE:
                raise OverflowError(f"degree of vertex {v} exceeds {MAX_VALUE}")
        object.__setattr__(self, "mult", MappingProxyType(cleaned))
        object.__setattr__(self, "_out", tuple(out_deg))
        object.__setattr__(self, "_in", tuple(in_deg))

    def out_degree(self, v: int) -> int:
        return self._out[v]

    def in_degree(self, v: int) -> int:
        return self._in[v]

    def edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield (u, v, multiplicity) triples sorted by (u, v)."""
        for (u, v) in sorted(self.mult):
            yield u, v, self.mult[(u, v)]

    def total_multiplicity(self) -> int:
        return sum(self.mult.values())


def multigraph_sum(a: DirectedMultigraph, b: DirectedMultigraph) -> DirectedMultigraph:
    """Edgewise sum of two multigraphs over the same vertex set."""
    if a.n != b.n:
        raise ValueError(f"vertex counts differ: {a.n} != {b.n}")
    merged = dict(a.mult)
    for key, m in b.mult.items():
        total = merged.get(key, 0) + m
        if total > MAX_VALUE:
            raise OverflowError(f"multiplicity of {key!r} exceeds {MAX_VALUE}")
        merged[key] = total
    return DirectedMultigraph(a.n, merged)


def multigraph_cost(g: DirectedMultigraph, inst: Instance) -> Cost:
    """Total cost of all edges counted with multiplicity; inf if any edge
    uses an infinite arc."""
    if g.n != inst.n:
        raise ValueError(f"vertex counts differ: {g.n} != {inst.n}")
    total = 0
    for (u, v), m in g.mult.items():
        d = inst.cost[u][v]
        if d == INF:
            return INF
        total += m * d
    if total > MAX_VALUE:
        raise OverflowError(f"total cost {total} exceeds {MAX_VALUE}")
    return total


def undirected_connected(n: int, pairs) -> bool:
    """True when the undirected graph induced by `pairs` spans all n vertices.

    Vacuously true for n <= 1.  Self-loops are ignored.
    """
    if n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * n
    seen[0] = True
    frontier = [0]
    count = 1
    while frontier:
        u = frontier.pop()
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                frontier.append(v)
    return count == n


def check_balanced(g: DirectedMultigraph) -> None:
    """Raise ValueError unless every vertex's in- and out-degree agree."""
    for v in range(g.n):
        if g.out_degree(v) != g.in_degree(v):
            raise ValueError(f"vertex {v} has unequal in- and out-degree")


def check_tour_edgeset(g: DirectedMultigraph) -> None:
    """Raise ValueError unless `g` is the edge set of a tour for some visit
    quotas: balanced, with an edge at every vertex, and connected."""
    check_balanced(g)
    for v in range(g.n):
        if g.out_degree(v) < 1:
            raise ValueError(f"vertex {v} has no edges: not a tour edge set")
    if not undirected_connected(g.n, g.mult.keys()):
        raise ValueError("edge set is disconnected: not a tour edge set")


@dataclass(frozen=True)
class TourSolution:
    """An optimal tour: total cost, its edge multiset, and optional extras.

    `expansion` is a closed-walk vertex sequence of length equal to the total
    visit count (omitted for huge tours).  `certificate` carries the
    optimality data of the transport subproblem that completed the winning
    spanning tree, when one exists.  A cost above MAX_VALUE raises
    OverflowError.
    """

    cost: Cost
    edges: DirectedMultigraph
    expansion: tuple[int, ...] | None = None
    certificate: "TransportSolution | None" = None

    def __post_init__(self) -> None:
        if self.cost > MAX_VALUE:
            raise OverflowError(f"tour cost {self.cost} exceeds {MAX_VALUE}")

"""Checks on every solve's output, written independently of `mvtsp`.

`solution_problems` applies the checks `mvtsp verify` runs to a written
solution file; `certificate_problems` checks the transport dual certificate
the solver attached to its result against that file.  Both return a list
of problems, empty when the output is correct.
"""

from __future__ import annotations

from collections import Counter

INF = float("inf")


def read_instance(text: str) -> tuple[int, list[int], list[list[float | int]]]:
    """(n, quotas, cost matrix) from an instance file without comments."""
    lines = [line.split() for line in text.splitlines() if line.strip()]
    n = int(lines[0][0])
    quotas = [int(t) for t in lines[1]]
    cost = [[INF if t == "inf" else int(t) for t in row] for row in lines[2:]]
    if len(quotas) != n or len(cost) != n or any(len(row) != n for row in cost):
        raise ValueError("malformed instance file")
    return n, quotas, cost


def read_solution(text: str) -> tuple[int | float, dict, list, list | None]:
    """(cost, {(u, v): m}, [(cycle, count)], tour or None) from a solution."""
    cost = None
    edges: dict[tuple[int, int], int] = {}
    cycles: list[tuple[list[int], int]] = []
    tour = None
    for line in text.splitlines():
        kind, _, rest = line.partition(" ")
        fields = rest.split()
        if kind == "cost" and cost is None and len(fields) == 1:
            cost = INF if fields[0] == "inf" else int(fields[0])
        elif kind == "edge" and len(fields) == 3:
            u, v, m = map(int, fields)
            if (u, v) in edges:
                raise ValueError(f"duplicate edge {u} {v}")
            edges[(u, v)] = m
        elif kind == "cycle" and len(fields) >= 2:
            count, *verts = map(int, fields)
            cycles.append((verts, count))
        elif kind == "tour" and tour is None:
            tour = list(map(int, fields))
        elif line.strip():
            raise ValueError(f"unexpected line {line[:40]!r}")
    if cost is None:
        raise ValueError("no cost line")
    return cost, edges, cycles, tour


def _connected(n: int, arcs) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in arcs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    frontier = [0]
    while frontier:
        for v in adj[frontier.pop()]:
            if v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n


def _walk_arcs(walk: list[int]) -> Counter:
    return Counter(zip(walk, walk[1:] + walk[:1]))


def solution_problems(
    solution, n: int, quotas: list[int], cost: list[list], expand_limit: int
) -> list[str]:
    """What is wrong with a solution from `read_solution`, by the checks of
    `mvtsp verify`.

    A tour must be present exactly when the visit total is within
    `expand_limit`.
    """
    stated, edges, cycles, tour = solution
    if any(
        not (0 <= u < n and 0 <= v < n) or m < 1 for (u, v), m in edges.items()
    ):
        return ["edges are not well formed"]
    problems = []
    out_deg = [0] * n
    in_deg = [0] * n
    for (u, v), m in edges.items():
        out_deg[u] += m
        in_deg[v] += m
    if out_deg != quotas or in_deg != quotas:
        problems.append("degrees differ from the visit quotas")
    if not _connected(n, edges):
        problems.append("edge set is disconnected")
    recomputed = sum(m * cost[u][v] for (u, v), m in edges.items())
    if recomputed != stated:
        problems.append(f"stated cost {stated}, edges cost {recomputed}")
    if cycles:
        union: Counter = Counter()
        for verts, count in cycles:
            for arc in zip(verts, verts[1:] + verts[:1]):
                union[arc] += count
        if union != edges:
            problems.append("cycles do not rebuild the edge multiset")
    visits = sum(quotas)
    if (tour is not None) != (visits <= expand_limit):
        problems.append(f"tour present: {tour is not None}, visits {visits}")
    if tour is not None:
        if len(tour) != visits:
            problems.append(f"tour has {len(tour)} steps for {visits} visits")
        if _walk_arcs(tour) != edges:
            problems.append("tour does not use the edge multiset exactly")
    return problems


def certificate_problems(
    cert: dict, n: int, quotas: list[int], cost: list[list], solution
) -> list[str]:
    """What is wrong with a solution's transport certificate.

    The solution's edges minus the certificate's flow must be a spanning
    tree directed away from city 0.  The flow must meet the margins that
    tree leaves (supply k - outdegree, demand k - indegree), cost what the
    certificate says, and carry potentials under which every finite arc has
    a nonnegative reduced cost, zero on arcs carrying flow.
    """
    stated, edges, _, _ = solution
    flow = {(u, v): m for u, v, m in cert["flow"]}
    if any(m < 1 for m in flow.values()):
        return ["certificate flow has a nonpositive arc"]
    tree = Counter(edges)
    tree.subtract(flow)
    if any(m < 0 for m in tree.values()):
        return ["certificate flow exceeds the solution's edges"]
    arcs = [arc for arc, m in tree.items() if m > 0]
    parent = {v: u for u, v in arcs}
    if (
        len(arcs) != n - 1
        or any(tree[arc] != 1 for arc in arcs)
        or len(parent) != n - 1
        or 0 in parent
        or not _connected(n, arcs)
    ):
        return ["solution minus flow is not a spanning tree rooted at 0"]
    problems = []
    supply = list(quotas)
    for u, _ in arcs:
        supply[u] -= 1
    demand = [q - (v != 0) for v, q in enumerate(quotas)]
    out_flow = [0] * n
    in_flow = [0] * n
    for (u, v), m in flow.items():
        out_flow[u] += m
        in_flow[v] += m
    if out_flow != supply or in_flow != demand:
        problems.append("certificate flow misses the transport margins")
    flow_cost = sum(m * cost[u][v] for (u, v), m in flow.items())
    if flow_cost != cert["cost"]:
        problems.append(f"certificate cost {cert['cost']}, flow costs {flow_cost}")
    tree_cost = sum(cost[u][v] for u, v in arcs)
    if tree_cost + cert["cost"] != stated:
        problems.append("tree plus transport cost differs from the stated cost")
    pi_s, pi_t = cert["pi_source"], cert["pi_sink"]
    for i in range(n):
        for j in range(n):
            if cost[i][j] == INF:
                continue
            reduced = cost[i][j] - pi_s[i] + pi_t[j]
            if reduced < 0:
                problems.append(f"negative reduced cost on {i}->{j}")
            elif reduced > 0 and (i, j) in flow:
                problems.append(f"arc {i}->{j} carries flow with slack")
    return problems

"""Exact solvers for many-visits tour problems.

Find a cheapest closed walk through a directed cost matrix that visits each
city a prescribed number of times.  Visit counts may be astronomically
large: solutions are edge multisets with integer multiplicities.  `solve`
also expands the walk whenever its visits total at most
`SolverConfig.expansion_threshold` (10**6 by default).
"""

from .core import (
    INF,
    MAX_VALUE,
    Cost,
    CostMatrix,
    DirectedMultigraph,
    Instance,
    TourSolution,
    multigraph_cost,
    multigraph_sum,
    undirected_connected,
)
from .degseq import (
    compositions,
    enumerate_feasible,
    is_feasible,
)
from .euler import cycle_certificate, eulerian_expand, walk_runs
from .opttree import DpTreeSolver, min_tree_dc2
from .solvers import (
    ALGORITHMS,
    Infeasible,
    SolverConfig,
    solve,
)
from .transport import (
    TransportInfeasible,
    TransportProblem,
    TransportSolution,
    solve_transport,
)
from .trees import DirectedTree

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "Cost",
    "CostMatrix",
    "DirectedMultigraph",
    "DirectedTree",
    "DpTreeSolver",
    "INF",
    "Infeasible",
    "Instance",
    "MAX_VALUE",
    "SolverConfig",
    "TourSolution",
    "TransportInfeasible",
    "TransportProblem",
    "TransportSolution",
    "compositions",
    "cycle_certificate",
    "enumerate_feasible",
    "eulerian_expand",
    "is_feasible",
    "min_tree_dc2",
    "multigraph_cost",
    "multigraph_sum",
    "undirected_connected",
    "solve",
    "solve_transport",
    "walk_runs",
]

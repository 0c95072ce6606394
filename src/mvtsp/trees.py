"""Directed spanning trees, stored as child-to-parent maps.

Trees are always directed away from their root.  The cheapest tree of a
degree profile comes from `mvtsp.opttree`, which returns None instead of a
tree when every tree of the profile has infinite cost.  The exhaustive
references that enumerate every tree of a profile, extract a tree from a
tour and build the balanced partition behind `dc2`'s boundary cap live
with the tests, in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .core import DirectedMultigraph


@dataclass(frozen=True)
class DirectedTree:
    """A tree directed away from `root`, stored as a child-to-parent map.

    The root has no entry in `parent`.  Vertices are whatever labels the
    parent map mentions; for whole-instance trees that is 0..n-1.
    """

    root: int
    parent: Mapping[int, int]

    def __post_init__(self) -> None:
        parent = dict(self.parent)
        if self.root in parent:
            raise ValueError("root cannot have a parent")
        vertices = set(parent) | {self.root}
        for child, par in parent.items():
            if par not in vertices:
                raise ValueError(f"parent {par} of {child} is not a tree vertex")
        # Every chain must reach the root without revisiting a vertex.
        ok: set[int] = {self.root}
        for child in parent:
            chain = []
            v = child
            while v not in ok:
                chain.append(v)
                if v not in parent or len(chain) > len(parent):
                    raise ValueError(f"vertex {child} is not connected to the root")
                v = parent[v]
            ok.update(chain)
        object.__setattr__(self, "parent", MappingProxyType(parent))

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.parent) | {self.root}))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All (parent, child) pairs, sorted by child."""
        return tuple((self.parent[c], c) for c in sorted(self.parent))

    def out_degree(self, v: int) -> int:
        return sum(1 for p in self.parent.values() if p == v)

    def as_multigraph(self, n: int) -> DirectedMultigraph:
        counts: dict[tuple[int, int], int] = {}
        for p, c in self.edges():
            counts[(p, c)] = counts.get((p, c), 0) + 1
        return DirectedMultigraph(n, counts)

"""Outdegree profiles of rooted spanning trees, and capped compositions.

Every spanning tree directed away from a fixed root has indegree 0 at the
root and 1 everywhere else, so a tree's degree data reduces to its outdegree
tuple `dout` over the cities 0..n-1: nonnegative entries summing to n - 1
with a positive entry at the root.  A profile is that tuple plus the root.
`compositions` walks the capped compositions of a total in lexicographic
order, and `enumerate_feasible` shifts it onto the root, so a profile that
breaks a cap is never built.
"""

from __future__ import annotations

from typing import Iterator, Sequence


def compositions(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Lazily yield every x with 0 <= x[i] <= caps[i] and sum(x) == total,
    in lexicographic order.

    A depth-first walk over prefixes that never enters a dead end: each step
    raises the last entry that can still take a unit from the entries after
    it, then gives those entries their smallest completion.
    """
    m = len(caps)
    if total < 0 or (m and min(caps) < 0):
        raise ValueError("need total >= 0 and caps >= 0")
    x = [0] * m
    i, left = -1, total
    while True:
        # The smallest completion of x[:i+1] pushes the units left over as
        # far right as the caps allow.
        for j in range(m - 1, i, -1):
            d = caps[j] if caps[j] < left else left  # min() costs a call
            x[j] = d
            left -= d
        if left:
            return  # only on the first pass: the caps hold less than total
        yield tuple(x)
        for i in range(m - 2, -1, -1):
            left += x[i + 1]
            if left and x[i] < caps[i]:
                break
        else:
            return
        x[i] += 1
        left -= 1


def is_feasible(dout: Sequence[int], root: int) -> bool:
    """True when some tree directed away from `root` over the vertices
    0..len(dout)-1 has outdegrees `dout`: nonnegative entries summing to
    n - 1, positive at the root unless the tree is a single vertex."""
    n = len(dout)
    return (
        0 <= root < n
        and min(dout) >= 0
        and sum(dout) == n - 1
        and (n == 1 or dout[root] >= 1)
    )


def checked_profile(dout: Sequence[int], n: int, root: int) -> tuple[int, ...]:
    """Return `dout` as a tuple when it is a feasible profile over the
    vertices 0..n-1 rooted at `root`; raise ValueError otherwise."""
    if len(dout) != n or not is_feasible(dout, root):
        raise ValueError("no tree over the instance realizes the profile")
    return tuple(dout)


def enumerate_feasible(
    caps: Sequence[int], root: int = 0
) -> Iterator[tuple[int, ...]]:
    """Lazily yield, in lexicographic order, every feasible outdegree tuple
    over the n = len(caps) vertices with dout[v] <= caps[v] for each v."""
    n = len(caps)
    if not 0 <= root < n:
        raise ValueError(f"root {root} outside 0..{n - 1}")
    if n == 1:
        yield from compositions(0, caps)
        return
    if caps[root] < 1:
        return
    # Reserve one unit for the root and walk the remaining n - 2 under the
    # caps.  Adding the reserved unit back at a fixed index keeps the order.
    rest_caps = tuple(c - (v == root) for v, c in enumerate(caps))
    for rest in compositions(n - 2, rest_caps):
        yield rest[:root] + (rest[root] + 1,) + rest[root + 1 :]

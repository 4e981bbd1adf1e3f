"""Brute-force enumeration of alternating labeled trees.

An alternating (intransitive) tree is a labeled tree in which every vertex is
either smaller than all of its neighbors or larger than all of its neighbors.
All labeled trees on {1..m} are enumerated through the Prufer bijection, so
the counts are grounded in nothing but the definition; they serve as an
independent oracle for the k = 2 fixed-point series.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

ENUMERATION_CAP = 9


class OracleScaleError(ValueError):
    """Requested enumeration exceeds the brute-force cap."""


@dataclass(frozen=True)
class LabeledTree:
    m: int
    edges: tuple[tuple[int, int], ...]

    def neighbors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(1, self.m + 1)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return adj


def prufer_decode(seq) -> LabeledTree:
    """The unique labeled tree on {1..m}, m = len(seq) + 2, with this
    Prufer sequence."""
    seq = list(seq)
    m = len(seq) + 2
    if any(not 1 <= s <= m for s in seq):
        raise ValueError(f"label out of range for m={m}")
    degree = [1] * (m + 1)
    for s in seq:
        degree[s] += 1
    edges = []
    for s in seq:
        leaf = min(v for v in range(1, m + 1) if degree[v] == 1)
        edges.append((min(leaf, s), max(leaf, s)))
        degree[leaf] -= 1
        degree[s] -= 1
    last = [v for v in range(1, m + 1) if degree[v] == 1]
    edges.append((last[0], last[1]))
    return LabeledTree(m=m, edges=tuple(edges))


def is_alternating(tree: LabeledTree) -> bool:
    for v, nbrs in tree.neighbors().items():
        if any(u < v for u in nbrs) and any(u > v for u in nbrs):
            return False
    return True


def count_alternating_trees(m: int) -> int:
    """Number of alternating labeled trees on {1..m} by exhaustive Prufer
    enumeration (m^{m-2} decodes)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > ENUMERATION_CAP:
        raise OracleScaleError(f"oracle scale exceeded: m={m} > cap={ENUMERATION_CAP}")
    if m == 1:
        return 1
    labels = range(1, m + 1)
    return sum(
        is_alternating(prufer_decode(seq)) for seq in product(labels, repeat=m - 2)
    )

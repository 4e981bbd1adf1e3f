"""Exact count of alternating labeled trees by the matrix-tree theorem.

An alternating (intransitive) tree is a labeled tree in which every vertex is
either smaller than all of its neighbors ("low") or larger than all of them
("high").  On {1..m}, m >= 2, no vertex is isolated, so each vertex is exactly
one of the two, and every edge joins a low i to a high j > i.  Conversely, a
tree whose edges all join some i in a set L to some j > i outside L is
alternating with low set L.  So the alternating trees with low set L are
exactly the spanning trees of the graph G_L of those edges, and the count is
the sum of tau(G_L) over the low sets L.  Vertex 1 is always low and m always
high, which leaves 2^{m-2} low sets.

tau(G_L) is Kirchhoff's determinant, evaluated by Bareiss's fraction-free
elimination.  The count shares no code with the series or the fixed-point
solver; it serves as an independent oracle for the k = 2 series.
"""

from __future__ import annotations

from itertools import product


def spanning_tree_count(n: int, edges) -> int:
    """Number of spanning trees of the multigraph on vertices 0..n-1 with
    these edges: the determinant of its Laplacian with row and column 0
    removed (Kirchhoff), by Bareiss's fraction-free elimination.

    The minor is positive semidefinite, so a vanishing leading principal
    minor (a zero pivot) makes the determinant zero; no pivoting is needed."""
    if n < 1:
        raise ValueError("n must be >= 1")
    lap = [[0] * n for _ in range(n)]
    for u, v in edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    a = [row[1:] for row in lap[1:]]
    size = n - 1
    prev = 1
    for k in range(size):
        row_k = a[k]
        pivot = row_k[k]
        if pivot == 0:
            return 0
        for i in range(k + 1, size):
            row_i = a[i]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return prev


def count_alternating_trees(m: int) -> int:
    """Number of alternating labeled trees on {1..m}: the sum over low sets
    L of the spanning trees of G_L (see the module docstring)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if m == 1:
        return 1
    total = 0
    for middle in product((True, False), repeat=m - 2):
        low = (True, *middle, False)
        edges = [
            (i, j)
            for i in range(m)
            if low[i]
            for j in range(i + 1, m)
            if not low[j]
        ]
        total += spanning_tree_count(m, edges)
    return total

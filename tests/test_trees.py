from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitz.trees import count_alternating_trees, spanning_tree_count

# The Prufer enumeration below is the test oracle for the matrix-tree count:
# it decodes all m^{m-2} labeled trees and tests each one against the
# definition, so it grounds ``count_alternating_trees`` in nothing else.


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


@cache
def brute_force_alternating_trees(m: int) -> frozenset[frozenset[tuple[int, int]]]:
    """The edge sets of all alternating trees on {1..m}, by Prufer
    enumeration; cached because two tests read the m = 7 enumeration."""
    if m == 1:
        return frozenset({frozenset()})
    trees = (prufer_decode(seq) for seq in product(range(1, m + 1), repeat=m - 2))
    return frozenset(frozenset(t.edges) for t in trees if is_alternating(t))


def fraction_determinant(matrix) -> int:
    """Gaussian elimination over Fraction with row pivoting."""
    a = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for k in range(len(a)):
        pivot_row = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if pivot_row is None:
            return 0
        if pivot_row != k:
            a[k], a[pivot_row] = a[pivot_row], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    assert det.denominator == 1
    return int(det)


def laplacian_minor_determinant(n: int, edges) -> int:
    degree = [0] * n
    adjacency = [[0] * n for _ in range(n)]
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
        adjacency[u][v] += 1
        adjacency[v][u] += 1
    return fraction_determinant(
        [[(degree[i] if i == j else 0) - adjacency[i][j] for j in range(1, n)]
         for i in range(1, n)]
    )


@st.composite
def multigraphs(draw):
    n = draw(st.integers(1, 8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda e: e[0] != e[1]), max_size=16))
    return n, edges


class TestPruferDecode:
    def test_two_vertices(self):
        assert prufer_decode([]) == LabeledTree(2, ((1, 2),))

    def test_star_at_three(self):
        tree = prufer_decode([3])
        assert set(tree.edges) == {(1, 3), (2, 3)}

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            prufer_decode([5, 1])

    @pytest.mark.parametrize("m", range(2, 8))
    def test_cayley_count_and_distinctness(self, m):
        seen = {
            frozenset(prufer_decode(seq).edges)
            for seq in product(range(1, m + 1), repeat=m - 2)
        }
        assert len(seen) == m ** (m - 2)


class TestIsAlternating:
    def test_path_is_not(self):
        assert not is_alternating(LabeledTree(3, ((1, 2), (2, 3))))

    def test_star_at_min_is(self):
        assert is_alternating(LabeledTree(3, ((1, 2), (1, 3))))

    def test_single_edge_is(self):
        assert is_alternating(LabeledTree(2, ((1, 2),)))


class TestSpanningTreeCount:
    @pytest.mark.parametrize("n", range(1, 10))
    def test_cayley_on_complete_graph(self, n):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
        expected = n ** (n - 2) if n > 1 else 1
        assert spanning_tree_count(n, edges) == expected

    def test_disconnected_is_zero(self):
        # the zero pivot at the first step, and at the last
        assert spanning_tree_count(3, [(0, 2)]) == 0
        assert spanning_tree_count(4, [(0, 1), (2, 3)]) == 0

    def test_zero_vertices_rejected(self):
        with pytest.raises(ValueError):
            spanning_tree_count(0, [])

    @settings(max_examples=100, deadline=None)
    @given(multigraphs())
    @example((5, [(0, 1), (0, 1), (2, 3), (3, 4), (2, 4)]))
    def test_matches_fraction_determinant(self, graph):
        n, edges = graph
        assert spanning_tree_count(n, edges) == laplacian_minor_determinant(n, edges)


class TestCount:
    def test_small_counts(self):
        assert count_alternating_trees(1) == 1
        assert count_alternating_trees(2) == 1
        assert count_alternating_trees(3) == 2
        assert count_alternating_trees(4) == 7

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            count_alternating_trees(0)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_matches_brute_force(self, m):
        assert count_alternating_trees(m) == len(brute_force_alternating_trees(m))

    def test_oeis_a007889(self):
        assert [count_alternating_trees(m) for m in range(1, 14)] == [
            1, 1, 2, 7, 36, 246, 2104, 21652, 260720, 3598120,
            56010096, 971055240, 18558391936,
        ]

    @pytest.mark.parametrize("m", range(2, 8))
    def test_relabel_duality(self, m):
        # v -> m+1-v maps alternating trees to alternating trees bijectively
        trees = brute_force_alternating_trees(m)
        flipped = {
            frozenset((m + 1 - v, m + 1 - u) for u, v in edges) for edges in trees
        }
        assert flipped == trees

"""Acceptance suite: every check of the ``verify`` registry, once, at full size.

Every check is exact (integer/rational arithmetic), so there are no
tolerances anywhere.  Each test prints a PASS line (visible with pytest -s);
``hurwitz verify-all`` runs the same registry.
"""

import pytest

from hurwitz import verify
from hurwitz.fixpoint import solve_tree_series

CHECKS = verify.all_checks()


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_check(name, check):
    assert check()
    print(f"ACCEPTANCE  {name}: PASS")


def test_criterion_3_tree_oracle():
    # the alternating-tree numbers of OEIS A007889; the tree-oracle check
    # ties the same series to the matrix-tree counts up to 13 vertices
    a = solve_tree_series(2, 7)
    assert [a[n] for n in range(1, 8)] == [1, 2, 7, 36, 246, 2104, 21652]
    print("ACCEPTANCE  criterion-3 tree-oracle: PASS")

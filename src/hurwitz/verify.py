"""The full exact-verification suite.

Each check is pure, returns True/False, and by default runs at its full
(acceptance) size.  ``all_checks`` is the one registry of checks: it names
them in run order and holds each one's reduced ``--quick`` arguments.
``verify-all`` runs the registry through ``run_all``, which prints one
PASS/FAIL line with the wall time per check, and the acceptance tests run
each full-size entry once.

Checks whose values are integers run over ZZ, where every division is an
exact ``ZZ.divide`` that raises on a remainder: hurwitz-closure, the tree
series (one division by k per coefficient) and its inverse, the M_n(h,k)
routes of theorem-sweep, and all three routes of genocchi-tri-route, the
Genocchi oracle's series division included.  theorem-sweep and
hurwitz-closure catch that ``NonDivisibleError`` and fail.

Each fact is checked once per run.  A solve certifies its own fixed point
Phi(A) = A, the paper's equation for the k-tree series and the functional
equation for the four-parameter one, so no check restates it.
inverse-consistency reverts each k-tree series once, tying it to the
algebraic inverse that the other checks read.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import bernoulli, parametric, trees
from .fixpoint import (
    power_sum_phi,
    solve_fixed_point,
    solve_tree_series,
    verify_postnikov_form,
)
from .rings import POLY, ZZ, NonDivisibleError, binomial_rows
from .series import EgfSeries


def check_theorem_sweep(hk_bound: int = 8, order: int = 32) -> bool:
    """Three routes to M_n(h,k) agree over the whole grid: the paper's proof
    route Q * G_|k|, ``m_series`` and ``m_direct_values``, all over ZZ.

    G_K = g_K o (e^x - 1), with g_K the algebraic inverse of the K-tree series
    over ZZ, and Q is the closed-form reduction factor, so the proof route
    shares no code with ``m_series``.  Integrality needs no separate check:
    each route's divisions are exact, and a remainder fails the check."""
    try:
        base = {
            ka: bernoulli.inverse_tree_series(ka, order).subst_exp_minus_one()
            for ka in range(1, hk_bound + 1)
        }
        for h in range(-hk_bound, hk_bound + 1):
            for k in range(-hk_bound, hk_bound + 1):
                if k == 0:
                    continue
                gf = bernoulli.m_series(h, k, order)
                if list(gf.coeffs) != bernoulli.m_direct_values(h, k, order):
                    return False
                if bernoulli.reduction_factor(h, k, order) * base[abs(k)] != gf:
                    return False
    except NonDivisibleError:
        return False
    return True


def check_genocchi_tri_route(order: int = 16) -> bool:
    """gf(1,2) = subst(algebraic inverse of A2) = the independent 2x/(e^x+1)
    division, all over ZZ."""
    gf = bernoulli.m_series(1, 2, order)
    via_algebraic = bernoulli.inverse_tree_series(2, order).subst_exp_minus_one()
    return gf == via_algebraic == bernoulli.genocchi_oracle(order)


def check_tree_oracle(max_n: int = 12) -> bool:
    """a_n of the k=2 fixed point counts alternating trees on n+1 vertices,
    counted by the matrix-tree theorem."""
    a = solve_tree_series(2, max_n)
    return all(
        a[n] == trees.count_alternating_trees(n + 1) for n in range(1, max_n + 1)
    )


def check_inverse_consistency(max_k: int = 8, order: int = 48) -> bool:
    """Order-by-order inverse of the k-tree series equals the algebraic
    expansion of k x log(1+x)/((1+x)^k - 1), both over ZZ.

    Integrality is carried by exact ``ZZ.divide`` calls: ``comp_inverse``
    divides by m! and the algebraic series by k, and either raises
    ``NonDivisibleError`` on a remainder."""
    return all(
        solve_tree_series(k, order).comp_inverse() == bernoulli.inverse_tree_series(k, order)
        for k in range(1, max_k + 1)
    )


def check_factorial_sum_formula(max_n: int = 20) -> bool:
    """The alternating factorial sum gives the coefficients of A2's
    algebraic inverse 2 log(1+x)/(2+x)."""
    inv = bernoulli.inverse_tree_series(2, max_n)
    return all(
        inv[n] == parametric.alternating_factorial_sum(n)
        for n in range(1, max_n + 1)
    )


def check_parametric_closed_form(order: int = 16) -> bool:
    """Monomial-by-monomial match of the inverse expansion with the closed
    form, homogeneity of degree n-1, and the k=2 specialization."""
    series = parametric.parametric_inverse_series(order)
    for n in range(1, order + 1):
        poly = series[n]
        if not poly.is_homogeneous(n - 1):
            return False
        expected = {}
        for e1 in range(n):
            for e2 in range(n - e1):
                for e3 in range(n - e1 - e2):
                    e4 = n - 1 - e1 - e2 - e3
                    expected[(e1, e2, e3, e4)] = (
                        parametric.inverse_monomial_coefficient(e1, e2, e3, e4)
                    )
        if any(poly.coefficient(e) != c for e, c in expected.items()):
            return False
        if set(poly.terms) - {e for e, c in expected.items() if c != 0}:
            return False
    k2 = parametric.specialize_k2(series)
    return all(
        k2[n] == parametric.alternating_factorial_sum(n)
        for n in range(1, order + 1)
    )


def check_parametric_fixed_point(order: int = 12) -> bool:
    """The four-parameter fixed point inverts the logarithmic series.

    The solve's own check Phi(F) = F is the functional equation, so it is
    not restated here; parametric-closed-form pins the inverse's monomials.
    F's coefficients are integer polynomials by construction: the solve runs
    over POLY, Z[a1,a2,b1,b2], where Phi has integer polynomial coefficients
    and the online steps never divide."""
    f = parametric.solve_parametric_f(order)
    inverse = parametric.parametric_inverse_series(order)
    return inverse.compose(f) == EgfSeries.basis(1, order, POLY)


def check_beta_identity(total_degree: int = 10, diag_n: int = 12) -> bool:
    """Bivariate beta-sum identity, plus its u=v=-x diagonal reproducing the
    alternating factorial sums."""
    if not parametric.beta_series_identity(total_degree):
        return False
    table = parametric.beta_rhs_table(diag_n - 1)
    return all(
        parametric.beta_diagonal_egf_coefficient(n, table)
        == parametric.alternating_factorial_sum(n)
        for n in range(1, diag_n + 1)
    )


def check_hurwitz_closure(instances: int = 200, order: int = 12, seed: int = 20231023) -> bool:
    """Random integer series stay integral under composition and (when the
    linear term is 1) compositional inversion.

    The series are drawn over ZZ, so integrality is the absence of a
    remainder: ``compose``'s division by N! and ``comp_inverse``'s divisions
    by m! are exact ``ZZ.divide`` calls, which raise ``NonDivisibleError``
    on a remainder.  The product needs no run: its coefficients are sums of
    integer multiples (binomial coefficients) of integer products."""
    rng = random.Random(seed)

    def random_series(zero_constant: bool, unit_linear: bool = False) -> EgfSeries:
        coeffs = [rng.randint(-9, 9) for _ in range(order + 1)]
        if zero_constant:
            coeffs[0] = 0
        if unit_linear:
            coeffs[1] = 1
        return EgfSeries(ZZ, coeffs)

    try:
        for _ in range(instances):
            f = random_series(zero_constant=False)
            f.compose(random_series(zero_constant=True))
            random_series(zero_constant=True, unit_linear=True).comp_inverse()
    except NonDivisibleError:
        return False
    return True


def check_postnikov_forms(order: int = 16) -> bool:
    """The k=2 solution satisfies Postnikov's form 1 + A = e^{(x/2)(2+A)}.

    The form is the square root of the paper's k = 2 equation
    (1+A)^2 = e^{x(2+A)}, which the solve's own check Phi(A) = A states, and
    such a root with constant term 1 is unique, so the two state one fact.
    This check stays beside the solve for two reasons: it checks the form as
    Postnikov's paper states it, and it is the one registry check that runs
    QQ ``scale`` and ``exp``, after lifting A to QQ for the 1/2."""
    return verify_postnikov_form(solve_tree_series(2, order))


def check_general_k_integrality(max_k: int = 6, order: int = 48) -> bool:
    """The integer k-tree series, for each k <= max_k, equals the solve of
    the paper's division-free route.

    ``solve_tree_series`` solves (1+A)^k = e^{x p_k(A)} in exp form, with one
    exact division by k per coefficient, and its own check Phi(A) = A is
    that equation over ZZ.  The independent route is the map
    Phi(A) = sum_{n>=1} p_k(A)^{n-1} x^n/n! built by ``power_sum_phi``, whose
    online steps never divide, so that A is a Hurwitz series because Phi has
    integer coefficients."""
    for k in range(1, max_k + 1):
        powers = power_sum_phi(f"tree-power-sum(k={k})", binomial_rows(k)[k][1:], [1])
        if solve_tree_series(k, order) != solve_fixed_point(powers, order, ZZ):
            return False
    return True


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    seconds: float


def all_checks(quick: bool = False) -> list[tuple[str, Callable[[], bool]]]:
    """(name, check) in run order; ``quick`` binds each check's reduced args.

    Built on every call from the module's names, so a wrapper bound over a
    check function is what both sizes run."""
    table = [
        ("theorem-sweep", check_theorem_sweep, (4, 16)),
        ("genocchi-tri-route", check_genocchi_tri_route, (8,)),
        ("tree-oracle", check_tree_oracle, (5,)),
        ("inverse-consistency", check_inverse_consistency, (4, 16)),
        ("factorial-sum-formula", check_factorial_sum_formula, (10,)),
        ("parametric-closed-form", check_parametric_closed_form, (5,)),
        ("parametric-fixed-point", check_parametric_fixed_point, (5,)),
        ("beta-identity", check_beta_identity, (5, 6)),
        ("hurwitz-closure", check_hurwitz_closure, (50, 8)),
        ("functional-forms", check_postnikov_forms, (8,)),
        ("general-k-integrality", check_general_k_integrality, (3, 12)),
    ]
    return [
        (name, partial(check, *quick_args) if quick else check)
        for name, check, quick_args in table
    ]


def run_all(quick: bool = False) -> list[CheckResult]:
    results = []
    for name, check in all_checks(quick):
        start = time.perf_counter()
        try:
            passed = check()
        except Exception as exc:  # a raised invariant is a failure, not a crash
            print(f"FAIL  {name}  (error: {exc})")
            results.append(CheckResult(name, False, time.perf_counter() - start))
            continue
        elapsed = time.perf_counter() - start
        print(f"{'PASS' if passed else 'FAIL'}  {name}  ({elapsed:.2f}s)")
        results.append(CheckResult(name, passed, elapsed))
    return results

"""The four-parameter generalization of the tree series.

The series F = F(x) in the parameters a1, a2, b1, b2 satisfies

    (1+a1 F)(1+b2 F) / ((1+a2 F)(1+b1 F)) = e^{((a1 b2 - a2 b1) F + a1 - a2 - b1 + b2) x}

and is the compositional inverse of

    log[(1+a1 x)(1+b2 x) / ((1+a2 x)(1+b1 x))] / ((a1 b2 - a2 b1) x + a1 - a2 - b1 + b2).

Every EGF coefficient of both series is a polynomial with integer
coefficients, homogeneous of degree n-1, and the inverse's monomial
coefficients have a closed form (``inverse_monomial_coefficient``).  The
specialization a1 = b2 = 1, a2 = b1 = 0 recovers the k = 2 alternating-tree
series and its inverse 2 log(1+x)/(2+x).

The non-unit denominator constant e = a1 - a2 - b1 + b2 is handled by exact
polynomial division at every order; a nonzero remainder would contradict the
homogeneity/integrality theorem and is raised loudly.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .fixpoint import PhiSpec, power_sum_phi, solve_fixed_point
from .rings import POLY, QQ, MultiPoly
from .series import EgfSeries, SeriesError, check_order

A1 = MultiPoly.variable("a1")
A2 = MultiPoly.variable("a2")
B1 = MultiPoly.variable("b1")
B2 = MultiPoly.variable("b2")

# cross-term and linear constants of the functional equation's exponent
CROSS = A1 * B2 - A2 * B1
LINEAR = A1 - A2 - B1 + B2

K2_SPECIALIZATION = {"a1": 1, "a2": 0, "b1": 0, "b2": 1}


def inverse_monomial_coefficient(a1: int, a2: int, d1: int, d2: int) -> int:
    """Closed form for the coefficient of a1^{a1} a2^{a2} b1^{d1} b2^{d2} x^n/n!
    in the inverse series, where n = a1 + a2 + d1 + d2 + 1."""
    n = a1 + a2 + d1 + d2 + 1
    return (
        (-1) ** (n - 1)
        * factorial(a1 + a2)
        * factorial(d1 + d2)
        * comb(a1 + d1, a1)
        * comb(a2 + d2, a2)
    )


def parametric_inverse_series(order: int) -> EgfSeries:
    """EGF expansion of the logarithmic inverse, with MultiPoly coefficients.

    One series division G = L / ((cross) x + e), with L the log numerator.
    The divisor has degree 1, so the back-substitution is
    e G_n = L_n - n (cross) G_{n-1}, and each G_n is one exact division by e.
    """
    check_order(order)
    powers = [EgfSeries.exp_line(c, order, POLY) for c in (A1, B2, A2, B1)]
    sums = powers[0] + powers[1] - powers[2] - powers[3]
    # log(1 + c x) has EGF coefficient (-1)^{n-1} (n-1)! c^n
    log = [POLY.zero] + [(-1) ** (n - 1) * factorial(n - 1) * sums[n] for n in range(1, order + 1)]
    denominator = [LINEAR, CROSS] + [POLY.zero] * (order - 1)
    return EgfSeries._of(POLY, log) / EgfSeries._of(POLY, denominator[: order + 1])


def parametric_phi() -> PhiSpec:
    """F = (1+b1 F)(1+a2 F) sum_{n>=1} ((cross) F + e)^{n-1} x^n/n!."""
    return power_sum_phi("parametric-tree-phi", [LINEAR, CROSS], [1, A2 + B1, A2 * B1])


def solve_parametric_f(order: int) -> EgfSeries:
    return solve_fixed_point(parametric_phi(), order, POLY)


def verify_functional_equation(f: EgfSeries) -> bool:
    """Cross-multiplied check of the exponential functional equation."""
    if f[0] != 0:
        raise SeriesError("expects zero constant term")
    order = f.order
    one = EgfSeries.one(order, POLY)
    lhs = (one + f.scale(A1)) * (one + f.scale(B2))
    exponent = (f.scale(CROSS) + one.scale(LINEAR)).mul_by_x().truncate(order)
    rhs = (one + f.scale(A2)) * (one + f.scale(B1)) * exponent.exp()
    return lhs == rhs


def specialize_k2(series: EgfSeries) -> EgfSeries:
    """Evaluate MultiPoly coefficients at a1 = b2 = 1, a2 = b1 = 0."""
    return EgfSeries(QQ, [c.evaluate(K2_SPECIALIZATION) for c in series.coeffs])


def alternating_factorial_sum(n: int) -> int:
    """(-1)^{n-1} sum_{i=0}^{n-1} i! (n-1-i)!, the EGF coefficients of
    2 log(1+x)/(2+x)."""
    if n < 1:
        raise ValueError("n must be positive")
    return (-1) ** (n - 1) * sum(
        factorial(i) * factorial(n - 1 - i) for i in range(n)
    )


# -- bivariate ordinary-series identity ------------------------------------
#
# sum_{i,j} (i! j! / (i+j+1)!) u^i v^j  =  (log(1-u) + log(1-v)) / (uv - u - v)
#
# These are ordinary (not exponential) series; the helpers below work with
# homogeneous layers {i -> coefficient of u^i v^{t-i}}.


def beta_lhs_table(total_degree: int) -> dict[tuple[int, int], Fraction]:
    table = {}
    for t in range(total_degree + 1):
        for i in range(t + 1):
            j = t - i
            table[(i, j)] = Fraction(
                factorial(i) * factorial(j), factorial(i + j + 1)
            )
    return table


def beta_rhs_table(total_degree: int) -> dict[tuple[int, int], Fraction]:
    """Expand (log(1-u) + log(1-v)) / (uv - u - v) to the given total degree.

    The denominator's lowest part is -(u+v), so each homogeneous layer R_t is
    found from -(u+v) R_t = N_{t+1} - uv R_{t-1}, where N is the bivariate
    log numerator; dividing by (u+v) is a two-term back-substitution with a
    final consistency check.
    """
    if total_degree < 0:
        raise ValueError("total degree must be nonnegative")
    layers: list[list[Fraction]] = []
    for t in range(total_degree + 1):
        # p[i] = coefficient of u^i v^{t+1-i} in N_{t+1} - uv R_{t-1}
        p = [Fraction(0)] * (t + 2)
        p[0] -= Fraction(1, t + 1)
        p[t + 1] -= Fraction(1, t + 1)
        if t >= 1:
            prev = layers[t - 1]
            for i, c in enumerate(prev):
                p[i + 1] -= c
        # solve (u+v) q = -p
        q = [Fraction(0)] * (t + 1)
        q[0] = -p[0]
        for i in range(1, t + 1):
            q[i] = -p[i] - q[i - 1]
        if q[t] != -p[t + 1]:
            raise ArithmeticError("bivariate division bookkeeping failed")
        layers.append(q)
    return {
        (i, t - i): layers[t][i]
        for t in range(total_degree + 1)
        for i in range(t + 1)
    }


def beta_series_identity(total_degree: int) -> bool:
    """Check the bivariate beta-sum identity up to the given total degree."""
    if total_degree < 1:
        raise ValueError("total degree must be >= 1")
    return beta_lhs_table(total_degree) == beta_rhs_table(total_degree)


def beta_diagonal_egf_coefficient(n: int, table=None) -> Fraction:
    """EGF coefficient n of x * S(-x, -x) where S is the beta-sum series;
    equals alternating_factorial_sum(n) when the identity holds."""
    if n < 1:
        raise ValueError("n must be positive")
    if table is None:
        table = beta_rhs_table(n - 1)
    t = n - 1
    ordinary = sum(table[(i, t - i)] for i in range(t + 1)) * (-1) ** t
    return ordinary * factorial(n)

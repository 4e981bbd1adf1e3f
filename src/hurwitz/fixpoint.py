"""Online fixed-point solving for the functional equations.

Each equation is written as A = Phi(A), where coefficient m of Phi(A) depends
only on coefficients 0..m-1 of A (an x-adic contraction).  The solver is
online ("relaxed", after van der Hoeven, *Relax, but don't be too lazy*,
J. Symbolic Comput. 34, 2002): each map supplies a step that turns the known
prefix A_0..A_{m-1} into coefficient m of Phi(A) by extending cached powers
by one coefficient, so Phi is never re-run as a whole while solving.  One
full-order evaluation Phi(A) = A then certifies the solution.

Two checks compare a solution with the exp forms it should satisfy:
``verify_exp_form`` checks (1+A)^k = e^{x p_k(A)} in the series' own ring,
so over Z with no division, and ``verify_postnikov_form`` lifts A to Q for
the 1/2 in 1 + A = e^{(x/2)(2+A)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .rings import QQ, ZZ, binomial_rows, product_coefficient
from .series import EgfSeries, SeriesError, check_order


class NotAContractionError(SeriesError):
    """The online solution is not a fixed point of Phi: Phi is not an x-adic
    contraction, or its online step disagrees with ``apply``."""


@dataclass(frozen=True)
class PhiSpec:
    """A map Phi in the two forms the solver needs.

    ``apply`` evaluates Phi on a whole truncated series.  ``online(ring)``
    starts one solve and returns its step: called with the list
    A_0..A_{m-1}, which starts empty and grows by one coefficient per call,
    the step returns coefficient m of Phi(A).
    """

    description: str
    apply: Callable[[EgfSeries], EgfSeries]
    online: Callable[[object], Callable[[list], object]]


def solve_fixed_point(phi: PhiSpec, order: int, ring=QQ) -> EgfSeries:
    """Solve A = Phi(A) up to the given order, one coefficient per step.

    Step m sets A_m to coefficient m of Phi(A), computed online from
    A_0..A_{m-1}.  The single full-order check Phi(A) = A is what certifies
    the result; it also refutes a map that is not a contraction and an
    online step that disagrees with ``apply``.
    """
    check_order(order)
    step = phi.online(ring)
    coeffs = []
    for _ in range(order + 1):
        coeffs.append(ring.coerce(step(coeffs)))
    a = EgfSeries._of(ring, coeffs)
    if phi.apply(a) != a:
        raise NotAContractionError(
            f"{phi.description} does not fix its online solution at order {order}"
        )
    return a


def pk_of_series(k: int, a: EgfSeries) -> EgfSeries:
    """p_k(A) = C(k,1) + C(k,2) A + ... + C(k,k) A^{k-1}.

    Evaluated from the explicit binomial sum, never as ((1+A)^k - 1)/A.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    ring, order = a.ring, a.order
    row = binomial_rows(k)[k]
    result = EgfSeries.zero(order, ring)
    power = EgfSeries.one(order, ring)
    for j in range(1, k + 1):
        if j > 1:
            power = power * a
        result = result + power.scale(row[j])
    return result


def sum_powers_against_basis(p: EgfSeries) -> EgfSeries:
    """sum_{n>=1} p^{n-1} x^n/n! at p's truncation order.

    Multiplying by x^n/n! in EGF arithmetic is the shifted binomial
    coefficient, so coefficient m of the sum is
    sum_{n=1}^{m} C(m,n) (p^{n-1})_{m-n}.
    """
    ring, order = p.ring, p.order
    # (p^i)_j is read only for j <= order-1-i, so p^i is truncated there
    powers = [EgfSeries.one(order, ring)]
    for i in range(1, order):
        cut = order - 1 - i
        powers.append(powers[-1].truncate(cut) * p.truncate(cut))
    rows = binomial_rows(order)
    coeffs = [ring.zero]
    for m in range(1, order + 1):
        acc = ring.zero
        for n in range(1, m + 1):
            acc = acc + rows[m][n] * powers[n - 1][m - n]
        coeffs.append(acc)
    return EgfSeries(ring, coeffs)


def online_power_sums(ring):
    """``sum_powers_against_basis`` online: returns a function that gives one
    coefficient of the sum per call, as p becomes known.

    Called with p_0..p_{m-1}, a list grown by one coefficient since the
    previous call, it returns coefficient m of the sum.  That needs the
    anti-diagonal (p^i)_{m-1-i}, i < m, which needs only p_0..p_{m-2}:
    ``powers[i]`` holds the known coefficients of p^i, and each call extends
    every power by one coefficient and starts the next power.
    """
    powers: list[list] = []

    def next_coefficient(p: list):
        m = len(p)
        if m == 0:
            return ring.zero
        powers.append([])
        row = binomial_rows(m)[m]
        acc = ring.zero
        for i, power in enumerate(powers):
            j = m - 1 - i
            if i == 0:
                c = ring.one if j == 0 else ring.zero
            else:
                c = product_coefficient(powers[i - 1], p, j, ring)
            power.append(c)
            acc = acc + row[i + 1] * c
        return acc

    return next_coefficient


def am_phi(k: int) -> PhiSpec:
    """Phi(A) = sum_{n>=1} p_k(A)^{n-1} x^n/n!, the Hurwitz-making form."""
    if k < 1:
        raise ValueError("k must be a positive integer")

    def apply(a: EgfSeries) -> EgfSeries:
        return sum_powers_against_basis(pk_of_series(k, a))

    def online(ring):
        a_powers: list[list] = [[] for _ in range(k)]  # A^0..A^{k-1}
        row = binomial_rows(k)[k]
        p: list = []  # p_k(A)
        power_sums = online_power_sums(ring)

        def step(a: list):
            j = len(a) - 1
            if j >= 0:
                a_powers[0].append(ring.one if j == 0 else ring.zero)
                for e in range(1, k):
                    a_powers[e].append(product_coefficient(a_powers[e - 1], a, j, ring))
                pj = ring.zero
                for e in range(k):
                    pj = pj + row[e + 1] * a_powers[e][j]
                p.append(pj)
            return power_sums(p)

        return step

    return PhiSpec(description=f"tree-series-phi(k={k})", apply=apply, online=online)


def solve_tree_series(k: int, order: int) -> EgfSeries:
    """The solution A of (1+A)^k = e^{x p_k(A)} up to the given order, over
    ZZ: Phi has integer coefficients and its online steps never divide, so A
    is a Hurwitz series by construction."""
    return solve_fixed_point(am_phi(k), order, ZZ)


def verify_exp_form(a: EgfSeries, k: int) -> bool:
    """Check the paper's equation (1+A)^k = e^{x p_k(A)}, in A's own ring.

    This one form also gives the second, B = e^{x(1+B+...+B^{k-1})/k} with
    B = 1+A: since 1 + B + ... + B^{k-1} = ((1+A)^k - 1)/A = p_k(A), the
    k-th power of the second form's right side is e^{x p_k(A)}, and a k-th
    root with constant term 1 is unique (its log is 1/k of the power's), so
    it is B.  Neither side divides, so over ZZ the check runs on integers.
    """
    ring, order = a.ring, a.order
    if a.coeffs[0] != 0:
        raise SeriesError("expects zero constant term")
    one = EgfSeries.one(order, ring)
    b = one + a
    lhs = one
    for _ in range(k):
        lhs = lhs * b
    exponent = pk_of_series(k, a).mul_by_x().truncate(order)
    return lhs == exponent.exp()


def verify_postnikov_form(a: EgfSeries) -> bool:
    """Check 1 + A = e^{(x/2)(2+A)}, with A lifted to QQ for the 1/2."""
    a = a.over(QQ)
    ring, order = a.ring, a.order
    one = EgfSeries.one(order, ring)
    two_plus_a = one.scale(2) + a
    exponent = two_plus_a.mul_by_x().truncate(order).scale(Fraction(1, 2))
    return one + a == exponent.exp()

"""Independent output oracles.

Plain ``fractions`` and ``math`` code that imports nothing from ``hurwitz``:
an output that agrees with it has been checked by a route that shares no code
with the layers the benchmark times.  The benchmark calls these only outside
its timed region.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial


@lru_cache(maxsize=None)
def bernoulli_numbers(order: int) -> tuple[Fraction, ...]:
    """B_0..B_order with B_1 = -1/2, by the Akiyama-Tanigawa algorithm."""
    numbers = []
    row: list[Fraction] = []
    for m in range(order + 1):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        numbers.append(row[0])
    if order >= 1:
        numbers[1] = -numbers[1]  # the algorithm yields B_1 = +1/2
    return tuple(numbers)


def am_numbers(h: int, k: int, order: int) -> list[Fraction]:
    """M_n(h,k) = k^n (B_n(h/k) - B_n) for n <= order.

    Expanding B_n(x) = sum_j C(n,j) B_j x^(n-j) gives
    M_n = sum_{j<n} C(n,j) B_j h^(n-j) k^j, with no division by k.
    """
    b = bernoulli_numbers(order)
    return [
        sum((comb(n, j) * b[j] * h ** (n - j) * k**j for j in range(n)), Fraction(0))
        for n in range(order + 1)
    ]


def egf_product(f, g) -> list:
    """Binomial convolution (fg)_n = sum_j C(n,j) f_j g_(n-j), truncated to
    the shorter input."""
    order = min(len(f), len(g)) - 1
    return [
        sum((comb(n, j) * f[j] * g[n - j] for j in range(n + 1)), Fraction(0))
        for n in range(order + 1)
    ]


def alternating_trees(n: int) -> Fraction:
    """Postnikov's closed form a_n = sum_j C(n+1,j) j^n / ((n+1) 2^n) for the
    number of alternating trees on n+1 vertices (the k=2 tree series)."""
    total = sum(comb(n + 1, j) * j**n for j in range(n + 2))
    return Fraction(total, (n + 1) * 2**n)


def parametric_inverse_terms(n: int) -> dict[tuple[int, int, int, int], int]:
    """Monomials of coefficient n >= 1 of the four-parameter logarithmic
    inverse, keyed by exponents of (a1, a2, b1, b2):

        (-1)^(n-1) (e1+e2)! (e3+e4)! C(e1+e3, e1) C(e2+e4, e2),

    over every exponent tuple of total degree n-1 (all are nonzero).
    """
    terms = {}
    sign = (-1) ** (n - 1)
    for e1 in range(n):
        for e2 in range(n - e1):
            for e3 in range(n - e1 - e2):
                e4 = n - 1 - e1 - e2 - e3
                terms[(e1, e2, e3, e4)] = (
                    sign
                    * factorial(e1 + e2)
                    * factorial(e3 + e4)
                    * comb(e1 + e3, e1)
                    * comb(e2 + e4, e2)
                )
    return terms


def k2_specialization(terms: dict) -> Fraction:
    """A polynomial in a1, a2, b1, b2, given as exponent tuple -> coefficient,
    evaluated at a1 = b2 = 1, a2 = b1 = 0."""
    return sum(
        (c for (_, e2, e3, _), c in terms.items() if e2 == 0 and e3 == 0),
        Fraction(0),
    )


def is_integral(values) -> bool:
    return all(Fraction(v).denominator == 1 for v in values)

"""Online fixed-point solving for the functional equations.

Each equation is written as A = Phi(A), where coefficient m of Phi(A) depends
only on coefficients 0..m-1 of A (an x-adic contraction).  Both maps of the
package have the shape Phi(A) = r(A) sum_{n>=1} u(A)^{n-1} x^n/n! for
polynomials u and r.  ``power_sum_phi`` builds such a map from u and r; the
four-parameter map of :mod:`hurwitz.parametric` is built by it.  The
tree-series map (u = p_k, r = 1) is built by ``am_phi`` in exp form instead,
Phi(A) = (e^{x p} - 1)/p with p = p_k(A), which costs O(k N^2) where the sum
of powers costs O(N^3).  The solver is online ("relaxed", after van der
Hoeven, *Relax, but don't be too lazy*, J. Symbolic Comput. 34, 2002): one
step turns the known prefix A_0..A_{m-1} into coefficient m of Phi(A) by
extending cached series by one coefficient, so Phi is never re-run as a
whole while solving.  One full-order evaluation Phi(A) = A by ``apply``, a
separate code path on series, then certifies the solution.

As A p_k(A) = (1+A)^k - 1, the tree-series check Phi(A) = A is the paper's
(1+A)^k = e^{x p_k(A)}.  ``verify_exp_form`` states it directly in A's ring,
over Z with no division, and ``verify_postnikov_form`` lifts A to Q for the
1/2 in 1 + A = e^{(x/2)(2+A)}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import mul
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


def polynomial_of_series(c, a: EgfSeries) -> EgfSeries:
    """c_0 + c_1 A + ... + c_d A^d, with one series product for each of
    A^2..A^d: the powers start from A itself, never from the series 1."""
    result = EgfSeries.one(a.order, a.ring).scale(c[0])
    power = None
    for cj in c[1:]:
        power = a if power is None else power * a
        result = result + power.scale(cj)
    return result


def pk_of_series(k: int, a: EgfSeries) -> EgfSeries:
    """p_k(A) = C(k,1) + C(k,2) A + ... + C(k,k) A^{k-1}.

    Evaluated from the explicit binomial sum, never as ((1+A)^k - 1)/A.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    return polynomial_of_series(binomial_rows(k)[k][1:], a)


def sum_powers_against_basis(p: EgfSeries) -> EgfSeries:
    """sum_{n>=1} p^{n-1} x^n/n! at p's truncation order.

    Multiplying by x^n/n! in EGF arithmetic is the shifted binomial
    coefficient, so coefficient m of the sum is
    sum_{n=1}^{m} C(m,n) (p^{n-1})_{m-n}, one ``ring.dot``.
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
        terms = [powers[n - 1][m - n] for n in range(1, m + 1)]
        coeffs.append(ring.dot(rows[m][1:], terms, repeat(ring.one)))
    return EgfSeries._of(ring, coeffs)


def online_polynomials(ring, *polys):
    """The online evaluation of polynomials c(A) = c_0 + c_1 A + ... + c_d A^d,
    given as coefficient lists: the returned function, called with A_0..A_j,
    extends the known coefficients of A^2..A^d by coefficient j and returns
    [c(A)_j for each c]."""
    a_powers: list[list] = [[] for _ in range(max(map(len, polys)) - 2)]  # A^2, A^3, ...

    def extend(a: list) -> list:
        j = len(a) - 1
        prev = a
        for power in a_powers:
            power.append(product_coefficient(prev, a, j, ring))
            prev = power
        column = [a[j]] + [power[j] for power in a_powers]  # (A^e)_j, e >= 1
        return [sum(map(mul, c[1:], column), c[0] if j == 0 else ring.zero) for c in polys]

    return extend


def power_sum_phi(description: str, u, r) -> PhiSpec:
    """Phi(A) = r(A) sum_{n>=1} u(A)^{n-1} x^n/n! for polynomials u and r,
    given as coefficient lists u_0..u_d and r_0..r_e.

    ``apply`` evaluates this on series.  The online step keeps the known
    coefficients of A^2..A^max(d,e), of u(A) and r(A), and of the powers
    u(A)^2, u(A)^3, ...; each call extends every one of them by one
    coefficient and starts the next power of u(A).  Coefficient m of the
    sum, acc_m, needs u(A) only up to index m-2, and coefficient m of
    Phi(A) is sum_{j<m} C(m,j) r(A)_j acc_{m-j}: the j = m term is
    r(A)_m acc_0 with acc_0 = 0, so the unknown A_m is never needed.  Each
    of the two sums is one ``ring.dot``.
    """

    def apply(a: EgfSeries) -> EgfSeries:
        return polynomial_of_series(r, a) * sum_powers_against_basis(polynomial_of_series(u, a))

    def online(ring):
        evaluate = online_polynomials(ring, u, r)
        u_powers: list[list] = []  # u(A)^2, u(A)^3, ...
        u_of_a, r_of_a, acc = [], [], [ring.zero]

        def step(a: list):
            m = len(a)
            if m == 0:
                return ring.zero
            u_j, r_j = evaluate(a)
            u_of_a.append(u_j)
            r_of_a.append(r_j)
            # acc_m = sum_{n=1}^{m} C(m,n) (u^{n-1})_{m-n}; u^{m-1} starts here
            row = binomial_rows(m)[m]
            if m > 2:
                u_powers.append([])
            prev = u_of_a
            for n, power in enumerate(u_powers, 3):
                power.append(product_coefficient(prev, u_of_a, m - n, ring))
                prev = power
            if m == 1:
                acc.append(ring.one)
            else:
                # (u^{n-1})_{m-n} for n = 2..m
                terms = [u_of_a[m - 2], *(power[-1] for power in u_powers)]
                acc.append(ring.dot(row[2:], terms, repeat(ring.one)))
            return ring.dot(row[:m], r_of_a, acc[m:0:-1])

        return step

    return PhiSpec(description=description, apply=apply, online=online)


def am_phi(k: int) -> PhiSpec:
    """Phi(A) = sum_{n>=1} p^{n-1} x^n/n! with p = p_k(A), the
    Hurwitz-making form, evaluated as (e^{xp} - 1)/p: the sum times p is
    sum_{n>=1} p^n x^n/n! = e^{xp} - 1 (Postnikov's form of the equation,
    *Intransitive trees*, JCTA 79, 1997).

    ``apply`` is k - 2 series products for p, one ``exp`` and one exact
    series division by p.  The online step keeps the known coefficients of
    A^2..A^{k-1}, of p, of E = e^{xp} and of S = Phi(A).  Step m extends
    each power by coefficient m - 1 and computes p_{m-1}.  From
    E' = (xp)' E, with (xp)'_j = (j+1) p_j,
    E_m = sum_{j<m} C(m-1,j) (j+1) p_j E_{m-1-j}; and coefficient m of
    p S = E - 1, with p_0 = k and S_0 = 0, is
    S_m = (E_m - sum_{i=1}^{m-1} C(m,i) p_i S_{m-i}) / k, one
    ``ring.divide``.  A step costs O(km).  S is the power sum of p, which
    is integral when A is, so over ZZ the division never leaves a remainder;
    it raises if one does.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")

    def apply(a: EgfSeries) -> EgfSeries:
        p = pk_of_series(k, a)
        e = p.mul_by_x().truncate(a.order).exp()
        return (e - EgfSeries.one(a.order, a.ring)) / p

    def online(ring):
        evaluate = online_polynomials(ring, binomial_rows(k)[k][1:])  # p_k
        p, dxp, e, s = [], [], [ring.one], [ring.zero]  # dxp = (xp)'

        def step(a: list):
            m = len(a)
            if m == 0:
                return ring.zero
            j = m - 1
            p.extend(evaluate(a))
            dxp.append(m * p[j])
            e.append(product_coefficient(dxp, e, j, ring))
            row = binomial_rows(m)[m]
            # C(m,i) p_i S_{m-i} for i = 1..m-1
            known = map(mul, map(mul, row[1:m], p[1:]), reversed(s[1:]))
            s.append(ring.divide(e[m] - sum(known, ring.zero), k))
            return s[m]

        return step

    return PhiSpec(description=f"tree-series-phi(k={k})", apply=apply, online=online)


def solve_tree_series(k: int, order: int) -> EgfSeries:
    """The solution A of (1+A)^k = e^{x p_k(A)} up to the given order, over
    ZZ.  Each online step divides once by k, exactly: the quotient is a
    coefficient of the power sum Phi(A), which has integer coefficients, so
    A is a Hurwitz series by construction, and a remainder would raise."""
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

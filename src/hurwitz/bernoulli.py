"""Bernoulli polynomials, Almkvist-Meurman numbers, and the proof pipeline.

The numbers M_n(h,k) = k^n (B_n(h/k) - B_n) are computed over ZZ by two
independent routes: ``m_direct_values`` from the Bernoulli numbers,
M_n = sum_{m<n} C(n,m) (k^m B_m) h^{n-m} over their common denominator d,
with one division by d per coefficient; and ``m_series`` as the EGF
coefficients of k x (e^{hx} - 1)/(e^{kx} - 1), read order by order off
(e^{kx} - 1) * gf = k x (e^{hx} - 1) with one division by n + 1 per
coefficient.  Each route scales its terms by a power of h or k fixed by the
order, so each term of its inner sum is one big-integer product.  Every
such division is an exact ``ZZ.divide``, which raises ``NonDivisibleError``
on a remainder, so neither route assumes the result is integral: each
division checks it.  ``certify`` runs the integrality argument end to end
and records every step in a machine-checkable certificate.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache, partial
from itertools import accumulate, repeat
from math import comb, factorial
from operator import mul

from .fixpoint import NotAContractionError, am_phi, solve_fixed_point
from .rings import QQ, ZZ, NonDivisibleError, binomial_rows, numerators
from .series import EgfSeries, SeriesError, check_order


@lru_cache(maxsize=None)
def bernoulli_factor(order: int) -> EgfSeries:
    """x/(e^x - 1) as an EGF; its coefficients are the Bernoulli numbers.

    One series division: the reciprocal of (e^x - 1)/x, whose EGF
    coefficients are 1/(n+1).
    """
    check_order(order)
    em1_over_x = EgfSeries(QQ, [Fraction(1, n + 1) for n in range(order + 1)])
    return em1_over_x.reciprocal()


def bernoulli_poly_at(n: int, q) -> Fraction:
    """B_n(q) for an exact rational q: coefficient n of x e^{qx}/(e^x - 1)."""
    return (EgfSeries.exp_line(Fraction(q), n) * bernoulli_factor(n))[n]


def _powers_down(base: int, order: int) -> list[int]:
    """[base^order, base^(order-1), ..., base^0]: entry n is base^(order-n)."""
    return list(accumulate(repeat(base, order), mul, initial=1))[::-1]


def m_series(h: int, k: int, order: int) -> EgfSeries:
    """k x (e^{hx} - 1)/(e^{kx} - 1) over ZZ; coefficient n is M_n(h, k).

    Coefficient n + 1 of (e^{kx} - 1) * gf = k x (e^{hx} - 1) reads
    sum_{j<=n} C(n+1, j) k^{n+1-j} gf_j = (n+1) k (h^n - [n = 0]).  Its
    term j = n is (n+1) k gf_n, so gf_0 = 0 and, for n >= 1,
    gf_n = h^n - S_n / (n+1) with S_n = sum_{j<n} C(n+1, j) k^{n-j} gf_j.
    The loop carries c_j = gf_j k^{N-j}, N the order, so that
    S_n k^{N-n} = sum_{j<n} C(n+1, j) c_j is one product per term.  One
    ``ZZ.divide`` by (n+1) k^{N-n} per coefficient gives S_n / (n+1): the
    sum is S_n k^{N-n} by construction, so the division leaves a remainder
    exactly when S_n / (n+1) would, and then it raises.  Valid for any
    nonzero integer k.
    """
    if k == 0:
        raise SeriesError("k must be nonzero")
    check_order(order)
    rows = binomial_rows(order + 1)
    k_scale = _powers_down(k, order)  # k^{N-n} at n
    gf, c, h_n = [0], [0], 1
    for n in range(1, order + 1):
        h_n *= h
        # the products stop at len(c) = n, so j < n
        s = sum(map(mul, rows[n + 1], c))
        gf.append(h_n - ZZ.divide(s, (n + 1) * k_scale[n]))
        c.append(gf[n] * k_scale[n])
    return EgfSeries._of(ZZ, gf)


def m_direct(n: int, h: int, k: int) -> int:
    """M_n(h,k) = k^n (B_n(h/k) - B_n), computed without any series division."""
    return m_direct_values(h, k, n)[n]


def m_direct_values(h: int, k: int, order: int) -> list[int]:
    """[M_0(h,k), ..., M_order(h,k)] from the Bernoulli numbers, with no
    series division.

    Expanding B_n(h/k) = sum_m C(n,m) B_m (h/k)^{n-m} and dropping the term
    m = n, which is B_n, gives
    M_n = k^n (B_n(h/k) - B_n) = sum_{m<n} C(n,m) (k^m B_m) h^{n-m}.
    With B_m = b_m / d over the common denominator d of the cached
    ``bernoulli_factor`` and w_m = k^m b_m h^{N-m}, N the order,
    h^{N-n} d M_n = sum_{m<n} C(n,m) w_m is one product per term.  Its
    division by h^{N-n} is exact by construction, and one ``ZZ.divide`` by
    d per value then gives M_n, raising on a remainder: that division is
    what refutes a wrong Bernoulli number.  For h = 0 every M_n is 0.
    """
    if k == 0:
        raise SeriesError("k must be nonzero")
    check_order(order)
    d, b = numerators(bernoulli_factor(order).coeffs)
    if h == 0:
        return [0] * (order + 1)
    rows = binomial_rows(order)
    h_scale = _powers_down(h, order)  # h^{N-m} at m
    k_powers = accumulate(repeat(k, order), mul, initial=1)  # k^m at m
    w = list(map(mul, map(mul, b, k_powers), h_scale))
    # rows[n] pairs with w[:n], so m < n
    return [ZZ.divide(sum(map(mul, rows[n], w[:n])) // h_scale[n], d) for n in range(order + 1)]


def reduction_factor(h: int, k: int, order: int) -> EgfSeries:
    """The Hurwitz series Q with Q * gf(1, |k|) = gf(h, k), from its closed
    form as a finite sum of exponentials, with no series division.

    For k > 0, Q = (e^{hx} - 1)/(e^x - 1): the sum of e^{jx} over
    j = 0..h-1 for h > 0, minus the sum over j = h..-1 for h < 0, and 0 for
    h = 0.  For k < 0, gf(h, k) = e^{|k|x} gf(h, |k|), so every j shifts by
    |k|.  Coefficient n is then the integer sum of +-(j + s)^n, s = |k| or 0,
    so Q is returned over ZZ.
    """
    if k == 0:
        raise SeriesError("k must be nonzero")
    check_order(order)
    shift = -k if k < 0 else 0
    sign = 1 if h >= 0 else -1
    bases = [j + shift for j in range(min(h, 0), max(h, 0))]
    powers = [1] * len(bases)  # (j + s)^0, with 0^0 = 1
    coeffs = []
    for _ in range(order + 1):
        coeffs.append(sign * sum(powers))
        powers = list(map(mul, powers, bases))
    return EgfSeries._of(ZZ, coeffs)


def _inverse_tree_parts(k: int, order: int) -> tuple[list[int], list[int]]:
    """The EGF coefficients of k log(1+x) and of d = ((1+x)^k - 1)/x, the
    top and bottom of ``inverse_tree_series``: l_n = k (-1)^{n-1} (n-1)!
    for n >= 1, and d_n = C(k, n+1) n! for n < k.  d has degree k - 1, and
    its list stops there."""
    # l_0 = 0, l_1 = k and l_{n+1} = -n l_n
    log = [0, *accumulate(range(1, order), lambda l_n, n: -n * l_n, initial=k)][: order + 1]
    return log, [comb(k, n + 1) * factorial(n) for n in range(min(k, order + 1))]


def inverse_tree_series(k: int, order: int) -> EgfSeries:
    """k x log(1+x) / ((1+x)^k - 1) over ZZ: the algebraic form of the
    compositional inverse of the k-tree series.

    It is one series division g = k log(1+x) / d, with d = ((1+x)^k - 1)/x
    from ``_inverse_tree_parts``.  d_0 = k and d has degree k - 1, so each
    coefficient is one exact division by k (``ZZ.divide`` raises on a
    remainder) after at most k - 1 products.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    check_order(order)
    log, d = _inverse_tree_parts(k, order)
    d += [0] * (order + 1 - len(d))
    return EgfSeries._of(ZZ, log) / EgfSeries._of(ZZ, d)


def genocchi_oracle(order: int) -> EgfSeries:
    """Genocchi numbers as 2x/(e^x + 1) over ZZ, by one series division.

    The divisor's constant term is 2, and each coefficient is one exact
    ``ZZ.divide`` by it.  Independent of ``m_series``'s route (which
    divides by (e^{kx}-1)/x), so the two may check each other.
    """
    den = EgfSeries.exp_line(1, order, ZZ) + EgfSeries.one(order, ZZ)
    return EgfSeries.basis(1, order, ZZ).scale(2) / den


STEP_NAMES = (
    "reduction-factor",
    "tree-series",
    "comp-inverse",
    "subst-exp",
    "final-equality",
)


@dataclass(frozen=True)
class CertificateStep:
    name: str
    ok: bool


@dataclass
class IntegralityCertificate:
    h: int
    k: int
    order: int
    steps: list[CertificateStep]

    @property
    def valid(self) -> bool:
        return all(s.ok for s in self.steps)

    @property
    def failing_step(self):
        return next((s.name for s in self.steps if not s.ok), None)

    def render(self) -> str:
        lines = [f"{s.name}: {'OK' if s.ok else 'FAIL (mismatch)'}" for s in self.steps]
        lines.append("CERTIFIED" if self.valid else "REFUTED")
        return "\n".join(lines)


def certify(h: int, k: int, order: int, inject_fault: str | None = None) -> IntegralityCertificate:
    """Run the full integrality argument for M_n(h,k), n <= order.

    Each step checks its equations over ZZ, with s = |k| for k < 0 and
    s = 0 otherwise:
      1. reduction-factor: Q * (e^x - 1) = e^{(s+h)x} - e^{sx}.  Its
         coefficient n + 1 pins Q_n, so the equation fixes Q_0..Q_{N-1},
         every coefficient that step 5's product reads.  Q is integral by
         construction, a signed sum of integer powers.
      2. tree-series: the solve's own check Phi(A) = A for |k|, with
         Phi(A) = sum_{n>=1} p^{n-1} x^n/n! and p = p_|k|(A), evaluated as
         (e^{xp} - 1)/p.  A is integral by the paper's lemma: Phi(A) has
         integer coefficients when A has, so each online step's one division
         by |k| is exact, and a remainder would raise.
      3. comp-inverse: g = |k| x log(1+x)/((1+x)^{|k|} - 1), integral
         because its divisions by |k| are exact, is A's compositional
         inverse.  One product over ZZ shows it: d g = |k| log(1+x), with
         d = ((1+x)^{|k|} - 1)/x of degree |k| - 1, so d(y) = p_|k|(y).
         Step 2's Phi(A) = A says e^{xp} - 1 = A p = (1+A)^{|k|} - 1, whose
         log is |k| log(1+A) = x p.  Substituting A for y in d g and using
         that gives g(A) p = |k| log(1+A) = x p, and p_0 = |k| is nonzero,
         so g(A) = x.  No step after step 2 reads A, so the A that the
         solve checked is the only A in the certificate.
      4. subst-exp: g composed with e^x - 1 equals gf(1,|k|); the
         composite is an integer (Stirling) combination of g's
         coefficients, and ``m_series`` divides exactly by n + 1.
      5. final-equality: Q * gf(1,|k|) = gf(h,k), and both routes to
         M_n(h,k) agree coefficient by coefficient.  ``m_direct_values``
         divides exactly by the Bernoulli denominator, so every M_n is an
         integer or the step fails.

    The certificate stops at the first failing step, since each later step
    reads that step's output.  A ``NonDivisibleError`` (a remainder) or a
    ``NotAContractionError`` raised inside a step is that step's failure.

    ``inject_fault`` adds 1 to coefficient min(2, order - 1) of the named
    step's output, in its own ring; for tree-series the online step adds it,
    so the solve's check refutes it.  Coefficient N of Q is read by no
    equation, which is why the fault sits below the order.  It exists so the
    refutation path is testable.
    """
    if k == 0:
        raise SeriesError("k must be nonzero")
    if order < 1:
        # step 1 pins Q only below the order, so at order 0 no step would
        # read any coefficient
        raise SeriesError(f"certify needs order >= 1, got {order}")
    if inject_fault is not None and inject_fault not in STEP_NAMES:
        raise ValueError(f"unknown step {inject_fault!r}")
    ka, n = abs(k), min(2, order - 1)

    def corrupt(series: EgfSeries, step: str) -> EgfSeries:
        if inject_fault != step:
            return series
        return series.with_coefficient(n, series[n] + 1)

    phi = am_phi(ka)
    if inject_fault == "tree-series":
        online = phi.online

        def faulty_online(ring):
            step = online(ring)
            return lambda a: step(a) + 1 if len(a) == n else step(a)

        phi = replace(phi, online=faulty_online)

    def checks() -> Iterator[bool]:
        # one outcome per entry of STEP_NAMES; each step runs only once the
        # previous outcome has been read
        s = max(-k, 0)
        exp = partial(EgfSeries.exp_line, order=order, ring=ZZ)
        q = corrupt(reduction_factor(h, k, order), "reduction-factor")
        yield q * (exp(1) - EgfSeries.one(order, ZZ)) == exp(s + h) - exp(s)
        solve_fixed_point(phi, order, ZZ)  # raises unless Phi(A) = A
        yield True
        # coefficient m of d g read off d's |k| terms
        g = corrupt(inverse_tree_series(ka, order), "comp-inverse")
        log, d = _inverse_tree_parts(ka, order)
        rows = binomial_rows(order)
        yield log == [
            sum(map(mul, map(mul, rows[m], d), g.coeffs[m::-1])) for m in range(order + 1)
        ]
        gf_base = m_series(1, ka, order)
        yield corrupt(g.subst_exp_minus_one(), "subst-exp") == gf_base
        gf_hk = corrupt(m_series(h, k, order), "final-equality")
        yield q * gf_base == gf_hk and list(gf_hk.coeffs) == m_direct_values(h, k, order)

    steps = []
    outcomes = checks()
    for name in STEP_NAMES:
        try:
            ok = next(outcomes)
        except (NonDivisibleError, NotAContractionError):
            ok = False
        steps.append(CertificateStep(name, ok))
        if not ok:
            break
    return IntegralityCertificate(h=h, k=k, order=order, steps=steps)

"""Bernoulli polynomials, Almkvist-Meurman numbers, and the proof pipeline.

The numbers M_n(h,k) = k^n (B_n(h/k) - B_n) are computed over ZZ by two
independent routes: ``m_direct_values`` from the Bernoulli numbers,
M_n = sum_{m<n} C(n,m) (k^m B_m) h^{n-m}, one integer convolution over their
common denominator d followed by one division by d per coefficient; and
``m_series`` as the EGF coefficients of k x (e^{hx} - 1)/(e^{kx} - 1), read
order by order off (e^{kx} - 1) * gf = k x (e^{hx} - 1) with one division by
n + 1 per coefficient.  Every such division is an exact ``ZZ.divide``, which
raises ``NonDivisibleError`` on a remainder, so neither route assumes the
result is integral: each division checks it.  ``certify`` runs the
integrality argument end to end and records every step in a
machine-checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from operator import mul

from .fixpoint import solve_tree_series
from .rings import QQ, ZZ, binomial_rows, int_convolve, numerators
from .series import EgfSeries, IntegralityReport, SeriesError, check_order

_ONE_HALF = Fraction(1, 2)


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


def m_series(h: int, k: int, order: int) -> EgfSeries:
    """k x (e^{hx} - 1)/(e^{kx} - 1) over ZZ; coefficient n is M_n(h, k).

    Coefficient n + 1 of (e^{kx} - 1) * gf = k x (e^{hx} - 1) reads
    sum_{j<=n} C(n+1, j) k^{n+1-j} gf_j = (n+1) k (h^n - [n = 0]).  Its
    term j = n is (n+1) k gf_n, so gf_0 = 0 and, for n >= 1,
    gf_n = h^n - S_n / (n+1) with S_n = sum_{j<n} C(n+1, j) k^{n-j} gf_j:
    one ``ZZ.divide`` per coefficient, which raises on a remainder.  Valid
    for any nonzero integer k.
    """
    if k == 0:
        raise SeriesError("k must be nonzero")
    check_order(order)
    rows = binomial_rows(order + 1)
    k_rev = [k**e for e in range(order, 0, -1)]  # k^order, ..., k^1
    gf = [0]
    for n in range(1, order + 1):
        # the products stop at len(gf) = n, so j < n; k_rev[order - n:] is
        # k^n, k^{n-1}, ...
        s = sum(map(mul, map(mul, rows[n + 1], gf), k_rev[order - n:]))
        gf.append(h**n - ZZ.divide(s, n + 1))
    return EgfSeries._of(ZZ, gf)


def m_direct(n: int, h: int, k: int) -> int:
    """M_n(h,k) = k^n (B_n(h/k) - B_n), computed without any series division."""
    return m_direct_values(h, k, n)[n]


def m_direct_values(h: int, k: int, order: int) -> list[int]:
    """[M_0(h,k), ..., M_order(h,k)] from the Bernoulli numbers, with no
    series division.

    Expanding B_n(h/k) = sum_m C(n,m) B_m (h/k)^{n-m} and dropping the term
    m = n, which is B_n, gives
    M_n = k^n (B_n(h/k) - B_n) = sum_{m<n} C(n,m) (k^m B_m) h^{n-m}:
    one ``int_convolve`` of [0, h, h^2, ...] against k^m b_m, where
    B_m = b_m / d over the common denominator d of the cached
    ``bernoulli_factor``, and one ``ZZ.divide`` by d per coefficient, which
    raises on a remainder.
    """
    if k == 0:
        raise SeriesError("k must be nonzero")
    check_order(order)
    d, b = numerators(bernoulli_factor(order).coeffs)
    kb = [b_m * k**m for m, b_m in enumerate(b)]
    h_powers = [0] + [h**n for n in range(1, order + 1)]
    return [ZZ.divide(s, d) for s in int_convolve(h_powers, kb)]


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


def inverse_tree_series(k: int, order: int) -> EgfSeries:
    """k x log(1+x) / ((1+x)^k - 1) over ZZ: the algebraic form of the
    compositional inverse of the k-tree series.

    It is one series division g = k log(1+x) / d, with d = ((1+x)^k - 1)/x.
    The EGF coefficients are l_n = k (-1)^{n-1} (n-1)! for n >= 1 on top and
    d_n = C(k, n+1) n! below, so d_0 = k and d has degree k - 1: each
    coefficient is one exact division by k (``ZZ.divide`` raises on a
    remainder) after at most k - 1 products.  ``certify`` compares g with
    the order-by-order inverse.
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    check_order(order)
    # l_0 = 0, l_1 = k and l_{n+1} = -n l_n
    log = [0, *accumulate(range(1, order), lambda l_n, n: -n * l_n, initial=k)][: order + 1]
    d = [comb(k, n + 1) * factorial(n) if n < k else 0 for n in range(order + 1)]
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
    report: IntegralityReport
    equality_ok: bool = True

    @property
    def ok(self) -> bool:
        return self.report.integral and self.equality_ok


@dataclass
class IntegralityCertificate:
    h: int
    k: int
    order: int
    steps: list[CertificateStep] = field(default_factory=list)
    final_equality: bool = False

    @property
    def valid(self) -> bool:
        return self.final_equality and all(s.ok for s in self.steps)

    @property
    def failing_step(self):
        for s in self.steps:
            if not s.ok:
                return s.name
        return None

    def render(self) -> str:
        lines = []
        for s in self.steps:
            if s.ok:
                lines.append(f"{s.name}: OK")
            elif not s.report.integral:
                value = s.report.fail_value
                shown = value.render() if hasattr(value, "render") else str(value)
                lines.append(
                    f"{s.name}: FAIL at n={s.report.first_fail_index}, value={shown}"
                )
            else:
                lines.append(f"{s.name}: FAIL (mismatch)")
        lines.append("CERTIFIED" if self.valid else "REFUTED")
        return "\n".join(lines)


def certify(h: int, k: int, order: int, inject_fault: str | None = None) -> IntegralityCertificate:
    """Run the full integrality argument for M_n(h,k), n <= order.

    Steps recorded, in order:
      1. reduction-factor: Q, built from its closed form as a finite sum of
         exponentials, is integral.
      2. tree-series: the fixed-point solution A for |k| is integral.
      3. comp-inverse: A's compositional inverse is integral and equals the
         algebraic series |k| x log(1+x)/((1+x)^{|k|} - 1), both over ZZ.
      4. subst-exp: substituting e^x - 1 into the inverse gives gf(1,|k|),
         and the result is integral.
      5. final-equality: Q * gf(1,|k|) = gf(h,k), and both computation
         routes agree coefficient by coefficient.

    Step 1 is integral by construction; that Q is the quotient
    gf(h,k)/gf(1,|k|) is checked by step 5's product, which reads
    Q_0..Q_{N-1}, every coefficient that M_0..M_N depend on.  Every step runs
    over ZZ, so step 4 compares g with gf(1,|k|) directly.  A is integral by
    construction: Phi has integer coefficients and the online steps never
    divide.  Step 3 is integral because its divisions by m! are exact
    ``ZZ.divide`` calls, which raise on a remainder; step 4 is integral by
    construction, each coefficient an integer combination (Stirling numbers
    of the second kind) of the inverse's.  That every M_n is an integer
    rests on the same kind of division: ``m_series`` divides by n + 1 and
    ``m_direct_values`` by the Bernoulli denominator, each an exact
    ``ZZ.divide``, so a non-integral M_n raises ``NonDivisibleError``.

    ``inject_fault`` adds 1/2 to one coefficient of the named step's series,
    lifted to QQ; it exists so the refutation path is testable.  Steps 4 and
    5 compare in the ring of that step's series, so a lifted series meets
    its partners over QQ.
    """
    if k == 0:
        raise SeriesError("k must be nonzero")
    if order < 1:
        # the comp-inverse step needs the tree series' linear term
        raise SeriesError(f"certify needs order >= 1, got {order}")
    if inject_fault is not None and inject_fault not in STEP_NAMES:
        raise ValueError(f"unknown step {inject_fault!r}")
    cert = IntegralityCertificate(h=h, k=k, order=order)
    ka = abs(k)

    def corrupt(series: EgfSeries, step: str) -> EgfSeries:
        if inject_fault != step:
            return series
        series = series.over(QQ)  # 1/2 is not an element of ZZ
        n = min(2, series.order)
        return series.with_coefficient(n, series[n] + _ONE_HALF)

    q = corrupt(reduction_factor(h, k, order), "reduction-factor")
    cert.steps.append(CertificateStep("reduction-factor", q.integrality_report()))

    a = corrupt(solve_tree_series(ka, order), "tree-series")
    cert.steps.append(CertificateStep("tree-series", a.integrality_report()))

    inv = corrupt(a.comp_inverse(), "comp-inverse")
    cert.steps.append(
        CertificateStep(
            "comp-inverse",
            inv.integrality_report(),
            equality_ok=inv == inverse_tree_series(ka, order),
        )
    )

    g = corrupt(inv.subst_exp_minus_one(), "subst-exp")
    gf_base = m_series(1, ka, order)
    cert.steps.append(
        CertificateStep(
            "subst-exp", g.integrality_report(), equality_ok=g == gf_base.over(g.ring)
        )
    )

    gf_hk = m_series(h, k, order)
    direct = m_direct_values(h, k, order)
    final_ok = (
        inject_fault != "final-equality"
        and q * gf_base.over(q.ring) == gf_hk.over(q.ring)
        and list(gf_hk.coeffs) == direct
    )
    cert.steps.append(
        CertificateStep(
            "final-equality", gf_hk.integrality_report(), equality_ok=final_ok
        )
    )
    cert.final_equality = final_ok
    return cert

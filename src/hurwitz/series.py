"""Truncated exponential-generating-function arithmetic over a coefficient ring.

An :class:`EgfSeries` of order N stores coefficients c_0..c_N of the series
sum c_n x^n / n!.  With this normalization the product is a binomial
convolution and "all coefficients are integers" is literally "every c_n has
denominator 1", which is the predicate the whole package certifies.

Every operation runs in every coefficient ring.  Division, and so the
reciprocal and log, is the ring's ``quotient`` kernel; over ZZ and POLY it
divides exactly.  ``compose`` and ``comp_inverse`` are integral by
construction (see ``_divided_powers``); the one division left is by f_1^n.

All operations are pure and check ring/order compatibility; nothing truncates
silently.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul, neg, sub
from typing import NamedTuple, Optional

from .rings import QQ, binomial_rows, product_coefficient


class SeriesError(ValueError):
    """Precondition or ring/order compatibility failure."""


def check_order(order: int) -> None:
    """Reject a negative truncation order, naming it."""
    if order < 0:
        raise SeriesError(f"order must be >= 0, got {order}")


class IntegralityReport(NamedTuple):
    integral: bool
    first_fail_index: Optional[int] = None
    fail_value: object = None


class EgfSeries:
    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        self.ring = ring
        self.coeffs = tuple(ring.coerce(c) for c in coeffs)
        if not self.coeffs:
            raise SeriesError("a series needs at least the constant term")

    @classmethod
    def _of(cls, ring, coeffs):
        """A series on coefficients that the ring's own arithmetic produced,
        so already ring elements: no ``coerce`` call per coefficient.  Every
        kernel below builds its result through this; outside input goes
        through ``EgfSeries(ring, coeffs)``."""
        series = cls.__new__(cls)
        series.ring = ring
        series.coeffs = tuple(coeffs)
        return series

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, n):
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, EgfSeries):
            return NotImplemented
        return self.ring is other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ring), self.coeffs))

    def __repr__(self):
        shown = ", ".join(self.ring.render(c) for c in self.coeffs)
        return f"EgfSeries[{self.ring.name}]([{shown}])"

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, order, ring=QQ):
        check_order(order)
        return cls._of(ring, [ring.zero] * (order + 1))

    @classmethod
    def one(cls, order, ring=QQ):
        check_order(order)
        return cls._of(ring, [ring.one] + [ring.zero] * order)

    @classmethod
    def basis(cls, n, order, ring=QQ):
        """x^n / n! as an EGF: the single coefficient c_n = 1."""
        check_order(order)
        if n > order:
            raise SeriesError(f"basis index {n} exceeds order {order}")
        coeffs = [ring.zero] * (order + 1)
        coeffs[n] = ring.one
        return cls._of(ring, coeffs)

    @classmethod
    def exp_line(cls, slope, order, ring=QQ):
        """e^{slope * x}: coefficients slope^n.  Slope may be any ring element."""
        check_order(order)
        slope = ring.coerce(slope)
        coeffs = [ring.one]
        for _ in range(order):
            coeffs.append(coeffs[-1] * slope)
        return cls._of(ring, coeffs)

    # -- ring-compatibility plumbing --------------------------------------

    def _check(self, other):
        if self.ring is not other.ring:
            raise SeriesError(
                f"ring mismatch: {self.ring.name} vs {other.ring.name}"
            )
        if self.order != other.order:
            raise SeriesError(
                f"order mismatch: {self.order} vs {other.order}"
            )

    def over(self, ring):
        """The same coefficients, coerced into another ring (to compare a
        series over Z with one over Q, say: equality needs the same ring)."""
        return EgfSeries(ring, self.coeffs)

    def with_coefficient(self, n, value):
        """Copy with coefficient n replaced (used by fault injection)."""
        coeffs = list(self.coeffs)
        coeffs[n] = value
        return EgfSeries(self.ring, coeffs)

    def truncate(self, order):
        if order > self.order:
            raise SeriesError("cannot extend a truncated series")
        check_order(order)
        return EgfSeries._of(self.ring, self.coeffs[: order + 1])

    def extend(self, order):
        """Pad with zero coefficients up to the given order."""
        if order < self.order:
            raise SeriesError("extend cannot shrink a series")
        return EgfSeries._of(
            self.ring, self.coeffs + (self.ring.zero,) * (order - self.order)
        )

    # -- linear operations -------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return EgfSeries._of(self.ring, map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        self._check(other)
        return EgfSeries._of(self.ring, map(sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return EgfSeries._of(self.ring, map(neg, self.coeffs))

    def scale(self, c):
        c = self.ring.coerce(c)
        return EgfSeries._of(self.ring, [c * a for a in self.coeffs])

    # -- multiplicative structure ------------------------------------------

    def __mul__(self, other):
        """Binomial convolution (fg)_n = sum_j C(n,j) f_j g_{n-j}, run by the
        coefficient ring's ``convolve``."""
        self._check(other)
        return EgfSeries._of(self.ring, self.ring.convolve(self.coeffs, other.coeffs))

    def __truediv__(self, other):
        """g with other * g = self, by the coefficient ring's ``quotient``:
        over ZZ and POLY a remainder raises ``NonDivisibleError``."""
        self._check(other)
        if other.coeffs[0] == 0:
            raise SeriesError("division by a series with constant term 0")
        return EgfSeries._of(self.ring, self.ring.quotient(self.coeffs, other.coeffs))

    def reciprocal(self):
        """g with self * g = 1: the series division 1 / self."""
        return EgfSeries.one(self.order, self.ring) / self

    def div_by_x(self):
        """f/x for f with zero constant term: order drops by one and
        c'_n = c_{n+1} / (n+1)."""
        if self.coeffs[0] != 0:
            raise SeriesError("not divisible by x")
        if self.order == 0:
            raise SeriesError("order too small to divide by x")
        return EgfSeries._of(
            self.ring,
            [self.ring.divide(self.coeffs[n + 1], n + 1) for n in range(self.order)],
        )

    def mul_by_x(self):
        """x * f, raising the order by one: c'_{n+1} = (n+1) c_n."""
        coeffs = [self.ring.zero]
        for n, c in enumerate(self.coeffs):
            coeffs.append((n + 1) * c)
        return EgfSeries._of(self.ring, coeffs)

    # -- composition -------------------------------------------------------

    def compose(self, inner):
        """self(inner(x)) for inner with zero constant term.

        Coefficient n >= 1 is sum_{1<=m<=n} f_m (inner^m/m!)_n, one
        ``ring.dot`` over ``_divided_powers(inner)``, which has no division:
        the composite of Hurwitz series is one by construction."""
        self._check(inner)
        ring = self.ring
        if inner.coeffs[0] != 0:
            raise SeriesError("compose requires inner constant term 0")
        table, coeffs = _divided_powers(inner), self.coeffs
        return EgfSeries._of(ring, [coeffs[0], *(
            ring.dot(repeat(1), coeffs[1:], [table[m][n - m] for m in range(1, n + 1)])
            for n in range(1, self.order + 1)
        )])

    def comp_inverse(self):
        """g with g(self(x)) = x (hence also self(g(x)) = x), solved order
        by order.

        Coefficient n of g(f) = sum_m g_m f^m/m! = x is linear in g_n, with
        the f^m/m! read off ``_divided_powers(self)``; its slope f_1^n is the
        one ``ring.divide``, where over ZZ and POLY a linear term other than 1
        or -1 may leave a remainder."""
        ring = self.ring
        if self.order < 1:
            raise SeriesError(f"compositional inverse needs order >= 1, got {self.order}")
        if self.coeffs[0] != 0:
            raise SeriesError("compositional inverse requires constant term 0")
        if self.coeffs[1] == 0:
            raise SeriesError("compositional inverse requires nonzero linear term")
        table = _divided_powers(self)
        g = [ring.zero]
        for n in range(1, self.order + 1):
            acc = ring.dot(repeat(1), g[1:], [table[m][n - m] for m in range(1, n)])
            g.append(ring.divide((ring.one if n == 1 else ring.zero) - acc, table[n][0]))
        return EgfSeries._of(ring, g)

    # -- exp / log ---------------------------------------------------------

    def exp(self):
        """e^f for f with zero constant term, from y' = f' y, y(0) = 1."""
        ring = self.ring
        if self.coeffs[0] != 0:
            raise SeriesError("exp requires constant term 0")
        deriv = self.coeffs[1:]
        y = [ring.one]
        for n in range(self.order):
            y.append(product_coefficient(deriv, y, n, ring))
        return EgfSeries._of(ring, y)

    def log(self):
        """log f for f with constant term 1, as the antiderivative of f'/f."""
        ring = self.ring
        if self.coeffs[0] != 1:
            raise SeriesError("log requires constant term 1")
        if self.order == 0:
            return EgfSeries.zero(0, ring)
        quot = EgfSeries._of(ring, self.coeffs[1:]) / self.truncate(self.order - 1)
        return EgfSeries._of(ring, (ring.zero,) + quot.coeffs)

    def subst_exp_minus_one(self):
        """Compose with e^x - 1: coefficient n is sum_m S(n, m) c_m, where
        S(n, m) are the Stirling numbers of the second kind (Comtet,
        *Advanced Combinatorics*, section 5.1), grown row by row with
        S(n, m) = m S(n-1, m) + S(n-1, m-1).  Each coefficient is an integer
        combination of the c_m, so there is no division, and the result is
        integral whenever self is.  O(N^2), against O(N^3) for ``compose``.
        """
        coeffs = self.coeffs
        out = [coeffs[0]]
        row = [1]  # S(n, 0..n), from S(0, 0) = 1
        for n in range(1, self.order + 1):
            # S(n, 0) = 0 for n >= 1, so c_0 only reaches the constant term
            row = [0, *[m * row[m] + row[m - 1] for m in range(1, n)], 1]
            out.append(sum(map(mul, row, coeffs), self.ring.zero))
        return EgfSeries._of(self.ring, out)

    # -- integrality and rendering ----------------------------------------

    def integrality_report(self) -> IntegralityReport:
        for n, c in enumerate(self.coeffs):
            if not self.ring.is_integral(c):
                return IntegralityReport(False, n, c)
        return IntegralityReport(True)

    def render(self) -> str:
        """One coefficient per line, "n<TAB>c_n"."""
        return "\n".join(
            f"{n}\t{self.ring.render(c)}" for n, c in enumerate(self.coeffs)
        )


def _divided_powers(f):
    """t[m][n - m] = (f^m/m!)_n for 0 <= m <= n <= N, f of order N with zero
    constant term: the partial Bell polynomials (Comtet, *Advanced
    Combinatorics*, section 3.3).  Columns 0 and 1 are 1 and f; since
    (f^m/m!)' = f' f^{m-1}/(m-1)!, column m >= 2 is one ``ring.dot`` per entry,
    (f^m/m!)_n = sum_{j=1}^{n-m+1} C(n-1, j-1) f_j (f^{m-1}/(m-1)!)_{n-j},
    with integer scalars and no division, so t is integral whenever f is."""
    ring, order = f.ring, f.order
    rows, lower = binomial_rows(order), f.coeffs[1:]
    table = [[ring.one] + [ring.zero] * order, list(lower)]
    for m in range(2, order + 1):
        prev = table[-1]
        table.append([ring.dot(rows[n - 1], lower, prev[n - m::-1]) for n in range(m, order + 1)])
    return table

"""Exact coefficient arithmetic: rationals, integers and sparse 4-variable
polynomials.

Three coefficient rings are provided behind a common contract: Q
(``RationalRing``), Z (``IntegerRing``, Python ints) and Z[a1,a2,b1,b2]
(``PolyRing``, sparse polynomials with integer coefficients from
:mod:`hurwitz.poly`).  The series engine in :mod:`hurwitz.series` is generic
over all three, series division included.  Over Z and Z[a1,a2,b1,b2]
``divide`` is exact and raises ``NonDivisibleError`` on a remainder, so a
Hurwitz series computed there is integral by construction.

The contract holds only what the elements cannot do themselves: ``name``,
``zero``, ``one``, ``coerce``, ``is_integral``, ``divide``, ``dot``,
``convolve``, ``quotient`` and ``render``.  Elements of every ring add,
multiply, take int scalars and compare with the ints 0 and 1 through ``==``,
so ``scale(2)`` and ``c == 0`` need no ring method.

The contract also owns the series kernels.  ``dot(s, f, g)``, the sum of
s_i f_i g_i for int s_i, is the per-coefficient kernel: every EGF product
coefficient of the online steps and of ``exp`` is one ``dot`` through
``product_coefficient``, and so is each coefficient of ``compose`` and each
sum of ``power_sum_phi``.  Over Z and Q it is the ring's own sum of products
(``generic_dot``); over Z[a1,a2,b1,b2] it is fused (``poly.dot``), adding
every term pair of every product into one term map.  The two O(n^2) kernels
are ``convolve`` and ``quotient``.  ``convolve`` is the EGF product:
``int_convolve`` over Z, the same loop on integer numerators over a common
denominator over Q, and one ``dot`` per coefficient over Z[a1,a2,b1,b2].
``quotient`` is the g with c * g = b: ``exact_quotient`` over Z and
Z[a1,a2,b1,b2], and over Q ``int_quotient``, the same back-substitution on
integer numerators with a running common denominator.  Every kernel reads
its binomial coefficients from one shared table of Pascal rows
(``binomial_rows``), grown to the largest order asked for.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import islice
from math import lcm
from operator import add, mul, sub

from . import poly
from .poly import VARIABLES, MultiPoly, NonDivisibleError, as_poly  # noqa: F401  (re-exports)


def render_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def numerators(coeffs) -> tuple[int, list[int]]:
    """(d, [c * d for c in coeffs]) with d the lcm of the denominators."""
    d = lcm(*[c.denominator for c in coeffs])
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _next_binomial_row(row: tuple[int, ...]) -> tuple[int, ...]:
    """C(n+1, 0..n+1) from C(n, 0..n)."""
    return (1, *map(add, row, row[1:]), 1)


# row n is C(n, 0..n); only ever appended to
_BINOMIAL_ROWS: list[tuple[int, ...]] = [(1,)]


def binomial_rows(top: int) -> list[tuple[int, ...]]:
    """The shared Pascal rows, grown by Pascal's rule to hold row ``top``:
    entry n is the tuple C(n, 0..n).  The list is shared; do not modify it."""
    rows = _BINOMIAL_ROWS
    while len(rows) <= top:
        rows.append(_next_binomial_row(rows[-1]))
    return rows


def int_convolve(f, g) -> list[int]:
    """(fg)_n = sum_j C(n,j) f_j g_{n-j} for equal-length int sequences f
    and g."""
    top = len(f) - 1
    rows = binomial_rows(top)
    g_rev = g[::-1]
    # g_rev[top - n:] is g_n, g_{n-1}, ..., g_0
    return [sum(map(mul, rows[n], map(mul, f, g_rev[top - n:]))) for n in range(top + 1)]


def int_quotient(b, c) -> list[Fraction]:
    """g with c * g = b for equal-length int sequences b and c:
    g_n = (b_n - sum_{j<n} C(n,j) g_j c_{n-j}) / c_0.

    The known g_0..g_{n-1} are kept as integer numerators G over their lcm
    denominator L, so g_n = (L b_n - sum_{j<n} C(n,j) G_j c_{n-j}) / (L c_0)
    is one Fraction per coefficient, on integers the size of the result's.
    Raises ZeroDivisionError if c_0 = 0.
    """
    top = len(c) - 1
    c0 = c[0]
    c_rev = c[::-1]
    rows = binomial_rows(top)
    g, g_nums, den = [], [], 1
    for n, b_n in enumerate(b):
        # the products stop at len(g_nums) = n, so j < n; c_rev[top - n:] is
        # c_n, c_{n-1}, ...
        s = sum(map(mul, map(mul, rows[n], g_nums), c_rev[top - n:]))
        q = Fraction(den * b_n - s, den * c0)
        g.append(q)
        if den % q.denominator:
            scale = lcm(den, q.denominator) // den
            den *= scale
            g_nums = [x * scale for x in g_nums]
        g_nums.append(q.numerator * (den // q.denominator))
    return g


def exact_quotient(ring, b, c) -> list:
    """g with c * g = b, bound as ``quotient`` on ZZ and POLY:
    g_n = (b_n - sum_{1<=i<=min(n,d)} C(n,i) c_i g_{n-i}) / c_0 by the ring's
    exact ``divide``, which raises on a remainder.  d is the degree of c, so
    a polynomial divisor costs O(dN)."""
    d = len(c) - 1
    while d and c[d] == 0:
        d -= 1
    c0, tail = c[0], c[1 : d + 1]
    rows = binomial_rows(len(b) - 1)
    g = []
    for n, b_n in enumerate(b):
        # C(n,i) c_i g_{n-i} for i = 1, 2, ..., stopping at min(n, d) terms
        known = map(mul, map(mul, islice(rows[n], 1, None), tail), reversed(g))
        g.append(ring.divide(reduce(sub, known, b_n), c0))
    return g


def generic_dot(ring, scalars, f, g):
    """sum_i s_i f_i g_i in the ring's own arithmetic, summed from the ring's
    zero; bound as ``dot`` on QQ and ZZ."""
    return sum(map(mul, map(mul, scalars, f), g), ring.zero)


def product_coefficient(f, g, n: int, ring):
    """Coefficient n of the EGF product of coefficient lists f and g:
    sum_j C(n,j) f_j g_{n-j}, one ``ring.dot``."""
    return ring.dot(binomial_rows(n)[n], f, g[n::-1])


def _as_int(value) -> int:
    if isinstance(value, int):
        return value
    raise TypeError(f"cannot coerce {value!r} to an integer")


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational")


class RationalRing:
    """Coefficient-ring contract over exact rationals."""

    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, c) -> Fraction:
        return _as_fraction(c)

    def is_integral(self, c) -> bool:
        return _as_fraction(c).denominator == 1

    def divide(self, c, n) -> Fraction:
        return c / n

    dot = generic_dot

    def convolve(self, f, g) -> list[Fraction]:
        """(fg)_n = sum_j C(n,j) f_j g_{n-j} for equal-length f and g.

        Each operand is scaled once to integer numerators over its lcm
        denominator; ``int_convolve`` runs the sums, and one Fraction is
        built per output coefficient.
        """
        df, f_nums = numerators(f)
        dg, g_nums = numerators(g)
        d = df * dg
        return [Fraction(s, d) for s in int_convolve(f_nums, g_nums)]

    def quotient(self, b, c) -> list[Fraction]:
        """g with c * g = b for equal-length b and c.

        b and c are scaled once to integer numerators B over E and C over D;
        then (E C) * g = D B, which ``int_quotient`` solves.  Raises
        ZeroDivisionError if c_0 = 0.
        """
        e, b_nums = numerators(b)
        d, c_nums = numerators(c)
        return int_quotient([d * x for x in b_nums], [e * x for x in c_nums])

    def render(self, c) -> str:
        return render_rational(_as_fraction(c))


class IntegerRing:
    """Coefficient-ring contract over Python ints: Z.

    ``coerce`` accepts only ints (a ``Fraction`` is rejected even when its
    denominator is 1), and ``divide`` is exact.
    """

    name = "Z"

    zero = 0
    one = 1

    coerce = staticmethod(_as_int)

    def is_integral(self, c) -> bool:
        _as_int(c)
        return True

    def divide(self, c, n: int) -> int:
        """c / n; NonDivisibleError on a remainder."""
        q, r = divmod(c, n)
        if r:
            raise NonDivisibleError(r)
        return q

    dot = generic_dot
    convolve = staticmethod(int_convolve)
    quotient = exact_quotient

    def render(self, c) -> str:
        return str(_as_int(c))


class PolyRing:
    """Coefficient-ring contract over MultiPoly: Z[a1, a2, b1, b2]."""

    name = "Z[a1,a2,b1,b2]"

    zero = MultiPoly()
    one = MultiPoly.constant(1)

    coerce = staticmethod(as_poly)

    def is_integral(self, c) -> bool:
        as_poly(c)  # the coefficients are ints by construction
        return True

    def divide(self, c, n) -> MultiPoly:
        """c / n for an int or polynomial n; NonDivisibleError on a remainder."""
        return as_poly(c).exact_div(n)

    dot = staticmethod(poly.dot)

    def convolve(self, f, g) -> list[MultiPoly]:
        """(fg)_n = sum_j C(n,j) f_j g_{n-j} for equal-length f and g, one
        fused ``dot`` per coefficient."""
        rows = binomial_rows(len(f) - 1)
        return [self.dot(rows[n], f, g[n::-1]) for n in range(len(f))]

    quotient = exact_quotient

    def render(self, c) -> str:
        return as_poly(c).render()


QQ = RationalRing()
ZZ = IntegerRing()
POLY = PolyRing()

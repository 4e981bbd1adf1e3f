"""Exact coefficient arithmetic: rationals and sparse 4-variable polynomials.

Two coefficient rings are provided behind a common contract (``RationalRing``
and ``PolyRing``): exact arbitrary-precision rationals, and sparse polynomials
in the four indeterminates a1, a2, b1, b2 with rational coefficients.  The
series engine in :mod:`hurwitz.series` is generic over either ring.

The contract also owns the two O(n^2) series kernels, ``convolve`` (the EGF
product) and ``reciprocal`` (triangular back-substitution), so each ring runs
them in its own arithmetic: ``RationalRing`` on Python ints, scaled once to
integer numerators over a common denominator, and ``PolyRing`` term by term.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from operator import add, mul

VARIABLES = ("a1", "a2", "b1", "b2")


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(f"not exactly divisible; remainder {remainder}")


def rational(numerator, denominator=1) -> Fraction:
    """Canonical lowest-terms rational; raises ZeroDivisionError on d = 0."""
    if denominator == 0:
        raise ZeroDivisionError("division by zero")
    return Fraction(numerator, denominator)


def binomial(n: int, k: int) -> int:
    """C(n, k) for n >= 0; zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError("binomial requires n >= 0")
    if k < 0 or k > n:
        return 0
    return comb(n, k)


def render_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def product_coefficient(f, g, n: int, ring):
    """Coefficient n of the EGF product of coefficient lists f and g, in the
    ring's own arithmetic."""
    acc = ring.zero
    for j in range(n + 1):
        acc = acc + comb(n, j) * f[j] * g[n - j]
    return acc


def _numerators(coeffs) -> tuple[int, list[int]]:
    """(d, [c * d for c in coeffs]) with d the lcm of the denominators."""
    d = lcm(*[c.denominator for c in coeffs])
    return d, [c.numerator * (d // c.denominator) for c in coeffs]


def _next_binomial_row(row: list[int]) -> list[int]:
    """C(n+1, 0..n+1) from C(n, 0..n)."""
    return [1, *map(add, row, row[1:]), 1]


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot coerce {value!r} to a rational")


class MultiPoly:
    """Sparse polynomial in a1, a2, b1, b2 with Fraction coefficients.

    Terms are a map from exponent 4-tuples to nonzero coefficients; equality
    is map equality, so the representation is canonical.  Instances are
    immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for exps, coeff in terms.items():
                coeff = _as_fraction(coeff)
                if coeff == 0:
                    continue
                exps = tuple(exps)
                if len(exps) != 4 or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps}")
                clean[exps] = coeff
        self._terms = clean

    @staticmethod
    def constant(value) -> "MultiPoly":
        return MultiPoly({(0, 0, 0, 0): _as_fraction(value)})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        exps = [0, 0, 0, 0]
        exps[VARIABLES.index(name)] = 1
        return MultiPoly({tuple(exps): Fraction(1)})

    @property
    def terms(self):
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_constant(self) -> bool:
        return all(e == (0, 0, 0, 0) for e in self._terms)

    def constant_value(self) -> Fraction:
        return self._terms.get((0, 0, 0, 0), Fraction(0))

    def coefficient(self, exps) -> Fraction:
        return self._terms.get(tuple(exps), Fraction(0))

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self._terms.values())

    def total_degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(e) == degree for e in self._terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == MultiPoly.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for exps, coeff in other._terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return MultiPoly(terms)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly({e: -c for e, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
        return MultiPoly(terms)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        scalar = _as_fraction(scalar)
        return MultiPoly({e: c / scalar for e, c in self._terms.items()})

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(other)
        return NotImplemented

    def evaluate(self, assignment) -> Fraction:
        """Exact value at an assignment {a1: q, a2: q, b1: q, b2: q}."""
        values = tuple(_as_fraction(assignment[v]) for v in VARIABLES)
        total = Fraction(0)
        for exps, coeff in self._terms.items():
            term = coeff
            for value, e in zip(values, exps):
                term *= value**e
            total += term
        return total

    def _leading(self):
        # fixed monomial order: lexicographic with a1 > a2 > b1 > b2
        exps = max(self._terms)
        return exps, self._terms[exps]

    def exact_div(self, divisor: "MultiPoly") -> "MultiPoly":
        """Quotient q with q * divisor == self; NonDivisibleError otherwise.

        Single-divisor multivariate division on the lex order; a nonzero
        remainder is always an error, never truncated away.
        """
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        d_exps, d_coeff = divisor._leading()
        quotient = {}
        remainder = {}
        work = dict(self._terms)
        while work:
            exps = max(work)
            coeff = work.pop(exps)
            diff = tuple(a - b for a, b in zip(exps, d_exps))
            if any(e < 0 for e in diff):
                remainder[exps] = coeff
                continue
            q = coeff / d_coeff
            quotient[diff] = quotient.get(diff, Fraction(0)) + q
            for e2, c2 in divisor._terms.items():
                if e2 == d_exps:
                    continue
                tgt = tuple(a + b for a, b in zip(diff, e2))
                new = work.get(tgt, Fraction(0)) - q * c2
                if new == 0:
                    work.pop(tgt, None)
                else:
                    work[tgt] = new
        if remainder:
            raise NonDivisibleError(MultiPoly(remainder))
        return MultiPoly(quotient)

    def render(self) -> str:
        """Monomials in descending lex order, e.g. ``-a1 - 2*a2*b1^2 + 1/2``."""
        if not self._terms:
            return "0"
        parts = []
        for exps in sorted(self._terms, reverse=True):
            coeff = self._terms[exps]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(VARIABLES, exps)
                if e > 0
            ]
            mag = render_rational(abs(coeff))
            if factors and mag == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([mag] + factors)
            else:
                body = mag
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"{'+' if coeff > 0 else '-'} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self.render()})"


class RationalRing:
    """Coefficient-ring contract over exact rationals."""

    name = "Q"

    zero = Fraction(0)
    one = Fraction(1)

    def from_int(self, n: int) -> Fraction:
        return Fraction(n)

    def coerce(self, c) -> Fraction:
        return _as_fraction(c)

    def is_zero(self, c) -> bool:
        return c == 0

    def is_one(self, c) -> bool:
        return c == 1

    def is_unit(self, c) -> bool:
        return c != 0

    def invert(self, c) -> Fraction:
        if c == 0:
            raise ZeroDivisionError("division by zero")
        return 1 / _as_fraction(c)

    def is_integral(self, c) -> bool:
        return _as_fraction(c).denominator == 1

    def convolve(self, f, g) -> list[Fraction]:
        """(fg)_n = sum_j C(n,j) f_j g_{n-j} for equal-length f and g.

        Each operand is scaled once to integer numerators over its lcm
        denominator; the sums run on ints, and one Fraction is built per
        output coefficient.
        """
        df, f_nums = _numerators(f)
        dg, g_nums = _numerators(g)
        d = df * dg
        top = len(f_nums) - 1
        g_rev = g_nums[::-1]
        out = []
        row = [1]
        for n in range(top + 1):
            if n:
                row = _next_binomial_row(row)
            # g_rev[top - n:] is g_n, g_{n-1}, ..., g_0
            out.append(Fraction(sum(map(mul, row, map(mul, f_nums, g_rev[top - n:]))), d))
        return out

    def reciprocal(self, c) -> list[Fraction]:
        """g with c * g = 1: g_n = -(1/c_0) sum_{j<n} C(n,j) g_j c_{n-j}.

        c is scaled once to integer numerators C over its lcm denominator D,
        and the known g_0..g_{n-1} are kept as integer numerators G over
        their lcm denominator L, so g_n = -sum_j C(n,j) G_j C_{n-j} / (L C_0)
        is one Fraction per coefficient, on integers the size of the
        result's.  Raises ZeroDivisionError if c_0 = 0.
        """
        d, c_nums = _numerators(c)
        top = len(c_nums) - 1
        c0 = c_nums[0]
        c_rev = c_nums[::-1]
        g = [Fraction(d, c0)]
        den, g_nums = g[0].denominator, [g[0].numerator]
        row = [1]
        for n in range(1, top + 1):
            row = _next_binomial_row(row)
            # the products stop at len(g_nums) = n, so j < n; c_rev[top - n:]
            # is c_n, c_{n-1}, ...
            s = sum(map(mul, map(mul, row, g_nums), c_rev[top - n:]))
            q = Fraction(-s, den * c0)
            g.append(q)
            if den % q.denominator:
                scale = lcm(den, q.denominator) // den
                den *= scale
                g_nums = [x * scale for x in g_nums]
            g_nums.append(q.numerator * (den // q.denominator))
        return g

    def render(self, c) -> str:
        return render_rational(_as_fraction(c))


class PolyRing:
    """Coefficient-ring contract over MultiPoly in a1, a2, b1, b2."""

    name = "Q[a1,a2,b1,b2]"

    zero = MultiPoly()
    one = MultiPoly.constant(1)

    def from_int(self, n: int) -> MultiPoly:
        return MultiPoly.constant(n)

    def coerce(self, c) -> MultiPoly:
        return self._coerce(c)

    def is_zero(self, c) -> bool:
        return self._coerce(c).is_zero()

    def is_one(self, c) -> bool:
        return self._coerce(c) == self.one

    def is_unit(self, c) -> bool:
        c = self._coerce(c)
        return c.is_constant() and not c.is_zero()

    def invert(self, c) -> MultiPoly:
        c = self._coerce(c)
        if not self.is_unit(c):
            raise ZeroDivisionError(f"{c.render()} is not a unit")
        return MultiPoly.constant(1 / c.constant_value())

    def is_integral(self, c) -> bool:
        return self._coerce(c).is_integral()

    def convolve(self, f, g) -> list[MultiPoly]:
        """(fg)_n = sum_j C(n,j) f_j g_{n-j} for equal-length f and g."""
        return [product_coefficient(f, g, n, self) for n in range(len(f))]

    def reciprocal(self, c) -> list[MultiPoly]:
        """g with c * g = 1, by triangular back-substitution; c_0 must be a
        unit."""
        inv0 = self.invert(c[0])
        g = [inv0]
        for n in range(1, len(c)):
            acc = self.zero
            for j in range(n):
                acc = acc + comb(n, j) * g[j] * c[n - j]
            g.append(-(inv0 * acc))
        return g

    def render(self, c) -> str:
        return self._coerce(c).render()

    @staticmethod
    def _coerce(c) -> MultiPoly:
        if isinstance(c, MultiPoly):
            return c
        return MultiPoly.constant(c)


QQ = RationalRing()
POLY = PolyRing()

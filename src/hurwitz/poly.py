"""Sparse polynomials in a1, a2, b1, b2 with integer coefficients.

A monomial a1^e1 a2^e2 b1^e3 b2^e4 is one int key
((e1*B + e2)*B + e3)*B + e4 with B = 2^FIELD_BITS (Kronecker substitution),
so a product of monomials is a sum of keys.  The top bit of each field is a
guard: exponents stay below it, a sum of two keys cannot carry from one field
into the next, and a product that sets a guard bit raises OverflowError
instead of wrapping.  With the guards clear, integer order on keys is the lex
order a1 > a2 > b1 > b2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from operator import or_

VARIABLES = ("a1", "a2", "b1", "b2")

# 8-bit fields allow exponents up to 127 and keep a key with e1 < 64 below
# 2^30, a one-digit int, which CPython adds and hashes fastest
FIELD_BITS = 8
MAX_EXPONENT = (1 << (FIELD_BITS - 1)) - 1
_SHIFTS = tuple(FIELD_BITS * i for i in (3, 2, 1, 0))
_GUARD = sum(1 << (s + FIELD_BITS - 1) for s in _SHIFTS)
_FIELD = (1 << FIELD_BITS) - 1


class NonDivisibleError(ArithmeticError):
    """Exact polynomial division left a nonzero remainder."""

    def __init__(self, remainder):
        self.remainder = remainder
        super().__init__(f"not exactly divisible; remainder {remainder}")


def _pack(exps) -> int:
    exps = tuple(exps)
    if len(exps) != 4 or any(not 0 <= e <= MAX_EXPONENT for e in exps):
        raise ValueError(f"bad exponent tuple {exps}")
    key = 0
    for e in exps:
        key = (key << FIELD_BITS) | e
    return key


def _unpack(key: int) -> tuple[int, ...]:
    return tuple((key >> s) & _FIELD for s in _SHIFTS)


def _degrees(terms: dict) -> tuple[int, ...]:
    """The largest exponent of each variable over the (nonempty) keys."""
    return tuple(max((key >> s) & _FIELD for key in terms) for s in _SHIFTS)


def _poly(terms: dict) -> "MultiPoly":
    """A MultiPoly on already packed keys and nonzero int coefficients."""
    p = object.__new__(MultiPoly)
    p._terms = terms
    return p


def _check_exponents(terms: dict) -> dict:
    bits = 0
    for key in terms:
        bits |= key
    if bits & _GUARD:
        raise OverflowError(f"an exponent exceeds {MAX_EXPONENT}")
    return terms


class MultiPoly:
    """Sparse polynomial in a1, a2, b1, b2 with int coefficients.

    Terms are a map from packed monomial keys to nonzero coefficients;
    equality is map equality, so the representation is canonical.  Instances
    are immutable.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        """From a map {(e1, e2, e3, e4): int}; a coefficient of any other type
        is a TypeError."""
        clean = {}
        for exps, coeff in (terms or {}).items():
            if not isinstance(coeff, int):
                raise TypeError(f"coefficient {coeff!r} is not an integer")
            if coeff:
                clean[_pack(exps)] = coeff
        self._terms = clean

    @staticmethod
    def constant(value) -> "MultiPoly":
        return MultiPoly({(0, 0, 0, 0): value})

    @staticmethod
    def variable(name: str) -> "MultiPoly":
        return _poly({1 << _SHIFTS[VARIABLES.index(name)]: 1})

    @property
    def terms(self) -> dict[tuple[int, ...], int]:
        return {_unpack(k): c for k, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, exps) -> int:
        return self._terms.get(_pack(exps), 0)

    def is_homogeneous(self, degree: int) -> bool:
        return all(sum(_unpack(k)) == degree for k in self._terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        a, b = self._terms, as_poly(other)._terms
        if len(a) < len(b):
            a, b = b, a
        terms = a.copy()
        for k, c in b.items():
            c += terms.get(k, 0)
            if c:
                terms[k] = c
            else:
                del terms[k]
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-as_poly(other))

    def __rsub__(self, other):
        return as_poly(other) - self

    def __mul__(self, other):
        a, b = self._terms, as_poly(other)._terms
        if len(a) < len(b):
            a, b = b, a
        terms = {}
        get = terms.get
        for k2, c2 in b.items():
            for k1, c1 in a.items():
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
        return _poly(_check_exponents({k: c for k, c in terms.items() if c}))

    __rmul__ = __mul__

    def evaluate(self, assignment) -> Fraction:
        """Exact value at a rational assignment {a1: q, a2: q, b1: q, b2: q}."""
        values = [assignment[v] for v in VARIABLES]
        if not all(isinstance(x, (int, Fraction)) for x in values):
            raise TypeError(f"cannot evaluate at {assignment!r}")
        total = Fraction(0)
        for key, coeff in self._terms.items():
            term = Fraction(coeff)
            for value, e in zip(values, _unpack(key)):
                term *= value**e
            total += term
        return total

    def exact_div(self, divisor) -> "MultiPoly":
        """Quotient q with q * divisor == self; NonDivisibleError otherwise.

        Single-divisor division on the lex order over the integers: a term
        whose monomial or coefficient the divisor's leading term does not
        divide goes to the remainder, and a nonzero remainder is always an
        error, never truncated away.  So does a term whose quotient step
        would exceed deg_v(self) - deg_v(divisor) (or a bound above it) in
        some variable v: a multiple s * divisor has deg_v(s) = deg_v(self) -
        deg_v(divisor), and division by one polynomial is unique, so exact
        division never needs such a step.  That bound also keeps every
        exponent in range, and stops a non-multiple of high degree early.
        The divisor may be an int.
        """
        d_terms = as_poly(divisor)._terms
        if not d_terms:
            raise ZeroDivisionError("division by zero polynomial")
        lead = max(d_terms)
        lead_coeff = d_terms[lead]
        rest = [(k, c) for k, c in d_terms.items() if k != lead]
        # field v of top bounds the quotient's exponent of v: field v of the
        # OR of self's keys is at least deg_v(self), and cheaper to find.  A
        # one-term divisor adds no terms to the work, so it needs no bound.
        top = (MAX_EXPONENT,) * 4
        if rest and self._terms:
            top = [a - b for a, b in zip(_unpack(reduce(or_, self._terms)), _degrees(d_terms))]
            if min(top) < 0:
                raise NonDivisibleError(self)
        top = _pack(top) | _GUARD
        quotient, remainder = {}, {}
        work = self._terms.copy()
        # a max-heap of the keys that entered work, as negated ints (a sorted
        # list is a heap); a key popped after it cancelled out of work is
        # skipped.  Every target diff + k2 is below the key just taken, so
        # keys still leave in decreasing lex order.
        heap = sorted(-key for key in work)
        while heap:
            key = -heappop(heap)
            coeff = work.pop(key, 0)
            if not coeff:
                continue
            q, r = divmod(coeff, lead_coeff)
            diff = key - lead
            # the monomial divides iff no field of key - lead borrows from its
            # guard, and the step is within the degree bound iff no field of
            # top - diff does
            if r or ((key | _GUARD) - lead) & _GUARD != _GUARD or (top - diff) & _GUARD != _GUARD:
                remainder[key] = coeff
                continue
            quotient[diff] = q
            for k2, c2 in rest:
                target = diff + k2
                c = work.get(target)
                if c is None:
                    work[target] = -q * c2
                    heappush(heap, -target)
                elif c := c - q * c2:
                    work[target] = c
                else:
                    del work[target]
        if remainder:
            raise NonDivisibleError(_poly(remainder))
        return _poly(quotient)

    def render(self) -> str:
        """Monomials in descending lex order, e.g. ``-a1 - 2*a2*b1^2 + 3``."""
        if not self._terms:
            return "0"
        parts = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
            factors = [
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(VARIABLES, _unpack(key))
                if e > 0
            ]
            mag = str(abs(coeff))
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


def as_poly(value) -> MultiPoly:
    """value itself if a MultiPoly, else the constant polynomial of the int
    value; any other type is a TypeError."""
    if isinstance(value, MultiPoly):
        return value
    if isinstance(value, int):
        return _poly({0: value} if value else {})
    raise TypeError(f"coefficient {value!r} is not an integer")


def dot(scalars, fs, gs) -> MultiPoly:
    """sum_i s_i f_i g_i for int s_i and MultiPoly f_i, g_i, as one product.

    Each pair scales the shorter polynomial's coefficients once by s_i and
    adds every term pair k1 + k2 into one map, so no constant polynomial,
    partial product or partial sum is built; zero scalars and empty
    polynomials are skipped.  Zero entries are dropped and the exponents
    checked once, at the end, because only the sum is a result: a pass per
    pair would cost a sweep of the map each time, and a key that sets a guard
    bit and then cancels is not in the sum, so it is dropped, as in
    ``__mul__``, while one that survives raises OverflowError.
    """
    terms = {}
    get = terms.get
    for s, f, g in zip(scalars, fs, gs):
        a, b = f._terms, g._terms
        if not (s and a and b):
            continue
        if len(a) < len(b):
            a, b = b, a
        for k2, c2 in b.items():
            c2 *= s
            for k1, c1 in a.items():
                k = k1 + k2
                terms[k] = get(k, 0) + c1 * c2
    return _poly(_check_exponents({k: c for k, c in terms.items() if c}))

import re
from fractions import Fraction
from functools import reduce
from math import comb
from operator import add, or_
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hurwitz import poly, rings
from hurwitz.poly import MAX_EXPONENT, VARIABLES
from hurwitz.rings import (
    POLY,
    QQ,
    ZZ,
    MultiPoly,
    NonDivisibleError,
    binomial_rows,
    product_coefficient,
    render_rational,
)
from hurwitz.series import EgfSeries

A1 = MultiPoly.variable("a1")
A2 = MultiPoly.variable("a2")
B1 = MultiPoly.variable("b1")
B2 = MultiPoly.variable("b2")


# what the elements cannot do themselves; every ring provides exactly this
CONTRACT = {"name", "zero", "one", "coerce", "is_integral", "divide", "dot", "convolve", "quotient", "render"}


@pytest.mark.parametrize("ring", [QQ, ZZ, POLY], ids=lambda ring: ring.name)
def test_ring_contract(ring):
    assert {attr for attr in dir(ring) if not attr.startswith("_")} == CONTRACT


class TestRational:
    def test_render(self):
        assert render_rational(Fraction(1, 2)) == "1/2"
        assert render_rational(Fraction(-17)) == "-17"

    def test_integrality(self):
        assert not QQ.is_integral(Fraction(1, 2))
        assert QQ.is_integral(Fraction(-17))


class TestInteger:
    def test_divide_is_exact(self):
        assert ZZ.divide(-12, 4) == -3
        assert ZZ.divide(10**40, 2**40) == 5**40
        assert type(ZZ.divide(6, 3)) is int

    @pytest.mark.parametrize("c, n", [(7, 2), (-7, 2), (1, 3), (10**40 + 1, 10)])
    def test_divide_raises_on_remainder(self, c, n):
        with pytest.raises(NonDivisibleError):
            ZZ.divide(c, n)

    @pytest.mark.parametrize("value", [Fraction(1, 2), Fraction(3), 1.0, "3"])
    def test_coerce_rejects_non_int(self, value):
        with pytest.raises(TypeError, match=re.escape(repr(value))):
            ZZ.coerce(value)

    def test_units(self):
        # a series is invertible over Z exactly when its constant term is a
        # unit, and compositionally when its linear term is: 1 and -1 divide
        # every step, 2 leaves a remainder
        for unit in (1, -1):
            f = EgfSeries(ZZ, [unit, 3, -5, 7])
            assert f * f.reciprocal() == EgfSeries.one(3, ZZ)
            g = EgfSeries(ZZ, [0, unit, -5, 7])
            assert g.compose(g.comp_inverse()) == EgfSeries.basis(1, 3, ZZ)
        with pytest.raises(NonDivisibleError):
            EgfSeries(ZZ, [2, 3, -5, 7]).reciprocal()
        with pytest.raises(NonDivisibleError):
            EgfSeries(ZZ, [0, 2, -5, 7]).comp_inverse()

    def test_integral_and_render(self):
        assert ZZ.is_integral(-17)
        assert ZZ.render(-17) == "-17"


class TestMultiPoly:
    def test_eval_determinant_like(self):
        p = A1 * B2 - A2 * B1
        assert p.evaluate({"a1": 1, "a2": 0, "b1": 0, "b2": 1}) == 1

    def test_eval_linear(self):
        p = A1 - A2 - B1 + B2
        assert p.evaluate({"a1": 1, "a2": 0, "b1": 0, "b2": 1}) == 2

    def test_eval_zero(self):
        assert MultiPoly().evaluate({"a1": 5, "a2": 1, "b1": 2, "b2": 3}) == 0

    def test_exact_div_difference_of_squares(self):
        p = A1 * A1 - B1 * B1
        assert p.exact_div(A1 - B1) == A1 + B1

    def test_exact_div_zero_dividend(self):
        assert MultiPoly().exact_div(A1) == MultiPoly()

    def test_exact_div_witness(self):
        with pytest.raises(NonDivisibleError) as exc:
            A1.exact_div(B1)
        assert not exc.value.remainder.is_zero()

    def test_integrality(self):
        with pytest.raises(TypeError, match=r"Fraction\(1, 2\)"):
            MultiPoly({(0, 1, 0, 0): Fraction(1, 2)})
        with pytest.raises(TypeError, match=r"Fraction\(1, 2\)"):
            Fraction(1, 2) * A2
        with pytest.raises(TypeError, match=r"Fraction\(3, 1\)"):
            POLY.coerce(Fraction(3))
        assert POLY.is_integral(3 * A1 * B2 - 17 * A2)

    def test_exact_div_out_of_range_step_is_not_divisible(self):
        # the step a1*a2^30 / a1 would need a2^130 from the a2^100 term; a
        # multiple of the divisor never does, so it is a remainder, not an
        # OverflowError
        divisor = MultiPoly({(1, 0, 0, 0): 1, (0, 100, 0, 0): 1})
        with pytest.raises(NonDivisibleError):
            MultiPoly({(1, 30, 0, 0): 1}).exact_div(divisor)
        s = MultiPoly({(0, 27, 0, 0): 1, (1, 0, 0, 0): 2})
        assert (s * divisor).exact_div(divisor) == s

    def test_exact_div_stops_at_the_degree_bound(self):
        # a multiple of the divisor has degree >= 1 in b2; a1^61 has none, so
        # it is a remainder at once, not after expanding thousands of terms
        divisor = MultiPoly({(3, 0, 0, 0): 1, (2, 0, 0, 1): 1, (0, 0, 1, 0): 1, (0, 0, 0, 0): 1})
        a1_61 = MultiPoly({(61, 0, 0, 0): 1})
        with pytest.raises(NonDivisibleError) as exc:
            a1_61.exact_div(divisor)
        assert exc.value.remainder == a1_61
        s = MultiPoly({(58, 0, 0, 0): 1, (0, 3, 0, 1): -2})
        assert (s * divisor).exact_div(divisor) == s
        # a step past deg_a2 = 1 of the quotient is a remainder too
        with pytest.raises(NonDivisibleError):
            MultiPoly({(63, 2, 0, 0): 1, (0, 0, 0, 0): 1}).exact_div(
                MultiPoly({(3, 0, 0, 0): 1, (2, 1, 0, 0): 1})
            )

    def test_render(self):
        p = -A1 - A2 - B1 - B2
        assert p.render() == "-a1 - a2 - b1 - b2"
        assert (3 - A1 - 2 * A2 * B1 * B1).render() == "-a1 - 2*a2*b1^2 + 3"
        assert MultiPoly().render() == "0"

    def test_exponent_overflow_raises(self):
        for i in range(4):
            top = [0, 0, 0, 0]
            top[i] = MAX_EXPONENT
            x = MultiPoly({tuple(top): 1})
            var = MultiPoly.variable(VARIABLES[i])
            with pytest.raises(OverflowError):
                x * var
            with pytest.raises(OverflowError):
                x * (var + 1)
            # a neighbouring variable's field does not overflow
            assert (x * MultiPoly.variable(VARIABLES[i - 1])).terms
        half = MultiPoly({(MAX_EXPONENT // 2 + 1, 0, 0, 0): 1})
        assert (half * MultiPoly({(MAX_EXPONENT // 2, 0, 0, 0): 1})).terms == {
            (MAX_EXPONENT, 0, 0, 0): 1
        }
        with pytest.raises(OverflowError):
            half * half
        with pytest.raises(ValueError):
            MultiPoly({(0, 0, MAX_EXPONENT + 1, 0): 1})

    def test_non_integer_quotient_raises(self):
        with pytest.raises(NonDivisibleError):
            (3 * A1).exact_div(2 * A1)
        assert (6 * A1 * B2 - 4 * B2).exact_div(2 * B2) == 3 * A1 - 2


# -- property tests --------------------------------------------------------

fractions_64 = st.fractions(
    min_value=-(2**32), max_value=2**32, max_denominator=2**32
)


@given(fractions_64, fractions_64, fractions_64)
def test_rational_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z


# ReferencePoly is the tuple-keyed, Fraction-valued MultiPoly that ran the
# parametric series before MultiPoly moved to packed keys and int
# coefficients; it is kept only as the oracle for the property tests below.


class ReferencePoly:
    def __init__(self, terms):
        self.terms = {tuple(e): Fraction(c) for e, c in terms.items() if c != 0}

    def __add__(self, other):
        terms = dict(self.terms)
        for exps, coeff in other.terms.items():
            terms[exps] = terms.get(exps, Fraction(0)) + coeff
        return ReferencePoly(terms)

    def __neg__(self):
        return ReferencePoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(a + b for a, b in zip(e1, e2))
                terms[exps] = terms.get(exps, Fraction(0)) + c1 * c2
        return ReferencePoly(terms)

    def evaluate(self, assignment):
        values = [Fraction(assignment[v]) for v in VARIABLES]
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, exps):
                term *= value**e
            total += term
        return total

    def exact_div(self, divisor):
        """The lex-order division over the rationals; None on a remainder.

        Division by one polynomial is unique, so when self = s * divisor the
        quotient terms are the terms of s, and deg_v(s) = deg_v(self) -
        deg_v(divisor) in each variable v.  The first remainder term, or the
        first quotient term past that degree, decides None without running
        the rest of the division (which, on a high-degree non-multiple, can
        take seconds)."""
        d_exps = max(divisor.terms)
        d_coeff = divisor.terms[d_exps]
        top = [
            max((e[v] for e in self.terms), default=0) - max(e[v] for e in divisor.terms)
            for v in range(len(d_exps))
        ]
        quotient = {}
        work = dict(self.terms)
        while work:
            exps = max(work)
            coeff = work.pop(exps)
            diff = tuple(a - b for a, b in zip(exps, d_exps))
            if any(e < 0 or e > t for e, t in zip(diff, top)):
                return None
            q = coeff / d_coeff
            quotient[diff] = quotient.get(diff, Fraction(0)) + q
            for e2, c2 in divisor.terms.items():
                if e2 == d_exps:
                    continue
                tgt = tuple(a + b for a, b in zip(diff, e2))
                new = work.get(tgt, Fraction(0)) - q * c2
                if new == 0:
                    work.pop(tgt, None)
                else:
                    work[tgt] = new
        return ReferencePoly(quotient)

    def render(self):
        if not self.terms:
            return "0"
        parts = []
        for exps in sorted(self.terms, reverse=True):
            coeff = self.terms[exps]
            factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARIABLES, exps) if e > 0]
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


def ref(p: MultiPoly) -> ReferencePoly:
    return ReferencePoly(p.terms)


# small exponents, and exponents whose pairwise sums reach the packing limit
exponent = st.one_of(st.integers(0, 3), st.integers(MAX_EXPONENT // 2 - 2, MAX_EXPONENT // 2))
exponents = st.tuples(*[exponent] * 4)
small_coeffs = st.integers(-9, 9)
int_coeffs = st.one_of(small_coeffs, st.integers(-(2**100), 2**100))
polys = st.dictionaries(exponents, int_coeffs, max_size=8).map(MultiPoly)
small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * 4).filter(lambda e: sum(e) <= 6), small_coeffs, max_size=8
).map(MultiPoly)
rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)
assignments = st.fixed_dictionaries({v: rationals for v in VARIABLES})


@settings(max_examples=60)
@given(small_polys, small_polys)
def test_exact_div_roundtrip(p, q):
    if q.is_zero():
        return
    assert (p * q).exact_div(q) == p


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys, assignments)
def test_eval_is_ring_homomorphism(p, q, v):
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_poly_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p


@settings(max_examples=60)
@given(polys, polys)
def test_arithmetic_matches_reference(p, q):
    assert (p * q).terms == (ref(p) * ref(q)).terms
    assert (p + q).terms == (ref(p) + ref(q)).terms
    assert (p - q).terms == (ref(p) - ref(q)).terms
    assert (7 * p).terms == (ref(MultiPoly.constant(7)) * ref(p)).terms


@settings(max_examples=60)
@given(polys, polys, st.booleans())
def test_exact_div_matches_reference(p, q, multiply):
    if q.is_zero():
        return
    dividend = p * q if multiply else p
    expected = ref(dividend).exact_div(ref(q))
    if expected is not None and all(c.denominator == 1 for c in expected.terms.values()):
        assert dividend.exact_div(q).terms == expected.terms
    else:
        with pytest.raises(NonDivisibleError):
            dividend.exact_div(q)


# max_loop_exact_div is MultiPoly.exact_div as it ran before its work keys
# moved to a heap: it finds the largest work key with max() at every step,
# O(T^2) in the number of work terms.  It is kept only as the oracle for the
# heap-ordered division, which must give the same quotient, the same
# remainder and the same error.


def max_loop_exact_div(dividend, divisor):
    d_terms = poly.as_poly(divisor)._terms
    if not d_terms:
        raise ZeroDivisionError("division by zero polynomial")
    lead = max(d_terms)
    lead_coeff = d_terms[lead]
    rest = [(k, c) for k, c in d_terms.items() if k != lead]
    top = (MAX_EXPONENT,) * 4
    if rest and dividend._terms:
        top = [a - b for a, b in zip(poly._unpack(reduce(or_, dividend._terms)), poly._degrees(d_terms))]
        if min(top) < 0:
            raise NonDivisibleError(dividend)
    top = poly._pack(top) | poly._GUARD
    guard = poly._GUARD
    quotient, remainder = {}, {}
    work = dividend._terms.copy()
    while work:
        key = max(work)
        coeff = work.pop(key)
        q, r = divmod(coeff, lead_coeff)
        diff = key - lead
        if r or ((key | guard) - lead) & guard != guard or (top - diff) & guard != guard:
            remainder[key] = coeff
            continue
        quotient[diff] = q
        for k2, c2 in rest:
            target = diff + k2
            c = work.get(target, 0) - q * c2
            if c:
                work[target] = c
            else:
                work.pop(target, None)
    if remainder:
        raise NonDivisibleError(poly._poly(remainder))
    return poly._poly(quotient)


def assert_divides_as_max_loop(dividend, divisor):
    try:
        expected = max_loop_exact_div(dividend, divisor)
    except NonDivisibleError as exc:
        with pytest.raises(NonDivisibleError) as got:
            dividend.exact_div(divisor)
        assert got.value.remainder == exc.remainder
        assert str(got.value) == str(exc)
    else:
        assert dividend.exact_div(divisor) == expected


nonzero_ints = st.one_of(st.integers(1, 9), st.integers(-9, -1), st.integers(2**60, 2**100))
one_term_polys = st.builds(lambda e, c: MultiPoly({e: c}), exponents, nonzero_ints)
divisors = st.one_of(polys.filter(lambda q: not q.is_zero()), one_term_polys, nonzero_ints)


@settings(max_examples=100)
@given(polys, divisors, polys, st.sampled_from(["multiple", "near-multiple", "any"]))
def test_exact_div_matches_max_loop(p, divisor, r, case):
    if case == "multiple":
        dividend = p * divisor
    elif case == "near-multiple":
        dividend = p * divisor + r
    else:
        dividend = p
    assert_divides_as_max_loop(dividend, divisor)


BOUND_DIVISOR = {(3, 0, 0, 0): 1, (2, 0, 0, 1): 1, (0, 0, 1, 0): 1, (0, 0, 0, 0): 1}
RANGE_DIVISOR = {(1, 0, 0, 0): 1, (0, 100, 0, 0): 1}


# the cases of test_exact_div_stops_at_the_degree_bound and
# test_exact_div_out_of_range_step_is_not_divisible; multiply says whether
# the dividend is the first polynomial times the divisor
@pytest.mark.parametrize(
    "dividend, divisor, multiply",
    [
        ({(61, 0, 0, 0): 1}, BOUND_DIVISOR, False),
        ({(58, 0, 0, 0): 1, (0, 3, 0, 1): -2}, BOUND_DIVISOR, True),
        ({(63, 2, 0, 0): 1, (0, 0, 0, 0): 1}, {(3, 0, 0, 0): 1, (2, 1, 0, 0): 1}, False),
        ({(1, 30, 0, 0): 1}, RANGE_DIVISOR, False),
        ({(0, 27, 0, 0): 1, (1, 0, 0, 0): 2}, RANGE_DIVISOR, True),
    ],
)
def test_exact_div_matches_max_loop_at_the_degree_bound(dividend, divisor, multiply):
    dividend, divisor = MultiPoly(dividend), MultiPoly(divisor)
    if multiply:
        dividend = dividend * divisor
    assert_divides_as_max_loop(dividend, divisor)


@settings(max_examples=60)
@given(polys, assignments)
def test_render_and_evaluate_match_reference(p, v):
    assert p.render() == ref(p).render()
    assert p.evaluate(v) == ref(p).evaluate(v)


# -- the shared Pascal table ----------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 200), min_size=1, max_size=6))
def test_binomial_rows_grow_in_any_order(requests):
    # a fresh table, grown by requests in any order, shorter after longer
    with mock.patch.object(rings, "_BINOMIAL_ROWS", [(1,)]):
        largest = 0
        for top in requests:
            largest = max(largest, top)
            assert len(binomial_rows(top)) == largest + 1
        rows = binomial_rows(200)
        assert len(rows) == 201
        for n, row in enumerate(rows):
            assert type(row) is tuple
            assert row == tuple(comb(n, j) for j in range(n + 1))


def test_binomial_rows_are_shared():
    assert binomial_rows(3) is binomial_rows(10)
    assert binomial_rows(10)[3] is binomial_rows(3)[3]


# reference_product_coefficient is the math.comb loop that ran
# product_coefficient before it read the shared Pascal rows; it is kept as
# the test oracle.


def reference_product_coefficient(f, g, n, ring):
    acc = ring.zero
    for j in range(n + 1):
        acc = acc + comb(n, j) * f[j] * g[n - j]
    return acc


def product_case(elements, max_order=40):
    """(f, g, n) with f and g of one length N + 1 and n <= N <= max_order."""
    return st.integers(0, max_order).flatmap(
        lambda top: st.tuples(
            st.lists(elements, min_size=top + 1, max_size=top + 1),
            st.lists(elements, min_size=top + 1, max_size=top + 1),
            st.integers(0, top),
        )
    )


@settings(max_examples=60)
@given(product_case(st.integers(-(2**100), 2**100)))
def test_product_coefficient_matches_comb_loop_zz(case):
    f, g, n = case
    got = product_coefficient(f, g, n, ZZ)
    assert got == reference_product_coefficient(f, g, n, ZZ)
    assert type(got) is int


@settings(max_examples=20, deadline=None)
@given(product_case(st.fractions(min_value=-50, max_value=50, max_denominator=60)))
def test_product_coefficient_matches_comb_loop_qq(case):
    f, g, n = case
    got = product_coefficient(f, g, n, QQ)
    assert got == reference_product_coefficient(f, g, n, QQ)
    assert type(got) is Fraction


@settings(max_examples=30, deadline=None)
@given(product_case(small_polys, max_order=6))
def test_product_coefficient_matches_comb_loop_poly(case):
    f, g, n = case
    assert product_coefficient(f, g, n, POLY) == reference_product_coefficient(f, g, n, POLY)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6).flatmap(lambda top: st.lists(st.tuples(small_polys, small_polys), min_size=top + 1, max_size=top + 1)))
def test_poly_convolve_matches_comb_loop(pairs):
    f, g = (tuple(side) for side in zip(*pairs))
    expected = [reference_product_coefficient(f, g, n, POLY) for n in range(len(f))]
    assert POLY.convolve(f, g) == expected


# -- the fused dot kernel over POLY ------------------------------------------

dot_triples = st.lists(st.tuples(st.one_of(st.just(0), int_coeffs), polys, polys), max_size=6)


@settings(max_examples=100)
@given(dot_triples, st.sampled_from(["sum", "cancel", "overflow"]), st.sampled_from(VARIABLES))
def test_dot_matches_mul_and_add(triples, case, var):
    """poly.dot is sum_i s_i (f_i g_i) by __mul__ and __add__: zero scalars
    and empty polynomials add nothing, a sum that cancels is MultiPoly(), and
    a surviving key past MAX_EXPONENT raises OverflowError, as __mul__ does."""
    if case == "cancel":
        triples = triples + [(-s, f, g) for s, f, g in triples]
    if case == "overflow":
        # polys' exponents stay at or below MAX_EXPONENT // 2, so no other
        # term can cancel this one
        top = tuple(MAX_EXPONENT if v == var else 0 for v in VARIABLES)
        triples = triples + [(3, MultiPoly({top: 1}), MultiPoly.variable(var))]
        with pytest.raises(OverflowError):
            poly.dot(*zip(*triples))
        return
    scalars, fs, gs = zip(*triples) if triples else ((), (), ())
    expected = reduce(add, [s * (f * g) for s, f, g in triples], MultiPoly())
    got = poly.dot(scalars, fs, gs)
    assert got == expected
    if case == "cancel":
        assert got == MultiPoly()


def test_dot_checks_exponents_on_the_sum():
    # a key past MAX_EXPONENT that cancels out of the sum is not in it, so it
    # is dropped, as __mul__ drops a zero entry before its exponent check
    x = MultiPoly({(0, 0, MAX_EXPONENT, 0): 1})
    with pytest.raises(OverflowError):
        x * B1
    with pytest.raises(OverflowError):
        poly.dot([2, 0], [x, x], [B1, B1])
    assert poly.dot([1, -1], [x, x], [B1, B1]) == MultiPoly()
    assert poly.dot([1, -1, 5], [x, x, A1], [B1, B1, B2]) == 5 * A1 * B2

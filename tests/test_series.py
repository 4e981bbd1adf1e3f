from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hurwitz import verify
from hurwitz.fixpoint import verify_exp_form
from hurwitz.parametric import (
    parametric_inverse_series,
    solve_parametric_f,
    verify_functional_equation,
)
from hurwitz.rings import POLY, QQ, ZZ, MultiPoly, NonDivisibleError
from hurwitz.series import EgfSeries, SeriesError

F = Fraction


def qs(*coeffs):
    return EgfSeries(QQ, coeffs)


def exp_minus_one(order):
    return EgfSeries.exp_line(1, order) - EgfSeries.one(order)


class TestBasics:
    def test_exp_line(self):
        assert EgfSeries.exp_line(1, 3).coeffs == (1, 1, 1, 1)
        assert EgfSeries.exp_line(0, 2).coeffs == (1, 0, 0)
        assert EgfSeries.exp_line(-2, 3).coeffs == (1, -2, 4, -8)

    def test_linear_ops(self):
        e = EgfSeries.exp_line(1, 3)
        assert (e - EgfSeries.one(3)).coeffs == (0, 1, 1, 1)
        assert (e - e) == EgfSeries.zero(3)
        assert EgfSeries.basis(1, 2).scale(3).coeffs == (0, 3, 0)

    def test_order_mismatch(self):
        with pytest.raises(SeriesError):
            EgfSeries.one(3) + EgfSeries.one(4)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EgfSeries.zero(-1),
            lambda: EgfSeries.one(-1),
            lambda: EgfSeries.basis(0, -1),
            lambda: EgfSeries.exp_line(2, -1),
        ],
        ids=["zero", "one", "basis", "exp_line"],
    )
    def test_negative_order_rejected(self, build):
        with pytest.raises(SeriesError, match="order must be >= 0, got -1"):
            build()


class TestMul:
    def test_exp_times_exp(self):
        e = EgfSeries.exp_line(1, 4)
        assert (e * e).coeffs == (1, 2, 4, 8, 16)

    def test_x_squared(self):
        x = EgfSeries.basis(1, 3)
        assert (x * x).coeffs == (0, 0, 2, 0)

    def test_identity(self):
        f = qs(3, F(1, 2), -5, 7)
        assert f * EgfSeries.one(3) == f


class TestReciprocal:
    def test_bernoulli(self):
        f = qs(*[F(1, n + 1) for n in range(5)])  # (e^x - 1)/x
        assert f.reciprocal().coeffs == (1, F(-1, 2), F(1, 6), 0, F(-1, 30))

    def test_one(self):
        assert EgfSeries.one(4).reciprocal() == EgfSeries.one(4)

    def test_exp(self):
        e = EgfSeries.exp_line(1, 5)
        assert e.reciprocal() == EgfSeries.exp_line(-1, 5)

    def test_nonunit_constant(self):
        with pytest.raises(SeriesError):
            EgfSeries.basis(1, 3).reciprocal()

    def test_poly_reciprocal_and_log(self):
        # 1/(1+x) has EGF coefficients (-1)^n n!, log(1+x) has (-1)^{n-1} (n-1)!
        one_plus_x = EgfSeries(POLY, [1, 1, 0, 0])
        assert one_plus_x.reciprocal() == EgfSeries(POLY, [1, -1, 2, -6])
        assert one_plus_x.log() == EgfSeries(POLY, [0, 1, -1, 2])

    def test_integer_reciprocal_and_log(self):
        order = 20
        one_plus_x = EgfSeries(ZZ, [1, 1] + [0] * (order - 1))
        log = one_plus_x.log()
        assert log.ring is ZZ
        assert log.coeffs == (0, *((-1) ** (n - 1) * factorial(n - 1) for n in range(1, order + 1)))
        e = EgfSeries.exp_line(1, order, ZZ)
        assert e.reciprocal() == EgfSeries.exp_line(-1, order, ZZ)


class TestDivByX:
    def test_exp_minus_one(self):
        assert exp_minus_one(4).div_by_x().coeffs == (1, F(1, 2), F(1, 3), F(1, 4))

    def test_x(self):
        assert EgfSeries.basis(1, 1).div_by_x().coeffs == (1,)

    def test_nonzero_constant(self):
        with pytest.raises(SeriesError):
            EgfSeries.one(3).div_by_x()

    def test_inverts_mul_by_x(self):
        f = qs(2, -1, F(1, 3), 4)
        assert f.mul_by_x().div_by_x() == f


class TestCompose:
    def test_identity_substitution(self):
        f = qs(1, -2, F(3, 4), 5)
        assert f.compose(EgfSeries.basis(1, 3)) == f

    def test_exp_of_log(self):
        log1px = (EgfSeries.one(4) + EgfSeries.basis(1, 4)).log()
        e = EgfSeries.exp_line(1, 4)
        assert e.compose(log1px).coeffs == (1, 1, 0, 0, 0)

    def test_square_of_exp_minus_one(self):
        x2 = EgfSeries.basis(1, 3) * EgfSeries.basis(1, 3)
        g = exp_minus_one(3)
        assert x2.compose(g) == g * g
        assert x2.compose(g).coeffs == (0, 0, 2, 6)

    def test_nonzero_inner_constant(self):
        with pytest.raises(SeriesError):
            EgfSeries.one(3).compose(EgfSeries.one(3))


class TestCompInverse:
    def test_x(self):
        x = EgfSeries.basis(1, 5)
        assert x.comp_inverse() == x

    def test_exp_minus_one(self):
        inv = exp_minus_one(5).comp_inverse()
        # log(1+x): coefficients (-1)^{n-1} (n-1)!
        assert inv.coeffs == (0, 1, -1, 2, -6, 24)
        assert exp_minus_one(5).compose(inv) == EgfSeries.basis(1, 5)

    def test_preconditions(self):
        with pytest.raises(SeriesError):
            EgfSeries.one(3).comp_inverse()
        with pytest.raises(SeriesError, match="needs order >= 1, got 0"):
            EgfSeries.zero(0).comp_inverse()
        with pytest.raises(SeriesError):
            (EgfSeries.basis(1, 3) * EgfSeries.basis(1, 3)).comp_inverse()

    @pytest.mark.parametrize("order", range(1, 9))
    def test_poly_parametric_f(self, order):
        assert solve_parametric_f(order).comp_inverse() == parametric_inverse_series(order)


class TestExpLog:
    def test_exp_of_zero(self):
        assert EgfSeries.zero(4).exp() == EgfSeries.one(4)

    def test_exp_of_x(self):
        assert EgfSeries.basis(1, 4).exp() == EgfSeries.exp_line(1, 4)

    def test_log_of_one_plus_x(self):
        f = EgfSeries.one(4) + EgfSeries.basis(1, 4)
        assert f.log().coeffs == (0, 1, -1, 2, -6)

    def test_preconditions(self):
        with pytest.raises(SeriesError):
            EgfSeries.one(3).exp()
        with pytest.raises(SeriesError):
            EgfSeries.zero(3).log()


class TestSubstExpMinusOne:
    def test_x(self):
        assert EgfSeries.basis(1, 4).subst_exp_minus_one() == exp_minus_one(4)

    def test_log(self):
        log1px = (EgfSeries.one(4) + EgfSeries.basis(1, 4)).log()
        assert log1px.subst_exp_minus_one() == EgfSeries.basis(1, 4)

    @pytest.mark.parametrize("m", range(31))
    def test_basis_gives_stirling_numbers(self, m):
        # coefficient n of (e^x - 1)^m / m! is S(n, m), here from the
        # explicit sum sum_j (-1)^j C(m, j) (m - j)^n / m!
        got = EgfSeries.basis(m, 30).subst_exp_minus_one()
        for n in range(31):
            total = sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1))
            assert got[n] == F(total, factorial(m))


class TestIntegrality:
    def test_integral(self):
        assert EgfSeries.exp_line(1, 5).integrality_report().integral

    def test_first_failure(self):
        f = qs(1, F(-1, 2), F(1, 6))
        report = f.integrality_report()
        assert not report.integral
        assert report.first_fail_index == 1
        assert report.fail_value == F(-1, 2)


class TestRender:
    def test_tab_format(self):
        assert qs(0, 1, F(-1, 2)).render() == "0\t0\n1\t1\n2\t-1/2"


# -- property tests --------------------------------------------------------

def integer_series(order, zero_constant=False, unit_linear=False):
    def build(values):
        coeffs = list(values)
        if zero_constant:
            coeffs[0] = 0
        if unit_linear:
            coeffs[1] = 1
        return EgfSeries(QQ, coeffs)

    return st.lists(
        st.integers(-9, 9), min_size=order + 1, max_size=order + 1
    ).map(build)


@settings(max_examples=40)
@given(integer_series(10), integer_series(10), integer_series(10))
def test_mul_ring_laws(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@settings(max_examples=30)
@given(
    integer_series(8),
    integer_series(8, zero_constant=True),
    integer_series(8, zero_constant=True),
)
def test_compose_associativity(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@settings(max_examples=30)
@given(integer_series(10, zero_constant=True, unit_linear=True))
def test_comp_inverse_roundtrip(g):
    inv = g.comp_inverse()
    assert g.compose(inv) == EgfSeries.basis(1, 10)
    assert inv.comp_inverse() == g


@settings(max_examples=30)
@given(integer_series(10))
def test_reciprocal_two_sided(f):
    if f[0] == 0:
        return
    r = f.reciprocal()
    assert f * r == EgfSeries.one(10)
    assert r * f == EgfSeries.one(10)


@settings(max_examples=30)
@given(integer_series(10, zero_constant=True))
def test_exp_log_roundtrip(f):
    assert f.exp().log() == f


@settings(max_examples=40)
@given(integer_series(12), integer_series(12, zero_constant=True))
def test_hurwitz_closure(f, g):
    assert (f * g).integrality_report().integral
    assert f.compose(g).integrality_report().integral


@settings(max_examples=40)
@given(integer_series(12, zero_constant=True, unit_linear=True))
def test_hurwitz_closure_inverse(g):
    assert g.comp_inverse().integrality_report().integral


def test_closure_check_returns_false_on_a_remainder(monkeypatch):
    # a compose that divides by (N+1)! in place of N! leaves a remainder in
    # ZZ.divide, which the check reports as a failure rather than raising
    compose = EgfSeries.compose

    def compose_by_wrong_factorial(self, inner):
        return EgfSeries(ZZ, [ZZ.divide(c, self.order + 1) for c in compose(self, inner).coeffs])

    assert verify.check_hurwitz_closure(5, 6)
    monkeypatch.setattr(EgfSeries, "compose", compose_by_wrong_factorial)
    assert not verify.check_hurwitz_closure(5, 6)


# -- QQ kernels against the Fraction loops ------------------------------------
#
# reference_convolve and reference_reciprocal are the Fraction loops that ran
# EgfSeries.__mul__ and EgfSeries.reciprocal before QQ.convolve and the
# triangular division moved to integer numerators; they are kept as the test
# oracle.  QQ.quotient(b, c), the QQ division kernel, is checked against the
# reciprocal-then-product reference_convolve(b, reference_reciprocal(c)).


def reference_convolve(f, g):
    out = []
    for n in range(len(f)):
        acc = Fraction(0)
        for j in range(n + 1):
            acc = acc + comb(n, j) * f[j] * g[n - j]
        out.append(acc)
    return out


def reference_reciprocal(c):
    inv0 = 1 / c[0]
    g = [inv0]
    for n in range(1, len(c)):
        acc = Fraction(0)
        for j in range(n):
            acc = acc + comb(n, j) * g[j] * c[n - j]
        g.append(-(inv0 * acc))
    return g


# zeros, small and large integers, and rationals with mixed denominators
rationals = st.one_of(
    st.just(F(0)),
    st.integers(-9, 9).map(F),
    st.integers(-(10**30), 10**30).map(F),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
)
nonzero_rationals = rationals.filter(lambda q: q != 0)


def coefficients(order):
    return st.lists(rationals, min_size=order + 1, max_size=order + 1)


orders = st.integers(0, 40)
MIXED_40 = [F((-1) ** n * (n + 2), n % 7 + 1) if n % 5 else F(0) for n in range(41)]


def assert_exactly_equal(got, expected):
    assert got == expected
    assert all(type(c) is Fraction for c in got)


@settings(max_examples=60, deadline=None)
@given(orders.flatmap(lambda n: st.tuples(coefficients(n), coefficients(n))))
@example(([F(3)], [F(-2, 7)]))
@example((MIXED_40, MIXED_40[::-1]))
def test_qq_convolve_matches_fraction_loop(pair):
    f, g = pair
    assert_exactly_equal(QQ.convolve(f, g), reference_convolve(f, g))
    assert (qs(*f) * qs(*g)).coeffs == tuple(reference_convolve(f, g))


@settings(max_examples=60)
@given(orders.flatmap(coefficients), nonzero_rationals)
@example([F(1)], F(-3))
@example(MIXED_40, F(-6, 5))
def test_qq_reciprocal_matches_fraction_loop(c, c0):
    # negative and non-unit constant terms come from c0
    c = [c0] + c[1:]
    one = [F(1)] + [F(0)] * (len(c) - 1)
    assert_exactly_equal(QQ.quotient(one, c), reference_reciprocal(c))
    assert qs(*c).reciprocal().coeffs == tuple(reference_reciprocal(c))


@settings(max_examples=60)
@given(
    orders.flatmap(lambda n: st.tuples(coefficients(n), coefficients(n))),
    nonzero_rationals.filter(lambda q: abs(q) != 1),
)
@example(([F(3)], [F(-2, 7)]), F(-2, 7))
@example((MIXED_40[::-1], MIXED_40), F(-6, 5))
def test_qq_quotient_matches_reciprocal_then_product(pair, c0):
    b, c = pair
    # c_0 is not a unit of Z, so the quotient is not integral in general
    c = [c0] + c[1:]
    expected = reference_convolve(b, reference_reciprocal(c))
    assume(any(g.denominator != 1 for g in expected))
    assert_exactly_equal(QQ.quotient(b, c), expected)
    assert (qs(*b) / qs(*c)).coeffs == tuple(expected)


@settings(max_examples=30)
@given(orders.flatmap(lambda n: st.tuples(coefficients(n), coefficients(n))))
def test_qq_reciprocal_zero_constant_raises(pair):
    b, c = pair
    c = [F(0)] + c[1:]
    with pytest.raises(ZeroDivisionError):
        QQ.quotient(b, c)
    with pytest.raises(SeriesError, match="constant term 0"):
        qs(*c).reciprocal()
    with pytest.raises(SeriesError, match="constant term 0"):
        qs(*b) / qs(*c)


# -- ZZ kernels against the QQ ones -----------------------------------------


@settings(max_examples=60)
@given(
    st.integers(0, 40).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(-(2**100), 2**100), min_size=n + 1, max_size=n + 1)] * 2)
    )
)
def test_zz_convolve_matches_fraction_loop(pair):
    f, g = pair
    got = ZZ.convolve(f, g)
    assert got == reference_convolve(f, g)
    assert all(type(c) is int for c in got)


def zz_unit_linear_series(order):
    def build(args):
        coeffs, unit = args
        return EgfSeries(ZZ, [0, unit, *coeffs[2:]])

    return st.tuples(
        st.lists(st.integers(-9, 9), min_size=order + 1, max_size=order + 1),
        st.sampled_from([1, -1]),
    ).map(build)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            zz_unit_linear_series(n),
            st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1),
        )
    )
)
def test_zz_comp_inverse_and_compose_match_qq(pair):
    inner, outer = pair
    outer = EgfSeries(ZZ, outer)
    inverse = inner.comp_inverse()
    composite = outer.compose(inner)
    assert inverse.ring is ZZ and composite.ring is ZZ
    assert inverse.over(QQ) == inner.over(QQ).comp_inverse()
    assert composite.over(QQ) == outer.over(QQ).compose(inner.over(QQ))


# comp_inverse solves for g_n by dividing by f_1^n; with a linear term other
# than 1 or -1, a division written the wrong way round breaks the round trip
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10).flatmap(coefficients), nonzero_rationals)
@example([F(0), F(0), F(1), F(-2, 5)], F(3, 2))
def test_qq_comp_inverse_with_non_unit_linear_term(coeffs, lead):
    f = qs(F(0), lead, *coeffs[2:])
    g = f.comp_inverse()
    assert g.compose(f) == f.compose(g) == EgfSeries.basis(1, f.order)


# -- compose against the Fraction(1, m!) loop --------------------------------
#
# reference_compose is the loop that ran EgfSeries.compose before it
# accumulated f_m (N!/m!) inner^m and divided once by N!; it is kept as the
# test oracle.  It needs rational coefficients, so a composite over POLY is
# checked through its values at rational points.


def reference_compose(f, inner):
    order = f.order
    result = EgfSeries.one(order, QQ).scale(f.coeffs[0])
    power = EgfSeries.one(order, QQ)
    for m in range(1, order + 1):
        power = power * inner
        result = result + power.scale(f.coeffs[m] * Fraction(1, factorial(m)))
    return result


def at_point(series, point):
    return EgfSeries(QQ, [c.evaluate(point) for c in series.coeffs])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 16).flatmap(
        lambda n: st.tuples(coefficients(n), coefficients(n))
    )
)
@example(([F(3)], [F(0)]))
@example((MIXED_40[:17], [F(0)] + MIXED_40[1:17]))
def test_qq_compose_matches_fraction_loop(pair):
    f, inner = qs(*pair[0]), qs(F(0), *pair[1][1:])
    got = f.compose(inner)
    assert got == reference_compose(f, inner)
    assert all(type(c) is Fraction for c in got.coeffs)


points = st.fixed_dictionaries(
    {v: st.fractions(min_value=-5, max_value=5, max_denominator=7) for v in ("a1", "a2", "b1", "b2")}
)
small_polys = st.dictionaries(
    st.tuples(*[st.integers(0, 2)] * 4), st.integers(-5, 5), max_size=4
).map(MultiPoly)


def poly_series(order, zero_constant=False):
    def build(coeffs):
        if zero_constant:
            coeffs[0] = POLY.zero
        return EgfSeries(POLY, coeffs)

    return st.lists(small_polys, min_size=order + 1, max_size=order + 1).map(build)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), points)
def test_poly_inverse_compose_matches_fraction_loop(order, point):
    f = solve_parametric_f(order)
    inverse = parametric_inverse_series(order)
    got = inverse.compose(f)
    expected = EgfSeries.basis(1, order, POLY) if order else EgfSeries.zero(0, POLY)
    assert got == expected
    assert at_point(got, point) == reference_compose(at_point(inverse, point), at_point(f, point))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(poly_series(n), poly_series(n, zero_constant=True))
    ),
    points,
)
def test_poly_compose_matches_fraction_loop(pair, point):
    f, inner = pair
    got = f.compose(inner)
    assert at_point(got, point) == reference_compose(at_point(f, point), at_point(inner, point))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 6).flatmap(lambda n: poly_series(n, zero_constant=True)),
    st.sampled_from([1, -1]),
    points,
)
def test_poly_comp_inverse_commutes_with_evaluation(f, unit, point):
    f = f.with_coefficient(1, unit)
    inverse = f.comp_inverse()
    assert inverse.compose(f) == EgfSeries.basis(1, f.order, POLY)
    assert at_point(inverse, point) == at_point(f, point).comp_inverse()


def test_poly_divide_raises_on_remainder():
    a1, b2 = MultiPoly.variable("a1"), MultiPoly.variable("b2")
    assert POLY.divide(6 * a1 - 4 * b2, -2) == -3 * a1 + 2 * b2
    with pytest.raises(NonDivisibleError) as exc:
        POLY.divide(6 * a1 - 3 * b2, 2)
    assert exc.value.remainder == -3 * b2


# -- the exact division kernel over ZZ and POLY --------------------------------
#
# ZZ.quotient and POLY.quotient are ``exact_quotient``: one back-substitution
# that divides by c_0 with the ring's exact ``divide`` and skips the zero tail
# of c.  The QQ division is the reference, over ZZ directly and over POLY at
# rational points.


def with_degree(ring, c0, tail, degree):
    """The divisor c_0 + sum_{1<=i<=degree} tail_i x^i/i! of order
    len(tail), zero past ``degree``."""
    order = len(tail)
    return EgfSeries(ring, [c0, *tail[:degree], *[ring.zero] * (order - degree)])


big_ints = st.integers(-(2**40), 2**40)


def zz_division_args(order):
    # c_0 covers units, negative non-units and large values
    return st.tuples(
        st.integers(-12, 12).filter(bool) | big_ints.filter(bool),
        st.lists(big_ints, min_size=order, max_size=order),
        st.integers(0, order),
        st.lists(big_ints, min_size=order + 1, max_size=order + 1),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 30).flatmap(zz_division_args))
@example((-6, [5, 0, 0, 0], 1, [3, 0, -1, 7, 2]))
@example((4, [1, 2, 3, 4, 5, 6], 6, [1, 1, 1, 1, 1, 1, 1]))
def test_zz_quotient_inverts_product(args):
    c0, tail, degree, g = args
    c, g = with_degree(ZZ, c0, tail, degree), EgfSeries(ZZ, g)
    b = c * g
    assert b / c == g
    assert b.over(QQ) / c.over(QQ) == g.over(QQ)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 20).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1),
            st.lists(st.integers(-9, 9), min_size=n + 1, max_size=n + 1),
        )
    ),
    st.integers(-9, 9).filter(bool),
)
def test_zz_quotient_raises_exactly_when_qq_quotient_is_not_integral(pair, c0):
    # c_0 = +-1 always divides; otherwise the first non-integral QQ coefficient
    # is where the ZZ back-substitution meets its remainder
    b, c = EgfSeries(ZZ, pair[0]), EgfSeries(ZZ, [c0, *pair[1][1:]])
    expected = b.over(QQ) / c.over(QQ)
    if expected.integrality_report().integral:
        assert (b / c).over(QQ) == expected
    else:
        with pytest.raises(NonDivisibleError):
            b / c


nonzero_polys = small_polys.filter(lambda p: p != 0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda n: st.tuples(
            nonzero_polys,
            st.lists(small_polys, min_size=n, max_size=n),
            st.integers(0, n),
            poly_series(n),
        )
    ),
    points,
)
@example(
    (MultiPoly.constant(-6), [MultiPoly.variable("a1"), POLY.zero], 1, EgfSeries(POLY, [1, 2, 3])),
    {v: F(1) for v in ("a1", "a2", "b1", "b2")},
)
def test_poly_quotient_inverts_product(args, point):
    c0, tail, degree, g = args
    c = with_degree(POLY, c0, tail, degree)
    b = c * g
    assert b / c == g
    if c0.evaluate(point) != 0:
        assert at_point(b, point) / at_point(c, point) == at_point(g, point)
    if c0 == 1 or c0 == -1:
        return
    # c_0 does not divide 1, so a unit more in the last coefficient leaves a
    # remainder at the last step
    bumped = b.with_coefficient(b.order, b[b.order] + 1)
    with pytest.raises(NonDivisibleError):
        bumped / c


# -- subst_exp_minus_one against compose --------------------------------------
#
# subst_exp_minus_one sums Stirling numbers of the second kind; before that it
# was compose(e^x - 1), and compose is kept as the oracle here.


def compose_exp_minus_one(f):
    ring = f.ring
    return f.compose(EgfSeries.exp_line(ring.one, f.order, ring) - EgfSeries.one(f.order, ring))


@settings(max_examples=40, deadline=None)
@given(orders.flatmap(coefficients))
@example([F(3)])
@example([F(-2, 7), F(5, 3)])
@example(MIXED_40)
def test_qq_subst_exp_minus_one_matches_compose(c):
    f = qs(*c)
    got = f.subst_exp_minus_one()
    assert got == compose_exp_minus_one(f)
    assert all(type(x) is Fraction for x in got.coeffs)


@settings(max_examples=40, deadline=None)
@given(orders.flatmap(lambda n: st.lists(st.integers(-(2**100), 2**100), min_size=n + 1, max_size=n + 1)))
@example([7])
@example([-3, 2**100])
def test_zz_subst_exp_minus_one_matches_compose(c):
    f = EgfSeries(ZZ, c)
    got = f.subst_exp_minus_one()
    assert got == compose_exp_minus_one(f)
    assert all(type(x) is int for x in got.coeffs)


# -- kernel outputs are ring elements without re-coercion ---------------------
#
# Every series kernel builds its result with the non-coercing
# ``EgfSeries._of``; this checks that what it builds is what the public,
# coercing constructor would: coefficients of the ring's exact element type.

ELEMENT_TYPES = {QQ: Fraction, ZZ: int, POLY: MultiPoly}
ELEMENTS = {QQ: rationals, ZZ: st.integers(-(2**70), 2**70), POLY: small_polys}


@st.composite
def ring_series_pairs(draw):
    ring = draw(st.sampled_from([QQ, ZZ, POLY]))
    order = draw(st.integers(1, 5))
    coeffs = st.lists(ELEMENTS[ring], min_size=order + 1, max_size=order + 1)
    return ring, EgfSeries(ring, draw(coeffs)), EgfSeries(ring, draw(coeffs))


def kernel_outputs(ring, f, g):
    order = f.order
    inner = g.with_coefficient(0, ring.zero)
    outputs = {
        "zero": EgfSeries.zero(order, ring),
        "one": EgfSeries.one(order, ring),
        "basis": EgfSeries.basis(1, order, ring),
        "add": f + g,
        "sub": f - g,
        "neg": -f,
        "scale": f.scale(g[1]),
        "mul": f * g,
        "mul_by_x": f.mul_by_x(),
        "div_by_x": f.mul_by_x().div_by_x(),
        "exp_line": EgfSeries.exp_line(g[1], order, ring),
        "truncate": f.truncate(order - 1),
        "extend": f.extend(order + 1),
        "compose": f.compose(inner),
        "comp_inverse": inner.with_coefficient(1, ring.one).comp_inverse(),
        "exp": inner.exp(),
        "subst_exp_minus_one": f.subst_exp_minus_one(),
    }
    # -1 divides every element of Z and Z[a1,a2,b1,b2], so the division is exact
    unit = f.with_coefficient(0, F(-3, 2) if ring is QQ else -1)
    outputs["truediv"] = g / unit
    outputs["reciprocal"] = unit.reciprocal()
    outputs["log"] = f.with_coefficient(0, ring.one).log()
    return outputs


@settings(max_examples=60, deadline=None)
@given(ring_series_pairs())
def test_kernel_outputs_are_exact_ring_elements(args):
    ring, f, g = args
    for name, out in kernel_outputs(ring, f, g).items():
        assert out.ring is ring, name
        assert all(type(c) is ELEMENT_TYPES[ring] for c in out.coeffs), name
        assert out == EgfSeries(ring, out.coeffs), name


# constant terms that each guard must reject and accept, in every ring; a1
# is nonzero although its constant part is 0
NONZERO_CONSTANTS = {QQ: F(1, 2), ZZ: 3, POLY: MultiPoly.variable("a1")}
ZERO_CONSTANTS = {QQ: F(0), ZZ: 0, POLY: MultiPoly()}
ONE_CONSTANTS = {QQ: F(1), ZZ: 1, POLY: MultiPoly.constant(1)}


@pytest.mark.parametrize("ring", [QQ, ZZ, POLY], ids=lambda ring: ring.name)
def test_constant_term_guards(ring):
    x = EgfSeries.basis(1, 3, ring)
    guards = [
        ("exp requires constant term 0", EgfSeries.exp),
        ("compose requires inner constant term 0", x.compose),
        ("compositional inverse requires constant term 0", EgfSeries.comp_inverse),
        ("not divisible by x", EgfSeries.div_by_x),
        ("log requires constant term 1", EgfSeries.log),
        ("expects zero constant term", lambda f: verify_exp_form(f, 2)),
    ]
    if ring is POLY:
        guards.append(("expects zero constant term", verify_functional_equation))
    bad = x.with_coefficient(0, NONZERO_CONSTANTS[ring])
    for message, guarded in guards:
        with pytest.raises(SeriesError, match=message):
            guarded(bad)

    x = x.with_coefficient(0, ZERO_CONSTANTS[ring])
    assert x.exp() == EgfSeries.exp_line(1, 3, ring)
    assert x.compose(x) == x.comp_inverse() == x
    assert x.div_by_x() == EgfSeries.one(2, ring)
    assert verify_exp_form(x, 2) is False
    if ring is POLY:
        assert verify_functional_equation(x) is False
    with pytest.raises(SeriesError, match="division by a series with constant term 0"):
        EgfSeries.one(3, ring) / x
    with pytest.raises(SeriesError, match="compositional inverse requires nonzero linear term"):
        x.with_coefficient(1, ZERO_CONSTANTS[ring]).comp_inverse()
    one_plus_x = x.with_coefficient(0, ONE_CONSTANTS[ring])
    assert one_plus_x.log() == EgfSeries(ring, [0, 1, -1, 2])


@pytest.mark.parametrize("ring", [ZZ, POLY])
def test_public_constructor_still_coerces(ring):
    with pytest.raises(TypeError, match=r"Fraction\(3, 1\)"):
        EgfSeries(ring, [F(3)])

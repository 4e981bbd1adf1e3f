from dataclasses import replace
from fractions import Fraction
from math import comb, factorial, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hurwitz import bernoulli, verify
from hurwitz.bernoulli import (
    STEP_NAMES,
    bernoulli_factor,
    bernoulli_poly_at,
    certify,
    genocchi_oracle,
    inverse_tree_series,
    m_direct,
    m_direct_values,
    m_series,
    reduction_factor,
)
from hurwitz.cli import main
from hurwitz.fixpoint import am_phi, solve_tree_series
from hurwitz.rings import QQ, ZZ, NonDivisibleError, render_rational
from hurwitz.series import EgfSeries, SeriesError

F = Fraction


def reference_reduction_factor(h, k, order):
    """Test oracle for ``reduction_factor``: Q as the QQ quotient
    gf(h,k)/gf(1,|k|), by series division of the Fraction chains."""
    gf_hk = reference_m_series(h, k, order + 1)
    gf_base = reference_m_series(1, abs(k), order + 1)
    return gf_hk.div_by_x() * gf_base.div_by_x().reciprocal()


def reference_inverse_tree_series(k, order):
    """Test oracle for ``inverse_tree_series``: k x log(1+x)/((1+x)^k - 1)
    over QQ, as a series log times a series reciprocal."""
    one_plus_x = EgfSeries.one(order) + EgfSeries.basis(1, order)
    log_series = one_plus_x.log()
    # (1+x)^k - 1 as an EGF: coefficient n is C(k,n) * n!
    den = EgfSeries(
        QQ, [0] + [comb(k, n) * factorial(n) for n in range(1, order + 2)]
    )
    return (log_series * den.div_by_x().reciprocal()).scale(k)


def reference_m_series(h, k, order):
    """Test oracle for ``m_series``: the Fraction series chain that computed
    it over QQ, k x (e^{hx} - 1)/(e^{kx} - 1) as a product with a series
    reciprocal."""
    num = EgfSeries.exp_line(h, order) - EgfSeries.one(order)
    den = EgfSeries.exp_line(k, order + 1) - EgfSeries.one(order + 1)
    return (num * den.div_by_x().reciprocal()).scale(k)


def reference_m_direct_values(h, k, order):
    """Test oracle for ``m_direct_values``: the Fraction chain that computed
    it over QQ, k^n (B_n(h/k) - B_n) read off the Bernoulli polynomial
    series x e^{(h/k)x}/(e^x - 1)."""
    poly = EgfSeries.exp_line(F(h, k), order) * bernoulli_factor(order)
    numbers = bernoulli_factor(order)
    return [k**n * (poly[n] - numbers[n]) for n in range(order + 1)]


def tangent_numbers(count):
    """T_1..T_count, the odd derivatives of tan at 0 (1, 2, 16, 272, ...),
    in integers only: Brent and Harvey's in-place recurrence ("Fast
    computation of Bernoulli, tangent and secant numbers", 2011, Algorithm
    TangentNumbers)."""
    t = [0] + [1] * count
    for m in range(2, count + 1):
        t[m] = (m - 1) * t[m - 1]
    for m in range(2, count + 1):
        for j in range(m, count + 1):
            t[j] = (j - m) * t[j - 1] + (j - m + 2) * t[j]
    return t[1:]


def bernoulli_oracle(order):
    """Test oracle for ``bernoulli_factor``: B_0..B_order from the tangent
    numbers, B_{2m} = (-1)^{m-1} 2m T_m / (4^m (4^m - 1)), with B_1 = -1/2
    and the other odd B_n zero.  No series arithmetic; every step before the
    final Fraction is an integer one."""
    t = tangent_numbers(order // 2)
    values = [F(1), F(-1, 2)] + [F(0)] * (order - 1)
    for m in range(1, order // 2 + 1):
        values[2 * m] = F((-1) ** (m - 1) * 2 * m * t[m - 1], 4**m * (4**m - 1))
    return values[: order + 1]


def bump(series, n):
    """The series with 1 added to coefficient n."""
    return series.with_coefficient(n, series[n] + 1)


class TestBernoulli:
    def test_numbers(self):
        assert bernoulli_factor(4).coeffs == (1, F(-1, 2), F(1, 6), 0, F(-1, 30))

    def test_odd_vanishing(self):
        b = bernoulli_factor(13)
        assert all(b[n] == 0 for n in range(3, 14, 2))

    def test_poly_values(self):
        assert bernoulli_poly_at(2, F(1, 2)) == F(-1, 12)
        assert bernoulli_poly_at(1, 1) == F(1, 2)

    def test_poly_at_zero_is_number(self):
        b = bernoulli_factor(12)
        assert all(bernoulli_poly_at(n, 0) == b[n] for n in range(13))


def test_tangent_numbers_published():
    # OEIS A000182
    assert tangent_numbers(8) == [1, 2, 16, 272, 7936, 353792, 22368256, 1903757312]


def test_bernoulli_factor_matches_tangent_oracle():
    oracle = bernoulli_oracle(64)
    assert oracle[:13] == [1, F(-1, 2), F(1, 6), 0, F(-1, 30), 0, F(1, 42), 0,
                           F(-1, 30), 0, F(5, 66), 0, F(-691, 2730)]
    assert bernoulli_factor(64).coeffs == tuple(oracle)
    for order in (0, 1, 2, 17, 40):
        assert bernoulli_factor(order).coeffs == tuple(oracle[: order + 1])


def test_von_staudt_clausen():
    # B_{2m} + sum of 1/p over the primes p with (p - 1) | 2m is an integer,
    # so the denominator of B_{2m} is the product of those primes
    b = bernoulli_factor(64)
    for n in range(2, 65, 2):
        primes = [p for p in range(2, n + 2) if n % (p - 1) == 0
                  and all(p % q for q in range(2, p))]
        assert (b[n] + sum(F(1, p) for p in primes)).denominator == 1
        assert b[n].denominator == prod(primes)


class TestMSeries:
    def test_genocchi(self):
        assert m_series(1, 2, 8).coeffs == (0, 1, -1, 0, 1, 0, -3, 0, 17)

    def test_k3(self):
        assert m_series(1, 3, 4).coeffs == (0, 1, -2, 1, 4)

    def test_h_equals_k_collapses_to_kx(self):
        for k in (1, 2, -3, 5):
            gf = m_series(k, k, 6)
            assert gf == EgfSeries.basis(1, 6, ZZ).scale(k)

    def test_k_zero_rejected(self):
        with pytest.raises(SeriesError):
            m_series(1, 0, 4)


class TestMDirect:
    def test_small_values(self):
        assert m_direct(2, 1, 2) == -1
        assert m_direct(4, 1, 3) == 4

    def test_h_zero(self):
        assert all(m_direct(n, 0, 4) == 0 for n in range(8))

    def test_routes_agree(self):
        for h, k in [(1, 2), (3, 5), (-2, 3), (7, -3), (0, 1)]:
            assert list(m_series(h, k, 12).coeffs) == m_direct_values(h, k, 12)


class TestReductionFactor:
    def test_h2_k1(self):
        # x(e^{2x}-1)/(e^x-1) = x(e^x+1)
        q = reduction_factor(2, 1, 5)
        expected = EgfSeries.exp_line(1, 5, ZZ) + EgfSeries.one(5, ZZ)
        assert q == expected

    def test_h1_positive_k(self):
        for k in (1, 2, 5):
            assert reduction_factor(1, k, 6) == EgfSeries.one(6, ZZ)

    def test_negative_h(self):
        # e^{-x}-1 = -e^{-x}(e^x-1)
        q = reduction_factor(-1, 1, 5)
        assert q == EgfSeries.exp_line(-1, 5, ZZ).scale(-1)

    def test_reduction_identity(self):
        for h, k in [(3, 2), (-4, 3), (5, -2), (0, 6)]:
            q = reduction_factor(h, k, 10)
            assert q.ring is ZZ
            assert q * m_series(1, abs(k), 10) == m_series(h, k, 10)
            product = q.over(QQ) * reference_m_series(1, abs(k), 10)
            assert product == reference_m_series(h, k, 10)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-20, 20),
    st.integers(1, 12),
    st.sampled_from((1, -1)),
    st.integers(0, 48),
)
@example(0, 3, 1, 12)  # h = 0
@example(0, 5, -1, 7)
@example(1, 4, 1, 20)  # h = +-1
@example(-1, 4, -1, 20)
@example(1, 1, -1, 0)
@example(2, 7, 1, 48)  # |h| < |k|
@example(-3, 9, -1, 31)
@example(20, 3, 1, 48)  # |h| > |k|
@example(-17, 12, -1, 48)
@example(-20, 1, 1, 5)
def test_reduction_factor_matches_quotient(h, ka, sign, order):
    k = sign * ka
    q = reduction_factor(h, k, order)
    assert q.ring is ZZ
    assert q.over(QQ) == reference_reduction_factor(h, k, order)


@settings(max_examples=80, deadline=None)
@given(
    st.integers(-20, 20),
    st.integers(1, 12),
    st.sampled_from((1, -1)),
    st.integers(0, 48),
)
@example(0, 3, 1, 12)  # h = 0
@example(1, 1, 1, 0)  # order 0
@example(-1, 4, -1, 1)
@example(2, 7, 1, 48)  # |h| < |k|, non-integral B_n (h/k)
@example(20, 12, -1, 48)
@example(-20, 1, 1, 48)
@example(-17, 12, -1, 48)
# above the drawn range: the kernels carry gf_j k^{N-j} and k^m b_m h^{N-m},
# which grow with the order N
@example(-17, 12, -1, 128)
@example(20, 11, 1, 96)
@example(0, 7, 1, 128)
@example(1, 1, -1, 128)
def test_m_routes_match_fraction_chains(h, ka, sign, order):
    k = sign * ka
    gf = m_series(h, k, order)
    assert gf.ring is ZZ
    assert gf.over(QQ) == reference_m_series(h, k, order)
    direct = m_direct_values(h, k, order)
    assert all(type(c) is int for c in direct)
    assert direct == reference_m_direct_values(h, k, order)


def test_compute_prints_the_fraction_chains(capsys):
    # the lines the CLI printed when both routes were these QQ chains,
    # rendered by ``render_rational``
    h, k, order = 7, -6, 40
    gf = reference_m_series(h, k, order)
    direct = reference_m_direct_values(h, k, order)
    expected = "".join(
        f"{n}\t{render_rational(gf[n])}\t{render_rational(direct[n])}\n"
        for n in range(order + 1)
    )
    argv = ["compute", "--h", str(h), "--k", str(k), "--order", str(order)]
    assert main(argv + ["--route", "both"]) == 0
    assert capsys.readouterr().out == expected


class TestGenocchiRoutes:
    def test_oracle_values(self):
        assert genocchi_oracle(8).coeffs == (0, 1, -1, 0, 1, 0, -3, 0, 17)

    def test_tri_route(self):
        order = 12
        a2 = solve_tree_series(2, order)
        via_inverse = a2.comp_inverse().subst_exp_minus_one()
        via_algebraic = inverse_tree_series(2, order).subst_exp_minus_one()
        gf = m_series(1, 2, order)
        assert gf.ring is ZZ
        assert gf == via_inverse == via_algebraic
        assert gf == genocchi_oracle(order)
        assert gf.over(QQ) == reference_m_series(1, 2, order)


class TestInverseTreeSeries:
    def test_matches_comp_inverse(self):
        for k in (1, 2, 3, 4):
            direct = inverse_tree_series(k, 12)
            assert direct == solve_tree_series(k, 12).comp_inverse()
            assert direct.integrality_report().integral

    def test_k1_is_log(self):
        one_plus_x = EgfSeries.one(8) + EgfSeries.basis(1, 8)
        assert inverse_tree_series(1, 8).over(QQ) == one_plus_x.log()


@pytest.mark.parametrize("k", range(1, 9))
def test_inverse_tree_series_matches_log_form(k):
    oracle = reference_inverse_tree_series(k, 64)
    for n in range(65):
        assert inverse_tree_series(k, n).over(QQ) == oracle.truncate(n)


def test_shift_symmetry():
    # gf(h+k, k) - gf(h, k) = k x e^{hx}, since the numerators differ by
    # e^{hx}(e^{kx}-1)
    for h, k in [(1, 2), (3, 4), (-2, 3), (0, 5)]:
        diff = m_series(h + k, k, 10) - m_series(h, k, 10)
        expected = EgfSeries.exp_line(h, 9, ZZ).mul_by_x().scale(k)
        assert diff == expected


class TestCertify:
    def test_genocchi_certificate(self):
        cert = certify(1, 2, 12)
        assert cert.valid
        assert cert.render().endswith("CERTIFIED")
        g_step = [s for s in cert.steps if s.name == "subst-exp"][0]
        assert g_step.ok

    def test_h_zero(self):
        cert = certify(0, 5, 12)
        assert cert.valid
        assert all(c == 0 for c in m_series(0, 5, 12).coeffs)

    def test_negative_k_and_large_h(self):
        assert certify(7, -3, 12).valid

    def test_fault_injection_refutes(self):
        cert = certify(1, 2, 8, inject_fault="comp-inverse")
        assert not cert.valid
        assert cert.failing_step == "comp-inverse"
        assert cert.render().endswith("REFUTED")

    def test_order_zero_rejected(self):
        with pytest.raises(SeriesError, match="order >= 1"):
            certify(1, 2, 0)

    def test_step_order(self):
        cert = certify(1, 2, 6)
        assert [s.name for s in cert.steps] == [
            "reduction-factor",
            "tree-series",
            "comp-inverse",
            "subst-exp",
            "final-equality",
        ]


@pytest.mark.parametrize("step", STEP_NAMES)
def test_fault_injection_refutes_at_each_step(step):
    cert = certify(7, -3, 12, inject_fault=step)
    assert not cert.valid
    assert cert.failing_step == step
    assert cert.render().endswith("REFUTED")


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("step", STEP_NAMES)
def test_fault_at_low_order_is_refuted_at_its_step(step, order):
    # the fault sits at coefficient min(2, order - 1), which every step's
    # equation reads
    for h, k in [(7, -3), (1, 2), (0, 1), (-4, -1)]:
        cert = certify(h, k, order, inject_fault=step)
        assert [s.name for s in cert.steps] == list(STEP_NAMES[: STEP_NAMES.index(step) + 1])
        assert cert.failing_step == step


def test_certificate_render_is_pinned():
    assert certify(7, -3, 12).render() == (
        "reduction-factor: OK\n"
        "tree-series: OK\n"
        "comp-inverse: OK\n"
        "subst-exp: OK\n"
        "final-equality: OK\n"
        "CERTIFIED"
    )


@pytest.mark.parametrize("step", STEP_NAMES)
def test_fault_render_is_pinned(step):
    # the certificate stops at the failing step
    passed = STEP_NAMES[: STEP_NAMES.index(step)]
    expected = [f"{name}: OK" for name in passed] + [f"{step}: FAIL (mismatch)", "REFUTED"]
    assert certify(7, -3, 12, inject_fault=step).render() == "\n".join(expected)


def am_phi_bumped_at(index):
    """``am_phi`` whose online step adds 1 to coefficient ``index``."""

    def wrong_phi(k):
        phi = am_phi(k)

        def online(ring):
            step = phi.online(ring)
            return lambda a: step(a) + 1 if len(a) == index else step(a)

        return replace(phi, online=online)

    return wrong_phi


@pytest.mark.parametrize("k", [1, 2, 3, -6])
def test_tree_series_step_refutes_a_wrong_tree_series(monkeypatch, k):
    # no later step reads A, so the solve's own check Phi(A) = A must
    # refute a wrong A
    for index in range(1, 13):
        monkeypatch.setattr(bernoulli, "am_phi", am_phi_bumped_at(index))
        cert = certify(7, k, 12)
        assert [s.name for s in cert.steps] == list(STEP_NAMES[:2])
        assert cert.failing_step == "tree-series"


@pytest.mark.parametrize("k", [1, 2, 3, -6])
def test_comp_inverse_step_refutes_a_wrong_inverse(monkeypatch, k):
    # only equation (ii), d g = k log(1+x), reads g
    for index in range(13):
        monkeypatch.setattr(
            bernoulli, "inverse_tree_series", lambda ka, n: bump(inverse_tree_series(ka, n), index)
        )
        cert = certify(7, k, 12)
        assert [s.name for s in cert.steps] == list(STEP_NAMES[:3])
        assert cert.failing_step == "comp-inverse"


def wrong_reduction_factor(h, k, n):
    # Q_{N-1} is the last coefficient that Q (e^x - 1) and the product with
    # gf(1,|k|) read; the wrong Q is still integral
    return bump(reduction_factor(h, k, n), n - 1)


def test_wrong_integral_reduction_factor_is_refuted(monkeypatch):
    monkeypatch.setattr(bernoulli, "reduction_factor", wrong_reduction_factor)
    cert = certify(7, -3, 12)
    assert not cert.valid
    assert cert.failing_step == "reduction-factor"
    assert cert.render().endswith("REFUTED")


def wrong_direct_values(h, k, n):
    values = m_direct_values(h, k, n)
    values[-1] += 1
    return values


def test_wrong_direct_values_are_refuted_at_final_equality(monkeypatch):
    monkeypatch.setattr(bernoulli, "m_direct_values", wrong_direct_values)
    cert = certify(7, -3, 12)
    assert [s.ok for s in cert.steps] == [True] * 4 + [False]
    assert cert.failing_step == "final-equality"


@pytest.mark.parametrize(
    "module, route, wrong",
    [
        (bernoulli, "reduction_factor", wrong_reduction_factor),
        (bernoulli, "inverse_tree_series", lambda k, n: bump(inverse_tree_series(k, n), n)),
        (bernoulli, "m_direct_values", wrong_direct_values),
        (bernoulli, "m_series", lambda h, k, n: bump(m_series(h, k, n), n)),
    ],
    ids=["reduction_factor", "inverse_tree_series", "m_direct_values", "m_series"],
)
def test_theorem_sweep_refutes_a_wrong_route(monkeypatch, module, route, wrong):
    assert verify.check_theorem_sweep(2, 8)
    monkeypatch.setattr(module, route, wrong)
    assert not verify.check_theorem_sweep(2, 8)


@pytest.mark.parametrize(
    "module, route, solve",
    [
        (verify, "solve_tree_series", solve_tree_series),
        (bernoulli, "inverse_tree_series", inverse_tree_series),
    ],
    ids=["solve_tree_series", "inverse_tree_series"],
)
def test_inverse_consistency_refutes_a_wrong_route(monkeypatch, module, route, solve):
    # the check is the one reversion of each k-tree series, so it alone ties
    # the algebraic inverse that theorem-sweep reads to the solved series
    assert verify.check_inverse_consistency(8, 16)
    monkeypatch.setattr(
        module, route, lambda k, n: bump(solve(k, n), n) if k == 8 else solve(k, n)
    )
    assert not verify.check_inverse_consistency(8, 16)


def wrong_bernoulli_factor(order):
    # B_2 = 1/5 in place of 1/6: M_n gains C(n,2) k^2 h^{n-2} / 30, which
    # is not an integer, so ``m_direct_values``'s division leaves a remainder
    return bernoulli_factor(order).with_coefficient(2, F(1, 5))


def test_theorem_sweep_fails_on_a_remainder(monkeypatch):
    monkeypatch.setattr(bernoulli, "bernoulli_factor", wrong_bernoulli_factor)
    with pytest.raises(NonDivisibleError):
        m_direct_values(1, 2, 8)
    assert not verify.check_theorem_sweep(2, 8)


def test_certificate_fails_on_a_remainder(monkeypatch, capsys):
    # the NonDivisibleError from ``m_direct_values`` is final-equality's
    # FAIL line, and the CLI reports it as a refutation, not a traceback
    monkeypatch.setattr(bernoulli, "bernoulli_factor", wrong_bernoulli_factor)
    with pytest.raises(NonDivisibleError):
        m_direct_values(7, -3, 12)
    cert = certify(7, -3, 12)
    assert cert.failing_step == "final-equality"
    assert cert.render().endswith("final-equality: FAIL (mismatch)\nREFUTED")
    assert main(["certify", "--h", "7", "--k", "-3", "--order", "12"]) == 1
    captured = capsys.readouterr()
    assert captured.out == cert.render() + "\n"
    assert captured.err == ""


@pytest.mark.parametrize(
    "call",
    [
        lambda: m_series(1, 2, -1),
        lambda: m_direct_values(1, 2, -1),
        lambda: m_direct(-1, 1, 2),
        lambda: reduction_factor(1, 2, -1),
        lambda: inverse_tree_series(2, -1),
        lambda: bernoulli_factor(-1),
        lambda: genocchi_oracle(-1),
    ],
    ids=[
        "m_series", "m_direct_values", "m_direct", "reduction_factor",
        "inverse_tree_series", "bernoulli_factor", "genocchi_oracle",
    ],
)
def test_negative_order_rejected(call):
    with pytest.raises(SeriesError, match="order must be >= 0, got -1"):
        call()

from fractions import Fraction
from math import factorial

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
from hurwitz.fixpoint import solve_tree_series
from hurwitz.rings import QQ, binomial
from hurwitz.series import EgfSeries, SeriesError

F = Fraction


def reference_reduction_factor(h, k, order):
    """Test oracle for ``reduction_factor``: Q as the QQ quotient
    gf(h,k)/gf(1,|k|), by series division."""
    gf_hk = m_series(h, k, order + 1)
    gf_base = m_series(1, abs(k), order + 1)
    return gf_hk.div_by_x() * gf_base.div_by_x().reciprocal()


def reference_inverse_tree_series(k, order):
    """Test oracle for ``inverse_tree_series``: k x log(1+x)/((1+x)^k - 1)
    over QQ, as a series log times a series reciprocal."""
    one_plus_x = EgfSeries.one(order) + EgfSeries.basis(1, order)
    log_series = one_plus_x.log()
    # (1+x)^k - 1 as an EGF: coefficient n is C(k,n) * n!
    den = EgfSeries(
        QQ, [0] + [binomial(k, n) * factorial(n) for n in range(1, order + 2)]
    )
    return (log_series * den.div_by_x().reciprocal()).scale(k)


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


class TestMSeries:
    def test_genocchi(self):
        assert m_series(1, 2, 8).coeffs == (0, 1, -1, 0, 1, 0, -3, 0, 17)

    def test_k3(self):
        assert m_series(1, 3, 4).coeffs == (0, 1, -2, 1, 4)

    def test_h_equals_k_collapses_to_kx(self):
        for k in (1, 2, -3, 5):
            gf = m_series(k, k, 6)
            assert gf == EgfSeries.basis(1, 6).scale(k)

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
        expected = EgfSeries.exp_line(1, 5) + EgfSeries.one(5)
        assert q == expected

    def test_h1_positive_k(self):
        for k in (1, 2, 5):
            assert reduction_factor(1, k, 6) == EgfSeries.one(6)

    def test_negative_h(self):
        # e^{-x}-1 = -e^{-x}(e^x-1)
        q = reduction_factor(-1, 1, 5)
        assert q == EgfSeries.exp_line(-1, 5).scale(-1)

    def test_reduction_identity(self):
        for h, k in [(3, 2), (-4, 3), (5, -2), (0, 6)]:
            q = reduction_factor(h, k, 10)
            assert q.integrality_report().integral
            assert q * m_series(1, abs(k), 10) == m_series(h, k, 10)


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
    assert q.ring is QQ
    assert q == reference_reduction_factor(h, k, order)


class TestGenocchiRoutes:
    def test_oracle_values(self):
        assert genocchi_oracle(8).coeffs == (0, 1, -1, 0, 1, 0, -3, 0, 17)

    def test_tri_route(self):
        order = 12
        a2 = solve_tree_series(2, order)
        via_inverse = a2.comp_inverse().subst_exp_minus_one().over(QQ)
        via_algebraic = inverse_tree_series(2, order).subst_exp_minus_one().over(QQ)
        gf = m_series(1, 2, order)
        assert gf == via_inverse == via_algebraic == genocchi_oracle(order)


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
        expected = EgfSeries.exp_line(h, 9).mul_by_x().scale(k)
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
    # the tree-side steps run over ZZ; the fault is added after a lift to QQ
    cert = certify(7, -3, 12, inject_fault=step)
    assert not cert.valid
    assert cert.failing_step == step
    assert cert.render().endswith("REFUTED")


def wrong_reduction_factor(h, k, n):
    # Q_{N-1} is the last coefficient a product with gf(1,|k|) reads; the
    # wrong Q is still integral, so only that product can refute it
    return bump(reduction_factor(h, k, n), n - 1)


def test_wrong_integral_reduction_factor_is_refuted(monkeypatch):
    monkeypatch.setattr(bernoulli, "reduction_factor", wrong_reduction_factor)
    cert = certify(7, -3, 12)
    assert not cert.valid
    assert cert.failing_step == "final-equality"
    assert cert.render().endswith("REFUTED")


def wrong_direct_values(h, k, n):
    values = m_direct_values(h, k, n)
    values[-1] += 1
    return values


@pytest.mark.parametrize(
    "module, route, wrong",
    [
        (bernoulli, "reduction_factor", wrong_reduction_factor),
        (verify, "solve_tree_series", lambda k, n: bump(solve_tree_series(k, n), n)),
        (bernoulli, "m_direct_values", wrong_direct_values),
    ],
    ids=["reduction_factor", "solve_tree_series", "m_direct_values"],
)
def test_theorem_sweep_refutes_a_wrong_route(monkeypatch, module, route, wrong):
    assert verify.check_theorem_sweep(2, 8)
    monkeypatch.setattr(module, route, wrong)
    assert not verify.check_theorem_sweep(2, 8)


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

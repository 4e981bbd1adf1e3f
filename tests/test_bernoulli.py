from fractions import Fraction

import pytest

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
from hurwitz.rings import QQ
from hurwitz.series import EgfSeries, SeriesError

F = Fraction


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


class TestGenocchiRoutes:
    def test_oracle_values(self):
        assert genocchi_oracle(8).coeffs == (0, 1, -1, 0, 1, 0, -3, 0, 17)

    def test_tri_route(self):
        order = 12
        a2 = solve_tree_series(2, order)
        via_inverse = a2.comp_inverse().subst_exp_minus_one().over(QQ)
        via_algebraic = inverse_tree_series(2, order).subst_exp_minus_one()
        gf = m_series(1, 2, order)
        assert gf == via_inverse == via_algebraic == genocchi_oracle(order)


class TestInverseTreeSeries:
    def test_matches_comp_inverse(self):
        for k in (1, 2, 3, 4):
            direct = inverse_tree_series(k, 12)
            assert direct == solve_tree_series(k, 12).comp_inverse().over(QQ)
            assert direct.integrality_report().integral

    def test_k1_is_log(self):
        one_plus_x = EgfSeries.one(8) + EgfSeries.basis(1, 8)
        assert inverse_tree_series(1, 8) == one_plus_x.log()


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

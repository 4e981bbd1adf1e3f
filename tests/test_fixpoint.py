from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hurwitz import verify
from hurwitz.fixpoint import (
    NotAContractionError,
    PhiSpec,
    am_phi,
    pk_of_series,
    power_sum_phi,
    solve_fixed_point,
    solve_tree_series,
    sum_powers_against_basis,
    verify_exp_form,
    verify_postnikov_form,
)
from hurwitz.parametric import parametric_phi
from hurwitz.rings import POLY, QQ, ZZ, binomial_rows
from hurwitz.series import EgfSeries, SeriesError


def iterate_from_zero(phi, order, ring=QQ):
    """Growing-order iteration A <- Phi(A) from the zero series, where pass n
    works at order n and pins coefficient n.  This was the solver before the
    online one; it is kept as a test oracle for it.  Run over QQ, it is also
    the oracle for the tree series, which ``solve_tree_series`` solves over
    ZZ."""
    a = EgfSeries.zero(0, ring)
    for n in range(1, order + 1):
        a = phi.apply(a.extend(n))
    assert phi.apply(a) == a
    return a


def power_sum_tree_phi(k):
    """The tree map as the paper's sum of powers, whose online steps never
    divide: the oracle for ``am_phi``'s exp form."""
    return power_sum_phi("t", binomial_rows(k)[k][1:], [1])


def const_x_phi():
    """Phi(A) = x in both forms."""
    return PhiSpec(
        "const-x",
        lambda a: EgfSeries.basis(1, a.order, a.ring),
        lambda ring: lambda a: ring.one if len(a) == 1 else ring.zero,
    )


def shift_by_x2_phi():
    """Phi(A) = A + x^2, not a contraction.  Coefficient m of Phi(A) needs
    A_m itself; the online step, which sees only A_0..A_{m-1}, takes it as 0."""
    return PhiSpec(
        "shift-by-x2",
        lambda a: a + EgfSeries.basis(1, a.order) * EgfSeries.basis(1, a.order)
        if a.order >= 2
        else a,
        lambda ring: lambda a: 2 if len(a) == 2 else ring.zero,
    )


class TestPk:
    def test_k1_is_constant_one(self):
        a = EgfSeries.exp_line(3, 4)
        assert pk_of_series(1, a) == EgfSeries.one(4)

    def test_k2_at_zero(self):
        assert pk_of_series(2, EgfSeries.zero(3)) == EgfSeries.one(3).scale(2)

    def test_k3_at_x(self):
        # 3 + 3x + x^2: EGF coefficients [3, 3, 2]
        assert pk_of_series(3, EgfSeries.basis(1, 2)).coeffs == (3, 3, 2)


class TestSolve:
    def test_constant_map(self):
        assert solve_fixed_point(const_x_phi(), 4) == EgfSeries.basis(1, 4)

    def test_k2_matches_tree_counts(self):
        assert solve_tree_series(2, 4).coeffs == (0, 1, 2, 7, 36)

    def test_non_contraction_raises(self):
        with pytest.raises(NotAContractionError):
            solve_fixed_point(shift_by_x2_phi(), 4)

    def test_online_step_disagreeing_with_apply_raises(self):
        phi = replace(am_phi(2), online=am_phi(3).online)
        with pytest.raises(NotAContractionError, match="tree-series-phi"):
            solve_fixed_point(phi, 4)

    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError, match="-1"):
            solve_fixed_point(am_phi(2), -1)

    def test_order_zero(self):
        assert solve_tree_series(2, 0) == EgfSeries.zero(0, ZZ)

    def test_k1_is_exp_minus_one(self):
        a = solve_tree_series(1, 6)
        assert a == EgfSeries.exp_line(1, 6, ZZ) - EgfSeries.one(6, ZZ)

    def test_k3_low_order(self):
        assert solve_tree_series(3, 2).coeffs == (0, 1, 3)

    def test_monotone_stabilization(self):
        # after solving at order N, re-solving at a lower order agrees
        full = solve_tree_series(2, 8)
        for n in range(1, 8):
            assert solve_tree_series(2, n) == full.truncate(n)


class TestExpForms:
    def test_solution_satisfies_exp_form(self):
        a = solve_tree_series(2, 8)
        assert verify_exp_form(a, 2)

    def test_x_is_not_the_solution(self):
        assert not verify_exp_form(EgfSeries.basis(1, 4), 2)

    def test_k1_exp_form(self):
        a = EgfSeries.exp_line(1, 6) - EgfSeries.one(6)
        assert verify_exp_form(a, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 5])
    def test_exp_form_runs_over_zz(self, monkeypatch, k):
        def no_lift(series, ring):
            raise AssertionError(f"lifted to {ring.name}")

        monkeypatch.setattr(EgfSeries, "over", no_lift)
        a = solve_tree_series(k, 10)
        assert a.ring is ZZ
        assert verify_exp_form(a, k)
        assert not verify_exp_form(a.with_coefficient(7, a[7] + 1), k)

    def test_postnikov_form(self):
        assert verify_postnikov_form(solve_tree_series(2, 8))

    def test_postnikov_rejects_zero(self):
        assert not verify_postnikov_form(EgfSeries.zero(4))

    def test_postnikov_rejects_perturbation(self):
        a = solve_tree_series(2, 8)
        corrupted = a.with_coefficient(4, a[4] + 1)
        assert not verify_postnikov_form(corrupted)

    def test_general_k_check_refutes_a_wrong_series(self, monkeypatch):
        # the wrong k = 4 series is still integral, so only the comparison
        # with the power-sum solve can refute it
        def wrong(k, order):
            a = solve_tree_series(k, order)
            return a.with_coefficient(12, a[12] + 1) if k == 4 else a

        monkeypatch.setattr(verify, "solve_tree_series", wrong)
        assert not verify.check_general_k_integrality(4, 24)

    def test_general_k_check_compares_the_power_sum_route(self, monkeypatch):
        # the tree-series solve passes its own check; only the comparison
        # with the division-free solve can refute a wrong power-sum route
        def wrong(phi, order, ring):
            a = solve_fixed_point(phi, order, ring)
            return a.with_coefficient(order, a[order] + 1)

        assert verify.check_general_k_integrality(3, 12)
        monkeypatch.setattr(verify, "solve_fixed_point", wrong)
        assert not verify.check_general_k_integrality(3, 12)

    def test_all_three_forms_at_once(self):
        a = solve_tree_series(2, 10)
        assert verify_postnikov_form(a)
        assert verify_exp_form(a, 2)
        assert solve_fixed_point(am_phi(2), 10) == a.over(QQ)


class TestOracles:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 16))
    def test_online_matches_growing_order_iteration(self, k, order):
        assert solve_tree_series(k, order).over(QQ) == iterate_from_zero(am_phi(k), order)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(0, 5))
    def test_parametric_online_matches_growing_order_iteration(self, order):
        online = solve_fixed_point(parametric_phi(), order, POLY)
        assert online == iterate_from_zero(parametric_phi(), order, POLY)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.lists(st.integers(-3, 3), min_size=1, max_size=4),
        st.integers(0, 8),
    )
    def test_power_sum_phi_matches_growing_order_iteration(self, u, r, order):
        # maps r(A) sum u(A)^{n-1} x^n/n! beyond the two the package solves
        phi = power_sum_phi("t", u, r)
        assert solve_fixed_point(phi, order, ZZ).over(QQ) == iterate_from_zero(phi, order)
        if order:
            # coefficient 1 of Phi(A) is r_0, so this online step puts the
            # wrong A_1 and ``apply`` refutes it
            other = power_sum_phi("t", u, [r[0] + 1, *r[1:]])
            with pytest.raises(NotAContractionError):
                solve_fixed_point(replace(phi, online=other.online), order, ZZ)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=12))
    def test_sum_powers_matches_full_powers(self, coeffs):
        # the plain sum of full-order products p^{n-1} * x^n/n!
        p = EgfSeries(QQ, coeffs)
        order = p.order
        expected = EgfSeries.zero(order)
        power = EgfSeries.one(order)
        for n in range(1, order + 1):
            expected = expected + power * EgfSeries.basis(n, order)
            power = power * p
        assert sum_powers_against_basis(p) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 40))
    @example(8, 40)
    @example(1, 40)
    @example(8, 0)
    def test_exp_form_matches_power_sum(self, k, order):
        assert solve_tree_series(k, order) == solve_fixed_point(power_sum_tree_phi(k), order, ZZ)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.lists(st.integers(-9, 9), min_size=1, max_size=14))
    def test_exp_form_apply_matches_power_sum(self, k, coeffs):
        # any integral A with p_k(A_0) != 0, not only the fixed point
        a = EgfSeries(ZZ, coeffs)
        p = pk_of_series(k, a)
        assume(p[0] != 0)
        assert am_phi(k).apply(a) == sum_powers_against_basis(p)

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    @pytest.mark.parametrize("index", [1, 2, 5])
    def test_faulty_online_step_is_refuted_by_apply(self, k, index):
        # the step's own division stays exact, since it divides the power
        # sum of the faulty A; only the full-order check refutes the fault
        online = am_phi(k).online

        def faulty(ring):
            step = online(ring)
            return lambda a: step(a) + 1 if len(a) == index else step(a)

        with pytest.raises(NotAContractionError):
            solve_fixed_point(replace(am_phi(k), online=faulty), 8, ZZ)

    def test_k2_matches_postnikov_closed_form(self):
        # trees on n+1 vertices: a_n = sum_j C(n+1,j) j^n / ((n+1) 2^n)
        a = solve_tree_series(2, 128)
        for n in range(1, 129):
            closed = Fraction(
                sum(comb(n + 1, j) * j**n for j in range(1, n + 2)),
                (n + 1) * 2**n,
            )
            assert a[n] == closed


@pytest.mark.parametrize("k", range(1, 7))
def test_integrality_for_each_k(k):
    sol = solve_tree_series(k, 16)
    assert sol.integrality_report().integral

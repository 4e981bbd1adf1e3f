from fractions import Fraction
from math import factorial

import pytest

from hurwitz import parametric, verify
from hurwitz.fixpoint import solve_tree_series
from hurwitz.parametric import (
    alternating_factorial_sum,
    beta_diagonal_egf_coefficient,
    beta_lhs_table,
    beta_rhs_table,
    beta_series_identity,
    inverse_monomial_coefficient,
    parametric_inverse_series,
    solve_parametric_f,
    specialize_k2,
    verify_functional_equation,
)
from hurwitz.rings import POLY, QQ, MultiPoly
from hurwitz.series import EgfSeries, SeriesError

F = Fraction


def exponent_tuples(total):
    for e1 in range(total + 1):
        for e2 in range(total - e1 + 1):
            for e3 in range(total - e1 - e2 + 1):
                yield (e1, e2, e3, total - e1 - e2 - e3)


class TestClosedForm:
    def test_lowest_orders(self):
        assert inverse_monomial_coefficient(0, 0, 0, 0) == 1
        assert inverse_monomial_coefficient(1, 0, 0, 0) == -1
        assert inverse_monomial_coefficient(1, 0, 0, 1) == 1

    def test_swap_symmetry(self):
        # invariant under (a1, d1) <-> (d2, a2)
        for n in range(1, 8):
            for e1, e2, e3, e4 in exponent_tuples(n - 1):
                assert inverse_monomial_coefficient(
                    e1, e2, e3, e4
                ) == inverse_monomial_coefficient(e4, e3, e2, e1)


class TestInverseSeries:
    def test_negative_order_rejected(self):
        with pytest.raises(SeriesError, match="order must be >= 0, got -1"):
            parametric_inverse_series(-1)

    def test_first_coefficients(self):
        series = parametric_inverse_series(2)
        assert series[0] == MultiPoly()
        assert series[1] == MultiPoly.constant(1)
        a1 = MultiPoly.variable("a1")
        a2 = MultiPoly.variable("a2")
        b1 = MultiPoly.variable("b1")
        b2 = MultiPoly.variable("b2")
        assert series[2] == -(a1 + a2 + b1 + b2)

    def test_matches_closed_form(self):
        series = parametric_inverse_series(6)
        for n in range(1, 7):
            poly = series[n]
            for exps in exponent_tuples(n - 1):
                assert poly.coefficient(exps) == inverse_monomial_coefficient(*exps)
            # no stray monomials outside total degree n-1
            assert poly.is_homogeneous(n - 1)

    def test_homogeneity(self):
        series = parametric_inverse_series(8)
        for n in range(1, 9):
            assert series[n].is_homogeneous(n - 1)

    def test_series_swap_symmetry(self):
        series = parametric_inverse_series(6)
        for n in range(1, 7):
            terms = series[n].terms
            for (e1, e2, e3, e4), coeff in terms.items():
                assert terms.get((e4, e3, e2, e1)) == coeff

    def test_k2_specialization(self):
        k2 = specialize_k2(parametric_inverse_series(5))
        assert k2.coeffs == (0, 1, -2, 5, -16, 64)


class TestFixedPoint:
    def test_linear_coefficient(self):
        assert solve_parametric_f(2)[1] == MultiPoly.constant(1)

    def test_integer_polynomial_coefficients(self):
        f = solve_parametric_f(6)
        assert f.integrality_report().integral

    def test_compose_with_inverse(self):
        f = solve_parametric_f(6)
        inv = parametric_inverse_series(6)
        assert inv.compose(f) == EgfSeries.basis(1, 6, POLY)

    def test_k2_specialization_is_tree_series(self):
        f = specialize_k2(solve_parametric_f(6))
        assert f == solve_tree_series(2, 6).over(QQ)

    @pytest.mark.parametrize("index", range(1, 6))
    def test_fixed_point_check_refutes_a_wrong_series(self, monkeypatch, index):
        # the solve's own check runs on the right F, so the compose with the
        # inverse must refute the wrong one
        def wrong(order):
            f = solve_parametric_f(order)
            return f.with_coefficient(index, f[index] + MultiPoly.constant(1))

        assert verify.check_parametric_fixed_point(5)
        monkeypatch.setattr(parametric, "solve_parametric_f", wrong)
        assert not verify.check_parametric_fixed_point(5)


class TestFunctionalEquation:
    def test_solution_satisfies(self):
        assert verify_functional_equation(solve_parametric_f(6))

    def test_x_fails(self):
        assert not verify_functional_equation(EgfSeries.basis(1, 4, POLY))

    def test_perturbation_fails(self):
        f = solve_parametric_f(5)
        corrupted = f.with_coefficient(3, f[3] + MultiPoly.constant(1))
        assert not verify_functional_equation(corrupted)


class TestFactorialSum:
    def test_values(self):
        assert alternating_factorial_sum(1) == 1
        assert alternating_factorial_sum(3) == 5
        assert alternating_factorial_sum(4) == -16

    def test_matches_inverse_of_tree_series(self):
        inv = solve_tree_series(2, 12).comp_inverse()
        for n in range(1, 13):
            assert inv[n] == alternating_factorial_sum(n)


class TestBetaIdentity:
    def test_constant_term(self):
        assert beta_rhs_table(0)[(0, 0)] == 1
        assert beta_lhs_table(0)[(0, 0)] == 1

    def test_linear_coefficient(self):
        assert beta_lhs_table(1)[(1, 0)] == F(1, 2)
        assert beta_rhs_table(1)[(1, 0)] == F(1, 2)

    def test_identity_degree_10(self):
        assert beta_series_identity(10)

    def test_lhs_is_beta_values(self):
        table = beta_lhs_table(4)
        assert table[(2, 1)] == F(factorial(2) * factorial(1), factorial(4))

    def test_diagonal_reproduces_factorial_sums(self):
        for n in range(1, 13):
            assert beta_diagonal_egf_coefficient(n) == alternating_factorial_sum(n)

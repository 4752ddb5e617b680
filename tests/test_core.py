"""Unit tests for the series arithmetic core."""

import math
from fractions import Fraction as F

import pytest

from lcpower import core
from lcpower.core import (INF, compare, conjugate, constant, constant_part,
                          eq_up_to, from_terms, invert, magnitude, monomial,
                          retruncate, semi_norm, shift_exponents, sqrt, t,
                          truncated, valuation, zero)
from lcpower.errors import DomainError, PrecisionError, WindowExceededError
import oracles


def lc(text):
    from lcpower.textio import parse_series
    return parse_series(text)


class TestConstruction:
    def test_duplicate_merge(self):
        a = from_terms([(0, 1), (0, 1)])
        assert a.terms == ((F(0), 2 + 0j),)

    def test_d_has_valuation_one(self):
        d = from_terms([(1, 1)])
        assert valuation(d) == 1
        assert d.terms == t.terms

    def test_below_threshold_drops(self):
        assert from_terms([(2, 1e-30)], eps_zero=1e-15).is_zero

    def test_relative_threshold(self):
        a = from_terms([(0, 1.0), (1, 1e-20)])
        assert len(a.terms) == 1  # 1e-20 is residue next to 1.0

    def test_float_exponent_rejected(self):
        with pytest.raises(TypeError, match="exponent must be rational"):
            core.as_exponent(1.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            from_terms([(0, math.inf)])
        with pytest.raises(ValueError):
            from_terms([(0, complex(0, math.nan))])

    def test_terms_above_bound_dropped(self):
        a = from_terms([(0, 1), (7, 2)], valid_to=5)
        assert a.terms == ((F(0), 1 + 0j),)
        assert a.valid_to == F(5)


class TestValuationAndConstantPart:
    def test_examples(self):
        assert valuation(t) == 1
        assert valuation(zero()) is None
        assert valuation(constant(3) + t * t) == 0

    def test_constant_part(self):
        assert constant_part(lc("5 + 2*t^1")) == 5
        assert constant_part(t) == 0
        assert constant_part(lc("100 + t + 2*t^2")) == 100

    def test_constant_part_of_infinitely_large(self):
        with pytest.raises(DomainError):
            constant_part(invert(t))


class TestAddMul:
    def test_cancellation(self):
        assert ((constant(1) + t) + (constant(1) - t)).terms == ((F(0), 2 + 0j),)

    def test_identity(self):
        a = lc("2 + 1*t^2")
        assert (a + zero()).terms == a.terms
        assert (a * 1).terms == a.terms

    def test_componentwise_sum(self):
        assert (lc("2 + t^2") + t).terms == lc("2 + t + t^2").terms

    def test_monomial_product(self):
        assert (t * t).terms == monomial(2).terms

    def test_convolution(self):
        a = truncated(lc("1 + t") * lc("1 - t"), 5)
        assert a.terms == lc("1 - t^2").terms

    def test_add_bound_is_min(self):
        a = from_terms([(0, 1)], valid_to=3)
        b = from_terms([(0, 1)], valid_to=7)
        assert (a + b).valid_to == F(3)

    def test_mul_bound_formula(self):
        # min(T_a + val(b), T_b + val(a))
        a = from_terms([(1, 1)], valid_to=4)
        b = from_terms([(2, 1)], valid_to=3)
        assert (a * b).valid_to == F(4)

    def test_zero_product_is_exact(self):
        a = from_terms([(0, 1)], valid_to=3)
        assert (a * zero()).valid_to == INF


class TestInvert:
    def test_identity(self):
        assert invert(constant(1)).terms == constant(1).terms

    def test_series_vs_longdiv_oracle(self):
        a = truncated(lc("1 + t"), 3)
        got = invert(a)
        want = oracles.series_inv_longdiv(lc("1 + t"), 3)
        assert got.terms == want.terms
        assert got.valid_to == F(3)

    def test_monomial_inverse(self):
        assert invert(t).terms == monomial(-1).terms
        assert invert(t).valid_to == INF

    def test_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            invert(zero())

    def test_unbounded_series_needs_bound(self):
        with pytest.raises(PrecisionError):
            invert(lc("1 + t"))

    def test_bound_truncates_the_input(self):
        a = lc("2 + t + t^5")
        got = invert(a, bound=3)
        assert got.valid_to == F(3)
        assert got.terms == invert(truncated(a, 3)).terms

    def test_coefficient_overflow_raises(self):
        # the recurrence's coefficients grow like 1e13^k and leave the float range
        for series_op in (invert, sqrt):
            with pytest.raises(ValueError, match="coefficient overflow in multiplication"):
                series_op(lc("1 + 1e13*t"), bound=30)

    def test_roundtrip_window(self):
        a = from_terms([(1, 2.0), (2, 1.0), (3, -0.5)], valid_to=6)
        inv = invert(a)
        assert inv.valid_to == F(4)  # 6 - 2*1
        assert eq_up_to(a * inv, constant(1), F(4), 1e-12)


class TestSqrt:
    def test_identity(self):
        assert sqrt(constant(1)).terms == constant(1).terms

    def test_series_vs_newton_oracle(self):
        got = sqrt(lc("1 + t"), bound=3)
        want = oracles.series_sqrt_newton(lc("1 + t"), 3)
        assert got.terms == want.terms

    def test_monomial(self):
        assert sqrt(monomial(2)).terms == t.terms

    def test_zero(self):
        assert sqrt(zero()).is_zero

    def test_negative_raises(self):
        with pytest.raises(DomainError):
            sqrt(constant(-1))

    def test_complex_raises(self):
        with pytest.raises(DomainError):
            sqrt(constant(1j))

    def test_fractional_valuation(self):
        a = shift_exponents(truncated(lc("4 + t"), 4), F(1))  # 4t + t^2
        r = sqrt(a)
        assert r.terms[0] == (F(1, 2), 2 + 0j)
        assert eq_up_to(r * r, a, r.valid_to, 1e-12)


@pytest.mark.parametrize("op", [
    lambda a: a + "x", lambda a: "x" + a, lambda a: a - "x", lambda a: "x" - a,
    lambda a: a * "x", lambda a: "x" * a, lambda a: a / "x", lambda a: "x" / a,
    lambda a: a ** 0.5])
def test_non_number_operand_raises_type_error(op):
    with pytest.raises(TypeError):
        op(constant(2))


class TestComplexOps:
    def test_conjugation(self):
        z = monomial(1, 1j)
        assert conjugate(z).terms == monomial(1, -1j).terms

    def test_pythagorean(self):
        assert magnitude(constant(3 + 4j)).terms == constant(5).terms

    def test_magnitude_of_imaginary_series(self):
        got = magnitude(truncated(monomial(1, 1j), 6))
        want = oracles.series_sqrt_newton(constant(1), 6)  # |i t| = t * sqrt(1)
        assert eq_up_to(got, shift_exponents(want, 1), got.valid_to, 1e-12)
        assert got.terms[0] == (F(1), 1 + 0j)

    def test_conj_times_self_is_square_magnitude(self):
        z = lc("(1+2i) + (0.5-0.25i)*t^1")
        m = magnitude(truncated(z, 4))
        lhs = conjugate(z) * z
        assert eq_up_to(lhs, m * m, F(4), 1e-12)


class TestCompare:
    def test_infinitesimal_examples(self):
        assert compare(t, zero()) > 0
        assert compare(t, constant(1e-100)) < 0  # d is below every positive real

    def test_reflexive(self):
        a = lc("1 + 0.5*t^1")
        assert compare(a, a) == 0

    def test_leading_difference(self):
        assert compare(lc("1 + t"), constant(1)) > 0

    def test_complex_rejected(self):
        with pytest.raises(DomainError):
            compare(constant(1j), zero())


class TestSemiNormEq:
    def test_below_window_only(self):
        assert semi_norm(lc("3 + 0.5*t^1"), 0) == 3.0

    def test_zero(self):
        assert semi_norm(zero(), 10) == 0.0

    def test_max_of_magnitudes(self):
        assert semi_norm(lc("1 - t + t^2 - t^3"), 3) == 1.0

    def test_window_exceeded(self):
        a = from_terms([(0, 1)], valid_to=2)
        with pytest.raises(WindowExceededError):
            semi_norm(a, 3)

    def test_eq_up_to(self):
        a = lc("1 + t^5")
        assert eq_up_to(a, constant(1), 3, 0.0)
        assert eq_up_to(a, a, 5, 0.0)

    def test_inversion_contract(self):
        a = truncated(lc("1 + t"), 3)
        assert eq_up_to(invert(a) * a, constant(1), 3, 1e-12)

    def test_eq_window_exceeded(self):
        a = from_terms([(0, 1)], valid_to=2)
        with pytest.raises(WindowExceededError):
            eq_up_to(a, constant(1), 3, 1e-12)


class TestShiftTruncate:
    def test_monomial_shift(self):
        assert shift_exponents(monomial(2), -2).terms == constant(1).terms

    def test_zero_shift(self):
        assert shift_exponents(zero(), F(3)).is_zero

    def test_half_shift(self):
        got = shift_exponents(lc("1 + t"), F(1, 2))
        assert got.terms == ((F(1, 2), 1 + 0j), (F(3, 2), 1 + 0j))

    def test_truncated_tightens_only(self):
        a = from_terms([(0, 1), (2, 1)], valid_to=4)
        assert truncated(a, 9).valid_to == F(4)
        assert truncated(a, 1).terms == ((F(0), 1 + 0j),)

    def test_retruncate_sets_window(self):
        a = from_terms([(0, 1), (2, 1)], valid_to=4)
        assert retruncate(a, 9).valid_to == F(9)
        assert retruncate(a, 1).valid_to == F(1)


class TestOperators:
    def test_order(self):
        one_plus_t = lc("1 + t")
        assert t < 1 and not t < 0
        assert constant(1) <= 1 and t <= t
        assert one_plus_t > 1 and not one_plus_t > one_plus_t
        assert one_plus_t >= constant(1) and not t >= 1
        assert 1 < one_plus_t  # reflected: (1 + t).__gt__(1)

    def test_order_rejects(self):
        with pytest.raises(TypeError):
            t < "1"
        with pytest.raises(TypeError):
            t >= None
        with pytest.raises(DomainError):
            constant(1j) < 1
        with pytest.raises(DomainError):
            t >= from_terms([(0, 1), (1, 2j)])

    def test_pow(self):
        a = lc("1 + t")
        assert (a ** 0).terms == constant(1).terms
        assert (a ** 3).terms == lc("1 + 3*t + 3*t^2 + t^3").terms
        b = truncated(a, 4)
        got = b ** -2  # 1 / (1 + t)^2 = sum (-1)^k (k + 1) t^k
        assert got.valid_to == 4
        assert got.terms == tuple((F(k), complex((-1) ** k * (k + 1))) for k in range(5))
        with pytest.raises(TypeError):
            a ** 0.5

    def test_division(self):
        b = truncated(lc("1 + t"), 3)
        assert eq_up_to(lc("2 + 2*t") / b, constant(2), 3, 1e-15)
        assert (lc("2 + 4*t") / 2).terms == lc("1 + 2*t").terms
        assert (lc("2 + 4*t") / 2).valid_to == INF
        with pytest.raises(TypeError):
            t / "2"

    def test_reflected(self):
        assert (1 - t).terms == lc("1 - t").terms
        assert (2 / constant(4)).terms == constant(0.5).terms
        got = 2 / truncated(lc("1 + t"), 3)
        assert got.terms == lc("2 - 2*t + 2*t^2 - 2*t^3").terms
        assert got.valid_to == 3

    def test_bool(self):
        assert t and constant(1e-200)
        assert not zero() and not zero(3)
        assert not (t - t)

    def test_leading_coefficient(self):
        assert core.leading_coefficient(from_terms([(2, 3), (3, 2j)])) == 3
        assert core.leading_coefficient(from_terms([(F(-1, 2), 2j), (0, 1)])) == 2j
        assert core.leading_coefficient(zero(5)) == 0j


def test_exponent_order_ops_build_no_lattice(monkeypatch):
    """The sum, the comparisons, the semi-norms and the coefficient parts
    only merge, compare and filter exponents, so they run on the numbers'
    own ``Fraction`` exponents; the product and the series build a lattice."""
    a = from_terms([(0, 1), (F(1, 3), 0.5j), (F(3, 2), 2)], valid_to=F(5, 2))
    b = from_terms([(0, 1), (F(1, 2), -1)], valid_to=F(7, 3))
    r = from_terms([(0, 3), (F(1, 2), 1)], valid_to=4)

    def no_lattice(*args):
        raise AssertionError("a Lattice was built")

    monkeypatch.setattr(core, "Lattice", no_lattice)
    assert (a + b).terms == ((0, 2), (F(1, 3), 0.5j), (F(1, 2), -1), (F(3, 2), 2))
    assert (a + b).valid_to == F(7, 3)
    assert (1 + b).terms == ((0, 2), (F(1, 2), -1)) and (a - a).terms == ()
    assert (a - b).terms == ((F(1, 3), 0.5j), (F(1, 2), 1), (F(3, 2), 2))
    assert (1 - b).terms == ((F(1, 2), 1),)
    assert (-b).terms == ((0, -1), (F(1, 2), 1)) and (-b).valid_to == F(7, 3)
    assert core.real_part(a).terms == ((0, 1), (F(3, 2), 2))
    assert core.imag_part(a).terms == ((F(1, 3), 0.5),)
    assert conjugate(a).terms == ((0, 1), (F(1, 3), -0.5j), (F(3, 2), 2))
    assert not core.is_real(a) and core.is_real(b)
    assert compare(r, r + 1) < 0 and r > b
    # windows off the operands' exponents
    assert semi_norm(a, F(2, 5)) == 1.0
    with pytest.raises(WindowExceededError, match="window 13/5 exceeds validity bound 5/2"):
        semi_norm(a, F(13, 5))
    assert eq_up_to(a, b, F(2, 7), 0.0) and not eq_up_to(a, b, F(2, 5), 0.4)
    for kernel_call in (lambda: a * b, lambda: invert(b), lambda: sqrt(r),
                        lambda: magnitude(a)):
        with pytest.raises(AssertionError, match="Lattice"):
            kernel_call()

"""Unit tests for vectors, matrices, norms, disks, and companions."""

from fractions import Fraction as F

import numpy as np
import pytest

from lcpower import core
from lcpower.core import (compare, constant, eq_up_to, magnitude, monomial,
                          truncated, valuation, zero)
from lcpower.errors import DegenerateInputError, DomainError
from lcpower.linalg import (LCMatrix, LCVector, Polynomial,
                            all_eigenvalues_at_most_finite, companion_matrix,
                            gershgorin_disks, matvec, min_valuation, norm_l2,
                            norm_max, norm_max_info, pi_matrix, poly_eval,
                            rayleigh_quotient)
from lcpower.textio import parse_matrix, parse_series
import oracles
from randgen import noise_cleaned_diff, rand_lc, rand_nonzero

T = parse_series("t")
I2 = parse_matrix("1; 0\n0; 1")


class TestMatvec:
    def test_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = LCVector([rand_lc(rng, bound=5, complex_coeffs=True) for _ in range(2)])
            y = matvec(I2, x)
            for a, b in zip(x, y):
                assert a.terms == b.terms

    def test_diagonal(self):
        y = matvec(parse_matrix("2; 0\n0; 1"), LCVector([1, 1]))
        assert [e.terms for e in y] == [constant(2).terms, constant(1).terms]

    def test_series_entries(self):
        y = matvec(parse_matrix("2; t\nt; 1"), LCVector([1, 0]))
        assert y[0].terms == constant(2).terms
        assert y[1].terms == T.terms

    def test_dimension_mismatch(self):
        with pytest.raises(DegenerateInputError):
            matvec(I2, LCVector([1, 2, 3]))


class TestVector:
    def test_sub(self):
        d = LCVector([1, T]) - LCVector([T, truncated(T, 3)])
        assert [e.terms for e in d] == [parse_series("1 - t").terms, ()]
        assert d.bound == 3

    def test_sub_length_mismatch(self):
        with pytest.raises(DegenerateInputError, match="length mismatch"):
            LCVector([1, T]) - LCVector([1, T, 1])


class TestValuationScaling:
    def test_min_valuation(self):
        assert min_valuation(parse_matrix("2; t\nt; 1")) == 0
        assert min_valuation(parse_matrix("1*t^(-1); 1\n0; t")) == -1
        assert min_valuation(parse_matrix("1*t^2")) == 2

    def test_zero_matrix(self):
        with pytest.raises(DegenerateInputError):
            min_valuation(parse_matrix("0; 0\n0; 0"))

    def test_scale_by_monomial(self):
        from lcpower.linalg import scale_by_monomial
        A = parse_matrix("1*t^(-1); 1\n0; t")
        B = scale_by_monomial(A, 1)
        assert B.rows[0][0].terms == constant(1).terms
        assert B.rows[1][1].terms == monomial(2).terms
        assert scale_by_monomial(parse_matrix("1*t^2"), -2).rows[0][0].terms == constant(1).terms
        # shift by the negated minimum valuation lands at valuation 0
        C = scale_by_monomial(A, -min_valuation(A))
        assert min_valuation(C) == 0


class TestNorms:
    def test_l2_constants(self):
        assert norm_l2(LCVector([3, 4])).terms == constant(5).terms

    def test_l2_zero(self):
        assert norm_l2(LCVector([zero(), zero()])).is_zero

    def test_l2_series(self):
        x = LCVector([core.retruncate(constant(1), 4), core.retruncate(T, 4)])
        got = norm_l2(x)  # sqrt(1 + t^2) = 1 + t^2/2 - t^4/8
        want = parse_series("1 + 0.5*t^2 - 0.125*t^4")
        assert eq_up_to(got, want, 4, 1e-12)

    def test_l2_squared_matches_inner_product(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            x = LCVector([rand_lc(rng, bound=5, complex_coeffs=True) for _ in range(3)])
            n = norm_l2(x)
            s = zero()
            for e in x:
                s = s + core.conjugate(e) * e
            window = min((n * n).valid_to, s.valid_to)
            assert eq_up_to(n * n, s, window, 1e-10 * max(1.0, core.semi_norm(s, window)))

    def test_max_constants(self):
        value, idx = norm_max(LCVector([1, 2]))
        assert (value.terms, idx) == (constant(2).terms, 1)

    def test_max_series_order(self):
        value, idx = norm_max(LCVector([parse_series("1 + t"), constant(1)]))
        assert idx == 0 and value.terms == parse_series("1 + t").terms

    def test_max_smaller_valuation_wins(self):
        value, idx = norm_max(LCVector([T, monomial(2)]))
        assert idx == 0 and value.terms == T.terms

    def test_max_tie_smallest_index(self):
        info = norm_max_info(LCVector([2, 2, 1]))
        assert (info.index, info.tie) == (0, True)

    def test_max_scaling(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x = LCVector([rand_nonzero(rng, bound=5) for _ in range(3)])
            c = float(rng.uniform(0.5, 3.0))
            v1, i1 = norm_max(x)
            v2, i2 = norm_max(x * constant(c))
            assert i1 == i2
            assert eq_up_to(v2, v1 * constant(c), v1.valid_to, 1e-12 * c)


class TestRayleigh:
    def test_exact_eigenvector(self):
        assert rayleigh_quotient(parse_matrix("2; 0\n0; 1"), LCVector([1, 0])
                                 ).terms == constant(2).terms

    def test_series_eigenvalue(self):
        got = rayleigh_quotient(parse_matrix("2 + t; 0\n0; 1"), LCVector([1, 0]))
        assert got.terms == parse_series("2 + t").terms

    def test_non_eigenvector(self):
        got = rayleigh_quotient(parse_matrix("2; t\nt; 1"), LCVector([1, 0]))
        assert got.terms == constant(2).terms

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            rayleigh_quotient(I2, LCVector([zero(), zero()]))

    def test_vanishing_constant_norm_rejected(self):
        with pytest.raises(DegenerateInputError):
            rayleigh_quotient(I2, LCVector([T, T]))


class TestGershgorin:
    def test_diagonal(self):
        disks = gershgorin_disks(parse_matrix("2; 0\n0; 1"))
        assert [d.center.terms for d in disks] == [constant(2).terms, constant(1).terms]
        assert all(d.radius.is_zero for d in disks)
        assert all_eigenvalues_at_most_finite(disks)

    def test_offdiagonal(self):
        disks = gershgorin_disks(parse_matrix("2; t\nt; 1"))
        assert [d.radius.terms for d in disks] == [T.terms, T.terms]
        assert all_eigenvalues_at_most_finite(disks)

    def test_infinitely_large_center(self):
        disks = gershgorin_disks(parse_matrix("1*t^(-1); 0\n0; 1"))
        assert not all_eigenvalues_at_most_finite(disks)

    def test_containment_2x2(self):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 25:
            A = LCMatrix([[rand_nonzero(rng, bound=6, max_terms=3) for _ in range(2)]
                          for _ in range(2)])
            try:
                nus = oracles.eig2x2_symbolic(A, 6)
            except DomainError:
                continue
            checked += 1
            disks = gershgorin_disks(A)
            for nu in nus:
                hit = False
                for d in disks:
                    dist = magnitude(noise_cleaned_diff(nu, d.center))
                    window = min(F(6), dist.valid_to, d.radius.valid_to)
                    if compare(truncated(dist, window), truncated(d.radius, window)) <= 0:
                        hit = True
                        break
                assert hit, "eigenvalue escaped every disk"


class TestPiMatrix:
    def test_entries(self):
        assert np.array_equal(pi_matrix(parse_matrix("2; t\nt; 1")),
                              np.array([[2, 0], [0, 1]], dtype=complex))

    def test_all_infinitesimal(self):
        assert not pi_matrix(parse_matrix("t; 1*t^2\n1*t^3; t")).any()

    def test_infinitely_large_rejected(self):
        with pytest.raises(DomainError):
            pi_matrix(parse_matrix("1*t^(-1); 0\n0; 1"))

    def test_commutes_with_companion(self):
        rng = np.random.default_rng(12)
        coeffs = tuple(rand_lc(rng, bound=4, complex_coeffs=True) + constant(1)
                       for _ in range(4))
        C = companion_matrix(Polynomial(coeffs))
        lhs = pi_matrix(C)
        want = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            want[i, 3] = -core.constant_part(coeffs[i])
            if i >= 1:
                want[i, i - 1] = 1.0
        assert np.array_equal(lhs, want)


class TestCompanion:
    def test_linear(self):
        C = companion_matrix(Polynomial((parse_series("-3 - t"),)))  # x - (3 + t)
        assert C.n == 1 and C.rows[0][0].terms == parse_series("3 + t").terms

    def test_quadratic(self):
        C = companion_matrix(Polynomial((constant(2), constant(-3))))  # x^2 - 3x + 2
        assert C.rows[0][0].is_zero
        assert C.rows[0][1].terms == constant(-2).terms
        assert C.rows[1][0].terms == constant(1).terms
        assert C.rows[1][1].terms == constant(3).terms

    def test_dominant_eigenvalue_matches_2x2_oracle(self):
        # (x - 2 - t^2)(x - 1 + t^2), expanded
        r1 = parse_series("2 + t^2")
        r2 = parse_series("1 - t^2")
        P = Polynomial((r1 * r2, -(r1 + r2)))
        C = companion_matrix(P)
        nu1, nu2 = oracles.eig2x2_symbolic(C, 6)
        assert eq_up_to(nu1, truncated(r1, 6), 6, 1e-10)
        assert eq_up_to(nu2, truncated(r2, 6), 6, 1e-10)

    def test_degree_zero_rejected(self):
        with pytest.raises(DomainError):
            Polynomial(())

    def test_poly_eval_horner(self):
        P = Polynomial((constant(2), constant(-3)))  # x^2 - 3x + 2 = (x-1)(x-2)
        assert poly_eval(P, constant(1)).is_zero
        assert poly_eval(P, constant(2)).is_zero
        assert poly_eval(P, constant(0)).terms == constant(2).terms


class TestPiSpectrum:
    def test_constant_parts_commute_with_spectrum(self):
        rng = np.random.default_rng(13)
        for n in (2, 3):
            for _ in range(10):
                A = LCMatrix([[rand_lc(rng, bound=5, complex_coeffs=True)
                               for _ in range(n)] for _ in range(n)])
                cs = oracles.charpoly_series(A, 5)
                poly0 = [core.constant_part(c) for c in cs]
                via_series = oracles.poly_roots_complex(poly0)
                via_pi = oracles.charpoly_roots_complex(pi_matrix(A))
                remaining = list(via_pi)
                for r in via_series:
                    j = min(range(len(remaining)), key=lambda k: abs(remaining[k] - r))
                    assert abs(remaining[j] - r) < 1e-8
                    remaining.pop(j)

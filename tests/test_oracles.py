"""Self-consistency of the brute-force oracles."""

from fractions import Fraction as F

import numpy as np
import pytest

from lcpower import core
from lcpower.core import constant, eq_up_to, monomial
from lcpower.errors import DomainError
from lcpower.linalg import LCMatrix
from lcpower.textio import parse_matrix, parse_series
import oracles
from randgen import rand_nonzero, rand_positive


class TestInvOracle:
    def test_geometric(self):
        got = oracles.series_inv_longdiv(parse_series("1 + t"), 3)
        assert got.terms == parse_series("1 - t + t^2 - t^3").terms

    def test_constants(self):
        assert oracles.series_inv_longdiv(constant(1), 3).terms == constant(1).terms
        assert oracles.series_inv_longdiv(constant(2), 3).terms == constant(0.5).terms

    def test_self_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rand_nonzero(rng, bound=5, complex_coeffs=True)
            inv = oracles.series_inv_longdiv(a, 5)
            window = F(5) - 2 * a.terms[0][0]
            assert eq_up_to(a * inv, constant(1), core._bmin(window, (a * inv).valid_to), 1e-10)


class TestSqrtOracle:
    def test_constants(self):
        assert oracles.series_sqrt_newton(constant(1), 3).terms == constant(1).terms
        assert oracles.series_sqrt_newton(constant(4), 3).terms == constant(2).terms

    def test_binomial(self):
        got = oracles.series_sqrt_newton(parse_series("1 + t"), 3)
        want = parse_series("1 + 0.5*t^1 - 0.125*t^2 + 0.0625*t^3")
        assert got.terms == want.terms

    def test_rejects_positive_valuation(self):
        with pytest.raises(DomainError):
            oracles.series_sqrt_newton(monomial(1), 3)

    def test_self_consistency(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            a = rand_positive(rng, bound=5, lo=0)
            if a.terms[0][0] != 0:
                a = a + constant(1.0)
            r = oracles.series_sqrt_newton(a, 5)
            assert eq_up_to(r * r, a, 5, 1e-12)


class TestEig2x2:
    def test_diagonal(self):
        nu1, nu2 = oracles.eig2x2_symbolic(parse_matrix("2; 0\n0; 1"), 6)
        assert nu1.terms == constant(2).terms
        assert nu2.terms == constant(1).terms

    def test_triangular_series_exact(self):
        nu1, nu2 = oracles.eig2x2_symbolic(parse_matrix("2 + t; 0\n0; 1"), 6)
        assert nu1.terms == parse_series("2 + t").terms

    def test_offdiagonal_series(self):
        nu1, nu2 = oracles.eig2x2_symbolic(parse_matrix("2; t\nt; 1"), 8)
        want = parse_series("2 + t^2 - t^4 + 2*t^6 - 5*t^8")
        assert eq_up_to(nu1, want, 8, 1e-12)

    def test_trace_det_consistency(self):
        rng = np.random.default_rng(9)
        checked = 0
        while checked < 50:
            a, b, c, d = (rand_nonzero(rng, bound=6, max_terms=3) for _ in range(4))
            A = LCMatrix([[a, b], [c, d]])
            try:
                nu1, nu2 = oracles.eig2x2_symbolic(A, 6)
            except DomainError:
                continue
            checked += 1
            tr = a + d
            det = a * d - b * c
            assert eq_up_to(nu1 + nu2, tr, core._bmin(F(6), tr.valid_to), 1e-10)
            window = core._bmin(F(6), det.valid_to)
            assert eq_up_to(nu1 * nu2, det, window, 1e-10 * max(1.0, core.semi_norm(det, window)))

    def test_degenerate_constant_discriminant(self):
        with pytest.raises(DomainError):
            oracles.eig2x2_symbolic(parse_matrix("1 + t; t\nt; 1"), 6)


class TestComplexSpectra:
    def test_diag(self):
        roots = oracles.charpoly_roots_complex(np.diag([2.0, 1.0]))
        assert np.allclose(sorted(r.real for r in roots), [1, 2], atol=1e-10)

    def test_companion_of_quadratic(self):
        roots = oracles.charpoly_roots_complex([[0, -2], [1, 3]])
        assert np.allclose(sorted(r.real for r in roots), [1, 2], atol=1e-10)

    def test_symmetric_pair(self):
        roots = oracles.charpoly_roots_complex([[0, 1], [1, 0]])
        assert np.allclose(sorted(r.real for r in roots), [-1, 1], atol=1e-10)

    def test_random_vs_numpy(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 4):
            for _ in range(20):
                B = rng.uniform(-2, 2, (n, n)) + 1j * rng.uniform(-2, 2, (n, n))
                got = oracles.charpoly_roots_complex(B)
                want = sorted(np.linalg.eigvals(B), key=lambda z: (-abs(z), -z.real, -z.imag))
                assert np.allclose(got, want, atol=1e-8)

    def test_size_limit(self):
        with pytest.raises(DomainError):
            oracles.charpoly_roots_complex(np.eye(5))


class TestCharpolySeries:
    def test_companion_charpoly_matches_polynomial(self):
        # char poly of C(P) equals P up to sign, n <= 3
        from lcpower.linalg import Polynomial, companion_matrix
        rng = np.random.default_rng(11)
        for n in (1, 2, 3):
            for _ in range(20):
                coeffs = tuple(rand_nonzero(rng, bound=6, max_terms=3) for _ in range(n))
                P = Polynomial(coeffs)
                cs = oracles.charpoly_series(companion_matrix(P), 6)
                lead = cs[-1][0].real  # +-1
                for k, a_k in enumerate(coeffs):
                    got = cs[k] * constant(1.0 / lead)
                    window = core._bmin(F(6), core._bmin(got.valid_to, a_k.valid_to))
                    assert eq_up_to(got, a_k, window, 1e-10 * max(1.0, core.semi_norm(a_k, window)))

"""Unit tests for the power-iteration eigensolver."""

import math
import re
import subprocess
import sys
from fractions import Fraction as F

import numpy as np
import pytest

from lcpower import _lattice, _lattice_np, cli, core, solver
from lcpower.core import constant, eq_up_to, semi_norm, shift_exponents, zero
from lcpower.errors import (DegenerateInputError, DomainError, DominanceUncertainError,
                            LostDominanceError)
from lcpower.linalg import LCMatrix, LCVector, Polynomial, companion_matrix, pi_matrix
from lcpower.solver import (SolverConfig, estimate_dominant_complex,
                            poly_dominant_root, power_step, precondition, solve,
                            weakly_converged)
from lcpower.textio import parse_matrix, parse_series, serialize_series
from experiment import degree21_polynomial, largest_root
import oracles
import reference_loop
from randgen import random_dominated_2x2


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(truncation=F(6), tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(truncation=F(6), max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(truncation=F(6), check_window=F(7))
        with pytest.raises(ValueError):
            SolverConfig(truncation=F(6), norm_kind="l3")
        with pytest.raises(ValueError):
            SolverConfig(truncation=F(6), start="sometimes")

    def test_window_defaults_to_truncation(self):
        assert SolverConfig(truncation=F(6)).window == F(6)
        assert SolverConfig(truncation=F(6), check_window=F(4)).window == F(4)

    def test_seed(self):
        assert SolverConfig(truncation=F(6), start="random:77").seed == 77
        assert SolverConfig(truncation=F(6)).seed == 0

    @pytest.mark.parametrize("start", ["random:abc", "random:", "random:-1", "random:1.5"])
    def test_bad_seed(self, start):
        with pytest.raises(ValueError, match=start):
            SolverConfig(truncation=F(6), start=start)

    def test_nan_tol(self):
        # nan <= 0 is False: a NaN tolerance would run max_iters unconverged
        with pytest.raises(ValueError, match="nan"):
            SolverConfig(truncation=F(6), tol=float("nan"))

    # a negative check window compares no terms and reports converged after
    # one step; a negative truncation loses every iterate; the complex_pi_*
    # settings made the constant-part power iteration report dominance
    # uncertain after up to 500 wasted iterations; a non-integer count made
    # solve raise a TypeError from range()
    @pytest.mark.parametrize("name, value", [
        ("truncation", F(-1)), ("check_window", F(-1)), ("complex_pi_iters", 0),
        ("complex_pi_iters", -3), ("complex_pi_tol", float("nan")), ("complex_pi_tol", 0.0),
        ("complex_pi_tol", -1e-12), ("max_iters", 2.5), ("complex_pi_iters", 7.5)],
        ids=lambda v: str(v))
    def test_out_of_range(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} .*got {re.escape(str(value))}$"):
            SolverConfig(**{"truncation": F(6), name: value})


class TestEstimateDominant:
    def test_diagonal(self):
        mu, ratio = estimate_dominant_complex(np.diag([2.0, 1.0]), 200, 1e-12)
        assert abs(mu - 2.0) < 1e-9
        assert abs(ratio - 0.5) < 1e-12

    def test_degree21_constant_part(self):
        B = pi_matrix(companion_matrix(degree21_polynomial()))
        mu, ratio = estimate_dominant_complex(B, 500, 1e-12)
        assert abs(mu - 100.0) < 1e-5 * 100
        assert abs(ratio - 0.4) < 1e-3  # the constant parts 100 and 40 of the two largest roots

    # no strictly dominant constant-part eigenvalue: eig returns exactly 0,
    # 0 for the first, a pair within roundoff of 0 for the second, a double
    # 100 for the Jordan block and for 100 I, and +-1 for the swap
    @pytest.mark.parametrize("text", ["t; 1\nt^2; 0", "1; 1\n-1; -1", "100; 1\n0; 100",
                                      "100; t\n0; 100", "0; 1\n1; 0"],
                             ids=["nilpotent", "nilpotent-roundoff", "jordan-block", "scalar",
                                  "sign-tied"])
    def test_no_strictly_dominant_eigenvalue(self, text, tmp_path, capsys):
        with pytest.raises(DominanceUncertainError):
            solve(parse_matrix(text), SolverConfig(truncation=F(6)))
        m = tmp_path / "m.txt"
        m.write_text(text + "\n")
        assert cli.main(["solve-matrix", str(m), "--truncation", "6"]) == cli.EXIT_DOMINANCE

    def test_zero_matrix(self):
        with pytest.raises(DegenerateInputError):
            estimate_dominant_complex(np.zeros((2, 2)), 100, 1e-12)

    def test_real_matrix_real_estimate(self):
        # the power steps leave no imaginary roundoff in mu1
        mu, _ratio = estimate_dominant_complex(np.array([[2.0, 1.0], [0.5, -1.0]]), 500, 1e-12)
        assert mu.imag == 0.0
        assert abs(mu - (1 + 11 ** 0.5) / 2) < 1e-9

    @pytest.mark.parametrize("exp", [600, -600])
    def test_power_of_two_scaling_is_exact(self, exp):
        # the eigensolve runs on B / 2^e: B * 2^exp gives mu1 * 2^exp bit for
        # bit, the scaling going down (600) or up (-600)
        B = np.array([[2.0, 1.0], [0.5, -1.0]])
        mu, ratio = estimate_dominant_complex(B, 500, 1e-12)
        assert estimate_dominant_complex(np.ldexp(B, exp), 500, 1e-12) == (
            complex(math.ldexp(mu.real, exp), 0.0), ratio)

    def test_eigenvalue_outside_float_range(self):
        # the constant part's dominant eigenvalue is 2e308
        with pytest.raises(DomainError, match="leaves the float range"):
            solve(parse_matrix("1e308 + t; 1e308\n1e308; 1e308"), SolverConfig(truncation=F(4)))

    def test_complex_below_the_scaled_range(self):
        # the imaginary part underflows to 0 in B / 2^e; B is still complex
        B = np.array([[1e300, 1.0], [1.0, 1e-30j]])
        _mu, _ratio, v = solver._estimate_dominant(B, 500, 1e-12)
        assert np.iscomplexobj(v)

    @pytest.mark.parametrize("text, mu1", [("1e200 + t; 1\n1; 1", 1e200),
                                           ("1e300 + t; 1e300\n1; 1", 1e300),
                                           ("2e300 + t; 1\n1; 1", 2e300),
                                           ("1e301; 1\n1; 1", 1e301)])
    def test_large_constant_part(self, text, mu1):
        # unscaled power steps' norms overflow on these, a RuntimeWarning
        # that the test configuration turns into an error; from |mu1| = 1e300
        # on, 1/mu1 is at or below the cleanup floor EPS_FLOOR, which
        # _lattice.constant would have turned into zero
        res, _ = solve(parse_matrix(text), SolverConfig(truncation=F(4)))
        assert res.converged and type(res.mu1) is complex and res.mu1.imag == 0.0
        assert abs(res.mu1 - mu1) <= 1e-12 * mu1
        assert abs(res.eigenvalue[0] - mu1) <= 1e-12 * mu1

    def test_tiny_constant_part(self):
        # mu1 = 6.8e-301 lies below the cleanup floor EPS_FLOOR, which
        # _lattice.constant would have turned into zero, and the eigenvalue
        # with it: the solve is 1e-300 times the unit-scale one, less its
        # constant 6.8e-301, which lies below the floor too
        cfg = SolverConfig(truncation=F(2), max_iters=1000)
        tiny, _ = solve(parse_matrix("2.1e-300 + 1e-299*t; 2e-300\n-1.9e-300; -2e-300"), cfg)
        unit, _ = solve(parse_matrix("2.1 + 10*t; 2\n-1.9; -2"), cfg)
        assert tiny.eigenvalue.valid_to == 2
        want = 1e-300 * unit.eigenvalue[1]
        assert abs(tiny.eigenvalue[1] - want) <= 1e-9 * abs(want)


class TestPrecondition:
    def cfg(self):
        return SolverConfig(truncation=F(6))

    def test_already_normalized(self):
        A = parse_matrix("1; t\n0; 0.25")
        a_norm, q0, mu1 = precondition(A, self.cfg())
        assert q0 == 0
        assert abs(mu1 - 1.0) < 1e-9
        for row_a, row_b in zip(A.rows, a_norm.rows):
            for a, b in zip(row_a, row_b):
                window = min(F(6), a.valid_to, b.valid_to)
                assert eq_up_to(a, b, window, 1e-9)

    def test_infinitesimal_matrix(self):
        A = parse_matrix("3*t^2; 0\n1*t^3; 1*t^2")
        a_norm, q0, mu1 = precondition(A, self.cfg())
        assert q0 == 2
        assert abs(mu1 - 3.0) < 1e-9
        assert core.valuation(a_norm.rows[0][0]) == 0


class TestPowerStep:
    def test_direct_computation(self):
        A = parse_matrix("1; 0\n0; 0.5")
        x = LCVector([1, 1]).retruncated(F(6))
        y, tie = power_step(A, x, "l2", F(6))
        scale = 1.0 / np.sqrt(1.25)
        assert abs(y[0][0] - scale) < 1e-14
        assert abs(y[1][0] - 0.5 * scale) < 1e-14
        assert not tie

    def test_identity_fixed_point(self):
        I2 = parse_matrix("1; 0\n0; 1")
        x = LCVector([3, 4]).retruncated(F(6))
        y, _ = power_step(I2, x, "l2", F(6))
        assert abs(y[0][0] - 0.6) < 1e-14
        assert abs(y[1][0] - 0.8) < 1e-14

    def test_invariant_subspace_is_not_an_error(self):
        # start orthogonal to the dominant eigenvector: each step is fine,
        # the iteration just stays in the invariant subspace
        A = parse_matrix("1; 0\n0; 0.5 + t")
        x = LCVector([zero(), constant(1)]).retruncated(F(6))
        y, _ = power_step(A, x, "l2", F(6))
        assert y[0].is_zero
        assert abs(y[1][0] - 1.0) < 1e-12

    def test_lost_constant_part(self):
        A = parse_matrix("1; 0\n0; 0.5")
        x = LCVector([core.t, core.t]).retruncated(F(6))
        with pytest.raises(LostDominanceError):
            power_step(A, x, "l2", F(6))

    def test_max_norm_pivot(self):
        A = parse_matrix("1; 0\n0; 0.5")
        x = LCVector([1, 1]).retruncated(F(6))
        y, _ = power_step(A, x, "max", F(6))
        assert abs(y[0][0] - 1.0) < 1e-14
        assert abs(y[1][0] - 0.5) < 1e-14


class TestWeaklyConverged:
    def test_identical(self):
        x = LCVector([1, 2]).retruncated(F(6))
        rho = constant(2.0, valid_to=6)
        assert weakly_converged(x, x, rho, rho, F(6), 1e-12)

    def test_difference_above_window(self):
        x = LCVector([constant(1, valid_to=6)])
        y = LCVector([core.from_terms([(0, 1), (F(5), 1e-3)], 6)])
        rho = constant(1.0, valid_to=6)
        assert weakly_converged(x, y, rho, rho, F(4), 1e-12)
        assert not weakly_converged(x, y, rho, rho, F(5), 1e-12)

    def test_phase_alignment(self):
        x = LCVector([constant(1.0, valid_to=6), constant(0.5, valid_to=6)])
        y = x * constant(np.exp(1j * 0.7))  # same direction, rotated
        rho = constant(1.0, valid_to=6)
        assert weakly_converged(x, y, rho, rho, F(6), 1e-10)


class TestSolve:
    def test_diagonal_with_series(self):
        res, trace = solve(parse_matrix("2 + t; 0\n0; 1"), SolverConfig(truncation=F(6)))
        assert res.converged
        assert eq_up_to(res.eigenvalue, parse_series("2 + t"), 6, 1e-10)
        assert abs(res.eigenvector[0][0] - 1.0) < 1e-10
        assert semi_norm(res.eigenvector[1], 6) < 1e-10
        assert res.residual < 1e-10  # A v vs nu v on the check window

    def test_normalization_drops_an_entry(self):
        # A has MIN_PAIRS stored entries; divided by mu1 ~ 1e20 its 1e-290
        # becomes 1e-310, below the cleanup floor, so the loop runs on the
        # Python kernel while A itself would select the grid
        A = parse_matrix("1e20; 1; 1; 1e-290\n1; 1; 0; 0\n1; 0; 1; 0\n1; 0; 0; 1")
        stored = [sum(1 for row in M.rows for a in row if a.terms)
                  for M in (A, precondition(A, SolverConfig(truncation=F(4)))[0])]
        assert stored == [_lattice_np.MIN_PAIRS, _lattice_np.MIN_PAIRS - 1]
        res, _ = solve(A, SolverConfig(truncation=F(4)))
        assert res.converged and res.residual < 1e-10
        assert abs(res.eigenvalue[0] - 1e20) <= 1e-12 * 1e20

    def test_2x2_against_oracle(self):
        A = parse_matrix("2; t\nt; 1")
        res, _ = solve(A, SolverConfig(truncation=F(8), max_iters=400))
        nu1, _nu2 = oracles.eig2x2_symbolic(A, 8)
        assert eq_up_to(res.eigenvalue, nu1, 8, 1e-9)
        assert res.residual < 1e-10

    def test_random_2x2_against_oracle(self):
        rng = np.random.default_rng(21)
        done = 0
        while done < 10:
            A, nu1 = random_dominated_2x2(rng, bound=6)
            if A is None:
                continue
            done += 1
            res, _ = solve(A, SolverConfig(truncation=F(6), max_iters=600,
                                           start="random:5"))
            assert res.converged
            assert eq_up_to(res.eigenvalue, nu1, 6, 1e-8)

    def test_recovery_identity(self):
        A = parse_matrix("3*t^2; 0\n1*t^3; 1*t^2")
        res, trace = solve(A, SolverConfig(truncation=F(6)))
        recomposed = shift_exponents(trace.steps[-1].rho * constant(res.mu1), res.q0)
        assert res.eigenvalue.terms == recomposed.terms  # bit-level composition

    def test_start_scale_invariance(self):
        A = parse_matrix("2; t\nt; 1")
        rng = np.random.default_rng(22)
        x0 = [complex(rng.uniform(0.2, 1)) for _ in range(2)]
        runs = []
        for c in (1.0, 3.0):
            start = LCVector([constant(v * c) for v in x0])
            cfg = SolverConfig(truncation=F(6), max_iters=40, tol=1e-30, start=start)
            _, trace = solve(A, cfg)
            runs.append(trace)
        for s1, s2 in zip(runs[0].steps, runs[1].steps):
            for e1, e2 in zip(s1.vector, s2.vector):
                assert eq_up_to(e1, e2, F(6), 1e-12)

    def test_nonconvergence_returns_trace(self):
        A = parse_matrix("2; t\nt; 1")
        res, trace = solve(A, SolverConfig(truncation=F(8), max_iters=3))
        assert not res.converged
        assert res.iterations_used == 3
        assert [s.step for s in trace.steps] == [0, 1, 2, 3]

    def test_complex_run_pivot_phase(self):
        # i times the real matrix [[2,t],[t,1]]: same eigenpair, rotated
        A = parse_matrix("2i; 1i*t\n1i*t; i")
        res, _ = solve(A, SolverConfig(truncation=F(6), max_iters=400))
        assert res.converged
        pivot = res.eigenvector[0][0]
        assert pivot.real > 0 and abs(pivot.imag) < 1e-10
        real_nu, _ = oracles.eig2x2_symbolic(parse_matrix("2; t\nt; 1"), 6)
        assert eq_up_to(res.eigenvalue, real_nu * constant(1j), 6, 1e-9)

    def test_fixed_point_of_exact_eigenvector(self):
        A = parse_matrix("1; 0\n0; 0.5 + t")
        v = LCVector([1, 0]).retruncated(F(6))
        y, _ = power_step(A, v, "l2", F(6))
        for a, b in zip(v, y):
            assert eq_up_to(a, b, F(6), 1e-12)

    def test_complex_series_phase_boundary(self):
        # dominant eigenvalue with a complex infinitesimal part: the
        # iterate phase rotates by a unit series every step, so the
        # stopping rule never fires, yet the Rayleigh quotient and the
        # residual settle; the returned pair is a valid eigenpair
        A = parse_matrix("(3+1i); t; 0\n1*t^2; 1; (0.5+0.5i)*t\n0; t; (1-1i)")
        res, trace = solve(A, SolverConfig(truncation=F(5), max_iters=150))
        assert not res.converged
        assert res.residual < 1e-10
        rho_late = trace.steps[-1].rho
        rho_prev = trace.steps[-31].rho
        assert semi_norm(rho_late - rho_prev, F(5)) < 1e-12
        assert abs(res.eigenvalue[0] - (3 + 1j)) < 1e-9


# Random 2x2 draws of the rand2x2 generator whose all-ones start loses the
# dominant component, and the error the loop raises unless it restarts.
# The start lies close to the subdominant eigenvector, and roundoff wipes
# the dominant component out: the l2 normalization loses its constant part
# (seed 19, accepted draw 46825, 0-based), or the iterate's infinitesimal
# terms grow until a sum |y_i|^2 loses its constant term to the cleanup.
# That sum is the Rayleigh quotient's in set 3 at seed 77, solve 38, and at
# step 20 of set 0 at seed 4501, solve 41 (terms up to 8e15 at t^(13/2)).
# It is the l2 normalization's at step 5 of bench set 0 at seed 19, solve
# 28 (terms up to 8e13 at t^6), which then leads with a t^(1/2) term.
LOST_START = {
    "LostDominanceError": (LostDominanceError, (
        "-0.35082057556110513 - 0.1891428000398228*t^(1/2) + 0.12608772758032227*t^4; "
        "-0.4281298565268985 - 0.01732938634180109*t^2 + 0.24220219339055654*t^6\n"
        "-2.3278261741310273 + 0.2959264167778172*t^3; "
        "1.5421262809719476 + 0.1281968243240651*t^(9/2)")),
    # named for the check it first failed, the Rayleigh quotient's, before
    # a sum of products was cleaned up once
    "DegenerateInputError-seed19": (LostDominanceError, (
        "2.0896846348536835 - 0.21508547173172474*t^3; "
        "-2.6393273894761364 - 0.07059629276403367*t^3\n"
        "-2.106735512794197 - 0.08080968277912193*t^(1/2) + 0.10671963644435051*t^5; "
        "1.552920754440966 - 0.049396145757861054*t^5 + 0.23805392642644402*t^6")),
    "DegenerateInputError": (DegenerateInputError, (
        "-0.07848387525110745 - 0.08773271634269511*t^2 + 0.05008281828183586*t^6; "
        "1.4126848534751701 + 0.23387905692999372*t^6\n"
        "2.225885637964393 - 0.27013163782988575*t^(1/2); "
        "-0.8962767590555512 - 0.02326211541997264*t^2")),
    "sum-loses-constant-term": (DegenerateInputError, (
        "-0.23132740430389465; 1.6964435142283047 - 0.20271784455322545*t^6\n"
        "1.9160913873988399 - 0.11913614013204979*t^4; "
        "-0.45344953735361226 + 0.07721204498674678*t^(1/2)")),
}


@pytest.mark.parametrize("case", sorted(LOST_START))
def test_restart_when_start_loses_dominance(case):
    error, text = LOST_START[case]
    A = parse_matrix(text)
    cfg = SolverConfig(truncation=F(6), max_iters=600, tol=1e-12, start="ones")
    with pytest.raises(error):  # the loop without the restart
        reference_loop.solve(A, cfg)
    res, _ = solve(A, cfg)
    nu1, _nu2 = oracles.eig2x2_symbolic(A, 6)
    assert res.converged
    assert eq_up_to(res.eigenvalue, nu1, 6, 1e-8)
    assert res.residual < 1e-10


@pytest.mark.parametrize("case", [*sorted(LOST_START), "no-restart"])
def test_one_constant_part_power_iteration_per_solve(case, monkeypatch):
    """The restart starts from the eigenvector of the constant-part
    eigensolve and power steps that found mu1; it does not solve again."""
    calls = []
    estimate = solver._estimate_dominant
    monkeypatch.setattr(solver, "_estimate_dominant",
                        lambda *args: calls.append(1) or estimate(*args))
    text = "2 + t; 1\n1; 1" if case == "no-restart" else LOST_START[case][1]
    solve(parse_matrix(text), SolverConfig(truncation=F(6), max_iters=600, tol=1e-12))
    assert len(calls) == 1


def _first_rayleigh_raises(monkeypatch, error):
    """Make the first Rayleigh quotient a solve builds raise ``error``."""
    rayleigh, calls = _lattice.rayleigh, []

    def failing_once(*args):
        calls.append(1)
        if len(calls) == 1:
            raise error("injected")
        return rayleigh(*args)

    monkeypatch.setattr(_lattice, "rayleigh", failing_once)


def test_rayleigh_error_restarts_the_solve(monkeypatch):
    """A DegenerateInputError from a Rayleigh quotient the loop reads makes
    ``solve`` run again from the constant-part eigenvector, and the trace
    is that run's: the same as a solve started there."""
    A = parse_matrix("2 + t; 1\n1; 1")
    cfg = SolverConfig(truncation=F(6))
    _q0, _mu1, dominant = solver._constant_eigenpair(A, cfg)
    start = LCVector([constant(complex(c)) for c in dominant])
    want, want_trace = solve(A, SolverConfig(truncation=F(6), start=start))
    ones_first = solve(A, cfg)[1].steps[0]
    assert list(want_trace.steps[0].vector) != list(ones_first.vector)
    _first_rayleigh_raises(monkeypatch, DegenerateInputError)
    res, trace = solve(A, cfg)
    assert res.iterations_used == want.iterations_used and res.converged
    assert res.eigenvalue == want.eigenvalue
    assert len(trace.steps) == len(want_trace.steps)
    for s, w in zip(trace.steps, want_trace.steps):
        assert list(s.vector) == list(w.vector) and s.rho == w.rho


def test_rayleigh_domain_error_propagates(monkeypatch):
    _first_rayleigh_raises(monkeypatch, DomainError)
    with pytest.raises(DomainError, match="injected"):
        solve(parse_matrix("2 + t; 1\n1; 1"), SolverConfig(truncation=F(6)))


def test_rayleigh_quotients_built_when_read(monkeypatch):
    """The loop builds a step's quotient only when the stopping rule reads
    it (the iterates agree) and for the last step; the trace builds the
    others on access, each once, and then drops the step's matrix action."""
    calls = []
    rayleigh = _lattice.rayleigh
    monkeypatch.setattr(_lattice, "rayleigh",
                        lambda u, *rest: calls.append(u) or rayleigh(u, *rest))
    cfg = SolverConfig(truncation=F(6))
    res, trace = solve(parse_matrix("1 + t; 0.5\n0.5; 1"), cfg)
    built = len(calls)
    assert res.converged and res.iterations_used >= 30
    passed = 0  # steps whose iterate comparison passed
    for prev, step in zip(trace.steps, trace.steps[1:]):
        read = []
        _lattice.weakly_converged(_lattice.phase_aligned(prev._xs)[0],
                                  _lattice.phase_aligned(step._xs)[0],
                                  lambda: read.append(1) or (_lattice.ZERO, _lattice.ZERO),
                                  step._lat.key(cfg.window), cfg.tol, step._lat.D)
        passed += bool(read)
    assert built <= passed + 2
    for step in trace.steps:
        assert isinstance(step.rho, core.LCNumber)
        assert sum(u is step._xs for u in calls) == 1
        assert "_y" not in vars(step)


def _imaginary_parts(res):
    return [res.mu1.imag] + [c.imag for x in (res.eigenvalue, *res.eigenvector)
                             for _, c in x.terms]


@pytest.mark.parametrize("case", ["ones", *sorted(LOST_START)])
def test_real_input_gives_real_output(case):
    """A real matrix's strictly dominant eigenpair is real: mu1, the
    eigenvalue and the eigenvector carry no imaginary roundoff, from the
    ones start and from the restart vector alike."""
    real_3x3 = "2 + t; 1 + 0.5*t^(1/2); 0\n1; 1; t\n0.5; 0; -1"
    text = real_3x3 if case == "ones" else LOST_START[case][1]
    res, _ = solve(parse_matrix(text), SolverConfig(truncation=F(6), max_iters=600, tol=1e-12))
    assert res.converged
    assert set(_imaginary_parts(res)) == {0.0}


def test_complex_matrix_with_real_constant_part():
    """A real constant part gives a real mu1; the complex t-term of the
    matrix still gives the eigenvalue complex terms.  [[2 + i t, 1],
    [0.5, -1]]: the t coefficient is i w1 v1 / (w . v) for the constant
    part's right and left eigenvectors v = (1, mu1 - 2) and
    w = (1, 2 (mu1 - 2))."""
    res, _ = solve(parse_matrix("2 + i*t; 1\n0.5; -1"), SolverConfig(truncation=F(4)))
    mu1 = (1 + 11 ** 0.5) / 2
    assert res.mu1.imag == 0.0 and abs(res.mu1 - mu1) < 1e-12
    assert abs(res.eigenvalue[1] - 1j / (1 + 2 * (mu1 - 2) ** 2)) < 1e-9


def _coefficient_types(*values):
    """The types of every coefficient of the numbers, vectors and matrices
    in ``values``."""
    types = set()
    for x in values:
        if isinstance(x, core.LCNumber):
            types.update(type(c) for _, c in x.terms)
        else:  # a vector, a matrix's rows or a row
            types.update(_coefficient_types(*(x.rows if isinstance(x, LCMatrix) else x)))
    return types


def test_public_coefficients_are_complex():
    """Inside ``solve``'s loop a real coefficient is a ``float``; every
    number that leaves it, and every ``core`` operation, holds ``complex``."""
    A = parse_matrix("2 + t; 1 + 0.5*t^(1/2)\n1; 1")
    cfg = SolverConfig(truncation=F(4))
    res, trace = solve(A, cfg)
    steps = [x for s in trace.steps for x in (s.vector, s.rho, s.estimate)]
    A_norm, _q0, mu1 = precondition(A, cfg)
    x, _tie = power_step(A_norm, LCVector([1.0, 1.0]).retruncated(F(4)), "l2", F(4))
    a, monomial = core.from_terms([(0, 4.0), (1, 1.0)], 3), parse_series("4*t^2")
    numbers = [f(y) for y in (a, monomial) for f in (core.sqrt, core.invert, core.real_part,
                                                     core.imag_part, core.conjugate)]
    assert _coefficient_types(res.eigenvalue, res.eigenvector, *steps, A_norm, x,
                              *numbers) == {complex}
    assert type(res.mu1) is complex and type(mu1) is complex


def _matches_quadratic_formula(text, start):
    A = parse_matrix(text)
    cfg = SolverConfig(truncation=F(6), start=start)
    res, _ = solve(A, cfg)
    nu1, _nu2 = oracles.eig2x2_symbolic(A, 6)
    assert res.converged
    assert eq_up_to(res.eigenvalue, nu1, 6, cfg.tol)


def test_real_matrix_from_a_complex_start():
    """Float matrix coefficients meet the complex start vector of ``random:3``."""
    _matches_quadratic_formula("2; t\nt; 1", "random:3")


def test_complex_matrix_with_a_real_eigenvalue():
    """A Hermitian matrix whose constant part is real: float and complex
    coefficients in one entry, and a real eigenvalue, so the loop converges."""
    _matches_quadratic_formula("2 + t; 1 + i*t\n1 - i*t; 1", "ones")


def test_signed_zero_imaginary_parts_serialize_alike():
    """Imaginary parts -0.0 (a conjugated real matrix) and +0.0 give the
    loop the same float coefficients, hence the same output."""
    A = parse_matrix("2 + t; -1 + 0.5*t^(1/2)\n-1; -1 + t")
    A_conj = LCMatrix([[core.conjugate(e) for e in row] for row in A.rows])
    assert any(math.copysign(1.0, c.imag) < 0 for row in A_conj.rows for e in row
               for _, c in e.terms)
    cfg = SolverConfig(truncation=F(4))
    (res, _), (res_conj, _) = solve(A, cfg), solve(A_conj, cfg)
    assert serialize_series(res_conj.eigenvalue) == serialize_series(res.eigenvalue)
    assert ([serialize_series(e) for e in res_conj.eigenvector]
            == [serialize_series(e) for e in res.eigenvector])


_EXPONENTS = (F(1, 2), F(1), F(3, 2), F(2), F(3))


def _exact_dominated(rng):
    """An n x n matrix, n in 2..4, of exact entries (bound INF): a random
    constant part plus two terms at exponents from ``_EXPONENTS``, or None
    when the constant part's |mu2/mu1| exceeds 0.8."""
    n = int(rng.integers(2, 5))
    B = rng.uniform(-1.0, 1.0, (n, n))
    moduli = sorted(abs(np.linalg.eigvals(B)), reverse=True)
    if moduli[1] > 0.8 * moduli[0]:
        return None
    return LCMatrix([[core.from_terms([(0, B[i, j])] + [
        (_EXPONENTS[k], rng.uniform(-0.5, 0.5))
        for k in rng.choice(len(_EXPONENTS), 2, replace=False)]) for j in range(n)]
        for i in range(n)])


def test_terms_above_the_truncation_change_nothing():
    """Adding c t^(19/3) + d t^7 to every entry, above the truncation 6 and
    off the matrix's lattice, leaves the step count and the eigenvalue on
    the window unchanged.  Seed and draw count were fixed before any run,
    and every accepted draw is kept."""
    rng = np.random.default_rng(18)
    cfg = SolverConfig(truncation=F(6), max_iters=300, tol=1e-10)
    draws = 0
    while draws < 8:
        A = _exact_dominated(rng)
        if A is None:
            continue
        draws += 1
        high = LCMatrix([[e + core.from_terms([(F(19, 3), rng.uniform(-1, 1)),
                                               (F(7), rng.uniform(-1, 1))]) for e in row]
                         for row in A.rows])
        res, _ = solve(A, cfg)
        res_high, _ = solve(high, cfg)
        assert res_high.iterations_used == res.iterations_used
        assert eq_up_to(res_high.eigenvalue, res.eigenvalue, cfg.window, 1e-10)


class TestPolyRoot:
    def test_linear(self):
        P = Polynomial((parse_series("-3 - t"),))  # x - (3 + t)
        res, _ = poly_dominant_root(P, SolverConfig(truncation=F(6)))
        assert res.converged and res.iterations_used == 1
        assert eq_up_to(res.eigenvalue, parse_series("3 + t"), 6, 1e-12)
        assert res.poly_residual < 1e-12

    def test_constant_quadratic(self):
        P = Polynomial((constant(2), constant(-3)))  # (x-1)(x-2)
        res, _ = poly_dominant_root(P, SolverConfig(truncation=F(6)))
        assert res.converged
        assert eq_up_to(res.eigenvalue, constant(2), 6, 1e-10)

    def test_degree21_yardstick(self):
        # the paper's experiment: every coefficient of the root 100 + sum k t^k
        res, _ = poly_dominant_root(degree21_polynomial(),
                                    SolverConfig(truncation=F(9), tol=1e-14, max_iters=100))
        root = largest_root()
        keys = {q for q, _ in res.eigenvalue.terms} | set(range(10))
        assert max(abs(res.eigenvalue[q] - root[q]) for q in keys) <= 1e-10
        assert res.poly_residual <= 1e-14

    def test_residual_is_relative(self):
        res, _ = poly_dominant_root(degree21_polynomial(bound=5),
                                    SolverConfig(truncation=F(5), max_iters=60))
        assert res.converged
        assert res.poly_residual < 1e-9
        assert eq_up_to(res.eigenvalue, largest_root(), 5, 1e-8)


def test_solve_loads_no_numpy_random():
    """The start vectors draw from the standard library's ``random``, and
    the constant-part eigensolve draws nothing: a fresh interpreter that
    solves with the ``ones`` and the ``random:3`` start never loads
    ``numpy.random``."""
    code = ("import sys\n"
            "from fractions import Fraction\n"
            "from lcpower.solver import SolverConfig, solve\n"
            "from lcpower.textio import parse_matrix\n"
            "A = parse_matrix('2 + t; 1\\n1; 1')\n"
            "for start in ('ones', 'random:3'):\n"
            "    solve(A, SolverConfig(truncation=Fraction(3), start=start))\n"
            "print('numpy.random' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

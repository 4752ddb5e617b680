"""Power iteration for the dominant eigenpair over the Levi-Civita field.

Pipeline: factor out the smallest valuation q0 so every entry becomes at
most finite, estimate the dominant eigenvalue mu1 of the constant-part
matrix (A's coefficients at t^(q0); one eigensolve per solve),
divide the matrix by mu1 so the target eigenvalue has constant part 1,
then iterate multiply-and-normalize until successive iterates and
Rayleigh quotients agree coefficient-wise within tolerance on the check
window (the weakly-Cauchy stopping rule).  The eigenvalue of the original
matrix is recovered as rho * mu1 * t^(q0).

The loop runs on an integer exponent lattice (1/D)Z fixed when ``solve``
is entered: A itself (q0 is one of its exponents) and the start vector are
converted once (:class:`lcpower.core.Lattice`), the shift by t^(-q0), the
division by mu1, every step and the residual call the kernels of
:mod:`lcpower._lattice`, and only the result is converted back.  A step
keeps its iterate and matrix action on that lattice and builds its
Rayleigh quotient when the stopping rule (once the iterates agree) or the
trace first reads it; the trace converts them, and composes the recovered
eigenvalue, on first access.
The loop's vector operations (:class:`lcpower._lattice.VectorOps`), the
matrix action and the residual run on one kernel per solve: a dense numpy
grid (:mod:`lcpower._lattice_np`) when the normalized matrix has at least
``_lattice_np.MIN_PAIRS`` stored entries, within stated error bounds of
the Python kernel.  :func:`lcpower._lattice_np.scaled_kernel` lays out the
matrix once, for the residual, and derives the normalized matrix
(:func:`lcpower._lattice.scaled_matrix`) from it for any mu1; the kernel's
``laid`` lays out the start vector.  The iterates and matrix actions keep
its form between steps and in the trace.
A start vector that loses its dominant component gets one restart from
the dominant eigenvector of that eigensolve (see :func:`solve`).  For a
real constant-part matrix, mu1 and that eigenvector are real
(:func:`_estimate_dominant`), so the loop on a real matrix runs on real
coefficients, held as floats (the rule of :mod:`lcpower._lattice`).
"""

from __future__ import annotations

import dataclasses
import math
import numbers
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import List, Optional, Tuple, Union

import numpy as np

from . import _lattice, _lattice_np, core
from .core import LCNumber, Lattice, as_exponent
from .errors import DegenerateInputError, DomainError, DominanceUncertainError, LostDominanceError
from .linalg import LCMatrix, LCVector, Polynomial, companion_matrix, min_valuation, poly_eval

__all__ = [
    "SolverConfig",
    "TraceStep",
    "IterationTrace",
    "EigenResult",
    "estimate_dominant_complex",
    "precondition",
    "power_step",
    "weakly_converged",
    "solve",
    "poly_dominant_root",
]

#: Reject preprocessing when the estimated |mu2| / |mu1| exceeds this; the
#: theory needs strict dominance and the numerics need a margin.
DOMINANCE_RATIO_MAX = 0.999


@dataclass
class SolverConfig:
    """Inputs of a solver run.

    ``truncation`` fixes the exponent window every iterate is held to;
    ``check_window`` (default: the truncation) and ``tol`` define the
    stopping rule; ``start`` is "ones", "random:<seed>" or an LCVector.
    ``complex_pi_iters`` and ``complex_pi_tol`` bound the certificate of
    the constant-part eigenpair: ``np.linalg.eig`` gives it, and at most
    ``complex_pi_iters`` power steps from its eigenvector must bring the
    residual to ``complex_pi_tol`` times the eigenvalue's modulus, or the
    solve reports the dominance uncertain.  They do not bound the
    eigensolve itself.
    """

    truncation: Fraction
    max_iters: int = 200
    tol: float = 1e-12
    check_window: Optional[Fraction] = None
    norm_kind: str = "l2"
    start: Union[str, LCVector] = "ones"
    complex_pi_iters: int = 500
    complex_pi_tol: float = 1e-12

    def __post_init__(self):
        self.truncation = as_exponent(self.truncation)
        if self.truncation < 0:
            raise ValueError(f"truncation must be >= 0, got {self.truncation}")
        if self.check_window is not None:
            self.check_window = as_exponent(self.check_window)
            if not 0 <= self.check_window <= self.truncation:
                raise ValueError(f"check_window must lie in [0, truncation], "
                                 f"got {self.check_window}")
        for name in ("tol", "complex_pi_tol"):
            if not getattr(self, name) > 0:  # also rejects NaN
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("max_iters", "complex_pi_iters"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
        if self.norm_kind not in ("l2", "max"):
            raise ValueError(f"unknown norm kind {self.norm_kind!r}")
        self._seed = 0
        if isinstance(self.start, str) and self.start != "ones":
            kind, _, seed = self.start.partition(":")
            if kind != "random" or not (seed.isascii() and seed.isdigit()):
                raise ValueError(f"unknown start vector choice {self.start!r} (expected "
                                 "'ones' or 'random:<seed>', a non-negative integer seed)")
            self._seed = int(seed)

    @property
    def window(self) -> Fraction:
        return self.check_window if self.check_window is not None else self.truncation

    @property
    def seed(self) -> int:
        return self._seed


@dataclass(frozen=True)
class TraceStep:
    step: int
    vector: LCVector
    rho: LCNumber       #: Rayleigh quotient of the normalized matrix
    estimate: LCNumber  #: recovered units: rho * mu1 * t^(q0)


class _LatticeStep(TraceStep):
    """A step as the loop records it: its iterate and matrix action on the
    solve's lattice, in the form of the kernel ``ops``.  Its Rayleigh
    quotient is built on first read (by the stopping rule or the trace),
    which drops the action.  The iterate and the quotient are converted to
    their :class:`TraceStep` fields, and the estimate composed, on first
    access."""

    def __init__(self, step: int, lat: Lattice, xs, y, ops, trunc: int, mu, q0: int):
        vars(self).update(step=step, _lat=lat, _xs=xs, _y=y, _ops=ops, _trunc=trunc,
                          _mu=mu, _q0=q0)

    @cached_property
    def _rho(self):
        rho = _lattice.retruncate(_lattice.rayleigh(self._xs, self._y, self._ops), self._trunc)
        del vars(self)["_y"]
        return rho

    @cached_property
    def _nu(self):
        # nu1 = rho * mu1 * t^(q0), composed exactly in this order.
        # A = t^(q0) * A_shifted, so the eigenvalue scales by t^(+q0).
        return _lattice.shift(_lattice.mul(self._rho, self._mu), self._q0)

    @cached_property
    def vector(self) -> LCVector:
        return LCVector(self._lat.to_numbers(self._xs))

    @cached_property
    def rho(self) -> LCNumber:
        return self._lat.to_number(self._rho)

    @cached_property
    def estimate(self) -> LCNumber:
        return self._lat.to_number(self._nu)


@dataclass
class IterationTrace:
    """Per-step history of a run, with derived error tables."""

    steps: List[TraceStep] = field(default_factory=list)

    def error_table(self, reference: Optional[LCNumber] = None,
                    max_columns: Optional[int] = None):
        """Per-exponent absolute coefficient errors of each step's estimate.

        Columns are the exponents in the final estimate's support (capped
        at ``max_columns``); errors are taken against ``reference`` when
        given, else against the final estimate.
        """
        target = reference if reference is not None else self.steps[-1].estimate
        cols = [q for q, _ in self.steps[-1].estimate.terms]
        if max_columns is not None:
            cols = cols[:max_columns]
        rows = [(s.step, [abs(s.estimate[q] - target[q]) for q in cols])
                for s in self.steps]
        return cols, rows


@dataclass(frozen=True)
class EigenResult:
    eigenvalue: LCNumber
    eigenvector: LCVector
    q0: Fraction
    mu1: complex
    iterations_used: int
    converged: bool
    pivot_tie_warning: bool
    residual: float            #: semi-norm of A v - nu v on residual_window
    residual_window: Fraction
    poly_residual: Optional[float] = None


# -- constant-part eigensolve --------------------------------------------------


def estimate_dominant_complex(B, iters: int, tol: float, seed: int = 0
                              ) -> Tuple[complex, float]:
    """Dominant eigenvalue of a complex matrix with its dominance ratio.

    One dense eigensolve (``np.linalg.eig``) gives the eigenvalue mu1 of
    largest modulus and the ratio |mu2| / |mu1| of the two largest moduli.
    Up to ``iters`` power steps from its eigenvector certify it: they stop
    once the residual is at most ``tol`` times the Rayleigh quotient's
    modulus.  Returns (mu1, ratio), mu1 being real when ``B`` is; ``seed``
    is unused.  Raises when the power steps do not converge or when the
    ratio exceeds the dominance margin (every eigenvalue of a multiple of
    the identity ties: ratio 1).
    """
    mu, ratio, _v = _estimate_dominant(B, iters, tol)
    return mu, ratio


def _estimate_dominant(B, iters: int, tol: float):
    """:func:`estimate_dominant_complex`, with the eigenvector the power
    steps ended on: (mu1, ratio, vector).

    For a real ``B`` both are real: a strictly dominant eigenvalue of a
    real matrix is real (its conjugate is an eigenvalue of the same
    modulus), so ``mu1`` keeps its real part, and the vector is rotated
    so that its largest component is real and positive, then keeps its
    real part.  The eigensolve and the power steps run on B / 2^e, 2^e just
    above B's largest real or imaginary part, so their norms stay in range;
    mu1 is scaled back, and a mu1 outside the float range raises
    :class:`DomainError`."""
    B = np.ascontiguousarray(B, dtype=complex)
    if not B.any():
        raise DegenerateInputError("zero constant-part matrix")
    real = not B.imag.any()
    e = math.frexp(np.abs(B.view(float)).max())[1]  # the real and imaginary parts
    B = np.ldexp(B.view(float), -e).view(complex)
    if real:
        B = B.real  # LAPACK's real eigensolver: real eigenpairs for real eigenvalues
    w, V = np.linalg.eig(B)
    moduli = np.abs(w)
    i = np.argmax(moduli)
    x, ok = V[:, i], False
    for _ in range(iters):
        y = B @ x
        mu = np.vdot(x, y)
        ny = np.linalg.norm(y)
        if ny <= 1e-300:
            break
        ok = np.linalg.norm(y - mu * x) <= tol * abs(mu)
        x = y / ny
        if ok:
            break
    with np.errstate(over="ignore"):
        mu1 = complex(*np.ldexp((w[i].real, w[i].imag), e))  # exact, or inf out of range
    if not ok or moduli[i] <= 1e-300:
        raise DominanceUncertainError(
            "power iteration on the constant-part matrix did not converge; "
            "no strictly dominant eigenvalue certified", estimate=mu1)
    if not np.isfinite(mu1):
        raise DomainError(f"dominant constant-part eigenvalue of modulus {moduli[i]:.6g} * 2^{e} "
                          "leaves the float range")
    ratio = float(np.sort(moduli)[-2] / moduli[i]) if len(w) > 1 else 0.0
    if ratio > DOMINANCE_RATIO_MAX:
        raise DominanceUncertainError(
            f"second eigenvalue too close in modulus (ratio {ratio:.6f})",
            estimate=mu1, ratio=ratio)
    if real:
        mu1 = complex(mu1.real)
        k = np.argmax(abs(x))
        x = (x * (abs(x[k]) / x[k])).real
    return mu1, ratio, x


# -- preprocessing ----------------------------------------------------------------


def precondition(A: LCMatrix, cfg: SolverConfig):
    """Scale to an at most finite matrix whose dominant eigenvalue has
    constant part 1.  Returns (A_norm, q0, mu1)."""
    q0, mu1, _v = _constant_eigenpair(A, cfg)
    lat, A_lat, _ = _on_lattice(A, ())
    M = _lattice.scaled_matrix(A_lat, -lat.key(q0), _inverse(mu1))
    return LCMatrix([lat.to_numbers(row) for row in M]), q0, mu1


def _constant_eigenpair(A: LCMatrix, cfg: SolverConfig):
    """The smallest valuation q0 of ``A`` and the dominant eigenpair of the
    constant part of t^(-q0) A, the coefficients of ``A`` at t^(q0), as
    :func:`_estimate_dominant` certified it: (q0, mu1, eigenvector)."""
    if A.is_zero():
        raise DegenerateInputError("zero matrix")
    q0 = min_valuation(A)
    B = np.array([[e[q0] for e in row] for row in A.rows], dtype=complex)
    mu1, _ratio, v = _estimate_dominant(B, cfg.complex_pi_iters, cfg.complex_pi_tol)
    return q0, mu1, v


def _inverse(mu1: complex):
    """1/mu1 as the loop's coefficient; not ``_lattice.constant``, which
    drops a factor at or below EPS_FLOOR (|mu1| >= 1e300)."""
    return _lattice.laid_coefficient(1.0 / mu1)


# -- the iteration -----------------------------------------------------------------


def power_step(A_norm: LCMatrix, x: LCVector, norm_kind: str, truncation
               ) -> Tuple[LCVector, bool]:
    """One multiply-and-normalize step, re-truncated to the fixed window."""
    truncation = core.as_bound(truncation)
    lat, M, xs = _on_lattice(A_norm, x, truncation)
    x_new, tie = _lattice.normalize(_lattice.matvec(M, xs), norm_kind, lat.key(truncation))
    return LCVector(lat.to_numbers(x_new)), tie


def _on_lattice(A: LCMatrix, x, *exponents):
    """The lattice of a loop over ``A`` from ``x`` (with ``exponents`` on
    it too), and the matrix and the vector converted to it."""
    lat = Lattice([e for row in A.rows for e in row] + list(x), exponents)
    return lat, tuple(lat.vector(row) for row in A.rows), lat.vector(x)


def weakly_converged(x_prev: LCVector, x_curr: LCVector,
                     rho_prev: LCNumber, rho_curr: LCNumber,
                     r, tol: float) -> bool:
    """Weakly-Cauchy test: after phase alignment, every entry difference
    and the Rayleigh-quotient difference stay below tol on exponents <= r."""
    r = as_exponent(r)
    lat = Lattice([*x_prev, *x_curr, rho_prev, rho_curr], [r])
    a, _ = _lattice.phase_aligned(lat.vector(x_prev))
    b, _ = _lattice.phase_aligned(lat.vector(x_curr))
    return _lattice.weakly_converged(a, b, lambda: (lat.number(rho_prev), lat.number(rho_curr)),
                                     lat.key(r), tol, lat.D)


def _start_vector(cfg: SolverConfig, n: int, dominant=None) -> LCVector:
    """The start vector ``cfg.start`` of length ``n``, or the restart's
    constant vector ``dominant``."""
    start = cfg.start
    if dominant is not None:
        values = dominant
    elif isinstance(start, LCVector):
        if len(start) != n:
            raise DegenerateInputError(
                f"start vector has length {len(start)}, matrix is {n}x{n}")
        return start.retruncated(cfg.truncation)
    elif start == "ones":
        values = [1.0] * n
    else:
        rng = random.Random(cfg.seed)
        values = []
        for _ in range(n):
            while True:  # uniform on the complex unit disk
                re, im = rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)
                if re * re + im * im <= 1.0:
                    break
            values.append(complex(re, im))
    return LCVector([core.constant(complex(c)) for c in values]).retruncated(cfg.truncation)


def _iterate(lat: Lattice, action, ops, y, cfg: SolverConfig, mu1: complex, q0: Fraction):
    """The loop from the start vector ``y`` on the solve's lattice,
    ``action`` being the normalized matrix's action and ``ops`` the vector
    operations of its kernel.  Returns (trace, steps, converged,
    phase-aligned last iterate on the lattice, pivot tie seen)."""
    trunc, window, q0_key = lat.key(cfg.truncation), lat.key(cfg.window), lat.key(q0)
    # as _inverse lays 1/mu1: _lattice.constant drops a mu1 at or below EPS_FLOOR
    mu = ((0, _lattice.laid_coefficient(mu1)),), _lattice.INF
    trace = IterationTrace()
    tie_any = converged = False
    for k in range(cfg.max_iters + 1):
        xs, tie = _lattice.normalize(y, cfg.norm_kind, trunc, ops)
        # one matrix action per step, shared between the Rayleigh quotient
        # of this iterate and the next normalization
        y = action(xs)
        step = _LatticeStep(k, lat, xs, y, ops, trunc, mu, q0_key)
        trace.steps.append(step)
        aligned_new, aligned_tie = _lattice.phase_aligned(xs, ops)
        # step 0 has no previous step, and its pivot tie (e.g. all-ones)
        # is the start's, not the degeneracy the warning flag tracks
        if k:
            tie_any |= tie
            converged = _lattice.weakly_converged(aligned, aligned_new,
                                                  lambda: (prev._rho, step._rho),
                                                  window, cfg.tol, lat.D, ops)
        aligned, prev = aligned_new, step
        if converged:
            break
    step._rho  # the last quotient, built here so that its errors reach solve's restart
    return trace, k, converged, aligned, tie_any or aligned_tie


def _residual(lat: Lattice, action, v, nu, window, ops):
    """The largest coefficient of ``A v - nu v`` on ``window``, lowered to
    the bounds of the differences, with ``action`` A's action, and ``v``
    and ``nu`` on the lattice ``lat``, all on the loop's kernel ``ops``:
    (residual, window)."""
    av, nuv = action(v), ops.scaled(v, nu)
    # both are clamped: every entry has the bound of the first
    rwin = min(lat.key(window), av[0][1], nuv[0][1])
    worst = max(ops.diff_semi_norms(av, nuv, rwin, lat.D), default=0.0)
    return worst, lat.fraction(rwin)


def solve(A: LCMatrix, cfg: SolverConfig) -> Tuple[EigenResult, IterationTrace]:
    """Dominant eigenpair of a diagonalizable matrix over the field.

    Diagonalizability is the caller's responsibility.  When a step loses
    the constant part of the iterate's norm (``LostDominanceError``, or a
    Rayleigh quotient the loop reads whose norm has a vanishing constant
    part), the start vector had numerically no component along the
    dominant eigenvector: the loop then runs once more from the dominant
    eigenvector of the constant-part matrix, and the trace and the step
    count are those of that run.  On non-convergence the full trace is
    still returned with ``converged=False``.

    The vector-convergence guarantee holds for real-series eigenvalues.
    When the dominant eigenvalue has a genuinely complex infinitesimal
    part, each step rotates the iterate by a unit-modulus series phase
    that the constant-coefficient alignment cannot remove: the Rayleigh
    quotient and the residual still settle, but the iterate comparison
    (and hence ``converged``) may stay false; judge such runs by
    ``residual``.

    The loop reads a step's Rayleigh quotient only where the stopping rule
    compares it (once the iterates agree) and at the last step; the trace
    builds the others on first access.
    """
    q0, mu1, dominant = _constant_eigenpair(A, cfg)
    # one lattice per solve: the matrix (q0 is one of its exponents), the
    # start vector and the exponents the loop needs
    lat, A_lat, xs = _on_lattice(A, _start_vector(cfg, A.n), cfg.truncation, cfg.window)
    action, ops, a_action = _lattice_np.scaled_kernel(A_lat, -lat.key(q0), _inverse(mu1))
    try:
        trace, k, converged, x, tie = _iterate(lat, action, ops, ops.laid(xs), cfg, mu1, q0)
    except (LostDominanceError, DegenerateInputError):
        # roundoff wiped out the start's dominant component (a start close
        # to another eigenvector); the restart's constant entries lie on
        # the lattice
        xs = ops.laid(lat.vector(_start_vector(cfg, A.n, dominant)))
        trace, k, converged, x, tie = _iterate(lat, action, ops, xs, cfg, mu1, q0)
    last = trace.steps[-1]
    residual, rwin = _residual(lat, a_action, x, last._nu, cfg.window, ops)
    result = EigenResult(
        eigenvalue=last.estimate, eigenvector=LCVector(lat.to_numbers(x)), q0=q0, mu1=mu1,
        iterations_used=k, converged=converged, pivot_tie_warning=tie,
        residual=residual, residual_window=rwin)
    return result, trace


def _poly_eval_scale(P: Polynomial, x: LCNumber) -> float:
    # Horner on coefficient magnitudes: the size of the terms that cancel
    # when P(x) evaluates to ~0, hence the natural residual scale.
    xmag = max((abs(c) for _, c in x.terms), default=0.0)
    acc = 1.0
    for a in reversed(P.coeffs):
        amag = max((abs(c) for _, c in a.terms), default=0.0)
        acc = acc * xmag + amag
    return max(acc, 1.0)


def poly_dominant_root(P: Polynomial, cfg: SolverConfig
                       ) -> Tuple[EigenResult, IterationTrace]:
    """Dominant root of a monic polynomial with pairwise distinct roots,
    via power iteration on its companion matrix.

    The result additionally records the polynomial residual: the semi-norm
    of P(nu1) on the check window, divided by the magnitude of the terms
    the evaluation cancels (an absolute residual is meaningless when the
    coefficients span dozens of orders of magnitude)."""
    result, trace = solve(companion_matrix(P), cfg)
    value = poly_eval(P, result.eigenvalue)
    rwin = min(cfg.window, value.valid_to)
    pres = core.semi_norm(value, rwin) / _poly_eval_scale(P, result.eigenvalue)
    return dataclasses.replace(result, poly_residual=pres), trace

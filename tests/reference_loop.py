"""The power-iteration loop on LCVector / core arithmetic, kept as the
reference the lattice kernel of :func:`lcpower.solver.solve` must match
bit for bit.

This is the solver loop as it ran before the loop moved onto integer
exponent keys: every step works on ``Fraction`` exponents through
:mod:`lcpower.core` and :mod:`lcpower.linalg`.  Set-up, recovery, the
final phase alignment and the residual are the solver's own.
"""

from lcpower import core
from lcpower.core import as_exponent
from lcpower.errors import LostDominanceError
from lcpower.linalg import (matvec, norm_l2, norm_max_info,
                            rayleigh_quotient_from_action)
from lcpower.solver import (EigenResult, IterationTrace, TraceStep,
                            _phase_aligned, _recover, _residual, _start_vector,
                            precondition)


def normalize_vector(y, norm_kind, truncation):
    y = y.truncated(truncation)  # keeps the norm's validity window finite
    tie = False
    if norm_kind == "max":
        nrm, _idx, tie = norm_max_info(y)
    else:
        nrm = norm_l2(y)
    if nrm.is_zero or nrm.terms[0][0] > 0:
        raise LostDominanceError(
            "normalization lost its constant part; the start vector has "
            "numerically no component along the dominant eigenvector")
    scaled = y * core.invert(nrm)
    return scaled.retruncated(truncation), tie


def power_step(A_norm, x, norm_kind, truncation):
    return normalize_vector(matvec(A_norm, x), norm_kind, truncation)


def weakly_converged(x_prev, x_curr, rho_prev, rho_curr, r, tol):
    r = as_exponent(r)
    a, _ = _phase_aligned(x_prev)
    b, _ = _phase_aligned(x_curr)
    for ea, eb in zip(a.entries, b.entries):
        if core.semi_norm(ea - eb, r) >= tol:
            return False
    return core.semi_norm(rho_curr - rho_prev, r) < tol


def solve(A, cfg):
    a_norm, q0, mu1 = precondition(A, cfg)
    rho_window = cfg.window
    tie_any = False

    x = _start_vector(cfg, A.n)
    x, _start_tie = normalize_vector(x, cfg.norm_kind, cfg.truncation)
    ax = matvec(a_norm, x)
    rho = core.retruncate(rayleigh_quotient_from_action(x, ax), cfg.truncation)
    trace = IterationTrace([TraceStep(0, x, rho, _recover(rho, mu1, q0))])

    converged = False
    k = 0
    for k in range(1, cfg.max_iters + 1):
        x_new, tie = normalize_vector(ax, cfg.norm_kind, cfg.truncation)
        tie_any |= tie
        ax = matvec(a_norm, x_new)
        rho_new = core.retruncate(rayleigh_quotient_from_action(x_new, ax),
                                  cfg.truncation)
        trace.steps.append(TraceStep(k, x_new, rho_new, _recover(rho_new, mu1, q0)))
        done = weakly_converged(x, x_new, rho, rho_new, rho_window, cfg.tol)
        x, rho = x_new, rho_new
        if done:
            converged = True
            break

    x, tie = _phase_aligned(x)
    tie_any |= tie
    nu1 = _recover(rho, mu1, q0)
    residual, rwin = _residual(A, x, nu1, rho_window)
    result = EigenResult(
        eigenvalue=nu1, eigenvector=x, q0=q0, mu1=mu1,
        iterations_used=k, converged=converged, pivot_tie_warning=tie_any,
        residual=residual, residual_window=rwin)
    return result, trace

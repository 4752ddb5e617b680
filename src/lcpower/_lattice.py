"""The series kernels of lcpower on int exponent keys: the one
implementation of the sum and its cleanup, the product, the inverse and
square-root series, the magnitude, the order comparison, the semi-norm
and the vector operations of the power-iteration loop.

Every exponent of a computation lies on one lattice ``(1/D)Z``.  A number
is a pair ``(terms, bound)``: ``terms`` is a sorted tuple of ``(k, c)``
standing for ``c t^(k/D)``, ``bound`` an int or ``INF``.  A vector is a
tuple of numbers sharing one bound.  :mod:`lcpower.core` calls these
functions for all of its arithmetic, comparisons and semi-norms, and
:mod:`lcpower.linalg` for the matrix action, the norms and the Rayleigh
quotient; :func:`lcpower.solver.solve` runs its whole loop here.
:func:`add`, :func:`neg`, :func:`sub`, the coefficient-wise parts,
:func:`exact_diff`, :func:`compare` and :func:`semi_norm` only order
keys and accept any exactly ordered type, e.g. ``Fraction``.  Nothing
here imports the rest of the package apart from :mod:`lcpower.errors`.
A value that would leave the lattice raises :class:`LatticeError`.

The loop's batched operations have two kernels: :func:`matvec` and
:data:`PYTHON` here, and :mod:`lcpower._lattice_np`, the same float
operations on numpy arrays.  ``solve`` picks one of them per solve
(:func:`lcpower._lattice_np.kernel`) and passes its :class:`VectorOps` to
:func:`normalize`, :func:`norm_max`, :func:`rayleigh`,
:func:`phase_aligned` and :func:`weakly_converged`, which keep the control
flow, the checks and the single-series steps for both.  The Python kernel
serves small matrices and :mod:`lcpower.linalg`, and it is the reference
of the numpy one.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .errors import (DegenerateInputError, DomainError, LCError,
                     LostDominanceError, PrecisionError, WindowExceededError)

#: Validity bound of exactly represented numbers.
INF = math.inf

# Cleanup threshold: relative to the largest coefficient magnitude in the
# operand, with an absolute floor.  Coefficients at or below it are treated
# as floating-point residue, not data; without this cleanup valuations and
# order comparisons would be dominated by roundoff.
EPS_REL = 1e-14
EPS_FLOOR = 1e-300

ZERO = ((), INF)


class LatticeError(LCError):
    """An exponent fell off the lattice of a computation (an internal error)."""


# -- numbers ----------------------------------------------------------------------


def constant(x):
    c = complex(x)
    if not (math.isfinite(c.real) and math.isfinite(c.imag)):
        raise ValueError(f"non-finite coefficient {c} at exponent 0")
    c = 0j + c  # as from_terms accumulates it
    m = abs(c)
    return (((0, c),), INF) if m > max(EPS_REL * m, EPS_FLOOR) else ZERO


ONE = constant(1.0)


def add(a, b):
    (ta, ba), (tb, bb) = a, b
    bound = ba if ba <= bb else bb
    merged = []
    append = merged.append
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        qa, ca = ta[i]
        qb, cb = tb[j]
        if qa < qb:
            append(ta[i])
            i += 1
        elif qb < qa:
            append(tb[j])
            j += 1
        else:
            append((qa, ca + cb))
            i += 1
            j += 1
    merged.extend(ta[i:])
    merged.extend(tb[j:])
    mags = [abs(c) for _, c in merged]
    max_mag = max(mags, default=0.0)
    # finite terms sum to inf, never to NaN, so the max sees an overflow
    if not math.isfinite(max_mag):
        raise ValueError("coefficient overflow in addition")
    if max_mag == 0.0:
        return (), bound
    eps = max(EPS_REL * max_mag, EPS_FLOOR)
    if min(mags) > eps and merged[-1][0] <= bound:
        return tuple(merged), bound
    return tuple(t for t, m in zip(merged, mags) if m > eps and t[0] <= bound), bound


def neg(a):
    return tuple((q, -c) for q, c in a[0]), a[1]


def sub(a, b):
    return add(a, neg(b))


def mul(a, b):
    """a * b, valid to min(T_a + val(b), T_b + val(a)).  Exact zero is
    absorbing and exact: the product is zero everywhere."""
    (ta, ba), (tb, bb) = a, b
    if not ta or not tb:
        return ZERO
    lb = tb[0][0]
    x = ba + lb
    y = bb + ta[0][0]
    bound = x if x <= y else y
    if len(tb) == 1:  # the products land on distinct keys, in order
        acc = {qa + lb: 0j + ca * tb[0][1] for qa, ca in ta if qa + lb <= bound}
    else:
        acc = {}
        get = acc.get
        for qa, ca in ta:
            room = bound - qa
            if lb > room:
                break
            for qb, cb in tb:
                if qb > room:
                    break
                q = qa + qb
                acc[q] = get(q, 0j) + ca * cb
    if not acc:
        return (), bound
    mags = list(map(abs, acc.values()))
    # inf - inf in a product gives a NaN, which max() skips unless it comes
    # first; the sum sees it, and only a sum of huge finite ones needs all()
    if not math.isfinite(sum(mags)) and not all(map(math.isfinite, mags)):
        raise ValueError("coefficient overflow in multiplication")
    max_mag = max(mags)
    eps = max(EPS_REL * max_mag, EPS_FLOOR)
    items = sorted(acc.items())
    if min(mags) > eps:
        return tuple(items), bound
    return tuple(t for t in items if abs(t[1]) > eps), bound


def truncated(a, bound):
    return retruncate(a, bound if bound < a[1] else a[1])


def retruncate(a, bound):
    terms = a[0]
    if terms and terms[-1][0] > bound:
        terms = tuple(t for t in terms if t[0] <= bound)
    return terms, bound


def shift(a, s):
    return tuple((q + s, c) for q, c in a[0]), a[1] + s


def coefficient(a, k):
    for q, c in a[0]:
        if q >= k:
            return c if q == k else 0j
    return 0j


def is_real(a):
    return all(c.imag == 0.0 for _, c in a[0])


def real_part(a):
    return tuple((q, complex(c.real, 0.0)) for q, c in a[0] if c.real != 0.0), a[1]


def imag_part(a):
    return tuple((q, complex(c.imag, 0.0)) for q, c in a[0] if c.imag != 0.0), a[1]


def conjugate(a):
    return tuple((q, c.conjugate()) for q, c in a[0]), a[1]


def _split_leading(a):
    """(lam, c, eps) with a = c t^lam (1 + eps)."""
    terms, b = a
    lam, c = terms[0]
    return lam, c, (tuple((q - lam, cq / c) for q, cq in terms[1:]), b - lam)


def _series(eps, kind: str):
    """The geometric (inverse) or binomial (square root) series of ``eps``
    on its window; later powers cannot reach the window.  Terms never
    exceed their bound, so the window is >= 0 and ``//`` truncates."""
    series_bound = eps[1]
    if series_bound == INF:
        raise PrecisionError(
            f"{kind} of an unbounded non-monomial series has infinite support; "
            "truncate the input or pass bound=...")
    n_terms = series_bound // eps[0][0][0] + 1
    acc = power = ONE
    if kind == "inverse":
        neg_eps = neg(eps)
        for _ in range(1, n_terms):
            power = truncated(mul(power, neg_eps), series_bound)
            if not power[0]:
                break
            acc = add(acc, power)
    else:
        coeff = 1.0  # binomial(1/2, k), updated iteratively
        for k in range(1, n_terms):
            coeff *= (0.5 - (k - 1)) / k
            power = truncated(mul(power, eps), series_bound)
            if not power[0]:
                break
            acc = add(acc, mul(power, constant(coeff)))
    return truncated(acc, series_bound)


def invert(a):
    """1/a by the geometric series of the remainder after the leading
    monomial, valid to T_a - 2 val(a)."""
    if not a[0]:
        raise ZeroDivisionError("inverse of zero")
    lam, c, eps = _split_leading(a)
    out_bound = a[1] - 2 * lam
    if out_bound < -lam:
        raise PrecisionError("validity window leaves no representable terms for the inverse")
    if not eps[0]:
        return ((-lam, 1.0 / c),), out_bound
    return shift(mul(_series(eps, "inverse"), constant(1.0 / c)), -lam)


def _half(k):
    if k != INF and k % 2:
        raise LatticeError("square root leaves the exponent lattice")
    return k if k == INF else k // 2


def sqrt(a):
    """The positive square root of a positive real number by the binomial
    series of the remainder after the leading monomial, valid to
    T_a - val(a)/2."""
    if not a[0]:
        return (), _half(a[1])
    if not is_real(a):
        raise DomainError("square root of a number with complex coefficients")
    lam, c, eps = _split_leading(a)
    if c.real < 0:
        raise DomainError("square root of a negative number")
    half_lam = _half(lam)
    root_c = math.sqrt(c.real)
    if not eps[0]:
        return ((half_lam, complex(root_c)),), a[1] - half_lam
    return shift(mul(_series(eps, "square root"), constant(root_c)), half_lam)


def magnitude(z):
    """|z| = sqrt(re(z)^2 + im(z)^2); a real input only flips its sign."""
    if not z[0]:
        return z
    if is_real(z):
        return z if z[0][0][1].real > 0 else neg(z)
    re, im = real_part(z), imag_part(z)
    return sqrt(add(mul(re, re), mul(im, im)))


def exact_diff(a, b):
    """The terms of a - b, merged exactly and not cleaned up: the relative
    cleanup would erase genuinely tiny coefficients (an infinitesimal minus
    1e-100 must still come out negative)."""
    merged = {}
    for q, c in a[0]:
        merged[q] = merged.get(q, 0j) + c
    for q, c in b[0]:
        merged[q] = merged.get(q, 0j) - c
    return sorted((q, c) for q, c in merged.items() if c != 0j)


def compare(a, b) -> int:
    """Order comparison for real numbers: -1, 0 or 1 as a < b, a = b, a > b."""
    if not is_real(a) or not is_real(b):
        raise DomainError("order comparison requires real coefficients")
    diff = exact_diff(a, b)
    return 0 if not diff else 1 if diff[0][1].real > 0 else -1


def semi_norm(a, r: int, D: int) -> float:
    """sup of the coefficient magnitudes over keys <= r; errors name r/D and the bound/D."""
    if r > a[1]:
        raise WindowExceededError(f"semi-norm window {Fraction(r, D)} exceeds "
                                  f"validity bound {Fraction(a[1], D)}")
    return max((abs(c) for q, c in a[0] if q <= r), default=0.0)


# -- vectors ----------------------------------------------------------------------


def clamp(entries):
    """The ``LCVector`` constructor: truncate to the smallest entry bound."""
    bound = min(e[1] for e in entries)
    return tuple(truncated(e, bound) for e in entries)


def truncated_vector(v, bound):
    return clamp([truncated(e, bound) for e in v])


def retruncated_vector(v, bound):
    return clamp([retruncate(e, bound) for e in v])


def scaled(v, s):
    return clamp([mul(e, s) for e in v])


def _add_product(acc, a, b):
    """``add(acc, mul(a, b))`` for an accumulator that starts at ``ZERO``
    and grows only by ``add``.  A product with an empty factor is ``ZERO``,
    and adding it only repeats the accumulator's (idempotent) cleanup."""
    return add(acc, mul(a, b)) if a[0] and b[0] else acc


def matvec(A, x):
    if len(A) != len(x):
        raise DegenerateInputError(f"dimension mismatch: {len(A)}x{len(A)} vs {len(x)}")
    out = []
    for row in A:
        acc = ZERO
        for a_ij, x_j in zip(row, x):
            acc = _add_product(acc, a_ij, x_j)
        out.append(acc)
    return clamp(out)


def _sum_abs_squares(v):
    """sum |v_i|^2 through the real and imaginary parts, so the result has
    exactly real coefficients."""
    acc = ZERO
    for e in v:
        re, im = real_part(e), imag_part(e)
        acc = _add_product(_add_product(acc, re, re), im, im)
    return acc


def rayleigh_numerator(u, au):
    """u* au = sum conj(u_i) au_i."""
    num = ZERO
    for u_i, au_i in zip(u, au):
        num = _add_product(num, conjugate(u_i), au_i)
    return num


def constants(v):
    """Each entry's key-0 coefficient."""
    return [coefficient(e, 0) for e in v]


def leading(v):
    """``norm_max``'s sort key of each entry: ``(0, key, |c|)`` of its first
    term ``c t^key``, or ``(1, 0, 0.0)`` for an entry without terms."""
    return [(0, e[0][0][0], abs(e[0][0][1])) if e[0] else (1, 0, 0.0) for e in v]


def diff_semi_norms(a, b, r: int, D: int):
    """``semi_norm(sub(a_i, b_i), r, D)`` of each pair of entries, computed
    as it is read, so a reader that stops early raises no later error."""
    return (semi_norm(sub(ea, eb), r, D) for ea, eb in zip(a, b))


class VectorOps(NamedTuple):
    """The batched vector operations of the loop on one kernel."""

    truncated: Callable
    retruncated: Callable
    sum_abs_squares: Callable
    rayleigh_numerator: Callable
    scaled: Callable
    constants: Callable
    leading: Callable
    diff_semi_norms: Callable


PYTHON = VectorOps(truncated_vector, retruncated_vector, _sum_abs_squares,
                   rayleigh_numerator, scaled, constants, leading, diff_semi_norms)


def norm_max(v, ops=PYTHON):
    """Largest |v_i| under the series order: (value, index, tie).  The
    leading term decides (smaller valuation, then larger magnitude); the
    magnitude series is compared only between entries tied there."""
    keys = ops.leading(v)
    best_i = 0
    for i in range(1, len(keys)):
        zb, qb, mb = keys[best_i]
        zi, qi, mi = keys[i]
        if zi < zb or (zi == zb == 0 and (qi < qb or (qi == qb and mi > mb * (1 + 1e-12)))):
            best_i = i
    zb, qb, mb = keys[best_i]
    finalists = [i for i, (z, q, m) in enumerate(keys)
                 if z == zb and (zb == 1 or (q == qb and m >= mb * (1 - 1e-12)))]
    best_i, tie = finalists[0], False
    best = magnitude(v[best_i])
    for i in finalists[1:]:
        m = magnitude(v[i])
        cmp = compare(m, best)
        if cmp > 0:
            best, best_i, tie = m, i, False
        elif cmp == 0:
            tie = True
    return best, best_i, tie


def normalize(y, norm_kind: str, truncation: int, ops=PYTHON):
    """Normalize and re-truncate to the fixed window: (x, max-norm pivot tie)."""
    y = ops.truncated(y, truncation)
    tie = False
    if norm_kind == "max":
        nrm, _idx, tie = norm_max(y, ops)
    else:
        # the cleanup may drop the sum's constant term next to large
        # infinitesimal ones and leave it without a root, or with a root
        # of positive valuation: the constant part is lost either way
        s = ops.sum_abs_squares(y)
        nrm = sqrt(s) if s[0] and s[0][0][0] <= 0 and s[0][0][1].real > 0.0 else ZERO
    if not nrm[0] or nrm[0][0][0] > 0:
        raise LostDominanceError(
            "normalization lost its constant part; the start vector has "
            "numerically no component along the dominant eigenvector")
    return ops.retruncated(ops.scaled(y, invert(nrm)), truncation), tie


def rayleigh(u, au, ops=PYTHON):
    """(u* au) / ||u||_2^2 given the matrix action au."""
    # the zero vector's sum |u_i|^2 is ZERO and raises nothing, so only a
    # sum without terms needs the entries read
    s = ops.sum_abs_squares(u)
    if not s[0] and all(z for z, _, _ in ops.leading(u)):
        raise DegenerateInputError("Rayleigh quotient of the zero vector")
    if s[0] and s[0][0][0] < 0:
        raise DomainError("constant part of an infinitely large number")
    if coefficient(s, 0).real <= 0.0:
        raise DegenerateInputError("vector norm has vanishing constant part")
    return mul(ops.rayleigh_numerator(u, au), invert(s))


def phase_aligned(v, ops=PYTHON):
    """Divide by the unit-modulus phase of the pivot's constant coefficient,
    making it real positive: (v, tie).  The pivot is the entry with the
    largest constant-coefficient modulus.  The weak limit is only defined up
    to a phase absorbed by the real-valued norm."""
    consts = ops.constants(v)
    mags = [abs(c) for c in consts]
    best = max(mags)
    tie = best > 0.0 and mags.count(best) > 1
    c0 = consts[mags.index(best)]
    if c0 == 0j:
        return v, tie
    phase = c0 / abs(c0)
    return (v if phase == 1.0 + 0j else ops.scaled(v, constant(phase.conjugate()))), tie


def weakly_converged(a, b, rho_prev, rho_curr, r: int, tol: float, D: int,
                     ops=PYTHON) -> bool:
    """The weakly-Cauchy test on the phase-aligned iterates ``a``, ``b``."""
    if any(d >= tol for d in ops.diff_semi_norms(a, b, r, D)):
        return False
    return semi_norm(sub(rho_curr, rho_prev), r, D) < tol

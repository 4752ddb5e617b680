"""The series kernels of lcpower on int exponent keys: the one
implementation of the sum and of the sum of products, each cleaned up
once, the inverse, the square root and the inverse square root (powers of
one series, by one coefficient recurrence), the magnitude, the order
comparison, the semi-norm and the vector operations of the loop.

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

Coefficients: in a solve's loop a real coefficient is a ``float`` and any
other one a ``complex`` (:func:`laid_coefficient`).  Each kernel's ``laid``
(:class:`VectorOps`) applies this rule where the loop's matrix and start
vectors enter the loop, and the numpy kernel's reads keep it;
:meth:`lcpower.core.Lattice.to_number` converts every coefficient back to
``complex``.  Arithmetic on floats gives the real parts that it gives on
``complex(c, 0.0)``, and a float that meets a complex is promoted to
``complex(c, 0.0)`` (Python 3.10 and 3.11), so one code path serves both
types with the same real parts.  :func:`real_part` and :func:`imag_part`
return ``complex`` coefficients and :func:`conjugate` keeps each one's
type, so on the numbers of :mod:`lcpower.core`, which exposes them, all
three return ``complex``.

The loop's batched operations have two kernels: :func:`matvec` and
:data:`PYTHON` here, and :mod:`lcpower._lattice_np`, convolutions on a
dense numpy grid that clean up only where a value is read, so that they
agree with this kernel within stated error bounds, not bit for bit.
``solve`` picks one per solve (:func:`lcpower._lattice_np.scaled_kernel`)
and passes its :class:`VectorOps` to :func:`normalize`, :func:`norm_max`,
:func:`rayleigh`, :func:`phase_aligned` and :func:`weakly_converged`,
which keep the control flow, the checks and the single-series steps for
both.  The Python kernel serves small matrices and :mod:`lcpower.linalg`,
and it is the reference of the numpy one.
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
    c = laid_coefficient(0j + c)  # as from_terms accumulates it
    m = abs(c)
    return (((0, c),), INF) if m > max(EPS_REL * m, EPS_FLOOR) else ZERO


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
    return sum_of_products(((a, b),))


def sum_of_products(pairs, bound=INF):
    """The sum of a * b over the pairs (a, b) in which neither is empty,
    valid to the least of their products' bounds (see :func:`mul`) and
    ``bound``.  Each product is formed up to that bound and added as
    :func:`add` adds, in pair order; the sum alone is cleaned up and
    checked for overflow."""
    live = []
    for (ta, ba), (tb, bb) in pairs:
        if ta and tb:
            x, y = ba + tb[0][0], bb + ta[0][0]
            if x < bound or y < bound:
                bound = x if x <= y else y
            live.append((ta, tb))
    acc = {}
    for ta, tb in live:
        lb = tb[0][0]
        if len(tb) == 1:  # the products land on distinct keys, in order
            cb, room = tb[0][1], bound - lb
            product = {qa + lb: 0.0 + ca * cb for qa, ca in ta if qa <= room}
        else:
            product = {}
            get = product.get
            for qa, ca in ta:
                room = bound - qa
                if lb > room:
                    break
                for qb, cb in tb:
                    if qb > room:
                        break
                    q = qa + qb
                    product[q] = get(q, 0.0) + ca * cb
        if acc:
            for q, c in product.items():
                acc[q] = acc[q] + c if q in acc else c
        else:
            acc = product
    if not acc:
        return (), bound
    mags = list(map(abs, acc.values()))
    # inf - inf in a product gives a NaN, which max() skips unless it comes
    # first; the sum sees it, and only a sum of huge finite ones needs all()
    if not math.isfinite(sum(mags)) and not all(map(math.isfinite, mags)):
        raise ValueError("coefficient overflow in multiplication")
    eps = EPS_REL * max(mags)
    if eps < EPS_FLOOR:
        eps = EPS_FLOOR
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


def _power(eps, alpha: float, scale, lead: int, kind: str):
    """``scale t^lead (1 + eps)^alpha`` on eps's window, every coefficient
    of the power series in one pass by J. C. P. Miller's recurrence (D. E.
    Knuth, TAOCP vol. 2, 4.7): with ``f = 1 + eps`` on the stride ``h`` of
    eps's keys, ``g_0 = 1`` and ``k g_k = sum_j ((alpha + 1) j - k) f_j
    g_(k-j)``, ``j`` running over eps's terms.  A grid key that no sum of
    eps's keys reaches comes out an exact zero.  The scaled coefficients
    get ``add``'s cleanup once.  Terms never exceed their bound, so the
    window is >= 0 and ``//`` truncates."""
    terms, bound = eps
    if bound == INF:
        raise PrecisionError(
            f"{kind} of an unbounded non-monomial series has infinite support; "
            "truncate the input or pass bound=...")
    h = 0
    for q, _ in terms:
        h = math.gcd(h, q)
    f = [(q // h, c) for q, c in terms]
    # either seed gives the same real parts, but a float seed slows each
    # complex sum's first addition: seed as the first coefficient is typed
    zero = 0.0 if type(f[0][1]) is float else 0j
    a1 = alpha + 1.0
    g = [1.0 + zero]
    for k in range(1, bound // h + 1):
        s = zero
        for j, fj in f:
            if j > k:
                break
            s += (a1 * j - k) * fj * g[k - j]
        g.append(s / k)
    coeffs = [scale * c for c in g]
    mags = list(map(abs, coeffs))
    # max() skips a NaN unless it comes first
    if not all(map(math.isfinite, mags)):
        raise ValueError("coefficient overflow in multiplication")
    cut = max(EPS_REL * max(mags), EPS_FLOOR)
    return (tuple((lead + k * h, c) for k, (c, m) in enumerate(zip(coeffs, mags)) if m > cut),
            bound + lead)


def invert(a):
    """1/a: the leading monomial's inverse times ``(1 + eps)^-1``, eps the
    remainder after it, valid to T_a - 2 val(a)."""
    if not a[0]:
        raise ZeroDivisionError("inverse of zero")
    lam, c, eps = _split_leading(a)
    out_bound = a[1] - 2 * lam
    if out_bound < -lam:
        raise PrecisionError("validity window leaves no representable terms for the inverse")
    if not eps[0]:
        return ((-lam, 1.0 / c),), out_bound
    return _power(eps, -1.0, 1.0 / c, -lam, "inverse")


def _half(k):
    if k != INF and k % 2:
        raise LatticeError("square root leaves the exponent lattice")
    return k if k == INF else k // 2


def _root_split(a):
    """(val(a)/2, sqrt(c), eps) with a = c t^val(a) (1 + eps) a positive real."""
    if not is_real(a):
        raise DomainError("square root of a number with complex coefficients")
    lam, c, eps = _split_leading(a)
    if c.real < 0:
        raise DomainError("square root of a negative number")
    return _half(lam), math.sqrt(c.real), eps


def sqrt(a):
    """The positive square root of a positive real number: the leading
    monomial's root times ``(1 + eps)^(1/2)``, valid to T_a - val(a)/2."""
    if not a[0]:
        return (), _half(a[1])
    half_lam, root_c, eps = _root_split(a)
    if not eps[0]:
        return ((half_lam, root_c),), a[1] - half_lam
    return _power(eps, 0.5, root_c, half_lam, "square root")


def rsqrt(a):
    """1/sqrt(a) of a positive real number as one series, ``(1 +
    eps)^(-1/2)``, with ``invert(sqrt(a))``'s leading term ``c^(-1/2)
    t^(-val(a)/2)`` and bound T_a - 3 val(a)/2."""
    if not a[0]:
        raise ZeroDivisionError("inverse of zero")
    half_lam, root_c, eps = _root_split(a)
    if not eps[0]:
        return ((-half_lam, 1.0 / root_c),), a[1] - 3 * half_lam
    return _power(eps, -0.5, 1.0 / root_c, -half_lam, "inverse square root")


def magnitude(z):
    """|z| = sqrt(re(z)^2 + im(z)^2); a real input only flips its sign."""
    if is_real(z):
        return z if not z[0] or z[0][0][1].real > 0 else neg(z)
    return sqrt(_sum_abs_squares((z,)))


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
    if _held(entries, bound):
        return tuple(entries)
    return tuple(truncated(e, bound) for e in entries)


def _held(v, bound) -> bool:
    """Whether every entry of ``v`` has the bound ``bound`` and no term above it,
    so that truncating them all to it returns them."""
    return all(b == bound and (not terms or terms[-1][0] <= bound) for terms, b in v)


def laid_coefficient(c):
    """The coefficient rule: a real ``c`` as a ``float``, any other as it is."""
    return c.real if c.imag == 0.0 else c


def laid_vector(v):
    """The numbers ``v`` with every coefficient under :func:`laid_coefficient`."""
    return tuple((tuple([(k, laid_coefficient(c)) for k, c in terms]), bound)
                 for terms, bound in v)


def truncated_vector(v, bound):
    if v and v[0][1] <= bound and _held(v, v[0][1]):
        return tuple(v)
    return clamp([truncated(e, bound) for e in v])


def retruncated_vector(v, bound):
    if _held(v, bound):
        return tuple(v)
    return clamp([retruncate(e, bound) for e in v])


def scaled(v, s):
    return clamp([mul(e, s) for e in v])


def scaled_matrix(A, s: int, c):
    """The loop's matrix ``c t^s A``, ``c`` a coefficient: ``mul(shift(e, s), c)`` by entry."""
    return tuple(tuple(mul(shift(e, s), (((0, c),), INF)) for e in row) for row in A)


def matvec(A, x):
    if len(A) != len(x):
        raise DegenerateInputError(f"dimension mismatch: {len(A)}x{len(A)} vs {len(x)}")
    # one bound for the whole vector: no row forms, cleans against or
    # overflows on the keys above it, which the clamp would discard
    bound = INF
    for row in A:
        for (ta, ba), (tb, bb) in zip(row, x):
            if ta and tb:
                p, q = ba + tb[0][0], bb + ta[0][0]
                if p < bound or q < bound:
                    bound = p if p <= q else q
    return clamp([sum_of_products(zip(row, x), bound) for row in A])


def _sum_abs_squares(v):
    """sum |v_i|^2, a complex entry through its real and imaginary parts,
    so the result has exactly real coefficients."""
    return sum_of_products((p, p) for e in v
                           for p in ((e,) if is_real(e) else (real_part(e), imag_part(e))))


def rayleigh_numerator(u, au):
    """u* au = sum conj(u_i) au_i."""
    return sum_of_products((u_i if is_real(u_i) else conjugate(u_i), au_i)
                           for u_i, au_i in zip(u, au))


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
    return (_diff_semi_norm(ea, eb, r, D) for ea, eb in zip(a, b))


def _diff_semi_norm(a, b, r: int, D: int) -> float:
    """``semi_norm(sub(a, b), r, D)`` in one pass: the magnitudes of the
    differences, merged in key order as :func:`add` merges them (``|-c| ==
    |c|``, ``a - b == a + (-b)``), cleaned against their largest, which
    ``max()`` takes in the same order."""
    (ta, ba), (tb, bb) = a, b
    bound = ba if ba <= bb else bb
    keys, mags = [], []
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        qa, ca = ta[i]
        qb, cb = tb[j]
        if qa < qb:
            keys.append(qa)
            mags.append(abs(ca))
            i += 1
        elif qb < qa:
            keys.append(qb)
            mags.append(abs(cb))
            j += 1
        else:
            keys.append(qa)
            mags.append(abs(ca - cb))
            i += 1
            j += 1
    for q, c in ta[i:] or tb[j:]:
        keys.append(q)
        mags.append(abs(c))
    top = max(mags, default=0.0)
    if not math.isfinite(top):
        raise ValueError("coefficient overflow in addition")
    if r > bound:
        semi_norm(((), bound), r, D)  # raises
    if top == 0.0:
        return 0.0
    eps = max(EPS_REL * top, EPS_FLOOR)
    return max((m for q, m in zip(keys, mags) if m > eps and q <= r), default=0.0)


class VectorOps(NamedTuple):
    """The loop's batched vector operations on one kernel; ``laid`` gives its vector form."""

    laid: Callable
    truncated: Callable
    retruncated: Callable
    sum_abs_squares: Callable
    rayleigh_numerator: Callable
    scaled: Callable
    constants: Callable
    leading: Callable
    diff_semi_norms: Callable


PYTHON = VectorOps(laid_vector, truncated_vector, retruncated_vector, _sum_abs_squares,
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
    # y is scaled by the max norm's inverse, whose leading coefficient
    # is > 0, or by the inverse root of sum |y_i|^2 (the l2 norm's inverse)
    if norm_kind == "max":
        base, _idx, tie = norm_max(y, ops)
        inverse = invert
    else:
        base, inverse = ops.sum_abs_squares(y), rsqrt
    # the cleanup may drop the sum's constant term next to large
    # infinitesimal ones and leave it without a root, or with a root of
    # positive valuation: the constant part is lost either way
    if not base[0] or base[0][0][0] > 0 or base[0][0][1].real <= 0.0:
        raise LostDominanceError(
            "normalization lost its constant part; the start vector has "
            "numerically no component along the dominant eigenvector")
    return ops.retruncated(ops.scaled(y, inverse(base)), truncation), tie


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


def weakly_converged(a, b, quotients: Callable, r: int, tol: float, D: int,
                     ops=PYTHON) -> bool:
    """The weakly-Cauchy test on the phase-aligned iterates ``a``, ``b``.
    ``quotients()`` gives the two Rayleigh quotients (previous, current);
    it is called only once the iterates agree."""
    if any(d >= tol for d in ops.diff_semi_norms(a, b, r, D)):
        return False
    rho_prev, rho_curr = quotients()
    return _diff_semi_norm(rho_curr, rho_prev, r, D) < tol

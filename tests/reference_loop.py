"""The series kernels and the power-iteration loop on ``Fraction``
exponents, kept as the reference that :mod:`lcpower._lattice` must match
bit for bit (the numpy kernel, :mod:`lcpower._lattice_np`, matches it
within ``tol``: see ``tests/test_lattice.py``).

These are the sum, negation, order comparison, semi-norm, ``eq_up_to``
and coefficient-wise parts of :mod:`lcpower.core`, its product, inverse,
square root and magnitude, the matrix action, norms and Rayleigh quotient
of :mod:`lcpower.linalg`, and the loop of :func:`lcpower.solver.solve`, as
they ran before all of them moved onto int exponent keys.  The inverse,
the square root and the l2 normalization's inverse root are the kernel's
power recurrence with the same float operations in the same order, on
``Fraction`` exponents, and a sum of products is cleaned up once, as
there.  Nothing here calls the kernel: arithmetic goes through
:func:`add`, :func:`sub`, :func:`mul` and :func:`sum_of_products`, never
through ``+``, ``-`` or ``*`` on ``LCNumber``.
Truncation, exponent shifts, constants, the start vector and the
constant-part power iteration are the package's own (they never call the
kernel).  The loop has no restart: it raises where ``solve`` restarts.
"""

import math
from fractions import Fraction

from lcpower import core
from lcpower.core import (INF, LCNumber, as_exponent, constant, shift_exponents,
                          truncated)
from lcpower.errors import (DegenerateInputError, DomainError, LostDominanceError,
                            PrecisionError, WindowExceededError)
from lcpower.linalg import (LCVector, MaxNorm, min_valuation, pi_matrix,
                            scale_by_monomial)
from lcpower.solver import (EigenResult, IterationTrace, TraceStep,
                            _start_vector, estimate_dominant_complex)

# -- numbers ------------------------------------------------------------------------


def _bsub(x, y):
    return INF if x == INF else x - y


def add(a, b):
    bound = min(a.valid_to, b.valid_to)
    ta, tb = a.terms, b.terms
    # two-pointer merge of the sorted term lists
    merged = []
    i = j = 0
    na, nb = len(ta), len(tb)
    while i < na and j < nb:
        qa, ca = ta[i]
        qb, cb = tb[j]
        if qa < qb:
            merged.append(ta[i])
            i += 1
        elif qb < qa:
            merged.append(tb[j])
            j += 1
        else:
            merged.append((qa, ca + cb))
            i += 1
            j += 1
    merged.extend(ta[i:])
    merged.extend(tb[j:])
    if not merged:
        return LCNumber((), bound)
    max_mag = max(abs(c) for _, c in merged)
    if not math.isfinite(max_mag):
        raise ValueError("coefficient overflow in addition")
    if max_mag == 0.0:
        return LCNumber((), bound)
    eps = max(core.EPS_REL * max_mag, core.EPS_FLOOR)
    return LCNumber(tuple((q, c) for q, c in merged
                          if abs(c) > eps and q <= bound), bound)


def neg(a):
    return LCNumber(tuple((q, -c) for q, c in a.terms), a.valid_to)


def sub(a, b):
    return add(a, neg(b))


def is_real(a):
    return all(c.imag == 0.0 for _, c in a.terms)


def real_part(a):
    return LCNumber(tuple((q, complex(c.real, 0.0)) for q, c in a.terms if c.real != 0.0),
                    a.valid_to)


def imag_part(a):
    return LCNumber(tuple((q, complex(c.imag, 0.0)) for q, c in a.terms if c.imag != 0.0),
                    a.valid_to)


def conjugate(z):
    return LCNumber(tuple((q, c.conjugate()) for q, c in z.terms), z.valid_to)


def _exact_diff(a, b):
    merged = {}
    for q, c in a.terms:
        merged[q] = merged.get(q, 0j) + c
    for q, c in b.terms:
        merged[q] = merged.get(q, 0j) - c
    return sorted((q, c) for q, c in merged.items() if c != 0j)


def compare(a, b):
    if not is_real(a) or not is_real(b):
        raise DomainError("order comparison requires real coefficients")
    diff = _exact_diff(a, b)
    if not diff:
        return 0
    return 1 if diff[0][1].real > 0 else -1


def semi_norm(a, r):
    r = as_exponent(r)
    if r > a.valid_to:
        raise WindowExceededError(
            f"semi-norm window {r} exceeds validity bound {a.valid_to}")
    return max((abs(c) for q, c in a.terms if q <= r), default=0.0)


def eq_up_to(a, b, r, tol):
    r = as_exponent(r)
    bound = min(a.valid_to, b.valid_to)
    if r > bound:
        raise WindowExceededError(
            f"comparison window {r} exceeds shared validity bound {bound}")
    worst = max((abs(c) for q, c in _exact_diff(a, b) if q <= r), default=0.0)
    return worst <= tol


def _product(a, b, bound):
    """The coefficients of a * b at the exponents up to ``bound``, each
    summed as the kernel's ``mul`` sums it."""
    # convolve on a common integer exponent grid
    grid = 1
    for q, _ in a.terms + b.terms:
        grid = grid * q.denominator // math.gcd(grid, q.denominator)
    if bound != INF:
        grid = grid * bound.denominator // math.gcd(grid, bound.denominator)
        ibound = bound.numerator * (grid // bound.denominator)
    else:
        ibound = None
    ia = [(q.numerator * (grid // q.denominator), c) for q, c in a.terms]
    ib = [(q.numerator * (grid // q.denominator), c) for q, c in b.terms]
    lb_i = ib[0][0]
    acc = {}
    for qa, ca in ia:
        if ibound is not None and qa + lb_i > ibound:
            break
        for qb, cb in ib:
            q = qa + qb
            if ibound is not None and q > ibound:
                break
            acc[q] = acc.get(q, 0j) + ca * cb
    return {Fraction(q, grid): c for q, c in acc.items()}


def _product_bound(a, b):
    return min(a.valid_to + b.terms[0][0], b.valid_to + a.terms[0][0])


def sum_of_products(pairs, bound=INF):
    """sum a * b over the pairs with no empty factor, valid to the least
    of the products' bounds and ``bound``; the products add in pair order,
    and the sum alone is cleaned up."""
    pairs = [(a, b) for a, b in pairs if a.terms and b.terms]
    if not pairs:
        return LCNumber((), bound)
    bound = min(bound, *(_product_bound(a, b) for a, b in pairs))
    acc = {}
    for a, b in pairs:
        for q, c in _product(a, b, bound).items():
            acc[q] = acc[q] + c if q in acc else c
    if not acc:
        return LCNumber((), bound)
    mags = [abs(c) for c in acc.values()]
    if not all(map(math.isfinite, mags)):
        raise ValueError("coefficient overflow in multiplication")
    max_mag = max(mags)
    eps = max(core.EPS_REL * max_mag, core.EPS_FLOOR)
    return LCNumber(tuple((q, c) for q, c in sorted(acc.items()) if abs(c) > eps), bound)


def mul(a, b):
    return sum_of_products([(a, b)])


def _split_leading(a):
    lam, c = a.terms[0]
    tail = tuple((q - lam, cq / c) for q, cq in a.terms[1:])
    return lam, c, LCNumber(tail, _bsub(a.valid_to, lam))


def _power(eps, alpha, scale, lead, kind):
    """``scale t^lead (1 + eps)^alpha`` on eps's window by Miller's
    recurrence on the stride ``h`` of eps's exponents."""
    bound = eps.valid_to
    if bound == INF:
        raise PrecisionError(
            f"{kind} of an unbounded non-monomial series has infinite support; "
            "truncate the input or pass bound=...")
    grid = math.lcm(*(q.denominator for q, _ in eps.terms))
    h = Fraction(math.gcd(*(q.numerator * (grid // q.denominator) for q, _ in eps.terms)), grid)
    f = [(int(q / h), c) for q, c in eps.terms]
    a1 = alpha + 1.0
    g = [1.0 + 0j]
    for k in range(1, math.floor(bound / h) + 1):
        s = 0j
        for j, fj in f:
            if j > k:
                break
            s += (a1 * j - k) * fj * g[k - j]
        g.append(s / k)
    coeffs = [scale * c for c in g]
    mags = [abs(c) for c in coeffs]
    if not all(map(math.isfinite, mags)):
        raise ValueError("coefficient overflow in multiplication")
    cut = max(core.EPS_REL * max(mags), core.EPS_FLOOR)
    return LCNumber(tuple((lead + k * h, c) for k, c in enumerate(coeffs) if abs(c) > cut),
                    bound + lead)


def invert(a):
    if not a.terms:
        raise ZeroDivisionError("inverse of zero")
    lam, c, eps = _split_leading(a)
    out_bound = _bsub(a.valid_to, 2 * lam)
    if out_bound < -lam:
        raise PrecisionError("validity window leaves no representable terms for the inverse")
    if not eps.terms:
        return LCNumber(((-lam, 1.0 / c),), out_bound)
    return _power(eps, -1.0, 1.0 / c, -lam, "inverse")


def _root_split(a):
    if not is_real(a):
        raise DomainError("square root of a number with complex coefficients")
    lam, c, eps = _split_leading(a)
    c = c.real
    if c < 0:
        raise DomainError("square root of a negative number")
    return lam / 2, math.sqrt(c), eps


def sqrt(a):
    if not a.terms:
        return LCNumber((), INF if a.valid_to == INF else a.valid_to / 2)
    half_lam, root_c, eps = _root_split(a)
    if not eps.terms:
        return LCNumber(((half_lam, complex(root_c)),), _bsub(a.valid_to, half_lam))
    return _power(eps, 0.5, root_c, half_lam, "square root")


def rsqrt(a):
    if not a.terms:
        raise ZeroDivisionError("inverse of zero")
    half_lam, root_c, eps = _root_split(a)
    if not eps.terms:
        return LCNumber(((-half_lam, complex(1.0 / root_c)),),
                        _bsub(a.valid_to, 3 * half_lam))
    return _power(eps, -0.5, 1.0 / root_c, -half_lam, "inverse square root")


def magnitude(z):
    if not z.terms:
        return z
    if is_real(z):
        return z if z.terms[0][1].real > 0 else neg(z)
    re, im = real_part(z), imag_part(z)
    return sqrt(sum_of_products([(re, re), (im, im)]))


# -- vectors ------------------------------------------------------------------------


def scaled(x, s):
    return LCVector([mul(e, s) for e in x.entries])


def matvec(A, x):
    if A.n != len(x):
        raise DegenerateInputError(f"dimension mismatch: {A.n}x{A.n} vs {len(x)}")
    # every row is formed up to the least product bound of the whole vector
    bound = min((_product_bound(a, b) for row in A.rows for a, b in zip(row, x.entries)
                 if a.terms and b.terms), default=INF)
    return LCVector([sum_of_products(zip(row, x.entries), bound) for row in A.rows])


def _sum_abs_squares(x):
    return sum_of_products((p, p) for e in x.entries for p in (real_part(e), imag_part(e)))


def norm_l2(x):
    return sqrt(_sum_abs_squares(x))


def norm_max_info(x):
    def lead_key(e):
        if not e.terms:
            return (1, Fraction(0), 0.0)  # zero sorts below everything
        q, c = e.terms[0]
        return (0, q, abs(c))

    keys = [lead_key(e) for e in x.entries]
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
    best = magnitude(x.entries[best_i])
    for i in finalists[1:]:
        m = magnitude(x.entries[i])
        cmp = compare(m, best)
        if cmp > 0:
            best, best_i, tie = m, i, False
        elif cmp == 0:
            tie = True
    return MaxNorm(best, best_i, tie)


def rayleigh_quotient_from_action(u, au):
    if u.is_zero():
        raise DegenerateInputError("Rayleigh quotient of the zero vector")
    s = _sum_abs_squares(u)
    if core.constant_part(s).real <= 0.0:
        raise DegenerateInputError("vector norm has vanishing constant part")
    num = sum_of_products((conjugate(u_i), au_i) for u_i, au_i in zip(u.entries, au.entries))
    return mul(num, invert(s))


def phase_aligned(x):
    mags = [abs(e[0]) for e in x.entries]
    best = max(mags)
    tie = best > 0.0 and mags.count(best) > 1
    c0 = x[mags.index(best)][0]
    if c0 == 0j:
        return x, tie
    phase = c0 / abs(c0)
    if phase == 1.0 + 0j:
        return x, tie
    return scaled(x, constant(phase.conjugate())), tie


# -- the loop -----------------------------------------------------------------------


def normalize_vector(y, norm_kind, truncation):
    y = y.truncated(truncation)  # keeps the norm's validity window finite
    tie = False
    if norm_kind == "max":
        nrm, _idx, tie = norm_max_info(y)
        lost = nrm.is_zero or nrm.terms[0][0] > 0
    else:  # a sum whose cleanup dropped its constant term has lost it
        s = _sum_abs_squares(y)
        lost = not s.terms or s.terms[0][0] > 0 or s.terms[0][1].real <= 0.0
    if lost:
        raise LostDominanceError(
            "normalization lost its constant part; the start vector has "
            "numerically no component along the dominant eigenvector")
    inverse = invert(nrm) if norm_kind == "max" else rsqrt(s)
    return scaled(y, inverse).retruncated(truncation), tie


def power_step(A_norm, x, norm_kind, truncation):
    return normalize_vector(matvec(A_norm, x), norm_kind, truncation)


def weakly_converged(x_prev, x_curr, rho_prev, rho_curr, r, tol):
    r = as_exponent(r)
    a, _ = phase_aligned(x_prev)
    b, _ = phase_aligned(x_curr)
    for ea, eb in zip(a.entries, b.entries):
        if semi_norm(sub(ea, eb), r) >= tol:
            return False
    return semi_norm(sub(rho_curr, rho_prev), r) < tol


def precondition(A, cfg):
    q0 = min_valuation(A)
    shifted = scale_by_monomial(A, -q0)
    mu1, _ratio = estimate_dominant_complex(
        pi_matrix(shifted), cfg.complex_pi_iters, cfg.complex_pi_tol, cfg.seed)
    inv_mu = constant(1.0 / mu1)
    return shifted.map(lambda e: mul(e, inv_mu)), q0, mu1


def recover(rho, mu1, q0):
    return shift_exponents(mul(rho, constant(mu1)), q0)


def residual(A, v, nu, window):
    diffs = [sub(a_i, b_i) for a_i, b_i in zip(matvec(A, v).entries, scaled(v, nu).entries)]
    rwin = window
    for d in diffs:
        rwin = min(rwin, d.valid_to)
    return max((semi_norm(d, rwin) for d in diffs), default=0.0), rwin


def solve(A, cfg):
    a_norm, q0, mu1 = precondition(A, cfg)
    tie_any = False

    x = _start_vector(cfg, A.n)
    x, _start_tie = normalize_vector(x, cfg.norm_kind, cfg.truncation)
    ax = matvec(a_norm, x)
    rho = core.retruncate(rayleigh_quotient_from_action(x, ax), cfg.truncation)
    trace = IterationTrace([TraceStep(0, x, rho, recover(rho, mu1, q0))])

    converged = False
    k = 0
    for k in range(1, cfg.max_iters + 1):
        x_new, tie = normalize_vector(ax, cfg.norm_kind, cfg.truncation)
        tie_any |= tie
        ax = matvec(a_norm, x_new)
        rho_new = core.retruncate(rayleigh_quotient_from_action(x_new, ax),
                                  cfg.truncation)
        trace.steps.append(TraceStep(k, x_new, rho_new, recover(rho_new, mu1, q0)))
        done = weakly_converged(x, x_new, rho, rho_new, cfg.window, cfg.tol)
        x, rho = x_new, rho_new
        if done:
            converged = True
            break

    x, tie = phase_aligned(x)
    tie_any |= tie
    nu1 = recover(rho, mu1, q0)
    res, rwin = residual(A, x, nu1, cfg.window)
    result = EigenResult(
        eigenvalue=nu1, eigenvector=x, q0=q0, mu1=mu1,
        iterations_used=k, converged=converged, pivot_tie_warning=tie_any,
        residual=res, residual_window=rwin)
    return result, trace

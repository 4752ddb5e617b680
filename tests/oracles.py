"""Independent brute-force references used by the test suite.

Everything here deliberately avoids the production inversion / square
root / eigensolver code paths: the oracles share only number and matrix
*construction* with the rest of the package, work on plain
exponent -> coefficient dictionaries internally, and use textbook methods
(long division, Newton iteration, the quadratic formula, cofactor
determinants).  They exist to regenerate expected values, not to be fast.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath

from lcpower.core import LCNumber, as_exponent, from_terms
from lcpower.errors import DomainError

__all__ = [
    "series_inv_longdiv",
    "series_sqrt_newton",
    "eig2x2_symbolic",
    "charpoly_series",
    "charpoly_roots_complex",
    "poly_roots_complex",
]


# -- dictionary arithmetic (private to the oracles) --------------------------


def _dict_of(a: LCNumber) -> dict:
    return {q: c for q, c in a.terms}


def _dadd(u: dict, v: dict) -> dict:
    out = dict(u)
    for q, c in v.items():
        out[q] = out.get(q, 0j) + c
        if out[q] == 0j:
            del out[q]
    return out


def _dscale(u: dict, s: complex) -> dict:
    return {q: c * s for q, c in u.items()}


def _dmul(u: dict, v: dict, bound) -> dict:
    out: dict = {}
    for qu, cu in u.items():
        for qv, cv in v.items():
            q = qu + qv
            if q > bound:
                continue
            out[q] = out.get(q, 0j) + cu * cv
    return {q: c for q, c in out.items() if c != 0j}


def _dinv(u: dict, bound) -> dict:
    """Inverse of u by term-by-term long division, exponents <= bound."""
    if not u:
        raise ZeroDivisionError("oracle: inverse of zero")
    lam = min(u)
    c = u[lam]
    tail = {q - lam: cq / c for q, cq in u.items() if q != lam}
    window = bound + lam
    quotient: dict = {}
    residual = {Fraction(0): 1.0 + 0j}
    while residual:
        q0 = min(residual)
        if q0 > window:
            break
        g = residual.pop(q0)
        quotient[q0] = quotient.get(q0, 0j) + g
        for qt, ct in tail.items():
            qq = q0 + qt
            if qq > window:
                continue
            residual[qq] = residual.get(qq, 0j) - g * ct
            if residual[qq] == 0j:
                del residual[qq]
    return {q - lam: cq / c for q, cq in quotient.items() if q - lam <= bound}


# -- scalar series oracles ----------------------------------------------------


def series_inv_longdiv(a: LCNumber, bound) -> LCNumber:
    """1/a with coefficients solved by recursive long division."""
    bound = as_exponent(bound)
    if a.is_zero:
        raise ZeroDivisionError("oracle: inverse of zero")
    return from_terms(_dinv(_dict_of(a), bound).items(), bound)


def series_sqrt_newton(a: LCNumber, bound) -> LCNumber:
    """sqrt(a) by Newton iteration y <- (y + a/y)/2 on truncated series.

    Requires a positive leading coefficient at exponent 0.
    """
    bound = as_exponent(bound)
    u = _dict_of(a)
    if not u:
        return from_terms([], bound)
    if min(u) != 0:
        raise DomainError("oracle sqrt expects valuation 0")
    c0 = u[Fraction(0)]
    if c0.imag != 0 or c0.real <= 0:
        raise DomainError("oracle sqrt expects a positive real leading coefficient")
    y = {Fraction(0): complex(math.sqrt(c0.real))}
    for _ in range(64):
        ay = _dmul(u, _dinv(y, bound), bound)
        y_new = _dscale(_dadd(y, ay), 0.5)
        delta = _dadd(y_new, _dscale(y, -1.0))
        y = y_new
        scale = max(abs(c) for c in y.values())
        if not delta or max(abs(c) for c in delta.values()) <= 1e-15 * scale:
            break
    return from_terms(y.items(), bound)


# -- eigenvalue oracles ---------------------------------------------------------


def eig2x2_symbolic(A, bound):
    """Both eigenvalues of a 2x2 matrix via the quadratic formula over series.

    Triangular matrices come out exactly (the diagonal).  Otherwise the
    discriminant must be real with a positive constant part (distinct real
    constant parts of the eigenvalues).  Returns (nu1, nu2), dominant
    constant part first.
    """
    bound = as_exponent(bound)
    [a, b], [c, d] = [[_dict_of(e) for e in row] for row in A.rows]
    if not b or not c:
        lo = from_terms(a.items(), bound)
        hi = from_terms(d.items(), bound)
        pair = sorted([lo, hi], key=lambda v: -abs(v[0]))
        return pair[0], pair[1]
    tr = _dadd(a, d)
    det = _dadd(_dmul(a, d, bound), _dscale(_dmul(b, c, bound), -1.0))
    disc = _dadd(_dmul(tr, tr, bound), _dscale(det, -4.0))
    if any(v.imag != 0 for v in disc.values()):
        raise DomainError("oracle: discriminant has complex coefficients")
    d0 = disc.get(Fraction(0), 0j).real
    if d0 <= 0:
        raise DomainError("oracle: constant part of the discriminant is degenerate")
    s = _dict_of(series_sqrt_newton(from_terms(disc.items(), bound), bound))
    nu1 = _dscale(_dadd(tr, s), 0.5)
    nu2 = _dscale(_dadd(tr, _dscale(s, -1.0)), 0.5)
    pair = sorted([from_terms(nu1.items(), bound), from_terms(nu2.items(), bound)],
                  key=lambda v: -abs(v[0]))
    return pair[0], pair[1]


def charpoly_series(A, bound):
    """Coefficients (ascending powers) of det(A - x I) for n <= 3.

    Returns a list of LCNumbers c0..cn with cn = +-1, computed by direct
    cofactor expansion over the series entries.
    """
    bound = as_exponent(bound)
    n = A.n
    rows = [[_dict_of(e) for e in row] for row in A.rows]
    one = {Fraction(0): 1.0 + 0j}

    def mk(u):
        return from_terms(u.items(), bound)

    if n == 1:
        return [mk(rows[0][0]), mk(_dscale(one, -1.0))]
    if n == 2:
        (a, b), (c, d) = rows
        det = _dadd(_dmul(a, d, bound), _dscale(_dmul(b, c, bound), -1.0))
        tr = _dadd(a, d)
        return [mk(det), mk(_dscale(tr, -1.0)), mk(one)]
    if n == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows

        def m2(u, v, x, y):
            return _dadd(_dmul(u, v, bound), _dscale(_dmul(x, y, bound), -1.0))

        tr = _dadd(_dadd(a, e), i)
        minors = _dadd(_dadd(m2(e, i, f, h), m2(a, i, c, g)), m2(a, e, b, d))
        det = _dadd(
            _dadd(_dmul(a, m2(e, i, f, h), bound),
                  _dscale(_dmul(b, m2(d, i, f, g), bound), -1.0)),
            _dmul(c, m2(d, h, e, g), bound))
        return [mk(det), mk(_dscale(minors, -1.0)), mk(tr), mk(_dscale(one, -1.0))]
    raise DomainError("oracle charpoly_series handles n <= 3 only")


# -- machine-precision complex spectra ----------------------------------------


def _poly_add(p, q):
    n = max(len(p), len(q))
    return [(p[k] if k < len(p) else 0j) + (q[k] if k < len(q) else 0j) for k in range(n)]


def _poly_mul(p, q):
    out = [0j] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        for j, qj in enumerate(q):
            out[i + j] += pi * qj
    return out


def _poly_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = [0j]
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        term = _poly_mul(m[0][j], _poly_det(minor))
        if j % 2:
            term = [-c for c in term]
        acc = _poly_add(acc, term)
    return acc


def poly_roots_complex(coeffs):
    """All complex roots of a polynomial given by ascending coefficients.

    Degree 1 and 2 use closed forms; degree 3 and 4 fall back to
    mpmath.polyroots at raised precision.
    """
    cs = list(coeffs)
    while len(cs) > 1 and cs[-1] == 0j:
        cs.pop()
    deg = len(cs) - 1
    if deg <= 0:
        raise DomainError("oracle: constant polynomial has no roots")
    if deg == 1:
        roots = [-cs[0] / cs[1]]
    elif deg == 2:
        c0, c1, c2 = cs
        s = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
        # pick the sign that avoids cancellation in -c1 +- s
        u = -c1 + s if abs(-c1 + s) >= abs(-c1 - s) else -c1 - s
        if u == 0:
            roots = [0j, 0j]
        else:
            r1 = u / (2.0 * c2)
            roots = [r1, c0 / (c2 * r1)]
    else:
        with mpmath.workdps(60):
            rs = mpmath.polyroots([mpmath.mpc(c) for c in reversed(cs)],
                                  maxsteps=1000, extraprec=200)
        roots = [complex(r) for r in rs]
    return sorted(roots, key=lambda z: (-abs(z), -z.real, -z.imag))


def charpoly_roots_complex(B):
    """All eigenvalues of a complex matrix, n <= 4, to machine precision.

    Expands det(B - x I) by cofactors into polynomial coefficients and
    solves the resulting polynomial.
    """
    n = len(B)
    if n > 4:
        raise DomainError("oracle charpoly_roots_complex handles n <= 4 only")
    m = [[[complex(B[i][j])] if i != j else [complex(B[i][j]), -1.0 + 0j]
          for j in range(n)] for i in range(n)]
    return poly_roots_complex(_poly_det(m))

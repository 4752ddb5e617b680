"""Seeded random inputs and the randomized law suites.

The law-check functions are shared between the unit tests (small case
counts) and the acceptance gate (1000 cases each).  Inputs are kept
leading-dominant so series inversions and roots stay well conditioned;
tolerances are the stated ones, not loosened.
"""

from fractions import Fraction

import numpy as np

from lcpower import core
from lcpower.core import LCNumber, eq_up_to, from_terms


def rand_exponents(rng, count, lo, hi, denominators=(1, 1, 2)):
    out = set()
    for _ in range(count):
        den = int(rng.choice(denominators))
        num = int(rng.integers(int(lo * den), int(hi * den) + 1))
        out.add(Fraction(num, den))
    return sorted(out)


def rand_lc(rng, bound=5, max_terms=4, lo=0, complex_coeffs=False,
            lead_min=0.5, tail_max=1.5) -> LCNumber:
    """A random number with a dominant leading coefficient."""
    exps = rand_exponents(rng, int(rng.integers(1, max_terms + 1)), lo, bound)
    terms = []
    for i, q in enumerate(exps):
        if i == 0:
            mag = lead_min + rng.uniform(0.0, 2.0)
        else:
            mag = rng.uniform(0.05, tail_max)
        sign = -1.0 if rng.uniform() < 0.5 else 1.0
        c = sign * mag
        if complex_coeffs:
            c = complex(c, rng.uniform(-tail_max, tail_max))
        terms.append((q, c))
    return from_terms(terms, bound)


def rand_nonzero(rng, **kw) -> LCNumber:
    while True:
        a = rand_lc(rng, **kw)
        if not a.is_zero:
            return a


def rand_positive(rng, bound=5, **kw) -> LCNumber:
    """Random a > 0 with an even-denominator-friendly valuation."""
    a = rand_nonzero(rng, bound=bound, **kw)
    q0, c0 = a.terms[0]
    terms = [(q0, abs(c0.real))] + list(a.terms[1:])
    return from_terms(terms, bound)


def _scale(*nums) -> float:
    mags = [abs(c) for a in nums for _, c in a.terms]
    return max(mags) if mags else 1.0


def noise_cleaned_diff(a, b) -> LCNumber:
    """a - b with cancellation residue dropped relative to the INPUT scale.

    When a and b agree exactly in truth, float evaluation leaves ~1e-16
    relative dust whose t^0 component would dominate any infinitesimal in
    the series order; comparisons of near-equal quantities must clean it.
    """
    eps = 1e-12 * _scale(a, b)
    raw = list(a.terms) + [(q, -c) for q, c in b.terms]
    return from_terms(raw, min(a.valid_to, b.valid_to), eps_zero=eps)


# -- law suites (each returns the number of cases exercised) -------------------


def _agree(lhs, rhs):
    # tolerance: 1e-10 relative to the largest coefficient magnitude
    tol = 1e-10 * max(1.0, _scale(lhs, rhs))
    return eq_up_to(lhs, rhs, min(lhs.valid_to, rhs.valid_to), tol)


def check_ring_laws(rng, cases) -> int:
    bound = Fraction(5)
    for _ in range(cases):
        a = rand_lc(rng, bound=bound, complex_coeffs=True)
        b = rand_lc(rng, bound=bound, complex_coeffs=True)
        c = rand_lc(rng, bound=bound, complex_coeffs=True)
        assert _agree(a + b, b + a)
        assert _agree(a * b, b * a)
        assert _agree((a + b) + c, a + (b + c))
        assert _agree((a * b) * c, a * (b * c))
        assert _agree(a * (b + c), a * b + a * c)
    return cases


def check_valuation_additivity(rng, cases) -> int:
    for _ in range(cases):
        a = rand_nonzero(rng, complex_coeffs=True)
        b = rand_nonzero(rng, complex_coeffs=True)
        assert core.valuation(a * b) == core.valuation(a) + core.valuation(b)
    return cases


def check_inverse_roundtrip(rng, cases) -> int:
    one = core.constant(1.0)
    for _ in range(cases):
        a = rand_nonzero(rng, bound=5, complex_coeffs=True)
        prod = a * core.invert(a)
        window = a.valid_to - 2 * a.terms[0][0]
        assert eq_up_to(prod, one, window, 1e-10)
    return cases


def check_sqrt_roundtrip(rng, cases) -> int:
    for _ in range(cases):
        a = rand_positive(rng, bound=5)
        r = core.sqrt(a)
        assert core.compare(r, core.zero()) > 0
        window = a.valid_to - a.terms[0][0] / 2
        assert eq_up_to(r * r, a, window, 1e-10)
    return cases


def check_conjugation(rng, cases) -> int:
    for _ in range(cases):
        z = rand_nonzero(rng, bound=5, complex_coeffs=True)
        m = core.magnitude(z)
        assert _agree(core.conjugate(z) * z, m * m)
    return cases


def check_seminorm_triangle(rng, cases) -> int:
    bound = Fraction(5)
    for _ in range(cases):
        a = rand_lc(rng, bound=bound, complex_coeffs=True)
        b = rand_lc(rng, bound=bound, complex_coeffs=True)
        r = Fraction(int(rng.integers(0, 6)))
        lhs = core.semi_norm(a + b, r)
        rhs = core.semi_norm(a, r) + core.semi_norm(b, r)
        assert lhs <= rhs * (1.0 + 1e-15) + 1e-300
    return cases


def check_order_laws(rng, cases) -> int:
    for _ in range(cases):
        a = rand_lc(rng, bound=5)
        b = rand_lc(rng, bound=5)
        c = rand_lc(rng, bound=5)
        assert core.compare(a, b) == -core.compare(b, a)
        assert core.compare(a, a) == 0
        if core.compare(a, b) >= 0 and core.compare(b, c) >= 0:
            assert core.compare(a, c) >= 0
    return cases


def check_shift_is_monomial_mul(rng, cases) -> int:
    for _ in range(cases):
        a = rand_lc(rng, bound=5, complex_coeffs=True)
        q = Fraction(int(rng.integers(-6, 7)), int(rng.choice([1, 2, 3])))
        shifted = core.shift_exponents(a, q)
        product = a * core.monomial(q)
        assert shifted.terms == product.terms
        assert shifted.valid_to == product.valid_to
    return cases


ALL_LAWS = (
    check_ring_laws,
    check_valuation_additivity,
    check_inverse_roundtrip,
    check_sqrt_roundtrip,
    check_conjugation,
    check_seminorm_triangle,
    check_order_laws,
    check_shift_is_monomial_mul,
)


def random_dominated_2x2(rng, bound):
    """A random real 2x2, at most finite, with constant-part dominance gap
    <= 0.8 and a well-separated discriminant; returns (A, oracle nu1) or
    (None, None) when the draw misses the acceptance region."""
    import oracles
    from lcpower.linalg import LCMatrix

    base = rng.uniform(-3, 3, (2, 2))
    entries = []
    for i in range(2):
        row = []
        for j in range(2):
            terms = [(0, base[i, j])]
            for _ in range(int(rng.integers(0, 3))):
                den = int(rng.choice([1, 2]))
                num = int(rng.integers(1, bound * den + 1))
                terms.append((Fraction(num, den), rng.uniform(-0.3, 0.3)))
            row.append(from_terms(terms, bound))
        entries.append(row)
    A = LCMatrix(entries)
    tr0 = base[0, 0] + base[1, 1]
    det0 = base[0, 0] * base[1, 1] - base[0, 1] * base[1, 0]
    disc0 = tr0 * tr0 - 4 * det0
    if disc0 < 1.0:
        return None, None
    mu1 = (tr0 + np.sqrt(disc0)) / 2
    mu2 = (tr0 - np.sqrt(disc0)) / 2
    if abs(mu1) < abs(mu2):
        mu1, mu2 = mu2, mu1
    if abs(mu1) < 0.5 or abs(mu2) / abs(mu1) > 0.8:
        return None, None
    nu1, _ = oracles.eig2x2_symbolic(A, bound)
    return A, nu1

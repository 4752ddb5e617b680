"""Arithmetic for truncated Levi-Civita numbers.

A number is a finite, strictly increasing list of (rational exponent,
complex coefficient) terms together with a *validity bound*: the largest
exponent up to which the stored coefficients are guaranteed to equal the
exact series.  ``t`` (the canonical infinitesimal, exponent 1) generates
the whole Puiseux hierarchy; exponents are exact ``fractions.Fraction``
values, coefficients are IEEE double complex.

Every operation is a pure function on immutable values and propagates the
validity bound so that a result never claims more precision than its
inputs support:

* ``a + b``         -> min(bounds)
* ``a * b``         -> min(T_a + val(b), T_b + val(a))
* ``invert(a)``     -> T_a - 2 val(a)
* ``sqrt(a)``       -> T_a - val(a) / 2

where ``val`` is the valuation (smallest exponent) and ``T`` the bound.
Arithmetic, order comparison, semi-norms, ``eq_up_to`` and the
coefficient-wise parts run the one implementation in
:mod:`lcpower._lattice`, so its cleanup rule and overflow checks are the
only ones.  The product, the inverse, the square root and the magnitude
add exponents and run on int keys of a lattice built for the call
(:class:`Lattice`); the rest run on the ``Fraction`` exponents as they
are.  :func:`from_terms`, the parser's constructor, keeps its own cleanup
and its ``eps_zero`` override; truncation and exponent shifts stay here,
on ``Fraction`` exponents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Tuple, Union

from . import _lattice
from ._lattice import EPS_FLOOR, EPS_REL, INF, LatticeError
from .errors import DomainError, WindowExceededError

__all__ = [
    "INF",
    "LCNumber",
    "from_terms",
    "constant",
    "monomial",
    "zero",
    "t",
    "as_exponent",
    "valuation",
    "leading_coefficient",
    "constant_part",
    "real_part",
    "imag_part",
    "is_real",
    "invert",
    "sqrt",
    "conjugate",
    "magnitude",
    "compare",
    "semi_norm",
    "eq_up_to",
    "shift_exponents",
    "truncated",
    "retruncate",
]

ExponentLike = Union[Fraction, int, str]
BoundLike = Union[Fraction, int, str, float]
ScalarLike = Union[int, float, complex, Fraction]


def as_exponent(q: ExponentLike) -> Fraction:
    """Coerce ``q`` to an exact rational exponent."""
    if isinstance(q, Fraction):
        return q
    if isinstance(q, (int, str)):
        return Fraction(q)
    raise TypeError(f"exponent must be rational (int, Fraction or 'p/q' string), got {q!r}")


def as_bound(b: BoundLike):
    """Coerce ``b`` to a validity bound (exact rational or +inf)."""
    if b == INF:
        return INF
    return as_exponent(b)


@dataclass(frozen=True)
class LCNumber:
    """A truncated Levi-Civita number.

    Do not build instances directly; use :func:`from_terms`,
    :func:`constant` or :func:`monomial`, which normalize the term list.
    """

    terms: Tuple[Tuple[Fraction, complex], ...]
    valid_to: object  # Fraction or INF

    # -- accessors --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __getitem__(self, q: ExponentLike) -> complex:
        """Coefficient at exponent ``q`` (0 if absent)."""
        q = as_exponent(q)
        for qi, ci in self.terms:
            if qi == q:
                return ci
            if qi > q:
                break
        return 0j

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _exact(_lattice.add, self, other)

    __radd__ = __add__

    def __neg__(self):
        return _exact(_lattice.neg, self)

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _exact(_lattice.sub, self, other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _exact(_lattice.sub, other, self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, LCNumber):
            return _mul(self, invert(other))
        if isinstance(other, (int, float, complex, Fraction)):
            return _mul(self, constant(1.0 / complex(other)))
        return NotImplemented

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return other
        return _mul(other, invert(self))

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return invert(self.__pow__(-n))
        acc = constant(1.0)
        base = self
        k = n
        while k:
            if k & 1:
                acc = _mul(acc, base)
            base = _mul(base, base) if k > 1 else base
            k >>= 1
        return acc

    # -- order (real numbers only) ----------------------------------------

    def __lt__(self, other):
        return compare(self, _coerce_strict(other)) < 0

    def __le__(self, other):
        return compare(self, _coerce_strict(other)) <= 0

    def __gt__(self, other):
        return compare(self, _coerce_strict(other)) > 0

    def __ge__(self, other):
        return compare(self, _coerce_strict(other)) >= 0

    def __repr__(self):
        body = " + ".join(f"{c}*t^{q}" for q, c in self.terms) or "0"
        return f"<LC {body} | valid to {self.valid_to}>"


def _coerce(x):
    if isinstance(x, LCNumber):
        return x
    if isinstance(x, (int, float, complex, Fraction)):
        return constant(x)
    return NotImplemented


def _coerce_strict(x) -> LCNumber:
    y = _coerce(x)
    if y is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as an LCNumber")
    return y


# -- construction ----------------------------------------------------------


def from_terms(raw_terms: Iterable[Tuple[ExponentLike, ScalarLike]],
               valid_to: BoundLike = INF,
               eps_zero: Optional[float] = None) -> LCNumber:
    """Build a normalized number from (exponent, coefficient) pairs.

    Duplicate exponents are merged by addition, coefficients at or below
    the cleanup threshold are dropped, and terms above ``valid_to`` are
    discarded.  Non-finite coefficients are rejected.  ``eps_zero``
    overrides the default threshold (EPS_REL times the largest magnitude,
    floored at EPS_FLOOR).
    """
    bound = as_bound(valid_to)
    merged: dict = {}
    for q, c in raw_terms:
        q = as_exponent(q)
        c = complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"non-finite coefficient {c} at exponent {q}")
        merged[q] = merged.get(q, 0j) + c
    if not merged:
        return LCNumber((), bound)
    if eps_zero is None:
        max_mag = max(abs(c) for c in merged.values())
        eps_zero = max(EPS_REL * max_mag, EPS_FLOOR)
    kept = sorted((q, c) for q, c in merged.items() if abs(c) > eps_zero and q <= bound)
    return LCNumber(tuple(kept), bound)


def constant(c: ScalarLike, valid_to: BoundLike = INF) -> LCNumber:
    """The embedding of a machine scalar: a single term at exponent 0."""
    return from_terms([(0, c)], valid_to)


def monomial(q: ExponentLike, c: ScalarLike = 1.0, valid_to: BoundLike = INF) -> LCNumber:
    """c * t^q."""
    return from_terms([(as_exponent(q), c)], valid_to)


def zero(valid_to: BoundLike = INF) -> LCNumber:
    return LCNumber((), as_bound(valid_to))


#: The canonical infinitesimal (Puiseux variable).
t = monomial(1)


# -- basic queries ----------------------------------------------------------


def valuation(a: LCNumber) -> Optional[Fraction]:
    """Smallest stored exponent; None for zero."""
    if not a.terms:
        return None
    return a.terms[0][0]


def leading_coefficient(a: LCNumber) -> complex:
    if not a.terms:
        return 0j
    return a.terms[0][1]


def is_at_most_finite(a: LCNumber) -> bool:
    """True when a is zero or its valuation is >= 0 (no infinitely large part)."""
    return not a.terms or a.terms[0][0] >= 0


def constant_part(a: LCNumber) -> complex:
    """The coefficient at exponent 0.  Requires an at most finite input."""
    if a.terms and a.terms[0][0] < 0:
        raise DomainError("constant part of an infinitely large number")
    return a[0]


def is_real(a: LCNumber) -> bool:
    return _lattice.is_real((a.terms, a.valid_to))


def real_part(a: LCNumber) -> LCNumber:
    """Coefficient-wise real part."""
    return _exact(_lattice.real_part, a)


def imag_part(a: LCNumber) -> LCNumber:
    """Coefficient-wise imaginary part (a real number)."""
    return _exact(_lattice.imag_part, a)


# -- the series kernels ------------------------------------------------------


class Lattice:
    """Converts numbers to and from the int exponent keys of
    :mod:`lcpower._lattice` on the lattice ``(1/D)Z``: ``D`` is twice the
    lcm of the exponent denominators of ``numbers`` (terms and finite
    bounds) and ``exponents``, and the factor 2 keeps the square root's
    ``lam/2`` on it.  Exponents converted back are shared through a
    ``k -> Fraction`` cache."""

    def __init__(self, numbers, exponents=()):
        dens = {q.denominator for q in exponents if q != INF}
        for a in numbers:
            dens.update(q.denominator for q, _ in a.terms)
            if a.valid_to != INF:
                dens.add(a.valid_to.denominator)
        self.D = 2 * math.lcm(*dens)
        self._fractions = {}

    def key(self, q):
        return INF if q == INF else self._term_key(q)

    def _term_key(self, q: Fraction) -> int:
        k, rem = divmod(q.numerator * self.D, q.denominator)
        if rem:
            raise LatticeError(f"exponent {q} is off the lattice (1/{self.D})Z")
        return k

    def fraction(self, k: int) -> Fraction:
        f = self._fractions.get(k)
        if f is None:
            f = self._fractions[k] = Fraction(k, self.D)
        return f

    def number(self, a: LCNumber):
        key = self._term_key
        return tuple((key(q), c) for q, c in a.terms), self.key(a.valid_to)

    def vector(self, x):
        return tuple(self.number(e) for e in x)

    def to_number(self, a) -> LCNumber:
        terms, b = a
        fraction = self.fraction
        return LCNumber(tuple((fraction(k), c) for k, c in terms),
                        b if b == INF else fraction(b))

    def to_numbers(self, v):
        return [self.to_number(e) for e in v]


def _kernel(fn, *args: LCNumber) -> LCNumber:
    """``fn`` of :mod:`lcpower._lattice` on ``args``, on a lattice built for the call."""
    lat = Lattice(args)
    return lat.to_number(fn(*map(lat.number, args)))


def _exact(fn, *args: LCNumber) -> LCNumber:
    """``fn`` of :mod:`lcpower._lattice` on the ``Fraction`` exponents of ``args``."""
    return LCNumber(*fn(*[(a.terms, a.valid_to) for a in args]))


def _mul(a: LCNumber, b: LCNumber) -> LCNumber:
    return _kernel(_lattice.mul, a, b)


# -- comparison and semi-norms ----------------------------------------------


def compare(a: LCNumber, b: LCNumber) -> int:
    """Order comparison for real numbers: -1, 0 or 1 as a < b, a = b, a > b."""
    return _lattice.compare((a.terms, a.valid_to), (b.terms, b.valid_to))


def semi_norm(a: LCNumber, r: ExponentLike) -> float:
    """sup of coefficient magnitudes over exponents <= r.

    Raises when ``r`` lies beyond the validity bound: the stored window
    cannot certify the supremum there.
    """
    return _lattice.semi_norm((a.terms, a.valid_to), as_exponent(r), 1)


def eq_up_to(a: LCNumber, b: LCNumber, r: ExponentLike, tol: float) -> bool:
    """True when a and b agree coefficient-wise up to exponent r, within tol.

    The difference is exact (:func:`lcpower._lattice.exact_diff`): the
    cleanup would hide a disagreement far below the largest coefficient.
    """
    r = as_exponent(r)
    bound = min(a.valid_to, b.valid_to)
    if r > bound:
        raise WindowExceededError(
            f"comparison window {r} exceeds shared validity bound {bound}")
    diff = _lattice.exact_diff((a.terms, a.valid_to), (b.terms, b.valid_to))
    return max((abs(c) for q, c in diff if q <= r), default=0.0) <= tol


# -- structural operations ---------------------------------------------------


def shift_exponents(a: LCNumber, shift: ExponentLike) -> LCNumber:
    """Multiply by the exact monomial t^shift: every exponent and the bound move."""
    shift = as_exponent(shift)
    return LCNumber(tuple((q + shift, c) for q, c in a.terms),
                    a.valid_to + shift)


def truncated(a: LCNumber, bound: BoundLike) -> LCNumber:
    """Restrict to exponents <= bound; the validity bound only tightens."""
    bound = min(a.valid_to, as_bound(bound))
    return LCNumber(tuple((q, c) for q, c in a.terms if q <= bound), bound)


def retruncate(a: LCNumber, bound: BoundLike) -> LCNumber:
    """Set the validity window to exactly ``bound``.

    Unlike :func:`truncated` this may *widen* the recorded bound.  It is an
    explicit assertion by the caller (the iteration loop holds its window
    fixed instead of letting each step shrink it) and is never applied
    implicitly by arithmetic.
    """
    bound = as_bound(bound)
    return LCNumber(tuple((q, c) for q, c in a.terms if q <= bound), bound)


# -- inversion and square root ------------------------------------------------


def invert(a: LCNumber, bound: BoundLike = None) -> LCNumber:
    """Multiplicative inverse on the largest window the input supports.

    Factors out the leading monomial and sums the geometric series of the
    infinitesimal remainder; the result is valid to ``T_a - 2 val(a)``.
    An exactly represented input (infinite bound) with more than one term
    has an inverse with infinite support, so a finite ``bound`` must be
    supplied (or the input truncated) first.
    """
    if bound is not None:
        a = truncated(a, bound)
    return _kernel(_lattice.invert, a)


def sqrt(a: LCNumber, bound: BoundLike = None) -> LCNumber:
    """Square root of a positive real number (ordered-field root, result > 0).

    Requires real coefficients and a positive leading coefficient.  Uses
    the binomial series of the infinitesimal remainder after factoring the
    leading monomial; the result is valid to ``T_a - val(a)/2``.
    """
    if bound is not None:
        a = truncated(a, bound)
    return _kernel(_lattice.sqrt, a)


# -- complex structure --------------------------------------------------------


def conjugate(z: LCNumber) -> LCNumber:
    return _exact(_lattice.conjugate, z)


def magnitude(z: LCNumber) -> LCNumber:
    """|z| = sqrt(re(z)^2 + im(z)^2), a real number >= 0.

    Purely real inputs take the exact ordered-field route (sign flip of
    the leading coefficient); only genuinely complex inputs pay for the
    square-root series.
    """
    return _kernel(_lattice.magnitude, z)

"""Dense vectors and matrices over truncated Levi-Civita numbers.

Provides the matrix action, vector norms (max and l2), Rayleigh
quotients, Gershgorin disks, the constant-part projection onto plain
complex matrices, monomial rescaling, and companion matrices of monic
polynomials.  Everything is immutable; every function is pure.  The
matrix action, the norms and the Rayleigh quotient convert to int
exponent keys and call :mod:`lcpower._lattice`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from . import _lattice, core
from .core import LCNumber, Lattice, as_exponent
from .errors import DegenerateInputError, DomainError

__all__ = [
    "LCVector",
    "LCMatrix",
    "Disk",
    "Polynomial",
    "MaxNorm",
    "matvec",
    "min_valuation",
    "scale_by_monomial",
    "norm_l2",
    "norm_max",
    "norm_max_info",
    "rayleigh_quotient",
    "gershgorin_disks",
    "all_eigenvalues_at_most_finite",
    "pi_matrix",
    "companion_matrix",
    "poly_eval",
]


class LCVector:
    """A dense vector whose entries share one validity window.

    Construction clamps every entry to the minimum of the entries'
    bounds, which becomes the vector's bound.
    """

    __slots__ = ("entries", "bound")

    def __init__(self, entries: Sequence[LCNumber]):
        entries = [core._coerce_strict(e) for e in entries]
        if not entries:
            raise DegenerateInputError("empty vector")
        bound = entries[0].valid_to
        for e in entries[1:]:
            bound = min(bound, e.valid_to)
        self.entries = tuple(core.truncated(e, bound) for e in entries)
        self.bound = bound

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __mul__(self, s):
        s = core._coerce_strict(s)
        return LCVector([e * s for e in self.entries])

    __rmul__ = __mul__

    def __sub__(self, other):
        if len(other) != len(self):
            raise DegenerateInputError("vector length mismatch")
        return LCVector([a - b for a, b in zip(self.entries, other.entries)])

    def truncated(self, bound) -> "LCVector":
        return LCVector([core.truncated(e, bound) for e in self.entries])

    def retruncated(self, bound) -> "LCVector":
        return LCVector([core.retruncate(e, bound) for e in self.entries])

    def is_zero(self) -> bool:
        return all(e.is_zero for e in self.entries)

    def __repr__(self):
        return "LCVector([" + ", ".join(repr(e) for e in self.entries) + "])"


class LCMatrix:
    """A dense square matrix of truncated Levi-Civita numbers."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence[LCNumber]]):
        rows = [tuple(core._coerce_strict(e) for e in row) for row in rows]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise DegenerateInputError("matrix must be square with n >= 1")
        self.rows = tuple(rows)
        self.n = n

    def __getitem__(self, i):
        return self.rows[i]

    def map(self, f) -> "LCMatrix":
        return LCMatrix([[f(e) for e in row] for row in self.rows])

    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.rows for e in row)

    def __repr__(self):
        return f"<LCMatrix {self.n}x{self.n}>"


@dataclass(frozen=True)
class Disk:
    """A Gershgorin disk: |z - center| <= radius, radius real and >= 0."""
    center: LCNumber
    radius: LCNumber


@dataclass(frozen=True)
class Polynomial:
    """A monic polynomial x^n + a_{n-1} x^{n-1} + ... + a_0.

    ``coeffs`` holds a_0 .. a_{n-1}; the leading 1 is implicit.
    """
    coeffs: Tuple[LCNumber, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(core._coerce_strict(c) for c in self.coeffs))
        if len(self.coeffs) < 1:
            raise DomainError("polynomial degree must be >= 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs)


# -- matrix action ------------------------------------------------------------


def matvec(A: LCMatrix, x: LCVector) -> LCVector:
    lat = Lattice([e for row in A.rows for e in row] + list(x.entries))
    M = tuple(lat.vector(row) for row in A.rows)
    return LCVector(lat.to_numbers(_lattice.matvec(M, lat.vector(x))))


def min_valuation(A: LCMatrix) -> Fraction:
    """Smallest valuation over the nonzero entries."""
    vals = [core.valuation(e) for row in A.rows for e in row if not e.is_zero]
    if not vals:
        raise DegenerateInputError("zero matrix has no valuation")
    return min(vals)


def scale_by_monomial(A: LCMatrix, shift) -> LCMatrix:
    """Entrywise multiplication by the exact monomial t^shift."""
    shift = as_exponent(shift)
    return A.map(lambda e: core.shift_exponents(e, shift))


# -- norms --------------------------------------------------------------------


def norm_l2(x: LCVector) -> LCNumber:
    """sqrt(|x_1|^2 + ... + |x_n|^2); zero exactly for the zero vector."""
    lat = Lattice(x.entries)
    return lat.to_number(_lattice.sqrt(_lattice._sum_abs_squares(lat.vector(x))))


class MaxNorm(NamedTuple):
    value: LCNumber
    index: int
    tie: bool


def norm_max_info(x: LCVector) -> MaxNorm:
    """Largest |x_i| under the series order, the index attaining it, and
    whether the maximum was tied (ties resolve to the smallest index).

    |x_i| > |x_j| is decided at the leading term (smaller valuation wins,
    then larger leading magnitude); the full magnitude series is only
    compared when entries tie there, so the square-root series is paid
    once for the winner, not per entry.
    """
    lat = Lattice(x.entries)
    value, index, tie = _lattice.norm_max(lat.vector(x))
    return MaxNorm(lat.to_number(value), index, tie)


def norm_max(x: LCVector) -> Tuple[LCNumber, int]:
    info = norm_max_info(x)
    return info.value, info.index


# -- Rayleigh quotient ----------------------------------------------------------


def rayleigh_quotient_from_action(u: LCVector, au: LCVector) -> LCNumber:
    """(u* au) / ||u||_2^2 given the already-computed matrix action au."""
    lat = Lattice(u.entries + au.entries)
    return lat.to_number(_lattice.rayleigh(lat.vector(u), lat.vector(au)))


def rayleigh_quotient(A: LCMatrix, u: LCVector) -> LCNumber:
    """(u* A u) / ||u||_2^2 for a vector with nonvanishing constant norm."""
    return rayleigh_quotient_from_action(u, matvec(A, u))


# -- localization and projection -------------------------------------------------


def gershgorin_disks(A: LCMatrix) -> List[Disk]:
    """One disk per row: center a_ii, radius = sum of |a_ik|, k != i.

    The modulus of an exact complex entry with two or more terms is an
    infinite series (``|1 + i t| = 1 + t^2/2 - ...``).  It is taken on the
    window up to the largest exponent stored in ``A``, and the radius is
    valid to that window."""
    window = max((q for row in A.rows for e in row for q, _ in e.terms), default=0)
    disks = []
    for i, row in enumerate(A.rows):
        radius = core.zero()
        for k, e in enumerate(row):
            if k != i:
                if e.valid_to == core.INF and len(e.terms) > 1 and not core.is_real(e):
                    e = core.truncated(e, window)
                radius = radius + core.magnitude(e)
        disks.append(Disk(center=row[i], radius=radius))
    return disks


def all_eigenvalues_at_most_finite(disks: Sequence[Disk]) -> bool:
    """True when every disk has an at most finite center and radius, which
    forces every eigenvalue to be at most finite."""
    return all(core.is_at_most_finite(d.center) and core.is_at_most_finite(d.radius)
               for d in disks)


def pi_matrix(A: LCMatrix) -> np.ndarray:
    """Entrywise constant part as a plain complex matrix."""
    return np.array([[core.constant_part(e) for e in row] for row in A.rows],
                    dtype=complex)


# -- companion matrices -----------------------------------------------------------


def companion_matrix(P: Polynomial) -> LCMatrix:
    """The companion matrix of a monic polynomial: ones on the subdiagonal,
    negated coefficients a_0..a_{n-1} down the last column."""
    n = P.degree
    z = core.zero()
    one = core.constant(1.0)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if j == n - 1:
                row.append(-P.coeffs[i])
            elif i == j + 1:
                row.append(one)
            else:
                row.append(z)
        rows.append(row)
    return LCMatrix(rows)


def poly_eval(P: Polynomial, x: LCNumber) -> LCNumber:
    """P(x) by Horner's scheme (implicit monic leading coefficient)."""
    acc = core.constant(1.0)
    for a in reversed(P.coeffs):
        acc = acc * x + a
    return acc

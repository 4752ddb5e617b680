"""The loop's batched operations on a dense numpy grid.

:class:`MatrixAction` and :data:`NUMPY` work on :class:`Vector` s, one
array ``arr[slot, entry]`` over the keys ``base + g*slot`` (float64 when
every coefficient is real, else complex128), where a product of series is
a convolution (R. P. Brent and H. T. Kung, J. ACM 25(4), 1978): the matrix
action adds a matrix product per occupied key slot of the matrix, the
sums of products and the scaling convolve entry by entry.  A result is
cut at its bound before it is checked or read.  ``EPS_REL`` and
``EPS_FLOOR`` apply only where a value is read: an entry read as a number,
the numbers :func:`sum_abs_squares` and :func:`rayleigh_numerator` return,
and in :func:`leading`, :func:`constants` and :func:`diff_semi_norms`.  So
a result differs from the Python kernel's, which cleans a sum of products
once as it forms it, by the terms that cleanup drops, each at most
``EPS_REL`` of an intermediate's largest magnitude, and by another
summation order's roundoff.  Bounds are ``mul``'s, ``val`` being the first
stored nonzero key.  :func:`kernel` picks the kernel per solve.  The
operations take :class:`Vector` s, which :data:`NUMPY`'s ``laid`` makes of
numbers; a real coefficient reads as a float, as in ``_lattice``.
"""

from __future__ import annotations

import math
from functools import cached_property, partial

import numpy as np

from . import _lattice
from ._lattice import EPS_FLOOR, EPS_REL, INF
from .errors import DegenerateInputError

#: Matrices with at least this many stored entries take the numpy kernel.
MIN_PAIRS = 10


def kernel(M, ops=None):
    """``(x -> matvec(M, x), vector ops)``, M laid out, on ``ops`` or the kernel M's size picks."""
    if ops is NUMPY or ops is None and sum(1 for row in M for a in row if a[0]) >= MIN_PAIRS:
        return MatrixAction(M), NUMPY
    return partial(_lattice.matvec, tuple(map(_lattice.PYTHON.laid, M))), _lattice.PYTHON


class Vector:
    """Numbers as ``arr[slot, entry]`` on the keys ``base + g*slot`` and their
    ``bounds``; it reads as the numbers, each cleaned up as ``add`` does."""

    def __init__(self, arr, base: int, g: int, bounds):
        self.arr, self.base, self.g, self.bounds = arr, base, g, bounds

    def __len__(self):
        return len(self.bounds)

    def __iter__(self):
        return iter(self.numbers)

    def __getitem__(self, i):
        """The number ``i``, converted alone unless the whole vector is."""
        if "numbers" in vars(self) or not isinstance(i, int):
            return self.numbers[i]
        return _number(self.arr[:, i], self.base, self.g, self.bounds[i])

    @cached_property
    def numbers(self):
        return tuple(self[i] for i in range(len(self)))


def _layout(v) -> Vector:
    """The numbers ``v`` as a :class:`Vector` on the gcd of their key offsets,
    float64 where every coefficient is real (``_lattice.laid_coefficient``)."""
    bounds = np.array([float(b) for _, b in v])
    terms = [(k, _lattice.laid_coefficient(c), i) for i, (e, _) in enumerate(v) for k, c in e]
    if not terms:
        return Vector(np.zeros((0, len(v))), 0, 1, bounds)
    keys, coeffs, cols = map(np.array, zip(*terms))
    base = int(keys.min())
    g = int(np.gcd.reduce(keys - base)) or 1
    arr = np.zeros(((int(keys.max()) - base) // g + 1, len(v)), coeffs.dtype)
    arr[(keys - base) // g, cols] = coeffs
    return Vector(arr, base, g, bounds)


def _cleaned(arr):
    """``arr`` with each column cleaned up as ``add`` cleans a number; a
    magnitude that overflows raises as ``abs`` does."""
    with np.errstate(over="ignore"):  # abs is hypot, which numpy's complex abs is not
        mags = np.hypot(arr.real, arr.imag)
    top = mags.max(axis=0, initial=0.0)
    if not np.isfinite(top).all():
        raise OverflowError("absolute value too large")
    return np.where(mags > np.maximum(EPS_REL * top, EPS_FLOOR), arr, 0)


def _coefficients(values):
    """The coefficients ``values`` under ``_lattice.laid_coefficient``."""
    return list(map(_lattice.laid_coefficient, values.tolist()))


def _number(column, base: int, g: int, bound):
    """The cleaned number of ``column`` on the keys ``base + g*slot``."""
    column = _cleaned(column)
    slots = np.flatnonzero(column)
    return (tuple(zip((base + g * slots).tolist(), _coefficients(column[slots]))),
            INF if bound == INF else int(bound))


def _valuations(x: Vector):
    """``(nonempty, key of the first nonzero coefficient, bound)`` by entry."""
    present = x.arr != 0
    first = present.argmax(axis=0) if len(x.arr) else 0
    return present.any(axis=0), x.base + x.g * first, x.bounds


def _mul_bound(a, b):
    """``(min of mul's bound min(T_a + val b, T_b + val a), live)`` over the
    products of entries (:func:`_valuations`) in which neither is empty."""
    (a_nonempty, a_val, a_bound), (b_nonempty, b_val, b_bound) = a, b
    live = a_nonempty & b_nonempty
    return np.minimum(a_bound + b_val, b_bound + a_val).min(where=live, initial=INF), live


def _stride(vectors, *offsets) -> int:
    """The gcd of the strides of ``vectors`` (of more than one slot) and ``offsets``."""
    return math.gcd(*(x.g for x in vectors if len(x.arr) > 1), *offsets) or 1


def _strided(x: Vector, g: int):
    """``x.arr`` on the key stride ``g``, a divisor of ``x.g``."""
    r = x.g // g
    if r == 1 or len(x.arr) < 2:
        return x.arr
    out = np.zeros(((len(x.arr) - 1) * r + 1, x.arr.shape[1]), x.arr.dtype)
    out[::r] = x.arr
    return out


def _upto(base: int, g: int, bound):
    """How many keys ``base + g*slot`` lie at or below ``bound`` (None: all)."""
    return None if bound == INF else max(0, (int(bound) - base) // g + 1)


def _checked(arr):
    if not np.isfinite(arr).all():
        raise ValueError("coefficient overflow in multiplication")
    return arr


class MatrixAction:
    """``_lattice.matvec(M, x)`` on the grid: ``M``'s coefficients at each
    of its occupied key slots as one ``n x n`` block, for ``x @ block``."""

    def __init__(self, M):
        n = self._n = len(M)
        a = _layout([e for row in M for e in row])  # column i*n + j
        self._base, self._g = a.base, a.g
        self._slots = np.flatnonzero(a.arr.any(axis=1)).tolist()
        self._blocks = a.arr[self._slots].reshape(-1, n, n).transpose(0, 2, 1)
        # entry (i, j) meets x_j: the valuations broadcast along j
        self._valuations = [np.broadcast_to(v, n * n).reshape(n, n) for v in _valuations(a)]

    def __call__(self, x):
        n = self._n
        if len(x) != n:
            raise DegenerateInputError(f"dimension mismatch: {n}x{n} vs {len(x)}")
        bound, _live = _mul_bound(self._valuations, _valuations(x))
        g = _stride([x], self._g)
        r, base = self._g // g, self._base + x.base
        x_arr = _strided(x, g)[:_upto(base, g, bound)]
        y = np.zeros((self._slots[-1] * r + len(x_arr) if self._slots else 0, n),
                     np.result_type(x_arr, self._blocks))
        with np.errstate(over="ignore", invalid="ignore"):
            for s, block in zip(self._slots, self._blocks):
                y[s * r:s * r + len(x_arr)] += x_arr @ block
        return retruncated(Vector(y, base, g, np.empty(n)), bound)


def truncated(x: Vector, bound) -> Vector:
    """:func:`lcpower._lattice.truncated_vector`: a slice."""
    return retruncated(x, min(bound, x.bounds.min()))


def retruncated(x: Vector, bound) -> Vector:
    """:func:`lcpower._lattice.retruncated_vector`: a slice, which must be finite."""
    return Vector(_checked(x.arr[:_upto(x.base, x.g, bound)]), x.base, x.g,
                  np.full(len(x), float(bound)))


def _products(x: Vector, y: Vector, combine):
    """``(combine(a, b, live), base, g, bound)`` of the arrays of ``x`` and
    ``y`` on their stride ``g``, cut and checked at the products' bound."""
    g, base = _stride([x, y]), x.base + y.base
    bound, live = _mul_bound(_valuations(x), _valuations(y))
    width = _upto(base, g, bound)
    with np.errstate(over="ignore", invalid="ignore"):
        out = combine(_strided(x, g)[:width], _strided(y, g)[:width], live)
    return _checked(out[:width]), base, g, bound


def _convolve(a, b):
    """The products of the series in the columns of ``a`` and ``b`` (one of
    them may have one column for all): a pass per slot of the shorter."""
    if len(a) > len(b):
        a, b = b, a
    shape = (max(0, len(a) + len(b) - 1),) + np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros(shape, np.result_type(a, b))
    for j, row in enumerate(a):
        out[j:j + len(b)] += row * b
    return out


def _sum_of_products(a, b, live):
    """``sum_c a_c b_c`` over the live columns: row ``j`` of ``a @ b.T``
    holds slot ``j``'s products, which land on slots ``j + l``."""
    if len(a) > len(b):  # pad the shorter factor's side
        a, b = b, a
    a, b = a[:, live], b[:, live]
    m, M = len(a), len(b)
    skewed = np.zeros((m, M + m), np.result_type(a, b))  # row j shifted by j
    skewed[:, :M] = a @ b.T
    return skewed.ravel()[:m * (M + m - 1)].reshape(m, max(M + m - 1, 0)).sum(axis=0)


def sum_abs_squares(x: Vector):
    """:func:`lcpower._lattice._sum_abs_squares`: the squares of the real
    and imaginary parts, each a series valid to ``T_i + val(part)``."""
    if np.iscomplexobj(x.arr):
        x = Vector(np.hstack((x.arr.real, x.arr.imag)), x.base, x.g, np.tile(x.bounds, 2))
    return _number(*_products(x, x, _sum_of_products))


def rayleigh_numerator(u: Vector, au: Vector):
    """:func:`lcpower._lattice.rayleigh_numerator`: ``sum conj(u_i) au_i``."""
    return _number(*_products(u, au, lambda a, b, live: _sum_of_products(a.conj(), b, live)))


def scaled(x: Vector, s) -> Vector:
    """:func:`lcpower._lattice.scaled`: each entry of ``x`` times the number ``s``."""
    out, base, g, bound = _products(x, _layout((s,)), lambda a, b, _live: _convolve(a, b))
    return retruncated(Vector(out, base, g, x.bounds), bound)


def constants(x: Vector):
    """:func:`lcpower._lattice.constants`: the cleaned key-0 coefficients, ``0j`` where none."""
    slot, off = divmod(-x.base, x.g)
    if off or not 0 <= slot < len(x.arr):
        return [0j] * len(x)
    return [c or 0j for c in _coefficients(_cleaned(x.arr)[slot])]


def leading(x: Vector):
    """:func:`lcpower._lattice.leading` of the cleaned entries."""
    arr = _cleaned(x.arr)
    if not len(arr):
        return [(1, 0, 0.0)] * len(x)
    present = arr != 0
    first = present.argmax(axis=0)
    return [(0, k, abs(c)) if nonempty else (1, 0, 0.0) for nonempty, k, c in zip(
        present.any(axis=0).tolist(), (x.base + x.g * first).tolist(),
        arr[first, np.arange(len(x))].tolist())]


def diff_semi_norms(x: Vector, y: Vector, r: int, D: int):
    """:func:`lcpower._lattice.diff_semi_norms` of the cleaned differences,
    read lazily: a reader that stops early meets no later entry's error."""
    laid = [v for v in (x, y) if len(v.arr)]
    base = min((v.base for v in laid), default=0)
    g = _stride(laid, *(v.base - base for v in laid))
    top = max((v.base + v.g * (len(v.arr) - 1) for v in laid), default=base - g)
    diff = np.zeros(((top - base) // g + 1, len(x)), np.result_type(x.arr, y.arr))
    with np.errstate(over="ignore", invalid="ignore"):
        for v, sign in ((x, 1), (y, -1)):
            arr = sign * _strided(v, g)  # an empty vector adds no row
            diff[(v.base - base) // g:][:len(arr)] += arr
        mags = np.hypot(diff.real, diff.imag)
    tops = mags.max(axis=0, initial=0.0)
    keep = mags > np.maximum(EPS_REL * tops, EPS_FLOOR)
    norms = np.where(keep, mags, 0.0)[:_upto(base, g, r)].max(axis=0, initial=0.0)
    by_abs = (np.isfinite(diff) & np.isinf(mags)).any(axis=0).tolist()  # add's abs raises first
    for norm, finite, abs_raises, bound in zip(norms.tolist(), np.isfinite(tops).tolist(), by_abs,
                                               np.minimum(x.bounds, y.bounds).tolist()):
        if not finite:
            raise (OverflowError("absolute value too large") if abs_raises
                   else ValueError("coefficient overflow in addition"))
        _lattice.semi_norm(((), INF if bound == INF else int(bound)), r, D)  # raises above it
        yield norm


NUMPY = _lattice.VectorOps(_layout, truncated, retruncated, sum_abs_squares, rayleigh_numerator,
                           scaled, constants, leading, diff_semi_norms)

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
stored nonzero key.  :func:`scaled_kernel` forms ``solve``'s normalized
matrix and picks the kernel per solve.  The operations take
:class:`Vector` s, which :data:`NUMPY`'s ``laid`` makes of numbers; a real
coefficient reads as a float, as in ``_lattice``.

Summation order: a convolution sums, at each key slot, the products of the
shorter factor's slots in ascending order, starting from an exact zero
(:func:`_convolve`: one reduction over the first slots, then a pass per
slot).  The fast paths keep those bits: :func:`scaled` by a one-term
number multiplies the array (the one-row convolution), and the normalized
matrix derived from the matrix's layout equals the layout of its entries'
products, for a real or a complex factor.  ``tests/test_fast_paths.py``
holds the code they replace and checks them against it bit for bit.
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


def scaled_kernel(A, shift: int, c):
    """The loop's matrix ``M = c t^shift A`` (``c`` a coefficient) and A
    on the kernel that M's stored entries pick: ``(M's action, ops, A's
    action)``.  M's entries are ``_lattice.scaled_matrix``'s products.  On
    the grid A is laid out once and M's layout derived from it; on the
    Python kernel M is formed entry by entry."""
    flat = [e for row in A for e in row]
    if sum(1 for e in flat if e[0]) >= MIN_PAIRS:  # M has at most A's stored entries
        a = _layout(flat)
        m = _scaled_layout(a, [bool(e[0]) for e in flat], shift, c)
        if np.count_nonzero(m.arr.any(axis=0)) >= MIN_PAIRS:
            return MatrixAction(m), NUMPY, MatrixAction(a)
    M = _lattice.scaled_matrix(A, shift, c)
    return (partial(_lattice.matvec, tuple(map(_lattice.PYTHON.laid, M))), _lattice.PYTHON,
            partial(_lattice.matvec, tuple(map(_lattice.PYTHON.laid, A))))


def _scaled_layout(a: Vector, has_terms, shift: int, c):
    """``_layout`` of the products ``mul(shift(e, shift), c)`` of the entries
    ``e`` laid out as ``a`` (``has_terms`` tells an entry without terms,
    which becomes the exact zero): each column cut at its bound, as ``mul``
    forms no product above it, multiplied part by part as Python multiplies
    complex numbers (a real array where every imaginary part is zero), and
    cleaned as the entry's product is, on the grid of the terms kept.  A
    product that leaves the float range raises as the first such entry's
    ``mul`` does."""
    arr = np.where((a.base + a.g * np.arange(len(a.arr)))[:, None] <= a.bounds, a.arr, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        re = 0.0 + (arr.real * c.real - arr.imag * c.imag)
        im = 0.0 + (arr.real * c.imag + arr.imag * c.real)
        out = np.stack((re, im), -1).view(complex)[..., 0] if im.any() else re
        mags = _magnitudes(out)
    if not np.isfinite(mags).all():
        j = np.isfinite(mags).all(axis=0).argmin()
        if (np.isfinite(out[:, j]) & np.isinf(mags[:, j])).any():
            raise OverflowError("absolute value too large")  # abs, before the sum's check
        raise ValueError("coefficient overflow in multiplication")
    out = _cleaned(out)
    slots, cols = np.nonzero(out)
    coeffs = out[slots, cols]
    if coeffs.dtype.kind == "c" and not coeffs.imag.any():  # every coefficient kept is real
        coeffs = coeffs.real
    return _grid(a.base + shift + a.g * slots, coeffs, cols,
                 np.where(has_terms, a.bounds + shift, INF))


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
    """The numbers ``v`` as a :class:`Vector` (:func:`_grid`), each
    coefficient as ``_lattice.laid_coefficient`` lays it."""
    terms = [(k, _lattice.laid_coefficient(c), i) for i, (e, _) in enumerate(v) for k, c in e]
    keys, coeffs, cols = map(np.array, zip(*terms)) if terms else ((),) * 3
    return _grid(keys, coeffs, cols, np.array([float(b) for _, b in v]))


def _grid(keys, coeffs, cols, bounds) -> Vector:
    """The terms ``(keys[i], coeffs[i])`` of the numbers ``cols[i]`` as a
    :class:`Vector` on the gcd of their key offsets from the least, float64
    where ``coeffs`` is real."""
    if not len(keys):
        return Vector(np.zeros((0, len(bounds))), 0, 1, bounds)
    base = int(keys.min())
    g = int(np.gcd.reduce(keys - base)) or 1
    arr = np.zeros(((int(keys.max()) - base) // g + 1, len(bounds)), coeffs.dtype)
    arr[(keys - base) // g, cols] = coeffs
    return Vector(arr, base, g, bounds)


def _magnitudes(arr):
    """``abs`` of each coefficient: ``hypot`` of the parts, which numpy's
    complex abs is not, and of a real array its abs (``hypot(x, 0) == |x|``)."""
    if arr.dtype.kind != "c":
        return np.abs(arr)
    with np.errstate(over="ignore"):
        return np.hypot(arr.real, arr.imag)


def _cleaned(arr):
    """``arr`` with each column cleaned up as ``add`` cleans a number; a
    magnitude that overflows raises as ``abs`` does."""
    mags = _magnitudes(arr)
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

    def __init__(self, a: Vector):
        """The matrix laid out as a :class:`Vector`, entry ``(i, j)`` in column ``i*n + j``."""
        n = self._n = math.isqrt(len(a))
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


def _slot_sums(rows):
    """``sum_j rows[j, l]`` on the slots ``j + l``, added in ascending ``j``
    (one reduction over the outer axis, which adds its slots in order):
    row ``j`` is shifted by ``j`` into a zero band of width ``len(rows)``."""
    m, M, tail = len(rows), rows.shape[1], rows.shape[2:]
    skewed = np.zeros((m, M + m) + tail, rows.dtype)
    skewed[:, :M] = rows
    flat = skewed.reshape((m * (M + m),) + tail)[:m * (M + m - 1)]
    return np.add.reduce(flat.reshape((m, max(M + m - 1, 0)) + tail), axis=0)


#: Coefficients of products that :func:`_convolve` reduces at once (64 KiB
#: of floats): a larger scratch is mapped fresh by the allocator on each
#: call, and its page faults cost more than a pass per slot.
_SCRATCH = 8192


def _convolve(a, b):
    """The products of the series in the columns of ``a`` and ``b`` (one of
    them may have one column for all), summed over the shorter factor's
    slots in ascending order: the first slots in one reduction, as many as
    ``_SCRATCH`` holds, and the rest a pass each.  ``0.0 +`` gives a zero
    sum its sign, that of sums that start from an exact zero."""
    if len(a) > len(b):
        a, b = b, a
    k = max(1, _SCRATCH // (len(b) * max(a.shape[1], b.shape[1]) or 1))
    out = _slot_sums(a[:k, None] * b)
    if len(a) > k:
        out = np.concatenate([out, np.zeros((len(a) - k,) + out.shape[1:], out.dtype)])
        for j in range(k, len(a)):
            out[j:j + len(b)] += a[j] * b
    return 0.0 + out


def _sum_of_products(a, b, live):
    """``sum_c a_c b_c`` over the live columns: row ``j`` of ``a @ b.T``
    holds slot ``j``'s products, which land on slots ``j + l``."""
    if len(a) > len(b):  # pad the shorter factor's side
        a, b = b, a
    return _slot_sums(a[:, live] @ b[:, live].T)


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
    """:func:`lcpower._lattice.scaled`: each entry of ``x`` times the number
    ``s``, laid out from its terms.  A one-term ``s`` scales the array, which
    gives the bits of the one-row convolution."""
    terms, s_bound = s
    coeffs = [_lattice.laid_coefficient(c) for _, c in terms]
    val = next((k for (k, _), c in zip(terms, coeffs) if c), None)
    x_nonempty, x_val, x_bounds = _valuations(x)
    bound = INF if val is None else np.minimum(x_bounds + val, s_bound + x_val).min(
        where=x_nonempty, initial=INF)
    with np.errstate(over="ignore", invalid="ignore"):
        if len(terms) == 1 and val is not None:
            g, base, c = (x.g if len(x.arr) > 1 else 1), x.base + val, coeffs[0]
            a = x.arr[:_upto(base, g, bound)]
            out = 0.0 + (c * a if len(a) > 1 else a * c)  # the convolution's operand order
        else:
            column = _column(terms, coeffs)
            g, base = _stride([x, column]), x.base + column.base
            width = _upto(base, g, bound)
            out = _convolve(_strided(x, g)[:width], _strided(column, g)[:width])
    return retruncated(Vector(out, base, g, x.bounds), bound)


def _column(terms, coeffs) -> Vector:
    """The one number of ``terms`` (with the laid ``coeffs``) as :func:`_grid`
    lays it out, its bound left out: in Python, which for a few terms
    costs a third of the arrays ``_grid`` takes."""
    if not terms:
        return Vector(np.zeros((0, 1)), 0, 1, None)
    base = terms[0][0]
    g = math.gcd(*(k - base for k, _ in terms)) or 1
    column = [0.0] * ((terms[-1][0] - base) // g + 1)
    for (k, _), c in zip(terms, coeffs):
        column[(k - base) // g] = c
    return Vector(np.array(column)[:, None], base, g, None)


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
    mags = _magnitudes(diff)
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

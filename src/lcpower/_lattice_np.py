"""The batched operations of the power-iteration loop on numpy arrays.

:class:`MatrixAction` holds one matrix of :mod:`lcpower._lattice` and
returns exactly what :func:`lcpower._lattice.matvec` returns for it, and
:data:`NUMPY` holds :func:`truncated`, :func:`retruncated`,
:func:`sum_abs_squares`, :func:`rayleigh_numerator`, :func:`scaled`,
:func:`constants`, :func:`leading` and :func:`diff_semi_norms`, which
return exactly what their twins in :mod:`lcpower._lattice` return:
the same keys, the same float bits (signed zeros included), the same
bounds and the same exceptions.  They keep every float operation of the
Python kernel and change only the layout:

* a vector is a :class:`Vector`: split real and imaginary float64 arrays
  over its keys, compressed by a key stride ``g``.  The operations that
  return a vector (the matrix action, the truncations and the scaling)
  return a :class:`Vector` built from the arrays they computed, and take
  one without converting it.  A vector is laid out from its tuples only
  when it arrives as tuples, and its tuples are built only when Python
  code reads them.  In one step of the loop the matrix action's result
  ``ax`` is truncated to ``y`` by cutting its arrays, ``y`` feeds the l2
  norm (or the max norm's pivot) and the scaling, whose result is the
  next iterate ``xs``, and ``xs`` feeds the matrix action, the Rayleigh
  quotient and the phase alignment, whose result feeds the stopping
  check; the trace keeps ``xs`` as it is.  No vector is laid out and none
  is converted to tuples: a solve converts one, its result.  The max
  norm converts the entries it compares by their magnitude series, one
  at a time (:meth:`Vector.__getitem__`).  The matrix's layout is
  fixed per solve, and keys above the largest product bound are not
  computed.  A stride finer than the keys need only adds zero slots, whose
  products add ``+0.0`` to a sum that is never ``-0.0``, so vectors of
  different strides meet on the gcd of their strides;
* the matrix action, :func:`sum_abs_squares`, :func:`rayleigh_numerator`
  and :func:`scaled` lay out their two factors in columns, one column per
  product (``a_ij x_j``, a part of ``|v_i|^2``, ``conj(u_i) au_i`` or an
  entry of ``v s``), take each product's bound from :func:`_mul_bounds`,
  and hand the batch to one function, :func:`_batch`.  It forms ``mul``'s
  products (:func:`_products`) over the key slots of one factor (the
  occupied ones of the matrix), in the order in which ``mul``'s dict
  receives the contributions to a key, as ``re = ar*br - ai*bi`` and
  ``im = ar*bi + ai*br`` in separate ufunc calls (no complex128
  arithmetic, whose ``*`` differs from CPython's, and no reduction that
  reorders or fuses a sum).  The
  accumulators start at ``+0.0``, which is ``mul``'s ``0j + p``; they never
  become ``-0.0``, so a zero-padded slot adds nothing.  It then applies
  ``mul``'s cleanup to the keys up to each product's bound, and either
  clamps the products (the scaling) or sums them in rows (:func:`_chain`);
* the sums are ``add``'s chain in Python's order, in each row: the merge,
  the running minimum of the bounds, the cleanup relative to the largest
  magnitude of all merged keys, and the bound filter.  Add ``t`` of a
  matrix action's row is the row's ``t``-th stored entry; each of the two
  vector sums is one row.  No term of a product or a sum carries a
  ``-0.0`` part, so an absent term is held as ``+0.0`` and adding it leaves
  the other term unchanged.  One ``np.add.accumulate`` over the adds makes
  the chains' float additions one by one in their order: an accumulate,
  unlike a reduction, never regroups.  Until an ``add`` of some row clears
  a nonzero term, by the cleanup or the bound filter, every chain only
  adds, so the running sums are their sums exactly, and so are the maxes
  and bounds taken from them; from the first such ``add`` on, the adds run
  one at a time, vectorized over the rows.  On the loop's inputs most
  chains clear nothing; the rest clear at almost every ``add`` after the
  first, when the sum's higher keys have cancelled to roundoff, and when a
  matrix row clears, often all of them do.

An empty factor makes a product an exact zero, which ``_add_product``
skips together with its bound.  :func:`_batch` gives it an infinite bound
instead: the clamp ignores that bound, and adding the zero product only
repeats the chain's cleanup, which is idempotent.  So a matrix action's
shorter rows are padded to the longest with such products.  The parts of
``|v_i|^2`` are real series, whose products keep an imaginary part of
exactly ``+0.0``, so :func:`sum_abs_squares` runs on real arrays and
``np.abs``.  :func:`_batch` does the same, with the parts ``(re,)``, whenever
both factors' imaginary arrays are all zero (``+0.0`` or ``-0.0``, as
``conjugate`` makes them): the dropped ``ai*bi`` and imaginary parts are
``±0.0``, which leave a nonzero sum unchanged and a ``+0.0`` accumulator at
``+0.0``, and ``hypot(re, ±0.0)`` is ``abs(re)``; the result's imaginary
part is padded with ``+0.0``.  Inputs that do not fit a layout (no terms,
a matrix action's ``x`` off the matrix's stride) and arithmetic that meets
a non-finite value are handed to the Python kernel, which then gives the
result or raises.

:func:`kernel` chooses between the two kernels, once per solve, by the
number of stored entries of the matrix: numpy's fixed cost per call
outweighs the Python loops on small matrices.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cached_property, partial
from itertools import chain

import numpy as np

from . import _lattice
from ._lattice import EPS_FLOOR, EPS_REL, INF, ZERO
from .errors import DegenerateInputError

#: Matrices with at least this many stored (nonempty) entries take the numpy
#: kernel; smaller ones keep :mod:`lcpower._lattice`'s.
MIN_PAIRS = 24


def kernel(M):
    """``(x -> _lattice.matvec(M, x), vector ops)`` for the loop of one
    solve, on the kernel the size of ``M`` selects."""
    if sum(1 for row in M for a in row if a[0]) >= MIN_PAIRS:
        return MatrixAction(M), NUMPY
    return partial(_lattice.matvec, M), _lattice.PYTHON


class Vector:
    """A vector of :mod:`lcpower._lattice` numbers as the split arrays
    ``parts[slot, part, entry]`` (part 0 real, 1 imaginary) over the keys
    ``base + g*slot``, from its smallest key to its largest, and the
    entries' bounds.  An absent term is ``+0.0`` in both parts.  It reads
    as the sequence of ``(terms, bound)`` numbers, built on first access."""

    def __init__(self, parts, base: int, g: int, bounds):
        present = (parts != 0.0).any(axis=1)
        slots = np.flatnonzero(present.any(axis=1))
        lo, hi = (int(slots[0]), int(slots[-1]) + 1) if len(slots) else (0, 0)
        self.parts, self.present = parts[lo:hi], present[lo:hi]
        self.base, self.g, self.bounds = base + g * lo, g, bounds

    def __len__(self):
        return len(self.bounds)

    def __iter__(self):
        return iter(self.numbers)

    def __getitem__(self, i):
        """The number ``i``, converted alone unless the whole vector is."""
        if "numbers" in vars(self) or not isinstance(i, int):
            return self.numbers[i]
        i = range(len(self))[i]
        slots = np.flatnonzero(self.present[:, i])
        re, im = self.parts[slots, :, i].T.tolist()
        terms = tuple(zip((self.base + self.g * slots).tolist(), map(complex, re, im)))
        return terms, _bound(float(self.bounds[i]))

    @cached_property
    def numbers(self):
        parts = self.parts
        keys = self.base + self.g * np.arange(len(parts))
        terms = _rows(keys, parts[:, 0].T, parts[:, 1].T, self.present.T)
        return tuple(zip(terms, map(_bound, self.bounds.tolist())))

    @cached_property
    def valuations(self):
        """``(nonempty, key)``: which entries have terms, and the key of each
        one's first term as a float."""
        if not len(self.present):
            return np.zeros(len(self), bool), np.zeros(len(self))
        first = self.present.argmax(axis=0)
        return self.present.any(axis=0), (self.base + self.g * first).astype(float)


def _layout(v) -> Vector:
    """The vector ``v`` of ``(terms, bound)`` numbers as a :class:`Vector`
    on the gcd of its key offsets."""
    counts = [len(terms) for terms, _ in v]
    bounds = np.array([float(b) for _, b in v])
    if not any(counts):
        return Vector(np.zeros((0, 2, len(v))), 0, 1, bounds)
    keys, coeffs = zip(*chain.from_iterable(terms for terms, _ in v))
    keys = np.fromiter(keys, np.int64, len(keys))
    base = int(keys.min())
    offsets = keys - base
    g = int(np.gcd.reduce(offsets)) or 1
    slots = offsets // g
    # complex128 only carries the coefficients into the split arrays
    coeffs = np.fromiter(coeffs, complex, len(coeffs))
    parts = np.zeros((int(slots.max()) + 1, 2, len(v)))
    cols = np.repeat(np.arange(len(v)), counts)
    parts[slots, 0, cols] = coeffs.real
    parts[slots, 1, cols] = coeffs.imag
    return Vector(parts, base, g, bounds)


def _laid(v) -> Vector:
    return v if isinstance(v, Vector) else _layout(v)


def _stride(*vectors) -> int:
    """The stride on which the ``vectors`` meet: the gcd of their strides
    (a vector of one slot has no stride)."""
    return math.gcd(*(x.g for x in vectors if len(x.parts) > 1)) or 1


def _strided(x: Vector, g: int):
    """``x.parts`` on the key stride ``g``, a divisor of ``x.g``."""
    r = x.g // g
    if r == 1 or len(x.parts) < 2:
        return x.parts
    out = np.zeros(((len(x.parts) - 1) * r + 1,) + x.parts.shape[1:])
    out[::r] = x.parts
    return out


def _cut(parts, base: int, g: int, bound, n: int) -> Vector:
    """The vector of the arrays ``parts`` from key ``base`` without the keys
    above ``bound``, every entry bounded there (a clamped vector)."""
    if bound != INF:
        parts = parts[:max(0, (int(bound) - base) // g + 1)]
    return Vector(parts, base, g, np.full(n, float(bound)))


class MatrixAction:
    """``_lattice.matvec(M, x)`` on numpy, with the layout of ``M`` fixed:
    column ``t * n + i`` holds row ``i``'s ``t``-th stored entry, or an
    empty pad where the row has fewer."""

    def __init__(self, M):
        self._M = M
        self._n = len(M)
        stored = [[(j, a) for j, a in enumerate(row) if a[0]] for row in M]
        grid = [row[t] if t < len(row) else (0, ZERO)
                for t in range(max(map(len, stored), default=0)) for row in stored]
        self._cols = np.array([j for j, _ in grid], dtype=np.intp)
        a = _layout([e for _, e in grid])
        self._base, self._g = a.base, a.g
        # the occupied key slots, the only ones the products iterate
        self._slots = np.flatnonzero(a.present.any(axis=1)).tolist()
        self._parts = a.parts[self._slots]
        (self._nonempty, self._val), self._bounds = a.valuations, a.bounds

    def __call__(self, x):
        n, g, cols = self._n, self._g, self._cols
        if len(x) != n:
            raise DegenerateInputError(f"dimension mismatch: {n}x{n} vs {len(x)}")
        x = _laid(x)
        nonempty, x_val = x.valuations
        if not len(cols) or not nonempty.any() or (len(x.parts) > 1 and x.g % g):
            return _lattice.matvec(self._M, x)
        live = self._nonempty & nonempty[cols]
        bounds = _mul_bounds(self._bounds, self._val, x.bounds[cols], x_val[cols], live)
        return _batch(self._parts, _strided(x, g)[:, :, cols], bounds, self._base + x.base, g,
                      lambda: _lattice.matvec(self._M, x), rows=n, live=live,
                      slots=self._slots)


# -- the sums of products ------------------------------------------------------------
#
# Product arrays are ``(slot, part, column)`` and the chains' arrays
# ``(slot, part, add, row)``, the parts being (re, im) or, for real
# series, (re,) alone.


def _abs(p):
    """The magnitudes of the terms of ``p``, whose axis 1 holds the parts
    ``(re,)`` or ``(re, im)`` (``abs`` of a complex is ``hypot``)."""
    return np.abs(p[:, 0]) if p.shape[1] == 1 else np.hypot(p[:, 0], p[:, 1])


def _mul_bounds(a_bound, a_val, b_bound, b_val, live=True):
    """``mul``'s bound ``min(T_a + val(b), T_b + val(a))`` of each product;
    where a factor is empty (not ``live``) the product is an exact zero,
    of bound ``INF``."""
    return np.where(live, np.minimum(a_bound + b_val, b_bound + a_val), INF)


def _width(width: int, bounds, live, first: int, g: int) -> int:
    """``width`` product slots from key ``first``, cut above the largest
    bound of a product that is not an exact zero."""
    top = bounds.max(where=live, initial=first)
    return width if top == INF else min(width, (int(top) - first) // g + 1)


def _products(a, b, width: int, slots=None):
    """``mul``'s sums per key slot of the products ``a[:, :, c] * b[:, :, c]``
    (``b`` may have one column for all; both have the same parts), before
    its cleanup, with the parts ``(re,)`` when both factors are real.  The
    contributions to a key come in ascending order of ``a``'s slots, as
    ``mul``'s dict receives them: one pass per slot ``slots`` of ``a``
    (whose rows are those slots), or, by default, per slot of ``a``
    ascending or of ``b`` descending, whichever has fewer."""
    b = b[:width]
    if slots is None:
        a = a[:width]
        slots = range(len(a))
        if len(a) > len(b):
            a, b, slots = b[::-1], a, range(len(b) - 1, -1, -1)
    else:
        k = bisect_left(slots, width)
        a, slots = a[:k], slots[:k]
    ar, br = a[:, None, 0], b[None, :, 0]
    if a.shape[1] == 2 and (a[:, 1].any() or b[:, 1].any()):
        ai, bi = a[:, None, 1], b[None, :, 1]
        pairs = np.stack((ar * br - ai * bi, ar * bi + ai * br), axis=2)
    else:
        pairs = (ar * br)[:, :, None]
    p = np.zeros((width,) + pairs.shape[2:])
    for s, pair in zip(slots, pairs):
        p[s:s + len(pair)] += pair[:width - s]
    return p


def _chain(p, bounds, keys):
    """``add``'s chain over the finite products ``p[:, :, t, i]`` in the
    order of ``t``, from ``ZERO``, in every row ``i``, the products being
    bounded at ``bounds[t, i]``: ``(sums, bounds, maxes)`` by row, the sums
    as ``(slot, part, row)`` and ``maxes[t][i]`` the max of add ``t``.

    The running sums of ``np.add.accumulate`` are the chains' sums before
    each ``add``'s cleanup up to the first ``add`` that clears a nonzero
    term in any row, by the cleanup or the bound filter; from that ``add``
    on the adds run one at a time, vectorized over the rows."""
    sums = np.add.accumulate(p, axis=2)
    mags = _abs(sums)  # (slot, add, row)
    maxes = mags.max(axis=0)
    running = np.minimum.accumulate(bounds)
    clip = running[-1].min() < keys[-1]  # some bound drops a key
    drop = mags <= np.maximum(EPS_REL * maxes, EPS_FLOOR)
    if clip:
        drop |= keys[:, None, None] > running
    clears = np.flatnonzero((drop & (mags != 0.0)).any(axis=(0, 2)))
    adds, one = p.shape[2], p.shape[3] == 1
    c = int(clears[0]) if len(clears) else adds - 1
    acc = np.where(drop[:, None, c], 0.0, sums[:, :, c])
    acc += 0.0  # the chain starts at +0.0: a sum of -0.0 terms is +0.0
    maxes = maxes[:c + 1].tolist()
    for t in range(c + 1, adds):
        acc += p[:, :, t]
        mags = _abs(acc)
        if one:  # Python floats are cheaper on one row
            m = max(mags.ravel().tolist())
            maxes.append([m])
            drop = mags <= max(EPS_REL * m, EPS_FLOOR)
        else:
            m = mags.max(axis=0)
            maxes.append(m.tolist())
            drop = mags <= np.maximum(EPS_REL * m, EPS_FLOOR)
        if clip:
            drop |= keys[:, None] > running[t]
        np.copyto(acc, 0.0, where=drop[:, None])
    return acc, running[-1], maxes


def _batch(a, b, bounds, first: int, g: int, twin, rows: int = 0, number=False, live=True,
           slots=None):
    """``mul``'s products of the columns of ``a`` and ``b`` on the keys
    ``first + g*slot`` (see :func:`_products`), bounded at ``bounds`` and
    zero where not ``live``, then cleaned up.  With ``rows``, column
    ``t * rows + i`` is add ``t`` of row ``i``'s chain of ``add``.  Returns
    the clamped :class:`Vector` of the products, or of the rows' sums, or
    with ``number`` the one row's sum as a number; or ``twin()`` once a
    value is non-finite."""
    n_a = slots[-1] + 1 if slots is not None else len(a)
    width = _width(n_a + len(b) - 1, bounds, live, first, g)
    keys = first + g * np.arange(width)
    with np.errstate(over="ignore", invalid="ignore"):
        p = _products(a, b, width, slots)
        mags = np.where(keys[:, None] <= bounds, _abs(p), 0.0)
        maxes = mags.max(axis=0)
        # a NaN or an overflow: mul or add raises, or abs does
        if not _finite(maxes):
            return twin()
        p = np.where((mags > np.maximum(EPS_REL * maxes, EPS_FLOOR))[:, None], p, 0.0)
        if rows:
            p, bounds, maxes = _chain(p.reshape(width, p.shape[1], -1, rows),
                                      bounds.reshape(-1, rows), keys)
            if not _finite(maxes):
                return twin()
    if number:
        nz = np.flatnonzero(_abs(p))
        return tuple(zip(keys[nz].tolist(), map(complex, *p[nz, :, 0].T.tolist()))), \
            _bound(float(bounds[0]))
    if p.shape[1] == 1:
        p = np.concatenate((p, np.zeros_like(p)), axis=1)
    # clamp
    return _cut(p, first, g, bounds.min(), p.shape[2])


def _finite(maxes) -> bool:
    return bool(np.isfinite(maxes).all())


def _bound(b):
    return INF if b == INF else int(b)


def _rows(keys, re, im, present):
    """The terms of each row of the split ``(row, slot)`` arrays ``re`` and
    ``im`` where ``present``."""
    i, j = np.nonzero(present)
    terms = list(zip(keys[j].tolist(), map(complex, re[i, j].tolist(), im[i, j].tolist())))
    out, start = [], 0
    for end in np.cumsum(present.sum(axis=1)).tolist():
        out.append(tuple(terms[start:end]))
        start = end
    return out


def truncated(y, bound):
    """:func:`lcpower._lattice.truncated_vector` on the arrays."""
    x = _laid(y)
    return _cut(x.parts, x.base, x.g, min(bound, x.bounds.min()), len(x))


def retruncated(v, bound):
    """:func:`lcpower._lattice.retruncated_vector` on the arrays."""
    x = _laid(v)
    return _cut(x.parts, x.base, x.g, bound, len(x))


def sum_abs_squares(v):
    """:func:`lcpower._lattice._sum_abs_squares` on numpy.  The parts are
    ``re_0, im_0, re_1, im_1, ...`` as ``real_part`` and ``imag_part`` give
    them, one column each; the product of a part with itself is valid to
    ``T_i + val(part)``."""
    x = _laid(v)
    parts = x.parts.transpose(0, 2, 1).reshape(len(x.parts), 2 * len(x))
    present = parts != 0.0  # real_part and imag_part drop zero parts
    nonempty = present.any(axis=0)
    if not nonempty.any():
        return _lattice._sum_abs_squares(v)
    parts = parts[:, None, nonempty]  # real: one part
    vals = x.base + x.g * present[:, nonempty].argmax(axis=0)
    bounds = np.repeat(x.bounds, 2)[nonempty]
    return _batch(parts, parts, _mul_bounds(bounds, vals, bounds, vals), 2 * x.base, x.g,
                  lambda: _lattice._sum_abs_squares(v), rows=1, number=True)


def rayleigh_numerator(u, au):
    """:func:`lcpower._lattice.rayleigh_numerator` on numpy: one column per
    pair of nonempty ``u_i`` and ``au_i``, whose imaginary parts are negated
    as ``conjugate`` negates them."""
    x, y = _laid(u), _laid(au)
    (x_nonempty, x_val), (y_nonempty, y_val) = x.valuations, y.valuations
    pairs = x_nonempty & y_nonempty
    if not pairs.any():
        return _lattice.rayleigh_numerator(u, au)
    g = _stride(x, y)
    a, b = _strided(x, g)[:, :, pairs], _strided(y, g)[:, :, pairs]
    a[:, 1] = -a[:, 1]
    bounds = _mul_bounds(x.bounds[pairs], x_val[pairs], y.bounds[pairs], y_val[pairs])
    return _batch(a, b, bounds, x.base + y.base, g,
                  lambda: _lattice.rayleigh_numerator(u, au), rows=1, number=True)


def scaled(v, s):
    """:func:`lcpower._lattice.scaled` on numpy: one column per entry of
    ``v``, each times ``s``, then ``clamp``."""
    x = _laid(v)
    nonempty, x_val = x.valuations
    if not s[0] or not nonempty.any():
        return _lattice.scaled(v, s)
    y = _layout((s,))
    g = _stride(x, y)
    bounds = _mul_bounds(x.bounds, x_val, float(s[1]), float(s[0][0][0]), nonempty)
    return _batch(_strided(x, g), _strided(y, g), bounds, x.base + y.base, g,
                  lambda: _lattice.scaled(v, s), live=nonempty)


def constants(v):
    """:func:`lcpower._lattice.constants` on the arrays: the parts at key 0,
    an absent term being ``+0.0`` in both."""
    x = _laid(v)
    slot, off = divmod(-x.base, x.g)
    if off or not 0 <= slot < len(x.parts):
        return [0j] * len(x)
    return list(map(complex, *x.parts[slot].tolist()))


def leading(v):
    """:func:`lcpower._lattice.leading` on the arrays: the key and the
    ``hypot`` of each entry's first term.  A magnitude that overflows goes
    to the Python twin, whose ``abs`` raises."""
    x = _laid(v)
    if not len(x.parts):
        return [(1, 0, 0.0)] * len(x)
    first = x.present.argmax(axis=0)
    re, im = x.parts[first, :, np.arange(len(x))].T
    with np.errstate(over="ignore"):
        mags = np.hypot(re, im)
    if not _finite(mags):
        return _lattice.leading(v)
    return [(0, k, m) if nonempty else (1, 0, 0.0) for nonempty, k, m in zip(
        x.present.any(axis=0).tolist(), (x.base + x.g * first).tolist(), mags.tolist())]


def _common(x: Vector, y: Vector):
    """``x.parts`` and ``y.parts`` on the keys ``base + g*slot`` of both:
    ``(x_parts, y_parts, base, g)``."""
    laid = [v for v in (x, y) if len(v.parts)]
    if not laid:
        return x.parts, y.parts, 0, 1
    base = min(v.base for v in laid)
    g = math.gcd(*(v.g for v in laid if len(v.parts) > 1), *(v.base - base for v in laid)) or 1
    width = (max(v.base + v.g * (len(v.parts) - 1) for v in laid) - base) // g + 1

    def on_grid(v):
        parts = np.zeros((width, 2, len(v)))
        parts[(v.base - base) // g + v.g // g * np.arange(len(v.parts))] = v.parts
        return parts

    return on_grid(x), on_grid(y), base, g


def diff_semi_norms(a, b, r: int, D: int):
    """:func:`lcpower._lattice.diff_semi_norms` on the arrays.  ``sub``'s
    cleanup, its max and the semi-norm read only magnitudes, which
    ``hypot`` gives whatever the signs, so ``a_i - b_i`` stands for
    ``add(a_i, neg(b_i))``, an absent term being ``+0.0``.  From the first
    entry whose difference has a non-finite magnitude or a bound below
    ``r`` on, the Python twin takes over and raises."""
    x, y = _laid(a), _laid(b)
    x_parts, y_parts, base, g = _common(x, y)
    keys = base + g * np.arange(len(x_parts))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = x_parts - y_parts
        mags = np.hypot(diff[:, 0], diff[:, 1])
        maxes = mags.max(axis=0, initial=0.0)
        keep = (mags > np.maximum(EPS_REL * maxes, EPS_FLOOR)) & (keys <= r)[:, None]
    norms = np.where(keep, mags, 0.0).max(axis=0, initial=0.0).tolist()
    bad = np.flatnonzero(~np.isfinite(maxes) | (r > np.minimum(x.bounds, y.bounds)))
    if not len(bad):
        return norms
    p = int(bad[0])
    rest = range(p, len(x))
    return chain(norms[:p], _lattice.diff_semi_norms(map(x.__getitem__, rest),
                                                     map(y.__getitem__, rest), r, D))


NUMPY = _lattice.VectorOps(truncated, retruncated, sum_abs_squares, rayleigh_numerator, scaled,
                           constants, leading, diff_semi_norms)

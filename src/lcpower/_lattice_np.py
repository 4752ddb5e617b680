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
* a batch of products (one per stored entry ``a_ij x_j``, per part of
  ``|v_i|^2``, per ``conj(u_i) au_i`` or per entry of ``v s``) is
  accumulated over the first factors' key slots in ascending order, the
  order in which ``mul``'s dict receives the contributions to a key, as
  ``re = ar*br - ai*bi`` and ``im = ar*bi + ai*br`` in separate ufunc calls
  (no complex128 arithmetic, whose ``*`` differs from CPython's, and no
  reduction that reorders or fuses a sum).  The accumulators start at
  ``+0.0``, which is ``mul``'s ``0j + p``; they never become ``-0.0``, so a
  zero-padded slot adds nothing.  Keys above each product's bound are
  masked before ``mul``'s cleanup;
* the sums are ``add``'s chain in Python's order: the merge, the running
  minimum of the bounds, the cleanup relative to the largest magnitude of
  all merged keys, and the bound filter.  No term of a product or a sum
  carries a ``-0.0`` part, so an absent term is held as ``+0.0`` and
  adding it leaves the other term unchanged.  One ``np.add.accumulate``
  from ``+0.0`` (``ZERO``) over the products makes the chain's float
  additions one by one in its order: an accumulate, unlike a reduction,
  never regroups.  Until an ``add`` clears a nonzero term, by the cleanup
  or the bound filter, the chain only adds, so the running sums are its
  sums exactly, and so are the maxes and bounds taken from them; from the
  first such ``add`` on the adds run one at a time (:func:`_chain`).  On
  the loop's inputs most chains clear nothing; the rest clear at almost
  every ``add`` after the first, when the sum's higher keys have cancelled
  to roundoff.  The matrix action's row sums run one pass per t-th stored
  entry of every row, vectorized over the rows.

An empty factor makes a product an exact zero, which ``_add_product``
skips together with its bound; the sums of products skip it too, the
scaling gives it an infinite bound, which the clamp ignores, and the
matrix action gives it an infinite bound, so that adding it repeats the
cleanup idempotently.  The parts of ``|v_i|^2`` are real series, whose
products keep an imaginary part of exactly ``+0.0``, so
:func:`sum_abs_squares` runs on real arrays and ``np.abs``.  The matrix
action and the products of :func:`rayleigh_numerator` and :func:`scaled`
do the same, with the parts ``(re,)``, when both factors' imaginary arrays
are all zero (``+0.0`` or ``-0.0``, as ``conjugate`` makes them): the
dropped ``ai*bi`` and imaginary parts are ``±0.0``, which leave a nonzero
sum unchanged and a ``+0.0`` accumulator at ``+0.0``, and ``hypot(re,
±0.0)`` is ``abs(re)``; :func:`scaled` pads its imaginary part with
``+0.0``.  Inputs that
do not fit a layout (no terms, a matrix action's ``x`` off the matrix's
stride) and arithmetic that meets a non-finite value are handed to the
Python kernel, which then gives the result or raises.

:func:`kernel` chooses between the two kernels, once per solve, by the
number of stored entries of the matrix: numpy's fixed cost per call
outweighs the Python loops on small matrices.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from itertools import chain

import numpy as np

from . import _lattice
from ._lattice import EPS_FLOOR, EPS_REL, INF
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
    """``_lattice.matvec(M, x)`` on numpy, with the layout of ``M`` fixed."""

    def __init__(self, M):
        self._M = M
        self._n = n = len(M)
        stored = [[(j, a) for j, a in enumerate(row) if a[0]] for row in M]
        # the stored entries in (t, row) order for the t-th entry of a row:
        # each row-sum pass then reads one contiguous block of products
        self._passes, cols, entries = [], [], []
        for t in range(max(map(len, stored), default=0)):
            rows = [i for i, row in enumerate(stored) if len(row) > t]
            block = slice(len(entries), len(entries) + len(rows))
            for i in rows:
                j, a = stored[i][t]
                cols.append(j)
                entries.append(a)
            self._passes.append((slice(None) if len(rows) == n else np.array(rows), block))
        self._cols = np.array(cols, dtype=np.intp)
        a = _layout(entries)
        self._base, self._g, self._width = a.base, a.g, len(a.parts)
        # key slots by entries: every ufunc below runs along the entries
        self._slots = [(s, *a.parts[s]) for s in np.flatnonzero(a.present.any(axis=1)).tolist()]
        self._a_val, self._a_bound = a.valuations[1], a.bounds
        self._real = not a.parts[:, 1].any()

    def __call__(self, x):
        n, g = self._n, self._g
        if len(x) != n:
            raise DegenerateInputError(f"dimension mismatch: {n}x{n} vs {len(x)}")
        if not self._passes:
            return _lattice.matvec(self._M, x)
        x = _laid(x)
        nonempty, x_val = x.valuations
        if not nonempty.any() or (len(x.parts) > 1 and x.g % g):
            return _lattice.matvec(self._M, x)
        x_parts = _strided(x, g)
        x_width = len(x_parts)

        cols = self._cols
        # mul's bound min(T_a + val(x_j), T_x + val(a)); an empty x_j makes
        # the product an exact zero
        bounds = np.minimum(self._a_bound + x_val[cols], x.bounds[cols] + self._a_val)
        bounds[~nonempty[cols]] = INF
        first = self._base + x.base
        # no product keeps a term above the largest bound
        width = _width(self._width + x_width - 1, bounds, first, g)
        keys = first + g * np.arange(width)
        # a row sum drops keys above its bound only if some bound is that low
        clip = bounds.min() < keys[-1]
        # on real factors only the real parts are formed (see the module
        # docstring: the imaginary ones are +0.0 in the end)
        real = self._real and not x_parts[:, 1].any()
        with np.errstate(over="ignore", invalid="ignore"):
            # part-major (part, slot, column): the slices below are contiguous
            xr = x_parts[:, 0][:, cols]
            xi = None if real else x_parts[:, 1][:, cols]
            p = np.zeros((1 if real else 2, width, len(cols)))
            for s, ar, ai in self._slots:
                if s >= width:
                    break
                w = min(x_width, width - s)
                p[0, s:s + w] += ar * xr[:w] if real else ar * xr[:w] - ai * xi[:w]
                if not real:
                    p[1, s:s + w] += ar * xi[:w] + ai * xr[:w]
            mags = np.where(keys[:, None] <= bounds, _abs(p), 0.0)
            maxes = [mags.max(axis=0)]
            p = np.where(mags > np.maximum(EPS_REL * maxes[0], EPS_FLOOR), p, 0.0)

            acc = np.zeros((2, width, n))
            acc_bound = np.full(n, INF)
            for rows, block in self._passes:
                total = acc[:len(p), :, rows] + p[:, :, block]
                bound = np.minimum(acc_bound[rows], bounds[block])
                mags = _abs(total)
                maxes.append(mags.max(axis=0))
                keep = mags > np.maximum(EPS_REL * maxes[-1], EPS_FLOOR)
                if clip:
                    keep &= keys[:, None] <= bound
                acc[:len(p), :, rows] = np.where(keep, total, 0.0)
                acc_bound[rows] = bound
            # a NaN or an overflow: mul or add raises, or abs does
            if not np.isfinite(np.concatenate(maxes)).all():
                return _lattice.matvec(self._M, x)
        # clamp
        return _cut(acc.transpose(1, 0, 2), first, g, acc_bound.min(), n)


# -- the vector operations ------------------------------------------------------------
#
# Product and sum arrays are key-major: ``(slot, part, column)``, the parts
# being (re, im) or, for real series, (re,) alone.


def _width(width: int, bounds, first: int, g: int) -> int:
    """``width`` product slots from key ``first``, cut above the largest bound."""
    top = bounds.max()
    return width if top == INF else max(1, min(width, (int(top) - first) // g + 1))


def _abs(parts):
    """The magnitudes of the terms with the parts ``(re,)`` or ``(re, im)``
    (``abs`` of a complex is ``hypot``)."""
    return np.abs(parts[0]) if len(parts) == 1 else np.hypot(parts[0], parts[1])


def _accumulated(pairs, width: int):
    """``mul``'s sums per key of the products ``pairs[i, j]`` of the slot
    pairs (key slot ``i + j``), over the first factor's slots ``i`` in
    ascending order, into ``+0.0`` accumulators.  A pass per slot ``j`` of
    the second factor in descending order adds the same products to each
    key in the same order, and takes fewer passes when that factor has
    fewer slots."""
    p = np.zeros((width,) + pairs.shape[2:])
    if pairs.shape[0] <= pairs.shape[1]:
        for i in range(pairs.shape[0]):
            p[i:i + pairs.shape[1]] += pairs[i, :width - i]
    else:
        for j in reversed(range(pairs.shape[1])):
            p[j:j + pairs.shape[0]] += pairs[:width - j, j]
    return p


def _products(a, b, width: int):
    """``mul``'s products ``a[..., c] * b[..., c]`` of split series (``b``
    may have one column for all) before its cleanup, with the parts
    ``(re,)`` when both factors are real."""
    ar, ai = a[:width, 0, None], a[:width, 1, None]
    br, bi = b[None, :width, 0], b[None, :width, 1]
    if not (ai.any() or bi.any()):
        return _accumulated((ar * br)[:, :, None], width)
    return _accumulated(np.stack((ar * br - ai * bi, ar * bi + ai * br), axis=2), width)


def _cleaned(p, keys, bounds):
    """``mul``'s cleanup of the product in each column of ``p``: keys above
    the column's bound masked, then terms at or below ``max(EPS_REL max,
    EPS_FLOOR)`` cleared.  Returns ``(p, maxes)``."""
    mags = np.where(keys[:, None] <= bounds, _abs(p.transpose(1, 0, 2)), 0.0)
    maxes = mags.max(axis=0)
    keep = mags > np.maximum(EPS_REL * maxes, EPS_FLOOR)
    return np.where(keep[:, None], p, 0.0), maxes


def _chain(p, bounds, keys):
    """``add``'s chain over the finite products in the columns of ``p``, in
    order, from ``ZERO``: ``(sum as (part, slot), bound, maxes)``.

    The running sums of ``np.add.accumulate`` from ``+0.0`` are the chain's
    sums before each ``add``'s cleanup up to its first ``add`` that clears
    a nonzero term, by the cleanup or the bound filter; from that ``add``
    on the adds run one at a time."""
    terms = p.transpose(2, 1, 0)  # (add, part, slot)
    sums = np.add.accumulate(np.concatenate((np.zeros((1,) + terms.shape[1:]), terms)))[1:]
    mags = _abs(sums.transpose(1, 0, 2))
    maxes = mags.max(axis=1)
    running = np.minimum.accumulate(bounds)
    drop = mags <= np.maximum(EPS_REL * maxes, EPS_FLOOR)[:, None]
    drop |= keys > running[:, None]
    clears = np.flatnonzero((drop & (mags != 0.0)).any(axis=1))
    c = clears[0] if len(clears) else len(terms) - 1
    acc = np.where(drop[c], 0.0, sums[c])
    bound = float(running[c])
    maxes = maxes[:c + 1].tolist()
    above = keys > bound if bound < keys[-1] else None
    for row, b in zip(terms[c + 1:], bounds[c + 1:].tolist()):
        acc = acc + row
        if b < bound:
            bound = b
            above = keys > b if b < keys[-1] else None
        mags = _abs(acc)
        m = max(mags.tolist())
        maxes.append(m)
        drop = mags <= max(EPS_REL * m, EPS_FLOOR)
        if above is not None:
            drop |= above
        np.copyto(acc, 0.0, where=drop)
    return acc, bound, maxes


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


def _terms(keys, parts):
    """The nonzero terms of one sum, ``parts`` being ``(re,)`` or ``(re, im)``
    by slot."""
    nz = np.flatnonzero(_abs(parts))
    return tuple(zip(keys[nz].tolist(), map(complex, *(x[nz].tolist() for x in parts))))


def _sum(p, maxes, bounds, keys, fallback):
    """The chain over the cleaned products ``p`` as one number, or
    ``fallback()`` once a max is non-finite."""
    if not _finite(maxes):
        return fallback()
    with np.errstate(over="ignore", invalid="ignore"):
        acc, bound, sums = _chain(p, bounds, keys)
    if not _finite(sums):
        return fallback()
    return _terms(keys, acc), _bound(bound)


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
    parts = parts[:, nonempty]
    vals = x.base + x.g * present[:, nonempty].argmax(axis=0)
    bounds = np.repeat(x.bounds, 2)[nonempty] + vals
    first = 2 * x.base
    width = _width(2 * len(parts) - 1, bounds, first, x.g)
    keys = first + x.g * np.arange(width)
    with np.errstate(over="ignore", invalid="ignore"):
        # the parts are real: their products keep an imaginary part of +0.0
        pairs = parts[:width, None, None] * parts[None, :width, None]
        p, maxes = _cleaned(_accumulated(pairs, width), keys, bounds)
    return _sum(p, maxes, bounds, keys, lambda: _lattice._sum_abs_squares(v))


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
    # mul's bound min(T_u + val(au_i), T_au + val(u_i))
    bounds = np.minimum(x.bounds[pairs] + y_val[pairs], y.bounds[pairs] + x_val[pairs])
    first = x.base + y.base
    width = _width(len(a) + len(b) - 1, bounds, first, g)
    keys = first + g * np.arange(width)
    with np.errstate(over="ignore", invalid="ignore"):
        p, maxes = _cleaned(_products(a, b, width), keys, bounds)
    return _sum(p, maxes, bounds, keys, lambda: _lattice.rayleigh_numerator(u, au))


def scaled(v, s):
    """:func:`lcpower._lattice.scaled` on numpy: one column per entry of
    ``v``, each times ``s``, then ``clamp``.  An empty entry's product is
    ``ZERO``, whose bound does not lower the clamp's."""
    x = _laid(v)
    nonempty, x_val = x.valuations
    if not s[0] or not nonempty.any():
        return _lattice.scaled(v, s)
    y = _layout((s,))
    g = _stride(x, y)
    a, b = _strided(x, g), _strided(y, g)
    # mul's bound min(T_e + val(s), T_s + val(e))
    bounds = np.where(nonempty, np.minimum(x.bounds + s[0][0][0], float(s[1]) + x_val), INF)
    first = x.base + y.base
    width = _width(len(a) + len(b) - 1, bounds[nonempty], first, g)
    keys = first + g * np.arange(width)
    with np.errstate(over="ignore", invalid="ignore"):
        p, maxes = _cleaned(_products(a, b, width), keys, bounds)
    if not _finite(maxes):
        return _lattice.scaled(v, s)
    if p.shape[1] == 1:
        p = np.concatenate((p, np.zeros_like(p)), axis=1)
    # clamp
    return _cut(p, first, g, bounds.min(), len(x))


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

"""The batched operations of the power-iteration loop on numpy arrays.

:class:`MatrixAction` holds one matrix of :mod:`lcpower._lattice` and
returns exactly what :func:`lcpower._lattice.matvec` returns for it, and
:data:`NUMPY` holds :func:`sum_abs_squares`, :func:`rayleigh_numerator` and
:func:`scaled`, which return exactly what their twins in
:mod:`lcpower._lattice` return: the same keys, the same float bits (signed
zeros included), the same bounds and the same exceptions.  They keep every
float operation of the Python kernel and change only the layout:

* a series is a row of float64 arrays over its keys, compressed by the
  common stride ``g`` of the keys of a call; complex series are split into
  real and imaginary arrays.  The matrix's layout is fixed per solve, the
  vectors' per call, and keys above the largest product bound are not
  computed;
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
* the sums are ``add``'s chain in Python's order, one pass per ``add``:
  the merge, the running minimum of the bounds, the cleanup relative to
  the largest magnitude of all merged keys, and the bound filter.  No term
  of a product or a sum carries a ``-0.0`` part, so an absent term is held
  as ``+0.0`` and adding it leaves the other term unchanged.  The matrix
  action's row sums run one pass per t-th stored entry of every row,
  vectorized over the rows.

An empty factor makes a product an exact zero, which ``_add_product``
skips together with its bound; the vector operations skip it too, and the
matrix action gives it an infinite bound, so that adding it repeats the
cleanup idempotently.  The parts of ``|v_i|^2`` are real series, whose
products keep an imaginary part of exactly ``+0.0``, so
:func:`sum_abs_squares` runs on real arrays and ``np.abs``.  Inputs that
do not fit a layout (no terms, a matrix action's ``x`` off the matrix's
stride), scaling by a monomial, and arithmetic that meets a non-finite
value are handed to the Python kernel, which then gives the result or
raises.

:func:`kernel` chooses between the two kernels, once per solve, by the
number of stored entries of the matrix: numpy's fixed cost per call
outweighs the Python loops on small matrices.
"""

from __future__ import annotations

import math
from functools import partial
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


class MatrixAction:
    """``_lattice.matvec(M, x)`` on numpy, with the layout of ``M`` fixed."""

    def __init__(self, M):
        self._M = M
        self._n = n = len(M)
        stored = [[(j, a) for j, a in enumerate(row) if a[0]] for row in M]
        keys = sorted({k for row in stored for _, a in row for k, _ in a[0]})
        self._base = base = keys[0] if keys else 0
        self._g = g = math.gcd(*(k - base for k in keys)) or 1
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
        self._width = width = (keys[-1] - base) // g + 1 if keys else 0
        # key slots by entries: every ufunc below runs along the entries
        a_parts = np.zeros((2, width, len(entries)))
        for p, (terms, _) in enumerate(entries):
            for k, c in terms:
                a_parts[:, (k - base) // g, p] = c.real, c.imag
        self._slots = [(s, a_parts[0, s].copy(), a_parts[1, s].copy())
                       for s in sorted({(k - base) // g for k in keys})]
        self._a_val = np.array([float(a[0][0][0]) for a in entries])
        self._a_bound = np.array([float(a[1]) for a in entries])

    def __call__(self, x):
        n, g = self._n, self._g
        if len(x) != n:
            raise DegenerateInputError(f"dimension mismatch: {n}x{n} vs {len(x)}")
        terms = [t for e in x for t in e[0]]
        if not terms or not self._passes:
            return _lattice.matvec(self._M, x)
        offsets = np.array([k for k, _ in terms])
        x_base = int(offsets.min())
        offsets -= x_base
        if g > 1 and (offsets % g).any():
            return _lattice.matvec(self._M, x)
        offsets //= g
        counts = np.array([len(e[0]) for e in x])
        x_width = int(offsets.max()) + 1
        # complex128 only carries the coefficients into the split arrays
        coeffs = np.array([c for _, c in terms], dtype=complex)
        x_parts = np.zeros((2, x_width, n))
        x_parts[:, offsets, np.repeat(np.arange(n), counts)] = coeffs.real, coeffs.imag
        x_val = np.array([float(e[0][0][0]) if e[0] else 0.0 for e in x])
        x_bound = np.array([float(e[1]) for e in x])

        cols = self._cols
        # mul's bound min(T_a + val(x_j), T_x + val(a)); an empty x_j makes
        # the product an exact zero
        bounds = np.minimum(self._a_bound + x_val[cols], x_bound[cols] + self._a_val)
        bounds[(counts == 0)[cols]] = INF
        first = self._base + x_base
        # no product keeps a term above the largest bound
        width = self._width + x_width - 1
        top = bounds.max()
        if top < INF:
            width = max(1, min(width, (int(top) - first) // g + 1))
        keys = first + g * np.arange(width)
        # a row sum drops keys above its bound only if some bound is that low
        clip = bounds.min() < keys[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            xr, xi = x_parts[:, :, cols]
            p = np.zeros((2, width, len(cols)))
            for s, ar, ai in self._slots:
                if s >= width:
                    break
                w = min(x_width, width - s)
                p[0, s:s + w] += ar * xr[:w] - ai * xi[:w]
                p[1, s:s + w] += ar * xi[:w] + ai * xr[:w]
            mags = np.where(keys[:, None] <= bounds, np.hypot(p[0], p[1]), 0.0)
            maxes = [mags.max(axis=0)]
            p = np.where(mags > np.maximum(EPS_REL * maxes[0], EPS_FLOOR), p, 0.0)

            acc = np.zeros((2, width, n))
            acc_bound = np.full(n, INF)
            for rows, block in self._passes:
                total = acc[:, :, rows] + p[:, :, block]
                bound = np.minimum(acc_bound[rows], bounds[block])
                mags = np.hypot(total[0], total[1])
                maxes.append(mags.max(axis=0))
                keep = mags > np.maximum(EPS_REL * maxes[-1], EPS_FLOOR)
                if clip:
                    keep &= keys[:, None] <= bound
                acc[:, :, rows] = np.where(keep, total, 0.0)
                acc_bound[rows] = bound
            # a NaN or an overflow: mul or add raises, or abs does
            if not np.isfinite(np.concatenate(maxes)).all():
                return _lattice.matvec(self._M, x)

        # clamp, and back to (k, complex) terms
        bound = acc_bound.min()
        re, im = acc[0].T, acc[1].T
        present = ((re != 0.0) | (im != 0.0)) & (keys <= bound)
        bound = _bound(bound)
        return tuple((terms, bound) for terms in _rows(keys, re, im, present))


# -- the vector operations ------------------------------------------------------------
#
# Arrays are key-major: ``(slot, part, column)``, the parts being (re, im)
# or, for real series, (re,) alone.


def _layout(*groups):
    """Each group of numbers as split arrays of shape ``(width, 2,
    len(group))`` over the keys ``base + g*slot``, ``base`` being the
    group's smallest key and ``g`` the common stride of all groups:
    ``(arrays, bases, g)``."""
    columns = []
    for group in groups:
        keys, coeffs = zip(*chain.from_iterable(terms for terms, _ in group))
        keys = np.fromiter(keys, np.int64, len(keys))
        base = int(keys.min())
        # complex128 only carries the coefficients into the split arrays
        columns.append((keys - base, base, np.fromiter(coeffs, complex, len(coeffs)),
                        [len(terms) for terms, _ in group]))
    g = int(np.gcd.reduce(np.concatenate([c[0] for c in columns]))) or 1
    arrays = []
    for offsets, _, coeffs, counts in columns:
        slots = offsets // g
        out = np.zeros((int(slots.max()) + 1, 2, len(counts)))
        cols = np.repeat(np.arange(len(counts)), counts)
        out[slots, 0, cols] = coeffs.real
        out[slots, 1, cols] = coeffs.imag
        arrays.append(out)
    return arrays, [c[1] for c in columns], g


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
    ascending order, into ``+0.0`` accumulators."""
    p = np.zeros((width,) + pairs.shape[2:])
    for i in range(pairs.shape[0]):
        p[i:i + pairs.shape[1]] += pairs[i, :width - i]
    return p


def _products(a, b, width: int):
    """``mul``'s products ``a[..., c] * b[..., c]`` of split series (``b``
    may have one column for all) before its cleanup."""
    ar, ai = a[:width, 0, None], a[:width, 1, None]
    br, bi = b[None, :width, 0], b[None, :width, 1]
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
    """``add``'s chain over the products in the columns of ``p``, in order,
    from ``ZERO``: ``(sum as (parts, slot), bound, maxes)``."""
    acc, bound, above, maxes = 0.0, INF, None, []
    for row, b in zip(p.transpose(2, 1, 0), bounds.tolist()):
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


def _finite(*maxes) -> bool:
    return all(np.isfinite(m).all() for m in maxes)


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


def sum_abs_squares(v):
    """:func:`lcpower._lattice._sum_abs_squares` on numpy.  The parts are
    ``re_0, im_0, re_1, im_1, ...`` as ``real_part`` and ``imag_part`` give
    them, one column each; the product of a part with itself is valid to
    ``T_i + val(part)``."""
    if not any(e[0] for e in v):
        return _lattice._sum_abs_squares(v)
    (x,), (base,), g = _layout(v)
    parts = x.transpose(0, 2, 1).reshape(len(x), 2 * len(v))
    present = parts != 0.0  # real_part and imag_part drop zero parts
    nonempty = present.any(axis=0)
    if not nonempty.any():
        return _lattice._sum_abs_squares(v)
    parts = parts[:, nonempty]
    vals = base + g * present[:, nonempty].argmax(axis=0)
    bounds = np.repeat([float(e[1]) for e in v], 2)[nonempty] + vals
    first = 2 * base
    width = _width(2 * len(parts) - 1, bounds, first, g)
    keys = first + g * np.arange(width)
    with np.errstate(over="ignore", invalid="ignore"):
        # the parts are real: their products keep an imaginary part of +0.0
        pairs = parts[:width, None, None] * parts[None, :width, None]
        p, maxes = _cleaned(_accumulated(pairs, width), keys, bounds)
        acc, bound, sums = _chain(p, bounds, keys)
    if not _finite(maxes, sums):
        return _lattice._sum_abs_squares(v)
    return _terms(keys, acc), _bound(bound)


def rayleigh_numerator(u, au):
    """:func:`lcpower._lattice.rayleigh_numerator` on numpy: one column per
    pair of nonempty ``u_i`` and ``au_i``, whose imaginary parts are negated
    as ``conjugate`` negates them."""
    pairs = [(a, b) for a, b in zip(u, au) if a[0] and b[0]]
    if not pairs:
        return _lattice.rayleigh_numerator(u, au)
    (a, b), (base_u, base_a), g = _layout(*zip(*pairs))
    a[:, 1] = -a[:, 1]
    # mul's bound min(T_u + val(au_i), T_au + val(u_i))
    bounds = np.minimum(np.array([float(x[1] + y[0][0][0]) for x, y in pairs]),
                        np.array([float(y[1] + x[0][0][0]) for x, y in pairs]))
    first = base_u + base_a
    width = _width(len(a) + len(b) - 1, bounds, first, g)
    keys = first + g * np.arange(width)
    with np.errstate(over="ignore", invalid="ignore"):
        p, maxes = _cleaned(_products(a, b, width), keys, bounds)
        acc, bound, sums = _chain(p, bounds, keys)
    if not _finite(maxes, sums):
        return _lattice.rayleigh_numerator(u, au)
    return _terms(keys, acc), _bound(bound)


def scaled(v, s):
    """:func:`lcpower._lattice.scaled` on numpy: one column per nonempty
    entry of ``v``, each times ``s``, then ``clamp``.  An empty entry's
    product is ``ZERO``, whose bound does not lower the clamp's.  A
    monomial ``s`` (``phase_aligned``'s phase) gives one contribution per
    key, and ``mul``'s single-term path is then cheaper than the layout."""
    cols = [i for i, e in enumerate(v) if e[0]]
    if not cols or len(s[0]) < 2:
        return _lattice.scaled(v, s)
    es = [v[i] for i in cols]
    (a, b), (base_e, base_s), g = _layout(es, (s,))
    # mul's bound min(T_e + val(s), T_s + val(e))
    bounds = np.minimum(np.array([float(e[1]) for e in es]) + s[0][0][0],
                        float(s[1]) + np.array([float(e[0][0][0]) for e in es]))
    first = base_e + base_s
    width = _width(len(a) + len(b) - 1, bounds, first, g)
    keys = first + g * np.arange(width)
    with np.errstate(over="ignore", invalid="ignore"):
        p, maxes = _cleaned(_products(a, b, width), keys, bounds)
    if not _finite(maxes):
        return _lattice.scaled(v, s)
    # clamp, and back to (k, complex) terms
    bound = bounds.min()
    re, im = p[:, 0].T, p[:, 1].T
    present = ((re != 0.0) | (im != 0.0)) & (keys <= bound)
    bound = _bound(bound)
    out = [((), bound)] * len(v)
    for i, terms in zip(cols, _rows(keys, re, im, present)):
        out[i] = (terms, bound)
    return tuple(out)


NUMPY = _lattice.VectorOps(sum_abs_squares, rayleigh_numerator, scaled)

"""The matrix action of the power-iteration loop on numpy arrays.

:class:`MatrixAction` holds one matrix of :mod:`lcpower._lattice` and
returns exactly what :func:`lcpower._lattice.matvec` returns for it: the
same keys, the same float bits (signed zeros included), the same bounds and
the same exceptions.  It keeps every float operation of the Python kernel
and changes only the layout:

* each stored entry ``a_ij`` is one column of split real and imaginary
  float64 arrays over the matrix's keys, compressed by the common stride
  ``g`` of those keys; ``x`` is laid out the same way on every call, and
  keys above the largest product bound are not computed;
* a product ``a_ij x_j`` is accumulated over the matrix's key slots in
  ascending order, the order in which ``mul``'s dict receives the
  contributions to a key, as ``re = ar*xr - ai*xi`` and
  ``im = ar*xi + ai*xr`` in separate ufunc calls (no complex128 arithmetic,
  whose ``*`` differs from CPython's, and no reduction that reorders or
  fuses a sum).  The accumulators start at ``+0.0``, which is ``mul``'s
  ``0j + p``; they never become ``-0.0``, so a zero-padded slot adds
  nothing.  Keys above the product's bound are masked before ``mul``'s
  cleanup;
* the row sums run one pass per t-th stored entry of every row, vectorized
  over the rows, each pass being ``add``'s merge, bound and cleanup.  No
  term of a product or a sum carries a ``-0.0`` part, so an absent term is
  held as ``+0.0`` and adding it leaves the other term unchanged.  An
  entry ``x_j`` without terms makes its products exact zeros with an
  infinite bound, and adding those repeats the cleanup idempotently, as
  ``_add_product`` skipping them does.

A call whose ``x`` has no terms or keys off the stride ``g``, a matrix
without stored entries, and arithmetic that meets a non-finite value are
handed to :func:`lcpower._lattice.matvec`, which then gives the result or
raises.

:func:`matrix_action` chooses between the two kernels by the number of
stored entries: numpy's fixed cost per call outweighs the Python loop on
small matrices.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import _lattice
from ._lattice import EPS_FLOOR, EPS_REL, INF
from .errors import DegenerateInputError

#: Matrices with at least this many stored (nonempty) entries take the numpy
#: kernel; smaller ones keep :func:`lcpower._lattice.matvec`.
MIN_PAIRS = 24


def matrix_action(M):
    """``x -> _lattice.matvec(M, x)`` for the loop of one solve, on the
    kernel the size of ``M`` selects."""
    if sum(1 for row in M for a in row if a[0]) >= MIN_PAIRS:
        return MatrixAction(M)
    return partial(_lattice.matvec, M)


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
        present = (re != 0.0) | (im != 0.0)
        present &= keys <= bound
        i, j = np.nonzero(present)
        out_terms = list(zip(keys[j].tolist(), map(complex, re[i, j].tolist(), im[i, j].tolist())))
        bound = INF if bound == INF else int(bound)
        out, start = [], 0
        for end in np.cumsum(present.sum(axis=1)).tolist():
            out.append((tuple(out_terms[start:end]), bound))
            start = end
        return tuple(out)

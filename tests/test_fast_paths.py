"""The fast paths of the series kernels against the code they replace,
kept here as the reference, bit for bit: no tolerance anywhere.

On the numpy grid (``lcpower._lattice_np``): a convolution as one ordered
reduction against the slice-add loop, the scaling by a number laid out
from its terms (one term: a scaled array) against the generic layout and
the loop, the magnitudes of a real array against ``hypot``, and the
normalized matrix derived from the matrix's one layout against laying out
the entry by entry products.  In the Python kernel (``lcpower._lattice``):
the one-pass semi-norms of differences against ``semi_norm(sub(a, b))``,
and the vector truncations that return a vector they leave as it is.
Arrays compare by dtype, shape and bytes (so a ``-0.0`` or a NaN payload
counts), numbers by ``repr``, failures by type and message.
"""

import math
from functools import partial

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcpower import _lattice as lk
from lcpower import _lattice_np as lnp
from lcpower import solver
from lcpower.core import INF, Lattice
from lcpower.linalg import LCMatrix, LCVector
import reference_loop

BITS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def convolve_loop(a, b):
    """The grid's convolution as it was: a slice add per slot of the shorter factor."""
    if len(a) > len(b):
        a, b = b, a
    shape = (max(0, len(a) + len(b) - 1),) + np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros(shape, np.result_type(a, b))
    for j, row in enumerate(a):
        out[j:j + len(b)] += row * b
    return out


def scaled_through_layout(x, s):
    """``NUMPY.scaled`` as it was: ``s`` through the generic layout, the
    products' bound from the valuations of both layouts, and the loop."""
    out, base, g, bound = lnp._products(x, lnp._layout((s,)),
                                        lambda a, b, _live: convolve_loop(a, b))
    return lnp.retruncated(lnp.Vector(out, base, g, x.bounds), bound)


def _outcome(thunk):
    """What ``thunk`` gives, in a form that compares bit for bit."""
    try:
        got = thunk()
    except (ArithmeticError, ValueError, lk.LCError) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, np.ndarray):
        return got.dtype.str, got.shape, got.tobytes()
    if isinstance(got, lnp.Vector):
        return (got.arr.dtype.str, got.arr.shape, got.arr.tobytes(), got.base, got.g,
                got.bounds.tobytes())
    if isinstance(got, lnp.MatrixAction):
        return (got._n, got._base, got._g, got._slots, got._blocks.dtype.str,
                got._blocks.tobytes(), [np.asarray(v).tobytes() for v in got._valuations])
    return repr(got)


# -- the convolution ---------------------------------------------------------------


@st.composite
def factor_pairs(draw):
    """Two factors of ``_convolve``: up to 64 slots each (numpy's pairwise
    summation would show above 8 addends), one of them possibly a single
    column for all, real or complex, with zeros of both signs and values
    whose products overflow."""
    m, M = draw(st.integers(0, 64)), draw(st.integers(0, 64))
    n = draw(st.integers(1, 4))
    cols = draw(st.sampled_from([(n, n), (1, n), (n, 1)]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_ = draw(st.booleans())

    def factor(slots, width):
        arr = rng.standard_normal((slots, width)) * 10.0 ** rng.integers(-12, 12, (slots, width))
        arr[rng.random((slots, width)) < 0.2] = 0.0
        arr[rng.random((slots, width)) < 0.1] *= -0.0
        arr[rng.random((slots, width)) < 0.03] = 1e300
        if complex_:
            arr = arr + 1j * rng.standard_normal((slots, width))
        return arr

    return factor(m, cols[0]), factor(M, cols[1])


def _slots(m, M, n=2, complex_=False):
    a = np.arange(1.0, m * n + 1).reshape(m, n) / 7
    b = np.arange(2.0, M * n + 2).reshape(M, n) / 3
    return (a + 1j * a[::-1], b) if complex_ else (a, b)


@BITS
@given(factor_pairs())
@example(_slots(0, 0))
@example(_slots(0, 5))
@example(_slots(1, 1))
@example(_slots(1, 19, complex_=True))
@example(_slots(64, 64))
@example(_slots(65, 70, complex_=True))  # a few slots past the first reduction
@example(_slots(5, 40, n=300))  # wide: one slot in the reduction, the rest a pass each
@example(_slots(16, 64, complex_=True))
@example((np.array([[-2.0]]), np.array([[0.0], [1.0], [-0.0]])))  # a sum of one -0.0
def test_convolve_matches_slice_add_loop(factors):
    a, b = factors
    with np.errstate(over="ignore", invalid="ignore"):
        assert _outcome(lambda: lnp._convolve(a, b)) == _outcome(lambda: convolve_loop(a, b))
        assert _outcome(lambda: lnp._convolve(b, a)) == _outcome(lambda: convolve_loop(b, a))


# -- the scaling by a number ---------------------------------------------------------

reals = st.builds(lambda e, s: s * 10.0 ** e, st.floats(-12, 12), st.sampled_from([-1.0, 1.0]))
coefficients = st.one_of(reals, st.builds(complex, reals, reals),
                         st.builds(complex, reals, st.just(-0.0)),
                         st.builds(complex, st.just(-0.0), reals))


@st.composite
def lattice_numbers(draw, stride, max_terms=5):
    keys = sorted(draw(st.lists(st.integers(-2, 8), max_size=max_terms, unique=True)))
    terms = tuple((stride * k, draw(coefficients)) for k in keys)
    top = terms[-1][0] if terms else stride * draw(st.integers(-2, 8))
    return terms, draw(st.sampled_from([INF, top, top + 1, top + stride]))


@st.composite
def vectors_and_factors(draw):
    """A laid vector and a number to scale it by: one term (the sign flip
    and the inverse of a monomial norm), several, none, or a zero term."""
    stride = draw(st.sampled_from([1, 2, 3, 6]))
    x = lnp.NUMPY.laid(tuple(draw(lattice_numbers(stride))
                             for _ in range(draw(st.integers(1, 5)))))
    if draw(st.booleans()):  # a cut keeps the stride, also of one slot
        x = lnp.truncated(x, draw(st.integers(-2, 8)))
    kind = draw(st.sampled_from(["one", "one", "sign", "several", "none", "zero"]))
    if kind == "one":
        s = ((draw(st.integers(-3, 3)), draw(coefficients)),), draw(st.sampled_from([INF, 4]))
    elif kind == "sign":
        s = lk.constant(-1.0)
    elif kind == "several":
        s = draw(lattice_numbers(draw(st.sampled_from([1, 2, 3])), max_terms=4))
    elif kind == "none":
        s = (), draw(st.sampled_from([INF, 2]))
    else:
        s = ((draw(st.integers(-3, 3)), 0.0),), INF
    return x, s


@BITS
@given(vectors_and_factors())
def test_scaled_matches_generic_layout(case):
    x, s = case
    assert _outcome(lambda: lnp.scaled(x, s)) == _outcome(lambda: scaled_through_layout(x, s))


def test_scaled_one_term_keeps_signed_zeros():
    """``0.0 +`` turns the products' ``-0.0`` into ``0.0``, as the zero sum
    the loop starts from does, and keeps the operand order of the one-row
    convolution on complex arrays."""
    x = lnp.Vector(np.array([[0.0, -0.0], [1.5, -2.0]]), 0, 1, np.array([INF, INF]))
    for s in (lk.constant(-1.0), (((1, complex(0.3, -1.7)),), INF), (((0, 2.0),), 0)):
        assert _outcome(lambda: lnp.scaled(x, s)) == _outcome(lambda: scaled_through_layout(x, s))
    # complex products whose bits depend on the operand order where numpy fuses a
    # multiply and an add: c * x for several slots, x * c for one
    s = (((0, complex(-0.3, 1.9)),), INF)
    for slots in (1, 2, 5):
        z = lnp.Vector(np.full((slots, 2), complex(0.1, 0.7)), 0, 3, np.array([INF, INF]))
        assert _outcome(lambda: lnp.scaled(z, s)) == _outcome(lambda: scaled_through_layout(z, s))
    flipped = lnp.scaled(x, lk.constant(-1.0)).arr
    assert not np.signbit(flipped[flipped == 0]).any()


# -- real magnitudes ---------------------------------------------------------------

SPECIAL = [0.0, -0.0, 5e-324, -2.2e-308, 1.0, -3.5, 1e308, -1.7976931348623157e308,
           math.inf, -math.inf, math.nan]


def test_real_magnitudes_match_hypot():
    """``hypot(x, 0) == |x|`` bit for bit, NaN and infinities included, and
    ``_cleaned`` keeps the same coefficients and raises the same way."""
    rng = np.random.default_rng(7)
    arrays = [np.array([SPECIAL]).T, np.array([SPECIAL[:-3]]).T,
              rng.standard_normal((9, 4)) * 10.0 ** rng.integers(-300, 300, (9, 4))]
    for arr in arrays:
        assert lnp._magnitudes(arr).tobytes() == np.hypot(arr.real, arr.imag).tobytes()

        def cleaned_by_hypot():
            mags = np.hypot(arr.real, arr.imag)
            top = mags.max(axis=0, initial=0.0)
            if not np.isfinite(top).all():
                raise OverflowError("absolute value too large")
            return np.where(mags > np.maximum(lk.EPS_REL * top, lk.EPS_FLOOR), arr, 0)

        assert _outcome(lambda: lnp._cleaned(arr)) == _outcome(cleaned_by_hypot)
    z = np.array([[3 + 4j, -0.0 - 1e308j, 1e308 + 1e308j]])
    with np.errstate(over="ignore"):
        assert lnp._magnitudes(z).tobytes() == np.hypot(z.real, z.imag).tobytes()


# -- the normalized matrix ----------------------------------------------------------


def _monomial_by_mul(e, shift, c):
    return lk.mul(lk.shift(e, shift), (((0, c),), INF))


ENTRIES = [
    ((), INF),
    ((), 3),  # an empty entry with a finite bound: the exact zero ((), INF)
    (((0, complex(1.0, 0.0)), (2, complex(-3.0, 0.0))), 4),
    (((0, complex(1.0, 0.0)), (3, complex(1e-15, 0.0))), INF),  # loses t^3 to the cleanup
    (((-2, complex(2.0, 1.0)), (1, complex(0.0, -0.5))), 6),
    (((1, complex(1e300, 0.0)),), INF),  # overflows for |c| > 1.8e8
    (((0, complex(1e-310, 0.0)), (1, complex(1e-320, 0.0))), 2),  # below EPS_FLOOR
]


def _laid_action(M):
    """The grid's action of the matrix ``M``, its rows of numbers laid out
    as one vector (entry ``(i, j)`` in column ``i*n + j``)."""
    return lnp.MatrixAction(lnp.NUMPY.laid([e for row in M for e in row]))


def _kernels_entry_by_entry(A, shift, c):
    """The two matrix actions of a solve and their kernel as ``solve``
    built them before ``scaled_kernel`` derived a layout: the products laid
    out on their own, on the kernel their stored entries pick, and A again
    on that kernel."""
    M = tuple(tuple(_monomial_by_mul(e, shift, c) for e in row) for row in A)
    if sum(1 for row in M for e in row if e[0]) >= lnp.MIN_PAIRS:
        return _laid_action(M), lnp.NUMPY, _laid_action(A)
    return (partial(lk.matvec, tuple(map(lk.PYTHON.laid, M))), lk.PYTHON,
            partial(lk.matvec, tuple(map(lk.PYTHON.laid, A))))


def _same_kernels(A, shift, c):
    try:
        want = _kernels_entry_by_entry(A, shift, c)
    except (ArithmeticError, ValueError) as exc:  # the first entry that overflows
        assert _outcome(lambda: lnp.scaled_kernel(A, shift, c)) == (type(exc).__name__, str(exc))
        return
    got = lnp.scaled_kernel(A, shift, c)
    assert got[1] is want[1]
    if got[1] is lnp.NUMPY:
        assert _outcome(lambda: got[0]) == _outcome(lambda: want[0])
        assert _outcome(lambda: got[2]) == _outcome(lambda: want[2])
    else:
        assert got[0].args == want[0].args and got[2].args == want[2].args


@st.composite
def matrices(draw):
    n = draw(st.integers(2, 5))
    stride = draw(st.sampled_from([1, 2, 3]))
    entries = st.one_of(lattice_numbers(stride), st.sampled_from(ENTRIES))
    return tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))


@settings(BITS, max_examples=50)
@given(matrices(), st.integers(-4, 4), st.sampled_from(
    [1.0, -0.4, 3e-3, 1e8, complex(0.6, 0.8), 1j, complex(-0.0, 1.0), complex(-2e-3, 5e-4),
     complex(1e8, -3e7)]))
def test_scaled_kernel_matches_entry_by_entry_layout(A, shift, c):
    _same_kernels(A, shift, c)


def test_scaled_kernel_regrids_after_the_cleanup():
    """The derived layout follows the terms the cleanup keeps: a dropped
    lowest key moves the base, a dropped odd key the stride, and complex
    terms that all drop leave a real grid.  A product that leaves the
    float range raises as the first such entry's ``mul`` does: an infinite
    part, or finite parts whose magnitude ``abs`` overflows."""
    dense = [[(((1, complex(1.0 + i + j, 0.0)), (3, complex(0.5, 0.0))), INF)
              for j in range(4)] for i in range(4)]
    lowest = [row[:] for row in dense]
    lowest[0][0] = (((0, complex(1e-16, 0.0)), (1, complex(2.0, 0.0))), INF)
    odd = [row[:] for row in dense]
    odd[1][2] = (((1, complex(3.0, 0.0)), (2, complex(0.0, 1e-17))), 5)
    above = [row[:] for row in dense]
    above[2][2] = (((1, complex(1.0, 0.0)), (3, complex(1.0, 0.0))), 2)  # a term above its bound
    huge = [row[:] for row in dense]
    huge[3][0] = (((1, complex(1e300, 0.0)),), INF)  # overflows times 1e10
    first = [row[:] for row in huge]  # (1.5 + 1.5i) 1e308 and an infinite part, the latter first
    first[0][0] = (((1, complex(1e300, 1e300)),), INF)
    for A in (dense, lowest, odd, above, huge, first):
        for c in (0.25, 1e10, complex(0.25, -0.5), complex(1e10, 1.0), complex(1.5e8, 1.5e8)):
            _same_kernels(tuple(map(tuple, A)), -1, c)
    got = lnp.scaled_kernel(tuple(map(tuple, odd)), -1, 0.25)[0]
    assert got._blocks.dtype == np.dtype(float) and got._g == 2


# -- the Python kernel's loop operations --------------------------------------------


@st.composite
def number_pairs(draw):
    stride = draw(st.sampled_from([1, 2]))
    a, b = draw(lattice_numbers(stride)), draw(lattice_numbers(stride))
    if draw(st.booleans()):  # shared keys, values that cancel
        b = tuple((q, draw(st.sampled_from([c, -c, c * (1 + 1e-15)]))) for q, c in a[0]), b[1]
    return a, b


HUGE = 1.5e308


@settings(BITS, max_examples=60)
@given(st.lists(number_pairs(), min_size=1, max_size=3), st.integers(-4, 10))
@example([((((0, 1.0), (1, HUGE)), INF), (((1, -HUGE),), INF))], 0)  # overflow before the window
@example([((((0, 1.0),), 0), (((0, 1.0),), 0))], 2)  # the window exceeds the bound
@example([((((0, math.inf), (1, 1.0)), INF), (((0, math.inf),), INF))], 1)  # NaN first
@example([((((0, 1.0), (1, math.inf)), INF), (((1, math.inf),), INF))], 1)  # NaN later
@example([((((0, 2.0),), 3), (((0, 2.0),), 3)), ((((0, HUGE),), INF), (((0, -HUGE),), INF))], 1)
def test_diff_semi_norms_match_semi_norm_of_sub(pairs, r):
    a, b = tuple(p[0] for p in pairs), tuple(p[1] for p in pairs)
    got, want = lk.diff_semi_norms(a, b, r, 6), (lk.semi_norm(lk.sub(ea, eb), r, 6)
                                                 for ea, eb in zip(a, b))
    for _ in pairs:  # read one by one: an error stops both at the same entry
        g = _outcome(lambda: next(got))
        assert g == _outcome(lambda: next(want))
        if isinstance(g, tuple):
            break


@BITS
@given(st.lists(lattice_numbers(1), min_size=1, max_size=4), st.integers(-2, 10))
@example([(((0, 1.0),), 3), (((1, 2.0),), 3)], 3)
@example([(((0, 1.0),), 3), (((1, 2.0),), 3)], 5)
@example([(((0, 1.0), (5, 2.0)), 3), (((1, 2.0),), 3)], 3)  # a term above its bound
def test_vector_truncations_return_a_held_vector(v, bound):
    """``clamp``, ``truncated_vector`` and ``retruncated_vector`` equal the
    truncation of every entry, and return their input when every entry
    already has the target bound and no term above it."""
    v = tuple(v)
    low = min(b for _, b in v)
    cases = [(lk.clamp, (v,), tuple(lk.truncated(e, low) for e in v)),
             (lk.truncated_vector, (v, bound),
              tuple(lk.truncated(e, min(bound, low)) for e in v)),
             (lk.retruncated_vector, (v, bound), tuple(lk.retruncate(e, bound) for e in v))]
    for op, args, want in cases:
        got = op(*args)
        assert repr(got) == repr(want)
        if want == v:
            assert got is v


def test_matvec_forms_rows_to_the_vector_bound():
    """A row whose own bound lies above the vector's forms no key above the
    vector's: ``1e200 t^5 * 1e200 t^5`` would overflow, but the first row
    bounds the vector at 2.  The reference forms its rows the same way, and
    the grid took one bound for the whole vector already."""
    M = (((((0, 1.0),), 2), (((0, 1.0),), INF)),
         ((((0, 1.0), (5, 1e200)), 10), (((0, 1.0),), 10)))
    x = ((((0, 1.0), (5, 1e200)), 10), (((0, 1.0),), 10))
    got = lk.matvec(M, x)
    assert got == ((((0, 2.0),), 2), (((0, 2.0),), 2))
    lat = Lattice([])
    ref = reference_loop.matvec(LCMatrix([lat.to_numbers(row) for row in M]),
                                LCVector(lat.to_numbers(x)))
    assert repr(ref.entries) == repr(tuple(lat.to_numbers(got)))
    assert tuple(_laid_action(M)(lnp.NUMPY.laid(x))) == got

"""The series kernels of ``lcpower._lattice`` against the ``Fraction``
reference.

Every kernel operation runs next to its counterpart on the same random
inputs and must agree bit for bit: the ``repr`` of the terms after
conversion (so a ``-0.0`` counts), the validity bound, and the exception
type and message wherever the reference raises.  The counterpart is the
``Fraction``-exponent code of ``reference_loop``, which never calls the
kernel, for the operations that ``core``, ``linalg`` and ``solver``
delegate to it, and ``core`` itself for the truncations it still
computes on ``Fraction`` exponents.  The public wrappers are checked
against the same reference.  A solve-level test then checks that
``solve`` reproduces the reference loop byte for byte on the Python
kernel.  The numpy kernel ``lcpower._lattice_np`` sums in another order
and cleans up only where a value is read, so it is checked against the
Python kernel with stated error bounds (``close``).  Its operations take
its own vectors only, so the tests lay out their inputs with
``NUMPY.laid``, and with ``PYTHON.laid`` where the Python twin's result is
compared bit for bit (``same``).  The Python kernel gives the real parts
it gives on ``complex(c, 0.0)`` coefficients also on ``float`` ones, the
type ``solve``'s loop holds real coefficients in.
"""

import cmath
import contextlib
import functools
import operator
from unittest import mock
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lcpower import _lattice as lk
from lcpower import _lattice_np as lnp
from lcpower import core, linalg, solver
from lcpower.core import INF, Lattice
from lcpower.linalg import LCMatrix, LCVector
from lcpower.solver import SolverConfig, solve
from lcpower.textio import parse_matrix, parse_series, serialize_series
import reference_loop
from experiment import degree21_polynomial
from randgen import random_dominated_2x2

FAST = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SLOW = settings(max_examples=60, deadline=None, derandomize=True, database=None)

ONE = lk.constant(1.0)

exponents = st.builds(F, st.integers(-6, 12), st.sampled_from([1, 2, 3]))
bounds = st.one_of(st.just(INF), exponents)
reals = st.builds(lambda e, s: s * 10.0 ** e, st.floats(-12, 12), st.sampled_from([-1.0, 1.0]))
# complex values with one -0.0 part (conjugated reals) tell `0j + c` from `c`
coefficients = st.one_of(reals, st.builds(complex, reals, reals),
                         st.builds(complex, reals, st.just(-0.0)),
                         st.builds(complex, st.just(-0.0), reals))


@st.composite
def numbers(draw, coeffs=coefficients, max_terms=5, positive=False):
    terms = draw(st.lists(st.tuples(exponents, coeffs), max_size=max_terms))
    a = core.from_terms(terms, draw(bounds))
    if positive and a.terms:
        q, c = a.terms[0]
        a = core.LCNumber(((q, complex(abs(c.real), 0.0)),) + a.terms[1:], a.valid_to)
    return a


real_numbers = numbers(coeffs=reals)
# from_terms clears -0.0 parts; conjugates and negations carry them
any_numbers = st.one_of(numbers(), real_numbers, numbers(coeffs=reals, positive=True),
                        real_numbers.map(core.conjugate), numbers().map(lambda a: -a))


def vectors(n):
    return st.lists(any_numbers, min_size=n, max_size=n)


def fingerprint(x):
    """Bit-exact identity of a result: repr of terms (so -0.0 counts) and bound."""
    if isinstance(x, core.LCNumber):
        return ("number", repr(x.terms), x.valid_to)
    if isinstance(x, LCVector):
        return ("vector", [fingerprint(e) for e in x.entries], x.bound)
    if isinstance(x, lnp.Vector):  # the numpy kernel's vectors read as tuples
        x = tuple(x)
    if isinstance(x, tuple):
        return tuple(fingerprint(e) for e in x)
    return ("value", repr(x))


def same(reference, kernel):
    """Run both thunks; they must agree on the result or on the exception."""
    try:
        expected = reference()
    except Exception as exc:  # the kernel must raise the same
        with pytest.raises(Exception) as info:
            kernel()
        assert type(info.value) is type(exc)
        assert str(info.value) == str(exc)
        return
    assert fingerprint(_succeeding(kernel)) == fingerprint(expected)


def _succeeding(thunk):
    """``thunk()``, which must return: an exception fails the test, even
    inside a caller that suppresses the loop's errors."""
    try:
        return thunk()
    except Exception as exc:
        pytest.fail(f"{exc!r} where a result was due")


def _failure(exc):
    """What an exception reports.  A coefficient that leaves the float
    range is one failure, whether ``abs`` meets it first (``OverflowError``)
    or a check for a non-finite sum (``ValueError``): which one comes first
    depends on the order of the sums.  A product whose parts are finite but
    whose magnitude overflows meets ``abs`` alone, and a sum of two such
    products an infinite part."""
    overflow = isinstance(exc, OverflowError) or (
        type(exc) is ValueError and "overflow" in str(exc))
    return "overflow" if overflow else type(exc)


# each kernel's operations take vectors in the form its ``laid`` gives them
on_python, on_numpy = lk.PYTHON.laid, lnp.NUMPY.laid


def matrix_action(M):
    """The grid's action of the matrix ``M``, its rows of numbers laid out
    as one vector (entry ``(i, j)`` in column ``i*n + j``)."""
    return lnp.MatrixAction(on_numpy([e for row in M for e in row]))


def _read(x):
    """``x`` with every numpy ``Vector`` read as its numbers."""
    if isinstance(x, lnp.Vector):
        return tuple(x)
    return type(x)(map(_read, x)) if isinstance(x, (tuple, list)) else x


def _is_number(x):
    return (isinstance(x, tuple) and len(x) == 2 and isinstance(x[0], tuple)
            and not isinstance(x[1], (tuple, bool)) and all(type(k) is int for k, _ in x[0]))


def _assert_close(expected, got, tol):
    if _is_number(expected):
        assert _is_number(got) and got[1] == expected[1]
        d1, d2 = dict(expected[0]), dict(got[0])
        for k in d1.keys() | d2.keys():
            assert abs(d1.get(k, 0j) - d2.get(k, 0j)) <= tol
    elif isinstance(expected, (tuple, list)):
        assert len(got) == len(expected)
        for e, g in zip(expected, got):
            _assert_close(e, g, tol)
    elif isinstance(expected, float):
        assert abs(got - expected) <= tol
    else:
        assert got == expected


def close(reference, kernel, tol, window=None):
    """Run both thunks.  Where the reference raises, the kernel raises the
    same failure (see ``_failure``); otherwise the results have the same
    shape and bounds, and every coefficient (and every float) lies within
    ``tol`` of the reference's, a key absent from one number being 0.  The
    kernel's vectors are read inside its thunk, so an error on reading
    counts as the kernel's.

    The Python kernel also overflows on terms above a result's bound,
    which it then discards, and the numpy kernel computes no key there.
    So where the reference overflows and the kernel returns, the thunk
    ``window`` takes the reference's place and must return: the reference
    on the inputs without the terms that reach only keys above the kernel
    result's bound."""
    try:
        expected = reference()
    except Exception as exc:  # the kernel must fail the same way
        try:
            got = _read(kernel())
        except Exception as failure:
            assert _failure(failure) == _failure(exc)
            return
        assert window is not None and _failure(exc) == "overflow", (
            f"the kernel returned where the reference raised {exc!r}")
        _assert_close(_succeeding(window), got, tol)
        return
    _assert_close(expected, _succeeding(lambda: _read(kernel())), tol)


def lattice(*items, window=None):
    flat = []
    for x in items:
        flat.extend(x if isinstance(x, (list, tuple, LCVector)) else [x])
    return Lattice(flat, [] if window is None else [window])


def to_vector(lat, v):
    return LCVector(lat.to_numbers(v))


# -- numbers ------------------------------------------------------------------------


@FAST
@given(any_numbers, any_numbers)
def test_binary_ops(a, b):
    lat = lattice(a, b)
    ka, kb = lat.number(a), lat.number(b)
    for name, public in (("add", operator.add), ("sub", operator.sub), ("mul", operator.mul)):
        reference = functools.partial(getattr(reference_loop, name), a, b)
        same(reference, lambda: lat.to_number(getattr(lk, name)(ka, kb)))
        same(reference, lambda: public(a, b))
    same(lambda: reference_loop.compare(a, b), lambda: lk.compare(ka, kb))
    same(lambda: reference_loop.compare(a, b), lambda: core.compare(a, b))


# windows on the operands' lattice and off it (a denominator of 5)
windows = st.builds(F, st.integers(-6, 12), st.sampled_from([1, 2, 3, 5]))


@FAST
@given(any_numbers, any_numbers, windows, st.sampled_from([0.0, 1e-6, 1.0, 1e6]))
def test_window_ops(a, b, r, tol):
    lat = lattice(a, b, window=r)
    ka, kr = lat.number(a), lat.key(r)
    same(lambda: core.truncated(a, r), lambda: lat.to_number(lk.truncated(ka, kr)))
    same(lambda: core.retruncate(a, r), lambda: lat.to_number(lk.retruncate(ka, kr)))
    same(lambda: reference_loop.semi_norm(a, r), lambda: lk.semi_norm(ka, kr, lat.D))
    same(lambda: reference_loop.semi_norm(a, r), lambda: core.semi_norm(a, r))
    same(lambda: reference_loop.eq_up_to(a, b, r, tol), lambda: core.eq_up_to(a, b, r, tol))
    same(lambda: reference_loop.eq_up_to(a, a, r, tol), lambda: core.eq_up_to(a, a, r, tol))
    same(lambda: a[0], lambda: lk.coefficient(ka, 0))


@FAST
@given(any_numbers)
def test_unary_ops(a):
    lat = lattice(a)
    ka = lat.number(a)
    for name, public in (("real_part", core.real_part), ("imag_part", core.imag_part),
                         ("conjugate", core.conjugate), ("neg", operator.neg)):
        reference = functools.partial(getattr(reference_loop, name), a)
        same(reference, lambda: lat.to_number(getattr(lk, name)(ka)))
        same(reference, lambda: public(a))
    same(lambda: reference_loop.is_real(a), lambda: lk.is_real(ka))
    same(lambda: reference_loop.is_real(a), lambda: core.is_real(a))


def _at(q, c, bound=INF):
    return core.from_terms([(q, c)], bound)


# sums whose cleanup or bound filter decides a term, on mixed denominators
# and finite or INF bounds, each with a window on the operands' lattice or
# off it
EDGE_CASES = {
    # 1e-14 is exactly EPS_REL times the largest magnitude: cleared
    "at-eps-rel": (_at(0, 1.0), _at(1, 1e-14), F(1)),
    "above-eps-rel": (_at(0, 1.0), _at(1, 2e-14), F(1, 5)),
    # 1e-300 is exactly EPS_FLOOR, above EPS_REL times 1e-290: cleared
    # (from_terms would clear it already)
    "at-eps-floor": (_at(0, 1e-290), core.LCNumber(((F(1), 1e-300 + 0j),), INF), F(1)),
    # the term at 1/2 lies on the shared bound, the one at 1 above it
    "on-the-bound": (core.from_terms([(0, 1.0), (F(1, 2), 1.0)], 3),
                     core.from_terms([(1, 1.0)], F(1, 2)), F(1, 2)),
    "mixed-denominators": (core.from_terms([(F(1, 3), 1.0), (2, -1.0)], F(7, 3)),
                           core.from_terms([(F(1, 2), 2.0), (2, 1.0)], F(5, 2)), F(2, 5)),
    "cancel-to-zero": (core.from_terms([(F(2, 3), 3.0)], 4), _at(F(2, 3), -3.0), F(3, 7)),
    "tiny-below-infinitesimal": (_at(1, 1.0), _at(0, 1e-100), F(1)),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases(case):
    a, b, r = EDGE_CASES[case]
    for x, y in ((a, b), (b, a)):
        same(lambda: reference_loop.add(x, y), lambda: x + y)
        same(lambda: reference_loop.sub(x, y), lambda: x - y)
        same(lambda: reference_loop.compare(x, y), lambda: core.compare(x, y))
        same(lambda: reference_loop.eq_up_to(x, y, r, 1e-100),
             lambda: core.eq_up_to(x, y, r, 1e-100))
        s = reference_loop.add(x, y)
        same(lambda: reference_loop.semi_norm(s, r), lambda: core.semi_norm(s, r))


def test_reference_never_calls_the_kernel(monkeypatch):
    """The reference loop runs with the kernel's arithmetic disabled."""
    A, cfg = CASES["fractional-max"]()

    def disabled(*args):
        raise AssertionError("the reference called the kernel")

    for name in ("add", "mul", "sum_of_products", "compare", "semi_norm"):
        monkeypatch.setattr(lk, name, disabled)
    result, _trace = reference_loop.solve(A, cfg)
    assert result.converged


@SLOW
@given(any_numbers)
def test_series_ops(a):
    lat = lattice(a)
    ka = lat.number(a)
    for name in ("invert", "sqrt", "magnitude"):
        reference = getattr(reference_loop, name)
        same(lambda: reference(a), lambda: lat.to_number(getattr(lk, name)(ka)))
        same(lambda: reference(a), lambda: getattr(core, name)(a))
    same(lambda: reference_loop.rsqrt(a), lambda: lat.to_number(lk.rsqrt(ka)))


@FAST
@given(st.one_of(coefficients, st.just(0.0), st.just(-0.0)))
def test_constant(x):
    lat = lattice()
    same(lambda: core.constant(x), lambda: lat.to_number(lk.constant(x)))


def test_overflow_raises():
    # max() skipped key 2's NaN here and returned key 1 alone
    a = (((0, 1 + 0j), (1, 1e200 + 0j), (2, 1e300 + 0j)), INF)
    b = (((0, -1e10 + 0j), (1, 1e200 + 0j), (2, 1 + 0j)), 2)
    with pytest.raises(ValueError, match="overflow in multiplication"):
        lk.mul(a, b)
    # the sum's inf magnitude was not above eps = inf, so it was dropped
    big, big_t = lk.constant(1.5e308), (((0, 1.5e308 + 0j), (1, 1 + 0j)), INF)
    with pytest.raises(ValueError, match="overflow in addition"):
        lk.add(big, big_t)
    with pytest.raises(ValueError, match="overflow in addition"):
        core.constant(1.5e308) + (core.constant(1.5e308) + core.monomial(1))
    # huge finite magnitudes whose sum overflows are not an overflow
    huge = (((0, 1e308 + 0j), (1, 1e308 + 0j)), INF)
    assert lk.mul(huge, ONE) == huge


def test_off_lattice_root_raises():
    # t^(1/2) on the lattice (1/2)Z: its root t^(1/4) has no lattice point
    lat = Lattice([], [])
    assert lat.D == 2
    with pytest.raises(lk.LatticeError):
        lk.sqrt(lat.number(core.monomial(F(1, 2))))
    with pytest.raises(lk.LatticeError):
        lat.key(F(1, 3))


# -- vectors ------------------------------------------------------------------------


@SLOW
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(vectors(n * n), vectors(n))),
       st.sampled_from(["l2", "max"]), bounds)
def test_vector_ops(entries, norm_kind, trunc):
    flat, x_entries = entries
    n = len(x_entries)
    A = LCMatrix([flat[i * n:(i + 1) * n] for i in range(n)])
    lat = lattice(flat, x_entries, window=trunc)
    M = tuple(lat.vector(row) for row in A.rows)
    kx = lat.vector(x_entries)
    same(lambda: LCVector(x_entries), lambda: to_vector(lat, lk.clamp(kx)))
    x = LCVector(x_entries)
    kx = lk.clamp(kx)
    ax = reference_loop.matvec(A, x)
    same(lambda: ax, lambda: to_vector(lat, lk.matvec(M, kx)))
    same(lambda: ax, lambda: linalg.matvec(A, x))
    same(lambda: reference_loop.norm_l2(x),
         lambda: lat.to_number(lk.sqrt(lk._sum_abs_squares(kx))))
    same(lambda: reference_loop.norm_l2(x), lambda: linalg.norm_l2(x))
    same(lambda: reference_loop.norm_max_info(x),
         lambda: (lambda v, i, t: (lat.to_number(v), i, t))(*lk.norm_max(kx)))
    same(lambda: reference_loop.norm_max_info(x), lambda: linalg.norm_max_info(x))
    same(lambda: reference_loop.rayleigh_quotient_from_action(x, ax),
         lambda: lat.to_number(lk.rayleigh(kx, lk.matvec(M, kx))))
    same(lambda: reference_loop.rayleigh_quotient_from_action(x, ax),
         lambda: linalg.rayleigh_quotient_from_action(x, ax))
    same(lambda: reference_loop.phase_aligned(x),
         lambda: (lambda v, t: (to_vector(lat, v), t))(*lk.phase_aligned(kx)))
    same(lambda: reference_loop.normalize_vector(x, norm_kind, trunc),
         lambda: (lambda v, t: (to_vector(lat, v), t))(
             *lk.normalize(kx, norm_kind, lat.key(trunc))))
    same(lambda: reference_loop.power_step(A, x, norm_kind, trunc),
         lambda: solver.power_step(A, x, norm_kind, trunc))


@SLOW
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(vectors(n), vectors(n))),
       real_numbers, real_numbers, exponents,
       st.sampled_from([1e-12, 1e-6, 1.0]))
def test_weakly_converged(xs, rho_prev, rho_curr, r, tol):
    a, b = LCVector(xs[0]), LCVector(xs[1])
    same(lambda: reference_loop.weakly_converged(a, b, rho_prev, rho_curr, r, tol),
         lambda: solver.weakly_converged(a, b, rho_prev, rho_curr, r, tol))


@st.composite
def near_tied_vectors(draw):
    """Copies of one number scaled by factors at and around the max norm's
    relative tie tolerance of 1e-12."""
    base = draw(any_numbers)
    factors = draw(st.lists(st.sampled_from([1.0, -1.0, 1j, 1 + 1e-11, 1 - 1e-11, 1 + 1e-13]),
                            min_size=2, max_size=3))
    return LCVector([base * f for f in factors])


@SLOW
@given(near_tied_vectors(), exponents)
def test_max_norm_near_ties(x, trunc):
    lat = lattice(x, window=trunc)
    kx = lat.vector(x)
    same(lambda: reference_loop.norm_max_info(x),
         lambda: (lambda v, i, t: (lat.to_number(v), i, t))(*lk.norm_max(kx)))
    same(lambda: reference_loop.normalize_vector(x, "max", trunc),
         lambda: (lambda v, t: (to_vector(lat, v), t))(*lk.normalize(kx, "max", lat.key(trunc))))


def test_weakly_converged_at_tolerance():
    # a Rayleigh-quotient difference of exactly tol is not converged
    x = LCVector([core.constant(1.0), core.monomial(1, 0.5)])
    tol = 1e-6
    rho = core.constant(2.0)
    for rho_new in (rho + tol, rho + 0.5 * tol):
        expected = reference_loop.weakly_converged(x, x, rho, rho_new, 1, tol)
        assert solver.weakly_converged(x, x, rho, rho_new, 1, tol) is expected
    assert not solver.weakly_converged(x, x, core.zero(), core.constant(tol), 1, tol)


# -- the numpy matrix action ----------------------------------------------------------

huge = st.builds(lambda e, s: s * 10.0 ** e, st.floats(150, 308), st.sampled_from([-1.0, 1.0]))
# comparable magnitudes: the order of a key's contributions shows in its sum
units = st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)).filter(bool)  # never 0j


@st.composite
def lattice_numbers(draw, stride, coeffs=coefficients, empty=True):
    """A number on int keys with the given stride, bounded at its last key,
    one key or one stride above it, or not at all.  Few keys, many terms:
    a key of a product then often gets three or more contributions, whose
    order matters."""
    keys = draw(st.lists(st.integers(-1, 4), min_size=0 if empty else 1,
                         max_size=5, unique=True))
    terms = tuple((stride * k, complex(draw(coeffs))) for k in sorted(keys))
    top = terms[-1][0] if terms else stride * draw(st.integers(-1, 4))
    return terms, draw(st.sampled_from([INF, top, top + 1, top + stride]))


@st.composite
def matrix_and_vector(draw, max_n=6, coeff_sets=(coefficients, units,
                                                  st.one_of(coefficients, huge))):
    """A matrix on one key stride in a dense, sparse or companion pattern,
    and a vector on that stride or on stride 1, with coefficients from one
    of ``coeff_sets``."""
    n = draw(st.integers(1, max_n))
    stride = draw(st.sampled_from([1, 2, 3]))
    coeffs = draw(st.sampled_from(coeff_sets))
    pattern = draw(st.sampled_from(["dense", "sparse", "companion"]))

    def entry(i, j):
        if pattern == "companion" and j != n - 1:
            return ONE if i == j + 1 else lk.ZERO
        return draw(lattice_numbers(stride, coeffs, empty=pattern == "sparse"))

    M = tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))
    x_stride = draw(st.sampled_from([stride, stride, 1]))
    x = [draw(lattice_numbers(x_stride, coeffs)) for _ in range(n)]
    return M, tuple(x) if draw(st.booleans()) else lk.clamp(x)


def _bound_of(result):
    """The bound of a number or of a (clamped) vector of numbers."""
    return result[1] if _is_number(result) else result[0][1] if result else INF


def _cut(a, B, partners):
    """``a`` without the terms whose products with each of ``partners``
    lie above ``B``: truncated at ``B`` minus the smallest valuation among
    them.  ``mul`` then bounds each product of ``a`` with a partner at
    ``B`` and computes no key above it."""
    vals = [p[0][0][0] for p in partners if p[0]]
    return lk.truncated(a, B - min(vals)) if a[0] and vals else a


def _matvec_window(M, x):
    """``close``'s ``window`` for ``matvec(M, x)``."""
    def window():
        B = _bound_of(_read(matrix_action(M)(on_numpy(x))))
        return lk.matvec(tuple(tuple(_cut(a, B, [e]) for a, e in zip(row, x)) for row in M),
                         tuple(_cut(e, B, [row[j] for row in M]) for j, e in enumerate(x)))
    return window


def _sum_abs_squares_window(u):
    """``close``'s ``window`` for ``sum |u_i|^2``: each real and imaginary
    part cut against itself, and summed as a vector of real parts."""
    B = _bound_of(lnp.sum_abs_squares(on_numpy(u)))
    parts = [p for e in u for p in (lk.real_part(e), lk.imag_part(e))]
    return lk._sum_abs_squares(tuple(_cut(p, B, [p]) for p in parts))


def _rayleigh_window(u, au):
    B = _bound_of(lnp.rayleigh_numerator(on_numpy(u), on_numpy(au)))
    return lk.rayleigh_numerator(tuple(_cut(a, B, [b]) for a, b in zip(u, au)),
                                 tuple(_cut(b, B, [a]) for a, b in zip(u, au)))


def _scaled_window(u, s):
    B = _bound_of(_read(lnp.scaled(on_numpy(u), s)))
    return lk.scaled(tuple(_cut(e, B, [s]) for e in u), _cut(s, B, u))


@SLOW
@given(matrix_and_vector())
def test_numpy_matvec(case):
    M, x = case
    action = matrix_action(M)
    tol = _action_tolerance(M, x)
    close(lambda: lk.matvec(M, x), lambda: action(on_numpy(x)), tol, _matvec_window(M, x))
    close(lambda: lk.matvec(M, x[1:]), lambda: action(on_numpy(x[1:])), tol)


def _number(*terms, bound=INF):
    return tuple((k, complex(c)) for k, c in terms), bound


def _filled(n, entry):
    return tuple(tuple(entry for _ in range(n)) for _ in range(n))


def _uniform(entry, x_entry, n=6):
    return _filled(n, entry), (x_entry,) * n


ACTION_CASES = {
    # every product is 1e308, the second row add overflows
    "add-overflows": _uniform((((0, 1e300 + 0j),), INF), (((0, 1e8 + 0j),), INF)),
    # a product with finite parts whose magnitude overflows: abs raises
    "abs-overflows": _uniform((((0, 1.5e300 + 1.5e300j),), INF), (((0, 1e8 + 0j),), INF)),
    # the overflowing key 6 lies above the product's bound 1: no error
    "overflow-above-bound": _uniform((((0, 1 + 0j), (5, 1e300 + 0j)), INF),
                                     (((0, 1 + 0j), (1, 1e300 + 0j)), 1)),
    # (-1) * (-2) has the imaginary part -0.0, which mul's 0j + p clears
    "signed-zeros": _uniform((((0, -1 + 0j),), INF), (((0, -2 + 0j),), INF)),
    # t^1 * 1e20 lies above the row's bound 0, so it must not set the
    # row's cleanup: t^-1 stays
    "bound-filter-each-add": (((ONE, (((1, 1e20 + 0j),), INF), ONE),) * 3,
                              ((((0, 1e7 + 0j),), 0), ONE, (((-1, 1 + 0j),), INF))),
    # ragged rows of 3, 2 and 1 stored entries: row 0's 1e20 and -1e20
    # cancel, and its sum, cleaned up once, keeps t^1; rows 1 and 2 hold
    # empty pads
    "ragged-rows": (((_number((1, 1.0)), _number((0, 1e20)), _number((0, -1e20))),
                     (ONE, ONE, lk.ZERO), (lk.ZERO, lk.ZERO, ONE)), (ONE,) * 3),
}


@pytest.mark.parametrize("case", sorted(ACTION_CASES))
def test_numpy_matvec_cases(case):
    _close_matvec(*ACTION_CASES[case])


def test_matrix_action_selection():
    # a 3x3 (9 stored entries) stays on Python, a lower-triangular 4x4 (10)
    # goes to numpy, the matrix action and the vector operations together
    action, ops, _ = lnp.scaled_kernel(_filled(3, ONE), 0, 1.0)
    assert isinstance(action, functools.partial) and ops is lk.PYTHON
    lower = tuple(tuple(ONE if j <= i else lk.ZERO for j in range(4)) for i in range(4))
    action, ops, _ = lnp.scaled_kernel(lower, 0, 1.0)
    assert isinstance(action, lnp.MatrixAction) and ops is lnp.NUMPY


def _changed(data, a, coeffs=coefficients):
    """``a`` with 1-3 terms added above its finite bound, and the bound
    raised as far; empty and exact numbers stay unchanged."""
    terms, bound = a
    if not terms or bound == INF:
        return a
    extra = data.draw(st.lists(coeffs, min_size=1, max_size=3))
    return terms + tuple((bound + k, c) for k, c in enumerate(extra, 1)), bound + len(extra)


def _l1(a):
    return sum(abs(c) for _, c in a[0])


def _size(a):
    """``_l1(a)``, or ``INF`` where a magnitude overflows."""
    try:
        return _l1(a)
    except OverflowError:
        return INF


def _action_tolerance(M, x):
    """``close``'s tolerance for ``matvec(M, x)``: a key of a row gets n
    products and n sums; it allows a cleanup after each of them and one
    more for the numpy kernel's read, though each kernel cleans a row once,
    which leaves room for the two summation orders' roundoff.  Every
    product and partial sum is at most S (see ``test_matvec_bound``), and
    no sum moves a term to another key."""
    S = max(sum(_size(a) * _size(e) for a, e in zip(row, x)) for row in M)
    return _cleanup_tolerance(2 * len(x) + 1, 1, S)


def _cleaned(v):
    """The numbers of ``v`` as ``_lattice`` holds them, cleaned up by ``add``."""
    return tuple(lk.add(e, lk.ZERO) for e in v)


class _Drawn:
    """``st.data()`` in an explicit example: every draw gives ``value``."""

    def __init__(self, value):
        self.value = value

    def draw(self, _strategy):
        return self.value


@SLOW
@given(matrix_and_vector(max_n=4), st.data())
# a factor whose only term lies below EPS_FLOOR still bounds the product at
# its key 0: the changed entry puts 1e-291 at key 1
@example(((((((0, 1 + 0j),), 0),),), ((((0, 1e-301 + 0j),), INF),)), _Drawn([1e10 + 0j]))
def test_matvec_bound(case, data):
    """Changing every input above its bound does not change the product on
    the bound it claims, on either kernel.  Both runs add the same
    contributions to every key on that window in the same order; only a
    row's one cleanup, relative to a largest magnitude that the keys above
    the window take part in, may drop a term in one run and keep it in the
    other, so the runs may differ by that cleanup's EPS_REL.  An
    empty entry is an exact zero to ``mul`` (see
    ``test_empty_factor_claims_exact_zero``) and stays unchanged."""
    M, x = case
    M2 = tuple(tuple(_changed(data, a) for a in row) for row in M)
    x2 = tuple(_changed(data, e) for e in x)
    n = len(x)
    # every coefficient any product or row sum can reach is at most S
    S = max(sum(_l1(a) * _l1(e) for a, e in zip(row, x2)) for row in M2)
    tol = 4 * n * (lk.EPS_REL * S + lk.EPS_FLOOR)
    for kernel in (lk.matvec, lambda A, v: matrix_action(A)(on_numpy(v))):
        try:
            before = kernel(M, x)
        except (ValueError, OverflowError):
            continue
        try:
            after = kernel(M2, x2)
        except (ValueError, OverflowError):  # the changed terms overflow
            continue
        bound = before[0][1]
        assert after[0][1] >= bound
        for (t1, _), (t2, _) in zip(before, after):
            d1 = {k: c for k, c in t1}
            d2 = {k: c for k, c in t2 if k <= bound}
            for k in d1.keys() | d2.keys():
                assert abs(d1.get(k, 0j) - d2.get(k, 0j)) <= tol


def test_empty_factor_claims_exact_zero():
    """``mul`` treats a factor without terms as an exact zero, whatever its
    bound: ``O(t^2) * 1`` claims to be zero everywhere, though a term of
    the first factor at t^3 would change it there."""
    assert lk.mul(((), 2), ONE) == lk.ZERO
    assert lk.mul((((3, 1 + 0j),), 3), ONE) == (((3, 1 + 0j),), 3)


# -- the numpy vector operations -------------------------------------------------------

# magnitudes over 35 orders: the cleanup drops many keys
wide = st.builds(lambda e, s: s * 10.0 ** e, st.floats(-25, 10), st.sampled_from([-1.0, 1.0]))
vector_coefficients = st.sampled_from([
    coefficients, units, st.one_of(wide, st.builds(complex, wide, wide)),
    st.one_of(coefficients, huge)])


@st.composite
def vector_numbers(draw, stride, coeffs):
    """``lattice_numbers``, half of them with a real leading term: their
    imaginary part has a higher valuation, so its bound differs."""
    terms, bound = draw(lattice_numbers(stride, coeffs))
    if terms and terms[0][1].real != 0.0 and draw(st.booleans()):
        terms = ((terms[0][0], complex(terms[0][1].real, 0.0)),) + terms[1:]
    return terms, bound


@st.composite
def vector_op_inputs(draw, coeff_sets=vector_coefficients):
    """``(u, au, s)``: vectors of n = 1-8 entries on a key stride of 1, 2 or
    3 (``au`` on that stride or on 1) and a series ``s`` to scale by."""
    n = draw(st.integers(1, 8))
    stride = draw(st.sampled_from([1, 2, 3]))
    coeffs = draw(coeff_sets)
    u = [draw(vector_numbers(stride, coeffs)) for _ in range(n)]
    au_stride = draw(st.sampled_from([stride, 1]))
    au = tuple(draw(vector_numbers(au_stride, coeffs)) for _ in range(n))
    s_stride = draw(st.sampled_from([stride, 1]))
    s = draw(lattice_numbers(s_stride, coeffs, empty=False))
    return (tuple(u) if draw(st.booleans()) else lk.clamp(u)), au, s


@FAST
@given(vector_op_inputs(), st.one_of(st.just(INF), st.integers(-3, 12)))
def test_numpy_vector_ops(case, bound):
    u, au, s = case
    _close_vector_ops(u, au, s)
    u = _cleaned(u)  # as _lattice holds them: the read cleans nothing more
    same(lambda: lk.truncated_vector(on_python(u), bound),
         lambda: lnp.truncated(on_numpy(u), bound))
    same(lambda: lk.retruncated_vector(on_python(u), bound),
         lambda: lnp.retruncated(on_numpy(u), bound))


def _close_vector_ops(u, au=None, s=None):
    """``sum |u_i|^2``, ``u* au`` and ``u s`` on both kernels."""
    _close_sum_abs_squares(u)
    if au is not None:
        _close_rayleigh_numerator(u, au)
    if s is not None:
        _close_scaled(u, s)


# Each tolerance allows a cleanup after each product and sum of a sum of
# products and one more for the numpy kernel's read, though each kernel
# cleans the sum once; every product and partial sum is at most S, and no
# sum moves a term to another key.  |u_i|^2 sums the squares of the real
# and imaginary parts, each at most l1(u_i)^2.

def _close_sum_abs_squares(u):
    close(lambda: lk._sum_abs_squares(u), lambda: lnp.sum_abs_squares(on_numpy(u)),
          _cleanup_tolerance(4 * len(u) + 1, 1, 2 * sum(_size(e) * _size(e) for e in u)),
          lambda: _sum_abs_squares_window(u))


def _close_rayleigh_numerator(u, au):
    close(lambda: lk.rayleigh_numerator(u, au),
          lambda: lnp.rayleigh_numerator(on_numpy(u), on_numpy(au)),
          _cleanup_tolerance(2 * len(u) + 1, 1,
                             sum(_size(a) * _size(b) for a, b in zip(u, au))),
          lambda: _rayleigh_window(u, au))


def _close_scaled(u, s):
    close(lambda: lk.scaled(u, s), lambda: lnp.scaled(on_numpy(u), s),
          _cleanup_tolerance(2, 1, max(map(_size, u)) * _size(s)), lambda: _scaled_window(u, s))


def _close_matvec(M, x):
    close(lambda: lk.matvec(M, x), lambda: matrix_action(M)(on_numpy(x)),
          _action_tolerance(M, x), _matvec_window(M, x))


@SLOW
@given(matrix_and_vector(max_n=4), st.integers(-2, 9), st.sampled_from(["l2", "max"]))
def test_numpy_loop_step(case, trunc, norm_kind):
    """Two steps of the loop on the numpy kernel, passing its vectors from
    operation to operation without converting them: the matrix action of
    the action, the normalization, and the Rayleigh quotient and phase
    alignment of the normalized vector.  Each operation checks itself
    against its Python twin on its inputs as stored (``_checking``),
    failures included: an operation that raises where its twin returns
    fails the test, though the chain stops quietly at a loop check or an
    overflow that both kernels meet.

    The chains of the two kernels are not compared as wholes.  The Python
    kernel cleans up every result when it is formed, a sum of products as a
    whole, relative to terms above a later truncation or clamp too, the
    numpy kernel only what it reads, and a loop check, a tie verdict or a
    bound can turn on a term within the cleanup tolerance, either way.  So
    ``(0.05 t^-3 - 1e11)^2`` keeps ``0.0025 t^-6`` on numpy alone, and the
    max-normalized vector's ``t^-3`` term then fails the Rayleigh quotient;
    a row of ``matvec(M, ax)`` that ``_lattice`` cleans against a key above
    its clamp makes the quotient fail on Python alone; and a key-0 term at
    ``EPS_REL`` of a key-2 term, dropped by ``_lattice`` before the
    truncation at 0, changes the normalized vector and its tie verdict."""
    M, x = tuple(map(_cleaned, case[0])), _cleaned(case[1])
    action, ops = _checking(M)
    with contextlib.suppress(lk.LCError, ArithmeticError, ValueError):
        ax = action(on_numpy(x))
        ops.truncated(ax, trunc)
        action(ax)
        y, _tie = lk.normalize(ax, norm_kind, trunc, ops)
        lk.rayleigh(y, action(y), ops)
        lk.phase_aligned(y, ops)


def _raw(v):
    """The numbers of ``v`` as stored: a numpy vector's every nonzero
    coefficient, without the cleanup of a read, a real one a float."""
    if not isinstance(v, lnp.Vector):
        return v
    keys = (v.base + v.g * np.arange(len(v.arr))).tolist()
    return on_python(tuple((tuple((k, c) for k, c in zip(keys, col) if c != 0),
                            INF if b == INF else int(b))
                           for col, b in zip(v.arr.T.tolist(), v.bounds.tolist())))


def _checking(M):
    """The numpy kernel's matrix action of ``M`` and vector operations,
    each first checking itself against its Python twin on its inputs as
    stored (``_raw``); the reads ``constants`` and ``leading`` against the
    twin on the inputs cleaned up as they read them."""
    action = matrix_action(M)

    def checked(op, check):
        def run(*args):
            check(*map(_raw, args))
            return op(*args)
        return run

    def cut(kernel_op, python_op):
        return lambda v, b: same(lambda: python_op(v, b),
                                 lambda: _raw(kernel_op(on_numpy(v), b)))

    def read(kernel_op, python_op):
        return lambda v: same(lambda: python_op(_cleaned(v)), lambda: kernel_op(on_numpy(v)))

    return checked(action, lambda x: _close_matvec(M, x)), lnp.NUMPY._replace(
        truncated=checked(lnp.truncated, cut(lnp.truncated, lk.truncated_vector)),
        retruncated=checked(lnp.retruncated, cut(lnp.retruncated, lk.retruncated_vector)),
        sum_abs_squares=checked(lnp.sum_abs_squares, _close_sum_abs_squares),
        rayleigh_numerator=checked(lnp.rayleigh_numerator, _close_rayleigh_numerator),
        scaled=checked(lnp.scaled, _close_scaled),
        constants=checked(lnp.constants, read(lnp.constants, lk.constants)),
        leading=checked(lnp.leading, read(lnp.leading, lk.leading)))


def _recorded(reference):
    """``(m, S, W)`` of the Python kernel's run of ``reference``: how many
    results ``sum_of_products``, ``add`` and ``_power`` cleaned up, over how
    many keys, and the largest magnitude in any of them.  A chain of operations has
    no closed-form S; the run's own intermediates bound every value that a
    dropped term feeds."""
    m, keys, S = 0, set(), 0.0

    def record(fn):
        def recorded(*args):
            nonlocal m, S
            out = fn(*args)
            m += 1
            keys.update(k for k, _ in out[0])
            S = max([S] + [abs(c) for _, c in out[0]])
            return out
        return recorded

    with mock.patch.multiple(lk, sum_of_products=record(lk.sum_of_products),
                             add=record(lk.add), _power=record(lk._power)):
        try:
            reference()
        except Exception:  # close() then compares the failures
            pass
    return max(m, 1), S, max(len(keys), 1)


# real coefficients, half of them with the imaginary part -0.0 that
# conjugate gives
real_coefficients = st.one_of(reals, st.builds(complex, reals, st.just(-0.0)))
real_coefficient_sets = (real_coefficients, st.one_of(real_coefficients, huge),
                         st.one_of(wide, st.builds(complex, wide, st.just(-0.0))))


def _rotated(v):
    """The vector ``v`` with every coefficient times ``0.6 + 0.8i``: complex."""
    return tuple((tuple((k, c * (0.6 + 0.8j)) for k, c in terms), bound) for terms, bound in v)


@SLOW
@given(matrix_and_vector(coeff_sets=real_coefficient_sets))
def test_numpy_real_lane_matvec(case):
    """On a real matrix and a real vector the matrix action runs on real
    arrays, agrees with ``_lattice.matvec`` (``close``) and returns
    imaginary parts that are exactly zero; a real matrix times a complex
    vector runs on complex arrays."""
    M, x = case
    action = matrix_action(M)
    tol = _action_tolerance(M, x)
    close(lambda: lk.matvec(M, x), lambda: action(on_numpy(x)), tol, _matvec_window(M, x))
    close(lambda: lk.matvec(M, _rotated(x)), lambda: action(on_numpy(_rotated(x))), tol,
          _matvec_window(M, _rotated(x)))
    with contextlib.suppress(ValueError, OverflowError):
        assert all(c.imag == 0.0 for terms, _ in action(on_numpy(x)) for _, c in terms)


@FAST
@given(vector_op_inputs(coeff_sets=st.sampled_from(real_coefficient_sets)))
def test_numpy_real_lane_vector_ops(case):
    """The sums of products and the scaling of real series run on real
    arrays, agree with the Python kernel (``close``) and return imaginary
    parts that are exactly zero; a complex factor runs on complex arrays."""
    u, au, s = case
    _close_vector_ops(u, au, s)
    _close_vector_ops(u, _rotated(au), _rotated((s,))[0])
    with contextlib.suppress(ValueError, OverflowError):
        u_np = on_numpy(u)
        for result in (lnp.rayleigh_numerator(u_np, on_numpy(au)), *lnp.scaled(u_np, s)):
            assert all(c.imag == 0.0 for _, c in result[0])


VECTOR_CASES = {
    # key 4 (1e20) of the first square lies above the sum's bound 1, so it
    # is never formed and does not set the cleanup: key 0 keeps 1e-10
    "chain-max-above-bound": ((_number((0, 1e-5), (2, 1e10)), _number((0, 1e-3), bound=1)),
                              None, None),
    # an empty entry, and an empty imaginary part, are skipped with their bounds
    "empty-part-bound": ((_number(bound=0), _number((1, 2.0), bound=1),
                          _number((0, 1.0), (1, 1j), bound=3)),
                         (_number(bound=0), _number((0, 1.0)), _number((0, 1.0))),
                         _number((0, 1.0), (1, 2.0), bound=2)),
    # conj(-1) is -1 - 0j: (-1)*0.0 + (-0.0)*2 is -0.0, which 0j + p clears;
    # likewise (-1)*0.0 + 0.0*(-2) in the scaling
    "signed-zeros": ((_number((0, -1.0), (1, -1.0)),), (_number((0, 2.0), (1, 1.0)),),
                     _number((0, -2.0), (1, -1.0), bound=3)),
    # 1e160^2 overflows in mul; 1e154^2 + 1e154^2 overflows in add
    "mul-overflows": ((_number((0, 1e160), (1, 1.0), bound=2),),
                      (_number((0, 1e160), (1, 1.0)),), _number((0, 1e160), (1, 1e160))),
    "add-overflows": ((_number((0, 1.3e154), (1, 1.0), bound=2),) * 2,
                      (_number((0, 1.3e154), (1, 1.0)),) * 2, None),
    # a magnitude whose finite parts overflow: abs raises
    "abs-overflows": ((_number((0, 1.3e154 + 1.3e154j), (1, 1.0), bound=2),),
                      (_number((0, 1e154)),), _number((0, 1e154), (1, 1.0))),
    # inf - inf at key 2 of the numerator, a NaN that max() skips (see
    # test_overflow_raises)
    "nan-product": ((_number((0, 1.0), (1, 1e200), (2, 1e300)),),
                    (_number((0, -1e10), (1, 1e200), (2, 1.0), bound=2),), None),
    # the overflowing key lies above every product's bound: no error
    "overflow-above-bound": ((_number((0, 1.0), (2, 1e300), bound=1),),
                             (_number((0, 1.0), (2, 1e300), bound=1),),
                             _number((0, 1.0), (2, 1e300), bound=1)),
}


@pytest.mark.parametrize("case", sorted(VECTOR_CASES))
def test_numpy_vector_ops_cases(case):
    _close_vector_ops(*VECTOR_CASES[case])


# -- float and complex coefficients ------------------------------------------------------


def _typed(x, real):
    """A number or nested tuples of numbers ``x`` with every real
    coefficient made ``real(c.real)``: ``float`` as ``solve``'s loop holds
    it, or ``complex`` with the imaginary part +0.0."""
    if _is_number(x):
        return tuple((k, real(c.real) if c.imag == 0.0 else c) for k, c in x[0]), x[1]
    return tuple(_typed(e, real) for e in x)


def _same_values(got, want):
    """The same structure, keys and bounds; real parts bit for bit and
    imaginary parts equal in value (so +0.0 and -0.0 count as equal)."""
    if _is_number(want):
        assert _is_number(got) and got[1] == want[1]
        assert [k for k, _ in got[0]] == [k for k, _ in want[0]]
        for (_, c), (_, d) in zip(got[0], want[0]):
            assert repr(c.real) == repr(d.real) and c.imag == d.imag
    elif isinstance(want, (tuple, list)):
        assert isinstance(got, (tuple, list)) and len(got) == len(want)
        for g, w in zip(got, want):
            _same_values(g, w)
    else:
        assert repr(got) == repr(want)


def _same_on_both_types(op, *args):
    """``op`` on float coefficients against ``op`` on complex ones: the same
    values (``_same_values``), or the same exception type and message."""
    try:
        want = op(*_typed(args, complex))
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            op(*_typed(args, float))
        assert str(info.value) == str(exc)
        return
    _same_values(_succeeding(lambda: op(*_typed(args, float))), want)


def _positive_lead(a):
    """``a`` with a positive real leading coefficient: a square root exists
    on an even key."""
    terms, bound = a
    return ((((terms[0][0], complex(abs(terms[0][1].real) or 1.0)),) + terms[1:], bound)
            if terms else a)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(vector_op_inputs(st.one_of(vector_coefficients, st.sampled_from(real_coefficient_sets))),
       matrix_and_vector(max_n=3, coeff_sets=(coefficients, *real_coefficient_sets)),
       st.one_of(st.just(INF), st.integers(-3, 12)), st.sampled_from([1e-12, 1e-6, 1.0]))
def test_float_coefficients_match_complex(case, action_case, trunc, tol):
    """The loop holds a real coefficient as a ``float``; every operation
    gives the values it gives on the same coefficient as ``complex(c, 0.0)``."""
    u, au, s = case
    a, b = s, au[0]
    for op in (lk.mul, lk.add, lk.sub):
        _same_on_both_types(op, a, b)
    for x in (a, _positive_lead(a)):
        for op in (lk.invert, lk.sqrt, lk.rsqrt, lk.magnitude):
            _same_on_both_types(op, x)
    _same_on_both_types(lk.matvec, *action_case)
    _same_on_both_types(lk._sum_abs_squares, u)
    _same_on_both_types(lk.rayleigh_numerator, u, au)
    _same_on_both_types(lk.scaled, u, s)
    for norm_kind in ("l2", "max"):
        _same_on_both_types(lambda y: lk.normalize(y, norm_kind, trunc), u)
    _same_on_both_types(lk.rayleigh, u, au)
    with contextlib.suppress(lk.LCError, ArithmeticError, ValueError):
        # as the loop calls it: on a normalized vector
        _same_on_both_types(lk.rayleigh, lk.normalize(u, "l2", trunc)[0], au)
    _same_on_both_types(lk.phase_aligned, u)
    r = min([2, *(e[1] for e in (*u, *au, a, b))])  # a window every bound holds
    _same_on_both_types(
        lambda x, y, r0, r1: lk.weakly_converged(x, y, lambda: (r0, r1), r, tol, 1),
        u, au, a, b)


_factors = st.one_of(coefficients, huge)


@SLOW
@given(st.sampled_from([1, 2, 3]).flatmap(lambda g: st.lists(
    st.tuples(lattice_numbers(g, _factors), lattice_numbers(g, _factors)), max_size=4)))
@example([((((0, 1e200 + 0j),), INF), (((0, 1e200 + 0j),), INF))])  # overflow
@example([((((0, 1 + 0j), (1, 1e200 + 0j), (2, 1e300 + 0j)), INF),  # inf - inf: a NaN
           (((0, -1e10 + 0j), (1, 1e200 + 0j), (2, 1 + 0j)), 2))])
@example([(((), 2), (((0, 1 + 0j),), INF)), ((((0, 1 + 0j),), 0), ONE)])  # an empty factor
@example([(ONE, ONE), ((((0, -1 + 0j),), INF), ONE)])  # a sum that cancels
@example([((((0, 1 + 0j), (2, 1e300 + 0j)), INF),) * 2,  # overflows only above the least
          ((((0, 1 + 0j),), 1), ONE)])                   # bound, 1: never formed
def test_sum_of_products(pairs):
    """``sum_of_products`` of one pair is the reference's ``mul`` and of
    several pairs the reference's sum, bit for bit, on complex and on float
    coefficients."""
    lat = Lattice([], [])
    numbers = [[lat.to_number(a), lat.to_number(b)] for a, b in pairs]
    same(lambda: reference_loop.sum_of_products(numbers),
         lambda: lat.to_number(lk.sum_of_products(pairs)))
    for (a, b), pair in zip(numbers, pairs):
        same(lambda: reference_loop.mul(a, b), lambda: lat.to_number(lk.sum_of_products([pair])))
    _same_on_both_types(lk.sum_of_products, pairs)


def test_sum_of_products_cleans_once():
    """A sum of products is cleaned up once, as a whole: in (1 + 1e-7 t)^2
    - 0.9, the square's 1e-14 t^2 lies at EPS_REL of its constant 1, which
    the sum cancels to 0.1, so the sum keeps it, as the grid does."""
    a, one = core.from_terms([(0, 1.0), (1, 1e-7)]), core.constant(1.0)
    A, x = LCMatrix([[a, core.constant(-0.9)], [core.zero(), one]]), LCVector([a, one])
    assert linalg.matvec(A, x)[0][2] == 1e-7 * 1e-7
    lat = lattice(*A.rows, x)
    M, kx = tuple(lat.vector(row) for row in A.rows), lat.vector(x)
    assert lk.matvec(M, kx) == tuple(matrix_action(M)(on_numpy(kx)))


@st.composite
def offset_numbers(draw, stride, offset, coeffs):
    """``lattice_numbers`` moved by ``offset`` keys: an offset of two strides
    puts every key above 0, and an offset of 1 on a stride of 2 or 3 leaves
    key 0 off the stride."""
    return lk.shift(draw(lattice_numbers(stride, coeffs)), offset)


@st.composite
def loop_tail_inputs(draw):
    """``(a, b, r)``: vectors of n = 0-6 entries, ``b`` on ``a``'s keys or
    on others, and often ``a`` with its terms nudged and some dropped, so
    that the differences' magnitudes span many orders, and a window ``r``
    below, inside or above the bounds."""
    n = draw(st.integers(0, 6))
    stride = draw(st.sampled_from([1, 2, 3]))
    offset = draw(st.sampled_from([0, 2 * stride, 1]))
    coeffs = draw(vector_coefficients)
    a = [draw(offset_numbers(stride, offset, coeffs)) for _ in range(n)]
    if draw(st.booleans()):
        nudge = st.sampled_from([1.0, 1 + 1e-15, 1 - 1e-9, -1.0, 1j])
        b = [(tuple((k, c * draw(nudge)) for k, c in terms if draw(st.integers(0, 4))), bound)
             for terms, bound in a]
    else:
        b_stride, b_offset = draw(st.sampled_from([(stride, offset), (stride, 0), (1, 1)]))
        b = [draw(offset_numbers(b_stride, b_offset, coeffs)) for _ in range(n)]
    return tuple(a), tuple(b), draw(st.integers(-3, 18))


@FAST
@given(loop_tail_inputs())
def test_numpy_loop_tail_ops(case):
    """``constants``, ``leading`` and ``diff_semi_norms`` on numpy against
    their Python twins, on vectors drawn as ``_lattice`` holds them, each
    laid out by its kernel: the reads give the same values, signed zeros
    included, and the semi-norms agree (``close``) and fail from the same
    entry."""
    a, b, r = _cleaned(case[0]), _cleaned(case[1]), case[2]
    x, y = on_numpy(a), on_numpy(b)
    same(lambda: lk.constants(on_python(a)), lambda: lnp.constants(x))
    same(lambda: lk.leading(a), lambda: lnp.leading(x))
    _close_loop_tail(a, b, x, y, r)
    close(lambda: lk.phase_aligned(a), lambda: lk.phase_aligned(x, lnp.NUMPY),
          _cleanup_tolerance(2, 1, max(map(_size, a), default=0.0)))
    for i in (0, -1) if a else ():  # an entry converted alone
        assert repr(on_numpy(a)[i]) == repr(on_python(a)[i])


def _close_loop_tail(a, b, x, y, r):
    """The stopping check's semi-norms of ``a - b`` and its verdict, ``x``
    and ``y`` being ``a`` and ``b`` as tuples or numpy vectors: one
    difference and one cleanup per entry."""
    S = max((_size(e) + _size(f) for e, f in zip(a, b)), default=0.0)
    tol = _cleanup_tolerance(1, 1, S)
    close(lambda: list(lk.diff_semi_norms(a, b, r, 6)),
          lambda: list(lnp.diff_semi_norms(x, y, r, 6)), tol)
    close(lambda: lk.weakly_converged(a, b, lambda: (ONE, ONE), r, 1e-8, 6),
          lambda: lk.weakly_converged(x, y, lambda: (ONE, ONE), r, 1e-8, 6, lnp.NUMPY), tol)


TAIL_CASES = {
    # the second difference overflows in sub, after a first one of 1.0:
    # the stopping check says no without reaching it, the full list raises
    "diff-overflows": ((_number((0, 2.0)), _number((0, 1.5e308))),
                       (_number((0, 1.0)), _number((0, -1.5e308)))),
    # the second entry is bounded below the window
    "window-above-bound": ((_number((0, 2.0)), _number((0, 1.0), bound=0)),
                           (_number((0, 1.0)), _number((0, 1.0)))),
    # a leading magnitude whose finite parts overflow: abs raises
    "leading-overflows": ((_number((1, 1.5e308 + 1.5e308j)),), (_number((1, 1.0)),)),
}


@pytest.mark.parametrize("case", sorted(TAIL_CASES))
def test_numpy_loop_tail_cases(case):
    a, b = TAIL_CASES[case]
    x, y = lnp._layout(a), lnp._layout(b)
    same(lambda: lk.leading(a), lambda: lnp.leading(x))
    _close_loop_tail(a, b, x, y, 1)


@st.composite
def margin_vectors(draw):
    """Copies of one number whose leading terms are scaled to magnitudes at
    and one float next to the max norm's 1e-12 tie margins, and some
    entries without terms."""
    stride = draw(st.sampled_from([1, 2, 3]))
    terms, bound = draw(lattice_numbers(stride, units, empty=False))
    margins = [1.0, -1.0, 1j, 1 + 1e-12, 1 - 1e-12, 1 + 2e-12, 1 + 1e-13,
               float(np.nextafter(1 + 1e-12, 2)), float(np.nextafter(1 - 1e-12, 0))]
    return tuple((((terms[0][0], terms[0][1] * f),) + terms[1:] if f is not None else (), bound)
                 for f in draw(st.lists(st.sampled_from(margins + [None]), min_size=1, max_size=5)))


@FAST
@given(margin_vectors())
def test_numpy_norm_max_margins(v):
    """The max norm and its normalization on numpy's ``leading`` against the
    Python kernel, at the 1e-12 tie margins."""
    v = _cleaned(v)
    x = on_numpy(v)
    same(lambda: lk.norm_max(on_python(v)), lambda: lk.norm_max(x, lnp.NUMPY))
    m, S, W = _recorded(lambda: lk.normalize(v, "max", 6))
    close(lambda: lk.normalize(v, "max", 6), lambda: lk.normalize(x, "max", 6, lnp.NUMPY),
          _cleanup_tolerance(m, W, S))


def test_one_layout_per_vector(monkeypatch):
    """The numpy loop lays out each vector at most once per solve: the
    operations pass their arrays on.  On the real companion matrix of the
    degree-21 experiment the solve lays out the matrix once, for the loop's
    normalized matrix and the residual's action both, and the start vector,
    by ``NUMPY.laid``; a step lays out nothing, as ``scaled`` lays out the
    inverse norm and the phase from their terms.  On ``companion21``, whose
    ``1/mu1`` is complex, the normalized matrix is derived from the one
    layout of the matrix too.  Each solve converts one vector back to
    terms, the result."""
    layouts = []
    layout = lnp._layout

    def counted(v):
        layouts.append(len(v))
        return layout(v)

    monkeypatch.setattr(lnp, "_layout", counted)
    monkeypatch.setattr(lnp, "NUMPY", lnp.NUMPY._replace(laid=counted))
    built = []  # the vectors converted to terms (Vector.numbers)
    numbers = lnp.Vector.numbers.func
    monkeypatch.setattr(lnp.Vector, "numbers",
                        property(lambda self: built.append(1) or numbers(self)))
    A = linalg.companion_matrix(degree21_polynomial())
    _result, trace = solve(A, SolverConfig(truncation=F(4)))
    assert len(trace.steps) > 1 and sorted(layouts) == [A.n, A.n ** 2]
    assert len(built) == 1
    layouts.clear()
    A, cfg = CASES["companion21"]()
    _result, trace = solve(A, cfg)
    assert len(trace.steps) > 1 and sorted(layouts) == [A.n, A.n ** 2]
    assert len(built) == 2


def test_grid_solve_holds_floats(monkeypatch):
    """The coefficient rule on the grid: the loop on the real companion
    matrix of the degree-21 experiment holds every coefficient as a float,
    in its float64 iterates, its Rayleigh quotients and the single-series
    steps between grid operations."""
    power_types = set()
    power = lk._power

    def typed(eps, alpha, scale, lead, kind):
        power_types.update({type(c) for _, c in eps[0]} | {type(scale)})
        return power(eps, alpha, scale, lead, kind)

    monkeypatch.setattr(lk, "_power", typed)
    _result, trace = solve(linalg.companion_matrix(degree21_polynomial()),
                           SolverConfig(truncation=F(4)))
    assert {s._xs.arr.dtype for s in trace.steps} == {np.dtype(float)}
    assert {type(c) for s in trace.steps for _, c in s._rho[0]} == {float}
    assert power_types == {float}


# small terms next to a constant term of modulus 1-1.5: |v|^2 keeps its
# constant part dominant, so its root and inverse stay well conditioned
small = st.builds(cmath.rect, st.floats(1e-3, 1e-2), st.floats(-3.2, 3.2))


@st.composite
def dominated_numbers(draw, stride, bounds=(INF, 0, 1, "stride")):
    terms = ((0, cmath.rect(draw(st.floats(1, 1.5)), draw(st.floats(-3.2, 3.2)))),)
    keys = draw(st.lists(st.integers(1, 4), max_size=4, unique=True))
    terms += tuple((stride * k, draw(small)) for k in sorted(keys))
    above = draw(st.sampled_from(bounds))
    return terms, above if above == INF else terms[-1][0] + (stride if above == "stride" else above)


def _window_diff(before, after, tol):
    """``before`` and ``after`` agree within ``tol`` on the bound ``before``
    claims, which ``after`` claims too."""
    bound = before[1]
    assert after[1] >= bound
    d1 = {k: c for k, c in before[0]}
    d2 = {k: c for k, c in after[0] if k <= bound}
    for k in d1.keys() | d2.keys():
        assert abs(d1.get(k, 0j) - d2.get(k, 0j)) <= tol


def _cleanup_tolerance(m, W, S):
    """``test_matvec_bound``'s tolerance for a computation of ``m`` cleaning
    operations over ``W`` keys in which one term dropped from any
    intermediate, at most ``EPS_REL`` of that intermediate's largest
    magnitude, changes a result coefficient by at most ``EPS_REL S``."""
    return 4 * m * W * (lk.EPS_REL * S + lk.EPS_FLOOR * max(1.0, S))


KERNELS = {"python": lk.PYTHON, "numpy": lnp.NUMPY}


@SLOW
@given(st.sampled_from(sorted(KERNELS)), st.integers(1, 4).flatmap(
    lambda n: st.sampled_from([1, 2, 3]).flatmap(lambda stride: st.tuples(
        st.lists(dominated_numbers(stride), min_size=n, max_size=n),
        st.lists(lattice_numbers(stride, units), min_size=n, max_size=n)))),
    st.data())
def test_rayleigh_bound(kernel, case, data):
    """Changing u and au above their bounds does not change the Rayleigh
    quotient on the bound it claims, on either kernel, up to the cleanup
    (see ``test_matvec_bound``).  To first order a term dropped from
    sum |u_i|^2 (coefficients at most S_s) or from u* au (at most S_n)
    moves the result by its size times A or S_n A^2, A bounding the
    inverse's l1 norm and its coefficients by the geometric majorant
    1 / (c (1 - e)) of every power series of eps; the inverse's one final
    cleanup in ``_power`` drops only terms of the inverse itself, at most
    EPS_REL A each, and such a term moves the result by at most its size
    times S_n.  A numerator without terms makes the
    quotient an exact zero whatever its bound (see
    ``test_empty_factor_claims_exact_zero``), so such draws are left out."""
    ops = KERNELS[kernel]
    u, au = map(lk.clamp, case)
    if not lk.rayleigh_numerator(u, au)[0]:
        return
    u2 = tuple(_changed(data, e, small) for e in u)
    au2 = tuple(_changed(data, e, units) for e in au)
    try:
        before = lk.rayleigh(ops.laid(u), ops.laid(au), ops)
    except lk.LCError:  # e.g. the inverse of an unbounded series
        return
    after = lk.rayleigh(ops.laid(u2), ops.laid(au2), ops)
    n = len(u)
    S_s = sum(_l1(e) ** 2 for e in u2)
    S_n = sum(_l1(a) * _l1(b) for a, b in zip(u2, au2))
    c = sum(abs(e[0][0][1]) ** 2 for e in u2)
    A = 1 / (c * (1 - (S_s - c) / c))
    keys = [k for k, _ in before[0] + after[0]] or [0]
    W = max(1, before[1] - min(keys) + 1) if before[1] != INF else len(set(keys))
    S = S_n * A * (1 + W * S_s * A)
    _window_diff(before, after, _cleanup_tolerance(6 * n + 2 * W + 1, W, S))


@SLOW
@given(st.sampled_from(sorted(KERNELS)), st.integers(1, 4).flatmap(
    lambda n: st.sampled_from([1, 2, 3]).flatmap(lambda stride: st.lists(
        dominated_numbers(stride, bounds=(0, 1, "stride")), min_size=n, max_size=n))),
    st.data())
def test_normalize_bound(kernel, y, data):
    """The l2 normalization of y, truncated at its bound T, and of y
    changed above T, truncated at T + 3, agree on T on either kernel, up to
    the cleanup (see ``test_rayleigh_bound``): the root of sum |y_i|^2 has
    the l1 majorant B = sqrt(c) / (1 - e) and the inverse of the root
    A = 1 / (sqrt(c) (1 - e / (1 - e)))."""
    ops = KERNELS[kernel]
    y = lk.clamp(y)
    trunc = y[0][1]
    y2 = tuple(_changed(data, e, small) for e in y)
    before = lk.normalize(ops.laid(y), "l2", trunc, ops)[0]
    after = lk.normalize(ops.laid(y2), "l2", trunc + 3, ops)[0]
    n = len(y)
    S_s = sum(_l1(e) ** 2 for e in y2)
    c = sum(abs(e[0][0][1]) ** 2 for e in y2)
    e = (S_s - c) / c
    root_c = c ** 0.5
    B = root_c / (1 - e)
    A = 1 / (root_c * (1 - e / (1 - e)))
    W = trunc + 1
    S = max(map(_l1, y2)) * A * (1 + W * A * (S_s / (root_c * (1 - e)) + B + root_c))
    tol = _cleanup_tolerance(5 * n + 4 * W + 2, W, S)
    for b, a in zip(before, after):
        _window_diff(b, a, tol)


small_reals = st.builds(lambda m, s: s * m, st.floats(1e-3, 1e-2), st.sampled_from([-1.0, 1.0]))


@st.composite
def edge_numbers(draw, real):
    """``c t^v (1 + small terms)`` on a key stride of 1-3 (``c`` real
    positive when ``real``, ``v`` even so that the root stays on the
    lattice), bounded where the window of its inverse or root ends next to
    a term: at its last term, one key or one stride above it, or 0-2 keys
    above its valuation, the terms above the bound cut away (a monomial
    when none is left)."""
    stride = draw(st.sampled_from([1, 2, 3]))
    v = 2 * draw(st.integers(-2, 2))
    size = draw(st.floats(1, 1.5))
    c = size if real else cmath.rect(size, draw(st.floats(-3.2, 3.2)))
    keys = draw(st.lists(st.integers(1, 4), max_size=4, unique=True))
    terms = ((v, complex(c)),) + tuple(
        (v + stride * k, complex(draw(small_reals if real else small))) for k in sorted(keys))
    last = terms[-1][0]
    bound = draw(st.sampled_from([last, last + 1, last + stride, v, v + 1, v + 2]))
    return lk.truncated((terms, INF), bound)


@SLOW
@given(st.sampled_from(["invert", "sqrt", "rsqrt"]).flatmap(
    lambda op: st.tuples(st.just(op), edge_numbers(real=op != "invert"))), st.data())
def test_series_bound(case, data):
    """Changing the input above its bound does not change ``invert``,
    ``sqrt`` or ``rsqrt`` on the bound it claims, up to the cleanup (see
    ``test_matvec_bound``).  Both runs give each coefficient on that window
    from the same terms in the same order (a finer key stride scales every
    term's integer factor alike, which moves only roundoff), so only the
    one final cleanup, relative to a largest coefficient that the keys
    above the window take part in, may drop a term in one run and keep it
    in the other.  With ``a = c t^v (1 + eps)`` and ``e`` the l1 norm of
    ``eps``, the geometric majorant ``1 / (1 - e)`` bounds every power
    series of ``eps`` and its coefficients, so ``S`` is ``|c|^-1 (1 -
    e)^-2`` for the inverse, ``|c|^(1/2) (1 - e)^-2`` for the root and
    ``|c|^(-1/2) (1 - e)^-2`` for the inverse root."""
    name, a = case
    real = name != "invert"
    a2 = _changed(data, a, small_reals if real else small)
    before, after = getattr(lk, name)(a), getattr(lk, name)(a2)
    c = abs(a2[0][0][1])
    e = (_l1(a2) - c) / c
    S = c ** {"invert": -1, "sqrt": 0.5, "rsqrt": -0.5}[name] / (1 - e) ** 2
    W = before[1] - before[0][0][0] + 1
    _window_diff(before, after, _cleanup_tolerance(2 * W + 2, W, S))


@SLOW
@given(edge_numbers(real=False), edge_numbers(real=False), st.data())
def test_mul_bound(a, b, data):
    """Changing both factors above their bounds does not change ``a * b``
    on the bound it claims, ``min(T_a + val b, T_b + val a)``, up to its
    one cleanup: a term above a factor's bound reaches only keys above
    that, and the contributions to each key below it come in the same
    order, so only the cleanup, relative to a largest magnitude that the
    keys above the window take part in, may tell the runs apart.  Every
    coefficient is at most ``S = l1(a) l1(b)``."""
    a2, b2 = _changed(data, a, small), _changed(data, b, small)
    before, after = lk.mul(a, b), lk.mul(a2, b2)
    W = before[1] - before[0][0][0] + 1
    _window_diff(before, after, _cleanup_tolerance(1, W, _l1(a2) * _l1(b2)))


@SLOW
@given(st.booleans().flatmap(edge_numbers), st.booleans(), st.data())
def test_magnitude_bound(z, negated, data):
    """Changing ``z`` above its bound does not change ``|z|`` on the bound
    it claims, up to the cleanup.  A real ``z`` only flips its sign.  A
    complex one takes the root of ``re^2 + im^2``, whose leading
    coefficient is ``|c|^2`` and whose remainder has the l1 norm at most
    ``e (2 + e)``, ``e`` that of ``z``'s remainder: ``test_series_bound``'s
    majorant for the root, with room for a cleanup of each square and of
    the sum, which is cleaned once."""
    if negated:
        z = lk.neg(z)
    z2 = _changed(data, z, small_reals if lk.is_real(z) else small)
    before, after = lk.magnitude(z), lk.magnitude(z2)
    c = abs(z2[0][0][1])
    e = (_l1(z2) - c) / c
    S = c / (1 - e * (2 + e)) ** 2
    W = before[1] - before[0][0][0] + 1
    _window_diff(before, after, _cleanup_tolerance(2 * W + 5, W, S))


@st.composite
def power_inputs(draw, real):
    """``c t^v (1 + eps)`` with ``|c|`` in [0.1, 10], ``v`` of either sign
    (even when ``real``, so that roots stay on the lattice) and 1-5 terms
    of ``eps`` up to 0.6 in modulus on a key stride of 1-3, bounded at its
    last term, one key or one stride above it, or up to 18 strides above
    ``v``."""
    stride = draw(st.sampled_from([1, 2, 3]))
    v = 2 * draw(st.integers(-2, 2)) if real else draw(st.integers(-4, 4))
    size = draw(st.floats(0.1, 10))
    c = size if real else cmath.rect(size, draw(st.floats(-3.2, 3.2)))
    keys = draw(st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True))
    terms = ((v, complex(c)),)
    for k in sorted(keys):
        m = draw(st.floats(0.01, 0.6))
        if real:
            m *= draw(st.sampled_from([1.0, -1.0]))
        else:
            m = cmath.rect(m, draw(st.floats(-3.2, 3.2)))
        terms += ((v + stride * k, complex(c * m)),)
    last = terms[-1][0]
    bound = draw(st.sampled_from([last, last + 1, last + stride, v + 18 * stride]))
    return lk.truncated((terms, INF), bound)


@SLOW
@given(st.sampled_from(["invert", "sqrt", "rsqrt"]).flatmap(
    lambda op: st.tuples(st.just(op), power_inputs(real=op != "invert"))))
def test_series_match_reference(case):
    """``test_series_ops`` on bounded inputs of several terms, where the
    recurrence runs over many keys (``any_numbers`` are mostly monomials,
    unbounded or rejected there): bit for bit the reference's on
    ``Fraction`` exponents, the keys read on the lattice ``(1/2)Z``."""
    name, ka = case
    lat = Lattice([], [])
    a = lat.to_number(ka)
    same(lambda: getattr(reference_loop, name)(a), lambda: lat.to_number(getattr(lk, name)(ka)))


def _mp(a):
    return {k: mpmath.mpc(c.real, c.imag) for k, c in a[0]}


def _mp_mul(x, y, top):
    """The product of two exact series, up to the key ``top``."""
    out = {}
    for i, ci in x.items():
        for j, cj in y.items():
            if i + j <= top:
                out[i + j] = out.get(i + j, 0) + ci * cj
    return out


def _accuracy_tolerance(W, scale):
    """The final cleanup of a series on ``W`` keys drops at most ``W``
    terms of at most ``EPS_REL`` times its largest coefficient, each of
    which moves a product's coefficient by at most ``EPS_REL`` times the
    product's coefficient scale.  The factor 2 leaves room for the
    roundoff, which is orders of magnitude smaller."""
    return 2 * W * lk.EPS_REL * scale


@SLOW
@given(st.sampled_from(["invert", "sqrt", "rsqrt"]).flatmap(
    lambda op: st.tuples(st.just(op), power_inputs(real=op != "invert"))))
def test_series_accuracy(case):
    """The float results of ``invert``, ``sqrt`` and ``rsqrt``, taken to
    50-digit arithmetic, satisfy their defining identities on the window
    their product claims: ``f g - 1``, ``g^2 - f`` and ``f g^2 - 1`` stay
    within ``_accuracy_tolerance`` of the products' coefficient scale (the
    l1 norms of their factors multiplied).  ``rsqrt`` claims the bound of
    ``invert(sqrt(f))`` and agrees with it, a series ``l1(g)`` times the
    scale of ``f g^2``, within the same tolerance.  None of this shares the
    recurrence."""
    name, f = case
    g = getattr(lk, name)(f)
    lam = f[0][0][0]
    F_, G = _mp(f), _mp(g)
    with mpmath.workdps(50):
        if name == "invert":
            top, scale = f[1] - lam, _l1(f) * _l1(g)
            residual = _mp_mul(F_, G, top)
            residual[0] = residual.get(0, 0) - 1
        elif name == "sqrt":
            top, scale = f[1], _l1(g) ** 2
            residual = _mp_mul(G, G, top)
            for k, c in F_.items():
                residual[k] = residual.get(k, 0) - c
        else:
            top, scale = f[1] - lam, _l1(f) * _l1(g) ** 2
            residual = _mp_mul(F_, _mp_mul(G, G, top - lam), top)
            residual[0] = residual.get(0, 0) - 1
    W = top - min(residual) + 1
    assert max(abs(c) for k, c in residual.items() if k <= top) <= _accuracy_tolerance(W, scale)
    if name == "rsqrt":
        composed = lk.invert(lk.sqrt(f))
        assert composed[1] == g[1]
        W = g[1] - g[0][0][0] + 1
        tol = _accuracy_tolerance(W, _l1(g) * scale)
        _window_diff(g, composed, tol)


# -- whole solves ---------------------------------------------------------------------


def _random_2x2(seed, index):
    rng = np.random.default_rng(seed)
    found = 0
    while True:
        A, _ = random_dominated_2x2(rng, bound=6)
        if A is not None:
            if found == index:
                return A
            found += 1


def _fractional_dense(n):
    """A dense n x n matrix with terms at t^(1/2) and t^(2/3) in every entry
    and a dominant constant part in its corner."""
    rng = np.random.default_rng(5)
    return LCMatrix([[core.from_terms([(0, 10.0 if i == j == 0 else rng.uniform(0, 1)),
                                       (F(1, 2), rng.uniform(-1, 1)),
                                       (F(2, 3), rng.uniform(-1, 1))])
                      for j in range(n)] for i in range(n)])


def _poly_from_roots(n):
    """The monic polynomial with the root 3 + t + t^(3/2), which dominates,
    and n - 1 roots whose constant parts have moduli in [0.5, 1.5]."""
    rng = np.random.default_rng(3)
    roots = [core.from_terms([(0, 3.0), (1, 1.0), (F(3, 2), 1.0)])]
    for _ in range(n - 1):
        c = rng.uniform(0.5, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        roots.append(core.from_terms([(0, complex(c)), (1, rng.uniform(-1, 1))]))
    coeffs = [core.constant(1.0)]  # ascending powers
    for r in roots:
        nxt = [core.zero()] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * r
        coeffs = nxt
    return linalg.Polynomial(tuple(core.truncated(c, 3) for c in coeffs[:-1]))


CASES = {
    "readme": lambda: (parse_matrix("2; t\nt; 1"), SolverConfig(truncation=F(8))),
    "rand2x2-a": lambda: (_random_2x2(2, 1), SolverConfig(
        truncation=F(6), max_iters=600, tol=1e-12, start="ones")),
    "rand2x2-b": lambda: (_random_2x2(2, 2), SolverConfig(
        truncation=F(6), max_iters=600, tol=1e-12, start="ones")),
    "fractional-max": lambda: (parse_matrix(
        "4 + t^(1/2); 1; t^(2/3)\n"
        "1; 2 + t; 0.5*t^(1/3)\n"
        "t^(1/2); 0.5; 1 + t^(1/3)"),
        SolverConfig(truncation=F(1), norm_kind="max", tol=1e-10)),
    # (1+0.5i) times a real matrix: complex entries whose eigenvalue has a
    # constant phase, so the iterates settle after phase alignment
    "complex-max": lambda: (parse_matrix(
        "(2+1i) + (1+0.5i)*t; (1+0.5i)\n"
        "(0.5+0.25i)*t; (1+0.5i) + (1+0.5i)*t^2"),
        SolverConfig(truncation=F(3), norm_kind="max", tol=1e-10)),
    "random-start": lambda: (parse_matrix("3 + t; 1; 0\n1; 1; t\n0; t^2; 0.5"),
                             SolverConfig(truncation=F(3), start="random:7")),
    # q0 = 1/2, shifted away on the lattice of A, and a start term at
    # t^(1/3), which puts that lattice at (1/12)Z
    "half-valuation-third-start": lambda: (parse_matrix(
        "2*t^(1/2) + t^(3/2); t^(3/2)\n"
        "t^(3/2); t^(1/2) + 0.5*t^2"),
        SolverConfig(truncation=F(3), tol=1e-10, start=LCVector(
            [parse_series("1 + 0.5*t^(1/3)"), parse_series("1")]))),
    # above lnp.MIN_PAIRS: the loop runs on the numpy matrix action
    "fractional-dense6-max": lambda: (_fractional_dense(6), SolverConfig(
        truncation=F(2), norm_kind="max", tol=1e-10)),
    "companion21": lambda: (linalg.companion_matrix(_poly_from_roots(21)),
                            SolverConfig(truncation=F(3), tol=1e-10, max_iters=100)),
}


def _summary(result, trace):
    return (serialize_series(result.eigenvalue),
            [serialize_series(e) for e in result.eigenvector],
            repr(result.residual), result.residual_window,
            result.iterations_used, result.converged, result.pivot_tie_warning,
            [(s.step, repr(s.rho), repr(s.vector)) for s in trace.steps])


@functools.lru_cache(maxsize=None)
def _reference(case):
    return reference_loop.solve(*CASES[case]())


def _takes_numpy(A):
    return sum(1 for row in A.rows for e in row if e.terms) >= lnp.MIN_PAIRS


def _distance(a, b, window):
    """The largest coefficient distance of two numbers on ``window``."""
    return max((abs(a[q] - b[q]) for q, _ in a.terms + b.terms if q <= window), default=0.0)


def _assert_matches_reference(case, result):
    """``solve`` on the numpy kernel against the reference loop: the same
    step count, verdict, tie flag and residual window, and the eigenvalue
    and every eigenvector entry within the case's ``tol`` on the check
    window."""
    _A, cfg = CASES[case]()
    ref, _ = _reference(case)
    assert ((result.iterations_used, result.converged, result.pivot_tie_warning,
             result.residual_window) == (ref.iterations_used, ref.converged,
                                         ref.pivot_tie_warning, ref.residual_window))
    pairs = [(result.eigenvalue, ref.eigenvalue), *zip(result.eigenvector, ref.eigenvector)]
    assert len(pairs) == 1 + len(ref.eigenvector)
    for got, want in pairs:
        assert _distance(got, want, cfg.window) <= cfg.tol


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_reference_loop(case):
    """Bit for bit on the Python kernel, within ``tol`` on the numpy one."""
    A, cfg = CASES[case]()
    result, trace = solve(A, cfg)
    if _takes_numpy(A):
        _assert_matches_reference(case, result)
    else:
        assert _summary(result, trace) == _summary(*_reference(case))
    assert result.converged, "the case should converge"


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_reference_loop_on_numpy(case, monkeypatch):
    """Every case, the 2x2s included, with the whole loop on numpy."""
    monkeypatch.setattr(lnp, "MIN_PAIRS", 1)
    A, cfg = CASES[case]()
    _assert_matches_reference(case, solve(A, cfg)[0])


@pytest.mark.parametrize("case", ["companion21", "complex-max", "fractional-dense6-max"])
def test_trace_same_on_both_kernels(case, monkeypatch):
    """A trace of ``lnp.Vector`` iterates reads, step by step, as the
    Python kernel's trace of tuples, within 1e-11 of the step's largest
    coefficient (at least 1)."""
    A, cfg = CASES[case]()
    traces = {}
    for kernel, pairs in (("python", 10 ** 9), ("numpy", 1)):
        monkeypatch.setattr(lnp, "MIN_PAIRS", pairs)
        traces[kernel] = [[s.rho, *s.vector] for s in solve(A, cfg)[1].steps]
    assert len(traces["numpy"]) == len(traces["python"])
    for got, want in zip(traces["numpy"], traces["python"]):
        scale = max([1.0] + [abs(c) for e in want for _, c in e.terms])
        for a, b in zip(got, want):
            assert a.valid_to == b.valid_to
            assert _distance(a, b, INF) <= 1e-11 * scale

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
``solve`` reproduces the reference loop byte for byte.
"""

import cmath
import functools
import operator
from fractions import Fraction as F

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
from randgen import random_dominated_2x2

FAST = settings(max_examples=150, deadline=None, derandomize=True, database=None)
SLOW = settings(max_examples=60, deadline=None, derandomize=True, database=None)

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
    assert fingerprint(kernel()) == fingerprint(expected)


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

    for name in ("add", "mul", "compare", "semi_norm"):
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
    assert lk.mul(huge, lk.ONE) == huge


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
            return lk.ONE if i == j + 1 else lk.ZERO
        return draw(lattice_numbers(stride, coeffs, empty=pattern == "sparse"))

    M = tuple(tuple(entry(i, j) for j in range(n)) for i in range(n))
    x_stride = draw(st.sampled_from([stride, stride, 1]))
    x = [draw(lattice_numbers(x_stride, coeffs)) for _ in range(n)]
    return M, tuple(x) if draw(st.booleans()) else lk.clamp(x)


@SLOW
@given(matrix_and_vector())
def test_numpy_matvec(case):
    M, x = case
    action = lnp.MatrixAction(M)
    same(lambda: lk.matvec(M, x), lambda: action(x))
    same(lambda: lk.matvec(M, x[1:]), lambda: action(x[1:]))


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
    # t^1 * 1e20 sets the second add's cleanup but lies above the row's
    # bound 0, so it must not set the third add's: t^-1 stays
    "bound-filter-each-add": (((lk.ONE, (((1, 1e20 + 0j),), INF), lk.ONE),) * 3,
                              ((((0, 1e7 + 0j),), 0), lk.ONE, (((-1, 1 + 0j),), INF))),
    # ragged rows of 3, 2 and 1 stored entries: row 0's second add clears
    # its t^1 against 1e20, which its third add cancels, so t^1 must not
    # come back; row 1 never clears, and row 2's pads repeat its cleanup
    "ragged-rows": (((_number((1, 1.0)), _number((0, 1e20)), _number((0, -1e20))),
                     (lk.ONE, lk.ONE, lk.ZERO), (lk.ZERO, lk.ZERO, lk.ONE)), (lk.ONE,) * 3),
}


@pytest.mark.parametrize("case", sorted(ACTION_CASES))
def test_numpy_matvec_cases(case):
    M, x = ACTION_CASES[case]
    same(lambda: lk.matvec(M, x), lambda: lnp.MatrixAction(M)(x))


def test_matrix_action_selection():
    # a 4x4 (16 stored entries) stays on Python, a 5x5 (25) goes to numpy,
    # the matrix action and the vector operations together
    action, ops = lnp.kernel(_filled(4, lk.ONE))
    assert isinstance(action, functools.partial) and ops is lk.PYTHON
    action, ops = lnp.kernel(_filled(5, lk.ONE))
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


@SLOW
@given(matrix_and_vector(max_n=4), st.data())
def test_matvec_bound(case, data):
    """Changing every input above its bound does not change the product on
    the bound it claims, on either kernel.  Both runs add the same
    contributions to every key on that window in the same order; only
    mul's and add's cleanup, relative to a largest magnitude that the keys
    above the window take part in, may drop a term in one run and keep it
    in the other, so the runs may differ by that cleanup's EPS_REL.  An
    empty entry is an exact zero to ``mul`` (see
    ``test_empty_factor_claims_exact_zero``) and stays unchanged."""
    M, x = case
    M2 = tuple(tuple(_changed(data, a) for a in row) for row in M)
    x2 = tuple(_changed(data, e) for e in x)
    n = len(x)
    # every coefficient any product or row sum can reach is at most S
    S = max(sum(_l1(a) * _l1(e) for a, e in zip(row, x2)) for row in M2)
    tol = 4 * n * (lk.EPS_REL * S + lk.EPS_FLOOR)
    for kernel in (lk.matvec, lambda A, v: lnp.MatrixAction(A)(v)):
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
    assert lk.mul(((), 2), lk.ONE) == lk.ZERO
    assert lk.mul((((3, 1 + 0j),), 3), lk.ONE) == (((3, 1 + 0j),), 3)


# -- the numpy vector operations -------------------------------------------------------

# magnitudes over 35 orders: the chain's cleanup drops keys at many adds
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
    same(lambda: lk._sum_abs_squares(u), lambda: lnp.sum_abs_squares(u))
    same(lambda: lk.rayleigh_numerator(u, au), lambda: lnp.rayleigh_numerator(u, au))
    same(lambda: lk.scaled(u, s), lambda: lnp.scaled(u, s))
    same(lambda: lk.truncated_vector(u, bound), lambda: lnp.truncated(u, bound))
    same(lambda: lk.retruncated_vector(u, bound), lambda: lnp.retruncated(u, bound))


@SLOW
@given(matrix_and_vector(max_n=4), st.integers(-2, 9), st.sampled_from(["l2", "max"]))
def test_numpy_loop_step(case, trunc, norm_kind):
    """Two steps of the loop on each kernel, the numpy kernel passing its
    vectors from operation to operation without converting them: the
    matrix action of the action, the normalization, and the Rayleigh
    quotient and phase alignment of the normalized vector."""
    M, x = case

    def steps(action, ops):
        ax = action(x)
        y, tie = lk.normalize(ax, norm_kind, trunc, ops)
        ay = action(y)
        return (action(ax), ops.truncated(ax, trunc), y, tie, ay,
                lk.rayleigh(y, ay, ops), lk.phase_aligned(y, ops))

    same(lambda: steps(functools.partial(lk.matvec, M), lk.PYTHON),
         lambda: steps(lnp.MatrixAction(M), lnp.NUMPY))


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
    """On a real matrix and a real vector the matrix action forms only the
    real parts, and still returns exactly what ``_lattice.matvec`` does;
    a real matrix times a complex vector takes the two-part path."""
    M, x = case
    action = lnp.MatrixAction(M)
    same(lambda: lk.matvec(M, x), lambda: action(x))
    same(lambda: lk.matvec(M, _rotated(x)), lambda: action(_rotated(x)))


@FAST
@given(vector_op_inputs(coeff_sets=st.sampled_from(real_coefficient_sets)))
def test_numpy_real_lane_vector_ops(case):
    """The Rayleigh numerator and the scaling of real series form only the
    real parts of their products, with the same result as the Python
    kernel; a complex factor takes the two-part path."""
    u, au, s = case
    same(lambda: lk.rayleigh_numerator(u, au), lambda: lnp.rayleigh_numerator(u, au))
    same(lambda: lk.scaled(u, s), lambda: lnp.scaled(u, s))
    same(lambda: lk.rayleigh_numerator(u, _rotated(au)),
         lambda: lnp.rayleigh_numerator(u, _rotated(au)))
    s_rot = _rotated((s,))[0]
    same(lambda: lk.scaled(u, s_rot), lambda: lnp.scaled(u, s_rot))


VECTOR_CASES = {
    # key 4 (1e20) lies above the second add's bound 1 but sets its cleanup,
    # which then drops key 0
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
    u, au, s = VECTOR_CASES[case]
    same(lambda: lk._sum_abs_squares(u), lambda: lnp.sum_abs_squares(u))
    if au is not None:
        same(lambda: lk.rayleigh_numerator(u, au), lambda: lnp.rayleigh_numerator(u, au))
    if s is not None:
        same(lambda: lk.scaled(u, s), lambda: lnp.scaled(u, s))


def _chain_reference(p, bounds, keys):
    """``lnp._chain`` as ``add``'s chain runs it: row by row, one numpy pass
    per ``add``."""
    accs, row_bounds, row_maxes = [], [], []
    for i in range(p.shape[3]):
        acc, bound, above, maxes = 0.0, INF, None, []
        for terms, b in zip(p[:, :, :, i].transpose(2, 0, 1), bounds[:, i].tolist()):
            acc = acc + terms  # (slot, part)
            if b < bound:
                bound = b
                above = keys > b if b < keys[-1] else None
            mags = lnp._abs(acc)
            m = max(mags.tolist())
            maxes.append(m)
            drop = mags <= max(lk.EPS_REL * m, lk.EPS_FLOOR)
            if above is not None:
                drop |= above
            acc[drop] = 0.0
        accs.append(acc)
        row_bounds.append(bound)
        row_maxes.append(maxes)
    return np.stack(accs, axis=2), row_bounds, [list(m) for m in zip(*row_maxes)]


@st.composite
def chains(draw):
    """``(p, bounds, keys)`` for ``lnp._chain``: finite products over 1-6
    keys, 1-8 adds and 1-4 rows, with signed zeros, on magnitudes over 23
    orders, so that the cleanup clears terms at many adds.  In each row one
    add, the first, a middle or the last, also gets a term 1e20 above the
    others (its cleanup clears them), a bound below some key (the bound
    filter), or a term near the largest float in a key that another add
    also fills (the sum overflows); or the row's products are all 1.0, so
    that it never clears.  The rows' first clearing adds thus differ.  A
    row's last adds may be empty pads of bound INF, as the matrix action
    gives its shorter rows."""
    width, parts = draw(st.integers(1, 6)), draw(st.sampled_from([1, 2]))
    adds, rows = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    values = st.one_of(st.sampled_from([0.0, -0.0]), st.builds(
        lambda e, s: s * 10.0 ** e, st.floats(-20, 3), st.sampled_from([-1.0, 1.0])))
    size = width * parts * adds * rows
    p = np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(
        width, parts, adds, rows)
    keys = 2 * np.arange(width) - 2
    bounds = np.array(draw(st.lists(st.sampled_from([INF, INF, 6.0]), min_size=adds * rows,
                                    max_size=adds * rows))).reshape(adds, rows)
    for i in range(rows):
        at = draw(st.sampled_from([0, adds // 2, adds - 1]))
        slot = draw(st.integers(0, width - 1))
        event = draw(st.sampled_from(["cleanup", "bound", "overflow", "none", "never"]))
        if event == "cleanup":
            p[slot, 0, at, i] = draw(st.sampled_from([1e20, -1e20]))
        elif event == "bound":
            bounds[at, i] = float(keys[slot] - draw(st.integers(0, 1)))
        elif event == "overflow":
            p[slot, 0, at, i] = p[slot, 0, draw(st.integers(0, adds - 1)), i] = 1.6e308
        elif event == "never":
            p[:, :, :, i], bounds[:, i] = 1.0, INF
        pads = draw(st.integers(0, adds - 1))
        p[:, :, adds - pads:, i], bounds[adds - pads:, i] = 0.0, INF
    return p, bounds, keys


def _clears_first_and_never():
    """Row 0's first add clears its first slot against 1e20 in its last,
    which its second add cancels: the first slot then holds 1.0, not the
    2.0 of the running sum.  Row 1 never clears."""
    p = np.zeros((3, 1, 2, 2))
    p[:, 0, 0, 0] = 1.0, 0.0, 1e20
    p[:, 0, 1, 0] = 1.0, 0.0, -1e20
    p[:, 0, :, 1] = 1.0
    return p, np.full((2, 2), INF), 2 * np.arange(3) - 2


@FAST
@given(chains())
@example(_clears_first_and_never())
def test_chain_accumulate(case):
    """The accumulate with its check against the per-add loop, in every
    row: the same sum bits (signed zeros included), bound and maxes, and
    the same verdict on an overflow."""
    p, bounds, keys = case
    with np.errstate(over="ignore", invalid="ignore"):
        acc, bound, maxes = lnp._chain(p, bounds, keys)
        want_acc, want_bound, want_maxes = _chain_reference(p, bounds, keys)
    for i, want in enumerate(zip(*want_maxes)):
        got = [row[i] for row in maxes]
        assert lnp._finite(got) == lnp._finite(want)
        if lnp._finite(want):
            assert acc[:, :, i].tobytes() == want_acc[:, :, i].tobytes()
            assert bound[i] == want_bound[i]
            assert got == list(want)


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


def _on_numpy(v):
    """``v`` as a tuple or as its laid-out ``lnp.Vector``."""
    return st.sampled_from([v, lnp._layout(v)])


@FAST
@given(loop_tail_inputs(), st.data())
def test_numpy_loop_tail_ops(case, data):
    """``constants``, ``leading`` and ``diff_semi_norms`` on numpy against
    their Python twins, on tuples and on ``Vector``s: the same values,
    signed zeros included, and the same exception from the same entry."""
    a, b, r = case
    x, y = data.draw(_on_numpy(a)), data.draw(_on_numpy(b))
    same(lambda: lk.constants(a), lambda: lnp.constants(x))
    same(lambda: lk.leading(a), lambda: lnp.leading(x))
    same(lambda: list(lk.diff_semi_norms(a, b, r, 6)),
         lambda: list(lnp.diff_semi_norms(x, y, r, 6)))
    same(lambda: lk.phase_aligned(a), lambda: lk.phase_aligned(x, lnp.NUMPY))
    same(lambda: lk.weakly_converged(a, b, lk.ONE, lk.ONE, r, 1e-8, 6),
         lambda: lk.weakly_converged(x, y, lk.ONE, lk.ONE, r, 1e-8, 6, lnp.NUMPY))
    if a and b:  # one numpy vector, its entry converted alone
        for i in (0, -1):
            assert repr(lnp._layout(a)[i]) == repr(a[i])
        same(lambda: lk.weakly_converged(a, b, lk.ONE, lk.ONE, r, 1e-8, 6),
             lambda: lk.weakly_converged(x, b, lk.ONE, lk.ONE, r, 1e-8, 6, lnp.NUMPY))


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
    same(lambda: list(lk.diff_semi_norms(a, b, 1, 6)),
         lambda: list(lnp.diff_semi_norms(x, y, 1, 6)))
    same(lambda: lk.weakly_converged(a, b, lk.ONE, lk.ONE, 1, 1e-8, 6),
         lambda: lk.weakly_converged(x, y, lk.ONE, lk.ONE, 1, 1e-8, 6, lnp.NUMPY))


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
@given(margin_vectors(), st.data())
def test_numpy_norm_max_margins(v, data):
    """The max norm and its normalization on numpy's ``leading`` against the
    Python kernel, at the 1e-12 tie margins."""
    x = data.draw(_on_numpy(v))
    same(lambda: lk.norm_max(v), lambda: lk.norm_max(x, lnp.NUMPY))
    same(lambda: lk.normalize(v, "max", 6), lambda: lk.normalize(x, "max", 6, lnp.NUMPY))


def test_one_layout_per_vector(monkeypatch):
    """The numpy loop lays out each vector at most once per step: the
    operations pass their arrays on.  On ``companion21`` the only vector
    laid out is the start vector; each step lays out two single numbers,
    the inverse norm and the phase that scale the iterate.  And it
    converts one vector back to terms, the result."""
    layouts = []
    layout = lnp._layout
    monkeypatch.setattr(lnp, "_layout", lambda v: layouts.append(len(v)) or layout(v))
    built = []  # the vectors converted to terms (Vector.numbers)
    rows = lnp._rows
    monkeypatch.setattr(lnp, "_rows", lambda *args: built.append(1) or rows(*args))
    A, cfg = CASES["companion21"]()
    _result, trace = solve(A, cfg)
    steps = len(trace.steps)
    assert len(layouts) <= 3 * steps
    assert layouts.count(A.n) == 1
    assert len(built) <= 1


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
    inverse's l1 norm by the geometric majorant 1 / (c (1 - e)) of
    ``_series``; a term dropped inside the inverse series moves it by at
    most its size times S_n A^2 c.  A numerator without terms makes the
    quotient an exact zero whatever its bound (see
    ``test_empty_factor_claims_exact_zero``), so such draws are left out."""
    ops = KERNELS[kernel]
    u, au = map(lk.clamp, case)
    if not lk.rayleigh_numerator(u, au)[0]:
        return
    u2 = tuple(_changed(data, e, small) for e in u)
    au2 = tuple(_changed(data, e, units) for e in au)
    try:
        before = lk.rayleigh(u, au, ops)
    except lk.LCError:  # e.g. the inverse of an unbounded series
        return
    after = lk.rayleigh(u2, au2, ops)
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
    before = lk.normalize(y, "l2", trunc, ops)[0]
    after = lk.normalize(y2, "l2", trunc + 3, ops)[0]
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
@given(st.sampled_from(["invert", "sqrt"]).flatmap(
    lambda op: st.tuples(st.just(op), edge_numbers(real=op == "sqrt"))), st.data())
def test_series_bound(case, data):
    """Changing the input above its bound does not change ``invert`` or
    ``sqrt`` on the bound it claims, up to the cleanup (see
    ``test_matvec_bound``).  With ``a = c t^v (1 + eps)`` and ``e`` the l1
    norm of ``eps``, the geometric majorant ``1 / (1 - e)`` bounds the
    series of either and the effect of a term dropped from one of its
    powers or partial sums, so ``S`` is ``|c|^-1 (1 - e)^-2`` for the
    inverse and ``|c|^(1/2) (1 - e)^-2`` for the root."""
    name, a = case
    real = name == "sqrt"
    a2 = _changed(data, a, small_reals if real else small)
    before, after = getattr(lk, name)(a), getattr(lk, name)(a2)
    c = abs(a2[0][0][1])
    e = (_l1(a2) - c) / c
    S = (c ** 0.5 if real else 1 / c) / (1 - e) ** 2
    W = before[1] - before[0][0][0] + 1
    _window_diff(before, after, _cleanup_tolerance(2 * W + 2, W, S))


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
def _reference_summary(case):
    return _summary(*reference_loop.solve(*CASES[case]()))


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_reference_loop(case):
    A, cfg = CASES[case]()
    expected = _reference_summary(case)
    got = _summary(*solve(A, cfg))
    assert got == expected
    assert got[5], "the case should converge"


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_matches_reference_loop_on_numpy(case, monkeypatch):
    """Every case, the 2x2s included, with the whole loop on numpy."""
    monkeypatch.setattr(lnp, "MIN_PAIRS", 1)
    A, cfg = CASES[case]()
    assert _summary(*solve(A, cfg)) == _reference_summary(case)


@pytest.mark.parametrize("case", ["companion21", "complex-max", "fractional-dense6-max"])
def test_trace_same_on_both_kernels(case, monkeypatch):
    """A trace of ``lnp.Vector`` iterates reads, step by step, as the
    Python kernel's trace of tuples."""
    A, cfg = CASES[case]()
    traces = {}
    for kernel, pairs in (("python", 10 ** 9), ("numpy", 1)):
        monkeypatch.setattr(lnp, "MIN_PAIRS", pairs)
        traces[kernel] = [(s.step, repr(s.vector), repr(s.rho), repr(s.estimate))
                          for s in solve(A, cfg)[1].steps]
    assert traces["numpy"] == traces["python"]

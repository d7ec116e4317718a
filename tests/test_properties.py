"""Property tests for fundamental-shell reduction over the whole float range,
and for array evaluation of RealPoly2.

Points are drawn with log-moduli from the smallest subnormal up to DBL_MAX,
either as (log-modulus, phase) pairs or as raw float components, which also
produces moduli above DBL_MAX such as 1.7e308 + 1.7e308j.
"""

import cmath
import contextlib
import io
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hopfsurf.cli import main
from hopfsurf.errors import InvalidInputError
from hopfsurf.invariants import HopfParams
from hopfsurf.poly import MAX_DEGREE, RealPoly2
from hopfsurf.quotient import (_shell_violation, reduce_point, reduce_points,
                               u_value)

EPS = sys.float_info.epsilon
DBL_MIN, DBL_MAX = sys.float_info.min, sys.float_info.max
LOG_MIN = math.log(5e-324)           # the smallest subnormal
LOG_MAX = math.log(DBL_MAX)

PROPERTY = settings(derandomize=True, deadline=None)

phases = st.one_of(st.just(0.0), st.just(math.pi),
                   st.floats(-math.pi, math.pi))


@st.composite
def coordinates(draw):
    """A finite nonzero complex number anywhere in the float range."""
    polar = st.builds(lambda L, t: cmath.rect(math.exp(L), t),
                      st.floats(LOG_MIN, LOG_MAX), phases)
    raw = st.complex_numbers(allow_nan=False, allow_infinity=False)
    x = draw(st.one_of(polar, raw))
    assume(x != 0)
    return x


@st.composite
def multipliers(draw, lo, hi):
    """HopfParams with lo <= |a| <= |b| <= hi, log|a| drawn log-uniformly."""
    la = math.exp(draw(st.floats(math.log(math.log(lo)),
                                 math.log(math.log(hi)))))
    lb = la + draw(st.floats(0.0, 1.0)) * (math.log(hi) - la)
    try:
        return HopfParams(cmath.rect(math.exp(la), draw(phases)),
                          cmath.rect(math.exp(lb), draw(phases)))
    except InvalidInputError:   # |b| rounded just below |a|
        assume(False)


def _in_shell_or_within_tolerance(pt, params) -> bool:
    az, aw = abs(pt.rep_z), abs(pt.rep_w)
    A, B = abs(params.a), abs(params.b)
    in_f = (az <= A and 1.0 < aw <= B) or (1.0 < az <= A and aw <= B)
    return in_f or _shell_violation(pt.rep_z, pt.rep_w, params) <= 1e-12


@PROPERTY
@given(params=multipliers(1.0 + 1e-15, 1e308), z=coordinates(),
       w=coordinates())
def test_reduce_is_total_over_the_float_range(params, z, w):
    pt = reduce_point((z, w), params)
    assert _in_shell_or_within_tolerance(pt, params)


def _bits(x) -> bytes:
    return struct.pack("<dd", x.real, x.imag)


@PROPERTY
@given(params=multipliers(1.0 + 1e-15, 1e308),
       pts=st.lists(st.tuples(coordinates(), coordinates()), max_size=12))
def test_reduce_points_matches_reduce_point(params, pts):
    z = np.array([p[0] for p in pts], dtype=complex)
    w = np.array([p[1] for p in pts], dtype=complex)
    rz, rw, n = reduce_points(z, w, params)
    assert rz.shape == rw.shape == n.shape == (len(pts),)
    for i, pt in enumerate(pts):
        r = reduce_point(pt, params)
        assert n[i] == r.lift_index
        for x, y in ((rz[i], r.rep_z), (rw[i], r.rep_w)):
            assert abs(x - y) <= 4 * EPS * abs(y)
            assert _bits(x) == _bits(y)


@PROPERTY
@given(params=multipliers(1.0 + 1e-15, 1e308),
       pts=st.lists(st.tuples(coordinates(), coordinates()), max_size=6),
       bad=st.sampled_from([(math.nan, 1.0), (1.0, math.inf),
                            (complex(2.0, -math.inf), complex(math.nan, 1.0)),
                            (0j, 0j)]),
       data=st.data())
def test_reduce_points_raises_on_a_bad_row(params, pts, bad, data):
    at = data.draw(st.integers(0, len(pts)))
    rows = pts[:at] + [bad] + pts[at:]
    with pytest.raises(InvalidInputError) as scalar:
        reduce_point(bad, params)
    with pytest.raises(InvalidInputError) as batch:
        reduce_points(np.array([p[0] for p in rows], dtype=complex),
                      np.array([p[1] for p in rows], dtype=complex), params)
    assert str(batch.value) == str(scalar.value)


def _normal(x: complex) -> bool:
    return DBL_MIN <= math.hypot(x.real, x.imag) <= DBL_MAX


@PROPERTY
@given(params=multipliers(1.1, 8.0), z=coordinates(), w=coordinates(),
       n=st.integers(-20, 20))
def test_deck_lift(params, z, w, n):
    a, b = params.a, params.b
    zl, wl = z * a**n, w * b**n
    assume(all(map(_normal, (z, w, zl, wl))))
    # A point on a glued face has two representatives one lift apart.
    t = max(math.log(abs(z)) / params.log_abs_a,
            math.log(abs(w)) / params.log_abs_b)
    assume(abs(t - round(t)) > 1e-9 * (1.0 + abs(t)))

    base = reduce_point((z, w), params)
    lifted = reduce_point((zl, wl), params)
    assert lifted.lift_index == base.lift_index + n

    # A representative is x / c**m.  The relative error of c**m grows like
    # |m| (log|c| + pi) eps: |m| times the rounding of log|c| (pow, or the
    # 2**e split far out) plus |m| times that of arg(c) in the phase m arg(c).
    # So the agreement scales with the lift indices, not with a flat 1e-12.
    m = abs(base.lift_index) + abs(lifted.lift_index) + 1
    tol = 4.0 * m * (params.log_abs_b + math.pi) * EPS
    for x, y in ((base.rep_z, lifted.rep_z), (base.rep_w, lifted.rep_w)):
        assert abs(x - y) <= tol * (1.0 + abs(x))

    u0, u1 = u_value((z, w), params), u_value((zl, wl), params)
    assert abs(u1 - u0) <= 1e-12 * (1.0 + abs(u0))


@PROPERTY
@given(x=st.lists(st.floats(), min_size=4, max_size=4),
       ab=st.sampled_from([("2", "0", "4", "0"), ("1.1", "0.4", "-3", "7")]))
def test_cli_reduce_exits_0_or_2(x, ab):
    argv = ["reduce", f"--a-re={ab[0]}", f"--a-im={ab[1]}",
            f"--b-re={ab[2]}", f"--b-im={ab[3]}",
            f"--z-re={x[0]!r}", f"--z-im={x[1]!r}",
            f"--w-re={x[2]!r}", f"--w-im={x[3]!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), err.getvalue()


# magnitudes in [1e-3, 1e3] or 0: degree-16 terms neither overflow, which
# raises in scalar float pow, nor fall into the subnormal range, where a
# relative bound on the rounding means nothing
_moduli = st.builds(lambda m, s: s * m, st.floats(1e-3, 1e3),
                    st.sampled_from([-1.0, 1.0]))
_reals = st.one_of(st.just(0.0), _moduli)


@st.composite
def polynomials(draw):
    """A nonzero RealPoly2 with up to 8 monomials of degree <= MAX_DEGREE."""
    keys = draw(st.lists(
        st.tuples(st.integers(0, MAX_DEGREE), st.integers(0, MAX_DEGREE))
        .filter(lambda k: sum(k) <= MAX_DEGREE),
        min_size=1, max_size=8, unique=True))
    return RealPoly2({k: draw(_moduli) for k in keys})


@PROPERTY
@given(poly=polynomials(), shape=st.sampled_from([(), (1,), (5,), (2, 3)]),
       data=st.data())
def test_array_eval_matches_scalar_eval(poly, shape, data):
    n = math.prod(shape)
    x = np.array(data.draw(st.lists(_reals, min_size=n, max_size=n)))
    y = np.array(data.draw(st.lists(_reals, min_size=n, max_size=n)))
    x, y = x.reshape(shape), y.reshape(shape)
    z = np.asarray(x + 1j * y)  # 0-d stays an ndarray
    by_xy, by_z = poly.eval(x, y), poly(z)
    for out in (by_xy, by_z):
        assert isinstance(out, np.ndarray) and out.shape == shape
    for k in np.ndindex(shape):
        xk, yk, zk = float(x[k]), float(y[k]), complex(z[k])
        scalar = poly.eval(xk, yk)
        assert type(scalar) is float and type(poly(zk)) is float
        for arr, pt in ((by_xy, (xk, yk)), (by_z, (zk.real, zk.imag))):
            terms = [c * pt[0]**i * pt[1]**j
                     for (i, j), c in poly.coeffs.items()]
            tol = 4 * EPS * math.fsum(map(abs, terms))
            assert abs(arr[k] - poly.eval(*pt)) <= tol

"""Property tests for fundamental-shell reduction over the whole float range,
for array evaluation of RealPoly2, for the walk-on-spheres distances and
for the array fiber enumeration against its scalar reference, for the
reduce_point fast path against its window-loop reference, and for the
smooth residuals that Levi scans difference.

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
from fiber_reference import fiber_bits, reference_fiber_set
from quotient_reference import point_bits, reference_reduce_point

from hopfsurf.cli import main
from hopfsurf.domains import (ImplicitDomain, LevelBand, ModulusRegion,
                              Nemirovskii, ProductHalfPlane, SubLevel,
                              SuperLevel, translate_domain)
from hopfsurf.errors import EvaluationError, InvalidInputError
from hopfsurf.flows import VectorField, fiber_set, unit_field
from hopfsurf.invariants import HopfParams, Numeric, derive_invariants
from hopfsurf.poly import MAX_DEGREE, RealPoly2
from hopfsurf.quotient import (_shell_violation, reduce_point, reduce_points,
                               u_value)
from hopfsurf.robin import HalfSpace, _norm, half_space_from_theta

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


def _normal(x: complex) -> bool:
    return DBL_MIN <= math.hypot(x.real, x.imag) <= DBL_MAX


@st.composite
def face_points(draw, params):
    """A point a few ulps off a face of F, lifted by a deck power."""
    A, B = abs(params.a), abs(params.b)
    face = draw(st.sampled_from(["z=1", "z=A", "w=1", "w=B"]))
    r = draw(st.floats(0.0, 1.0))
    if face[0] == "z":
        mz, mw = (1.0 if face == "z=1" else A), r * B
    else:
        mz, mw = r * A, (1.0 if face == "w=1" else B)
    for _ in range(draw(st.integers(0, 3))):
        mz = math.nextafter(mz, draw(st.sampled_from([0.0, math.inf])))
    for _ in range(draw(st.integers(0, 3))):
        mw = math.nextafter(mw, draw(st.sampled_from([0.0, math.inf])))
    z, w = cmath.rect(mz, draw(phases)), cmath.rect(mw, draw(phases))
    n = draw(st.integers(-40, 40))
    assume(abs(n) * params.log_abs_b < 700.0)
    return (z * params.a**n, w * params.b**n)


@PROPERTY
@given(params=multipliers(1.0 + 1e-15, 1e308),
       pts=st.lists(st.tuples(coordinates(), coordinates()), max_size=12),
       data=st.data())
def test_reduce_points_matches_reduce_point(params, pts, data):
    # plus points a few ulps off a face lifted by a deck power, that is
    # a**k (1 +- eps) or b**k (1 +- eps), where t lies next to an integer
    finite = face_points(params).filter(lambda p: all(map(cmath.isfinite, p)))
    pts = pts + data.draw(st.lists(finite, min_size=1, max_size=12))
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


def _outcome(reduce, pt, params):
    try:
        return point_bits(reduce(pt, params))
    except (InvalidInputError, EvaluationError) as e:
        return (type(e), str(e))


@PROPERTY
@given(params=st.one_of(multipliers(1.0 + 1e-15, 1e308),
                        multipliers(1.0 + 1e-15, 1.0 + 1e-6)),
       data=st.data())
def test_reduce_point_matches_window_reference(params, data):
    axis = st.builds(lambda x, on_z: (x, 0j) if on_z else (0j, x),
                     coordinates(), st.booleans())
    pts = data.draw(st.lists(st.one_of(
        st.tuples(coordinates(), coordinates()), face_points(params), axis,
        st.sampled_from([(0j, 0j), (math.nan, 1.0), (1.0, math.inf)])),
        min_size=1, max_size=8))
    for pt in pts:
        assert (_outcome(reduce_point, pt, params)
                == _outcome(reference_reduce_point, pt, params))


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


# magnitudes from 1e-300 to 1e300: squares underflow to 0 and overflow to inf
_wide = st.one_of(st.just(0.0), st.builds(
    lambda m, e, s: s * m * 10.0**e, st.floats(1.0, 10.0),
    st.floats(-300.0, 300.0), st.sampled_from([-1.0, 1.0])))


@PROPERTY
@given(rows=st.lists(st.tuples(_wide, _wide, _wide, _wide), max_size=5))
def test_norm_matches_linalg_norm_bit_for_bit(rows):
    v = np.array(rows, dtype=float).reshape(-1, 4)
    with np.errstate(over="ignore", under="ignore"):
        got, want = _norm(v), np.linalg.norm(v, axis=-1)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@st.composite
def half_spaces(draw):
    """A HalfSpace whose normal has at least two nonzero components."""
    normal = draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
    for i in draw(st.lists(st.integers(0, 3), min_size=2, max_size=2,
                           unique=True)):
        normal[i] = draw(st.one_of(st.floats(-1.0, -1e-3),
                                   st.floats(1e-3, 1.0)))
    return HalfSpace(normal=tuple(normal), offset=draw(st.floats(-10.0, 10.0)))


@PROPERTY
@given(hs=half_spaces(),
       rows=st.lists(st.tuples(*[st.floats(-1e3, 1e3)] * 4), min_size=1,
                     max_size=64))
def test_half_space_rows_do_not_depend_on_the_row_count(hs, rows):
    # walk-on-spheres steps a live set of blocks in one call; each row must
    # get the bits that a call of its own would give it
    x = np.array(rows)
    for f in (hs.distance, hs.project):
        one_by_one = np.concatenate([f(x[i:i + 1]) for i in range(len(x))])
        assert f(x).tobytes() == one_by_one.tobytes()


@PROPERTY
@given(hs=half_spaces(), n=st.integers(1, 300), seed=st.integers(0, 2**32))
def test_half_space_distance_is_the_written_column_sum(hs, n, seed):
    # (x0 n0 + x2 n2) + (x1 n1 + x3 n3) - offset in IEEE basic operations,
    # here in Python floats, row by row; project moves along the normal
    x = np.random.default_rng(seed).uniform(-1e3, 1e3, (n, 4))
    n0, n1, n2, n3 = hs.normal
    want = np.array([(a * n0 + c * n2) + (b * n1 + e * n3) - hs.offset
                     for a, b, c, e in x.tolist()])
    d = hs.distance(x)
    assert d.tobytes() == want.tobytes()
    assert d.tobytes() == np.concatenate(
        [hs.distance(x[i:i + 1]) for i in range(n)]).tobytes()
    assert hs.project(x).tobytes() == (
        x - want[:, None] * np.array(hs.normal)).tobytes()


@PROPERTY
@given(theta=st.floats(-math.pi, math.pi), n=st.integers(1, 300),
       seed=st.integers(0, 2**32))
def test_product_half_plane_walks_on_its_wall(theta, n, seed):
    # a translated Nemirovskii domain is its own walk domain: its distance
    # and project are those of its wall, bit for bit, on any rows
    td, wall = ProductHalfPlane(theta), half_space_from_theta(theta)
    x = np.random.default_rng(seed).uniform(-1e3, 1e3, (n, 4))
    assert td.thread_safe
    for f, g in ((td.distance, wall.distance), (td.project, wall.project)):
        assert f(x).tobytes() == g(x).tobytes()
        assert f(x).tobytes() == np.concatenate(
            [f(x[i:i + 1]) for i in range(n)]).tobytes()


@PROPERTY
@given(walls=st.lists(half_spaces(), min_size=1, max_size=8),
       n=st.integers(1, 40), seed=st.integers(0, 2**32))
def test_wall_rows_give_each_wall_its_own_bits(walls, n, seed):
    # several walls walk in one live set, each point with its wall's
    # walk_row as a column; every point gets its own wall's bits
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1e3, 1e3, (n, 4))
    mine = rng.integers(0, len(walls), n)
    rows = np.array([walls[j].walk_row for j in mine]).T
    for f, own in ((walls[0].distance_rows, "distance"),
                   (walls[0].project_rows, "project")):
        want = np.concatenate([getattr(walls[j], own)(x[i:i + 1])
                               for i, j in enumerate(mine)])
        assert f(x, rows).tobytes() == want.tobytes()


def _curve_distance(p1, p2, k, rho):
    """Distance from (p1, p2) to the increasing curve s2 = k s1^rho.

    The foot point lies between the point's vertical and horizontal
    projections onto the curve, s1 in [p1, (p2/k)^(1/rho)]; a 1001-point
    scan of that bracket is zoomed onto the best sample's two neighbouring
    cells until they stop shrinking, at float resolution, so the result is
    the distance up to rounding and never falls below it beyond rounding.
    """
    a, b = sorted((p1, (p2 / k) ** (1.0 / rho)))

    def d2(t):
        return (t - p1) ** 2 + (k * t**rho - p2) ** 2

    best = math.inf
    while True:
        t = np.linspace(a, b, 1001)
        v = d2(t)
        j = int(np.argmin(v))
        best = min(best, float(v[j]))
        lo, hi = t[max(j - 1, 0)], t[min(j + 1, 1000)]
        if (lo, hi) == (a, b):
            return math.sqrt(best)
        a, b = lo, hi


def _brute_distance(td, s1, s2):
    """Distance from moduli (s1, s2) to the complement of a ModulusRegion:
    the finite-end curves, plus each coordinate axis outside the region."""
    out = math.inf
    for log_k, axis in ((td.log_k1, s2), (td.log_k2, s1)):
        if math.isfinite(log_k):
            out = min(out, axis, _curve_distance(s1, s2, math.exp(log_k),
                                                 td.rho))
    return out


@st.composite
def modulus_translates(draw):
    """A LevelBand, SubLevel or SuperLevel translate at a random anchor."""
    params = draw(multipliers(1.1, 8.0))
    lk1 = draw(st.floats(-2.0, 1.0))
    lk2 = lk1 + draw(st.floats(0.1, 3.0))
    kind = draw(st.sampled_from(["band", "sub", "super"]))
    spec, lo, hi = {"band": (LevelBand(math.exp(lk1), math.exp(lk2)), lk1, lk2),
                    "sub": (SubLevel(math.exp(lk2)), lk2 - 4.0, lk2),
                    "super": (SuperLevel(math.exp(lk1)), lk1, lk1 + 4.0)}[kind]
    z = cmath.rect(math.exp(draw(st.floats(-1.0, 1.0))), draw(phases))
    log_k = lo + draw(st.floats(0.05, 0.95)) * (hi - lo)
    w = cmath.rect(math.exp(log_k) * abs(z) ** params.rho, draw(phases))
    try:
        return translate_domain(spec, (z, w), params)
    except EvaluationError:   # the reduced anchor rounded onto the boundary
        assume(False)


# moduli near both axes and the cusp at the origin, or on a finite-end curve
_log_moduli = st.floats(-12.0, 3.0)


@PROPERTY
@given(td=modulus_translates(),
       shifts=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=6),
       n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
def test_modulus_rows_give_each_region_its_own_bits(td, shifts, n, seed):
    # regions of one walk_kind differ in their ends alone; each point, with
    # its region's walk_row as a column, gets that region's own bits
    regions = [ModulusRegion(td.log_k1 + s, td.log_k2 + s, td.rho)
               for s in shifts]
    assert {r.walk_kind for r in regions} == {td.walk_kind}
    rng = np.random.default_rng(seed)
    x = np.exp(rng.uniform(-3.0, 1.0, (n, 4))) * rng.choice([-1.0, 1.0],
                                                           (n, 4))
    mine = rng.integers(0, len(regions), n)
    rows = np.array([regions[j].walk_row for j in mine]).T
    want = np.concatenate([regions[j].distance(x[i:i + 1])
                           for i, j in enumerate(mine)])
    assert td.distance_rows(x, rows).tobytes() == want.tobytes()


@PROPERTY
@given(td=modulus_translates(),
       pts=st.lists(st.tuples(_log_moduli, _log_moduli, phases, phases,
                              st.sampled_from(["free", "lower", "upper"])),
                    max_size=6),
       seed=st.integers(0, 2**32 - 1))
def test_modulus_distance_is_a_certified_lower_bound(td, pts, seed):
    # plus 24 log-uniform points, which fill the cusp region evenly
    rng = np.random.default_rng(seed)
    pts = pts + [(*rng.uniform(-12.0, 3.0, 2), *rng.uniform(-3.0, 3.0, 2),
                  "free") for _ in range(24)]
    x = []
    for l1, l2, p1, p2, where in pts:
        end = {"free": None, "lower": td.log_k1, "upper": td.log_k2}[where]
        if end is not None and math.isfinite(end):
            l2 = end + td.rho * l1     # on the boundary curve
        z, w = cmath.rect(math.exp(l1), p1), cmath.rect(math.exp(l2), p2)
        x.append([z.real, z.imag, w.real, w.imag])
    x = np.array(x)
    d = td.distance(x)
    for xi, di in zip(x, d):
        s1, s2 = math.hypot(xi[0], xi[1]), math.hypot(xi[2], xi[3])
        F = math.log(s2) - td.rho * math.log(s1)
        margin = min(F - td.log_k1, td.log_k2 - F)
        assert 0.0 <= di <= (_brute_distance(td, s1, s2) * (1.0 + 1e-9)
                             + 1e-12 * min(s1, s2))
        if margin < -1e-9:
            assert di == 0.0
        elif margin > 1e-9:
            assert di > 0.0
    # the coordinate axis beyond each finite end lies outside
    axes = []
    if math.isfinite(td.log_k2):
        axes.append([0.0, 0.0, 1.0, 0.0])   # xi = 0
    if math.isfinite(td.log_k1):
        axes.append([1.0, 0.0, 0.0, 0.0])   # eta = 0
    assert not td.distance(np.array(axes)).any()


@st.composite
def modulus_regions(draw):
    """A ModulusRegion about the identity, rho in [1, 20], finite ends in
    [-8, 8].  A lower end may instead put the curve through s2 = 1 near
    s1 = 2, where its foot point competes with the one below the identity
    and with the eta = 0 axis, all about 1 away."""
    rho = draw(st.floats(1.0, 20.0))
    tie = -rho * math.log(draw(st.floats(1.9, 2.1)))
    lo = draw(st.one_of(st.just(-math.inf), st.floats(-8.0, -1e-3),
                        st.just(max(tie, -8.0))))
    hi = draw(st.one_of(st.just(math.inf), st.floats(1e-3, 8.0)))
    assume(math.isfinite(lo) or math.isfinite(hi))
    return ModulusRegion(lo, hi, rho)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(td=modulus_regions())
def test_modulus_distance_bracket_holds_the_distance(td):
    lo, hi = td.distance_bounds()
    d = _brute_distance(td, 1.0, 1.0)
    assert lo <= d * (1.0 + 1e-9)
    assert hi >= d * (1.0 - 1e-9)
    assert hi - lo <= 2e-10 * (1.0 + 1e-6)


@st.composite
def fiber_cases(draw):
    """(field, invariants, z') reaching every enumeration branch of
    fiber_set: rational rho with twist 0, pi or generic, irrational rho,
    and non-proportional fields (deck-only for an integer real ratio)."""
    if draw(st.booleans()):
        r = draw(st.floats(1.1, 8.0))
        rho = draw(st.sampled_from([1.0, 1.5, 2.0, 4.0 / 3.0, 2.5]))
        params = HopfParams(cmath.rect(r, draw(phases)),
                            cmath.rect(r**rho, draw(phases)))
    else:
        params = draw(multipliers(1.1, 8.0))
    inv = derive_invariants(params, Numeric())
    alpha = cmath.rect(draw(st.floats(0.1, 2.0)), draw(phases))
    # B != 0 keeps the scalar reference fast: with a rational real ratio
    # most of the square-ring stream repeats earlier values
    ratio = draw(st.one_of(
        st.builds(complex, st.integers(-3, 3)),
        st.builds(complex, st.floats(-3.0, 3.0),
                  st.one_of(st.floats(-3.0, -0.05), st.floats(0.05, 3.0)))))
    X = draw(st.sampled_from([unit_field(params),
                              VectorField(alpha, alpha * ratio)]))
    z_prime = cmath.rect(math.exp(draw(st.floats(-3.0, 3.0))), draw(phases))
    return X, inv, z_prime


@PROPERTY
@given(case=fiber_cases(), N=st.integers(1, 2048))
def test_fiber_set_matches_scalar_reference(case, N):
    X, inv, z_prime = case
    assert (fiber_bits(fiber_set(X, z_prime, inv, N))
            == fiber_bits(reference_fiber_set(X, z_prime, inv, N)))


@PROPERTY
@given(A=st.floats(0.0, 1.0), B=st.floats(-1.0, 1.0), z=coordinates(),
       w=coordinates(), pt=st.tuples(coordinates(), coordinates()))
def test_smooth_residual_is_the_kind_formula(A, B, z, w, pt):
    assume(A > 0.0 or B > 0.0)
    params = HopfParams(2 + 0j, 4 + 0j)
    spec = Nemirovskii(A, B)
    got = spec.smooth_residual(pt, params)(z, w)
    assert _bits(got) == _bits(spec.A * w.real + spec.B * w.imag)

    def psi(zz, ww):
        return np.float64(A) * ww.real - B * abs(zz)

    got = ImplicitDomain(psi).smooth_residual(pt, params)(z, w)
    assert type(got) is float
    assert _bits(got) == _bits(float(psi(z, w)))

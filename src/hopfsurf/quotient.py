"""Fundamental-domain reduction for the multiplier quotient.

Points of C^2 minus the origin are reduced modulo (z, w) ~ (a z, b w) into
the closed shell

    F = E1 u E2,   E1 = {|z| <= |a|} x {1 < |w| <= |b|},
                   E2 = {1 < |z| <= |a|} x {|w| <= |b|},

which contains exactly one representative of every orbit (up to the boundary
gluings (z, w) ~ (z/a, w/b) on the outer faces).  The two special orbits of
the coordinate tori are the circles {w = 0} and {z = 0} inside F.

The deck-invariant exhaustion coordinate is

    U(z, w) = log|z|/log|a| - log|w|/log|b|,

whose level sets S_c = {|w| = k |z|^rho}, k = exp(-c log|b|), foliate the
complement of the tori.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CaseError, EvaluationError, InvalidInputError
from .invariants import HopfParams, InvariantSet

_LN2 = math.log(2.0)
_DBL_MIN = sys.float_info.min  # the smallest normal float
_DBL_MAX = sys.float_info.max


@dataclass(frozen=True)
class HopfPoint:
    """A reduced quotient point: representative in F plus its lift index.

    The original input equals (a**lift_index * rep_z, b**lift_index * rep_w).
    """

    rep_z: complex
    rep_w: complex
    lift_index: int
    on_Ta: bool  # w = 0: the z-axis torus
    on_Tb: bool  # z = 0: the w-axis torus

    def __post_init__(self):
        if self.on_Ta and self.on_Tb:
            raise InvalidInputError("origin is not a point of the quotient")

    @property
    def rep(self) -> tuple[complex, complex]:
        return (self.rep_z, self.rep_w)


def _in_fundamental_domain(z, w, params: HopfParams):
    """Whether (z, w) lies in F = E1 u E2, that is |z| <= |a|, |w| <= |b|
    and outside the closed unit bidisc.  Complex scalars or arrays (of
    points or of their moduli) alike; arrays give an elementwise mask."""
    az, aw = abs(z), abs(w)
    A, B = abs(params.a), abs(params.b)
    return (az <= A) & (aw <= B) & ((1.0 < az) | (1.0 < aw))


def _shell_violation(z: complex, w: complex, params: HopfParams) -> float:
    """Relative distance of (z, w) from E1 union E2 in log-modulus terms."""
    az, aw = abs(z), abs(w)
    A, B = abs(params.a), abs(params.b)
    e1 = max(az / A - 1.0, 1.0 - aw, aw / B - 1.0, 0.0)
    e2 = max(1.0 - az, az / A - 1.0, aw / B - 1.0, 0.0)
    return min(e1, e2)


def _log_modulus(x: complex) -> float:
    """log|x|, -inf at 0; x is scaled by a power of two first where abs(x)
    would overflow (above DBL_MAX) or lose bits (below the smallest normal)."""
    try:
        r = abs(x)
        if r >= _DBL_MIN:
            return math.log(r)
    except OverflowError:
        pass
    if x == 0:
        return -math.inf
    k = math.frexp(max(abs(x.real), abs(x.imag)))[1]
    y = complex(math.ldexp(x.real, -k), math.ldexp(x.imag, -k))
    return math.log(abs(y)) + k * _LN2


def _deck_divide(x: complex, c: complex, n: int, log_c: float) -> complex:
    """x / c**n.  From |n| log|c| = 708 on, where c**n leaves the normal
    floats, or where the plain quotient overflows in its intermediate sums
    (components of x near DBL_MAX), |c|**-n = 2**e is applied as ldexp by
    ceil(e) times 2**(e - ceil(e)), and the phase by cmath.rect, whose
    modulus is exact where a rounded c/|c| raised to n would drift by n eps."""
    if abs(n) * log_c < 708.0:
        r = x / c**n
        if cmath.isfinite(r):
            return r
    e = -n * log_c / _LN2
    k = math.ceil(e)
    y = complex(math.ldexp(x.real, k), math.ldexp(x.imag, k))
    return y * cmath.rect(2.0**(e - k), -n * cmath.phase(c))


def _quotient_point(pt) -> tuple[complex, complex]:
    z, w = complex(pt[0]), complex(pt[1])
    if not (cmath.isfinite(z) and cmath.isfinite(w)):
        name, x = ("w", w) if cmath.isfinite(z) else ("z", z)
        raise InvalidInputError(f"coordinate {name} = {x} is not finite")
    if z == 0 and w == 0:
        raise InvalidInputError("(0, 0) does not represent a quotient point")
    return z, w


def _hopf_point(rz: complex, rw: complex, n: int, on_Ta: bool,
                on_Tb: bool) -> HopfPoint:
    """HopfPoint without the frozen-dataclass __init__ and __post_init__,
    for callers whose input already passed _quotient_point (so not both
    flags hold)."""
    pt = object.__new__(HopfPoint)
    pt.__dict__.update(rep_z=rz, rep_w=rw, lift_index=n, on_Ta=on_Ta,
                       on_Tb=on_Tb)
    return pt


# |rep| bound above which index floor(t) - 1 cannot lie in F (see below)
_FAST_MARGIN = 1.0 + 1e-9


def reduce_point(pt: tuple[complex, complex], params: HopfParams) -> HopfPoint:
    """Reduce (z, w) != (0, 0) to its representative in F.

    F = {|z| <= |a|, |w| <= |b|} minus the closed unit bidisc, so the lift
    index is ceil(t) - 1 with t = max(log|z|/log|a|, log|w|/log|b|).  Of
    the window floor(t) + (-1, 0, 1), which absorbs the rounding of t, the
    smallest index with its representative in F wins (deterministic on the
    glued outer faces), else the one of least shell violation if <= 1e-12.
    A representative above DBL_MAX (|a| or |b| above about 1e154) is
    outside F.  The fast path returns the floor(t) representative when it
    lies in F with max(|rep_z|, |rep_w|) > 1 + 1e-9: index floor(t) - 1 is
    then outside F, so the window would pick the same index.  Every other
    point (within that margin of the inner faces, floor(t) outside F, an
    overflow) runs the window.

    Raises InvalidInputError for the origin or a NaN/inf coordinate, and
    EvaluationError when no index comes within 1e-12 of F.  Rounding moves
    a coordinate near its face by a log-modulus of a few eps |log|x||,
    under 4e-13 anywhere in the float range and for any |a|, |b|, so that
    error marks a broken bound rather than an input range.
    """
    z, w = _quotient_point(pt)
    la, lb = params.log_abs_a, params.log_abs_b
    n0 = math.floor(max(_log_modulus(z) / la, _log_modulus(w) / lb))
    # Exactly, the floor(t) - 1 representative is (a rz, b rw), which lies
    # in F only if |rz| <= 1 and |rw| <= 1.  Rounding moves a modulus by
    # under 4e-13 (see above), so past the margin the window also rejects
    # floor(t) - 1 and returns this representative, computed by the same
    # _deck_divide calls, bit for bit.
    try:
        rz = _deck_divide(z, params.a, n0, la)
        rw = _deck_divide(w, params.b, n0, lb)
        az, aw = abs(rz), abs(rw)
    except OverflowError:
        pass
    else:
        if (_in_fundamental_domain(az, aw, params)
                and max(az, aw) > _FAST_MARGIN):
            return _hopf_point(rz, rw, n0, w == 0, z == 0)
    return _reduce_window(pt, z, w, n0, params)


def _reduce_window(pt, z: complex, w: complex, n0: int,
                   params: HopfParams) -> HopfPoint:
    """reduce_point over the whole window floor(t) + (-1, 0, 1)."""
    la, lb = params.log_abs_a, params.log_abs_b
    window = []
    for n in (n0 - 1, n0, n0 + 1):
        try:
            rz = _deck_divide(z, params.a, n, la)
            rw = _deck_divide(w, params.b, n, lb)
            if _in_fundamental_domain(rz, rw, params):
                break
        except OverflowError:  # |rep| > DBL_MAX; n0 + 1 never overflows
            continue
        window.append((n, rz, rw))
    else:
        v, n, rz, rw = min((_shell_violation(rz, rw, params), n, rz, rw)
                           for n, rz, rw in window)
        if v > 1e-12:
            raise EvaluationError(
                f"could not reduce {pt} into the fundamental shell")
    return _hopf_point(rz, rw, n, w == 0, z == 0)


def _modulus(x: np.ndarray) -> np.ndarray:
    """|x| elementwise, rounded as the scalar abs() rounds it (libm hypot);
    numpy's complex abs can differ in the last bit, which moves a point
    across a face of F."""
    return np.hypot(x.real, x.imag)


def _quot(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    """x / d by Smith's algorithm in the operation order of CPython's
    complex division (the scalar x / c**n), where numpy's multiplies by a
    rounded reciprocal instead."""
    re_big = np.abs(d.real) >= np.abs(d.imag)
    p, q = np.where(re_big, d.real, d.imag), np.where(re_big, d.imag, d.real)
    ratio = q / p
    denom = p + q * ratio
    xr, xi = x.real, x.imag
    re = np.where(re_big, xr + xi * ratio, xr * ratio + xi) / denom
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = np.where(re_big, xi - xr * ratio, xi * ratio - xr) / denom
    return out


def reduce_points(z, w, params: HopfParams
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """reduce_point over (N,) arrays: (rep_z, rep_w, lift_index) arrays.

    Row i equals reduce_point((z[i], w[i]), params) bit for bit.  A row is
    reduced with whole-array operations when its moduli are normal floats,
    |n| log|c| < 708 and the representative at n = floor(t) passes the fast
    path's rule (in F, max(|rep_z|, |rep_w|) > _FAST_MARGIN).  numpy's log
    may differ from libm's by an ulp, so reduce_point may floor t to n - 1,
    n or n + 1; past the margin index n - 1 lies outside F, and it picks n
    in each case.  Each rounding step is the scalar path's (hypot, the
    Python power c**n, CPython's complex division).  Every other row
    (NaN/inf, the origin, a zero, subnormal or overflowing modulus, the
    ldexp split, a row within the margin, the ulp tie-break) goes through
    reduce_point, so the first row that reduce_point rejects raises its
    error.
    """
    z = np.asarray(z, dtype=complex)
    w = np.asarray(w, dtype=complex)
    rep_z, rep_w = np.empty_like(z), np.empty_like(w)
    lift = np.zeros(z.shape, dtype=np.int64)
    with np.errstate(all="ignore"):
        mz, mw = _modulus(z), _modulus(w)
        rows = np.flatnonzero((_DBL_MIN <= mz) & (mz <= _DBL_MAX)
                              & (_DBL_MIN <= mw) & (mw <= _DBL_MAX))
        la, lb = params.log_abs_a, params.log_abs_b
        n = np.floor(np.maximum(np.log(mz[rows]) / la,
                                np.log(mw[rows]) / lb)).astype(np.int64)
        plain = np.abs(n) * max(la, lb) < 708.0
        rows, n = rows[plain], n[plain]
        ns, at = np.unique(n, return_inverse=True)
        rz = _quot(z[rows],
                   np.array([complex(params.a**k) for k in ns.tolist()])[at])
        rw = _quot(w[rows],
                   np.array([complex(params.b**k) for k in ns.tolist()])[at])
        az, aw = _modulus(rz), _modulus(rw)
        # NaN compares false, so a non-finite representative fails here too
        ok = (_in_fundamental_domain(az, aw, params)
              & (np.maximum(az, aw) > _FAST_MARGIN))
    rows = rows[ok]
    rep_z[rows], rep_w[rows], lift[rows] = rz[ok], rw[ok], n[ok]
    rest = np.ones(z.shape, dtype=bool)
    rest[rows] = False
    for i in np.flatnonzero(rest).tolist():
        pt = reduce_point((complex(z[i]), complex(w[i])), params)
        rep_z[i], rep_w[i], lift[i] = pt.rep_z, pt.rep_w, pt.lift_index
    return rep_z, rep_w, lift


def _close(u: complex, v: complex, tol: float) -> bool:
    return abs(u - v) <= tol * (1.0 + max(abs(u), abs(v)))


def equivalent(pt1, pt2, params: HopfParams, tol: float) -> bool:
    """True iff pt1 and pt2 represent the same quotient point within tol.

    Representatives are compared componentwise; a representative on the
    outer boundary (|z| = |a| or |w| = |b|) is additionally compared against
    its inner gluing image (z/a, w/b).
    """
    r1 = reduce_point(pt1, params)
    r2 = reduce_point(pt2, params)
    if _close(r1.rep_z, r2.rep_z, tol) and _close(r1.rep_w, r2.rep_w, tol):
        return True
    for x, y in ((r1, r2), (r2, r1)):
        gz, gw = x.rep_z / params.a, x.rep_w / params.b
        if _close(gz, y.rep_z, tol) and _close(gw, y.rep_w, tol):
            return True
    return False


def u_value(pt, params: HopfParams, extended: bool = False) -> float:
    """The deck-invariant coordinate U = log|z|/log|a| - log|w|/log|b|.

    U is undefined on the coordinate tori; with extended=True those return
    +inf (w = 0) and -inf (z = 0) instead of raising.
    """
    z, w = _quotient_point(pt)
    if z == 0 or w == 0:
        if not extended:
            raise EvaluationError(
                "U is undefined on the coordinate tori (pass extended=True "
                "for the +-inf convention)")
        return math.inf if w == 0 else -math.inf
    return (_log_modulus(z) / params.log_abs_a
            - _log_modulus(w) / params.log_abs_b)


@dataclass(frozen=True)
class LevelResidual:
    """Two equivalent signed residuals for membership in a level set S_c."""

    residual: float          # U(pt) - c
    k: float                 # exp(-c log|b|)
    modulus_residual: float  # log|w| - log k - rho log|z|


def level_membership(pt, c: float, params: HopfParams) -> LevelResidual:
    """Signed residual of pt against the level set S_c = {|w| = k |z|^rho}."""
    z, w = _quotient_point(pt)
    if z == 0 or w == 0:
        raise EvaluationError("level sets do not meet the coordinate tori")
    u = u_value(pt, params)
    k = math.exp(-c * params.log_abs_b)
    mod_res = _log_modulus(w) - math.log(k) - params.rho * _log_modulus(z)
    return LevelResidual(residual=u - c, k=k, modulus_residual=mod_res)


def leaf_equivalent(c1: complex, c2: complex, inv: InvariantSet,
                    tol: float) -> bool:
    """Whether the compact leaves labelled c1 and c2 coincide.

    Only meaningful when both invariants are rational (the leaves are closed
    curves); the label is defined up to the root-of-unity group K, so the
    test is min over k in K of |c2/c1 - k| <= tol.
    """
    if inv.case_tag != "CaseB2":
        raise CaseError("leaf labels are only defined when rho and tau are "
                        f"both rational, invariants are {inv.case_tag}")
    if c1 == 0:
        raise InvalidInputError("leaf label c1 must be nonzero")
    ratio = c2 / c1
    return min(abs(ratio - k) for k in inv.K) <= tol

"""Levi curvature of boundary residuals and the boundary-graph case ladder.

For a real C^2 defining function psi(z, w) the (scaled) Levi determinant is

    L(psi) = psi_zzbar |psi_w|^2 - 2 Re{ psi_zwbar psi_zbar psi_w }
             + psi_wwbar |psi_z|^2,

which is zero on Levi-flat boundaries, positive on strictly pseudoconvex
ones, and scales like lambda^3 under psi -> lambda psi.

The second half of the module studies local boundary graphs

    psi = v + p0(z) + p1(z) u + p2(z) u^2 + ...,   w = u + iv,

with p0(0) = 0 and p1(0) = 0, and searches for a nearby z* where p0(z*) > 0
(the boundary bends into {v < 0} somewhere arbitrarily close to the base
point).  The search follows a case ladder on the leading homogeneous part
of p0: gradient direction, positive Laplacian, pure z^2 term, odd leading
degree (circle maximization of an associated polynomial), even leading
degree with or without off-diagonal terms.
"""

from __future__ import annotations

import cmath
import contextlib
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .errors import (EvaluationError, InvalidInputError, PreconditionError,
                     _require_samples, _require_nonneg, _require_seed)
from .invariants import HopfParams
from .poly import ZERO, RealPoly2
from . import domains as _dom

_COEFF_TOL = 1e-12
_SHRINK_BUDGET = 60
_CIRCLE_GRID = 4096
# e^{i theta} on the circle grid; power-of-two subgrids are slices of it
_THETAS = np.linspace(0.0, 2 * math.pi, _CIRCLE_GRID, endpoint=False)
_UNIT = np.array([cmath.exp(1j * t) for t in _THETAS])


# ---------------------------------------------------------------------------
# Levi form


@dataclass(frozen=True)
class Jet2:
    """Second-order Wirtinger jet of a real function of (z, w)."""

    value: float
    d_z: complex
    d_w: complex
    d_zzbar: float
    d_wwbar: float
    d_zwbar: complex

    def scaled(self, lam: float) -> "Jet2":
        return Jet2(lam * self.value, lam * self.d_z, lam * self.d_w,
                    lam * self.d_zzbar, lam * self.d_wwbar,
                    lam * self.d_zwbar)


def _square(x: float) -> float:
    """x ** 2 as libm's pow rounds it, which need not be x * x; inf, not
    OverflowError, past the float range."""
    try:
        return x ** 2
    except OverflowError:
        return math.inf


def levi_form(jet: Jet2) -> float:
    """The Levi determinant of the jet (cubic under jet scaling)."""
    t1 = jet.d_zzbar * _square(abs(jet.d_w))
    t2 = -2.0 * (jet.d_zwbar * jet.d_z.conjugate() * jet.d_w).real
    t3 = jet.d_wwbar * _square(abs(jet.d_z))
    return t1 + t2 + t3


def numeric_jet(psi: Callable, point, h: float = 4e-4,
                richardson: bool = True) -> Jet2:
    """Central-difference jet of psi at (z, w).

    psi takes (z, w) complex and returns a real value; differences are taken
    in the four real coordinates and assembled into Wirtinger derivatives.
    Internally the function is pulled back through (zeta, omega) ->
    (z0 zeta, w0 omega) so that the step size is relative to the base point
    (log-type residuals near a coordinate axis stay well-conditioned), and
    the derivatives are chain-ruled back to the original coordinates.
    One pass evaluates psi at 25 distinct points: the base point, +-h on
    each real axis (shared by the first and pure second differences) and
    the four corners of each mixed (z, w) difference.  With richardson=True
    (default) the O(h^2) truncation term is eliminated by a second pass at
    h/2 that reuses the base point, 49 evaluations in all.

    Known limitation: near a coordinate axis the relative step is tiny and
    rounding spoils polynomial residuals: the unit sphere's Levi value 1
    comes out as 1 + 6.4e-5 at a point with |w| ~ 6e-3.  The chain rule
    divides by |z0|^2, |w0|^2 and z0 conj(w0); EvaluationError when one
    underflows to 0.
    """
    z0, w0 = complex(point[0]), complex(point[1])
    s1 = z0 if z0 != 0 else 1.0 + 0j
    s2 = w0 if w0 != 0 else 1.0 + 0j
    c1, c2 = z0 / s1, w0 / s2  # base point of the pulled-back function
    # the chain rule's divisors
    n1, n2, n12 = _square(abs(s1)), _square(abs(s2)), s1 * s2.conjugate()
    if not (n1 and n2 and n12):
        raise EvaluationError(f"the jet at {point} is out of the float "
                              "range: |z|^2, |w|^2 or z conj(w) underflows")

    def f(*steps):
        d = [0.0] * 4  # offsets in (x1, y1, x2, y2), one per (axis, step)
        for k, dk in steps:
            d[k] = dk
        return float(psi(s1 * (c1 + complex(d[0], d[1])),
                         s2 * (c2 + complex(d[2], d[3]))))

    f0 = f()

    def one_pass(h: float) -> Jet2:
        axis = [(f((k, h)), f((k, -h))) for k in range(4)]
        gx1, gy1, gx2, gy2 = [(p - m) / (2 * h) for p, m in axis]
        hx1, hy1, hx2, hy2 = [(p - 2 * f0 + m) / h**2 for p, m in axis]

        def mixed(i: int, j: int) -> float:
            pp, pm = f((i, h), (j, h)), f((i, h), (j, -h))
            mp, mm = f((i, -h), (j, h)), f((i, -h), (j, -h))
            return (pp - pm - mp + mm) / (4 * h**2)

        m_x1x2, m_x1y2, m_y1x2, m_y1y2 = [mixed(i, j) for i in (0, 1)
                                          for j in (2, 3)]

        # jet of the pulled-back function; the chain rule undoes the scaling
        d_zeta = 0.5 * complex(gx1, -gy1)
        d_omega = 0.5 * complex(gx2, -gy2)
        d_zzb = 0.25 * (hx1 + hy1)
        d_wwb = 0.25 * (hx2 + hy2)
        d_zwb = 0.25 * complex(m_x1x2 + m_y1y2, m_x1y2 - m_y1x2)
        return Jet2(
            value=f0,
            d_z=d_zeta / s1,
            d_w=d_omega / s2,
            d_zzbar=d_zzb / n1,
            d_wwbar=d_wwb / n2,
            d_zwbar=d_zwb / n12,
        )

    if not richardson:
        return one_pass(h)
    j1, j2 = one_pass(h), one_pass(h / 2)
    return Jet2(j1.value, *[(4 * getattr(j2, fd.name) - getattr(j1, fd.name))
                            / 3 for fd in fields(Jet2)[1:]])


@dataclass(frozen=True)
class ScanReport:
    min_levi: float
    max_levi: float
    n_evaluated: int
    violations: list  # boundary points with Levi value < -tol
    pseudoconvex_at_samples: bool


def pseudoconvexity_scan(spec, n_samples: int, tol: float,
                         params: HopfParams, seed: int,
                         inv=None) -> ScanReport:
    """Numeric Levi values of the boundary residual at sampled boundary points.

    InvalidInputError for n_samples < 1 or a tol that is negative or not
    finite; EvaluationError when a Levi value is not a finite float.
    """
    _require_samples(n_samples)
    _require_nonneg(tol)
    _require_seed(seed)
    rng = np.random.default_rng(seed)
    pts = _dom._boundary_samples(spec, n_samples, params, inv, rng)
    if not pts:
        raise EvaluationError("no boundary points found for this spec")
    vals = []
    bad = []
    for pt in pts:
        psi = spec.smooth_residual(pt, params, inv)
        lv = levi_form(numeric_jet(psi, pt))
        if not math.isfinite(lv):
            raise EvaluationError(f"the Levi value at the boundary point "
                                  f"{pt} is {lv}: out of the float range")
        vals.append(lv)
        if lv < -tol:
            bad.append((pt, lv))
    return ScanReport(min_levi=min(vals), max_levi=max(vals),
                      n_evaluated=len(vals), violations=bad,
                      pseudoconvex_at_samples=(min(vals) >= -tol))


# ---------------------------------------------------------------------------
# boundary graphs


@dataclass(frozen=True)
class BoundaryModel:
    """psi = v + p[0](z) + p[1](z) u + p[2](z) u^2 + ... near the origin."""

    p: tuple  # of RealPoly2

    def __post_init__(self):
        if len(self.p) == 0:
            raise InvalidInputError("need at least p0")
        for q in self.p:
            if not isinstance(q, RealPoly2):
                raise InvalidInputError("coefficients must be RealPoly2")
        if abs(self.p[0](0j)) > 0:
            raise InvalidInputError("p0(0) must vanish")
        if len(self.p) > 1 and abs(self.p[1](0j)) > 0:
            raise InvalidInputError("p1(0) must vanish")
        # the Levi residual differentiates p0 twice and p1 once; a
        # derivative coefficient that overflows is named here, not as an
        # overflow on the search disk
        for n, order in ((0, 2), (1, 1)):
            for (i, j), c in self.coeff(n).coeffs.items():
                ds = [c * e for e in (i, j) if e > 0]
                if order == 2:
                    ds += [c * e * (e - 1) for e in (i, j) if e > 1]
                bad = [d for d in ds if not math.isfinite(d)]
                if bad:
                    raise InvalidInputError(
                        f"the p{n} coefficient {c:g} of x^{i} y^{j} has the "
                        f"derivative coefficient {bad[0]:g}")

    def coeff(self, i: int) -> RealPoly2:
        return self.p[i] if i < len(self.p) else ZERO

    def arc_v(self, z: complex, u: float) -> float:
        """The v-value of the boundary graph over (z, u)."""
        return -sum(q(z) * u**i for i, q in enumerate(self.p))


def levi2_residual(model: BoundaryModel, z: complex) -> float:
    """Left-hand side of the graph pseudoconvexity inequality at u = 0.

    (1 + p1^2) Lap(p0)/4 - 2 Re{ p1_z p0_zbar (-i + p1) } + 2 p2 |p0_z|^2;
    nonnegative for all z iff the graph bounds a pseudoconvex side at u = 0.
    Elementwise when z is a complex array.
    """
    p0, p1, p2 = model.coeff(0), model.coeff(1), model.coeff(2)
    p1v = p1(z)
    t1 = (1.0 + p1v**2) * p0.laplacian(z) / 4.0
    p1_z, p0_z = p1.wirtinger_z(z), p0.wirtinger_z(z)
    t2 = -2.0 * (p1_z * p0_z.conjugate() * (p1v - 1j)).real
    # no p2 term is no term: 0 times an overflowing |p0_z|^2 would be NaN
    t3 = 2.0 * p2(z) * abs(p0_z) ** 2 if p2.coeffs else 0.0
    return t1 + t2 + t3


@dataclass(frozen=True)
class DiamondResult:
    found: bool
    case: str
    z_star: Optional[complex] = None
    p0_value: Optional[float] = None
    trace: tuple = ()
    violation: Optional[complex] = None   # see diamond_search


def _max_on_circle(fn: Callable, r: float):
    """(theta*, value) maximizing fn(r e^{i theta}): one call of fn on the
    complex array r * _UNIT (the grid), then a scalar golden-section refine;
    OverflowError if a grid value is not finite."""
    i = int(np.argmax(_finite(fn(r * _UNIT))))
    span = 2 * math.pi / _CIRCLE_GRID
    a, b = _THETAS[i] - span, _THETAS[i] + span
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = fn(r * cmath.exp(1j * c))
    fd = fn(r * cmath.exp(1j * d))
    for _ in range(60):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(r * cmath.exp(1j * c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(r * cmath.exp(1j * d))
    t = 0.5 * (a + b)
    return t, fn(r * cmath.exp(1j * t))


def _leading_data(p0: RealPoly2):
    """Smallest degree with a nonvanishing homogeneous part, plus that part."""
    scale = max((abs(c) for c in p0.coeffs.values()), default=0.0)
    if scale == 0.0:
        return None, None
    for d in range(1, p0.degree + 1):
        part = p0.homogeneous_part(d)
        if not part.is_zero(tol=_COEFF_TOL * scale):
            return d, part
    return None, None


def _ladder(p0: RealPoly2, trace: list):
    """(case, unit direction) from the low-order terms of p0, traced.

    A direction of None means: maximize p0 on each shrinking circle.
    """
    gx, gy = p0.dx().eval(0.0, 0.0), p0.dy().eval(0.0, 0.0)
    gn = math.hypot(gx, gy)
    if gn > _COEFF_TOL:
        trace.append("gradient nonzero at 0")
        return "gradient", complex(gx, gy) / gn

    d, lead = _leading_data(p0)
    if d is None:
        raise PreconditionError("p0 is identically zero")
    trace.append(f"leading homogeneous degree {d}")
    A = lead.complex_coeffs(d)

    if d == 2:
        a11 = A.get((1, 1), 0j).real
        a20 = 2.0 * A.get((2, 0), 0j)
        if a11 > _COEFF_TOL:
            trace.append(f"a11 = {a11:.6g} > 0: subharmonic circle search")
            return "a11-positive", None
        if abs(a20) > _COEFF_TOL:
            theta = -cmath.phase(a20) / 2.0
            trace.append(f"a11 ~ 0, a20 != 0: direction {theta:.6g}")
            return "a20", cmath.exp(1j * theta)
        trace.append("degenerate quadratic part")
        return "generic-fallback", None

    n = (d + 1) // 2
    uppers = [(k, 2.0 * A.get((d - k, k), 0j)) for k in range(n)]
    odd = d % 2 == 1
    if odd or any(abs(c) > _COEFF_TOL for _, c in uppers):
        # maximize Re g on the unit circle, g(Z) = sum_k w_k a_{d-k,k} Z^{d-2k}
        # (coefficients doubled off-diagonal) with w_k = 1 for odd d = 2n-1
        # and w_k = 1 - (2n-k) k / n^2 for even d = 2n
        gcoef = [(d - 2 * k, c if odd else c * (1.0 - (d - k) * k / n**2))
                 for k, c in uppers]
        theta, _ = _max_on_circle(
            lambda zc: sum((c * zc**e).real for e, c in gcoef), 1.0)
        kind, label = ("odd", "circle") if odd else ("even", "weighted circle")
        trace.append(f"{kind} leading degree {d}: {label} direction "
                     f"{theta:.6g}")
        return f"{kind}-leading", cmath.exp(1j * theta)
    a_n = A.get((n, n), 0j).real
    if a_n > _COEFF_TOL:
        trace.append(f"even leading degree {d}, diagonal a_n = {a_n:.6g} > 0")
        return "radial-subharmonic", None
    trace.append("even leading degree with nonpositive diagonal")
    return "generic-fallback", None


def _require_r1(r1: float) -> None:
    if not (math.isfinite(r1) and r1 > 0):
        raise InvalidInputError(f"r1 must be finite and > 0, got {r1}")


@contextlib.contextmanager
def _overflow_names_r1(r1: float):
    """numpy overflow warnings silenced; an OverflowError, from a scalar
    evaluation or from _finite, becomes EvaluationError naming r1."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            yield
    except OverflowError:
        raise EvaluationError(
            f"the model overflows on |z| <= r1 = {r1:g}") from None


def _finite(x):
    """x, or OverflowError if any of its values is inf or NaN."""
    if not np.isfinite(x).all():
        raise OverflowError
    return x


def diamond_search(model: BoundaryModel, r1: float) -> DiamondResult:
    """Find z* with 0 < |z*| < r1 and p0(z*) > 0, reporting the case used.

    The candidate direction comes from the leading homogeneous part of p0
    (see _ladder); the radius then shrinks (r -> r/2, budget 60) until p0
    is positive at the candidate or the budget runs out.  violation is a
    point of |z| = 0.3 r1 where levi2_residual < -1e-9, or None.
    EvaluationError naming r1 when a value the search decides on (a ring
    residual, a circle grid value, p0 at a candidate) overflows.
    """
    _require_r1(r1)
    p0 = model.coeff(0)
    trace = []
    with _overflow_names_r1(r1):
        ring = 0.3 * r1 * _UNIT[::_CIRCLE_GRID // 8]
        bad = ring[_finite(levi2_residual(model, ring)) < -1e-9]
        violation = complex(bad[0]) if bad.size else None

        case, unit = _ladder(p0, trace)
        r = r1 / 2.0
        for _ in range(_SHRINK_BUDGET):
            if unit is None:
                z = r * cmath.exp(1j * _max_on_circle(p0, r)[0])
            else:
                z = r * unit
            val = _finite(p0(z))
            if val > 0.0:
                return DiamondResult(found=True, case=case, z_star=z,
                                     p0_value=val, trace=tuple(trace),
                                     violation=violation)
            r /= 2.0
    trace.append(f"{case}: shrink budget exhausted")
    return DiamondResult(found=False, case=case, trace=tuple(trace),
                         violation=violation)


@dataclass(frozen=True)
class SweepReport:
    r_prime: float
    z_star: complex
    n_covered: int
    max_arc_residual: float
    diamond_case: str


def sweep_cover_check(model: BoundaryModel, r1: float,
                      n_w_samples: int = 200, seed: int = 0) -> SweepReport:
    """Certify a radius r' such that the boundary arcs over the segment
    [0, z*] sweep the whole slice D(0) within |w| < r'.

    Every sampled w below the base arc is matched to an s in [0, 1] with w on
    the arc over s z* (one-dimensional bisection; the arc residual at the
    solution is reported).  r' halves until the far arc clears every sample.
    InvalidInputError for n_w_samples < 1 or an r1 that is not finite
    and > 0; EvaluationError naming r1 when a value it decides on (the
    probe circle, an arc residual, diamond_search's) overflows.
    """
    _require_samples(n_w_samples, "n_w_samples")
    _require_seed(seed)
    _require_r1(r1)
    with _overflow_names_r1(r1):
        p0 = model.coeff(0)
        probe = _finite(np.abs(p0(0.5 * r1 * _UNIT[::_CIRCLE_GRID // 64])))
        if probe.max() <= 1e-14:
            raise PreconditionError(
                "p0 vanishes identically on the probe circle")

        dres = diamond_search(model, r1)
        if not dres.found:
            raise PreconditionError("no positivity point found; cannot anchor "
                                    f"the sweep (trace: {dres.trace})")
        z_star, P = dres.z_star, dres.p0_value

        rng = np.random.default_rng(seed)
        disk = []
        while len(disk) < n_w_samples:
            u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
            if u * u + v * v <= 1.0:
                disk.append((u, v))

        def f(s, u, v):  # elementwise over arrays
            return _finite(v - model.arc_v(s * z_star, u))

        disk = np.array(disk).T
        r_prime = min(r1, P) / 2.0
        for _ in range(_SHRINK_BUDGET):
            u, v = r_prime * disk
            below = f(0.0, u, v) < 0.0
            u, v = u[below], v[below]
            if np.all(f(1.0, u, v) > 0.0):
                break
            r_prime /= 2.0
        else:
            raise PreconditionError("could not certify a covering radius")

        # bisection for s in [0, 1], all samples in lockstep
        lo, hi = np.zeros(len(u)), np.ones(len(u))
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            neg = f(mid, u, v) < 0.0
            lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
        max_res = float(np.abs(f(0.5 * (lo + hi), u, v)).max(initial=0.0))

    return SweepReport(r_prime=r_prime, z_star=z_star, n_covered=len(u),
                       max_arc_residual=max_res, diamond_case=dres.case)

"""Invariant domains in the quotient and their classification.

Six families of deck-invariant domains are supported, each described by a
signed boundary residual (negative strictly inside):

    LevelBand(k1, k2)   union of modulus levels {|w| = k |z|^rho}, k1 < k < k2
    SubLevel(k)         levels with k' < k, together with the w = 0 torus
    SuperLevel(k)       levels with k' > k, together with the z = 0 torus
    LeafFamily(...)     union of compact leaves over a region in P^1
                        (only defined when both invariants are rational)
    Nemirovskii(A, B)   {A Re w + B Im w < 0} times the full z-plane
                        (requires the second multiplier to be real > 1)
    ImplicitDomain(psi) caller-supplied residual, evaluated on the reduced
                        representative

The level kinds share one log-ratio interval lo < log k < hi; an infinite
end adds that end's coordinate torus.  Each kind is a DomainSpec subclass
holding all of its rules: a new kind implements residual(z, w, params, inv)
on the reduced representative and classify(inv), its table row, and may
override smooth_residual(point, params, inv), the branch Levi scans
difference (default: its own residual at the unreduced point; the level
kinds override it to pick one branch of their max), translate(anchor,
params, inv) (default: EvaluationError naming the kind) and
boundary_point(z, params, inv, rng) (default: bisection along |w|).

Translation moves a domain to a reference frame centered at an anchor point
(coordinatewise division).  The level kinds become a ModulusRegion; the
Nemirovskii family becomes a ProductHalfPlane, a half-plane in the
w-coordinate whose distance to the identity is exactly cos(theta), theta the
anchor's angular offset inside the half-plane.  Each translate is its own
thread_safe walk domain in R^4, with distance and project per row; a
ProductHalfPlane walks on its HalfSpace wall, defined here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (CaseError, EvaluationError, InvalidInputError,
                     PreconditionError, _require_samples, _require_nonneg,
                     _require_seed)
from .invariants import HopfParams, InvariantSet, _arg01
from .quotient import (_in_fundamental_domain, _log_modulus, _modulus,
                       reduce_point, reduce_points)
from .flows import VectorField, flow_point


def _require_real_b(params: HopfParams) -> None:
    if params.b.imag != 0.0 or params.b.real <= 1.0:
        raise PreconditionError(
            "the half-plane family needs a real second multiplier > 1 "
            f"(got b = {params.b})")


def _log_ratio(z: complex, w: complex, rho: float) -> float:
    """log(|w| / |z|^rho); +-inf on the coordinate tori (-inf at w = 0)."""
    if w == 0:
        return -math.inf
    return _log_modulus(w) - rho * _log_modulus(z)


def _interval_residual(L: float, lo: float, hi: float) -> float:
    """max(lo - L, L - hi), or -+inf on a torus inside/outside (not NaN)."""
    if not math.isfinite(L):
        return -math.inf if L in (lo, hi) else math.inf
    return max(lo - L, L - hi)


def _random_annulus(rng, radius_hi: float) -> complex:
    r = math.exp(rng.uniform(math.log(radius_hi) - 1.5, math.log(radius_hi)))
    return r * cmath.exp(1j * rng.uniform(0.0, 2 * math.pi))


# ---------------------------------------------------------------------------
# domain specifications


@dataclass(frozen=True)
class SteinVerdict:
    status: str  # "Stein" | "NotStein" | "Undetermined"
    witness: Optional[str] = None
    reason: str = ""


@dataclass(frozen=True)
class ClassificationResult:
    theorem_type: str
    verdict: SteinVerdict
    notes: tuple = ()

    def to_dict(self) -> dict:
        return {"theorem_type": self.theorem_type,
                "status": self.verdict.status,
                "witness": self.verdict.witness,
                "reason": self.verdict.reason,
                "notes": list(self.notes)}


class DomainSpec:
    """Base of the domain kinds; the module docstring lists its methods."""

    def smooth_residual(self, point, params, inv=None) -> Callable:
        """A locally smooth defining function matching the spec near point:
        the residual at the unreduced point (reducing would jump across the
        shell faces)."""
        return lambda zz, ww: self.residual(zz, ww, params, inv)

    def translate(self, anchor, params, inv) -> TranslatedDomain:
        raise EvaluationError(f"{type(self).__name__} has no walkable "
                              "translate")

    def boundary_point(self, z, params, inv, rng):
        """Bisect along |w| between inside and outside samples, or None."""
        base = _random_annulus(rng, abs(params.b))
        scales = np.exp(np.linspace(-3.0, 3.0, 25))
        res = [evaluate_domain(self, (z, base * s), params, inv).residual
               for s in scales]
        for i in range(len(scales) - 1):
            if res[i] == 0 or (res[i] < 0) != (res[i + 1] < 0):
                lo, hi = scales[i], scales[i + 1]
                for _ in range(80):
                    mid = math.sqrt(lo * hi)
                    rm = evaluate_domain(self, (z, base * mid), params,
                                         inv).residual
                    if (rm < 0) == (res[i] < 0):
                        lo = mid
                    else:
                        hi = mid
                return z, base * math.sqrt(lo * hi)
        return None


def _check_spec(spec) -> None:
    if not isinstance(spec, DomainSpec):
        raise InvalidInputError(
            f"unknown domain spec {type(spec).__name__}")


class LevelUnion(DomainSpec):
    """Levels |w| = k |z|^rho, lo < log k < hi; subclasses set log_bounds."""

    def residual(self, z, w, params, inv):
        return _interval_residual(_log_ratio(z, w, params.rho),
                                  *self.log_bounds)

    def smooth_residual(self, point, params, inv=None):
        (lo, hi), rho = self.log_bounds, params.rho
        L = math.log(abs(point[1])) - rho * math.log(abs(point[0]))
        if lo - L >= L - hi:
            return lambda zz, ww: (lo - math.log(abs(ww))
                                   + rho * math.log(abs(zz)))
        return lambda zz, ww: math.log(abs(ww)) - rho * math.log(abs(zz)) - hi

    def translate(self, anchor, params, inv):
        # the raw anchor, not its reduced representative, which agrees
        # only up to rounding: the recentering divides by the anchor itself
        L0 = _log_ratio(complex(anchor[0]), complex(anchor[1]), params.rho)
        if not math.isfinite(L0):
            raise EvaluationError("anchor on a coordinate torus does not "
                                  "recenter a modulus region")
        lo, hi = self.log_bounds
        return ModulusRegion(log_k1=lo - L0, log_k2=hi - L0, rho=params.rho)

    def boundary_point(self, z, params, inv, rng):
        # z is redrawn: pick |w| in a moderate window and solve
        # |w| = k |z|^rho for |z|; keeping both moduli away from 0
        # conditions the numeric Levi test of the log-type residual
        ends = [e for e in self.log_bounds if math.isfinite(e)]
        # only a two-sided band draws which end to sample
        log_k = ends[0] if len(ends) == 1 or rng.random() < 0.5 else ends[1]
        lw = rng.uniform(-0.3, math.log(abs(params.b)))
        z = math.exp((lw - log_k) / params.rho) * cmath.exp(
            1j * rng.uniform(0, 2 * math.pi))
        w = math.exp(lw) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
        return z, w


def _level_row(theorem_type: str, k: float, reason: str):
    return ClassificationResult(
        theorem_type=theorem_type,
        verdict=SteinVerdict(status="NotStein",
                             witness=f"level hypersurface k = {k:.12g}",
                             reason=reason))


_ONE_SIDED = "one-sided level union; every interior level is compact"


@dataclass(frozen=True)
class LevelBand(LevelUnion):
    k1: float
    k2: float

    def __post_init__(self):
        if not (0.0 < self.k1 < self.k2 < math.inf):
            raise InvalidInputError("need 0 < k1 < k2, both finite")
        object.__setattr__(self, "log_bounds",
                           (math.log(self.k1), math.log(self.k2)))

    def classify(self, inv):
        return _level_row("A1", math.sqrt(self.k1 * self.k2),
                          "contains a compact Levi-flat level hypersurface")


@dataclass(frozen=True)
class SubLevel(LevelUnion):
    k: float

    def __post_init__(self):
        if not 0.0 < self.k < math.inf:
            raise InvalidInputError("need a finite k > 0")
        object.__setattr__(self, "log_bounds", (-math.inf, math.log(self.k)))

    def classify(self, inv):
        return _level_row("A2prime", self.k / 2, _ONE_SIDED)


@dataclass(frozen=True)
class SuperLevel(LevelUnion):
    k: float

    def __post_init__(self):
        if not 0.0 < self.k < math.inf:
            raise InvalidInputError("need a finite k > 0")
        object.__setattr__(self, "log_bounds", (math.log(self.k), math.inf))

    def classify(self, inv):
        return _level_row("A2doubleprime", 2 * self.k, _ONE_SIDED)


@dataclass(frozen=True)
class LeafFamily(DomainSpec):
    """Union of compact leaves with labels in a region of P^1.

    residual_fn is a signed boundary residual on leaf labels (complex, or
    math.inf for the point at infinity); contains0 / containsInf record
    whether 0 and infinity lie on the *boundary* of the region, in which
    case both coordinate tori are boundary components of the domain.
    """

    residual_fn: Callable
    contains0: bool = False
    containsInf: bool = False

    def residual(self, z, w, params, inv):
        if inv is None or inv.case_tag != "CaseB2":
            raise CaseError("leaf families need rational invariants "
                            "(pass the derived invariant set, CaseB2)")
        if w == 0:
            return 0.0 if self.contains0 else float(self.residual_fn(0j))
        if z == 0:
            return 0.0 if self.containsInf else float(self.residual_fn(math.inf))
        qp = inv.q / inv.p
        c = w / ((abs(z) ** qp) * cmath.exp(1j * qp * _arg01(z)))
        return min(float(self.residual_fn(c * k)) for k in inv.K)

    def classify(self, inv):
        if inv.case_tag != "CaseB2":
            raise CaseError("leaf families need both invariants rational")
        notes = ()
        if self.contains0 and self.containsInf:
            notes = ("0 and infinity lie on the region boundary: both "
                     "coordinate tori are boundary components",
                     "whether every such pseudoconvex domain is of this "
                     "leaf-union form remains undetermined; only the "
                     "explicit family is classified here")
        return ClassificationResult(
            theorem_type="B2",
            verdict=SteinVerdict(
                status="NotStein",
                witness="compact leaf over any interior label",
                reason="a union of compact leaves contains compact curves"),
            notes=notes)


@dataclass(frozen=True)
class Nemirovskii(DomainSpec):
    """Half-plane domain {A Re w + B Im w < 0} x C_z, A^2 + B^2 = 1, A >= 0."""

    A: float
    B: float

    def __post_init__(self):
        n = math.hypot(self.A, self.B)
        if not 0.0 < n < math.inf:
            raise InvalidInputError("(A, B) must be finite and nonzero")
        A, B = self.A / n, self.B / n
        if A < 0.0 or (A == 0.0 and B < 0.0):
            raise InvalidInputError(
                "canonical normalization requires A >= 0 (and B > 0 when A = 0)")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def residual(self, z, w, params, inv):
        _require_real_b(params)
        return self.A * w.real + self.B * w.imag

    def translate(self, anchor, params, inv):
        # an inside anchor has w != 0, since the residual vanishes there
        rp = reduce_point(anchor, params)
        return ProductHalfPlane(
            theta=cmath.phase(rp.rep_w * -complex(self.A, -self.B)))

    def boundary_point(self, z, params, inv, rng):
        t = math.exp(rng.uniform(0.0, math.log(params.b.real)))
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        return z, sgn * t * complex(-self.B, self.A)

    def classify(self, inv):
        _require_real_b(inv.params)
        return ClassificationResult(
            theorem_type="NemirovskiiStein",
            verdict=SteinVerdict(
                status="Stein",
                reason="half-plane quotient: Stein with Levi-flat boundary"))


@dataclass(frozen=True)
class ImplicitDomain(DomainSpec):
    psi: Callable  # (z, w) -> real residual, evaluated on the reduced rep

    def residual(self, z, w, params, inv):
        return float(self.psi(z, w))

    def classify(self, inv):
        return ClassificationResult(
            theorem_type="SteinCandidate",
            verdict=SteinVerdict(
                status="Undetermined",
                reason="implicit residual; run the pseudoconvexity scan for "
                       "evidence (the Robin-constant experiments cannot run: "
                       "it gives no boundary distance to walk on)"))


@dataclass(frozen=True)
class EvalResult:
    residual: float
    inside: bool


def evaluate_domain(spec, pt, params: HopfParams,
                    inv: Optional[InvariantSet] = None) -> EvalResult:
    """Signed residual of a quotient point against a domain spec.

    The point is reduced first, so the answer depends only on its orbit.
    LeafFamily needs the invariant set (both invariants rational).
    """
    _check_spec(spec)
    z, w = reduce_point(pt, params).rep
    r = spec.residual(z, w, params, inv)
    return EvalResult(r, r < 0)


# ---------------------------------------------------------------------------
# translation


# the bracket tolerance of ModulusRegion.distance_bounds
_DIST_TOL = 1e-10
# the largest log k whose e^log k is finite
_LOG_MAX = math.log(np.finfo(float).max)
# ModulusRegion: cells of the global foot-point search, samples per zoom
_DIST_GRID = np.linspace(0.0, 1.0, 129)
_DIST_ZOOM = np.linspace(0.0, 1.0, 65)


def _curves_distance(log_ks: list[float], rho: float) -> float:
    """Distance from (1, 1) to the nearest curve s2 = k s1^rho, log k in
    log_ks, s1 >= 0, or to a coordinate axis (1 away), within _DIST_TOL.

    A curve's points level with (1, 1), (k^(-1/rho), 1) and (1, k), are no
    nearer than its foot point, so that has |s1 - 1| <= m, the least of
    their distances (below 1).  The distance f(s1) has |f'| <= |(1, k rho
    s1^(rho-1))|, monotone in s1, so a grid cell whose endpoint values
    less its Lipschitz slack stay above the best value found cannot hold
    the minimum; every other cell is refined by repeated zooms around its
    least sample.  The squared distance has at most three critical points
    in s1 > 0 (its derivative is a sum of four powers of s1; Descartes'
    rule of signs), so at most two local minima compete, as they do for a
    lower end whose curve meets s2 = 1 near s1 = 2.  A k that is a normal
    float enters as k; any other (past the float range, or subnormal) as
    e^(log k + ...), whose exponent neither overflows nor loses bits.
    """
    lk = np.array(log_ks)[:, None]
    k = np.array([math.exp(x) if x <= _LOG_MAX else math.inf
                  for x in log_ks])[:, None]
    normal = (k >= np.finfo(float).tiny) & (k < math.inf)

    def power(t, p, scale=1.0, rows=slice(None)):
        """scale k t^p, each row of t on its curve's k (of the rows `rows`)."""
        return np.where(normal[rows], k[rows] * scale * t**p,
                        scale * np.exp(lk[rows] + p * np.log(t)))

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        level = np.where(normal, k ** (-1.0 / rho), np.exp(-lk / rho))
        m = np.minimum(np.minimum(abs(level - 1.0), abs(k - 1.0)), 1.0)
        s = (1.0 - m) + 2.0 * m * _DIST_GRID
        v = np.hypot(s - 1.0, power(s, rho) - 1.0)
        slope = np.hypot(1.0, power(s, rho - 1.0, rho))
        # fmax: a slope at s1 = 0 with rho = 1 in logs is NaN, and the
        # cell's other end, no smaller, bounds it
        slack = np.fmax(slope[:, :-1], slope[:, 1:]) * np.diff(s)
        best = min(m.min(), v.min())
        end, cell = np.nonzero(v[:, :-1] + v[:, 1:] - slack < 2.0 * best)
        lo, hi = s[end, cell], s[end, cell + 1]
        rows, last = np.arange(cell.size), _DIST_ZOOM.size - 1
        while cell.size and (hi - lo).max() > _DIST_TOL:
            t = lo[:, None] + (hi - lo)[:, None] * _DIST_ZOOM
            v = np.hypot(t - 1.0, power(t, rho, rows=end) - 1.0)
            j = v.argmin(axis=1)
            best = min(best, v[rows, j].min())
            lo = t[rows, np.maximum(j - 1, 0)]
            hi = t[rows, np.minimum(j + 1, last)]
    return float(best)


@dataclass(frozen=True)
class HalfSpace:
    """{x : <x, normal> > offset}."""

    normal: tuple
    offset: float = 0.0
    thread_safe = True  # not a dataclass field; see robin._contributions

    def __post_init__(self):
        n = np.asarray(self.normal, dtype=float)
        if n.shape != (4,) or not np.isfinite(n).all():
            raise InvalidInputError(f"normal must be a finite 4-vector, "
                                    f"got {self.normal}")
        if not math.isfinite(self.offset):
            raise InvalidInputError(f"offset must be finite, got {self.offset}")
        # scaled, exactly, by the power of two that brings max|n_i| into
        # [0.5, 1), so the norm's sum of squares is neither inf nor 0
        n = np.ldexp(n, -math.frexp(float(np.max(np.abs(n))))[1])
        nn = np.linalg.norm(n)
        if nn == 0:
            raise InvalidInputError("normal must be nonzero")
        object.__setattr__(self, "normal", tuple(n / nn))

    def distance(self, x: np.ndarray) -> np.ndarray:
        # a column sum in a written order, not a matmul or einsum: basic IEEE
        # operations only, so no row count and no CPU's SIMD reduction order
        # can change a row's bits
        n0, n1, n2, n3 = self.normal
        return ((x[..., 0] * n0 + x[..., 2] * n2)
                + (x[..., 1] * n1 + x[..., 3] * n3) - self.offset)

    def project(self, x: np.ndarray) -> np.ndarray:
        return x - self.distance(x)[..., None] * np.asarray(self.normal)


def half_space_from_theta(theta: float) -> HalfSpace:
    """The half-plane product domain {Re(eta e^{i theta}) > 0} as a wall in R^4."""
    if not math.isfinite(theta):
        raise InvalidInputError(f"theta must be finite, got {theta}")
    return HalfSpace(normal=(0.0, 0.0, math.cos(theta), -math.sin(theta)),
                     offset=0.0)


class TranslatedDomain:
    """Base of the recentered kinds: residual(xi, eta), distance_bounds,
    and the walk-domain methods distance(x) and project(x)."""

    theta: Optional[float] = None  # angular offset, half-plane kinds only
    thread_safe = True  # not a dataclass field; see robin._contributions


@dataclass(frozen=True)
class ProductHalfPlane(TranslatedDomain):
    """C*_xi times a half-plane through 0 in eta; identity at angle theta.
    It walks on its wall, half_space_from_theta(theta), bit for bit: the
    wall's normal and offset, and HalfSpace's distance and project."""

    theta: float
    distance = HalfSpace.distance
    project = HalfSpace.project

    def __post_init__(self):
        # not dataclass fields: equality and hashing compare theta alone
        wall = half_space_from_theta(self.theta)
        object.__setattr__(self, "normal", wall.normal)
        object.__setattr__(self, "offset", wall.offset)

    def residual(self, xi: complex, eta: complex) -> float:
        # inside: Re(eta e^{i theta}) > 0
        return -(eta * cmath.exp(1j * self.theta)).real

    def distance_bounds(self):
        d = math.cos(self.theta)
        return (d, d)


@dataclass(frozen=True)
class ModulusRegion(TranslatedDomain):
    """{log_k1 < log|eta| - rho log|xi| < log_k2}; bounds may be +-inf."""

    log_k1: float
    log_k2: float
    rho: float

    def residual(self, xi: complex, eta: complex) -> float:
        return _interval_residual(_log_ratio(xi, eta, self.rho), self.log_k1,
                                  self.log_k2)

    def distance_bounds(self):
        ends = [lk for lk in (self.log_k1, self.log_k2) if math.isfinite(lk)]
        if not ends:
            raise EvaluationError("region has no finite boundary")
        # the coordinate axis beyond each finite end lies outside, 1 away
        best = _curves_distance(ends, self.rho)
        return (best - _DIST_TOL, best + _DIST_TOL)

    def distance(self, x: np.ndarray) -> np.ndarray:
        """Certified lower bound on the distance to the boundary in R^4.

        With s1 = |xi|, s2 = |eta|, F = log s2 - rho log s1 and L =
        hypot(rho/s1, 1/s2), the bound is the least gap / (L + gap/s) over
        the finite ends: gap = hi - F, s = s1 (upper) and gap = F - lo,
        s = s2 (lower); an infinite end's coordinate torus lies inside.
        Proof (upper end): a step of length r changes |xi|, |eta| by r1,
        r2 with r1^2 + r2^2 <= r^2, so F grows by at most r2/s2 +
        rho r1/(s1 - r) <= r L / (1 - r/s1), which is < gap exactly when
        r < gap / (L + gap/s1); the lower end is the same with s2.
        """
        lo, hi, rho = self.log_k1, self.log_k2, self.rho
        x = np.atleast_2d(x)
        s1, s2 = np.hypot(x[:, 0], x[:, 1]), np.hypot(x[:, 2], x[:, 3])
        out = np.full(len(x), np.inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            F = np.log(s2) - rho * np.log(s1)
            L = np.hypot(rho / s1, 1.0 / s2)
            for end, gap, s in ((hi, hi - F, s1), (lo, F - lo, s2)):
                if math.isfinite(end):
                    gap = np.maximum(gap, 0.0)  # 0 outside, NaN kept
                    out = np.minimum(out, gap / (L + gap / s))
        return np.where(np.isnan(out), 0.0, out)

    def project(self, x: np.ndarray) -> np.ndarray:
        return x  # a walk ends within eps_shell of the boundary


def translate_domain(spec, anchor, params: HopfParams,
                     inv: Optional[InvariantSet] = None) -> TranslatedDomain:
    """Recenter a domain at an interior anchor: points divide coordinatewise.

    The translated domain contains the identity (1, 1) and is a walk domain.
    Only the level kinds and Nemirovskii translate; any other kind raises
    EvaluationError once the anchor is checked.  For the half-plane
    family the result depends only on the angular offset theta of the
    anchor's w inside the half-plane, never on |w| or on z, and the distance
    from the identity to the boundary is exactly cos(theta).
    """
    res = evaluate_domain(spec, anchor, params, inv)
    if not res.inside:
        raise EvaluationError(
            f"anchor {anchor} is not inside the domain (residual {res.residual})")
    return spec.translate(anchor, params, inv)


def distance_to_identity(translated) -> tuple[float, float]:
    """(lower, upper) bounds on the distance from (1, 1) to the boundary.

    Exact for ProductHalfPlane; for modulus regions a global search over
    the foot-point bracket of each finite end's curve (a Lipschitz-pruned
    grid, then refinement, bracket width 2e-10), against the coordinate
    axis beyond that end at distance 1.
    """
    if not isinstance(translated, TranslatedDomain):
        raise InvalidInputError(
            f"unknown translated domain {type(translated).__name__}")
    return translated.distance_bounds()


# ---------------------------------------------------------------------------
# tangency of a flow against a domain boundary


@dataclass(frozen=True)
class TangencyReport:
    boundary_drift: float
    interior_escapes: int
    n_boundary: int
    n_interior: int
    tangential: bool


def _boundary_samples(spec, n, params, inv, rng):
    """Up to n points with (near-)zero residual, sampled by the spec's kind."""
    _check_spec(spec)
    out = []
    for _ in range(n):
        pt = spec.boundary_point(_random_annulus(rng, abs(params.a)), params,
                                 inv, rng)
        if pt is not None:
            out.append(pt)
    return out


def tangency_check(spec, X: VectorField, n_samples: int, t_grid,
                   tol: float, params: HopfParams, seed: int,
                   inv: Optional[InvariantSet] = None) -> TangencyReport:
    """Does the flow of X preserve the boundary and the interior of spec?

    Boundary samples are checked for residual drift along the flow; interior
    samples for sign changes (escapes).  Tangential verdict iff the maximum
    drift stays within tol and nothing escapes.  InvalidInputError for
    n_samples < 1, an empty t_grid or a tol that is negative or not finite.
    """
    _require_samples(n_samples)
    _require_nonneg(tol)
    _require_seed(seed)
    if not len(t_grid):
        raise InvalidInputError("t_grid must not be empty")
    rng = np.random.default_rng(seed)
    boundary = _boundary_samples(spec, n_samples, params, inv, rng)
    boundary = [pt for pt in boundary
                if abs(evaluate_domain(spec, pt, params, inv).residual) <= tol]

    drift = 0.0
    for pt in boundary:
        for t in t_grid:
            r = evaluate_domain(spec, flow_point(X, pt, t), params, inv).residual
            drift = max(drift, abs(r))

    interior = []
    attempts = 0
    while len(interior) < n_samples and attempts < 50 * n_samples:
        attempts += 1
        pt = (_random_annulus(rng, abs(params.a)),
              _random_annulus(rng, abs(params.b)))
        if evaluate_domain(spec, pt, params, inv).residual < -tol:
            interior.append(pt)
    escapes = 0
    for pt in interior:
        for t in t_grid:
            if evaluate_domain(spec, flow_point(X, pt, t), params,
                               inv).residual >= 0:
                escapes += 1
                break

    return TangencyReport(boundary_drift=drift, interior_escapes=escapes,
                          n_boundary=len(boundary), n_interior=len(interior),
                          tangential=(drift <= tol and escapes == 0))


# ---------------------------------------------------------------------------
# classification


def classify_domain(spec, inv: InvariantSet) -> ClassificationResult:
    """Place a domain spec in the classification table.

    Level families always contain a compact-closure level hypersurface and
    are never Stein; leaf families (rational invariants) contain a compact
    leaf; the half-plane family is Stein despite its Levi-flat boundary;
    implicit domains are not decided at the desk.
    """
    _check_spec(spec)
    if not isinstance(inv, InvariantSet):
        raise InvalidInputError(
            f"not an invariant set: {type(inv).__name__}")
    return spec.classify(inv)


# ---------------------------------------------------------------------------
# half-plane quotient identity


@dataclass(frozen=True)
class QuotientIdentityReport:
    n_forward: int
    n_backward: int
    forward_failures: int
    backward_failures: int
    shell_inner_count: int  # reduced reps with 1 < |w| (first product set)
    shell_outer_count: int  # reduced reps with |z| > 1 (second product set)


# The forward block draws log|w| within 3 log b of 0 and an arg w within
# pi/2 of 0, whose cosine is at least cos(fl(pi/2)) ~ 6.1e-17, and reduces by
# a lift index of at most 2.  So Re rep_w >= 6.1e-17 b^-5 stays above the
# least subnormal, and b^3 below DBL_MAX, while log b is at most this (141.4).
_MAX_LOG_B = (math.log(math.cos(math.pi / 2)) - math.log(5e-324)) / 5


def verify_nemirovskii_quotient(params: HopfParams, n_samples: int,
                                seed: int) -> QuotientIdentityReport:
    """Sampled check that the half-plane product descends onto the shell model.

    Forward: n_samples >= 1 random points of C_z x {Re w > 0} reduce into
    the union of the two product pieces of the shell intersected with
    {Re w > 0}; zero failures expected.  Backward: every point of that union
    pushed through a deck power lands back in the product, since b is real
    and > 1, so the power scales w by b^n > 0 and keeps the sign of Re w.
    That is a fact, not a draw: n_backward = n_samples, backward_failures = 0.
    PreconditionError unless b is real with 1 < b <= e^141.4 (about 2.6e61),
    past which a drawn point overflows or a representative's Re w underflows
    to 0.
    """
    _require_samples(n_samples)
    _require_seed(seed)
    _require_real_b(params)
    la, lb = params.log_abs_a, math.log(params.b.real)
    if lb > _MAX_LOG_B:
        raise PreconditionError(
            f"the sampled check needs log b <= {_MAX_LOG_B:.6g} "
            f"(b <= {math.exp(_MAX_LOG_B):.3g}), got b = {params.b.real}")
    rng = np.random.default_rng(seed)

    # Rows (log|z|, arg z, log|w|, arg w), drawn sample by sample.
    u = rng.uniform((-3 * la, 0.0, -3 * lb, -math.pi / 2),
                    (3 * la, 2 * math.pi, 3 * lb, math.pi / 2),
                    size=(n_samples, 4))
    rep_z, rep_w, _ = reduce_points(np.exp(u[:, 0] + 1j * u[:, 1]),
                                    np.exp(u[:, 2] + 1j * u[:, 3]), params)
    mz, mw = _modulus(rep_z), _modulus(rep_w)
    ok = (rep_w.real > 0) & _in_fundamental_domain(mz, mw, params)
    inner = int(np.count_nonzero(ok & (mw > 1.0) & (mz <= 1.0)))
    n_ok = int(np.count_nonzero(ok))
    return QuotientIdentityReport(
        n_forward=n_samples, n_backward=n_samples,
        forward_failures=n_samples - n_ok, backward_failures=0,
        shell_inner_count=inner, shell_outer_count=n_ok - inner)

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
difference (default: the reducing evaluator), translate(anchor, params, inv)
(default: a GenericTranslate) and boundary_point(z, params, inv, rng)
(default: bisection along |w|).

Translation moves a domain to a reference frame centered at an anchor point
(coordinatewise division), which turns the Nemirovskii family into a
half-plane in the w-coordinate whose distance to the identity is exactly
cos(theta), theta the anchor's angular offset inside the half-plane.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize_scalar

from .errors import (CaseError, EvaluationError, InvalidInputError,
                     PreconditionError, _require_samples, _require_tol)
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
        """A locally smooth defining function matching the spec near point
        (the reducing evaluator jumps across the shell faces)."""
        return lambda zz, ww: evaluate_domain(self, (zz, ww), params,
                                              inv).residual

    def translate(self, anchor, params, inv) -> TranslatedDomain:
        z0, w0 = complex(anchor[0]), complex(anchor[1])
        return GenericTranslate(residual_fn=lambda xi, eta: evaluate_domain(
            self, (xi * z0, eta * w0), params, inv).residual)

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
        raise InvalidInputError(f"unknown domain spec {spec!r}")


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
        if not (0.0 < self.k1 < self.k2):
            raise InvalidInputError("need 0 < k1 < k2")
        object.__setattr__(self, "log_bounds",
                           (math.log(self.k1), math.log(self.k2)))

    def classify(self, inv):
        return _level_row("A1", math.sqrt(self.k1 * self.k2),
                          "contains a compact Levi-flat level hypersurface")


@dataclass(frozen=True)
class SubLevel(LevelUnion):
    k: float

    def __post_init__(self):
        if not self.k > 0.0:
            raise InvalidInputError("need k > 0")
        object.__setattr__(self, "log_bounds", (-math.inf, math.log(self.k)))

    def classify(self, inv):
        return _level_row("A2prime", self.k / 2, _ONE_SIDED)


@dataclass(frozen=True)
class SuperLevel(LevelUnion):
    k: float

    def __post_init__(self):
        if not self.k > 0.0:
            raise InvalidInputError("need k > 0")
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
        if n == 0.0:
            raise InvalidInputError("(A, B) must be nonzero")
        A, B = self.A / n, self.B / n
        if A < 0.0 or (A == 0.0 and B < 0.0):
            raise InvalidInputError(
                "canonical normalization requires A >= 0 (and B > 0 when A = 0)")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)

    def residual(self, z, w, params, inv):
        _require_real_b(params)
        return self.A * w.real + self.B * w.imag

    def smooth_residual(self, point, params, inv=None):
        return lambda zz, ww: self.A * ww.real + self.B * ww.imag

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

    def smooth_residual(self, point, params, inv=None):
        return self.psi

    def classify(self, inv):
        return ClassificationResult(
            theorem_type="SteinCandidate",
            verdict=SteinVerdict(
                status="Undetermined",
                reason="implicit residual; run the pseudoconvexity scan and "
                       "the Robin-constant experiments for evidence"))


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


# distance_bounds: rays cast from the identity for generic translates (seeded),
# their search radius, and the bracket tolerance of every kind
_DIST_RAYS = 64
_DIST_R_MAX = 4.0
_DIST_TOL = 1e-10
_DIST_SEED = 0


class TranslatedDomain:
    """Base of the recentered kinds: residual(xi, eta), distance_bounds,
    wos_domain and seed_key.  The walk-on-spheres shapes come from robin,
    imported inside wos_domain because robin imports this module."""

    theta: Optional[float] = None  # angular offset, half-plane kinds only

    def wos_domain(self):
        raise EvaluationError(f"no walk-on-spheres adapter for {self!r}")

    def seed_key(self) -> Optional[tuple]:
        """Floats that identify the domain for walk sub-seeding, or None."""
        return None


@dataclass(frozen=True)
class ProductHalfPlane(TranslatedDomain):
    """C*_xi times a half-plane through 0 in eta; identity at angle theta."""

    theta: float

    def residual(self, xi: complex, eta: complex) -> float:
        # inside: Re(eta e^{i theta}) > 0
        return -(eta * cmath.exp(1j * self.theta)).real

    def distance_bounds(self):
        d = math.cos(self.theta)
        return (d, d)

    def wos_domain(self):
        from .robin import half_space_from_theta
        return half_space_from_theta(self.theta)

    def seed_key(self):
        return (self.theta,)


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
        best = math.inf
        for lk in (self.log_k1, self.log_k2):
            if not math.isfinite(lk):
                continue
            k = math.exp(lk)

            def dist2(r, k=k):
                return (1.0 - r) ** 2 + (k * r ** self.rho - 1.0) ** 2

            out = minimize_scalar(dist2, bounds=(1e-12, 16.0),
                                  method="bounded",
                                  options={"xatol": _DIST_TOL})
            best = min(best, math.sqrt(out.fun))
        if not math.isfinite(best):
            raise EvaluationError("region has no finite boundary")
        return (best - _DIST_TOL, best + _DIST_TOL)

    def wos_domain(self):
        from .robin import GenericSolvable
        lo, hi, rho = self.log_k1, self.log_k2, self.rho

        def dist(x):
            x = np.atleast_2d(x)
            rxi = np.hypot(x[:, 0], x[:, 1])
            reta = np.hypot(x[:, 2], x[:, 3])
            with np.errstate(divide="ignore"):
                F = np.log(reta) - rho * np.log(rxi)
            gap = np.minimum(F - lo, hi - F)
            gap = np.where(np.isnan(gap), 0.0, np.maximum(gap, 0.0))
            # local Lipschitz bound of F, halved for safety since it is not
            # global: steps never overshoot in practice but the distance is
            # a heuristic lower bound, flagged qualitative
            L = np.sqrt((rho / np.maximum(rxi, 1e-300)) ** 2
                        + (1.0 / np.maximum(reta, 1e-300)) ** 2)
            return 0.5 * gap / L

        return GenericSolvable(distance_fn=dist)

    def seed_key(self):
        return (self.log_k1, self.log_k2, self.rho)


@dataclass(frozen=True)
class GenericTranslate(TranslatedDomain):
    residual_fn: Callable

    def residual(self, xi: complex, eta: complex) -> float:
        return float(self.residual_fn(xi, eta))

    def distance_bounds(self):
        if self.residual(1.0 + 0j, 1.0 + 0j) >= 0:
            raise EvaluationError("identity is not inside the translate")
        rng = np.random.default_rng(_DIST_SEED)
        upper = math.inf
        for _ in range(_DIST_RAYS):
            v = rng.normal(size=4)
            v /= np.linalg.norm(v)
            dxi, deta = complex(v[0], v[1]), complex(v[2], v[3])

            def g(s):
                return self.residual(1.0 + s * dxi, 1.0 + s * deta)

            lo, hi = 0.0, None
            s = _DIST_TOL
            while s <= _DIST_R_MAX:
                if g(s) >= 0:
                    hi = s
                    break
                lo = s
                s *= 2.0
            if hi is None:
                continue
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if g(mid) >= 0:
                    hi = mid
                else:
                    lo = mid
            upper = min(upper, hi)
        return (0.0, upper)


def translate_domain(spec, anchor, params: HopfParams,
                     inv: Optional[InvariantSet] = None) -> TranslatedDomain:
    """Recenter a domain at an interior anchor: points divide coordinatewise.

    The translated domain contains the identity (1, 1).  For the half-plane
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

    Exact for ProductHalfPlane; a bracketed one-dimensional minimization
    (tolerance 1e-10) for modulus regions; for generic translates an upper
    bound from bisection along 64 seeded random rays of length <= 4 and the
    trivial lower bound 0.0.
    """
    if not isinstance(translated, TranslatedDomain):
        raise InvalidInputError(f"unknown translated domain {translated!r}")
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
    n_samples < 1 or a tol that is negative or not finite.
    """
    _require_samples(n_samples)
    _require_tol(tol)
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
        raise InvalidInputError(f"not an invariant set: {inv!r}")
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


def verify_nemirovskii_quotient(params: HopfParams, n_samples: int,
                                seed: int) -> QuotientIdentityReport:
    """Sampled check that the half-plane product descends onto the shell model.

    Forward: random points of C_z x {Re w > 0} reduce into the union of the
    two product pieces of the shell intersected with {Re w > 0}.  Backward:
    random points of that union, pushed through random deck powers, land
    back in the product (automatic since deck powers scale w by positive
    reals, so backward_failures is 0).  Both directions are counted over
    n_samples >= 1 points each; zero failures expected.
    """
    _require_samples(n_samples)
    _require_real_b(params)
    rng = np.random.default_rng(seed)
    la, lb = params.log_abs_a, math.log(params.b.real)

    # Rows (log|z|, arg z, log|w|, arg w), drawn sample by sample and before
    # any backward draw, so a seed gives the same forward points whatever
    # the backward direction does.
    u = rng.uniform((-3 * la, 0.0, -3 * lb, -math.pi / 2),
                    (3 * la, 2 * math.pi, 3 * lb, math.pi / 2),
                    size=(n_samples, 4))
    rep_z, rep_w, _ = reduce_points(np.exp(u[:, 0] + 1j * u[:, 1]),
                                    np.exp(u[:, 2] + 1j * u[:, 3]), params)
    mz, mw = _modulus(rep_z), _modulus(rep_w)
    ok = (rep_w.real > 0) & _in_fundamental_domain(mz, mw, params)
    inner = int(np.count_nonzero(ok & (mw > 1.0) & (mz <= 1.0)))

    # Shell points with Re w > 0, half from each product piece, lifted by
    # deck powers n in [-5, 5].
    v = rng.random((n_samples, 5))
    first = v[:, 0] < 0.5
    z = np.where(first, abs(params.a) * v[:, 1], np.exp(la * v[:, 1])) \
        * np.exp(2j * math.pi * v[:, 2])
    w = np.exp(np.where(first, lb * v[:, 3], (lb + 3.0) * v[:, 3] - 3.0)
               + 1j * math.pi * (v[:, 4] - 0.5))
    shell = (w.real > 0) & _in_fundamental_domain(z, w, params)
    lifted = w * float(params.b.real) ** rng.integers(-5, 6, n_samples)

    n_ok = int(np.count_nonzero(ok))
    return QuotientIdentityReport(
        n_forward=n_samples, n_backward=n_samples,
        forward_failures=n_samples - n_ok,
        backward_failures=int(np.count_nonzero(shell & ~(lifted.real > 0))),
        shell_inner_count=inner, shell_outer_count=n_ok - inner)

"""Holomorphic flows on the quotient and their orbit closures.

A linear field X = (alpha, beta) generates the flow

    (z, w) -> (z exp(alpha t), w exp(beta t)),  t in C,

which descends to the quotient.  The distinguished field X_u has
coefficients (log a, log b) taken with principal arguments in [0, 2 pi), so
that time-1 flow is exactly multiplication by (a, b) -- one full deck step.

Orbit closures fall into five classes depending on whether X is
proportional to X_u and on the rationality invariants; the classifier below
reports the class together with cheap numerical evidence (fiber cardinality,
equidistribution discrepancy, modulus decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import EvaluationError, InvalidInputError, _require_finite
from .invariants import TWO_PI, HopfParams, InvariantSet, _arg01
from .quotient import HopfPoint, reduce_point

PROPORTIONALITY_TOL = 1e-10
_DEDUP_TOL = 1e-12
_EXP_CLIP = 700.0  # beyond this the float value over/underflows


@dataclass(frozen=True)
class VectorField:
    alpha: complex
    beta: complex

    def __post_init__(self):
        _require_finite("field alpha", self.alpha)
        _require_finite("field beta", self.beta)
        if self.alpha == 0 and self.beta == 0:
            raise InvalidInputError("zero field generates no flow")


def unit_field(params: HopfParams) -> VectorField:
    """The deck-generating field: exp(1 * X_u) is multiplication by (a, b)."""
    return VectorField(params.principal_log_a(), params.principal_log_b())


def is_unit_proportional(X: VectorField, params: HopfParams,
                         tol: float = PROPORTIONALITY_TOL) -> bool:
    """Scale-free test of X in C * X_u."""
    la = params.principal_log_a()
    lb = params.principal_log_b()
    return abs(X.alpha * lb - X.beta * la) <= tol * max(abs(X.alpha),
                                                        abs(X.beta))


def flow_point(X: VectorField, start: tuple[complex, complex],
               t: complex) -> tuple[complex, complex]:
    z, w = complex(start[0]), complex(start[1])
    return (z * np.exp(X.alpha * t), w * np.exp(X.beta * t))


def orbit_reduce_samples(X: VectorField, start, t_grid: Sequence[complex],
                         params: HopfParams) -> list[HopfPoint]:
    """Flow from start over t_grid and reduce every sample to the shell."""
    return [reduce_point(flow_point(X, start, t), params) for t in t_grid]


def star_discrepancy(angles: Sequence[float]) -> float:
    """Star discrepancy of angles/2pi mod 1, by the sorted-points formula."""
    x = np.sort(np.asarray(angles, dtype=float) / TWO_PI % 1.0)
    n = x.size
    if n == 0:
        raise InvalidInputError("empty sample")
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - x, x - (i - 1) / n)))


def _spiral_indices() -> Iterator[int]:
    yield 0
    m = 1
    while True:
        yield m
        yield -m
        m += 1


def _spiral_pairs() -> Iterator[tuple[int, int]]:
    """Deterministic enumeration of Z^2 by square rings around the origin."""
    yield (0, 0)
    m = 1
    while True:
        ring = [(n, k) for n in range(-m, m + 1) for k in range(-m, m + 1)
                if max(abs(n), abs(k)) == m]
        yield from sorted(ring)
        m += 1


@dataclass(frozen=True)
class FiberSet:
    """Values of the orbit over a fixed z-fiber, in polar bookkeeping.

    values[i] = exp(log_abs[i]) * exp(i args[i]); log_abs is kept separately
    because the genuine fiber can span hundreds of orders of magnitude.
    """

    values: list
    log_abs: list
    args: list
    min_abs: float
    max_abs: float

    def __len__(self):
        return len(self.values)


class _Dedup:
    """Approximate set of (log_abs, angle) pairs with ~1e-12 resolution."""

    def __init__(self):
        self._seen = set()

    def add(self, log_abs: float, angle: float) -> bool:
        a = angle % TWO_PI
        if a > TWO_PI - _DEDUP_TOL:
            a = 0.0
        key = (round(log_abs / _DEDUP_TOL), round(a / _DEDUP_TOL))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


def _guarded_value(log_abs: float, angle: float) -> complex:
    if log_abs > _EXP_CLIP:
        return complex(math.inf, 0.0)
    if log_abs < -_EXP_CLIP:
        return 0j
    return math.exp(log_abs) * complex(math.cos(angle), math.sin(angle))


def _enumerate_fiber(pairs, value_at, N: int):
    """Collect up to N distinct (log_abs, angle) pairs over an index stream.

    pairs yields (n, k) ordered by rings of max(|n|, |k|); enumeration stops
    early when two consecutive rings contribute nothing new (the
    finite-fiber case).
    """
    dedup = _Dedup()
    log_abs: list[float] = []
    args: list[float] = []
    values: list[complex] = []
    stale = 0
    last_ring = 0
    added = False
    for n, k in pairs:
        ring = max(abs(n), abs(k))
        if ring != last_ring:
            if len(values) >= N:
                break
            stale = 0 if added else stale + 1
            if stale >= 2:
                break
            added = False
            last_ring = ring
        la_val, ang = value_at(n, k)
        if dedup.add(la_val, ang):
            added = True
            log_abs.append(la_val)
            args.append(ang % TWO_PI)
            values.append(_guarded_value(la_val, ang))
            if len(values) >= N:
                break
    return values, log_abs, args


def fiber_set(X: VectorField, z_prime: complex, inv: InvariantSet,
              N: int) -> FiberSet:
    """Up to N distinct w-values of the orbit of (1, 1) over the fiber z = z_prime.

    For X proportional to X_u the values lie on the circle |w| = |z'|^rho
    with phases {n rho + k tau} (a finite root-of-unity set when both
    invariants are rational).  Otherwise, with A + Bi = beta/alpha, the
    branches over z' combined with deck reduction give

        w(n, k) = exp((A + Bi)(log|a^k z'| + i(theta_k + 2 pi n))) / b^k.

    Enumeration runs over (n, k) in a square spiral and stops once N distinct
    values are found or two consecutive rings add nothing new.
    """
    if z_prime == 0:
        raise InvalidInputError("fiber over z = 0 is not in the chart")
    _require_finite("fiber base z'", z_prime)
    if N < 1:
        raise InvalidInputError("N must be >= 1")
    params = inv.params

    if is_unit_proportional(X, params):
        if inv.p is not None:
            r_exp = inv.q / inv.p
        else:
            r_exp = inv.rho
        tau_eff = (r_exp * params.arg_a - params.arg_b) / TWO_PI
        base_log = r_exp * math.log(abs(z_prime))
        base_arg = r_exp * _arg01(z_prime)

        def value_at_phase(phase):
            return base_log, base_arg + TWO_PI * phase

        # The phase set {n r + k tau} mod 1 collapses along whichever index
        # is redundant; enumerating the raw (n, k) grid would spend O(N^2)
        # steps on duplicates, so pick the enumeration to match.
        if abs(tau_eff) < 1e-15:
            def value_at(n, _k):
                return value_at_phase(n * r_exp)

            values, log_abs, args = _enumerate_fiber(
                ((n, 0) for n in _spiral_indices()), value_at, N)
        elif inv.p is not None:
            pp = inv.p

            def value_at(j, k):
                return value_at_phase(j / pp * inv.q + k * tau_eff)

            pairs = ((j, k) for k in _spiral_indices() for j in range(pp))
            values, log_abs, args = _enumerate_fiber(pairs, value_at, N)
        else:
            def value_at(n, k):
                return value_at_phase(n * r_exp + k * tau_eff)

            values, log_abs, args = _enumerate_fiber(_spiral_pairs(),
                                                     value_at, N)
    else:
        if X.alpha == 0:
            raise EvaluationError(
                "orbit of a vertical field meets each z-fiber in at most one "
                "point cluster; the fiber construction requires alpha != 0")
        ab = X.beta / X.alpha
        A, B = ab.real, ab.imag
        theta0 = _arg01(z_prime)
        lz = math.log(abs(z_prime))
        la, lb = params.log_abs_a, params.log_abs_b
        aa, abg = params.arg_a, params.arg_b

        def value_at(n, k):
            L_k = k * la + lz
            phi = (k * aa + theta0) % TWO_PI + TWO_PI * n
            return (A * L_k - B * phi - k * lb,
                    B * L_k + A * phi - k * abg)

        if B == 0.0 and float(A).is_integer():
            # w = z^A is single-valued: every branch index n collapses, so
            # enumerate deck steps only
            pairs = ((0, k) for k in _spiral_indices())
        else:
            pairs = _spiral_pairs()
        values, log_abs, args = _enumerate_fiber(pairs, value_at, N)

    if not values:
        raise EvaluationError("fiber enumeration produced no values")
    lo, hi = min(log_abs), max(log_abs)
    return FiberSet(values=values, log_abs=log_abs, args=args,
                    min_abs=0.0 if lo < -_EXP_CLIP else math.exp(lo),
                    max_abs=math.inf if hi > _EXP_CLIP else math.exp(hi))


@dataclass(frozen=True)
class EvidenceConfig:
    """Budget knobs for the numerical evidence attached to a closure class."""

    n_fiber: int = 2048
    z_prime: complex = 1.5 + 0j
    n_orbit: int = 64
    t_max: float = 4.0
    decay_steps: int = 40


@dataclass(frozen=True)
class ClosureClass:
    tag: str
    sheets: Optional[int] = None
    diagnostics: dict = field(default_factory=dict)


def classify_orbit_closure(X: VectorField, params: HopfParams,
                           inv: InvariantSet,
                           evidence: EvidenceConfig = EvidenceConfig()
                           ) -> ClosureClass:
    """Classify the closure of the X-orbit through (1, 1) in the quotient.

    The class is decided symbolically from (alpha, beta) and the rationality
    invariants; the diagnostics dict carries the supporting numerics.
    """
    alpha, beta = X.alpha, X.beta

    if beta == 0:
        # Horizontal flow: accumulates on the w = 0 torus only.
        ts = [k * params.log_abs_a / alpha for k in range(evidence.decay_steps + 1)]
        pts = orbit_reduce_samples(X, (1.0 + 0j, 1.0 + 0j), ts, params)
        decay = [abs(p.rep_w) for p in pts]
        return ClosureClass(tag="ContainsTaOnly",
                            diagnostics={"reduced_w_decay": decay,
                                         "final_reduced_w": decay[-1]})
    if alpha == 0:
        ts = [k * params.log_abs_b / beta for k in range(evidence.decay_steps + 1)]
        pts = orbit_reduce_samples(X, (1.0 + 0j, 1.0 + 0j), ts, params)
        decay = [abs(p.rep_z) for p in pts]
        return ClosureClass(tag="ContainsTbOnly",
                            diagnostics={"reduced_z_decay": decay,
                                         "final_reduced_z": decay[-1]})

    if is_unit_proportional(X, params):
        fib = fiber_set(X, evidence.z_prime, inv, evidence.n_fiber)
        if inv.case_tag == "CaseB2":
            return ClosureClass(tag="CompactTorus", sheets=inv.nu,
                                diagnostics={"fiber_cardinality": len(fib),
                                             "nu": inv.nu})
        # Levi-flat hypersurface: the orbit stays on one modulus level and
        # its fiber phases equidistribute.
        ts = np.linspace(-evidence.t_max, evidence.t_max, evidence.n_orbit)
        resid = 0.0
        for t in ts:
            z, w = flow_point(X, (1.0 + 0j, 1.0 + 0j), complex(t))
            resid = max(resid, abs(abs(w) - abs(z) ** inv.rho))
        return ClosureClass(
            tag="LeviFlatHypersurface",
            diagnostics={"fiber_star_discrepancy": star_discrepancy(fib.args),
                         "orbit_modulus_residual": resid})

    fib = fiber_set(X, evidence.z_prime, inv, evidence.n_fiber)
    return ClosureClass(tag="ContainsBothTori",
                        diagnostics={"fiber_min_abs": fib.min_abs,
                                     "fiber_max_abs": fib.max_abs,
                                     "fiber_log_abs_span":
                                         max(fib.log_abs) - min(fib.log_abs)})

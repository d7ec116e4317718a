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

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (EvaluationError, InvalidInputError, _require_finite,
                     _require_samples)
from .invariants import TWO_PI, HopfParams, InvariantSet, _arg01
from .quotient import HopfPoint, reduce_point

PROPORTIONALITY_TOL = 1e-10
_DEDUP_TOL = 1e-12
_EXP_CLIP = 700.0  # beyond this the float value over/underflows
_FIRST_BLOCK = 64  # first fiber block, and the margin of later ones
# Budget of the numerical evidence attached to a closure class.
_EVIDENCE_FIBER = 2048
_EVIDENCE_Z_PRIME = 1.5 + 0j
_ORBIT_SAMPLES = 64
_ORBIT_T_MAX = 4.0
_DECAY_STEPS = 40


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


def is_unit_proportional(X: VectorField, params: HopfParams) -> bool:
    """Scale-free test of X in C * X_u."""
    la = params.principal_log_a()
    lb = params.principal_log_b()
    return (abs(X.alpha * lb - X.beta * la)
            <= PROPORTIONALITY_TOL * max(abs(X.alpha), abs(X.beta)))


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
    x = np.asarray(angles, dtype=float)
    n = x.size
    if n == 0:
        raise InvalidInputError("empty sample")
    if not np.isfinite(x).all():
        raise InvalidInputError("angles must be finite")
    x = np.sort(x / TWO_PI % 1.0)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - x, x - (i - 1) / n)))


def _spiral_rows(i, p=1):
    """(j, k) at stream positions i for k in the order 0, 1, -1, 2, -2, ...
    and, under each k, j = 0 .. p-1."""
    m = (i // p + 1) // 2
    return i % p, np.where(i // p % 2 == 1, m, -m)


def _square_rings(i):
    """(n, k) at stream positions i for Z^2 by square rings max(|n|, |k|) = m
    in lexicographic order: ring m >= 1 starts at position (2m - 1)^2 with
    the column n = -m, then k = -m, m for |n| < m, then the column n = m."""
    m = ((1 + np.sqrt(i)) // 2).astype(np.int64)
    t = np.maximum(i - (2 * m - 1) ** 2, 0)       # offset in the ring
    side, last = 2 * m + 1, 6 * m - 1   # offsets of the middle, column n = m
    mid = t - side
    n = np.where(t < side, -m, np.where(t < last, 1 - m + mid // 2, m))
    k = np.where(t < side, t - m, np.where(t < last, np.where(
        mid % 2 == 0, -m, m), t - last - m))
    return n, k


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


def _enumerate_fiber(pairs_at, value_at, N: int):
    """Arrays (log_abs, angle, angle mod 2 pi) of the first N distinct values
    of an index stream, keyed at _DEDUP_TOL in (log_abs, angle mod 2 pi).

    pairs_at maps stream positions to (n, k) arrays, value_at maps those to
    (log_abs, angle).  A ring is a maximal run of equal max(|n|, |k|) in
    stream order; enumeration stops once two consecutive rings add nothing
    (a finite fiber).  Positions go in blocks that grow sixteenfold from
    _FIRST_BLOCK up to that many more than values are missing; each block is
    cut back to whole rings (doubled if it holds none) and evaluated at once.
    """
    # keys and values kept; whether the last ring added none
    seen, kept, stale = np.empty((2, 0)), [], False
    start, size = 0, _FIRST_BLOCK
    while True:
        n, k = pairs_at(np.arange(start, start + size))
        rings = np.maximum(np.abs(n), np.abs(k))
        bounds = np.flatnonzero(np.diff(rings)) + 1   # ring starts after 0
        if not bounds.size:
            size *= 2
            continue
        n, k = n[:bounds[-1]], k[:bounds[-1]]
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            log_abs, ang = value_at(n, k)
            args = ang % TWO_PI
            a = np.where(args > TWO_PI - _DEDUP_TOL, 0.0, args)
            keys = np.round(np.stack((log_abs, a)) / _DEDUP_TOL)
        bad = np.flatnonzero(~np.isfinite(keys).all(axis=0))
        # first occurrences: rank each key row, then one code per column
        both = np.concatenate((seen, keys), axis=1)
        code = (np.unique(both[0], return_inverse=True)[1] * both.shape[1]
                + np.unique(both[1], return_inverse=True)[1])
        first = np.sort(np.unique(code, return_index=True)[1])
        new = first[first >= seen.shape[1]] - seen.shape[1]
        # fresh[j]: ring j of the block, ending at bounds[j], added a value
        fresh = np.diff(np.searchsorted(new, np.append(0, bounds))) > 0
        dead = np.flatnonzero(~fresh & ~np.append(not stale, fresh[:-1]))
        stop = bounds[dead[0]] if dead.size else bounds[-1]
        take = new[new < stop][:N - seen.shape[1]]
        if take.size == N - seen.shape[1]:
            stop = take[-1] + 1
        if bad.size and bad[0] < stop:
            raise EvaluationError(
                f"fiber log-modulus or angle at (n, k) = ({n[bad[0]]}, "
                f"{k[bad[0]]}) is out of floating-point range")
        kept.append((log_abs[take], ang[take], args[take]))
        seen = np.concatenate((seen, keys[:, take]), axis=1)
        if seen.shape[1] == N or dead.size:
            return [np.concatenate(col) for col in zip(*kept)]
        stale = not fresh[-1]
        start += bounds[-1]
        size = min(16 * size, N - seen.shape[1] + _FIRST_BLOCK)


def _polar(log_abs, ang):
    """Values exp(log_abs) (cos ang + i sin ang), one math.exp per distinct
    log-modulus, and the least and greatest modulus; a value beyond the
    clip is inf or 0."""
    uniq, where = np.unique(log_abs, return_inverse=True)
    moduli = [math.inf if x > _EXP_CLIP else 0.0 if x < -_EXP_CLIP
              else math.exp(x) for x in uniq.tolist()]
    unit = np.empty(ang.shape, complex)
    unit.real, unit.imag = np.cos(ang), np.sin(ang)
    with np.errstate(invalid="ignore"):       # inf * 0, replaced below
        values = np.array(moduli)[where] * unit
    values[log_abs > _EXP_CLIP] = complex(math.inf, 0.0)
    values[log_abs < -_EXP_CLIP] = 0j
    return values, moduli[0], moduli[-1]


def fiber_set(X: VectorField, z_prime: complex, inv: InvariantSet,
              N: int) -> FiberSet:
    """Up to N distinct w-values of the orbit of (1, 1) over the fiber z = z_prime.

    For X proportional to X_u the values lie on the circle |w| = |z'|^rho
    with phases {n rho + k tau} (a finite root-of-unity set when both
    invariants are rational).  Otherwise, with A + Bi = beta/alpha, the
    branches over z' combined with deck reduction give

        w(n, k) = exp((A + Bi)(log|a^k z'| + i(theta_k + 2 pi n))) / b^k.

    Enumeration runs over (n, k) in a square spiral and stops once N distinct
    values are found or two consecutive rings add nothing new.  A
    log-modulus or angle without a finite dedup key raises EvaluationError.
    """
    if z_prime == 0:
        raise InvalidInputError("fiber over z = 0 is not in the chart")
    _require_finite("fiber base z'", z_prime)
    _require_samples(N, "N")
    params = inv.params

    if is_unit_proportional(X, params):
        r_exp = inv.rho if inv.p is None else inv.q / inv.p
        tau_eff = (r_exp * params.arg_a - params.arg_b) / TWO_PI
        base_log = r_exp * math.log(abs(z_prime))
        base_arg = r_exp * _arg01(z_prime)

        # The phase set {n r + k tau} mod 1 collapses along whichever index
        # is redundant; enumerating the raw (n, k) grid would spend O(N^2)
        # steps on duplicates, so pick the enumeration to match.
        if abs(tau_eff) < 1e-15:
            pairs_at = _spiral_rows          # (0, n): only n sets the phase

            def phase(_zero, n):
                return n * r_exp
        elif inv.p is not None:
            pairs_at = functools.partial(_spiral_rows, p=inv.p)

            def phase(j, k):
                return j / inv.p * inv.q + k * tau_eff
        else:
            pairs_at = _square_rings

            def phase(n, k):
                return n * r_exp + k * tau_eff

        def value_at(n, k):
            return np.full(n.shape, base_log), base_arg + TWO_PI * phase(n, k)
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

        # for B = 0 and integer A, w = z^A is single-valued: every branch
        # index n collapses, so enumerate deck steps only
        pairs_at = (_spiral_rows if B == 0.0 and float(A).is_integer()
                    else _square_rings)

    log_abs, ang, args = _enumerate_fiber(pairs_at, value_at, N)
    values, min_abs, max_abs = _polar(log_abs, ang)
    return FiberSet(values=values.tolist(), log_abs=log_abs.tolist(),
                    args=args.tolist(), min_abs=min_abs, max_abs=max_abs)


@dataclass(frozen=True)
class ClosureClass:
    tag: str
    sheets: Optional[int] = None
    diagnostics: dict = field(default_factory=dict)


def classify_orbit_closure(X: VectorField, params: HopfParams,
                           inv: InvariantSet) -> ClosureClass:
    """Classify the closure of the X-orbit through (1, 1) in the quotient.

    The class is decided symbolically from (alpha, beta) and the rationality
    invariants; the diagnostics dict carries the supporting numerics.
    """
    alpha, beta = X.alpha, X.beta

    if beta == 0:
        # Horizontal flow: accumulates on the w = 0 torus only.
        ts = [k * params.log_abs_a / alpha for k in range(_DECAY_STEPS + 1)]
        pts = orbit_reduce_samples(X, (1.0 + 0j, 1.0 + 0j), ts, params)
        decay = [abs(p.rep_w) for p in pts]
        return ClosureClass(tag="ContainsTaOnly",
                            diagnostics={"reduced_w_decay": decay,
                                         "final_reduced_w": decay[-1]})
    if alpha == 0:
        ts = [k * params.log_abs_b / beta for k in range(_DECAY_STEPS + 1)]
        pts = orbit_reduce_samples(X, (1.0 + 0j, 1.0 + 0j), ts, params)
        decay = [abs(p.rep_z) for p in pts]
        return ClosureClass(tag="ContainsTbOnly",
                            diagnostics={"reduced_z_decay": decay,
                                         "final_reduced_z": decay[-1]})

    fib = fiber_set(X, _EVIDENCE_Z_PRIME, inv, _EVIDENCE_FIBER)
    if is_unit_proportional(X, params):
        if inv.case_tag == "CaseB2":
            return ClosureClass(tag="CompactTorus", sheets=inv.nu,
                                diagnostics={"fiber_cardinality": len(fib),
                                             "nu": inv.nu})
        # Levi-flat hypersurface: the orbit stays on one modulus level and
        # its fiber phases equidistribute.
        ts = np.linspace(-_ORBIT_T_MAX, _ORBIT_T_MAX, _ORBIT_SAMPLES)
        resid = 0.0
        for t in ts:
            z, w = flow_point(X, (1.0 + 0j, 1.0 + 0j), complex(t))
            resid = max(resid, abs(abs(w) - abs(z) ** inv.rho))
        return ClosureClass(
            tag="LeviFlatHypersurface",
            diagnostics={"fiber_star_discrepancy": star_discrepancy(fib.args),
                         "orbit_modulus_residual": resid})
    return ClosureClass(tag="ContainsBothTori",
                        diagnostics={"fiber_min_abs": fib.min_abs,
                                     "fiber_max_abs": fib.max_abs,
                                     "fiber_log_abs_span":
                                         max(fib.log_abs) - min(fib.log_abs)})

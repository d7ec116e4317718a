"""Scalar reference for ``hopfsurf.flows.fiber_set``.

This is the element-by-element enumerator that the array version in
``flows`` replaced: one (n, k) index at a time, one dedup key per value,
one ``math.exp``/``math.cos``/``math.sin`` per kept value.  The tests
require the array version to reproduce its ``FiberSet`` bit for bit, as
compared by ``fiber_bits``.  The two differ only where this version fails:
a value without a finite dedup key (OverflowError here, EvaluationError
there) and a fiber wholly beyond the +-700 clip on one side, whose min_abs
and max_abs this version takes from math.exp unclipped.
"""

import math
import struct

import numpy as np

from hopfsurf.errors import EvaluationError, InvalidInputError
from hopfsurf.flows import FiberSet, is_unit_proportional
from hopfsurf.invariants import TWO_PI, _arg01

_DEDUP_TOL = 1e-12
_EXP_CLIP = 700.0


def _spiral_indices():
    yield 0
    m = 1
    while True:
        yield m
        yield -m
        m += 1


def _spiral_pairs():
    """Z^2 by square rings around the origin, each ring sorted."""
    yield (0, 0)
    m = 1
    while True:
        ring = [(n, k) for n in range(-m, m + 1) for k in range(-m, m + 1)
                if max(abs(n), abs(k)) == m]
        yield from sorted(ring)
        m += 1


class _Dedup:
    """Approximate set of (log_abs, angle) pairs with ~1e-12 resolution."""

    def __init__(self):
        self._seen = set()

    def add(self, log_abs, angle):
        a = angle % TWO_PI
        if a > TWO_PI - _DEDUP_TOL:
            a = 0.0
        key = (round(log_abs / _DEDUP_TOL), round(a / _DEDUP_TOL))
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


def _guarded_value(log_abs, angle):
    if log_abs > _EXP_CLIP:
        return complex(math.inf, 0.0)
    if log_abs < -_EXP_CLIP:
        return 0j
    return math.exp(log_abs) * complex(math.cos(angle), math.sin(angle))


def _enumerate_fiber(pairs, value_at, N):
    dedup = _Dedup()
    log_abs, args, values = [], [], []
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


def reference_fiber_set(X, z_prime, inv, N):
    """fiber_set computed one index at a time (same arguments and result)."""
    if z_prime == 0:
        raise InvalidInputError("fiber over z = 0 is not in the chart")
    if N < 1:
        raise InvalidInputError("N must be >= 1")
    params = inv.params

    if is_unit_proportional(X, params):
        r_exp = inv.q / inv.p if inv.p is not None else inv.rho
        tau_eff = (r_exp * params.arg_a - params.arg_b) / TWO_PI
        base_log = r_exp * math.log(abs(z_prime))
        base_arg = r_exp * _arg01(z_prime)

        def value_at_phase(phase):
            return base_log, base_arg + TWO_PI * phase

        if abs(tau_eff) < 1e-15:
            def value_at(n, _k):
                return value_at_phase(n * r_exp)

            pairs = ((n, 0) for n in _spiral_indices())
        elif inv.p is not None:
            pp = inv.p

            def value_at(j, k):
                return value_at_phase(j / pp * inv.q + k * tau_eff)

            pairs = ((j, k) for k in _spiral_indices() for j in range(pp))
        else:
            def value_at(n, k):
                return value_at_phase(n * r_exp + k * tau_eff)

            pairs = _spiral_pairs()
    else:
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


def fiber_bits(fib):
    """Every FiberSet field as bytes, so -0.0 and 0.0 differ, plus the
    Python types of the list entries."""
    return (np.array(fib.values, complex).tobytes(),
            np.array(fib.log_abs, float).tobytes(),
            np.array(fib.args, float).tobytes(),
            struct.pack("dd", fib.min_abs, fib.max_abs),
            {type(v) for v in fib.values},
            {type(x) for x in fib.log_abs + fib.args})

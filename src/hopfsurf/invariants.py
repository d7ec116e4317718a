"""Multiplier invariants of a two-dimensional linear contraction quotient.

A pair of multipliers (a, b) with |b| >= |a| > 1 generates the cyclic group
(z, w) -> (a z, b w) acting on C^2 minus the origin.  The biholomorphic type
of the quotient is governed by two real invariants:

    rho = log|b| / log|a|                    (>= 1)
    tau = (q/p) * arg(a)/(2 pi) - arg(b)/(2 pi)   (defined when rho = q/p)

with both arguments normalized to [0, 2 pi).  Three cases arise:

    CaseA  -- rho irrational
    CaseB1 -- rho = q/p rational, tau irrational
    CaseB2 -- rho and tau both rational; tau = m/l in lowest terms

In CaseB2 the compact-leaf count is nu = p*l/gcd(p, l) and the leaf
monodromy group K consists of the nu-th roots of unity.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .errors import (CaseError, ConsistencyError, InvalidInputError,
                     _require_finite, _require_tol)

TWO_PI = 2.0 * math.pi

# A continued-fraction convergent p/q of a generic irrational satisfies
# q^2 * |x - p/q| ~ 1/a_next, which in practice stays above ~1e-2.  A float
# that genuinely encodes a small-denominator rational terminates with
# q^2 * residual at rounding-error scale.  This factor separates the two.
_QUALITY_GATE = 1e-6

_DECLARED_GATE = 1e-9


def _arg01(c: complex) -> float:
    """Argument of c normalized to [0, 2 pi)."""
    a = cmath.phase(c)
    if a < 0.0:
        a += TWO_PI
    return a


@dataclass(frozen=True)
class HopfParams:
    """The multiplier pair (a, b), |b| >= |a| > 1."""

    a: complex
    b: complex

    def __post_init__(self):
        _require_finite("multiplier a", self.a)
        _require_finite("multiplier b", self.b)
        if not (abs(self.a) > 1.0):
            raise InvalidInputError(f"need |a| > 1, got |a| = {abs(self.a)}")
        if not (abs(self.b) >= abs(self.a)):
            raise InvalidInputError(
                f"need |b| >= |a|, got |b| = {abs(self.b)}, |a| = {abs(self.a)}"
            )

    @property
    def log_abs_a(self) -> float:
        return math.log(abs(self.a))

    @property
    def log_abs_b(self) -> float:
        return math.log(abs(self.b))

    @property
    def arg_a(self) -> float:
        return _arg01(self.a)

    @property
    def arg_b(self) -> float:
        return _arg01(self.b)

    def principal_log_a(self) -> complex:
        """log|a| + i arg(a), argument in [0, 2 pi)."""
        return complex(self.log_abs_a, self.arg_a)

    def principal_log_b(self) -> complex:
        return complex(self.log_abs_b, self.arg_b)

    @property
    def rho(self) -> float:
        return self.log_abs_b / self.log_abs_a


@dataclass(frozen=True)
class RationalityResult:
    """Outcome of the continued-fraction rationality heuristic for a float.

    kind is "ExactRational" (numerator/denominator in lowest terms,
    denominator >= 1) or "HeuristicIrrational" (best convergent recorded
    together with its residual).
    """

    kind: str
    tolerance: float
    max_denominator: int
    numerator: Optional[int] = None
    denominator: Optional[int] = None
    best_convergent: Optional[tuple[int, int]] = None
    residual: Optional[float] = None

    @property
    def is_rational(self) -> bool:
        return self.kind == "ExactRational"

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "tolerance": self.tolerance,
             "max_denominator": self.max_denominator}
        if self.is_rational:
            d["numerator"] = self.numerator
            d["denominator"] = self.denominator
        else:
            d["best_convergent"] = list(self.best_convergent)
            d["residual"] = self.residual
        return d


def _convergents(x: float, max_den: int):
    """Continued-fraction convergents p/q of x with q <= max_den."""
    p0, q0 = 1, 0
    p1, q1 = math.floor(x), 1
    yield p1, q1
    frac = x - math.floor(x)
    for _ in range(64):
        if frac <= 1e-18:
            return
        x = 1.0 / frac
        a = math.floor(x)
        frac = x - a
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > max_den:
            return
        yield p1, q1


def detect_rational(x: float, tol: float, max_den: int) -> RationalityResult:
    """Decide whether the float x plausibly encodes a rational number.

    Scans continued-fraction convergents p/q with q <= max_den.  A convergent
    is accepted when |x - p/q| <= tol *and* q^2 |x - p/q| is at rounding-error
    scale (quality gate); without the second condition any irrational with a
    large partial quotient near denominator max_den would be misclassified.
    Deterministic; returns the closest convergent on the irrational branch.
    """
    if not math.isfinite(x):
        raise InvalidInputError(f"x must be finite, got {x}")
    _require_tol(tol)
    if max_den < 1:
        raise InvalidInputError("max_den must be >= 1")

    best: Optional[tuple[int, int]] = None
    best_res = math.inf
    for p, q in _convergents(x, max_den):
        res = abs(x - p / q)
        if res < best_res:
            best, best_res = (p, q), res
        if res <= tol and q * q * res <= _QUALITY_GATE:
            frac = Fraction(p, q)  # lowest terms (convergents already are)
            return RationalityResult(
                kind="ExactRational", tolerance=tol, max_denominator=max_den,
                numerator=frac.numerator, denominator=frac.denominator)
    return RationalityResult(
        kind="HeuristicIrrational", tolerance=tol, max_denominator=max_den,
        best_convergent=best, residual=best_res)


@dataclass(frozen=True)
class Declared:
    """Exact, user-asserted invariants: rho = q/p, and tau = m/l.

    Pass l = m = None to assert that tau is irrational.
    """

    p: int
    q: int
    l: Optional[int] = None
    m: Optional[int] = None


@dataclass(frozen=True)
class Numeric:
    """Continued-fraction heuristic detection with tolerance and denominator cap."""

    tol: float = 1e-12
    max_den: int = 10**6


def roots_of_unity(nu: int) -> list[complex]:
    """The nu-th roots of unity, element 0 equal to 1.

    Quarter-turn roots (+-1, +-i) are returned exactly rather than through
    cmath.exp, so small groups serialize without 1e-16 dust.
    """
    if nu < 1:
        raise InvalidInputError("nu must be >= 1")
    out = []
    for k in range(nu):
        num = 4 * k
        if num % nu == 0:
            out.append([1 + 0j, 1j, -1 + 0j, -1j][(num // nu) % 4])
        else:
            out.append(cmath.exp(2j * math.pi * k / nu))
    return out


@dataclass(frozen=True)
class InvariantSet:
    """Fully derived invariants of a multiplier pair, with rationality metadata."""

    params: HopfParams
    rho: float
    rho_rationality: RationalityResult
    case_tag: str  # "CaseA" | "CaseB1" | "CaseB2"
    tau: Optional[float] = None
    tau_rationality: Optional[RationalityResult] = None
    p: Optional[int] = None
    q: Optional[int] = None
    l: Optional[int] = None
    m: Optional[int] = None
    g: Optional[int] = None
    nu: Optional[int] = None
    K: Optional[list] = field(default=None)

    def to_dict(self) -> dict:
        d = {
            "rho": self.rho,
            "rho_rationality": self.rho_rationality.to_dict(),
            "case_tag": self.case_tag,
            "tau": self.tau,
            "p": self.p, "q": self.q, "l": self.l, "m": self.m,
            "g": self.g, "nu": self.nu,
        }
        if self.tau_rationality is not None:
            d["tau_rationality"] = self.tau_rationality.to_dict()
        if self.K is not None:
            d["K"] = [[c.real, c.imag] for c in self.K]
        return d


def _tau_of(params: HopfParams, q: int, p: int) -> float:
    return ((q / p) * params.arg_a - params.arg_b) / TWO_PI


def _finish_rational_rho(params, rho, rho_rat, p, q, tau, tau_rat) -> InvariantSet:
    if tau_rat is not None and tau_rat.is_rational:
        m, l = tau_rat.numerator, tau_rat.denominator
        g = math.gcd(p, l)
        nu = p * l // g
        return InvariantSet(
            params=params, rho=rho, rho_rationality=rho_rat, case_tag="CaseB2",
            tau=tau, tau_rationality=tau_rat, p=p, q=q, l=l, m=m, g=g, nu=nu,
            K=roots_of_unity(nu))
    return InvariantSet(
        params=params, rho=rho, rho_rationality=rho_rat, case_tag="CaseB1",
        tau=tau, tau_rationality=tau_rat, p=p, q=q)


def derive_invariants(params: HopfParams, mode) -> InvariantSet:
    """Compute rho, tau and the case split for a multiplier pair.

    mode is either Declared (exact, user-asserted p, q, l, m -- checked
    against the computed floats to 1e-9) or Numeric (continued-fraction
    heuristic).  The Numeric branch is heuristic by nature: rationality of a
    real computed from floating logs is undecidable, and the result carries
    its tolerance metadata.
    """
    rho = params.rho

    if isinstance(mode, Declared):
        p, q = mode.p, mode.q
        if p < 1 or q < p or math.gcd(p, q) != 1:
            raise InvalidInputError(
                f"declared rho = {q}/{p} must have q >= p >= 1 and gcd(p, q) = 1")
        if abs(rho - q / p) > _DECLARED_GATE:
            raise ConsistencyError(
                f"declared rho = {q}/{p} but computed rho = {rho}")
        rho_rat = RationalityResult(
            kind="ExactRational", tolerance=_DECLARED_GATE,
            max_denominator=p, numerator=q, denominator=p)
        tau = _tau_of(params, q, p)
        if mode.l is None:
            if mode.m is not None:
                raise InvalidInputError("declared m without l")
            return _finish_rational_rho(params, rho, rho_rat, p, q, tau, None)
        l, m = mode.l, mode.m
        if l < 1 or math.gcd(l, abs(m)) != 1:
            raise InvalidInputError(
                f"declared tau = {m}/{l} must have l >= 1 and gcd(l, |m|) = 1")
        if abs(tau - m / l) > _DECLARED_GATE:
            raise ConsistencyError(
                f"declared tau = {m}/{l} but computed tau = {tau}")
        tau_rat = RationalityResult(
            kind="ExactRational", tolerance=_DECLARED_GATE,
            max_denominator=l, numerator=m, denominator=l)
        return _finish_rational_rho(params, rho, rho_rat, p, q, tau, tau_rat)

    if isinstance(mode, Numeric):
        rho_rat = detect_rational(rho, mode.tol, mode.max_den)
        if not rho_rat.is_rational:
            return InvariantSet(params=params, rho=rho,
                                rho_rationality=rho_rat, case_tag="CaseA")
        q, p = rho_rat.numerator, rho_rat.denominator
        tau = _tau_of(params, q, p)
        tau_rat = detect_rational(tau, mode.tol, mode.max_den)
        return _finish_rational_rho(params, rho, rho_rat, p, q, tau, tau_rat)

    raise InvalidInputError(f"unknown mode {mode!r}")


def require_case(inv: InvariantSet, tag: str) -> None:
    """Raise CaseError unless inv.case_tag == tag."""
    if inv.case_tag != tag:
        raise CaseError(f"operation requires {tag}, invariants are {inv.case_tag}")

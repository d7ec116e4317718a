"""Multipliers, invariants and helpers that several test modules share."""

import cmath
import math
import struct

from hopfsurf.invariants import HopfParams, Numeric, derive_invariants

P23 = HopfParams(2 + 0j, 3 + 0j)
INV23 = derive_invariants(P23, Numeric())
P24 = HopfParams(2 + 0j, 4 + 0j)
INV24 = derive_invariants(P24, Numeric())
P2M4 = HopfParams(2 + 0j, -4 + 0j)
INV2M4 = derive_invariants(P2M4, Numeric())


def random_point(rng, lo=-2.0, hi=2.0):
    """A point (z, w) with log-uniform moduli in [lo, hi] and uniform
    arguments."""
    z = math.exp(rng.uniform(lo, hi)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    w = math.exp(rng.uniform(lo, hi)) * cmath.exp(1j * rng.uniform(0, 2 * math.pi))
    return z, w


def complex_bits(x) -> bytes:
    """The bytes of a complex number, so two values compare bit for bit."""
    return struct.pack("<dd", x.real, x.imag)

"""Real bivariate polynomials in (x, y) = (Re z, Im z) with exact calculus.

Used for the boundary-graph coefficient functions: keeping them polynomial
(degree capped at 16) makes first and second derivatives exact, which the
curvature inequalities need -- finite differencing the case ladder would
drown the leading homogeneous parts in noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

MAX_DEGREE = 16


@dataclass(frozen=True)
class RealPoly2:
    """sum of coeffs[(i, j)] * x^i * y^j with real coefficients."""

    coeffs: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for (i, j), c in self.coeffs.items():
            if i < 0 or j < 0:
                raise InvalidInputError("negative exponent")
            if i + j > MAX_DEGREE:
                raise InvalidInputError(
                    f"degree {i + j} exceeds the supported cap {MAX_DEGREE}")
            if c != 0.0:
                clean[(int(i), int(j))] = float(c)
        object.__setattr__(self, "coeffs", clean)

    # -- evaluation ---------------------------------------------------------

    def eval(self, x, y):
        """Value at (x, y): a float for floats; for numpy arrays, an ndarray
        of the broadcast shape (0-d too), equal up to rounding."""
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            x, y = np.asarray(x, float), np.asarray(y, float)
            return np.asarray(sum((c * x**i * y**j for (i, j), c in
                                   self.coeffs.items()),
                                  np.zeros(np.broadcast(x, y).shape)))
        return sum(c * x**i * y**j for (i, j), c in self.coeffs.items())

    def __call__(self, z):
        return self.eval(*_xy(z))

    # -- calculus -----------------------------------------------------------

    def dx(self) -> "RealPoly2":
        return RealPoly2({(i - 1, j): c * i
                          for (i, j), c in self.coeffs.items() if i > 0})

    def dy(self) -> "RealPoly2":
        return RealPoly2({(i, j - 1): c * j
                          for (i, j), c in self.coeffs.items() if j > 0})

    def wirtinger_z(self, z):
        """(d/dx - i d/dy)/2 at z (or elementwise on an array)."""
        x, y = _xy(z)
        gx, gy = self.dx().eval(x, y), self.dy().eval(x, y)
        return 0.5 * (gx - 1j * gy if np.ndim(gx) else complex(gx, -gy))

    def laplacian(self, z):
        x, y = _xy(z)
        return (self.dx().dx().eval(x, y) + self.dy().dy().eval(x, y))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "RealPoly2") -> "RealPoly2":
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0.0) + c
        return RealPoly2(out)

    def scale(self, s: float) -> "RealPoly2":
        return RealPoly2({k: s * c for k, c in self.coeffs.items()})

    def __mul__(self, other: "RealPoly2") -> "RealPoly2":
        out: dict = {}
        for (i, j), c in self.coeffs.items():
            for (p, q), d in other.coeffs.items():
                k = (i + p, j + q)
                out[k] = out.get(k, 0.0) + c * d
        return RealPoly2(out)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def homogeneous_part(self, d: int) -> "RealPoly2":
        return RealPoly2({(i, j): c for (i, j), c in self.coeffs.items()
                          if i + j == d})

    def is_zero(self, tol: float = 0.0) -> bool:
        return all(abs(c) <= tol for c in self.coeffs.values())

    def complex_coeffs(self, d: int) -> dict:
        """Degree-d part rewritten as sum A[(r, s)] z^r zbar^s.

        Substitutes x = (z + zbar)/2 and y = (z - zbar)/(2i) and expands
        binomially; exact up to float rounding.  For a real-valued
        polynomial A[(s, r)] = conj(A[(r, s)]).
        """
        A: dict = {}
        for (i, j), c in self.coeffs.items():
            if i + j != d:
                continue
            for p in range(i + 1):  # x^i -> sum C(i,p) z^p zbar^(i-p) / 2^i
                cx = math.comb(i, p) / 2**i
                for q in range(j + 1):
                    # y^j -> sum C(j,q) z^q (-zbar)^(j-q) / (2i)^j
                    cy = math.comb(j, q) * (-1) ** (j - q) / (2j) ** j
                    key = (p + q, (i - p) + (j - q))
                    A[key] = A.get(key, 0j) + c * cx * cy
        return {k: v for k, v in A.items() if v != 0}


ZERO = RealPoly2({})


def _xy(z):
    """(Re z, Im z): Python floats for a scalar, arrays for an ndarray."""
    z = z if isinstance(z, np.ndarray) else complex(z)
    return z.real, z.imag


def from_complex_term(a: complex, r: int, s: int) -> RealPoly2:
    """The real polynomial Re(a * z^r * zbar^s)."""
    out: dict = {}
    for p in range(r + 1):
        for q in range(s + 1):
            # z^r = (x+iy)^r, zbar^s = (x-iy)^s
            coef = (a * math.comb(r, p) * (1j) ** (r - p)
                    * math.comb(s, q) * (-1j) ** (s - q))
            key = (p + q, (r - p) + (s - q))
            out[key] = out.get(key, 0.0) + coef.real
    return RealPoly2(out)

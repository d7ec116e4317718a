"""Tests for linear flows, fiber enumeration, and orbit-closure classes."""

import cmath
import math
import re

import numpy as np
import pytest

from hopfsurf.errors import InvalidInputError
from hopfsurf.flows import (VectorField, classify_orbit_closure, fiber_set,
                            flow_point, is_unit_proportional,
                            star_discrepancy, unit_field)
from hopfsurf.invariants import HopfParams, Numeric, derive_invariants
from hopfsurf.quotient import equivalent

P23 = HopfParams(2 + 0j, 3 + 0j)
INV23 = derive_invariants(P23, Numeric())
P2M4 = HopfParams(2 + 0j, -4 + 0j)
INV2M4 = derive_invariants(P2M4, Numeric())


class TestVectorField:
    def test_zero_field_rejected(self):
        with pytest.raises(InvalidInputError):
            VectorField(0j, 0j)

    @pytest.mark.parametrize("alpha, beta, bad", [
        (complex(math.nan, 0), 1 + 0j, "alpha = (nan+0j)"),
        (1 + 0j, complex(0, math.inf), "beta = infj"),
    ])
    def test_non_finite_field_rejected(self, alpha, beta, bad):
        with pytest.raises(InvalidInputError,
                           match=re.escape(f"field {bad} is not finite")):
            VectorField(alpha, beta)

    def test_unit_field_time_one_is_deck_step(self):
        for params in (P23, P2M4,
                       HopfParams(complex(2 * cmath.exp(0.4j)),
                                  complex(5 * cmath.exp(-0.9j)))):
            X = unit_field(params)
            z, w = flow_point(X, (1 + 0j, 1 + 0j), 1.0)
            assert abs(z - params.a) < 1e-12 * abs(params.a)
            assert abs(w - params.b) < 1e-12 * abs(params.b)

    def test_flow_group_law(self):
        rng = np.random.default_rng(7)
        X = VectorField(0.3 - 0.2j, 1.1 + 0.5j)
        for _ in range(50):
            s = complex(rng.normal(), rng.normal())
            t = complex(rng.normal(), rng.normal())
            start = (1.2 + 0.3j, -0.7 + 0.9j)
            one = flow_point(X, start, s + t)
            two = flow_point(X, flow_point(X, start, s), t)
            assert abs(one[0] - two[0]) < 1e-9 * (1 + abs(one[0]))
            assert abs(one[1] - two[1]) < 1e-9 * (1 + abs(one[1]))

    def test_proportionality_detection(self):
        X = unit_field(P23)
        assert is_unit_proportional(X, P23)
        scaled = VectorField(X.alpha * (2 - 1j), X.beta * (2 - 1j))
        assert is_unit_proportional(scaled, P23)
        assert not is_unit_proportional(VectorField(1 + 0j, 0j), P23)


class TestStarDiscrepancy:
    def test_perfect_lattice_is_small(self):
        n = 1000
        angles = 2 * math.pi * (np.arange(n) + 0.5) / n
        assert star_discrepancy(angles) <= 1.0 / n + 1e-12

    def test_clustered_sample_is_large(self):
        assert star_discrepancy([0.1] * 50) > 0.9


class TestFiberSet:
    def test_case_b2_fiber_is_finite(self):
        fib = fiber_set(unit_field(P2M4), 1.5 + 0j, INV2M4, 2048)
        assert len(fib) == INV2M4.nu == 2
        # the two values differ by the nontrivial root of unity
        v0, v1 = fib.values
        assert abs(v0 + v1) < 1e-9

    def test_case_a_fiber_lies_on_circle(self):
        fib = fiber_set(unit_field(P23), 1.5 + 0j, INV23, 512)
        assert len(fib) == 512
        r = 1.5 ** INV23.rho
        assert fib.min_abs == pytest.approx(r, rel=1e-9)
        assert fib.max_abs == pytest.approx(r, rel=1e-9)

    def test_case_a_fiber_equidistributes(self):
        fib = fiber_set(unit_field(P23), 1.5 + 0j, INV23, 10**4)
        assert star_discrepancy(fib.args) < 0.05

    def test_nonproportional_fiber_spans_moduli(self):
        fib = fiber_set(VectorField(1 + 0j, 1 + 0j), 1.5 + 0j, INV23, 256)
        assert max(fib.log_abs) - min(fib.log_abs) > 1.0

    def test_zero_fiber_rejected(self):
        with pytest.raises(InvalidInputError):
            fiber_set(unit_field(P23), 0j, INV23, 10)


    @pytest.mark.parametrize("z_prime", [complex(math.nan, 0),
                                         complex(1, math.inf)])
    def test_non_finite_fiber_rejected(self, z_prime):
        for X in (unit_field(P23), VectorField(1 + 0j, 1 + 0j)):
            with pytest.raises(InvalidInputError,
                               match=re.escape(f"fiber base z' = {z_prime} "
                                               "is not finite")):
                fiber_set(X, z_prime, INV23, 10)


class TestClassifyOrbitClosure:
    def test_horizontal_field(self):
        res = classify_orbit_closure(VectorField(1 + 0j, 0j), P2M4, INV2M4)
        assert res.tag == "ContainsTaOnly"
        assert res.diagnostics["final_reduced_w"] < 1e-6

    def test_vertical_field(self):
        res = classify_orbit_closure(VectorField(0j, 1 + 0j), P2M4, INV2M4)
        assert res.tag == "ContainsTbOnly"
        assert res.diagnostics["final_reduced_z"] < 1e-6

    def test_compact_torus(self):
        res = classify_orbit_closure(unit_field(P2M4), P2M4, INV2M4)
        assert res.tag == "CompactTorus"
        assert res.sheets == 2

    def test_levi_flat_hypersurface(self):
        res = classify_orbit_closure(unit_field(P23), P23, INV23)
        assert res.tag == "LeviFlatHypersurface"
        assert res.diagnostics["orbit_modulus_residual"] < 1e-9
        assert res.diagnostics["fiber_star_discrepancy"] < 0.05

    def test_dense_orbit(self):
        res = classify_orbit_closure(VectorField(1 + 0j, 1 + 0j), P23, INV23)
        assert res.tag == "ContainsBothTori"
        assert res.diagnostics["fiber_log_abs_span"] > 1.0


class TestFlowOnQuotient:
    def test_time_one_unit_flow_fixes_quotient_point(self):
        rng = np.random.default_rng(9)
        X = unit_field(P23)
        for _ in range(50):
            start = (complex(rng.normal(), rng.normal()) + 2,
                     complex(rng.normal(), rng.normal()) + 2)
            moved = flow_point(X, start, 1.0)
            assert equivalent(start, moved, P23, 1e-9)

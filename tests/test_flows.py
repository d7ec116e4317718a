"""Tests for linear flows, fiber enumeration, and orbit-closure classes."""

import cmath
import itertools
import math
import re

import numpy as np
import pytest
from fiber_reference import (_enumerate_fiber as reference_enumerate,
                             _spiral_indices, _spiral_pairs, fiber_bits,
                             reference_fiber_set)

from hopfsurf.errors import EvaluationError, InvalidInputError
from hopfsurf.flows import (VectorField, _enumerate_fiber, _spiral_rows,
                            _square_rings, classify_orbit_closure,
                            fiber_set, flow_point, is_unit_proportional,
                            star_discrepancy, unit_field)
from hopfsurf.invariants import HopfParams, Numeric, derive_invariants
from hopfsurf.quotient import equivalent

P23 = HopfParams(2 + 0j, 3 + 0j)
INV23 = derive_invariants(P23, Numeric())
P2M4 = HopfParams(2 + 0j, -4 + 0j)
INV2M4 = derive_invariants(P2M4, Numeric())


def _inv(a, b):
    return derive_invariants(HopfParams(complex(a), complex(b)), Numeric())


# rational rho = q/p with an irrational twist (CaseB1) or a root-of-unity
# twist (CaseB2), for p = 1, 2, 3; and two irrational twists (CaseA)
INV_B1_P1 = _inv(2, 4 * cmath.exp(1j))
INV_B1_P2 = _inv(4, 8 * cmath.exp(1j))
INV_B1_P3 = _inv(8, 16 * cmath.exp(0.5j))
INV_B2_P2 = _inv(4, -8)
INV_B2_P3 = _inv(8, -16)
INV_TWIST = _inv(2 * cmath.exp(0.4j), 5 * cmath.exp(-0.9j))


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

    def test_empty_sample_rejected(self):
        with pytest.raises(InvalidInputError, match="^empty sample$"):
            star_discrepancy([])


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

    def test_vertical_field_rejected(self):
        with pytest.raises(EvaluationError,
                           match="the fiber construction requires "
                                 "alpha != 0$"):
            fiber_set(VectorField(0j, 1 + 0j), 1.5 + 0j, INV23, 10)


    @pytest.mark.parametrize("z_prime", [complex(math.nan, 0),
                                         complex(1, math.inf)])
    def test_non_finite_fiber_rejected(self, z_prime):
        for X in (unit_field(P23), VectorField(1 + 0j, 1 + 0j)):
            with pytest.raises(InvalidInputError,
                               match=re.escape(f"fiber base z' = {z_prime} "
                                               "is not finite")):
                fiber_set(X, z_prime, INV23, 10)


# (field, invariants) for every enumeration branch of fiber_set
_BRANCHES = {
    "tau0": (unit_field(P23), INV23),
    "p1-B1": (unit_field(INV_B1_P1.params), INV_B1_P1),
    "p2-B1": (unit_field(INV_B1_P2.params), INV_B1_P2),
    "p3-B1": (unit_field(INV_B1_P3.params), INV_B1_P3),
    "p1-B2": (unit_field(P2M4), INV2M4),
    "p2-B2": (unit_field(INV_B2_P2.params), INV_B2_P2),
    "p3-B2": (unit_field(INV_B2_P3.params), INV_B2_P3),
    "twisted": (unit_field(INV_TWIST.params), INV_TWIST),
    "nonproportional": (VectorField(1 + 0j, 0.5 + 0.3j), INV23),
    "nonproportional-B1": (VectorField(0.2 + 0.1j, 7.5 - 3j), INV_B1_P2),
    "deck-only": (VectorField(1 + 0j, 1 + 0j), INV23),
    # B = 0 and A < 0 give the angle -0.0 at (n, k) = (0, 0) for z' = 0.5
    "deck-only-negative": (VectorField(1 + 0j, -2 + 0j), INV23),
    "negative-real-ratio": (VectorField(1 + 0j, complex(-math.sqrt(2))),
                            INV23),
    # log-moduli past +-700 on both sides of the clip
    "past-clip": (VectorField(1 + 0j, 50 + 0j), INV23),
}


class TestIndexStreams:
    def test_square_rings_match_sorted_rings(self):
        i = np.arange(61**2)                   # rings 0 .. 30
        got = list(zip(*(x.tolist() for x in _square_rings(i))))
        assert got == list(itertools.islice(_spiral_pairs(), i.size))

    @pytest.mark.parametrize("p", [1, 2, 3, 7])
    def test_spiral_rows_match_nested_loops(self, p):
        i = np.arange(p * 101)
        got = list(zip(*(x.tolist() for x in _spiral_rows(i, p))))
        want = [(j, k) for k in itertools.islice(_spiral_indices(), 101)
                for j in range(p)]
        assert got == want


class TestStaleRingStop:
    """Synthetic streams whose rings k = +-m repeat ring 0 on chosen rings
    and add values elsewhere: enumeration must stop after the first two
    consecutive stale rings, wherever the block boundaries fall (the first
    block of 64 positions holds rings 0 to 31 whole)."""

    @pytest.mark.parametrize("stale", [(2, 3), (5, 7, 8), (30, 31),
                                       (31, 32), (32, 33), (31, 33, 34),
                                       (70, 71), ()])
    @pytest.mark.parametrize("N", [20, 66, 80, 200])
    def test_matches_scalar_loop(self, stale, N):
        def value_at(_j, k):
            m = np.abs(k)
            return (0.0 * k, np.where(np.isin(m, stale), 0.0,
                                      0.01 * m + 0.001 * (k < 0)))

        def scalar_value_at(_j, k):
            return (0.0, 0.0 if abs(k) in stale
                    else 0.01 * abs(k) + 0.001 * (k < 0))

        log_abs, ang, args = _enumerate_fiber(_spiral_rows, value_at, N)
        _, ref_log_abs, ref_args = reference_enumerate(
            ((0, k) for k in _spiral_indices()), scalar_value_at, N)
        assert log_abs.tolist() == ref_log_abs
        assert args.tolist() == ref_args
        assert ang.tolist() == ref_args


class TestFiberMatchesReference:
    @pytest.mark.parametrize("branch", list(_BRANCHES))
    @pytest.mark.parametrize("z_prime", [1.5 + 0j, 0.5 + 0j, -0.7 + 0.7j])
    @pytest.mark.parametrize("N", [1, 2, 63, 64, 65, 300, 2048])
    def test_bit_identical(self, branch, z_prime, N):
        X, inv = _BRANCHES[branch]
        assert (fiber_bits(fiber_set(X, z_prime, inv, N))
                == fiber_bits(reference_fiber_set(X, z_prime, inv, N)))

    def test_duplicate_heavy_stream(self):
        # w = z^-2.5 has two branch phases, so ring m adds only the values
        # of its columns k = +-m, four of its 8m pairs
        X = VectorField(1 + 0j, -2.5 + 0j)
        assert (fiber_bits(fiber_set(X, 1.5 + 0j, INV23, 300))
                == fiber_bits(reference_fiber_set(X, 1.5 + 0j, INV23, 300)))

    def test_case_a_fiber_of_ten_thousand(self):
        X = unit_field(P23)
        assert (fiber_bits(fiber_set(X, 0.8 - 1.1j, INV23, 10**4))
                == fiber_bits(reference_fiber_set(X, 0.8 - 1.1j, INV23,
                                                  10**4)))

    @pytest.mark.parametrize("inv", [INV2M4, INV_B2_P2, INV_B2_P3,
                                     _inv(4, 8), _inv(2, 4),
                                     _inv(2, 2 ** (97 / 89)),
                                     _inv(2, -(2 ** (97 / 89)))])
    def test_finite_fiber_stops_after_two_stale_rings(self, inv):
        fib = fiber_set(unit_field(inv.params), 1.5 + 0j, inv, 10**6)
        assert len(fib) == inv.nu
        assert fiber_bits(fib) == fiber_bits(
            reference_fiber_set(unit_field(inv.params), 1.5 + 0j, inv, 10**6))

    def test_values_past_the_clip(self):
        X, inv = _BRANCHES["past-clip"]
        fib = fiber_set(X, 1.5 + 0j, inv, 64)
        la = np.array(fib.log_abs)
        v = np.array(fib.values)
        assert la.max() > 700 and la.min() < -700
        assert np.all(v[la > 700] == complex(math.inf, 0.0))
        assert np.all(v[la < -700] == 0)
        assert (fib.min_abs, fib.max_abs) == (0.0, math.inf)

    @pytest.mark.parametrize("z_prime, bound", [(1e200 + 0j, math.inf),
                                                (1e-200j, 0.0)])
    def test_fiber_wholly_past_the_clip(self, z_prime, bound):
        # every value is inf (or 0), and so are min_abs and max_abs
        fib = fiber_set(unit_field(P23), z_prime, INV23, 3)
        assert len(fib) == 3
        assert fib.min_abs == fib.max_abs == bound
        assert fib.values == [complex(bound, 0.0)] * 3

    def test_huge_field_ratio_is_an_evaluation_error(self):
        # log|w| = 1e300 log 1.5 has no 1e-12 dedup key
        with pytest.raises(EvaluationError, match=re.escape(
                "fiber log-modulus or angle at (n, k) = (0, 0) is out of "
                "floating-point range")):
            fiber_set(VectorField(1e-300 + 0j, 1 + 0j), 1.5 + 0j, INV23, 10)

    def test_overflow_beyond_the_stop_is_not_reached(self):
        # only the first value has a finite key; N = 1 stops before the next
        X = VectorField(1 + 0j, 1e300 + 0j)
        fib = fiber_set(X, 1.0 + 0j, INV23, 1)
        assert fiber_bits(fib) == fiber_bits(
            reference_fiber_set(X, 1.0 + 0j, INV23, 1))
        with pytest.raises(EvaluationError):
            fiber_set(X, 1.0 + 0j, INV23, 2)


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

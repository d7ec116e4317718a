"""Tests for fundamental-shell reduction and the level coordinate."""

import cmath
import dataclasses
import math
import time

import numpy as np
import pytest

from hopfsurf import quotient
from hopfsurf.errors import CaseError, EvaluationError, InvalidInputError
from hopfsurf.invariants import HopfParams, Numeric, derive_invariants
from hopfsurf.quotient import (HopfPoint, _hopf_point, _in_fundamental_domain,
                               _shell_violation, equivalent, leaf_equivalent,
                               level_membership, reduce_point, reduce_points,
                               u_value)
from quotient_reference import point_bits, reference_reduce_point
from params import random_point, complex_bits

PARAMS = HopfParams(2 + 0j, 4 + 0j)
PARAMS_TWIST = HopfParams(complex(2 * cmath.exp(0.7j)),
                          complex(3 * cmath.exp(-1.3j)))


class TestReducePoint:
    def test_worked_example(self):
        pt = reduce_point((6 + 0j, 20 + 0j), PARAMS)
        assert pt.rep_z == pytest.approx(1.5)
        assert pt.rep_w == pytest.approx(1.25)
        assert pt.lift_index == 2

    def test_shell_membership(self):
        rng = np.random.default_rng(0)
        a_abs, b_abs = abs(PARAMS.a), abs(PARAMS.b)
        for _ in range(300):
            pt = reduce_point(random_point(rng), PARAMS)
            z_abs, w_abs = abs(pt.rep_z), abs(pt.rep_w)
            in_e1 = z_abs <= a_abs and 1 < w_abs <= b_abs
            in_e2 = 1 < z_abs <= a_abs and w_abs <= b_abs
            assert in_e1 or in_e2

    def test_round_trip_under_deck_lifts(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            z, w = random_point(rng)
            base = reduce_point((z, w), PARAMS_TWIST)
            n = int(rng.integers(-10, 11))
            a, b = PARAMS_TWIST.a, PARAMS_TWIST.b
            lifted = reduce_point((z * a**n, w * b**n), PARAMS_TWIST)
            rel = max(abs(lifted.rep_z - base.rep_z) / (1 + abs(base.rep_z)),
                      abs(lifted.rep_w - base.rep_w) / (1 + abs(base.rep_w)))
            assert rel < 1e-12

    def test_axis_points_reduce_onto_tori(self):
        pt = reduce_point((8 + 0j, 0j), PARAMS)
        assert pt.on_Ta and not pt.on_Tb
        pt = reduce_point((0j, 32 + 0j), PARAMS)
        assert pt.on_Tb and not pt.on_Ta

    def test_origin_rejected(self):
        with pytest.raises(InvalidInputError):
            reduce_point((0j, 0j), PARAMS)


class TestFastPath:
    """reduce_point returns index floor(t) at once unless its representative
    is within 1e-9 of the inner faces, outside F, or overflows."""

    @pytest.fixture
    def window_calls(self, monkeypatch):
        calls = []
        window = quotient._reduce_window
        monkeypatch.setattr(quotient, "_reduce_window",
                            lambda pt, *a: calls.append(pt) or window(pt, *a))
        return calls

    def test_margin_point_runs_the_window(self, window_calls):
        pt = ((1.0 + 1e-12) * 2**5, 0.5 * 4**5)   # rep (1 + 1e-12, 0.5)
        got = reduce_point(pt, PARAMS)
        assert window_calls == [pt]
        assert got.lift_index == 5 and abs(got.rep_z) == 1.0 + 1e-12
        want = reference_reduce_point(pt, PARAMS)
        assert point_bits(got) == point_bits(want)

    @pytest.mark.parametrize("pt", [(1.5 * 2**5, 0.5 * 4**5),
                                    ((1.0 + 1e-8) * 2**5, 0.5 * 4**5),
                                    (0.3 * 2**-7, 3.0 * 4**-7)])
    def test_interior_point_skips_the_window(self, window_calls, pt):
        got = reduce_point(pt, PARAMS)
        assert window_calls == []
        want = reference_reduce_point(pt, PARAMS)
        assert point_bits(got) == point_bits(want)

    def test_hopf_point_matches_the_constructor(self):
        for args in ((1.5 + 0.5j, 0.25j, -3, False, False),
                     (2.0 + 0j, 0j, 7, True, False)):
            fast, slow = _hopf_point(*args), HopfPoint(*args)
            assert fast == slow and hash(fast) == hash(slow)
            assert repr(fast) == repr(slow)
            assert dataclasses.asdict(fast) == dataclasses.asdict(slow)
            with pytest.raises(dataclasses.FrozenInstanceError):
                fast.lift_index = 0
        with pytest.raises(InvalidInputError):
            HopfPoint(0j, 0j, 0, True, True)


class TestExtremeModuli:
    """Inputs whose log-moduli reach the ends of the float range."""

    def test_huge_z_tiny_w(self):
        pt = reduce_point((1e300, 1e-300), PARAMS)
        assert pt.lift_index == 996
        assert pt.rep == (1.4932217896051503 + 0j, 0j)

    def test_smallest_subnormal_z(self):
        pt = reduce_point((5e-324, 1), PARAMS)
        assert pt.lift_index == -1
        assert pt.rep == (1e-323 + 0j, 4 + 0j)

    def test_u_value_of_subnormal_coordinate(self):
        # abs() rounds to subnormal precision: |5e-324 (1 + i)| is
        # sqrt(2) * 2**-1074, which abs() returns as 2**-1074
        u = u_value((5e-324 + 5e-324j, 1 + 0j), PARAMS)
        assert u == pytest.approx(-1073.5, abs=1e-12)

    def test_face_point_near_unit_multipliers(self):
        params = HopfParams(1.0000001 + 0j, 1.0000001 + 0j)
        pt = ((-0.9986450820758603 - 0.052024994442554186j),
              (0.148406937663945 - 0.025780001228679163j))
        start = time.perf_counter()
        assert reduce_point(pt, params).lift_index == -7
        assert time.perf_counter() - start < 1.0

    def test_multiplier_next_to_the_unit_circle(self):
        # |a| - 1 = 6e-14 and z subnormal put the lift near -1.1e16; the
        # representative still lands within the 1e-12 shell tolerance
        params = HopfParams(0.32682304612350804 + 0.9450855498433356j,
                            -0.7405273415971865 - 0.672026231889181j)
        pt = reduce_point((8.359116867e-314 + 9.696613907e-314j, 0j), params)
        assert _shell_violation(pt.rep_z, pt.rep_w, params) <= 1e-12

    @pytest.mark.parametrize("a, b, pt, lift", [
        # |b| above 1e154: the representative of floor(t) - 1 exceeds DBL_MAX
        (2, 1e308, (1, 1e200), 0),
        (1.4692731895145282e96, 1.0142320547350045e304,
         (1.6e-256 + 1.5e-257j, -9.2e-139 + 6.6e-139j), -1),
        # components near DBL_MAX overflow the intermediate sums of z / a**n
        (-301585687.7140995 - 700211342.3529955j,
         186505355307.37216 - 46673010822.812325j,
         (1.7e308 + 1.7e308j, -4.4290774321797006e-89 + 5.4e-105j), 34),
        # |a| - 1 = 1.1e-7 at lift 6.4e9: a rounded unit factor a/|a|
        # raised to n would drift in modulus by n eps
        (0.5104592939898622 + 0.8599020466720462j, 1.0000001204895341,
         (1 + 1.7e308j, 1), 6431849239),
    ])
    def test_reduces_at_the_multiplier_range_ends(self, a, b, pt, lift):
        params = HopfParams(complex(a), complex(b))
        r = reduce_point(pt, params)
        assert r.lift_index == lift
        assert _in_fundamental_domain(r.rep_z, r.rep_w, params)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan,
                                     complex(1, math.inf)])
    @pytest.mark.parametrize("fn", [
        lambda pt: reduce_point(pt, PARAMS),
        lambda pt: u_value(pt, PARAMS, extended=True),
        lambda pt: level_membership(pt, 0.5, PARAMS),
    ])
    def test_non_finite_rejected(self, fn, bad):
        for name, pt in (("z", (bad, 1.5)), ("w", (1.5, bad))):
            with pytest.raises(InvalidInputError,
                               match=f"coordinate {name} = .* is not finite"):
                fn(pt)


def _assert_rows_match(z, w, params):
    rz, rw, n = reduce_points(z, w, params)
    assert rz.shape == rw.shape == n.shape == (len(z),)
    for i in range(len(z)):
        pt = reduce_point((complex(z[i]), complex(w[i])), params)
        assert ((int(n[i]), complex_bits(rz[i]), complex_bits(rw[i]))
                == (pt.lift_index, complex_bits(pt.rep_z),
                    complex_bits(pt.rep_w)))


class TestReducePoints:
    """The batch equals reduce_point row by row, bit for bit."""

    @pytest.mark.parametrize("params", [PARAMS, PARAMS_TWIST])
    def test_matches_reduce_point_on_a_wide_batch(self, params):
        rng = np.random.default_rng(4)
        lz, lw = rng.uniform(-40, 40, (2, 2000))
        z = np.exp(lz + 1j * rng.uniform(0, 2 * math.pi, 2000))
        w = np.exp(lw + 1j * rng.uniform(0, 2 * math.pi, 2000))
        _assert_rows_match(z, w, params)

    def test_matches_reduce_point_on_lifted_face_points(self):
        # (u a**k, 0.5 b**k) and (0.5 a**k, u b**k) with |u| = 1 put the
        # representative on a face of F up to rounding.
        a, b = PARAMS_TWIST.a, PARAMS_TWIST.b
        u = cmath.rect(1.0, 0.3)
        ks = range(-30, 31)
        z = np.array([x * a**k for k in ks for x in (u, 0.5, u * a)])
        w = np.array([y * b**k for k in ks for y in (0.5, u, 0.5)])
        _assert_rows_match(z, w, PARAMS_TWIST)

    def test_only_fallback_rows_reach_reduce_point(self, monkeypatch):
        rows = [(1.5 + 0.2j, 2.0),             # plain: lift 0
                (0j, 3.0),                     # a zero coordinate
                (5e-324, 1.0),                 # a subnormal modulus
                (1.7e308 + 1.7e308j, 1.0),     # abs() overflows
                (1e300, 1e-300),               # |n| log|b| >= 708
                (4.0, 0.5),                    # t = 2 is an integer
                (2.5, 3.0)]                    # plain: lift 1
        z, w = np.array(rows).T
        calls = []
        scalar = quotient.reduce_point
        monkeypatch.setattr(quotient, "reduce_point",
                            lambda pt, p: calls.append(pt) or scalar(pt, p))
        _, _, n = reduce_points(z, w, PARAMS)
        assert calls == rows[1:6]
        assert (n[0], n[6]) == (0, 1)
        monkeypatch.undo()
        _assert_rows_match(z, w, PARAMS)

    def test_empty_batch(self):
        rz, rw, n = reduce_points(np.zeros(0, complex), np.zeros(0, complex),
                                  PARAMS)
        assert rz.shape == rw.shape == n.shape == (0,)
        assert n.dtype == np.int64


class TestEquivalent:
    def test_deck_translates_are_equivalent(self):
        assert equivalent((2 + 0j, 4 + 0j), (1 + 0j, 1 + 0j), PARAMS, 1e-9)

    def test_distinct_points_are_not(self):
        assert not equivalent((1.3 + 0j, 1.7 + 0j), (1.1 + 0j, 1.7 + 0j),
                              PARAMS, 1e-9)

    def test_randomized_symmetry(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            p1 = random_point(rng)
            n = int(rng.integers(-5, 6))
            p2 = (p1[0] * PARAMS.a**n, p1[1] * PARAMS.b**n)
            assert equivalent(p1, p2, PARAMS, 1e-9)
            assert equivalent(p2, p1, PARAMS, 1e-9)


class TestUValue:
    def test_deck_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            z, w = random_point(rng)
            u0 = u_value((z, w), PARAMS_TWIST)
            n = int(rng.integers(-10, 11))
            un = u_value((z * PARAMS_TWIST.a**n, w * PARAMS_TWIST.b**n),
                         PARAMS_TWIST)
            assert abs(un - u0) < 1e-12 * (1 + abs(u0))

    def test_extended_values_on_tori(self):
        assert u_value((2 + 0j, 0j), PARAMS, extended=True) == math.inf
        assert u_value((0j, 2 + 0j), PARAMS, extended=True) == -math.inf
        with pytest.raises(EvaluationError):
            u_value((2 + 0j, 0j), PARAMS)


class TestLevelMembership:
    def test_on_level(self):
        # |w| = k |z|^rho with rho = 2, k = e^{-c log|b|}
        c = 0.25
        k = math.exp(-c * PARAMS.log_abs_b)
        z = 1.3 + 0j
        w = k * abs(z) ** 2 + 0j
        res = level_membership((z, w), c, PARAMS)
        assert abs(res.residual) < 1e-12
        assert res.k == pytest.approx(k)

    def test_off_level_signed(self):
        res = level_membership((1 + 0j, 3 + 0j), 0.0, PARAMS)
        assert res.residual != 0.0

    @pytest.mark.parametrize("pt", [(1.5 + 0j, 0j), (0j, 1.5 + 0j)])
    def test_torus_point_rejected(self, pt):
        with pytest.raises(EvaluationError,
                           match="^level sets do not meet the coordinate "
                                 "tori$"):
            level_membership(pt, 0.0, PARAMS)


class TestLeafEquivalent:
    def setup_method(self):
        self.inv = derive_invariants(HopfParams(2 + 0j, -4 + 0j), Numeric())

    def test_needs_rational_invariants(self):
        inv = derive_invariants(HopfParams(2 + 0j, 3 + 0j), Numeric())
        with pytest.raises(CaseError, match="invariants are CaseA$"):
            leaf_equivalent(1.7 + 0j, 1.7 + 0j, inv, 1e-9)

    def test_zero_label_rejected(self):
        with pytest.raises(InvalidInputError,
                           match="^leaf label c1 must be nonzero$"):
            leaf_equivalent(0j, 1.7 + 0j, self.inv, 1e-9)

    def test_root_of_unity_orbit(self):
        assert leaf_equivalent(1.7 + 0j, -1.7 + 0j, self.inv, 1e-9)
        assert leaf_equivalent(1.7 + 0j, 1.7 + 0j, self.inv, 1e-9)
        assert not leaf_equivalent(1.7 + 0j, 1.9 + 0j, self.inv, 1e-9)

    def test_is_equivalence_relation(self):
        rng = np.random.default_rng(5)
        tol = 1e-9
        for _ in range(100):
            c1 = complex(rng.normal(), rng.normal())
            if abs(c1) < 0.1:
                continue
            k = self.inv.K[int(rng.integers(len(self.inv.K)))]
            c2 = c1 * k * (1 + tol * 0.1)
            # symmetry and reflexivity; transitivity with doubled slack
            assert leaf_equivalent(c1, c1, self.inv, tol)
            assert leaf_equivalent(c1, c2, self.inv, tol) == \
                leaf_equivalent(c2, c1, self.inv, tol)
            if leaf_equivalent(c1, c2, self.inv, tol):
                c3 = c2 * self.inv.K[1]
                assert leaf_equivalent(c1, c3, self.inv, 2 * tol)

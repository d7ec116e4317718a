"""Tests for Levi curvature, boundary graphs, and the positivity search."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest

from hopfsurf.domains import LevelBand, Nemirovskii, SubLevel, SuperLevel
from hopfsurf.errors import (EvaluationError, InvalidInputError,
                             PreconditionError)
from hopfsurf.invariants import HopfParams, Numeric, derive_invariants
from hopfsurf.levi import (BoundaryModel, Jet2, diamond_search, levi2_residual,
                           levi_form, numeric_jet, pseudoconvexity_scan,
                           sweep_cover_check)
from hopfsurf.poly import ZERO, RealPoly2, from_complex_term

P23 = HopfParams(2 + 0j, 3 + 0j)
INV23 = derive_invariants(P23, Numeric())
P24 = HopfParams(2 + 0j, 4 + 0j)
INV24 = derive_invariants(P24, Numeric())


def _sphere(z, w):
    return abs(z) ** 2 + abs(w) ** 2 - 1.0


class TestLeviForm:
    def test_sphere_jet_symbolic(self):
        # at (1, 0): d_z = 1, d_w = 0, both diagonal seconds = 1 -> L = 1
        jet = Jet2(value=0.0, d_z=1 + 0j, d_w=0j, d_zzbar=1.0, d_wwbar=1.0,
                   d_zwbar=0j)
        assert levi_form(jet) == 1.0

    def test_homogeneity_degree_three_exact(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            jet = Jet2(value=rng.normal(),
                       d_z=complex(rng.normal(), rng.normal()),
                       d_w=complex(rng.normal(), rng.normal()),
                       d_zzbar=rng.normal(), d_wwbar=rng.normal(),
                       d_zwbar=complex(rng.normal(), rng.normal()))
            lam = 2.0  # power of two: the scaling is exact in floats
            assert levi_form(jet.scaled(lam)) == lam**3 * levi_form(jet)


class TestNumericJet:
    def test_sphere_points(self):
        for pt in ((1 + 0j, 0j), (0.6 * cmath.exp(0.3j), 0.8 * cmath.exp(-1.1j))):
            jet = numeric_jet(_sphere, pt)
            assert abs(levi_form(jet) - 1.0) < 1e-6

    def test_real_part_derivative(self):
        jet = numeric_jet(lambda z, w: w.real, (0.7 + 0.2j, 1.1 - 0.4j),
                          h=1e-4)
        assert abs(jet.d_w - 0.5) < 1e-8
        assert abs(jet.d_z) < 1e-8
        assert abs(jet.d_wwbar) < 1e-6

    def test_modulus_squared_hessian(self):
        jet = numeric_jet(lambda z, w: abs(z) ** 2, (1.3 - 0.2j, 0.5 + 0j))
        assert abs(jet.d_zzbar - 1.0) < 1e-6
        assert abs(jet.d_zwbar) < 1e-6

    def test_constant_function(self):
        jet = numeric_jet(lambda z, w: 4.25, (1 + 1j, 2 - 1j))
        assert jet.d_z == 0 and jet.d_w == 0
        assert jet.d_zzbar == jet.d_wwbar == 0

    def test_second_order_convergence(self):
        # without extrapolation the error drops by ~4x when h halves
        def f(z, w):
            return (z.real ** 4 + z.imag ** 3 * w.real
                    + w.real ** 2 * w.imag ** 2)

        pt = (0.9 + 0.3j, 1.1 - 0.6j)
        exact = numeric_jet(f, pt, h=1e-3).d_zzbar
        e1 = abs(numeric_jet(f, pt, h=0.2, richardson=False).d_zzbar - exact)
        e2 = abs(numeric_jet(f, pt, h=0.1, richardson=False).d_zzbar - exact)
        assert e1 / e2 >= 3.5

    @pytest.mark.parametrize("richardson, calls", [(True, 49), (False, 25)])
    def test_psi_evaluations_per_jet(self, richardson, calls):
        # one pass: f0, two axis points per real coordinate and four corners
        # for each of the four mixed (z, w) pairs, 25 distinct points; the
        # Richardson pass at h/2 reuses f0 and adds 24 more
        seen = []

        def psi(z, w):
            seen.append((z, w))
            return _sphere(z, w)

        numeric_jet(psi, (0.6 + 0.2j, -0.3 + 0.7j), richardson=richardson)
        assert len(seen) == calls
        assert len(set(seen)) == calls


class TestPseudoconvexityScan:
    def test_level_band_is_levi_flat(self):
        rep = pseudoconvexity_scan(LevelBand(0.5, 2.0), 100, 1e-6, P23, 7,
                                   inv=INV23)
        assert rep.pseudoconvex_at_samples
        assert abs(rep.min_levi) < 1e-6 and abs(rep.max_levi) < 1e-6

    def test_nemirovskii_is_levi_flat(self):
        rep = pseudoconvexity_scan(Nemirovskii(1.0, 0.0), 100, 1e-6, P24, 7,
                                   inv=INV24)
        assert rep.pseudoconvex_at_samples
        assert rep.min_levi == rep.max_levi == 0.0

    def test_nemirovskii_needs_a_real_second_multiplier(self):
        # the scanned residual is the kind's own, with its precondition
        with pytest.raises(PreconditionError, match="real second multiplier"):
            pseudoconvexity_scan(Nemirovskii(1.0, 0.0), 5, 1e-6,
                                 HopfParams(2 + 0j, 4 + 1j), 7)

    def test_detects_non_pseudoconvex_surface(self):
        from hopfsurf.domains import ImplicitDomain
        spec = ImplicitDomain(psi=lambda z, w: w.real - abs(z) ** 2)
        rep = pseudoconvexity_scan(spec, 50, 1e-6, P23, 7, inv=INV23)
        assert not rep.pseudoconvex_at_samples
        assert rep.min_levi < -0.1

    def test_spec_without_boundary_rejected(self):
        from hopfsurf.domains import ImplicitDomain
        spec = ImplicitDomain(psi=lambda z, w: 1.0)
        with pytest.raises(EvaluationError,
                           match="^no boundary points found for this spec$"):
            pseudoconvexity_scan(spec, 3, 1e-6, P23, 7, inv=INV23)

    @pytest.mark.parametrize("spec, params", [
        (SubLevel(1e-300), P23), (SuperLevel(1e-300), P23),
        (LevelBand(0.5, 2.0), HopfParams(2 + 0j, 1e300 + 0j))])
    def test_far_boundary_points_are_levi_flat(self, spec, params):
        # |z| near 1e189 squared with ** raised OverflowError
        rep = pseudoconvexity_scan(spec, 5, 1e-6, params, 7)
        assert rep.pseudoconvex_at_samples
        assert abs(rep.min_levi) < 1e-6 and abs(rep.max_levi) < 1e-6

    @pytest.mark.parametrize("spec, params", [
        (LevelBand(0.5, 2.0), HopfParams(1e300 + 0j, 1e300 + 0j)),
        (SubLevel(1e250), P23)])
    def test_levi_value_out_of_range_is_an_error(self, spec, params):
        # these reported min_levi nan (or raised OverflowError)
        with pytest.raises(EvaluationError,
                           match=r"^the Levi value at the boundary point .* "
                                 r"is nan: out of the float range$"):
            pseudoconvexity_scan(spec, 5, 1e-6, params, 7)

    def test_jet_divisor_underflow_is_an_error(self):
        # |z|^2 underflows to 0.0: this raised ZeroDivisionError
        with pytest.raises(EvaluationError,
                           match=r"z conj\(w\) underflows$"):
            pseudoconvexity_scan(SuperLevel(1e300), 5, 1e-6, P23, 7)
        with pytest.raises(EvaluationError, match=r"underflows$"):
            numeric_jet(_sphere, (1e-170 + 0j, 1.0 + 0j))

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_bad_sample_counts(self, n):
        with pytest.raises(InvalidInputError, match="n_samples"):
            pseudoconvexity_scan(LevelBand(0.5, 2.0), n, 1e-6, P23, 7,
                                 inv=INV23)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_bad_seed(self, seed):
        # -1 and 2.5 used to reach numpy's default_rng; True ran
        with pytest.raises(InvalidInputError,
                           match=f"seed must be an integer >= 0, got {seed}"):
            pseudoconvexity_scan(LevelBand(0.5, 2.0), 5, 1e-6, P23, seed,
                                 inv=INV23)

    @pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
    def test_rejects_bad_tol(self, tol):
        # a negative tol flags the Levi-flat band boundary everywhere, inf
        # passes anything, nan compares false both ways
        with pytest.raises(InvalidInputError,
                           match=r"tol must be finite and >= 0, got"):
            pseudoconvexity_scan(LevelBand(0.5, 2.0), 5, tol, P23, 7,
                                 inv=INV23)


class TestLevi2Residual:
    def test_modulus_squared_positive(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): 1.0}),))
        assert levi2_residual(model, 0.3 + 0.2j) == pytest.approx(1.0)

    def test_harmonic_leading_term_vanishes(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): -1.0}),))
        assert levi2_residual(model, 0.3 + 0.2j) == pytest.approx(0.0)

    def test_negative_for_superharmonic(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): -1.0, (0, 2): -1.0}),))
        assert levi2_residual(model, 0.1 + 0j) == pytest.approx(-1.0)


class TestDiamondSearch:
    def test_gradient_case(self):
        model = BoundaryModel(p=(RealPoly2({(1, 0): 1.0}),))
        res = diamond_search(model, 1.0)
        assert res.found and res.p0_value > 0
        assert res.case == "gradient"

    def test_subharmonic_circle_case(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): 1.0}),))
        res = diamond_search(model, 1.0)
        assert res.found and res.p0_value > 0
        assert abs(abs(res.z_star) - 0.5) < 1e-9

    def test_pure_quadratic_direction_case(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): -1.0}),))
        res = diamond_search(model, 1.0)
        assert res.found and res.p0_value > 0
        # z* sits along -arg(a20)/2 = 0: the positive real axis
        assert abs(res.z_star.imag) < 1e-6 * abs(res.z_star)

    def test_result_respects_disk(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            coeffs = {(2, 0): rng.uniform(0.2, 2.0),
                      (0, 2): rng.uniform(0.2, 2.0),
                      (1, 1): rng.normal()}
            model = BoundaryModel(p=(RealPoly2(coeffs),))
            res = diamond_search(model, 0.5)
            assert res.found
            assert abs(res.z_star) < 0.5
            assert model.p[0](res.z_star) > 0

    @pytest.mark.parametrize("r1", [math.inf, math.nan, 0.0, -1.0])
    def test_r1_must_be_finite_and_positive(self, r1):
        # r1 = inf once gave found with z* = inf, and nan three numpy
        # warnings; warnings raise here, so the check runs before any p0
        model = BoundaryModel(p=(RealPoly2({(1, 1): 1.0}),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (diamond_search, sweep_cover_check):
                with pytest.raises(InvalidInputError,
                                   match=f"^r1 must be finite and > 0, got "
                                         f"{r1}$"):
                    call(model, r1)

    @pytest.mark.parametrize("coeffs, r1", [
        # the scalar eval of x**16 raised OverflowError (CLI exit 1)
        ({(16, 0): 1.0, (0, 2): 1.0}, 1e20),
        ({(2, 0): 1.0}, 1e300),
        # found with p0(z*) = inf, printed as the non-JSON Infinity
        ({(1, 1): 1.0}, 1e300),
    ])
    def test_overflow_names_r1(self, coeffs, r1):
        model = BoundaryModel(p=(RealPoly2(coeffs),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError,
                               match=re.escape(f"the model overflows on "
                                               f"|z| <= r1 = {r1:g}") + "$"):
                diamond_search(model, r1)

    @pytest.mark.parametrize("coeffs, r1, case, value", [
        ({(2, 0): 1.0, (0, 2): 1.0}, 1e100, "a11-positive", 2.5e199),
        # |p0_z|^2 overflows on the ring, but p2 = 0 drops that term
        ({(3, 0): 1.0, (1, 2): -3.0}, 1e80, "odd-leading", 1.25e239),
    ])
    def test_large_r1_without_overflow(self, coeffs, r1, case, value):
        model = BoundaryModel(p=(RealPoly2(coeffs),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = diamond_search(model, r1)
        assert res.found and res.case == case and res.violation is None
        assert abs(res.z_star) == pytest.approx(r1 / 2, rel=1e-12)
        assert res.p0_value == pytest.approx(value, rel=1e-12)


# one boundary model per branch of the case ladder: (p0 coefficients, case,
# trace); the two generic-fallback rows reach that label from d = 2 and d = 4
_LADDER = [
    ({(1, 0): 1.0, (0, 1): -2.0}, "gradient", ("gradient nonzero at 0",)),
    ({(2, 0): 1.0, (0, 2): 1.0}, "a11-positive",
     ("leading homogeneous degree 2",
      "a11 = 1 > 0: subharmonic circle search")),
    ({(2, 0): 1.0, (0, 2): -1.0}, "a20",
     ("leading homogeneous degree 2", "a11 ~ 0, a20 != 0: direction -0")),
    ({(2, 0): -1.0, (0, 2): -1.0}, "generic-fallback",
     ("leading homogeneous degree 2", "degenerate quadratic part",
      "generic-fallback: shrink budget exhausted")),
    ({(3, 0): 1.0}, "odd-leading",
     ("leading homogeneous degree 3",
      "odd leading degree 3: circle direction 9.12506e-09")),
    ({(4, 0): 1.0}, "even-leading",
     ("leading homogeneous degree 4",
      "even leading degree 4: weighted circle direction 6.45239e-09")),
    ({(4, 0): 1.0, (2, 2): 2.0, (0, 4): 1.0}, "radial-subharmonic",
     ("leading homogeneous degree 4",
      "even leading degree 4, diagonal a_n = 1 > 0")),
    ({(4, 0): -1.0, (2, 2): -2.0, (0, 4): -1.0}, "generic-fallback",
     ("leading homogeneous degree 4",
      "even leading degree with nonpositive diagonal",
      "generic-fallback: shrink budget exhausted")),
]


class TestDiamondLadder:
    @pytest.mark.parametrize("coeffs, case, trace", _LADDER)
    def test_case_and_trace(self, coeffs, case, trace):
        model = BoundaryModel(p=(RealPoly2(coeffs),))
        res = diamond_search(model, 1.0)
        assert (res.case, res.trace) == (case, trace)
        assert res.found == (not trace[-1].endswith("budget exhausted"))
        if res.found:
            assert 0 < abs(res.z_star) < 1.0
            assert res.p0_value == model.p[0](res.z_star) > 0


class TestDiamondViolation:
    def test_violation_is_reported_without_a_warning(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): -1.0, (0, 2): -1.0}),))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = diamond_search(model, 1.0)
        assert res.violation == 0.3 + 0j
        assert levi2_residual(model, np.array([res.violation]))[0] < -1e-9

    def test_no_violation(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): 1.0}),))
        assert diamond_search(model, 1.0).violation is None


def _counting_model(coeffs):
    """A p0-only model whose p0 counts its eval calls (array or scalar)."""
    calls = []

    class CountingPoly(RealPoly2):
        def eval(self, x, y):
            calls.append(np.shape(x))
            return RealPoly2.eval(self, x, y)

    model = BoundaryModel(p=(CountingPoly(coeffs),))
    calls.clear()
    return model, calls


class TestCircleSearchCalls:
    # a circle costs one grid call and 63 scalar refine calls, then p0(z):
    # 65 per radius, against 4,160 with a scalar grid
    def test_one_grid_call_per_circle(self):
        model, calls = _counting_model({(2, 0): 1.0, (0, 2): 1.0})
        res = diamond_search(model, 1.0)
        assert res.found and res.case == "a11-positive"
        assert len(calls) <= 70
        assert calls.count((4096,)) == 1

    def test_generic_fallback_budget(self):
        model, calls = _counting_model({(2, 0): -1.0, (0, 2): -1.0})
        res = diamond_search(model, 1.0)
        assert not res.found and res.case == "generic-fallback"
        assert len(calls) <= 60 * 70


class TestSweepCover:
    def test_harmonic_quadratic_model(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): -1.0}),))
        rep = sweep_cover_check(model, 1.0)
        assert rep.r_prime > 0
        assert rep.max_arc_residual < 1e-9

    def test_modulus_squared_model(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): 1.0}),))
        rep = sweep_cover_check(model, 1.0)
        assert rep.r_prime > 0
        assert rep.max_arc_residual < 1e-9

    def test_zero_p0_rejected(self):
        model = BoundaryModel(p=(RealPoly2({}),))
        with pytest.raises(PreconditionError):
            sweep_cover_check(model, 1.0)

    def test_no_positivity_point_rejected(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): -1.0, (0, 2): -1.0}),))
        with pytest.raises(PreconditionError,
                           match="^no positivity point found; cannot anchor "
                                 "the sweep"):
            sweep_cover_check(model, 1.0)

    @pytest.mark.parametrize("p, r1", [
        # p0 overflows on the circle search (CLI exit 1)
        (({(2, 0): 1.0, (0, 2): 1.0},), 1e200),
        (({(2, 0): 1.0, (0, 2): 1.0},), 1e308),
        # p0(z*) is finite but the arcs p1(s z*) u overflow
        (({(2, 0): 1.0, (0, 2): 1.0}, {(2, 0): 1.0}), 1e150),
    ])
    def test_overflow_names_r1(self, p, r1):
        model = BoundaryModel(p=tuple(RealPoly2(c) for c in p))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError,
                               match=re.escape(f"the model overflows on "
                                               f"|z| <= r1 = {r1:g}") + "$"):
                sweep_cover_check(model, r1)

    @pytest.mark.parametrize("n", [0, -4])
    def test_rejects_bad_w_sample_counts(self, n):
        # no samples would certify the first radius tried
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): 1.0}),))
        with pytest.raises(InvalidInputError,
                           match=f"n_w_samples must be >= 1, got {n}"):
            sweep_cover_check(model, 1.0, n_w_samples=n)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_bad_seed(self, seed):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): 1.0}),))
        with pytest.raises(InvalidInputError,
                           match=f"seed must be an integer >= 0, got {seed}"):
            sweep_cover_check(model, 1.0, seed=seed)

    def test_one_w_sample_accepted(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): 1.0}),))
        rep = sweep_cover_check(model, 1.0, n_w_samples=1, seed=3)
        assert rep.r_prime > 0


class TestBoundaryModel:
    @pytest.mark.parametrize("p, message", [
        ((), "need at least p0"),
        (({(1, 0): 1.0},), "coefficients must be RealPoly2"),
        ((RealPoly2({(0, 0): 0.5, (1, 0): 1.0}),), "p0(0) must vanish"),
        ((RealPoly2({(1, 0): 1.0}), RealPoly2({(0, 0): -2.0})),
         "p1(0) must vanish"),
        # first and second derivative coefficients of p0 that overflow;
        # these were reported as an overflow on |z| <= r1
        ((RealPoly2({(3, 0): 1e308, (1, 2): -1e308}),),
         "the p0 coefficient 1e+308 of x^3 y^0 has the derivative "
         "coefficient inf"),
        ((RealPoly2({(3, 0): 1.0, (1, 2): -1e308}),),
         "the p0 coefficient -1e+308 of x^1 y^2 has the derivative "
         "coefficient -inf"),
        ((RealPoly2({(0, 4): 2e307}),),
         "the p0 coefficient 2e+307 of x^0 y^4 has the derivative "
         "coefficient inf"),
        ((RealPoly2({(2, 0): 1.0}), RealPoly2({(0, 3): -1e308})),
         "the p1 coefficient -1e+308 of x^0 y^3 has the derivative "
         "coefficient -inf"),
        ((RealPoly2({(1, 0): math.nan}),),
         "the p0 coefficient nan of x^1 y^0 has the derivative "
         "coefficient nan"),
    ])
    def test_rejects_malformed_models(self, p, message):
        with pytest.raises(InvalidInputError,
                           match=f"^{re.escape(message)}$"):
            BoundaryModel(p=p)

    @pytest.mark.parametrize("p", [
        # derivative coefficients up to 1.6e308; p1's second derivatives
        # (here 3e308) and p2's derivatives are never taken
        (RealPoly2({(0, 4): 4e307 / 3}),),
        (RealPoly2({(1, 1): 1e308}),),
        (RealPoly2({(2, 0): 1.0}), RealPoly2({(0, 3): 5e307})),
        (RealPoly2({(2, 0): 1.0}), ZERO, RealPoly2({(4, 0): 1e308})),
    ])
    def test_accepts_finite_derivative_coefficients(self, p):
        BoundaryModel(p=p)


class TestRealPoly2:
    @pytest.mark.parametrize("coeffs, message", [
        ({(-1, 2): 1.0}, "negative exponent"),
        ({(10, 7): 1.0}, "degree 17 exceeds the supported cap 16"),
    ])
    def test_rejects_bad_monomials(self, coeffs, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            RealPoly2(coeffs)

    @pytest.mark.parametrize("i, j", [(1.5, 0), (0, 2.0), (True, 0),
                                      (0, False), ("2", 0)])
    def test_rejects_non_integer_exponents(self, i, j):
        # int() read 1.5 and True as 1, silently
        with pytest.raises(InvalidInputError, match=re.escape(
                f"exponents must be integers, got ({i!r}, {j!r})")):
            RealPoly2({(i, j): 1.0})

    def test_complex_coefficient_round_trip(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            a = complex(rng.normal(), rng.normal())
            r, s = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            poly = from_complex_term(a, r, s)
            z = complex(rng.normal(), rng.normal())
            expect = (a * z**r * z.conjugate() ** s).real
            assert abs(poly(z) - expect) < 1e-10 * (1 + abs(expect))

    def test_laplacian_of_modulus_squared(self):
        poly = RealPoly2({(2, 0): 1.0, (0, 2): 1.0})
        assert poly.laplacian(0.3 + 0.9j) == pytest.approx(4.0)

    def test_array_evaluation_broadcasts(self):
        poly = RealPoly2({(2, 0): 1.0, (1, 1): -3.0, (0, 3): 0.5})
        x, y = np.linspace(-1, 1, 4).reshape(4, 1), np.linspace(-2, 2, 3)
        out = poly.eval(x, y)
        assert out.shape == (4, 3)
        for i, j in np.ndindex(4, 3):
            assert out[i, j] == pytest.approx(poly.eval(x[i, 0], y[j]),
                                              rel=1e-15, abs=1e-15)
        assert np.array_equal(RealPoly2({}).eval(x, y), np.zeros((4, 3)))
        assert poly(np.asarray(0.5 - 1j)).shape == ()

    def test_zero_polynomial_gives_float_zeros(self):
        zero = RealPoly2({})
        for v in (zero.eval(0.3, 0.2), zero(0.3 + 0.2j), zero.eval(0, 0)):
            assert type(v) is float and v == 0.0
        out = zero(np.array([0.3 + 0.2j, -1.0 + 0j]))
        assert out.dtype == float and np.array_equal(out, np.zeros(2))
        # a zero d/dy keeps the +0 imaginary part of the derivative
        assert repr(RealPoly2({(2, 0): 1.0}).wirtinger_z(-1.0)) == "(-1+0j)"

    def test_calculus_on_arrays(self):
        model = BoundaryModel(p=(RealPoly2({(2, 0): 1.0, (0, 2): -2.0,
                                             (3, 1): 0.7}),
                                 RealPoly2({(1, 1): 0.3}),
                                 RealPoly2({(0, 0): 0.4})))
        p0 = model.coeff(0)
        z = np.array([0.3 + 0.2j, -0.5 + 0j, 0.1 - 0.7j])
        for fn in (p0.wirtinger_z, p0.laplacian,
                   lambda zz: levi2_residual(model, zz)):
            out = fn(z)
            assert out.shape == (3,)
            for k in range(3):
                assert out[k] == pytest.approx(fn(complex(z[k])), rel=1e-14,
                                               abs=1e-15)

"""Tests for invariant domains, translation, and classification."""

import cmath
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from hopfsurf.domains import (ImplicitDomain, LeafFamily, LevelBand,
                              ModulusRegion, Nemirovskii, ProductHalfPlane,
                              SubLevel, SuperLevel,
                              classify_domain, distance_to_identity,
                              evaluate_domain, tangency_check,
                              translate_domain, verify_nemirovskii_quotient)
from hopfsurf.errors import (CaseError, EvaluationError, InvalidInputError,
                             PreconditionError)
from hopfsurf.flows import VectorField, unit_field
from hopfsurf import domains, flows, levi, robin
from hopfsurf.invariants import HopfParams, derive_invariants
from hopfsurf.poly import RealPoly2
from hopfsurf.quotient import reduce_points
from params import P23, INV23, P24, INV24, P2M4, INV2M4, random_point


class TestSpecs:
    def test_level_band_ordering(self):
        with pytest.raises(InvalidInputError):
            LevelBand(k1=2.0, k2=0.5)

    def test_nemirovskii_normalization(self):
        spec = Nemirovskii(2.0, 0.0)
        assert spec.A == pytest.approx(1.0)
        with pytest.raises(InvalidInputError):
            Nemirovskii(0.0, 0.0)

    @pytest.mark.parametrize("A, B", [(-1.0, 0.0), (0.0, -2.0)])
    def test_nemirovskii_canonical_sign(self, A, B):
        with pytest.raises(InvalidInputError,
                           match="^canonical normalization requires A >= 0 "):
            Nemirovskii(A, B)

    @pytest.mark.parametrize("make", [
        lambda: LevelBand(0.5, math.inf), lambda: LevelBand(math.inf, math.inf),
        lambda: LevelBand(math.nan, 2.0), lambda: SubLevel(math.inf),
        lambda: SuperLevel(math.inf), lambda: SuperLevel(math.nan),
        lambda: Nemirovskii(math.nan, 0.0), lambda: Nemirovskii(math.inf, 0.0),
        lambda: Nemirovskii(1.0, -math.inf),
        lambda: Nemirovskii(math.inf, math.nan),
        lambda: ProductHalfPlane(math.nan), lambda: ProductHalfPlane(math.inf)])
    def test_non_finite_parameters_rejected(self, make):
        # k = inf once passed, and an infinite end then left no finite one
        with pytest.raises(InvalidInputError, match="finite"):
            make()


class TestEvaluateDomain:
    def test_level_band_on_middle_level(self):
        spec = LevelBand(0.5, 2.0)
        z = 1.3 + 0.4j
        w = abs(z) ** INV23.rho * cmath.exp(0.7j)
        res = evaluate_domain(spec, (z, w), P23, INV23)
        assert res.inside
        assert res.residual == pytest.approx(max(math.log(0.5), -math.log(2.0)))

    def test_nemirovskii_signs(self):
        spec = Nemirovskii(1.0, 0.0)
        assert not evaluate_domain(spec, (1 + 0j, 1 + 0j), P24).inside
        assert evaluate_domain(spec, (1 + 0j, -1 + 0j), P24).inside

    def test_nemirovskii_requires_real_b(self):
        with pytest.raises(PreconditionError):
            evaluate_domain(Nemirovskii(1.0, 0.0), (1 + 0j, -1 + 0j), P2M4)

    def test_sign_is_deck_invariant(self):
        rng = np.random.default_rng(13)
        specs = [LevelBand(0.5, 2.0), SubLevel(1.0), SuperLevel(1.5)]
        for _ in range(200):
            pt = random_point(rng)
            n = int(rng.integers(-4, 5))
            lifted = (pt[0] * P23.a**n, pt[1] * P23.b**n)
            for spec in specs:
                s0 = evaluate_domain(spec, pt, P23, INV23).inside
                s1 = evaluate_domain(spec, lifted, P23, INV23).inside
                assert s0 == s1

    def test_leaf_family_membership(self):
        # region delta = unit disk in the leaf parameter
        spec = LeafFamily(residual_fn=lambda c: abs(c) - 1.0)
        inside = evaluate_domain(spec, (1.5 + 0j, 0.5 * 1.5**2 + 0j), P2M4,
                                 INV2M4)
        assert inside.inside
        outside = evaluate_domain(spec, (1.5 + 0j, 3.0 * 1.5**2 + 0j), P2M4,
                                  INV2M4)
        assert not outside.inside

    def test_leaf_family_needs_case_b2(self):
        spec = LeafFamily(residual_fn=lambda c: abs(c) - 1.0)
        with pytest.raises(CaseError):
            evaluate_domain(spec, (1.5 + 0j, 1 + 0j), P23, INV23)


class TestTranslateDomain:
    def test_nemirovskii_gives_product_half_plane(self):
        spec = Nemirovskii(1.0, 0.0)
        theta = 0.4
        anchor = (1 + 0j, -cmath.exp(1j * theta))
        td = translate_domain(spec, anchor, P24, INV24)
        assert isinstance(td, ProductHalfPlane)
        assert td.theta == pytest.approx(theta)

    def test_level_band_gives_modulus_region(self):
        spec = LevelBand(0.5, 2.0)
        anchor = (1.3 + 0j, 1.3**INV23.rho + 0j)
        td = translate_domain(spec, anchor, P23, INV23)
        assert isinstance(td, ModulusRegion)
        assert td.log_k1 < 0.0 < td.log_k2

    def test_identity_inside_translate(self):
        rng = np.random.default_rng(17)
        spec = LevelBand(0.5, 2.0)
        n_found = 0
        for _ in range(200):
            pt = random_point(rng)
            if evaluate_domain(spec, pt, P23, INV23).inside:
                td = translate_domain(spec, pt, P23, INV23)
                assert td.residual(1 + 0j, 1 + 0j) < 0
                n_found += 1
        assert n_found > 20

    def test_outside_anchor_rejected(self):
        with pytest.raises(EvaluationError):
            translate_domain(Nemirovskii(1.0, 0.0), (1 + 0j, 1 + 0j), P24,
                             INV24)

    def test_torus_anchor_rejected(self):
        # the w = 0 torus lies inside a sub-level union, but a modulus
        # region cannot be recentered on it
        with pytest.raises(EvaluationError,
                           match="^anchor on a coordinate torus does not "
                                 "recenter a modulus region$"):
            translate_domain(SubLevel(1.5), (1.5 + 0j, 0j), P23, INV23)

    def test_product_half_plane_residual(self):
        rng = np.random.default_rng(41)
        for theta in (-1.2, 0.0, 0.4, 1.5):
            assert ProductHalfPlane(theta).residual(1 + 0j, 1 + 0j) == \
                -math.cos(theta)
        # a shell anchor is its own representative, so the translate divides
        # by it: the residual is Nemirovskii's at the point over |w0|
        spec, anchor = Nemirovskii(0.6, -0.8), (1.5 + 0.2j, -1.8 + 0.9j)
        td = translate_domain(spec, anchor, P24, INV24)
        for _ in range(50):
            z, w = random_point(rng)
            r = spec.residual(z, w, P24, INV24)
            rt = td.residual(z / anchor[0], w / anchor[1])
            assert np.sign(rt) == np.sign(r)
            assert rt == pytest.approx(r / abs(anchor[1]), rel=1e-12,
                                       abs=1e-15)

    @pytest.mark.parametrize("spec, params, inv, anchor", [
        (LeafFamily(residual_fn=lambda c: abs(c) - 1.0), P2M4, INV2M4,
         (1.5 + 0j, 0.5 * 1.5**2 + 0j)),
        (ImplicitDomain(psi=lambda z, w: abs(w) - 10.0), P24, INV24,
         (1 + 0j, 1 + 0j))], ids=["LeafFamily", "ImplicitDomain"])
    def test_kinds_without_a_walkable_translate(self, spec, params, inv,
                                                anchor):
        # only the level kinds and Nemirovskii translate; the others say so
        # by name once the anchor is found inside, before any walk
        msg = f"^{type(spec).__name__} has no walkable translate$"
        budget = robin.ExperimentBudget(n_walks=100, seed=5)
        calls = [
            lambda: translate_domain(spec, anchor, params, inv),
            lambda: robin.boundary_behavior_experiment(
                spec, [anchor], params, inv, budget),
            lambda: robin.psh_spot_check(spec, anchor, (0j, 1 + 0j), 0.01, 3,
                                         params, inv, budget)]
        for call in calls:
            with pytest.raises(EvaluationError, match=msg):
                call()

    def test_parallel_law(self):
        # translate at anchor2 is the (z1/z2, w1/w2)-scaling of translate at
        # anchor1, checked on sampled points
        rng = np.random.default_rng(19)
        spec = LevelBand(0.5, 2.0)
        a1 = (1.2 + 0j, 1.2**INV23.rho * cmath.exp(0.3j))
        a2 = (0.9 + 0.4j, abs(0.9 + 0.4j) ** INV23.rho * 1.1 + 0j)
        t1 = translate_domain(spec, a1, P23, INV23)
        t2 = translate_domain(spec, a2, P23, INV23)
        s_z = a1[0] / a2[0]
        s_w = a1[1] / a2[1]
        for _ in range(100):
            xi = complex(rng.normal(), rng.normal()) + 2
            eta = complex(rng.normal(), rng.normal()) + 2
            r2 = t2.residual(xi, eta)
            r1 = t1.residual(xi / s_z, eta / s_w)
            assert abs(r1 - r2) < 1e-10 * (1 + abs(r1))


class TestDistanceToIdentity:
    def test_product_half_plane_exact(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            theta = rng.uniform(-math.pi / 2 + 0.01, math.pi / 2 - 0.01)
            lo, hi = distance_to_identity(ProductHalfPlane(theta))
            assert abs(lo - math.cos(theta)) < 1e-14
            assert abs(hi - math.cos(theta)) < 1e-14

    def test_modulus_region_shrinks_near_boundary(self):
        spec = LevelBand(0.5, 2.0)
        dists = []
        for c in (1.0, 0.7, 0.55, 0.51):
            anchor = (1.0 + 0j, c + 0j)
            lo, hi = distance_to_identity(
                translate_domain(spec, anchor, P23, INV23))
            assert lo <= hi + 1e-12
            dists.append(hi)
        assert dists == sorted(dists, reverse=True)
        assert dists[-1] < 0.05

    @pytest.mark.parametrize("lo_k, hi_k", [(-0.5, math.inf),
                                            (-math.inf, 0.3), (-2.0, 1.5)])
    def test_modulus_region_bracket_on_lines(self, lo_k, hi_k):
        # rho = 1: each end is the line s2 = k s1, |k - 1| / hypot(1, k) away
        d = min(abs(math.exp(lk) - 1.0) / math.hypot(1.0, math.exp(lk))
                for lk in (lo_k, hi_k) if math.isfinite(lk))
        lo, hi = distance_to_identity(ModulusRegion(lo_k, hi_k, 1.0))
        assert lo <= d <= hi <= lo + 2.0000001e-10

    @pytest.mark.parametrize("spec, anchor", [
        # log k = 1055.7 and -825.5: e^log k overflows and underflows
        (SubLevel(1e300), (1e100 + 0j, 1 + 0j)),
        (SuperLevel(1e-300), (1e-100 + 0j, 1e-100 + 0j))])
    def test_modulus_region_with_k_past_the_float_range(self, spec, anchor):
        # each curve runs along a coordinate axis near (1, 1): distance 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = translate_domain(spec, anchor, P23,
                                      INV23).distance_bounds()
        assert lo <= 1.0 <= hi <= lo + 2.0000001e-10

    @pytest.mark.parametrize("lo_k, hi_k", [(-1000.0, math.inf),
                                            (-math.inf, 1000.0)])
    def test_modulus_region_line_past_the_float_range(self, lo_k, hi_k):
        # rho = 1: the line s2 = k s1 with k = e^-1000 or e^1000 is within
        # 1e-434 of an axis, so 1 away
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = ModulusRegion(lo_k, hi_k, 1.0).distance_bounds()
        assert lo <= 1.0 <= hi <= lo + 2.0000001e-10

    def test_modulus_region_mixes_a_normal_and_a_mirrored_end(self):
        # rho = 1: the line s2 = e^0.3 s1 is |k - 1| / hypot(1, k) away;
        # the line at k = e^-1000, searched mirrored, is 1 away
        k = math.exp(0.3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lo, hi = ModulusRegion(-1000.0, 0.3, 1.0).distance_bounds()
        assert lo <= abs(k - 1.0) / math.hypot(1.0, k) <= hi
        assert hi <= lo + 2.0000001e-10

    def test_modulus_region_keeps_a_curve_past_the_float_range(self):
        # k = e^1000 is no float, but with rho = 1000 the curve s2 = (e
        # s1)^1000 crosses s2 = 1 at s1 = 1/e: about 1 - 1/e away, not 1
        from scipy.optimize import minimize_scalar
        lo, hi = ModulusRegion(-math.inf, 1000.0, 1000.0).distance_bounds()
        ref = minimize_scalar(  # the curve's point (e^(u/1000 - 1), e^u)
            lambda u: math.hypot(math.exp(u / 1000.0 - 1.0) - 1.0,
                                 math.exp(u) - 1.0),
            bounds=(-3.0, 3.0), method="bounded",
            options={"xatol": 1e-12}).fun
        assert lo <= ref <= hi <= lo + 2.0000001e-10
        assert abs(ref - (1.0 - math.exp(-1.0))) < 1e-7

    def test_modulus_region_without_finite_end(self):
        with pytest.raises(EvaluationError,
                           match="^region has no finite boundary$"):
            ModulusRegion(-math.inf, math.inf, 1.0).distance_bounds()

    def test_modulus_region_finds_the_far_foot_point(self):
        # two local minima of the curve distance, about 0.9995 below the
        # identity and 0.98 near s1 = 2: the far one is the distance
        lo, hi = distance_to_identity(
            ModulusRegion(-7.6246189861593985, math.inf, 11.0))
        assert 0.980 < lo < hi < 0.981

    def test_import_leaves_scipy_optimize_out(self):
        import hopfsurf
        src = os.path.dirname(os.path.dirname(hopfsurf.__file__))
        code = ("import hopfsurf, sys; "
                "assert 'scipy.optimize' not in sys.modules")
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_no_path_loads_scipy(self):
        # scipy is a test dependency only: no walk, screened or not, and no
        # oracle loads it, and a fresh process gives the in-process bits
        import hopfsurf
        from hopfsurf.robin import ball_oracle
        src = os.path.dirname(os.path.dirname(hopfsurf.__file__))
        code = "\n".join([
            "import sys",
            "import hopfsurf.cli as cli",
            "from hopfsurf.robin import (HalfSpace, ball_oracle,",
            "                            identity_point, robin_constant)",
            "assert cli.main(['invariants', '--a-re', '2',",
            "                 '--b-re', '4']) == 0",
            "assert cli.main(['reduce', '--a-re', '2', '--b-re', '3',",
            "                 '--z-re', '64', '--w-re', '121.5']) == 0",
            # 10 blocks of 4,096 walks, streamed through two live sets
            "for c in (0.0, 0.5):",
            "    robin_constant(HalfSpace((0.0, 0.0, 1.0, 0.0), 0.0),",
            "                   identity_point(), 40_000, 3, c_weight=c)",
            "ball_oracle(1.0)",
            "value = ball_oracle(1.0, c=0.5)",
            "assert 'scipy' not in sys.modules",
            "print(value.hex())",
        ])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        assert out.stdout.splitlines()[-1] == ball_oracle(1.0, c=0.5).hex()


class TestTangency:
    def test_level_band_tangent_to_unit_field(self):
        rep = tangency_check(LevelBand(0.5, 2.0), unit_field(P23), 50,
                             [0.5, 1.0, -0.7], 1e-9, P23, seed=3, inv=INV23)
        assert rep.tangential
        assert rep.boundary_drift < 1e-12

    def test_nemirovskii_tangent_to_horizontal_field(self):
        rep = tangency_check(Nemirovskii(1.0, 0.0), VectorField(1 + 0j, 0j),
                             50, [0.5, -0.5], 1e-9, P24, seed=3, inv=INV24)
        assert rep.tangential

    def test_level_band_not_tangent_to_horizontal_field(self):
        rep = tangency_check(LevelBand(0.5, 2.0), VectorField(1 + 0j, 0j), 50,
                             [0.5, 1.0], 1e-9, P23, seed=3, inv=INV23)
        assert not rep.tangential
        assert rep.boundary_drift > 0.1

    @pytest.mark.parametrize("n", [0, -1])
    def test_rejects_bad_sample_counts(self, n):
        with pytest.raises(InvalidInputError, match="n_samples"):
            tangency_check(LevelBand(0.5, 2.0), unit_field(P23), n,
                           [0.5], 1e-9, P23, seed=3, inv=INV23)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_bad_seed(self, seed):
        # -1 and 2.5 used to reach numpy's default_rng; True ran
        with pytest.raises(InvalidInputError,
                           match=f"seed must be an integer >= 0, got {seed}"):
            tangency_check(LevelBand(0.5, 2.0), unit_field(P23), 5,
                           [0.5], 1e-9, P23, seed=seed, inv=INV23)

    def test_rejects_empty_time_grid(self):
        # no time flows no point, which read as tangential
        with pytest.raises(InvalidInputError,
                           match="t_grid must not be empty"):
            tangency_check(LevelBand(0.5, 2.0), VectorField(1 + 0j, 0j), 5,
                           [], 1e-9, P23, seed=3, inv=INV23)

    @pytest.mark.parametrize("tol", [-1e-9, math.nan, math.inf, -math.inf])
    def test_rejects_bad_tol(self, tol):
        # nan keeps no boundary or interior sample, inf keeps every one
        with pytest.raises(InvalidInputError,
                           match=r"tol must be finite and >= 0, got"):
            tangency_check(LevelBand(0.5, 2.0), unit_field(P23), 5,
                           [0.5], tol, P23, seed=3, inv=INV23)

    def test_zero_tol_accepted(self):
        rep = tangency_check(LevelBand(0.5, 2.0), unit_field(P23), 5,
                             [0.5], 0.0, P23, seed=3, inv=INV23)
        assert rep.n_interior == 5


class TestClassifyDomain:
    def test_level_band(self):
        res = classify_domain(LevelBand(0.5, 2.0), INV23)
        assert res.theorem_type == "A1"
        assert res.verdict.status == "NotStein"
        assert res.verdict.witness

    def test_sub_and_super_level(self):
        assert classify_domain(SubLevel(1.0), INV23).theorem_type == "A2prime"
        assert classify_domain(SuperLevel(1.0),
                               INV23).theorem_type == "A2doubleprime"

    def test_leaf_family(self):
        spec = LeafFamily(residual_fn=lambda c: abs(c) - 1.0, contains0=True,
                          containsInf=True)
        res = classify_domain(spec, INV2M4)
        assert res.theorem_type == "B2"
        assert res.verdict.status == "NotStein"

    def test_leaf_family_wrong_case(self):
        with pytest.raises(CaseError):
            classify_domain(LeafFamily(residual_fn=lambda c: abs(c) - 1),
                            INV23)

    def test_nemirovskii_stein(self):
        res = classify_domain(Nemirovskii(1.0, 0.0), INV24)
        assert res.theorem_type == "NemirovskiiStein"
        assert res.verdict.status == "Stein"


class TestNemirovskiiQuotient:
    def test_sampled_identity_holds(self):
        rep = verify_nemirovskii_quotient(P24, 2000, seed=21)
        assert rep.forward_failures == 0
        assert rep.backward_failures == 0
        assert rep.shell_inner_count > 0
        assert rep.shell_outer_count > 0

    def test_requires_real_b(self):
        with pytest.raises(PreconditionError):
            verify_nemirovskii_quotient(P2M4, 100, seed=0)

    @pytest.mark.parametrize("n, seed, inner, outer", [
        (10**4, 99, 4104, 5896), (2000, 21, 829, 1171)])
    def test_forward_draw_order_pinned(self, n, seed, inner, outer):
        # The forward block is the only draw, four uniforms per sample in
        # (log|z|, arg z, log|w|, arg w) order.
        rep = verify_nemirovskii_quotient(HopfParams(2, 4), n, seed=seed)
        assert (rep.shell_inner_count, rep.shell_outer_count) == (inner, outer)
        assert rep.n_forward == rep.n_backward == n
        assert rep.forward_failures == rep.backward_failures == 0

    def test_draws_only_the_forward_block(self, monkeypatch):
        # the backward direction is decided: b > 1 real keeps Re w's sign
        draws, default_rng = [], np.random.default_rng

        class Recorder:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def __getattr__(self, name):
                def draw(*args, **kwargs):
                    draws.append((name, kwargs.get("size")))
                    return getattr(self.rng, name)(*args, **kwargs)
                return draw

        monkeypatch.setattr(np.random, "default_rng", Recorder)
        rep = verify_nemirovskii_quotient(P24, 300, seed=4)
        assert draws == [("uniform", (300, 4))]
        assert (rep.n_backward, rep.backward_failures) == (300, 0)

    def test_multiplier_bound_is_tight(self):
        # the least Re rep_w the forward block can reach: log|w| = -3 log b,
        # arg w = -pi/2 and lift index 2 (log|z| just under 3 log|a|); it is
        # the least subnormal at the bound and 0 just past it
        for lb, least in ((domains._MAX_LOG_B, 5e-324),
                          (domains._MAX_LOG_B + 0.5, 0.0)):
            params = HopfParams(2 + 0j, complex(math.exp(lb)))
            z = np.exp(3 * params.log_abs_a * (1 - 1e-12)) + 0j
            w = np.exp(-3 * math.log(params.b.real) - 1j * math.pi / 2)
            _, rep_w, lift = reduce_points(np.array([z]), np.array([w]),
                                           params)
            assert (rep_w[0].real, lift[0]) == (least, 2)

    def test_multiplier_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in range(3):
                rep = verify_nemirovskii_quotient(HopfParams(2, 1e60), 10**4,
                                                  seed)
                assert rep.forward_failures == rep.backward_failures == 0
                assert rep.shell_inner_count > 0 < rep.shell_outer_count
        for b in (1e65, 1e70, 1e150):
            with pytest.raises(PreconditionError,
                               match=re.escape("needs log b <= 141.422 "
                                               "(b <= 2.62e+61), got b = ")):
                verify_nemirovskii_quotient(HopfParams(2, b), 100, seed=3)

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_bad_sample_counts(self, n):
        with pytest.raises(InvalidInputError, match="n_samples"):
            verify_nemirovskii_quotient(P24, n, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2.5, True])
    def test_rejects_bad_seed(self, seed):
        # -1 raised numpy's "expected non-negative integer", 2.5 a TypeError,
        # and True ran
        with pytest.raises(InvalidInputError,
                           match=f"seed must be an integer >= 0, got {seed}"):
            verify_nemirovskii_quotient(P24, 5, seed=seed)


class TestHausdorffContinuity:
    def test_translates_converge_as_anchor_approaches_torus(self):
        # Nemirovskii translates depend only on the anchor's w-phase, so as
        # w_n -> 0 along a fixed phase the translated domains stabilize;
        # along a slowly rotating phase they converge in Hausdorff sense,
        # measured here by the half-plane angle
        spec = Nemirovskii(1.0, 0.0)
        theta_inf = 0.3
        gaps = []
        for n in range(1, 6):
            w = -(10.0 ** -n) * cmath.exp(1j * (theta_inf + 0.5 / n))
            td = translate_domain(spec, (1 + 0j, w), P24, INV24)
            gaps.append(abs(td.theta - theta_inf))
        assert gaps == sorted(gaps, reverse=True)
        assert gaps[-1] < 0.11


class TestClassificationGoldenTable:
    def test_matches_frozen_table(self):
        import json
        import pathlib

        from hopfsurf.domains import ImplicitDomain

        golden = json.loads((pathlib.Path(__file__).parent / "data" /
                             "classification_golden.json").read_text())
        cases = {
            "level_band": (LevelBand(0.5, 2.0), INV23),
            "sub_level": (SubLevel(1.0), INV23),
            "super_level": (SuperLevel(1.5), INV23),
            "leaf_family_interior":
                (LeafFamily(residual_fn=lambda c: abs(c) - 1.0), INV2M4),
            "leaf_family_boundary_flags":
                (LeafFamily(residual_fn=lambda c: abs(c) - 1.0,
                            contains0=True, containsInf=True), INV2M4),
            "nemirovskii": (Nemirovskii(1.0, 0.0), INV24),
            "implicit":
                (ImplicitDomain(psi=lambda z, w: abs(w) - 1.0), INV23),
        }
        assert set(cases) == set(golden)
        for name, (spec, inv) in cases.items():
            res = classify_domain(spec, inv)
            assert res.theorem_type == golden[name]["theorem_type"], name
            assert res.verdict.status == golden[name]["status"], name
            assert res.verdict.witness == golden[name]["witness"], name
            assert res.verdict.reason == golden[name]["reason"], name
            assert list(res.notes) == golden[name]["notes"], name


class TestCoordinateTori:
    """Level and leaf residuals on the two coordinate tori (w = 0, z = 0).

    An infinite end of the log-ratio interval contains its torus; a finite
    end excludes it.  No residual may be NaN there.
    """

    W0 = (1.3 + 0.2j, 0j)   # on the w = 0 torus
    Z0 = (0j, 1.7 + 0.4j)   # on the z = 0 torus

    @pytest.mark.parametrize("spec, at_w0, at_z0", [
        (LevelBand(0.5, 2.0), math.inf, math.inf),
        (SubLevel(1.0), -math.inf, math.inf),
        (SuperLevel(1.5), math.inf, -math.inf),
    ])
    def test_level_kinds(self, spec, at_w0, at_z0):
        for pt, want in ((self.W0, at_w0), (self.Z0, at_z0)):
            res = evaluate_domain(spec, pt, P23, INV23)
            assert res.residual == want
            assert res.inside == (want < 0)

    def test_leaf_family_residual_fn_on_tori(self):
        spec = LeafFamily(residual_fn=lambda c: abs(c) - 1.0)
        at_w0 = evaluate_domain(spec, self.W0, P2M4, INV2M4)
        assert at_w0.residual == -1.0 and at_w0.inside
        at_z0 = evaluate_domain(spec, self.Z0, P2M4, INV2M4)
        assert at_z0.residual == math.inf and not at_z0.inside

    def test_leaf_family_boundary_tori(self):
        spec = LeafFamily(residual_fn=lambda c: abs(c) - 1.0, contains0=True,
                          containsInf=True)
        for pt in (self.W0, self.Z0):
            res = evaluate_domain(spec, pt, P2M4, INV2M4)
            assert res.residual == 0.0 and not res.inside


class TestNonSpecInput:
    """Objects that are not domain specs fail as input errors, which the CLI
    maps to exit code 2, never as AttributeError."""

    def test_messages_name_the_type_not_the_object(self):
        from hopfsurf.robin import solvable_from_translate

        calls = [
            (lambda bad: classify_domain(bad, INV23), InvalidInputError),
            (lambda bad: classify_domain(LevelBand(0.5, 2.0), bad),
             InvalidInputError),
            (lambda bad: distance_to_identity(bad), InvalidInputError),
            (lambda bad: solvable_from_translate(bad), EvaluationError),
            (lambda bad: derive_invariants(P23, bad), InvalidInputError),
        ]
        for call, error in calls:
            messages = set()
            for bad in (lambda z: z, lambda z, w: w):
                with pytest.raises(error) as err:
                    call(bad)
                messages.add(str(err.value))
            assert len(messages) == 1
            assert "0x" not in messages.pop()

    @pytest.mark.parametrize("bad", [object(), 3.0, None, "level-band"])
    def test_entry_points_raise_input_error(self, bad):
        from hopfsurf.levi import pseudoconvexity_scan

        calls = [
            lambda: evaluate_domain(bad, (1.3 + 0j, 1.5 + 0j), P23, INV23),
            lambda: translate_domain(bad, (1.3 + 0j, 1.5 + 0j), P23, INV23),
            lambda: classify_domain(bad, INV23),
            lambda: tangency_check(bad, unit_field(P23), 5, [0.5], 1e-9,
                                   P23, seed=0, inv=INV23),
            lambda: pseudoconvexity_scan(bad, 5, 1e-6, P23, seed=0,
                                         inv=INV23),
            lambda: distance_to_identity(bad),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError):
                call()
        assert issubclass(InvalidInputError, ValueError)

    @pytest.mark.parametrize("name, call", [
        ("n_samples", lambda n: tangency_check(
            LevelBand(0.5, 2.0), unit_field(P23), n, [0.5], 1e-9, P23,
            seed=0, inv=INV23)),
        ("n_samples", lambda n: levi.pseudoconvexity_scan(
            LevelBand(0.5, 2.0), n, 1e-6, P23, seed=0, inv=INV23)),
        ("n_samples", lambda n: verify_nemirovskii_quotient(P24, n, 0)),
        ("grid_n", lambda n: robin.psh_spot_check(
            Nemirovskii(1.0, 0.0), (1 + 0j, -1 + 0j), (0j, 1 + 0j), 0.1, n,
            P24, INV24, budget=robin.ExperimentBudget(n_walks=16))),
        ("N", lambda n: flows.fiber_set(unit_field(P23), 1.5 + 0j, INV23,
                                           n)),
        ("n_w_samples", lambda n: levi.sweep_cover_check(
            levi.BoundaryModel(p=(RealPoly2(
                {(2, 0): 1.0, (0, 2): 1.0}),)), 1.0, n_w_samples=n)),
    ])
    @pytest.mark.parametrize("bad", [2.5, 3.5, True, "3", None])
    def test_counts_must_be_integers(self, name, call, bad):
        # floats failed with TypeError, or ran on as n_w_samples did
        with pytest.raises(InvalidInputError,
                           match=f"^{name} must be an integer, "
                                 f"got {type(bad).__name__}$"):
            call(bad)

    @pytest.mark.parametrize("call, message", [
        (lambda: flows.fiber_set(unit_field(P23), 1.5 + 0j, INV23, 0),
         "N must be >= 1, got 0"),
        (lambda: robin.psh_spot_check(
            Nemirovskii(1.0, 0.0), (1 + 0j, -1 + 0j), (0j, 1 + 0j), 0.1,
            np.int64(2), P24, INV24), "grid_n must be >= 3, got 2"),
    ])
    def test_counts_below_the_least_are_named(self, call, message):
        with pytest.raises(InvalidInputError, match=f"^{message}$"):
            call()

    @pytest.mark.parametrize("spec", [
        LevelBand(0.5, 2.0), SubLevel(1.5), SuperLevel(1.5),
        LeafFamily(residual_fn=lambda c: abs(c) - 1.0), Nemirovskii(1.0, 0.5),
        ImplicitDomain(psi=lambda z, w: abs(w) - 1.0),
    ])
    @pytest.mark.parametrize("bad_inv", [None, P23, "CaseA"])
    def test_classify_needs_invariant_set(self, spec, bad_inv):
        with pytest.raises(InvalidInputError, match="not an invariant set"):
            classify_domain(spec, bad_inv)

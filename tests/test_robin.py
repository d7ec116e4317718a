"""Tests for the walk-on-spheres Robin estimator and its oracles."""

import math
import os
import re
import subprocess
import sys
import threading
import time
import types
import warnings

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hopfsurf.domains import (ImplicitDomain, LevelBand, Nemirovskii,
                              SubLevel, SuperLevel, distance_to_identity,
                              translate_domain)
from hopfsurf.errors import EvaluationError, InvalidInputError
from hopfsurf.invariants import HopfParams, Numeric, derive_invariants
from hopfsurf import domains, robin
from hopfsurf.robin import (Ball, ExperimentBudget, HalfSpace, WosConfig,
                            _escape_reach, _walk_blocks, _survival_factor,
                            ball_oracle, boundary_behavior_experiment,
                            half_space_from_theta, half_space_oracle,
                            identity_point, kernel, product_half_plane_oracle,
                            psh_spot_check, robin_constant,
                            solvable_from_translate)
from params import P23, INV23, P24, INV24

E = identity_point()


class TestOracles:
    def test_ball(self):
        assert ball_oracle(1.0) == -1.0
        assert ball_oracle(2.0) == -0.25

    def test_half_space(self):
        assert half_space_oracle(1.0) == -0.25
        assert half_space_oracle(0.5) == -1.0

    def test_product_half_plane(self):
        assert product_half_plane_oracle(0.0) == pytest.approx(-0.25)
        assert product_half_plane_oracle(math.pi / 3) == pytest.approx(-1.0)

    def test_kernel_decay(self):
        assert kernel(2.0) == pytest.approx(0.25)

    @pytest.mark.parametrize("R, c", [(0.5, 0.5), (1.0, 0.5), (1.0, 1.0),
                                      (2.0, 0.25), (1.5, 3.0), (3.0, 2.0)])
    def test_screened_ball_matches_radial_ode(self, R, c):
        # U'' + (3/rho) U' = c U, U(0) = 1, U'(0) = 0, integrated by RK45
        # from a series start; the oracle is -1/(U(R) R^2)
        rho0 = 1e-8
        sol = solve_ivp(lambda rho, y: [y[1], c * y[0] - 3.0 * y[1] / rho],
                        (rho0, R), [1.0 + c * rho0**2 / 8.0, c * rho0 / 4.0],
                        rtol=1e-8, atol=1e-12, method="RK45")
        assert sol.success
        ode = -1.0 / (sol.y[0, -1] * R**2)
        assert ball_oracle(R, c) == pytest.approx(ode, rel=1e-7)

    def test_ball_oracle_is_total_at_extreme_radii(self):
        assert ball_oracle(1e200) == 0.0 and ball_oracle(1e-200) == -math.inf
        assert ball_oracle(1e200, c=1.0) == 0.0
        # sqrt(c) R overflows to inf, where S is 0.0, not inf / inf
        value = ball_oracle(1e300, c=1e300)
        assert value == 0.0 and math.copysign(1.0, value) == -1.0

    @pytest.mark.parametrize("R, c", [
        (0.0, 0.0), (-1.0, 0.0), (math.nan, 0.0), (math.inf, 0.0),
        (1.0, -1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_ball_oracle_rejects(self, R, c):
        with pytest.raises(InvalidInputError):
            ball_oracle(R, c)

    @pytest.mark.parametrize("d", [0.0, -1.0, math.nan, math.inf])
    def test_half_space_oracle_rejects(self, d):
        with pytest.raises(InvalidInputError):
            half_space_oracle(d)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf,
                                       math.pi, 2.0])
    def test_product_half_plane_oracle_rejects(self, theta):
        with pytest.raises(InvalidInputError):
            product_half_plane_oracle(theta)


def _switch_neighbours(n=20):
    """robin._SWITCH and the n floats on each side of it."""
    lo = hi = robin._SWITCH
    out = [lo]
    for _ in range(n):
        lo, hi = np.nextafter(lo, 0.0), np.nextafter(hi, math.inf)
        out += [lo, hi]
    return np.array(out)


class TestSurvivalFactor:
    def test_matches_scipy_bessel(self):
        # the reference x / (2 I_1(x)) from scipy, which only tests import
        from scipy.special import i1
        x = np.concatenate([np.geomspace(1e-6, 700.0, 200_001),
                            _switch_neighbours()])
        want = x / (2.0 * i1(x))
        assert np.max(np.abs(_survival_factor(x, 1.0) / want - 1.0)) <= 1e-14

    def test_total_and_non_increasing(self):
        x = np.array([0.0, 1e-7, 745.0, 1e300, math.inf])
        s = _survival_factor(x, 1.0)
        assert np.isfinite(s).all() and ((0.0 <= s) & (s <= 1.0)).all()
        assert s[0] == 1.0 and s[-1] == 0.0
        assert _survival_factor(np.array([1e300]), 1e300)[0] == 0.0
        grid = np.sort(np.concatenate([x, np.geomspace(1e-8, 1e4, 100_001),
                                       _switch_neighbours()]))
        assert (np.diff(_survival_factor(grid, 1.0)) <= 0.0).all()


class TestRobinConstant:
    def test_centered_ball_is_exact(self):
        # a walk from the center exits in a single step at radius R
        est = robin_constant(Ball(center=tuple(E), radius=1.0), E, 10_000,
                             12345)
        assert est.lambda_hat == -1.0
        assert est.stderr < 1e-15

    def test_half_space_matches_reflection_oracle(self):
        hs = HalfSpace(normal=(0.0, 0.0, 1.0, 0.0), offset=0.0)
        est = robin_constant(hs, E, 50_000, 12345)
        oracle = half_space_oracle(1.0)
        assert est.stderr < 0.02
        assert abs(est.lambda_hat - oracle) < 3 * est.stderr

    def test_product_half_plane_matches_images_oracle(self):
        theta = math.pi / 3
        est = robin_constant(half_space_from_theta(theta), E, 50_000, 12345)
        assert abs(est.lambda_hat - product_half_plane_oracle(theta)) \
            < 3 * est.stderr

    def test_independent_of_block_order(self):
        # the blocks run last to first, each on default_rng([seed, b]) and
        # merged by index, reproduce the estimate bit for bit
        hs = HalfSpace(normal=(0.0, 0.0, 1.0, 0.0), offset=0.0)
        cfg = WosConfig()
        n, seed = 20_000, 777
        r_max = cfg.r_max_factor * float(hs.distance(E[None])[0])
        starts = range(0, n, cfg.block_size)
        merged = {b: walk_block(hs, min(cfg.block_size, n - lo),
                                np.random.default_rng([seed, b]),
                                r_max=r_max)[0]
                  for b, lo in reversed(list(enumerate(starts)))}
        contrib = np.concatenate([merged[b] for b in range(len(starts))])
        assert robin_constant(hs, E, n, seed).lambda_hat \
            == -float(np.mean(contrib))

    def test_monotone_in_radius(self):
        # larger domain -> larger (less negative) Robin constant
        vals = [robin_constant(Ball(center=tuple(E), radius=r), E, 1000,
                               5).lambda_hat for r in (0.5, 1.0, 2.0, 4.0)]
        assert vals == sorted(vals)

    def test_pole_outside_rejected(self):
        with pytest.raises(EvaluationError):
            robin_constant(Ball(center=tuple(E), radius=1.0),
                           np.array([9.0, 9.0, 9.0, 9.0]), 100, 0)

    def test_screened_ball_matches_ode_oracle(self):
        c = 0.5
        est = robin_constant(Ball(center=tuple(E), radius=1.0), E, 10_000,
                             12345, c_weight=c)
        assert abs(est.lambda_hat - ball_oracle(1.0, c=c)) < 1e-6

    def test_screening_shrinks_the_magnitude(self):
        # killing lowers the exit weight, so the estimated constant moves
        # toward zero as c grows
        assert ball_oracle(1.0) < ball_oracle(1.0, c=0.5) < 0.0


HS = HalfSpace(normal=(0.0, 0.0, 1.0, 0.0), offset=0.0)
OFF_BALL = Ball(center=(1.3, 0.1, 0.8, 0.0), radius=1.0)
# two nonzero normal components: a one-row matmul rounds differently
PLANE = half_space_from_theta(math.pi / 3)
# a translated modulus region, its own walk domain
BAND = translate_domain(LevelBand(0.5, 2.0), (1.5 + 0j, 1.5 + 0j),
                        HopfParams(2 + 0j, 3 + 0j))
# a translated Nemirovskii domain, its own walk domain: a wall at theta = 1
WALL = translate_domain(Nemirovskii(1.0, 0.0),
                        (1 + 0j, -complex(math.cos(1.0), math.sin(1.0))),
                        P24, INV24)


class Solvable:
    """A walk domain on a given distance function, with no projection,
    that declares itself safe to run on several threads."""

    thread_safe = True

    def __init__(self, distance):
        self.distance = distance

    def project(self, x):
        return x


class CountingDomain:
    """Records the number of rows of every distance call."""

    def __init__(self, inner):
        self.inner = inner
        self.rows = []

    def distance(self, x):
        self.rows.append(len(x))
        return self.inner.distance(x)

    def project(self, x):
        return self.inner.project(x)


def walk_block(domain, nb, rng, c=0.0, cfg=WosConfig(), r_max=1e3):
    """One block of nb walks from E, alone in a live set:
    (contrib, truncated, escaped)."""
    contrib = np.zeros((1, nb))
    truncated, escaped = _walk_blocks([domain], E, iter([(0, nb, rng)]),
                                      cfg.block_size, contrib, c, [r_max],
                                      cfg)
    return contrib[0], truncated, escaped


def masked_block(domain, nb, rng, eps, r_max, c=0.0, pole=E,
                 max_steps=None):
    """Reference block kernel: full-size arrays and an alive mask.

    Draws the same stream as a block stepped by _walk_blocks (directions
    for the live walks, in walk order), tests every live walk for escape
    and counts each walk's distance evaluations.  Returns (contrib, steps,
    truncated, escaped).
    """
    pos = np.tile(pole, (nb, 1))
    weight = np.ones(nb)
    contrib = np.zeros(nb)
    steps = np.zeros(nb, dtype=int)
    alive = np.ones(nb, dtype=bool)
    escaped = 0
    while alive.any() and (max_steps is None or steps.max() < max_steps):
        a = np.flatnonzero(alive)
        d = domain.distance(pos[a])
        steps[a] += 1
        hit = d <= eps
        r = np.linalg.norm(domain.project(pos[a[hit]]) - pole, axis=-1)
        contrib[a[hit]] = weight[a[hit]] * kernel(np.maximum(r, eps))
        far = ~hit & (np.linalg.norm(pos[a] - pole, axis=-1) >= r_max)
        escaped += int(far.sum())
        alive[a[hit | far]] = False
        live = ~(hit | far)
        dirs = rng.standard_normal((int(live.sum()), 4))
        dirs /= np.linalg.norm(dirs, axis=-1, keepdims=True)
        if c > 0.0:
            weight[a[live]] *= _survival_factor(d[live], c)
        pos[a[live]] += d[live, None] * dirs
    return contrib, steps, int(alive.sum()), escaped


def masked_estimate(domain, pole, n, seed, c=0.0, cfg=WosConfig()):
    """robin_constant rebuilt from masked_block, one block after another."""
    r_max = cfg.r_max_factor * float(domain.distance(pole[None])[0])
    blocks = [masked_block(domain, min(cfg.block_size, n - lo),
                           np.random.default_rng([seed, b]), cfg.eps_shell,
                           r_max, c, pole, cfg.max_steps)
              for b, lo in enumerate(range(0, n, cfg.block_size))]
    contrib = np.concatenate([blk[0] for blk in blocks])
    se = float(np.std(contrib, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return (-float(np.mean(contrib)), se, sum(blk[2] for blk in blocks),
            sum(blk[3] for blk in blocks))


class TestLiveWalkCompaction:
    def test_distance_sees_live_walks_only(self):
        hs = HalfSpace(normal=(0.0, 0.0, 1.0, 0.0), offset=0.0)
        cfg = WosConfig()
        n, seed = 20_000, 777
        r_max = cfg.r_max_factor * 1.0
        rows = steps = 0
        for b, lo in enumerate(range(0, n, cfg.block_size)):
            nb = min(cfg.block_size, n - lo)
            dom = CountingDomain(hs)
            contrib, truncated, _ = walk_block(
                dom, nb, np.random.default_rng([seed, b]), r_max=r_max)
            ref, ref_steps, _, _ = masked_block(hs, nb, np.random.default_rng(
                [seed, b]), cfg.eps_shell, r_max)
            assert truncated == 0
            assert np.array_equal(contrib, ref)
            assert dom.rows[0] == nb
            assert all(x >= y for x, y in zip(dom.rows, dom.rows[1:]))
            rows += sum(dom.rows)
            steps += int(ref_steps.sum())
        assert rows == steps
        # the full-block kernel evaluated about 221 rows per walk here
        assert rows / n < 100

    def test_one_fill_limit_holds_across_refills(self):
        # five blocks through a live set of two: the first fill and every
        # refill stop at the one limit
        cfg, nb, seed = WosConfig(block_size=256), 256, 3
        r_max = cfg.r_max_factor * 1.0
        dom = CountingDomain(HS)
        contrib = np.zeros((1, 5 * nb))
        blocks = iter([(b * nb, nb, np.random.default_rng([seed, b]))
                       for b in range(5)])
        _walk_blocks([dom], E, blocks, 2 * nb, contrib, 0.0, [r_max], cfg)
        assert dom.rows[0] == max(dom.rows) == 2 * nb
        assert any(b > a for a, b in zip(dom.rows, dom.rows[1:]))  # refills
        ref = [masked_block(HS, nb, np.random.default_rng([seed, b]),
                            cfg.eps_shell, r_max, max_steps=cfg.max_steps)[0]
               for b in range(5)]
        assert np.array_equal(contrib[0], np.concatenate(ref))

    def test_screened_block_matches_masked_reference(self):
        hs = HalfSpace(normal=(0.0, 0.0, 1.0, 0.0), offset=0.0)
        contrib, _, _ = walk_block(hs, 4096, np.random.default_rng(3), 0.5)
        ref, _, _, _ = masked_block(hs, 4096, np.random.default_rng(3), 1e-4,
                                    1e3, c=0.5)
        assert np.array_equal(contrib, ref)

    def test_centered_ball_takes_one_step_per_block(self):
        dom = CountingDomain(Ball(center=tuple(E), radius=1.0))
        est = robin_constant(dom, E, 10_000, 12345)
        assert est.lambda_hat == -1.0
        # the pole's distance, then for the three blocks of the first fill
        # one call before the single step and one that finds every walk on
        # the sphere
        assert dom.rows == [1, 10000, 10000]

    def test_streaming_halves_the_distance_calls(self):
        # one thread (a wrapper) and 1e5 walks: steps of fixed waves of 8
        # blocks, each stepped to its last walk, made 1,092 calls on
        # 5,209,024 rows (one row per walk per step, plus the pole's)
        dom = CountingDomain(HS)
        robin_constant(dom, E, 100_000, 5)
        assert sum(dom.rows) == 5_209_024
        assert len(dom.rows) <= 1092 // 2


def assert_matches(est, ref):
    """est, a RobinEstimate, has the bits of ref, a masked_estimate."""
    lam, se, truncated, escaped = ref
    assert (est.lambda_hat, est.stderr) == (lam, se)
    assert (est.truncated_walks, est.escaped_walks) == (truncated, escaped)


class TestWaveKernel:
    """robin_constant streams its blocks through each thread's live set;
    every output must equal the masked reference run one block after
    another, bit for bit."""

    @staticmethod
    def check(domain, pole, n, seed, c=0.0, cfg=WosConfig()):
        est = robin_constant(domain, pole, n, seed, c_weight=c, config=cfg)
        assert_matches(est, masked_estimate(domain, pole, n, seed, c, cfg))
        return est

    # the reference runs one block at a time in Python: blocks of 3 walk
    # in the ball with a wider shell to keep their walks short, and 1e5
    # walks in blocks of 3 (33,334 blocks) are left out
    @pytest.mark.parametrize("domain, n, cfg", [
        (HS, 1, WosConfig()), (HS, 7, WosConfig()), (HS, 4096, WosConfig()),
        (HS, 4097, WosConfig()), (HS, 100_000, WosConfig()),
        (OFF_BALL, 4097, WosConfig()), (HS, 7, WosConfig(block_size=3)),
        (HS, 200, WosConfig(block_size=3)), (PLANE, 4097, WosConfig()),
        (PLANE, 7, WosConfig(block_size=3)),
        (PLANE, 200, WosConfig(block_size=3)),
        *((OFF_BALL, n, WosConfig(block_size=3, eps_shell=1e-2))
          for n in (1, 7, 4096, 4097))])
    def test_matches_blockwise_reference(self, domain, n, cfg):
        self.check(domain, E, n, 11, cfg=cfg)

    @pytest.mark.parametrize("n", [7, 200])
    def test_small_waves_split_unevenly(self, monkeypatch, n):
        # at most 3 blocks of 3 walks in the live set: 200 walks make 67
        # blocks, the last holding 2 walks, each joining as one ends
        monkeypatch.setattr(robin, "_WAVE_WALKS", 10)
        self.check(HS, E, n, 7, cfg=WosConfig(block_size=3))

    def test_truncation(self):
        est = self.check(HS, E, 4097, 0, cfg=WosConfig(max_steps=5))
        assert est.truncated_walks > 0

    def test_late_block_takes_its_own_max_steps(self, monkeypatch):
        # one thread holding two blocks of 256 walks: block 2 joins once 256
        # walks of blocks 0 and 1 have ended, at step 48, and is truncated
        # 100 steps after it joined, not 100 steps after the call began
        monkeypatch.setattr(robin, "_WAVE_WALKS", 512)
        dom = CountingDomain(HS)
        est = self.check(dom, E, 768, 2,
                         cfg=WosConfig(block_size=256, max_steps=100))
        rows = dom.rows[1:]  # after the pole's distance
        join = next(i for i in range(1, len(rows)) if rows[i] > rows[i - 1])
        assert rows[0] == 512 and 0 < join < 100
        assert est.truncated_walks > 0

    @pytest.mark.parametrize("seed", [0, 7])
    def test_escapes(self, seed):
        est = self.check(HS, E, 4097, seed, cfg=WosConfig(r_max_factor=3.0))
        assert est.escaped_walks > 0

    def test_screened(self):
        self.check(HS, E, 4097, 1, c=0.5)

    def test_far_pole_keeps_the_bounded_escape_test(self):
        pole = np.array([1e9, 0.0, 1.0, 0.0])
        assert _escape_reach(pole, 3.0, 20000) == 1.5
        est = self.check(HS, pole, 4097, 12345,
                         cfg=WosConfig(r_max_factor=3.0))
        assert est.escaped_walks > 0

    def test_huge_pole_tests_every_row(self):
        pole = np.array([1e15, 0.0, 1.0, 0.0])
        assert _escape_reach(pole, 3.0, 20000) == 0.0
        est = self.check(HS, pole, 4097, 12345,
                         cfg=WosConfig(r_max_factor=3.0))
        assert est.escaped_walks > 0

    def test_numpy_integers_accepted(self):
        est = robin_constant(HS, E, np.int64(100), np.int64(3))
        assert est == robin_constant(HS, E, 100, 3)


class TestThreadedWaves:
    """robin_constant streams its blocks through the live sets of
    robin._WORKERS threads; the estimate must not depend on how many."""

    # 5 blocks of 1,024 walks (the last of 1 walk) on 1, 2 and 3 threads,
    # each thread's live set capped at 1 to 5 blocks
    @pytest.mark.parametrize("domain, seed, c, cfg", [
        (HS, 3, 0.0, WosConfig(block_size=1024)),
        (PLANE, 4, 0.0, WosConfig(block_size=1024)),
        (OFF_BALL, 5, 0.0, WosConfig(block_size=1024)),
        (HS, 1, 0.5, WosConfig(block_size=1024)),
        (HS, 0, 0.0, WosConfig(block_size=1024, max_steps=5)),
        (HS, 7, 0.0, WosConfig(block_size=1024, r_max_factor=3.0)),
        (BAND, 6, 0.0, WosConfig(block_size=1024)),
        (WALL, 8, 0.0, WosConfig(block_size=1024))])
    def test_same_estimate_for_any_worker_count(self, monkeypatch, domain,
                                                seed, c, cfg):
        ref = masked_estimate(domain, E, 4097, seed, c, cfg)
        ests = []
        for workers in (1, 2, 3):
            monkeypatch.setattr(robin, "_WORKERS", workers)
            for blocks in range(1, 6):
                monkeypatch.setattr(robin, "_WAVE_WALKS",
                                    workers * blocks * 1024)
                ests.append(robin_constant(domain, E, 4097, seed,
                                           c_weight=c, config=cfg))
                assert_matches(ests[-1], ref)
        assert all(est == ests[0] for est in ests)
        if cfg.max_steps == 5:
            assert ests[0].truncated_walks > 0
        if cfg.r_max_factor == 3.0:
            assert ests[0].escaped_walks > 0

    def test_many_threads_share_the_queue(self, monkeypatch):
        # 4 threads on 250 blocks of 8 walks, one block per live set, with
        # a short switch interval: a block taken twice or skipped would move
        # the estimate or the escape count
        monkeypatch.setattr(robin, "_WAVE_WALKS", 32)
        cfg = WosConfig(block_size=8, r_max_factor=3.0)
        monkeypatch.setattr(robin, "_WORKERS", 1)
        want = robin_constant(HS, E, 2000, 9, config=cfg)
        monkeypatch.setattr(robin, "_WORKERS", 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = robin_constant(HS, E, 2000, 9, config=cfg)
        finally:
            sys.setswitchinterval(interval)
        assert got == want and want.escaped_walks > 0

    def test_first_screened_call_in_a_fresh_process(self, monkeypatch):
        # a screened walk on two threads in a new interpreter gives the
        # bits of one on the calling thread alone
        import hopfsurf
        src = os.path.dirname(os.path.dirname(hopfsurf.__file__))
        code = "\n".join([
            "import sys",
            "from hopfsurf.robin import HalfSpace, identity_point, "
            "robin_constant",
            "assert 'scipy' not in sys.modules",
            "print(repr(robin_constant(HalfSpace((0.0, 0.0, 1.0, 0.0), 0.0),",
            "                          identity_point(), 40_000, 11,",
            "                          c_weight=0.5)))",
        ])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             check=True, capture_output=True, text=True)
        monkeypatch.setattr(robin, "_WORKERS", 1)
        est = robin_constant(HS, E, 40_000, 11, c_weight=0.5)
        assert out.stdout.strip() == repr(est)

    def test_one_worker_starts_no_thread(self, monkeypatch):
        # one CPU, or a single block: every block steps on the calling thread
        cfg = WosConfig(block_size=1024)
        ests = [robin_constant(HS, E, 4097, 3, config=cfg),
                robin_constant(HS, E, 1000, 3)]

        def no_thread(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(robin, "threading", types.SimpleNamespace(
            Thread=no_thread, Lock=threading.Lock))
        monkeypatch.setattr(robin, "_WORKERS", 1)
        assert robin_constant(HS, E, 4097, 3, config=cfg) == ests[0]
        monkeypatch.setattr(robin, "_WORKERS", 4)
        assert robin_constant(HS, E, 1000, 3) == ests[1]

    def test_other_domain_types_step_on_the_calling_thread(self,
                                                           monkeypatch):
        # a wrapper may keep state between calls, as CountingDomain does,
        # and a subclass of a built-in type may opt out of threads
        monkeypatch.setattr(robin, "_WORKERS", 2)
        monkeypatch.setattr(robin, "_WAVE_WALKS", 2048)
        threads = set()

        class Wrapped(CountingDomain):
            def distance(self, x):
                threads.add(threading.get_ident())
                return super().distance(x)

        class OptedOut(HalfSpace):
            thread_safe = False

            def distance(self, x):
                threads.add(threading.get_ident())
                return super().distance(x)

        cfg = WosConfig(block_size=1024)
        for dom in (Wrapped(HS), OptedOut(HS.normal, HS.offset)):
            threads.clear()
            est = robin_constant(dom, E, 4097, 3, config=cfg)
            assert threads == {threading.get_ident()}
            assert est == robin_constant(HS, E, 4097, 3, config=cfg)

    @staticmethod
    def failing_helper(delay):
        """A half-space whose distance fails, after `delay` seconds, on a
        helper thread's first step, so only a domain that declares
        thread_safe raises.  The calling thread waits for that step
        before it steps, so each thread holds a block."""
        caller = threading.get_ident()
        stepped = threading.Event()

        def dist(x):
            if threading.get_ident() != caller:
                stepped.set()
                time.sleep(delay)
                raise EvaluationError("a helper failed")
            if len(x) > 1:  # not the pole's distance
                assert stepped.wait(10)
            return HS.distance(x)

        return Solvable(dist)

    # one block of 1,024 walks per live set: 2,053 walks make three blocks
    @pytest.mark.parametrize("delay", [0.0, 0.3])
    def test_helper_error_is_raised_after_every_join(self, monkeypatch,
                                                     delay):
        # with the delay the calling thread steps the other two blocks
        # before the helper fails
        monkeypatch.setattr(robin, "_WORKERS", 2)
        monkeypatch.setattr(robin, "_WAVE_WALKS", 2048)
        before = threading.active_count()
        with pytest.raises(EvaluationError, match="a helper failed"):
            robin_constant(self.failing_helper(delay), E, 2053, 0,
                           config=WosConfig(block_size=1024))
        assert threading.active_count() == before

    def test_no_block_starts_after_an_error(self, monkeypatch):
        # 100 blocks of 64 walks, one per live set: once the calling thread
        # holds a block, the helper fails on its first step, and the calling
        # thread waits for the helper thread to end before it steps; then
        # it finishes its block and takes no other
        monkeypatch.setattr(robin, "_WORKERS", 2)
        monkeypatch.setattr(robin, "_WAVE_WALKS", 128)
        before = threading.active_count()
        caller = threading.get_ident()
        holding = threading.Event()
        at_pole = []

        def dist(x):
            if threading.get_ident() != caller:
                assert holding.wait(10)
                raise EvaluationError("a helper failed")
            if len(x) > 1:  # not the pole's distance
                holding.set()
                deadline = time.monotonic() + 10
                while (threading.active_count() > before
                       and time.monotonic() < deadline):
                    time.sleep(0.001)
                at_pole.append(int((x == E).all(axis=-1).sum()))
            return HS.distance(x)

        with pytest.raises(EvaluationError, match="a helper failed"):
            robin_constant(Solvable(dist), E, 6400, 0,
                           config=WosConfig(block_size=64))
        assert threading.active_count() == before
        assert at_pole[0] == 64 and sum(at_pole) == 64


# five interior anchors per kind; the translates of one spec share rho and
# which ends are finite, and differ in their ends
MODULUS_ANCHORS = {
    LevelBand(0.5, 2.0): [(1.5, 1.5), (1.2, 1.2), (1.3, 1.6), (1.1, 0.9),
                          (1.4, 2.0)],
    SubLevel(1.5): [(1.5, 0.3), (1.2, 0.5), (1.3, 0.8), (1.1, 1.0),
                    (1.6, 1.2)],
    SuperLevel(1.5): [(0.3, 1.5), (0.5, 1.2), (0.6, 1.0), (0.4, 0.8),
                      (0.7, 1.5)],
}


def modulus_translates(spec):
    return [translate_domain(spec, (complex(z), complex(w)), P23)
            for z, w in MODULUS_ANCHORS[spec]]


def product_half_planes():
    return [translate_domain(Nemirovskii(1.0, 0.0),
                             (1 + 0j, -complex(math.cos(th), math.sin(th))),
                             P24, INV24)
            for th in (0.0, 0.4, -0.7, 1.1, 1.3)]


def half_spaces():
    # distinct normals and offsets, E at distance 0.5 .. 1.3 from each
    rng = np.random.default_rng(17)
    out = []
    for dist in (1.0, 0.5, 1.3, 0.8, 0.6):
        n = rng.standard_normal(4)
        n /= np.linalg.norm(n)
        out.append(HalfSpace(normal=tuple(n), offset=float(n @ E) - dist))
    return out


class TestBatchedProblems:
    """_contributions on a list of problems: each problem's outputs have
    the bits of a call on that problem alone."""

    # 600 walks in blocks of 256 (the last one ragged), live sets of two
    # blocks per thread, so blocks of different problems share live sets
    CFG = WosConfig(block_size=256)
    CASES = {
        "product_half_planes": (product_half_planes, 0.0, CFG),
        "half_spaces": (half_spaces, 0.0, CFG),
        "level_band": (lambda: modulus_translates(LevelBand(0.5, 2.0)), 0.0,
                       CFG),
        "sub_level": (lambda: modulus_translates(SubLevel(1.5)), 0.0, CFG),
        "super_level": (lambda: modulus_translates(SuperLevel(1.5)), 0.0,
                        CFG),
        "screened": (product_half_planes, 0.5, CFG),
        "truncated": (half_spaces, 0.0, WosConfig(block_size=256,
                                                  max_steps=6)),
        "escaping": (lambda: modulus_translates(LevelBand(0.5, 2.0)), 0.0,
                     WosConfig(block_size=256, r_max_factor=3.0)),
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_problem_matches_its_own_call(self, monkeypatch, case, k,
                                               workers):
        make, c, cfg = self.CASES[case]
        doms = make()[:k]
        seeds = [11 + 7 * j for j in range(k)]
        monkeypatch.setattr(robin, "_WORKERS", workers)
        monkeypatch.setattr(robin, "_WAVE_WALKS", workers * 512)
        contrib, truncated, escaped, r_max = robin._contributions(
            doms, E, 600, seeds, c, cfg)
        assert contrib.shape == (k, 600)
        for j, (dom, seed) in enumerate(zip(doms, seeds)):
            one = robin._contributions([dom], E, 600, [seed], c, cfg)
            assert contrib[j].tobytes() == one[0][0].tobytes()
            assert (truncated[j], escaped[j], r_max[j]) == tuple(
                x[0] for x in one[1:])
        if case == "truncated":
            assert truncated.min() > 0
        if case == "escaping":
            assert escaped.min() > 0

    def test_list_of_one_walk_gives_one_entry_counts(self):
        # a list of one domain, one r_max and a (1, n) contrib: its counts
        # are arrays of one entry, robin_constant's counts
        cfg = WosConfig(r_max_factor=3.0, max_steps=30)
        n, seed = 4097, 5
        r_max = cfg.r_max_factor * float(HS.distance(E[None])[0])
        contrib = np.zeros((1, n))
        blocks = iter([(lo, min(cfg.block_size, n - lo),
                        np.random.default_rng([seed, b]))
                       for b, lo in enumerate(range(0, n, cfg.block_size))])
        truncated, escaped = _walk_blocks([HS], E, blocks,
                                          2 * cfg.block_size, contrib, 0.0,
                                          [r_max], cfg)
        est = robin_constant(HS, E, n, seed, config=cfg)
        assert truncated.shape == escaped.shape == (1,)
        assert (truncated[0], escaped[0]) == (est.truncated_walks,
                                              est.escaped_walks)
        assert est.truncated_walks > 0 and est.escaped_walks > 0
        assert -float(np.mean(contrib[0])) == est.lambda_hat

    def test_one_seed_for_every_problem_pairs_the_walks(self):
        # equal problems with equal seeds give equal rows
        dom = product_half_planes()[1]
        contrib = robin._contributions([dom, dom, dom], E, 300, [4] * 3)[0]
        assert (contrib[0] == contrib[1]).all()
        assert (contrib[0] == contrib[2]).all()

    @staticmethod
    def mixed():
        """A ball, a wall, a product half-plane and level-band and
        sub-level translates: five kinds of walk domain."""
        return [OFF_BALL, half_spaces()[1], product_half_planes()[2],
                *modulus_translates(LevelBand(0.5, 2.0))[:2],
                modulus_translates(SubLevel(1.5))[0]]

    def assert_own_bits(self, doms, seeds):
        """Each problem of one call has the outputs of its own call."""
        contrib, truncated, escaped, r_max = robin._contributions(
            doms, E, 600, seeds, config=self.CFG)
        for j, (dom, seed) in enumerate(zip(doms, seeds)):
            one = robin._contributions([dom], E, 600, [seed],
                                       config=self.CFG)
            assert contrib[j].tobytes() == one[0][0].tobytes()
            assert (truncated[j], escaped[j], r_max[j]) == tuple(
                x[0] for x in one[1:])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mixed_kinds_give_each_problem_its_own_bits(self, monkeypatch,
                                                        workers):
        monkeypatch.setattr(robin, "_WORKERS", workers)
        monkeypatch.setattr(robin, "_WAVE_WALKS", workers * 512)
        doms = self.mixed()
        self.assert_own_bits(doms, [3 + j for j in range(len(doms))])

    @pytest.mark.parametrize("doms", [
        [HS, BAND],
        [BAND, translate_domain(LevelBand(0.5, 2.0), (1.5 + 0j, 1.5 + 0j),
                                P24)],
        [BAND, modulus_translates(SubLevel(1.5))[0]],
        [OFF_BALL, OFF_BALL]])
    def test_problems_of_any_kinds_walk_together(self, doms):
        # a wall and a region, two rho, two sets of finite ends, two balls
        self.assert_own_bits(doms, [1, 2])

    @pytest.mark.parametrize("safe", [True, False])
    def test_one_plain_domain_keeps_a_call_on_the_calling_thread(
            self, monkeypatch, safe):
        # every problem records the threads that step it; a wrapper that
        # does not declare thread_safe keeps the whole call on this thread
        monkeypatch.setattr(robin, "_WORKERS", 2)
        monkeypatch.setattr(robin, "_WAVE_WALKS", 1024)
        threads = set()

        class Spy:
            def __init__(self, inner, thread_safe=True):
                self.inner, self.thread_safe = inner, thread_safe

            def distance(self, x):
                threads.add(threading.get_ident())
                return self.inner.distance(x)

            def project(self, x):
                return self.inner.project(x)

        doms = self.mixed()
        spies = [Spy(d) for d in doms]
        spies[3] = Spy(doms[3], thread_safe=safe)
        seeds = [3 + j for j in range(len(doms))]
        contrib = robin._contributions(spies, E, 600, seeds,
                                       config=self.CFG)[0]
        assert (threads == {threading.get_ident()}) is not safe
        assert contrib.tobytes() == robin._contributions(
            doms, E, 600, seeds, config=self.CFG)[0].tobytes()

    @pytest.mark.parametrize("doms, seeds", [
        ([HS, HS], [1]), ([HS, HS], 1), ([], []), (HS, 1)])
    def test_bad_problem_lists_rejected(self, doms, seeds):
        with pytest.raises(InvalidInputError):
            robin._contributions(doms, E, 100, seeds)

    def test_bad_seed_in_a_list_rejected(self):
        with pytest.raises(InvalidInputError):
            robin._contributions([HS, HS], E, 100, [1, -1])

    @pytest.mark.parametrize("delay", [0.0, 0.3])
    def test_helper_error_is_raised_after_every_join(self, monkeypatch,
                                                     delay):
        # two problems of one 256-walk block each, one block per live set:
        # the helper thread fails on its first step, whichever problem it
        # holds; the calling thread waits for that step before it steps
        monkeypatch.setattr(robin, "_WORKERS", 2)
        monkeypatch.setattr(robin, "_WAVE_WALKS", 512)
        caller = threading.get_ident()
        stepped = threading.Event()

        class FailingWall(HalfSpace):
            def distance(self, x):
                if threading.get_ident() != caller:
                    stepped.set()
                    time.sleep(delay)
                    raise EvaluationError(
                        f"problem at offset {self.offset} failed")
                if len(x) > 1:  # not a pole's distance
                    assert stepped.wait(10)
                return super().distance(x)

        walls = [FailingWall(HS.normal, off) for off in (0.0, -0.5)]
        before = threading.active_count()
        with pytest.raises(EvaluationError, match="problem at offset"):
            robin._contributions(walls, E, 256, [1, 2],
                                 config=WosConfig(block_size=256))
        assert threading.active_count() == before


class TestWosInputValidation:
    @pytest.mark.parametrize("kw", [
        {"block_size": 0}, {"block_size": -3}, {"max_steps": 0},
        {"block_size": 2.5}, {"block_size": math.nan}, {"block_size": True},
        {"max_steps": 1.5},
        {"eps_shell": math.nan}, {"eps_shell": -1.0}, {"eps_shell": 0.0},
        {"r_max_factor": 0.0}, {"r_max_factor": math.inf},
    ])
    def test_config_rejected(self, kw):
        with pytest.raises(InvalidInputError):
            WosConfig(**kw)

    @pytest.mark.parametrize("pole, c_weight", [
        ((math.nan, 0.0, 1.0, 0.0), 0.0),
        ((1.0, 0.0, math.inf, 0.0), 0.0),
        ((1.0, 0.0, 1.0), 0.0),
        ((1.0, 0.0, 1.0, 0.0), math.nan),
        ((1.0, 0.0, 1.0, 0.0), math.inf),
    ])
    def test_estimator_inputs_rejected(self, pole, c_weight):
        hs = HalfSpace(normal=(0.0, 0.0, 1.0, 0.0), offset=0.0)
        with pytest.raises(InvalidInputError):
            robin_constant(hs, np.array(pole), 100, 0, c_weight=c_weight)

    @pytest.mark.parametrize("n_walks, seed", [
        (2.5, 0), (100.0, 0), (0, 0), (-1, 0), (100, 1.5), (100, -1),
        (100, math.nan)])
    def test_counts_rejected(self, n_walks, seed):
        with pytest.raises(InvalidInputError):
            robin_constant(HS, E, n_walks, seed)

    @pytest.mark.parametrize("kw", [
        {"radius": math.nan}, {"radius": math.inf}, {"radius": 0.0},
        {"radius": -1.0}, {"center": (0.0, 0.0, 0.0)},
        {"center": (math.nan, 0.0, 0.0, 0.0)}, {"radius": 1e300},
        {"radius": float(np.nextafter(robin._MAX_RADIUS, math.inf))}])
    def test_ball_rejected(self, kw):
        with pytest.raises(InvalidInputError):
            Ball(**{"center": (0.0, 0.0, 0.0, 0.0), "radius": 1.0, **kw})

    def test_largest_ball_walks_without_overflow(self):
        # one block, so every step runs on this thread, under this errstate
        R = robin._MAX_RADIUS
        ball = Ball(center=(0.0, 0.0, 0.0, 0.0), radius=R)
        with np.errstate(over="raise", invalid="raise"):
            est = robin_constant(ball, np.zeros(4), 500, 2)
            off = robin_constant(ball, np.array([0.0, 0.0, 0.9 * R, 0.0]),
                                 500, 2, config=WosConfig(r_max_factor=1.05))
        assert est.lambda_hat == pytest.approx(ball_oracle(R), rel=1e-12)
        assert off.escaped_walks > 0 and off.lambda_hat < 0.0

    @pytest.mark.parametrize("s", [664, 1000])
    def test_escape_test_is_exact_at_any_scale(self, s):
        # a wall, pole and shell scaled by 2^s walk the paths of scale 1,
        # scaled exactly, although |pos - pole|^2 and r_max^2 overflow: the
        # escape test scales both by one power of two.  One block, so every
        # step runs on this thread, under this errstate
        def est(scale):
            wall = HalfSpace(normal=(0.0, 0.0, 1.0, 0.0), offset=scale)
            return robin_constant(wall, np.array([0.0, 0.0, 1.5 * scale, 0.0]),
                                  2000, 12345,
                                  config=WosConfig(eps_shell=1e-4 * scale))
        one = est(1.0)
        with np.errstate(all="raise"):
            big = est(math.ldexp(1.0, s))
        assert (big.escaped_walks, big.truncated_walks) == (
            one.escaped_walks, one.truncated_walks)
        assert 0 < one.escaped_walks < 2000
        # each hit's r overflows too, and its r^-2 is 0.0 in any case
        assert big.lambda_hat == 0.0

    @pytest.mark.parametrize("kw", [
        {"n_walks": 0}, {"n_walks": 2.5}, {"n_walks": True}, {"seed": -1},
        {"seed": 2.5}, {"seed": "a"}, {"seed": True}])
    def test_budget_rejected(self, kw):
        # these used to reach numpy's SeedSequence, or ran (seed=True)
        with pytest.raises(InvalidInputError):
            ExperimentBudget(**kw)

    @pytest.mark.parametrize("kw", [
        {"normal": (0.0, 0.0, math.nan, 0.0)},
        {"normal": (0.0, 0.0, math.inf, 0.0)}, {"normal": (0.0, 0.0, 1.0)},
        {"normal": (0.0, 0.0, 0.0, 0.0)}, {"offset": math.nan},
        {"offset": math.inf}])
    def test_half_space_rejected(self, kw):
        with pytest.raises(InvalidInputError):
            HalfSpace(**{"normal": (0.0, 0.0, 1.0, 0.0), **kw})

    @pytest.mark.parametrize("scale", [1e200, 1e-170, 2.0 ** -1070])
    def test_extreme_normal_is_normalized(self, scale):
        # the squared norm of the first overflowed to a zero normal, the
        # other two underflowed to "normal must be nonzero"
        want = HalfSpace(normal=(1.0, 1.0, 0.0, 0.0), offset=-1.0)
        with np.errstate(all="raise"):
            hs = HalfSpace(normal=(scale, scale, 0.0, 0.0), offset=-1.0)
        assert max(abs(a - b) / np.spacing(b)
                   for a, b in zip(hs.normal, want.normal)) <= 1.0
        est = robin_constant(hs, E, 2000, 3)
        assert est.truncated_walks == 0 and math.isfinite(est.lambda_hat)
        assert est.lambda_hat == pytest.approx(
            half_space_oracle(1.0 + math.sqrt(0.5)), rel=0.1)

    def test_infinite_escape_radius_rejected(self):
        # r_max_factor * d0 = 1e308 * 2 overflows to inf
        msg = "r_max_factor * d0 = 1e+308 * 2.0 is not finite"
        with pytest.raises(InvalidInputError, match=re.escape(msg)):
            robin_constant(HS, np.array([1.0, 0.0, 2.0, 0.0]), 100, 0,
                           config=WosConfig(r_max_factor=1e308))

    def test_non_finite_pole_distance_rejected(self):
        dom = Solvable(lambda x: np.full(len(x), math.inf))
        with pytest.raises(InvalidInputError):
            robin_constant(dom, E, 100, 0)


class TestStderr:
    def test_power_of_two_scaling_is_exact(self):
        # squared deviations near 1e-600 used to underflow to 0.0
        x = np.random.default_rng(8).uniform(0.5, 2.0, 100)
        se = robin._stderr(x)
        for k in range(-1000, 1001):
            assert robin._stderr(x * 2.0**k) == se * 2.0**k

    def test_huge_ball_reports_a_stderr(self):
        est = robin_constant(Ball((0.0, 0.0, 0.0, 0.0), 1e150),
                             (0.0, 0.0, 5e149, 0.0), 2000, 1)
        assert 0.0 < est.stderr < -est.lambda_hat


class TestScalingLaw:
    def test_ball_oracle_scales_like_inverse_square(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            r = rng.uniform(0.3, 3.0)
            assert ball_oracle(r) == pytest.approx(-1.0 / r**2)


class TestBoundaryExperiment:
    def test_nemirovskii_rows_follow_images_law(self):
        spec = Nemirovskii(1.0, 0.0)
        import cmath
        anchors = [(1 + 0j, -cmath.exp(1j * th)) for th in (0.0, 1.0)]
        rows = boundary_behavior_experiment(
            spec, anchors, P24, inv=INV24,
            budget=ExperimentBudget(n_walks=20_000, seed=5))
        for row, th in zip(rows, (0.0, 1.0)):
            assert row.dist_lower == pytest.approx(math.cos(th))
            oracle = product_half_plane_oracle(th)
            assert abs(row.lambda_hat - oracle) < 3 * row.stderr + 1e-9

    def test_implicit_anchor_fails_before_the_distance_search(self):
        # the anchor check evaluates psi once; an implicit domain has no
        # translate, so no distance search or walk evaluates it again
        calls = []

        def psi(z, w):
            calls.append((z, w))
            return abs(w) - 10.0

        msg = "^ImplicitDomain has no walkable translate$"
        with pytest.raises(EvaluationError, match=msg):
            boundary_behavior_experiment(
                ImplicitDomain(psi), [(1 + 0j, 1 + 0j)], P24, inv=INV24,
                budget=ExperimentBudget(n_walks=100, seed=5))
        assert len(calls) <= 1


    def test_anchor_outside_fails_before_any_walk(self, monkeypatch):
        calls = []
        monkeypatch.setattr(robin, "_contributions",
                            lambda *a, **kw: calls.append(a))
        anchors = [(1 + 0j, -1 + 0j), (1 + 0j, 1 + 0j)]
        msg = ("anchor ((1+0j), (1+0j)) is not inside the domain "
               "(residual 4.0)")
        with pytest.raises(EvaluationError, match=f"^{re.escape(msg)}$"):
            boundary_behavior_experiment(
                Nemirovskii(1.0, 0.0), anchors, P24, inv=INV24,
                budget=ExperimentBudget(n_walks=100, seed=5))
        assert calls == []

    def test_no_anchors_give_no_rows(self, monkeypatch):
        calls = []
        monkeypatch.setattr(robin, "_contributions",
                            lambda *a, **kw: calls.append(a))
        assert boundary_behavior_experiment(Nemirovskii(1.0, 0.0), [], P24,
                                            inv=INV24) == []
        assert calls == []

    @pytest.mark.parametrize("spec, anchors, params", [
        (Nemirovskii(1.0, 0.0),
         [(1 + 0j, -complex(math.cos(th), math.sin(th)))
          for th in (0.0, 0.9, -1.2)], P24),
        (LevelBand(0.5, 2.0), [(1.2 + 0j, 1.2 + 0j), (1.5 + 0j, 1.2 + 0j)],
         P23),
        (SubLevel(1.5), [(1.5 + 0j, 0.3 + 0j)], P23)])
    def test_rows_are_robin_constants_of_the_translates(self, spec,
                                                        anchors, params):
        budget = ExperimentBudget(n_walks=1500, seed=3)
        rows = boundary_behavior_experiment(spec, anchors, params,
                                            budget=budget)
        assert len(rows) == len(anchors)
        for j, (row, anchor) in enumerate(zip(rows, anchors)):
            seed = np.random.SeedSequence([3, j]).generate_state(1)[0]
            est = robin_constant(translate_domain(spec, anchor, params), E,
                                 1500, int(seed))
            assert (row.lambda_hat, row.stderr, row.n_walks,
                    row.truncated_walks) == (est.lambda_hat, est.stderr,
                                             est.n_walks,
                                             est.truncated_walks)


class TestPshSpotCheck:
    def test_nemirovskii_proxy_is_consistent(self):
        spec = Nemirovskii(1.0, 0.0)
        rep = psh_spot_check(spec, (1 + 0j, -1 + 0j), (0.3 + 0.1j, 0.2 - 0.4j),
                             0.05, 8, P24, inv=INV24,
                             budget=ExperimentBudget(n_walks=4000, seed=5))
        assert rep.consistent

    def test_identical_estimates_give_zero_residual(self):
        # synthetic control: a direction of length zero makes every ring
        # point coincide with the center, so the residual is exactly 0
        spec = Nemirovskii(1.0, 0.0)
        rep = psh_spot_check(spec, (1 + 0j, -1 + 0j), (0j, 0j), 0.05, 6, P24,
                             inv=INV24,
                             budget=ExperimentBudget(n_walks=2000, seed=5))
        assert rep.residual == 0.0
        assert rep.consistent

    def test_zero_disk_radius_is_the_degenerate_control(self):
        spec = Nemirovskii(1.0, 0.0)
        rep = psh_spot_check(spec, (1 + 0j, -1 + 0j), (0.3 + 0.1j, 0j), 0.0,
                             3, P24, inv=INV24,
                             budget=ExperimentBudget(n_walks=500, seed=5))
        assert rep.residual == 0.0

    def test_each_line_point_is_evaluated_once(self, monkeypatch):
        calls = []
        evaluate = domains.evaluate_domain

        def counting(spec, pt, *args):
            calls.append(pt)
            return evaluate(spec, pt, *args)

        monkeypatch.setattr(domains, "evaluate_domain", counting)
        psh_spot_check(Nemirovskii(1.0, 0.0), (1 + 0j, -1 + 0j),
                       (0.3 + 0.1j, 0.2 - 0.4j), 0.05, 4, P24, inv=INV24,
                       budget=ExperimentBudget(n_walks=100, seed=5))
        assert len(calls) == 4 + 1

    def test_line_point_outside_is_named(self):
        msg = ("anchor ((1+0j), (1+0j)) is not inside the domain "
               "(residual 4.0)")
        with pytest.raises(EvaluationError, match=f"^{re.escape(msg)}$"):
            psh_spot_check(Nemirovskii(1.0, 0.0), (1 + 0j, -1 + 0j),
                           (0j, 1 + 0j), 2.0, 3, P24, inv=INV24,
                           budget=ExperimentBudget(n_walks=100, seed=5))

    @pytest.mark.parametrize("direction, radius, point", [
        (0j + 1, 2.0, "((1+0j), (1+0j))"),
        (0j - 1, 3.0, "((1+0j), (0.49999999999999933-2.598076211353316j))")])
    def test_ring_point_outside_fails_before_any_walk(self, monkeypatch,
                                                      direction, radius,
                                                      point):
        # ring point 0 or 1 of three leaves the half-plane; no walk runs
        calls = []
        monkeypatch.setattr(robin, "_contributions",
                            lambda *a, **kw: calls.append(a))
        residual = {2.0: "4.0", 3.0: "0.49999999999999933"}[radius]
        msg = (f"anchor {point} is not inside the domain "
               f"(residual {residual})")
        with pytest.raises(EvaluationError, match=f"^{re.escape(msg)}$"):
            psh_spot_check(Nemirovskii(1.0, 0.0), (1 + 0j, -1 + 0j),
                           (0j, direction), radius, 3, P24, inv=INV24,
                           budget=ExperimentBudget(n_walks=100, seed=5))
        assert calls == []

    # the wos_translated benchmark's check: ring point 0 has the center's
    # translate, and the other two are walls at nearby angles
    LINE = (Nemirovskii(1.0, 0.0), (1 + 0j, -1 + 0j), (0j, 1 + 0j), 0.1, 3,
            P24, INV24)

    def _line_contributions(self, budget):
        spec, (z0, w0), (dz, dw), radius, grid_n = self.LINE[:5]
        pts = [(z0, w0)] + [(z0 + t * dz, w0 + t * dw) for t in (
            radius * complex(math.cos(2 * math.pi * j / grid_n),
                             math.sin(2 * math.pi * j / grid_n))
            for j in range(grid_n))]
        return [robin._contributions(
            [solvable_from_translate(spec.translate(pt, P24, INV24))], E,
            budget.n_walks, [budget.seed])[0][0] for pt in pts]

    @pytest.mark.parametrize("radius, walked", [(0.1, 3), (0.0, 1)])
    def test_equal_translates_walk_once(self, monkeypatch, radius, walked):
        # ring point 0 moves along the ray of the center's w, so it has the
        # center's translate; with radius 0 every point has it
        calls = []
        contributions = robin._contributions

        def spy(domains, *args, **kw):
            calls.append(domains)
            return contributions(domains, *args, **kw)

        monkeypatch.setattr(robin, "_contributions", spy)
        spec, anchor, direction, _, grid_n, params, inv = self.LINE
        rep = psh_spot_check(spec, anchor, direction, radius, grid_n, params,
                             inv, budget=ExperimentBudget(n_walks=300,
                                                          seed=5))
        assert [len(c) for c in calls] == [walked]
        if radius == 0.1:
            assert rep.ring_values[0] == rep.center_value

    def test_center_value_is_the_robin_estimate(self):
        budget = ExperimentBudget(n_walks=3000, seed=11)
        rep = psh_spot_check(*self.LINE, budget=budget)
        spec, anchor = self.LINE[:2]
        td = spec.translate(anchor, P24, INV24)
        est = robin_constant(solvable_from_translate(td), E, budget.n_walks,
                             budget.seed)
        assert rep.center_value == -est.lambda_hat

    def test_stderr_comes_from_the_paired_differences(self):
        budget = ExperimentBudget(n_walks=3000, seed=11)
        rep = psh_spot_check(*self.LINE, budget=budget)
        center, *ring = self._line_contributions(budget)
        diff = np.zeros_like(center)
        for c in ring:
            diff += c - center
        diff /= len(ring)
        assert rep.residual == np.mean(diff)
        assert rep.stderr == np.std(diff, ddof=1) / math.sqrt(budget.n_walks)
        assert rep.ring_values == [np.mean(c) for c in ring]

    def test_one_walk_has_zero_stderr(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = psh_spot_check(*self.LINE,
                                 budget=ExperimentBudget(n_walks=1, seed=5))
        assert rep.stderr == 0.0
        assert math.isfinite(rep.residual)

    def test_paired_walks_shrink_the_stderr(self):
        # the line points' streams were seeded apart and their stderrs
        # added as if independent: about 0.002 here
        rep = psh_spot_check(*self.LINE,
                             budget=ExperimentBudget(n_walks=20_000))
        assert rep.stderr < 0.0012
        assert rep.consistent

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf, -0.1])
    def test_bad_disk_radius_rejected(self, radius):
        with pytest.raises(InvalidInputError,
                           match=f"disk_radius must be finite and >= 0, "
                                 f"got {radius}"):
            psh_spot_check(Nemirovskii(1.0, 0.0), (1 + 0j, -1 + 0j),
                           (0j, 1 + 0j), radius, 3, P24, inv=INV24,
                           budget=ExperimentBudget(n_walks=100, seed=5))


class TestWalkPoints:
    """Both experiments walk through robin._walk_points: one _contributions
    call each, holding the distinct (translate, seed) pairs in order."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        contributions = robin._contributions

        def spy(doms, pole, n_walks, seeds, *args, **kw):
            caller = sys._getframe(1).f_code.co_name
            calls.append((caller, list(zip(doms, seeds))))
            return contributions(doms, pole, n_walks, seeds, *args, **kw)

        monkeypatch.setattr(robin, "_contributions", spy)
        return calls

    def test_boundary_experiment_walks_each_anchor_once(self, calls):
        # the first two anchors share a translate but not a seed
        anchors = [(1 + 0j, -1 + 0j), (2 + 0j, -1 + 0j), (1 + 0j, -1 + 0.5j)]
        boundary_behavior_experiment(
            Nemirovskii(1.0, 0.0), iter(anchors), P24, inv=INV24,
            budget=ExperimentBudget(n_walks=100, seed=5))
        tds = [translate_domain(Nemirovskii(1.0, 0.0), a, P24, INV24)
               for a in anchors]
        seeds = [int(np.random.SeedSequence([5, j]).generate_state(1)[0])
                 for j in range(3)]
        assert tds[0] == tds[1]
        assert calls == [("_walk_points", list(zip(tds, seeds)))]

    def test_psh_spot_check_walks_each_translate_once(self, calls):
        spec, anchor, direction, radius, grid_n, params, inv = \
            TestPshSpotCheck.LINE
        psh_spot_check(spec, anchor, direction, radius, grid_n, params, inv,
                       budget=ExperimentBudget(n_walks=100, seed=5))
        (z0, w0), (dz, dw) = anchor, direction
        tds = [translate_domain(spec, (z0 + t * dz, w0 + t * dw), params,
                                inv)
               for t in [0.0] + [radius * complex(
                   math.cos(2 * math.pi * j / grid_n),
                   math.sin(2 * math.pi * j / grid_n))
                   for j in range(grid_n)]]
        # ring point 0 has the center's translate, the other two their own
        assert tds[1] == tds[0] and len(set(tds)) == 3
        assert calls == [("_walk_points",
                          [(td, 5) for td in dict.fromkeys(tds)])]


class TestCertifiedModulusDistance:
    def test_cusp_point_does_not_overshoot(self):
        # the halved local Lipschitz bound returned 0.0021 here, about
        # twice the true distance of 0.0011
        td = translate_domain(SuperLevel(1.5), (0.3 + 0j, 1.5 + 0j), P23,
                              INV23)
        s1, s2 = 0.0025, 0.0011
        d = td.distance(np.array([[s1, 0.0, s2, 0.0]]))[0]
        # (s1, k s1^rho) lies on the boundary straight below the point
        below = s2 - math.exp(td.log_k1) * s1 ** td.rho
        assert 0.0 < d <= below < 0.0011

    @pytest.mark.parametrize("spec, anchor", [
        (LevelBand(0.5, 2.0), (1.5 + 0j, 1.5 + 0j)),
        (LevelBand(0.5, 2.0), (1.2 + 0j, 1.2 + 0j)),
        (SubLevel(1.5), (1.5 + 0j, 0.3 + 0j)),
        (SuperLevel(1.5), (0.3 + 0j, 1.5 + 0j))])
    def test_identity_distance_within_the_bracket(self, spec, anchor):
        td = translate_domain(spec, anchor, P23, INV23)
        d = td.distance(E[None])[0]
        assert 0.0 < d <= distance_to_identity(td)[1]

    def test_level_band_walks_take_few_steps(self):
        td = translate_domain(LevelBand(0.5, 2.0), (1.5 + 0j, 1.5 + 0j), P23,
                              INV23)
        lo, _ = distance_to_identity(td)
        dom = CountingDomain(solvable_from_translate(td))
        est = robin_constant(dom, E, 20_000, 1)
        # the halved local Lipschitz bound took 196 rows per walk here
        assert sum(dom.rows) / est.n_walks <= 60
        assert est.truncated_walks == 0
        # the inscribed ball of radius lo bounds lambda from below
        assert est.lambda_hat >= -1.0 / lo**2 - 3 * est.stderr


class TestSolvableAdapter:
    def test_modulus_region_distance_is_safe(self):
        td = translate_domain(LevelBand(0.5, 2.0),
                              (1.3 + 0j, 1.3 ** INV24.rho + 0j),
                              HopfParams(2 + 0j, 3 + 0j),
                              derive_invariants(HopfParams(2 + 0j, 3 + 0j),
                                                Numeric()))
        dom = solvable_from_translate(td)
        rng = np.random.default_rng(43)
        pts = np.column_stack([rng.uniform(0.5, 2.0, 200),
                               rng.uniform(-0.5, 0.5, 200),
                               rng.uniform(0.5, 2.0, 200),
                               rng.uniform(-0.5, 0.5, 200)])
        d = dom.distance(pts)
        inside = td.residual  # scalar residual on C* x C*
        for x, di in zip(pts, d):
            r = inside(complex(x[0], x[1]), complex(x[2], x[3]))
            assert di >= 0.0
            if r >= 0:
                assert di == 0.0

"""End-to-end acceptance checks.

Each test exercises one acceptance criterion and prints a single PASS/FAIL
line (visible with ``pytest -v -s`` or in captured output on failure).
"""

import cmath
import math
import time

import numpy as np
import pytest

from hopfsurf.domains import (LevelBand, Nemirovskii, classify_domain,
                              distance_to_identity, evaluate_domain,
                              tangency_check, translate_domain,
                              verify_nemirovskii_quotient)
from hopfsurf.flows import (VectorField, fiber_set, flow_point,
                            orbit_reduce_samples, star_discrepancy, unit_field)
from hopfsurf.invariants import HopfParams, Numeric, derive_invariants
from hopfsurf.levi import (BoundaryModel, Jet2, diamond_search, levi_form,
                           numeric_jet, pseudoconvexity_scan,
                           sweep_cover_check)
from hopfsurf.poly import RealPoly2
from hopfsurf.quotient import equivalent, reduce_point, u_value
from hopfsurf.robin import (Ball, HalfSpace, ball_oracle,
                            half_space_from_theta, half_space_oracle,
                            identity_point, product_half_plane_oracle,
                            robin_constant, solvable_from_translate, WosConfig,
                            _walk_blocks)
from params import P23, INV23, P24, INV24, P2M4, INV2M4, random_point


def _report(criterion: str, ok: bool):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}")
    assert ok, criterion


def test_criterion_1_invariants():
    t0 = time.monotonic()
    inv = derive_invariants(P2M4, Numeric())
    exact = (inv.rho == 2.0 and inv.tau == -0.5 and inv.nu == 2
             and inv.K == [1 + 0j, -1 + 0j])
    case_a = derive_invariants(P23, Numeric(1e-12, 10**6)).case_tag == "CaseA"
    elapsed = time.monotonic() - t0
    _report("criterion 1: invariants exact for (2,-4); (2,3) is CaseA; < 1s",
            exact and case_a and elapsed < 1.0)


def test_criterion_2_quotient_round_trip():
    rng = np.random.default_rng(202)
    params = HopfParams(complex(2 * cmath.exp(0.7j)),
                        complex(3 * cmath.exp(-1.3j)))
    ok = True
    for _ in range(1000):
        z, w = random_point(rng)
        base = reduce_point((z, w), params)
        u0 = u_value((z, w), params)
        for n in range(-10, 11):
            lifted = (z * params.a**n, w * params.b**n)
            red = reduce_point(lifted, params)
            rel = max(abs(red.rep_z - base.rep_z) / (1 + abs(base.rep_z)),
                      abs(red.rep_w - base.rep_w) / (1 + abs(base.rep_w)))
            du = abs(u_value(lifted, params) - u0) / (1 + abs(u0))
            if rel > 1e-12 or du > 1e-12:
                ok = False
    _report("criterion 2: 1000 pts x lifts n in [-10,10] reduce to the same "
            "representative and U is deck-invariant (1e-12 relative)", ok)


def test_criterion_3_flows():
    t0 = time.monotonic()
    # time-1 flow of the deck-generating field returns to the same quotient
    # point
    X = unit_field(P23)
    moved = flow_point(X, (1 + 0j, 1 + 0j), 1.0)
    flow_ok = equivalent((1 + 0j, 1 + 0j), moved, P23, 1e-9)

    fib = fiber_set(unit_field(P23), 1.5 + 0j, INV23, 10**4)
    equi_ok = star_discrepancy(fib.args) < 0.05

    fib2 = fiber_set(unit_field(P2M4), 1.5 + 0j, INV2M4, 2048)
    card_ok = len(fib2) == 2

    ts = [k * P24.log_abs_a for k in range(41)]
    pts = orbit_reduce_samples(VectorField(1 + 0j, 0j), (1 + 0j, 1 + 0j), ts,
                               P24)
    decay_ok = abs(pts[-1].rep_w) < 1e-6

    elapsed = time.monotonic() - t0
    _report("criterion 3: deck flow closes; CaseA fiber D* < 0.05 at N=1e4; "
            "CaseB2 fiber has 2 values; horizontal orbit |w| < 1e-6 by k=40; "
            "< 10s", flow_ok and equi_ok and card_ok and decay_ok
            and elapsed < 10.0)


def test_criterion_4_levi():
    band = pseudoconvexity_scan(LevelBand(0.5, 2.0), 100, 1e-6, P23, 7,
                                inv=INV23)
    band_ok = abs(band.min_levi) < 1e-6 and abs(band.max_levi) < 1e-6

    nem = pseudoconvexity_scan(Nemirovskii(1.0, 0.0), 100, 1e-6, P24, 7,
                               inv=INV24)
    nem_ok = abs(nem.min_levi) < 1e-6 and abs(nem.max_levi) < 1e-6

    def sphere(z, w):
        return abs(z) ** 2 + abs(w) ** 2 - 1.0

    sphere_ok = all(
        abs(levi_form(numeric_jet(sphere, pt)) - 1.0) < 1e-6
        for pt in ((1 + 0j, 0j),
                   (0.6 * cmath.exp(0.3j), 0.8 * cmath.exp(-1.1j))))

    rng = np.random.default_rng(404)
    homo_ok = True
    for _ in range(20):
        jet = Jet2(value=rng.normal(),
                   d_z=complex(rng.normal(), rng.normal()),
                   d_w=complex(rng.normal(), rng.normal()),
                   d_zzbar=rng.normal(), d_wwbar=rng.normal(),
                   d_zwbar=complex(rng.normal(), rng.normal()))
        if levi_form(jet.scaled(2.0)) != 8.0 * levi_form(jet):
            homo_ok = False
    _report("criterion 4: Levi form 0 within 1e-6 on 100 LevelBand and "
            "Nemirovskii boundary samples; 1 within 1e-6 on the sphere; "
            "degree-3 homogeneity exact",
            band_ok and nem_ok and sphere_ok and homo_ok)


def _diamond_corpus():
    """47 random models satisfying the graph positivity inequality + 3 anchors.

    Every model is harmonic-plus-radial: p0 = Re(alpha z + beta z^2 +
    gamma z^3) + c|z|^2 + d|z|^4 with c, d >= 0, so its Laplacian
    4c + 16 d |z|^2 is nonnegative and the inequality holds with p1 = p2 = 0.
    """
    rng = np.random.default_rng(505)
    models = []

    def build(alpha=0j, beta=0j, gamma=0j, c=0.0, d=0.0):
        poly = RealPoly2({})
        from hopfsurf.poly import from_complex_term
        if alpha:
            poly = poly + from_complex_term(alpha, 1, 0)
        if beta:
            poly = poly + from_complex_term(beta, 2, 0)
        if gamma:
            poly = poly + from_complex_term(gamma, 3, 0)
        if c:
            poly = poly + RealPoly2({(2, 0): c, (0, 2): c})
        if d:
            poly = poly + RealPoly2({(4, 0): d, (2, 2): 2 * d, (0, 4): d})
        return BoundaryModel(p=(poly,))

    def rc():
        return complex(rng.normal(), rng.normal())

    for _ in range(10):   # gradient case
        models.append(build(alpha=rc() + 0.2, beta=rc(), c=rng.uniform(0, 1)))
    for _ in range(19):   # positive a11 case
        models.append(build(beta=rc(), c=rng.uniform(0.2, 2.0),
                            d=rng.uniform(0, 0.5)))
    for _ in range(10):   # pure harmonic quadratic leading term
        models.append(build(beta=rc() + 0.2))
    for _ in range(4):    # odd harmonic leading term
        models.append(build(gamma=rc() + 0.2))
    for _ in range(4):    # even radial subharmonic leading term
        models.append(build(d=rng.uniform(0.2, 2.0)))
    # paper-anchored closed forms: Re z^2, |z|^2, and a linear graph
    models.append(build(beta=1 + 0j))
    models.append(build(c=1.0))
    models.append(build(alpha=1 + 0j))
    assert len(models) == 50
    return models


def test_criterion_5_diamond_and_sweep():
    t0 = time.monotonic()
    n_ok = 0
    for model in _diamond_corpus():
        res = diamond_search(model, 1.0)
        if res.found and res.p0_value > 0 and abs(res.z_star) < 1.0:
            n_ok += 1
    sweep_ok = True
    for coeffs in ({(2, 0): 1.0, (0, 2): -1.0}, {(2, 0): 1.0, (0, 2): 1.0}):
        rep = sweep_cover_check(BoundaryModel(p=(RealPoly2(coeffs),)), 1.0)
        if not (rep.r_prime > 0 and rep.max_arc_residual < 1e-9):
            sweep_ok = False
    elapsed = time.monotonic() - t0
    _report("criterion 5: diamond search certifies p0(z*) > 0 on 50/50 "
            "corpus models; sweep cover certifies positive r' on both "
            "closed-form models; < 30s",
            n_ok == 50 and sweep_ok and elapsed < 30.0)


def test_criterion_6_robin_oracles():
    e = identity_point()
    checks = []
    cases = [
        (Ball(center=tuple(e), radius=1.0), ball_oracle(1.0)),
        (Ball(center=tuple(e), radius=2.0), ball_oracle(2.0)),
        (HalfSpace(normal=(0.0, 0.0, 1.0, 0.0), offset=0.0),
         half_space_oracle(1.0)),
        (half_space_from_theta(math.pi / 3),
         product_half_plane_oracle(math.pi / 3)),
    ]
    for domain, oracle in cases:
        t0 = time.monotonic()
        est = robin_constant(domain, e, 10**5, 12345)
        elapsed = time.monotonic() - t0
        checks.append(abs(est.lambda_hat - oracle) <= 3 * est.stderr + 1e-12
                      and est.stderr <= 0.02 and elapsed < 60.0)
    # blocks run in reverse order on their own substreams, merged by index
    cfg, hs, n = WosConfig(), cases[2][0], 20_000
    starts = range(0, n, cfg.block_size)
    merged = {}
    for b, lo in reversed(list(enumerate(starts))):
        merged[b] = np.zeros(min(cfg.block_size, n - lo))
        _walk_blocks([hs], e, iter([(0, len(merged[b]),
                                     np.random.default_rng([777, b]))]),
                     cfg.block_size, merged[b][None], 0.0,
                     [cfg.r_max_factor * 1.0], cfg)
    reordered = -float(np.mean(np.concatenate(
        [merged[b] for b in range(len(starts))])))
    _report("criterion 6: ball/half-space/product-half-plane estimates hit "
            "their oracles within 3 sigma at 1e5 walks, stderr <= 0.02, "
            "< 60s each, bit-identical under reversed block order",
            all(checks)
            and robin_constant(hs, e, n, 777).lambda_hat == reordered)


def test_criterion_7_boundary_behavior():
    spec = Nemirovskii(1.0, 0.0)
    e = identity_point()

    # radial path: anchors rotating toward the boundary wall
    dist_ok, dive_ok = True, False
    for theta in (0.6, 1.0, 1.3, 1.46):
        anchor = (1 + 0j, -cmath.exp(1j * theta))
        td = translate_domain(spec, anchor, P24, INV24)
        lo, hi = distance_to_identity(td)
        if not (abs(lo - math.cos(theta)) < 1e-12
                and abs(hi - math.cos(theta)) < 1e-12):
            dist_ok = False
        est = robin_constant(solvable_from_translate(td), e, 20_000, 12345)
        if math.cos(theta) < 0.158 and est.lambda_hat < -10.0:
            dive_ok = True

    # angular approach to the w = 0 torus: bounded below uniformly in |w|
    angular_ok = True
    for theta in (0.0, -math.pi / 6, math.pi / 3):
        for mod in (1.0, 1e-2, 1e-4):
            anchor = (1 + 0j, -mod * cmath.exp(1j * theta))
            td = translate_domain(spec, anchor, P24, INV24)
            est = robin_constant(solvable_from_translate(td), e, 20_000,
                                 12345)
            if est.lambda_hat < -1.0 - 3 * est.stderr:
                angular_ok = False
    _report("criterion 7: translated-domain distance equals cos(theta) "
            "exactly, the estimate dives below -10 past cos(theta) < 0.158, "
            "and stays >= -1 - 3 sigma for |theta| <= pi/3 at all moduli",
            dist_ok and dive_ok and angular_ok)


def test_criterion_8_classification_table():
    import json
    import pathlib

    from hopfsurf.domains import (ImplicitDomain, LeafFamily, SubLevel,
                                  SuperLevel)

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
        "implicit": (ImplicitDomain(psi=lambda z, w: abs(w) - 1.0), INV23),
    }
    table_ok = True
    for name, (spec, inv) in cases.items():
        res = classify_domain(spec, inv)
        row = golden[name]
        if (res.theorem_type != row["theorem_type"]
                or res.verdict.status != row["status"]
                or res.verdict.witness != row["witness"]
                or list(res.notes) != row["notes"]):
            table_ok = False

    rep = tangency_check(LevelBand(0.5, 2.0), unit_field(P23), 100,
                         [0.25, 0.5, 1.0, -0.75], 1e-9, P23, seed=8,
                         inv=INV23)
    witness_ok = rep.tangential and rep.boundary_drift < 1e-12
    _report("criterion 8: classification verdicts match the frozen golden "
            "table and the NotStein witness hypersurface is flow-invariant "
            "with (near-)zero drift", table_ok and witness_ok)


def test_criterion_9_nemirovskii_quotient_identity():
    rep = verify_nemirovskii_quotient(P24, 10**4, seed=99)
    _report("criterion 9: 1e4 half-plane points reduce into the shell "
            "presentation and 1e4 lifted shell points lie in the half-plane; "
            "zero failures",
            rep.n_forward == 10**4 and rep.n_backward == 10**4
            and rep.forward_failures == 0 and rep.backward_failures == 0)

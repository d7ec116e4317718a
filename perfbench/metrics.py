"""Metric definitions shared by the runner and BENCHMARK.json.

End-to-end metrics come from plain (untraced) passes; set-up times, and
pass times on shell_geometry, are scaled to the reference machine (see
reference.py).  Per-layer metrics come from traced passes (see
tracing.py) and are not scaled.  A per-layer value is 0 on a
workload that leaves its layer idle.  Times of instrumented calls exclude
the instrumentation itself (booked apart by the tracer).
"""

from __future__ import annotations

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pass_s": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}

# layers whose self time a pass can hold (invariants are derived in set-up)
LAYERS = ("robin", "domains", "quotient", "flows", "levi", "poly", "cli")


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def per_layer(t, setup, pass_s: float) -> dict:
    """Per-layer values of one traced pass.

    `t` is the pass's tally, `setup` the tally of building the traced
    inputs (invariant derivation happens there), `pass_s` the pass's wall
    time.
    """
    c, b, s = t.counts, t.busy_s, t.self_s

    def calls(name):
        return c[name + ".calls"]

    def us_per_call(name, scale=1e6, tally=t):
        return _per(tally.busy_s[name], tally.counts[name + ".calls"], scale)

    walks = c["robin.walks"]
    rows = c["robin.distance_rows"]
    wos_s = s["robin.robin_constant"] + b["robin.distance"]
    mod_dist = b["robin.modulus_region.distance"]
    v = {
        "robin.robin_constant.calls": calls("robin.robin_constant"),
        "robin.robin_constant.busy_s": wos_s,
        "robin.ns_per_walk": _per(wos_s, walks, 1e9),
        "robin.distance_calls": c["robin.distance"],
        "robin.distance_rows": rows,
        "robin.rows_per_walk": _per(rows, walks),
        "robin.live_row_frac": _per(c["robin.live_rows"], rows),
        "robin.distance.busy_s": b["robin.distance"],
        "robin.self_s": s["robin.robin_constant"],
        "robin.escaped_walks": c["robin.escaped_walks"],
        "robin.truncated_walks": c["robin.truncated_walks"],
        "robin.boundary_behavior_experiment.busy_s":
            b["robin.boundary_behavior_experiment"],
        "robin.psh_spot_check.busy_s": b["robin.psh_spot_check"],
        "robin.ball_oracle.busy_s": b["robin.ball_oracle"],
        "robin.half_space.rows_per_walk":
            _per(c["robin.half_space.distance_rows"],
                 c["robin.half_space.walks"]),
        "robin.modulus_region.rows_per_walk":
            _per(c["robin.modulus_region.distance_rows"],
                 c["robin.modulus_region.walks"]),
        "robin.modulus_region.distance_frac":
            _per(mod_dist,
                 mod_dist + b["robin.modulus_region.robin_constant_self"]),
        "domains.translate_domain.calls": calls("domains.translate_domain"),
        "domains.translate_domain.busy_s": b["domains.translate_domain"],
        "domains.distance_to_identity.calls":
            calls("domains.distance_to_identity"),
        "domains.distance_to_identity.busy_s":
            b["domains.distance_to_identity"],
        "domains.evaluate_domain.calls": calls("domains.evaluate_domain"),
        "domains.evaluate_domain.us_per_call":
            us_per_call("domains.evaluate_domain"),
        "domains.verify_nemirovskii_quotient.us_per_sample":
            _per(b["domains.verify_nemirovskii_quotient"],
                 c["domains.verify_samples"], 1e6),
        "domains.tangency_check.busy_s": b["domains.tangency_check"],
        "domains.classify_domain.calls": calls("domains.classify_domain"),
        "domains.classify_domain.us_per_call":
            us_per_call("domains.classify_domain"),
        "domains.user_residual_evals": c["domains.user_residual_evals"],
        "quotient.reduce_point.calls": calls("quotient.reduce_point"),
        "quotient.reduce_point.us_per_call":
            us_per_call("quotient.reduce_point"),
        "quotient.reduce_point.failed": c["quotient.reduce_point.failed"],
        "quotient.u_value.calls": calls("quotient.u_value"),
        "quotient.u_value.us_per_call": us_per_call("quotient.u_value"),
        "flows.fiber_set.calls": calls("flows.fiber_set"),
        "flows.fiber_set.busy_s": b["flows.fiber_set"],
        "flows.fiber_set.values": c["flows.fiber_set.values"],
        "flows.classify_orbit_closure.busy_s":
            b["flows.classify_orbit_closure"],
        "levi.numeric_jet.calls": calls("levi.numeric_jet"),
        "levi.numeric_jet.us_per_call": us_per_call("levi.numeric_jet"),
        "levi.psi_evals_per_jet":
            _per(c["levi.psi_evals"], calls("levi.numeric_jet")),
        "levi.pseudoconvexity_scan.busy_s": b["levi.pseudoconvexity_scan"],
        "levi.diamond_search.busy_s": b["levi.diamond_search"],
        "levi.sweep_cover_check.busy_s": b["levi.sweep_cover_check"],
        "poly.evals": c["poly.eval"],
        "poly.ns_per_eval": _per(b["poly.eval"], c["poly.eval"], 1e9),
        "invariants.derive_invariants.calls":
            setup.counts["invariants.derive_invariants.calls"],
        "invariants.derive_invariants.us_per_call":
            us_per_call("invariants.derive_invariants", tally=setup),
        "cli.main.calls": calls("cli.main"),
        "cli.main.ms_per_call": us_per_call("cli.main", 1e3),
        "trace.spans": len(t.spans),
    }
    for layer in LAYERS:
        own = sum(x for name, x in s.items() if name.startswith(layer + "."))
        v[f"{layer}.pass_frac"] = _per(own, pass_s)
    return v


# Units and directions of the per-layer metrics; trace.overhead_frac is
# computed by the runner from plain and traced pass times.
PER_LAYER = {
    "robin.robin_constant.calls": ("count", "lower"),
    "robin.robin_constant.busy_s": ("s", "lower"),
    "robin.ns_per_walk": ("ns", "lower"),
    "robin.distance_calls": ("count", "lower"),
    "robin.distance_rows": ("count", "lower"),
    "robin.rows_per_walk": ("rows/walk", "lower"),
    "robin.live_row_frac": ("ratio", "higher"),
    "robin.distance.busy_s": ("s", "lower"),
    "robin.self_s": ("s", "lower"),
    "robin.escaped_walks": ("count", "lower"),
    "robin.truncated_walks": ("count", "lower"),
    "robin.boundary_behavior_experiment.busy_s": ("s", "lower"),
    "robin.psh_spot_check.busy_s": ("s", "lower"),
    "robin.ball_oracle.busy_s": ("s", "lower"),
    "robin.half_space.rows_per_walk": ("rows/walk", "lower"),
    "robin.modulus_region.rows_per_walk": ("rows/walk", "lower"),
    "robin.modulus_region.distance_frac": ("ratio", "lower"),
    "domains.translate_domain.calls": ("count", "lower"),
    "domains.translate_domain.busy_s": ("s", "lower"),
    "domains.distance_to_identity.calls": ("count", "lower"),
    "domains.distance_to_identity.busy_s": ("s", "lower"),
    "domains.evaluate_domain.calls": ("count", "lower"),
    "domains.evaluate_domain.us_per_call": ("us", "lower"),
    "domains.verify_nemirovskii_quotient.us_per_sample": ("us", "lower"),
    "domains.tangency_check.busy_s": ("s", "lower"),
    "domains.classify_domain.calls": ("count", "lower"),
    "domains.classify_domain.us_per_call": ("us", "lower"),
    "domains.user_residual_evals": ("count", "lower"),
    "quotient.reduce_point.calls": ("count", "lower"),
    "quotient.reduce_point.us_per_call": ("us", "lower"),
    "quotient.reduce_point.failed": ("count", "lower"),
    "quotient.u_value.calls": ("count", "lower"),
    "quotient.u_value.us_per_call": ("us", "lower"),
    "flows.fiber_set.calls": ("count", "lower"),
    "flows.fiber_set.busy_s": ("s", "lower"),
    "flows.fiber_set.values": ("count", "higher"),
    "flows.classify_orbit_closure.busy_s": ("s", "lower"),
    "levi.numeric_jet.calls": ("count", "lower"),
    "levi.numeric_jet.us_per_call": ("us", "lower"),
    "levi.psi_evals_per_jet": ("evals/jet", "lower"),
    "levi.pseudoconvexity_scan.busy_s": ("s", "lower"),
    "levi.diamond_search.busy_s": ("s", "lower"),
    "levi.sweep_cover_check.busy_s": ("s", "lower"),
    "poly.evals": ("count", "lower"),
    "poly.ns_per_eval": ("ns", "lower"),
    "invariants.derive_invariants.calls": ("count", "lower"),
    "invariants.derive_invariants.us_per_call": ("us", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.ms_per_call": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
    **{f"{layer}.pass_frac": ("ratio", "lower") for layer in LAYERS},
    "trace.overhead_frac": ("ratio", "lower"),
}

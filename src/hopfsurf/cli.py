"""Command-line front end.

Every subcommand prints a single JSON document (schema version 1) to stdout
unless CSV output is requested.  Complex inputs are passed as --x-re/--x-im
flag pairs; complex outputs appear as [re, im] pairs.  Exit codes: 0 on
success, 2 on validation errors, 1 on internal errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import numpy as np

from . import domains, flows, invariants, levi, poly, quotient, robin
from .errors import InvalidInputError

SCHEMA = 1
DEFAULT_SEED = 12345


def _c(ns, name) -> complex:
    return complex(getattr(ns, f"{name}_re"), getattr(ns, f"{name}_im"))


def _pair(c: complex):
    return [c.real, c.imag]


def _emit(payload: dict, command: str) -> None:
    doc = {"schema": SCHEMA, "command": command}
    doc.update(payload)
    json.dump(doc, sys.stdout, indent=2, default=_json_default)
    sys.stdout.write("\n")


def _json_default(o):
    if isinstance(o, complex):
        return _pair(o)
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, tuple):
        return list(o)
    raise TypeError(f"not JSON-serializable: {o!r}")


def _add_params_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a-re", type=float, required=True)
    p.add_argument("--a-im", type=float, default=0.0)
    p.add_argument("--b-re", type=float, required=True)
    p.add_argument("--b-im", type=float, default=0.0)


def _params(ns) -> invariants.HopfParams:
    return invariants.HopfParams(a=_c(ns, "a"), b=_c(ns, "b"))


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["numeric", "declared"], default="numeric")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-den", type=int, default=10**6)
    p.add_argument("--p", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--l", type=int)
    p.add_argument("--m", type=int)


def _mode(ns):
    if ns.mode == "declared":
        if ns.p is None or ns.q is None:
            raise InvalidInputError("declared mode needs --p and --q")
        return invariants.Declared(p=ns.p, q=ns.q, l=ns.l, m=ns.m)
    return invariants.Numeric(tol=ns.tol, max_den=ns.max_den)


def _add_field_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha-re", type=float)
    p.add_argument("--alpha-im", type=float, default=0.0)
    p.add_argument("--beta-re", type=float)
    p.add_argument("--beta-im", type=float, default=0.0)
    p.add_argument("--unit-field", action="store_true",
                   help="use the deck-generating field instead of alpha/beta")


def _field(ns, params) -> flows.VectorField:
    if ns.unit_field:
        return flows.unit_field(params)
    if ns.alpha_re is None or ns.beta_re is None:
        raise InvalidInputError("pass --alpha-re/--beta-re or --unit-field")
    return flows.VectorField(_c(ns, "alpha"), _c(ns, "beta"))


# CLI domain kind -> (spec class, flags passed to it as keyword arguments)
_DOMAIN_KINDS = {
    "level-band": (domains.LevelBand, ("k1", "k2")),
    "sub-level": (domains.SubLevel, ("k",)),
    "super-level": (domains.SuperLevel, ("k",)),
    "nemirovskii": (domains.Nemirovskii, ("A", "B")),
}


def _add_domain_flags(p: argparse.ArgumentParser, required=True) -> None:
    p.add_argument("--domain", required=required, choices=list(_DOMAIN_KINDS))
    for flag in dict.fromkeys(f for _, fs in _DOMAIN_KINDS.values() for f in fs):
        p.add_argument(f"--{flag}", type=float)


def _domain(ns):
    cls, flags = _DOMAIN_KINDS[ns.domain]
    if any(getattr(ns, f) is None for f in flags):
        raise InvalidInputError(f"{ns.domain} needs "
                                + " and ".join(f"--{f}" for f in flags))
    return cls(**{f: getattr(ns, f) for f in flags})


def _parse_terms(text: str) -> poly.RealPoly2:
    """JSON list of [i, j, coef] monomials in (x, y) = (Re z, Im z)."""
    try:
        terms = json.loads(text)
        return poly.RealPoly2({(int(i), int(j)): float(c)
                               for i, j, c in terms})
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad polynomial terms {text!r}: {exc}")


def _model(ns) -> levi.BoundaryModel:
    ps = [_parse_terms(ns.p0)]
    if ns.p1:
        ps.append(_parse_terms(ns.p1))
    if ns.p2:
        if not ns.p1:
            ps.append(poly.ZERO)
        ps.append(_parse_terms(ns.p2))
    return levi.BoundaryModel(p=tuple(ps))


def _add_wos_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n-walks", type=int, default=20000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--c-weight", type=float, default=0.0)
    p.add_argument("--eps-shell", type=float, default=1e-4)
    p.add_argument("--r-max-factor", type=float, default=1e3)
    p.add_argument("--block-size", type=int, default=4096)


def _wos_config(ns) -> robin.WosConfig:
    return robin.WosConfig(eps_shell=ns.eps_shell,
                           r_max_factor=ns.r_max_factor,
                           block_size=ns.block_size)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfsurf",
        description="invariants, flows, domains and Robin constants on "
                    "linear-contraction quotients of C^2 minus the origin")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("invariants", help="derive rho/tau and the case split")
    _add_params_flags(p)
    _add_mode_flags(p)

    p = sub.add_parser("reduce", help="reduce a point into the fundamental shell")
    _add_params_flags(p)
    p.add_argument("--z-re", type=float, required=True)
    p.add_argument("--z-im", type=float, default=0.0)
    p.add_argument("--w-re", type=float, required=True)
    p.add_argument("--w-im", type=float, default=0.0)

    p = sub.add_parser("flow", help="flow a point and reduce the result")
    _add_params_flags(p)
    _add_field_flags(p)
    p.add_argument("--z-re", type=float, required=True)
    p.add_argument("--z-im", type=float, default=0.0)
    p.add_argument("--w-re", type=float, required=True)
    p.add_argument("--w-im", type=float, default=0.0)
    p.add_argument("--t-re", type=float, required=True)
    p.add_argument("--t-im", type=float, default=0.0)

    p = sub.add_parser("fiber", help="enumerate orbit values over a z-fiber")
    _add_params_flags(p)
    _add_mode_flags(p)
    _add_field_flags(p)
    p.add_argument("--z-prime-re", type=float, required=True)
    p.add_argument("--z-prime-im", type=float, default=0.0)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("classify", help="orbit-closure or domain classification")
    _add_params_flags(p)
    _add_mode_flags(p)
    p.add_argument("--what", choices=["orbit", "domain"], required=True)
    _add_field_flags(p)
    _add_domain_flags(p, required=False)

    p = sub.add_parser("tangency", help="is a domain boundary flow-invariant?")
    _add_params_flags(p)
    _add_domain_flags(p)
    _add_field_flags(p)
    p.add_argument("--n-samples", type=int, default=50)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--t-grid", type=str, default="-1,-0.5,0.5,1",
                   help="comma-separated real flow times")

    p = sub.add_parser("levi-scan",
                       help="Levi curvature at sampled boundary points")
    _add_params_flags(p)
    _add_domain_flags(p)
    p.add_argument("--n-samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("diamond",
                       help="search for boundary-graph positivity z*")
    p.add_argument("--p0", type=str, required=True,
                   help='JSON [[i,j,coef],...] monomials of p0 in (x, y)')
    p.add_argument("--p1", type=str, default="")
    p.add_argument("--p2", type=str, default="")
    p.add_argument("--r1", type=float, default=1.0)

    p = sub.add_parser("sweep-cover",
                       help="certify an arc-sweep covering radius")
    p.add_argument("--p0", type=str, required=True)
    p.add_argument("--p1", type=str, default="")
    p.add_argument("--p2", type=str, default="")
    p.add_argument("--r1", type=float, default=1.0)
    p.add_argument("--n-w-samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("robin", help="walk-on-spheres Robin constant")
    p.add_argument("--shape", choices=["ball", "half-space",
                                       "product-half-plane"], required=True)
    p.add_argument("--radius", type=float)
    p.add_argument("--center", type=float, nargs=4, default=[0, 0, 0, 0])
    p.add_argument("--normal", type=float, nargs=4)
    p.add_argument("--offset", type=float, default=0.0)
    p.add_argument("--theta", type=float)
    p.add_argument("--pole", type=float, nargs=4, required=True)
    _add_wos_flags(p)

    p = sub.add_parser("boundary-exp",
                       help="Robin constants along an anchor path")
    _add_params_flags(p)
    _add_domain_flags(p)
    p.add_argument("--anchor", action="append", required=True,
                   metavar="ZRE,ZIM,WRE,WIM",
                   help="repeatable anchor point")
    p.add_argument("--n-walks", type=int, default=20000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("psh-check",
                       help="sub-mean-value test of the -lambda proxy")
    _add_params_flags(p)
    _add_domain_flags(p)
    p.add_argument("--anchor", type=str, required=True,
                   metavar="ZRE,ZIM,WRE,WIM")
    p.add_argument("--direction", type=str, required=True,
                   metavar="ZRE,ZIM,WRE,WIM")
    p.add_argument("--disk-radius", type=float, default=0.1)
    p.add_argument("--grid-n", type=int, default=8)
    p.add_argument("--n-walks", type=int, default=20000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("nemirovskii-verify",
                       help="sampled check of the half-plane quotient identity")
    _add_params_flags(p)
    p.add_argument("--n-samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    return ap


def _point4(text: str) -> tuple[complex, complex]:
    try:
        zr, zi, wr, wi = (float(x) for x in text.split(","))
    except ValueError:
        raise InvalidInputError(f"bad point {text!r}, want ZRE,ZIM,WRE,WIM")
    return (complex(zr, zi), complex(wr, wi))


def _run(ns) -> None:
    if ns.cmd == "invariants":
        inv = invariants.derive_invariants(_params(ns), _mode(ns))
        _emit(inv.to_dict(), "invariants")

    elif ns.cmd == "reduce":
        params = _params(ns)
        zw = (_c(ns, "z"), _c(ns, "w"))
        pt = quotient.reduce_point(zw, params)
        payload = {"rep_z": _pair(pt.rep_z), "rep_w": _pair(pt.rep_w),
                   "lift_index": pt.lift_index,
                   "on_Ta": pt.on_Ta, "on_Tb": pt.on_Tb}
        if not (pt.on_Ta or pt.on_Tb):
            payload["u"] = quotient.u_value(zw, params)
        _emit(payload, "reduce")

    elif ns.cmd == "flow":
        params = _params(ns)
        X = _field(ns, params)
        end = flows.flow_point(X, (_c(ns, "z"), _c(ns, "w")), _c(ns, "t"))
        rp = quotient.reduce_point(end, params)
        _emit({"end_z": _pair(complex(end[0])), "end_w": _pair(complex(end[1])),
               "rep_z": _pair(rp.rep_z), "rep_w": _pair(rp.rep_w),
               "lift_index": rp.lift_index}, "flow")

    elif ns.cmd == "fiber":
        params = _params(ns)
        inv = invariants.derive_invariants(params, _mode(ns))
        X = _field(ns, params)
        fib = flows.fiber_set(X, _c(ns, "z_prime"), inv, ns.n)
        if ns.format == "csv":
            out = io.StringIO()
            wr = csv.writer(out)
            wr.writerow(["w_re", "w_im", "log_abs", "arg"])
            for v, la, ar in zip(fib.values, fib.log_abs, fib.args):
                wr.writerow([v.real, v.imag, la, ar])
            sys.stdout.write(out.getvalue())
        else:
            _emit({"count": len(fib), "min_abs": fib.min_abs,
                   "max_abs": fib.max_abs,
                   "values": [_pair(v) for v in fib.values],
                   "args": fib.args}, "fiber")

    elif ns.cmd == "classify":
        params = _params(ns)
        inv = invariants.derive_invariants(params, _mode(ns))
        if ns.what == "orbit":
            X = _field(ns, params)
            cc = flows.classify_orbit_closure(X, params, inv)
            _emit({"tag": cc.tag, "sheets": cc.sheets,
                   "diagnostics": cc.diagnostics}, "classify")
        else:
            if ns.domain is None:
                raise InvalidInputError("--what domain needs --domain")
            res = domains.classify_domain(_domain(ns), inv)
            _emit(res.to_dict(), "classify")

    elif ns.cmd == "tangency":
        params = _params(ns)
        t_grid = [float(x) for x in ns.t_grid.split(",")]
        rep = domains.tangency_check(_domain(ns), _field(ns, params),
                                     ns.n_samples, t_grid, ns.tol, params,
                                     ns.seed)
        _emit({"boundary_drift": rep.boundary_drift,
               "interior_escapes": rep.interior_escapes,
               "n_boundary": rep.n_boundary, "n_interior": rep.n_interior,
               "tangential": rep.tangential}, "tangency")

    elif ns.cmd == "levi-scan":
        params = _params(ns)
        rep = levi.pseudoconvexity_scan(_domain(ns), ns.n_samples, ns.tol,
                                        params, ns.seed)
        _emit({"min_levi": rep.min_levi, "max_levi": rep.max_levi,
               "n_evaluated": rep.n_evaluated,
               "n_violations": len(rep.violations),
               "pseudoconvex_at_samples": rep.pseudoconvex_at_samples},
              "levi-scan")

    elif ns.cmd == "diamond":
        res = levi.diamond_search(_model(ns), ns.r1)
        _emit({"found": res.found, "case": res.case,
               "z_star": _pair(res.z_star) if res.z_star is not None else None,
               "p0_value": res.p0_value, "trace": list(res.trace)}, "diamond")

    elif ns.cmd == "sweep-cover":
        rep = levi.sweep_cover_check(_model(ns), ns.r1,
                                     n_w_samples=ns.n_w_samples, seed=ns.seed)
        _emit({"r_prime": rep.r_prime, "z_star": _pair(rep.z_star),
               "n_covered": rep.n_covered,
               "max_arc_residual": rep.max_arc_residual,
               "diamond_case": rep.diamond_case}, "sweep-cover")

    elif ns.cmd == "robin":
        if ns.shape == "ball":
            if ns.radius is None:
                raise InvalidInputError("ball needs --radius")
            dom = robin.Ball(center=tuple(ns.center), radius=ns.radius)
        elif ns.shape == "half-space":
            if ns.normal is None:
                raise InvalidInputError("half-space needs --normal")
            dom = robin.HalfSpace(normal=tuple(ns.normal), offset=ns.offset)
        else:
            if ns.theta is None:
                raise InvalidInputError("product-half-plane needs --theta")
            dom = robin.half_space_from_theta(ns.theta)
        est = robin.robin_constant(dom, np.array(ns.pole), ns.n_walks,
                                   ns.seed, c_weight=ns.c_weight,
                                   config=_wos_config(ns))
        _emit({"lambda_hat": est.lambda_hat, "stderr": est.stderr,
               "n_walks": est.n_walks, "truncated_walks": est.truncated_walks,
               "escaped_walks": est.escaped_walks, "seed": est.seed,
               "c_weight": est.c_weight, "r_max": est.r_max,
               "kernel_normalization": est.kernel_normalization}, "robin")

    elif ns.cmd == "boundary-exp":
        params = _params(ns)
        anchors = [_point4(a) for a in ns.anchor]
        budget = robin.ExperimentBudget(n_walks=ns.n_walks, seed=ns.seed)
        rows = robin.boundary_behavior_experiment(_domain(ns), anchors,
                                                  params, budget=budget)
        cols = ["anchor_z_re", "anchor_z_im", "anchor_w_re", "anchor_w_im",
                "theta", "dist_lower", "dist_upper", "lambda_hat", "stderr",
                "n_walks", "truncated_walks"]
        table = [[r.anchor_z.real, r.anchor_z.imag, r.anchor_w.real,
                  r.anchor_w.imag, r.theta, r.dist_lower, r.dist_upper,
                  r.lambda_hat, r.stderr, r.n_walks, r.truncated_walks]
                 for r in rows]
        if ns.format == "csv":
            out = io.StringIO()
            wr = csv.writer(out)
            wr.writerow(cols)
            wr.writerows(table)
            sys.stdout.write(out.getvalue())
        else:
            _emit({"columns": cols, "rows": table}, "boundary-exp")

    elif ns.cmd == "psh-check":
        params = _params(ns)
        budget = robin.ExperimentBudget(n_walks=ns.n_walks, seed=ns.seed)
        rep = robin.psh_spot_check(_domain(ns), _point4(ns.anchor),
                                   _point4(ns.direction), ns.disk_radius,
                                   ns.grid_n, params, budget=budget)
        _emit({"center_value": rep.center_value,
               "ring_values": rep.ring_values, "residual": rep.residual,
               "stderr": rep.stderr, "consistent": rep.consistent},
              "psh-check")

    elif ns.cmd == "nemirovskii-verify":
        rep = domains.verify_nemirovskii_quotient(_params(ns), ns.n_samples,
                                                  ns.seed)
        _emit({"n_forward": rep.n_forward, "n_backward": rep.n_backward,
               "forward_failures": rep.forward_failures,
               "backward_failures": rep.backward_failures,
               "shell_inner_count": rep.shell_inner_count,
               "shell_outer_count": rep.shell_outer_count},
              "nemirovskii-verify")


def main(argv=None) -> int:
    ap = build_parser()
    ns = ap.parse_args(argv)
    try:
        _run(ns)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end.

Every subcommand prints a single JSON document (schema version 1) to stdout
unless CSV output is requested.  Each subcommand is one handler that returns
its payload; ``main`` adds the "schema" and "command" keys.  Where a
subcommand returns a result dataclass (tangency, diamond, sweep-cover,
robin, psh-check, nemirovskii-verify, classify --what orbit, and reduce plus
its "u"), its JSON fields are that dataclass's fields in order, so adding a
field to the report adds it to the JSON.  Complex inputs are passed as
--x-re/--x-im flag pairs; complex outputs appear as [re, im] pairs.  Exit
codes: 0 on success, 2 on validation errors, 1 on internal errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import asdict, astuple, fields

import numpy as np

from . import domains, flows, invariants, levi, poly, quotient, robin
from .errors import InvalidInputError

SCHEMA = 1
DEFAULT_SEED = 12345
# flag values such as "-0.5,0.5" or "-1e-3", beyond argparse's "-1" and "-.5"
_NUMBER_LIKE = re.compile(r"^-\.?\d")


def _c(ns, name) -> complex:
    return complex(getattr(ns, f"{name}_re"), getattr(ns, f"{name}_im"))


def _json_default(o):
    if isinstance(o, complex):
        return [o.real, o.imag]
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not JSON-serializable: {o!r}")


def _csv(cols, rows) -> str:
    out = io.StringIO()
    wr = csv.writer(out)
    wr.writerow(cols)
    wr.writerows(rows)
    return out.getvalue()


def _add_complex(p: argparse.ArgumentParser, *names, required=False) -> None:
    """--x-re/--x-im per name; an absent --x-re is None unless required."""
    for name in names:
        p.add_argument(f"--{name}-re", type=float, required=required)
        p.add_argument(f"--{name}-im", type=float, default=0.0)


def _add_opts(p: argparse.ArgumentParser, **defaults) -> None:
    """--n-samples etc. from n_samples=..., typed by the default's type."""
    for name, default in defaults.items():
        p.add_argument("--" + name.replace("_", "-"), type=type(default),
                       default=default)


def _params(ns) -> invariants.HopfParams:
    return invariants.HopfParams(a=_c(ns, "a"), b=_c(ns, "b"))


def _add_mode_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", choices=["numeric", "declared"], default="numeric")
    _add_opts(p, tol=1e-12, max_den=10**6)
    for flag in "pqlm":
        p.add_argument(f"--{flag}", type=int)


def _mode(ns):
    if ns.mode == "declared":
        if ns.p is None or ns.q is None:
            raise InvalidInputError("declared mode needs --p and --q")
        return invariants.Declared(p=ns.p, q=ns.q, l=ns.l, m=ns.m)
    return invariants.Numeric(tol=ns.tol, max_den=ns.max_den)


def _add_field_flags(p: argparse.ArgumentParser) -> None:
    _add_complex(p, "alpha", "beta")
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
        return poly.RealPoly2({(i, j): float(c) for i, j, c in terms})
    except (json.JSONDecodeError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"bad polynomial terms {text!r}: {exc}")


def _add_model_flags(p: argparse.ArgumentParser, p0_help=None) -> None:
    p.add_argument("--p0", type=str, required=True, help=p0_help)
    _add_opts(p, p1="", p2="", r1=1.0)


def _model(ns) -> levi.BoundaryModel:
    ps = [_parse_terms(ns.p0)]
    if ns.p1:
        ps.append(_parse_terms(ns.p1))
    if ns.p2:
        if not ns.p1:
            ps.append(poly.ZERO)
        ps.append(_parse_terms(ns.p2))
    return levi.BoundaryModel(p=tuple(ps))


def _add_budget_flags(p: argparse.ArgumentParser) -> None:
    _add_opts(p, n_walks=20000, seed=DEFAULT_SEED)


def _budget(ns) -> robin.ExperimentBudget:
    return robin.ExperimentBudget(n_walks=ns.n_walks, seed=ns.seed)


def _point4(text: str) -> tuple[complex, complex]:
    try:
        zr, zi, wr, wi = (float(x) for x in text.split(","))
    except ValueError:
        raise InvalidInputError(f"bad point {text!r}, want ZRE,ZIM,WRE,WIM")
    return (complex(zr, zi), complex(wr, wi))


# robin --shape -> (flag the shape needs, its walk-on-spheres domain)
_SHAPES = {
    "ball": ("radius", lambda ns: robin.Ball(center=tuple(ns.center),
                                             radius=ns.radius)),
    "half-space": ("normal", lambda ns: robin.HalfSpace(
        normal=tuple(ns.normal), offset=ns.offset)),
    "product-half-plane": (
        "theta", lambda ns: robin.half_space_from_theta(ns.theta)),
}

# boundary-exp columns: the anchors split into parts, then BoundaryRow's
# remaining fields
_EXP_COLS = ["anchor_z_re", "anchor_z_im", "anchor_w_re", "anchor_w_im",
             *(f.name for f in fields(robin.BoundaryRow)[2:])]


# -- handlers: namespace -> JSON payload dict, or CSV text --------------------

def _invariants(ns):
    return invariants.derive_invariants(_params(ns), _mode(ns)).to_dict()


def _reduce(ns):
    params = _params(ns)
    zw = (_c(ns, "z"), _c(ns, "w"))
    pt = quotient.reduce_point(zw, params)
    payload = asdict(pt)
    if not (pt.on_Ta or pt.on_Tb):
        payload["u"] = quotient.u_value(zw, params)
    return payload


def _flow(ns):
    params = _params(ns)
    X = _field(ns, params)
    end = flows.flow_point(X, (_c(ns, "z"), _c(ns, "w")), _c(ns, "t"))
    rp = quotient.reduce_point(end, params)
    return {"end_z": end[0], "end_w": end[1], "rep_z": rp.rep_z,
            "rep_w": rp.rep_w, "lift_index": rp.lift_index}


def _fiber(ns):
    params = _params(ns)
    inv = invariants.derive_invariants(params, _mode(ns))
    fib = flows.fiber_set(_field(ns, params), _c(ns, "z_prime"), inv, ns.n)
    if ns.format == "csv":
        return _csv(["w_re", "w_im", "log_abs", "arg"],
                    ([v.real, v.imag, la, ar] for v, la, ar
                     in zip(fib.values, fib.log_abs, fib.args)))
    return {"count": len(fib), "min_abs": fib.min_abs,
            "max_abs": fib.max_abs, "values": fib.values, "args": fib.args}


def _classify(ns):
    params = _params(ns)
    inv = invariants.derive_invariants(params, _mode(ns))
    if ns.what == "orbit":
        return asdict(flows.classify_orbit_closure(_field(ns, params), params,
                                                   inv))
    if ns.domain is None:
        raise InvalidInputError("--what domain needs --domain")
    return domains.classify_domain(_domain(ns), inv).to_dict()


def _tangency(ns):
    params = _params(ns)
    t_grid = [float(x) for x in ns.t_grid.split(",")]
    return asdict(domains.tangency_check(_domain(ns), _field(ns, params),
                                         ns.n_samples, t_grid, ns.tol,
                                         params, ns.seed))


def _levi_scan(ns):
    params = _params(ns)
    rep = levi.pseudoconvexity_scan(_domain(ns), ns.n_samples, ns.tol,
                                    params, ns.seed)
    return {"min_levi": rep.min_levi, "max_levi": rep.max_levi,
            "n_evaluated": rep.n_evaluated,
            "n_violations": len(rep.violations),
            "pseudoconvex_at_samples": rep.pseudoconvex_at_samples}


def _diamond(ns):
    return asdict(levi.diamond_search(_model(ns), ns.r1))


def _sweep_cover(ns):
    return asdict(levi.sweep_cover_check(_model(ns), ns.r1,
                                         n_w_samples=ns.n_w_samples,
                                         seed=ns.seed))


def _robin(ns):
    need, build = _SHAPES[ns.shape]
    if getattr(ns, need) is None:
        raise InvalidInputError(f"{ns.shape} needs --{need}")
    return asdict(robin.robin_constant(
        build(ns), np.array(ns.pole), ns.n_walks, ns.seed,
        c_weight=ns.c_weight,
        config=robin.WosConfig(eps_shell=ns.eps_shell,
                               r_max_factor=ns.r_max_factor,
                               block_size=ns.block_size)))


def _boundary_exp(ns):
    params = _params(ns)
    anchors = [_point4(a) for a in ns.anchor]
    rows = robin.boundary_behavior_experiment(_domain(ns), anchors, params,
                                              budget=_budget(ns))
    table = [[r.anchor_z.real, r.anchor_z.imag, r.anchor_w.real,
              r.anchor_w.imag, *astuple(r)[2:]] for r in rows]
    if ns.format == "csv":
        return _csv(_EXP_COLS, table)
    return {"columns": _EXP_COLS, "rows": table}


def _psh_check(ns):
    params = _params(ns)
    return asdict(robin.psh_spot_check(_domain(ns), _point4(ns.anchor),
                                       _point4(ns.direction), ns.disk_radius,
                                       ns.grid_n, params, budget=_budget(ns)))


def _nemirovskii_verify(ns):
    return asdict(domains.verify_nemirovskii_quotient(_params(ns),
                                                      ns.n_samples, ns.seed))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once and shared; each subparser's handler default
    is its dispatch entry.  Handlers must not mutate parsed defaults."""
    ap = argparse.ArgumentParser(
        prog="hopfsurf",
        description="invariants, flows, domains and Robin constants on "
                    "linear-contraction quotients of C^2 minus the origin")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def command(name, handler, help, params=True):
        p = sub.add_parser(name, help=help)
        p._negative_number_matcher = _NUMBER_LIKE
        p.set_defaults(handler=handler)
        if params:
            _add_complex(p, "a", "b", required=True)
        return p

    p = command("invariants", _invariants, "derive rho/tau and the case split")
    _add_mode_flags(p)

    p = command("reduce", _reduce, "reduce a point into the fundamental shell")
    _add_complex(p, "z", "w", required=True)

    p = command("flow", _flow, "flow a point and reduce the result")
    _add_field_flags(p)
    _add_complex(p, "z", "w", "t", required=True)

    p = command("fiber", _fiber, "enumerate orbit values over a z-fiber")
    _add_mode_flags(p)
    _add_field_flags(p)
    _add_complex(p, "z-prime", required=True)
    _add_opts(p, n=64)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = command("classify", _classify,
                "orbit-closure or domain classification")
    _add_mode_flags(p)
    p.add_argument("--what", choices=["orbit", "domain"], required=True)
    _add_field_flags(p)
    _add_domain_flags(p, required=False)

    p = command("tangency", _tangency, "is a domain boundary flow-invariant?")
    _add_domain_flags(p)
    _add_field_flags(p)
    _add_opts(p, n_samples=50, tol=1e-9, seed=DEFAULT_SEED)
    p.add_argument("--t-grid", type=str, default="-1,-0.5,0.5,1",
                   help="comma-separated real flow times")

    p = command("levi-scan", _levi_scan,
                "Levi curvature at sampled boundary points")
    _add_domain_flags(p)
    _add_opts(p, n_samples=100, tol=1e-6, seed=DEFAULT_SEED)

    p = command("diamond", _diamond,
                "search for boundary-graph positivity z*", params=False)
    _add_model_flags(p, 'JSON [[i,j,coef],...] monomials of p0 in (x, y)')

    p = command("sweep-cover", _sweep_cover,
                "certify an arc-sweep covering radius", params=False)
    _add_model_flags(p)
    _add_opts(p, n_w_samples=200, seed=DEFAULT_SEED)

    p = command("robin", _robin, "walk-on-spheres Robin constant",
                params=False)
    p.add_argument("--shape", choices=list(_SHAPES), required=True)
    p.add_argument("--radius", type=float)
    p.add_argument("--center", type=float, nargs=4, default=[0, 0, 0, 0])
    p.add_argument("--normal", type=float, nargs=4)
    _add_opts(p, offset=0.0)
    p.add_argument("--theta", type=float)
    p.add_argument("--pole", type=float, nargs=4, required=True)
    _add_budget_flags(p)
    _add_opts(p, c_weight=0.0, eps_shell=1e-4, r_max_factor=1e3,
              block_size=4096)

    p = command("boundary-exp", _boundary_exp,
                "Robin constants along an anchor path")
    _add_domain_flags(p)
    p.add_argument("--anchor", action="append", required=True,
                   metavar="ZRE,ZIM,WRE,WIM", help="repeatable anchor point")
    _add_budget_flags(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = command("psh-check", _psh_check,
                "sub-mean-value test of the -lambda proxy")
    _add_domain_flags(p)
    for flag in ("--anchor", "--direction"):
        p.add_argument(flag, type=str, required=True,
                       metavar="ZRE,ZIM,WRE,WIM")
    _add_opts(p, disk_radius=0.1, grid_n=8)
    _add_budget_flags(p)

    p = command("nemirovskii-verify", _nemirovskii_verify,
                "sampled check of the half-plane quotient identity")
    _add_opts(p, n_samples=10000, seed=DEFAULT_SEED)

    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        payload = ns.handler(ns)
        if isinstance(payload, str):
            sys.stdout.write(payload)
        else:
            sys.stdout.write(json.dumps(
                {"schema": SCHEMA, "command": ns.cmd, **payload}, indent=2,
                default=_json_default) + "\n")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 -- internal failure path
        print(f"internal error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

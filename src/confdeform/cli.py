"""Command-line driver for generation, queries, synthesis, and checking.

Exit codes: 0 on success, 1 when a checker or synthesis audit reports a
violation, 2 on bad input.  Identical flags and seed give byte-identical
JSON output, except for the timestamp field in aggregate reports (disable
it with --no-timestamp when comparing runs).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import domain as domain_mod
from . import verify
from .deform import DeformedDomain, parse_quadrature
from .domain import DomainError, estimate_metric_constants
from .synthesis import predicted_vs_measured, synthesize
from .weight import WeightFunction, derive_constants


def _load_domain(spec):
    if os.path.exists(spec):
        return domain_mod.load_domain(spec)
    if ":" in spec or spec in domain_mod._GENERATORS:
        return domain_mod.generate_domain(spec)
    raise DomainError(f"{spec!r} is neither a domain file nor a generator spec")


def _resolve_vertex(dom, text):
    """Vertex reference: ``id:<n>`` or ``x,y`` snapped to the nearest vertex."""
    text = text.strip()
    if text.startswith("id:"):
        vid = int(text[3:])
        dom.index(vid)
        return vid
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(
            f"bad vertex reference {text!r}; use 'x,y' coordinates or 'id:N'"
        )
    return dom.nearest_vertex(float(parts[0]), float(parts[1]))


def _bundle_for(dd, args):
    """Constants bundle from explicit --cu/--cq or an empirical estimate."""
    cu, cq = args.cu, args.cq
    info = {}
    if cu is None or cq is None:
        est = estimate_metric_constants(
            dd.domain, dd.field, n_pairs=min(2 * args.samples, 400),
            seed=args.seed,
        )
        cu = cu if cu is not None else est.cu
        cq = cq if cq is not None else est.cq
        info["estimated"] = {"cu": est.cu, "cq": est.cq, "pairs": est.n_pairs}
    return derive_constants(dd.weight, cu, cq), info


def _emit(payload, out_path):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_flags(args):
    """(quadrature, additive tolerance or None for auto) of the checked run
    flags."""
    try:
        tol = None if args.tol in (None, "auto") else float(args.tol)
    except ValueError:
        raise ValueError(f"--tol must be 'auto' or a number >= 1, "
                         f"got {args.tol!r}") from None
    quad = parse_quadrature(args.quad)
    if args.samples < 1:
        raise ValueError("sample budget must be at least 1")
    if tol is not None and not tol >= 1.0:
        raise ValueError("tolerance factor must be at least 1")
    return quad, None if tol is None else tol - 1.0


def _build_deformed(args):
    """(deformed domain, additive tolerance or None for auto).  Every run
    flag is checked before the domain loads."""
    quad, tol = _run_flags(args)
    weight = WeightFunction.parse(args.weight)
    return DeformedDomain(_load_domain(args.domain), weight, quadrature=quad), tol


# -- subcommand handlers ------------------------------------------------------


def cmd_generate(args):
    dom = domain_mod.generate_domain(args.spec)
    if args.out:
        dom.save(args.out)
    else:
        _emit(dom.to_dict(), None)
    return 0


def cmd_distance(args):
    dd, _ = _build_deformed(args)
    x = _resolve_vertex(dd.domain, args.frm)
    if args.to.strip().lower() == "inf":
        est = dd.dist_to_infinity(x)
        _emit(est.to_dict(), args.out)
        return 0
    y = _resolve_vertex(dd.domain, args.to)
    record = {
        "x": x, "y": y,
        "d": dd.domain.distance(x, y),
        "d_phi": dd.dphi_distance(x, y),
    }
    _emit(record, args.out)
    return 0


def cmd_geodesic(args):
    dd, _ = _build_deformed(args)
    x = _resolve_vertex(dd.domain, args.frm)
    if args.to.strip().lower() == "inf":
        bundle, _ = _bundle_for(dd, args)
        result = synthesize(dd, bundle, x, to_infinity=True)
        record = result.curve.to_dict()
        record.update(x=x, y="inf", d_phi_interval=[result.curve.estimate.lower,
                                                    result.curve.estimate.upper])
        _emit(record, args.out)
        return 0
    y = _resolve_vertex(dd.domain, args.to)
    curve = dd.dphi_geodesic(x, y)
    record = {
        "x": x, "y": y,
        "d": dd.domain.distance(x, y),
        "d_phi": curve.total_phi,
        "geodesic": curve.vertex_ids,
    }
    _emit(record, args.out)
    return 0


def cmd_constants(args):
    if args.cu is not None and args.cq is not None:
        _run_flags(args)
        bundle = derive_constants(WeightFunction.parse(args.weight), args.cu, args.cq)
        _emit(bundle.to_dict(), args.out)
        return 0
    if args.domain is None:
        raise DomainError("constants needs either --cu and --cq or --domain")
    dd, _ = _build_deformed(args)
    bundle, info = _bundle_for(dd, args)
    payload = bundle.to_dict()
    payload.update(info)
    _emit(payload, args.out)
    return 0


def cmd_synthesize(args):
    dd, _ = _build_deformed(args)
    bundle, _ = _bundle_for(dd, args)
    x = _resolve_vertex(dd.domain, args.frm)
    if args.to.strip().lower() == "inf":
        result = synthesize(dd, bundle, x, to_infinity=True)
    else:
        y = _resolve_vertex(dd.domain, args.to)
        result = synthesize(dd, bundle, x, y)
    payload = result.to_dict()
    payload["curve"] = result.curve.to_dict()
    _emit(payload, args.out)
    return 0


def _run_checks(dd, args, tol, names=None):
    """(bundle, checker reports, aggregate report) of one checking run."""
    bundle, info = _bundle_for(dd, args)
    reports = verify.run_all_checks(
        dd, bundle, checks=names, n_samples=args.samples, seed=args.seed,
        tolerance=tol,
    )
    aggregate = verify.aggregate_report(
        dd, bundle, reports, seed=args.seed, tolerance=tol,
        include_timestamp=not args.no_timestamp,
    )
    aggregate.update(info)
    return bundle, reports, aggregate


def cmd_check(args):
    dd, tol = _build_deformed(args)
    names = None
    if args.checks and args.checks != "all":
        names = [c.strip() for c in args.checks.split(",") if c.strip()]
    _, _, payload = _run_checks(dd, args, tol, names)
    _emit(payload, args.out)
    return 1 if payload["violations_total"] > 0 else 0


def cmd_report(args):
    dd, tol = _build_deformed(args)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    bundle, reports, aggregate = _run_checks(dd, args, tol)
    synth = predicted_vs_measured(
        dd, bundle, n_pairs=args.samples, n_to_infinity=args.inf_queries,
        seed=args.seed, tolerance=tol,
    )
    with open(os.path.join(out_dir, "aggregate.json"), "w") as fh:
        fh.write(json.dumps(aggregate, sort_keys=True, indent=2) + "\n")
    with open(os.path.join(out_dir, "checks.csv"), "w") as fh:
        fh.write(verify.report_csv(reports))
    with open(os.path.join(out_dir, "synthesis.json"), "w") as fh:
        fh.write(json.dumps(synth, sort_keys=True, indent=2) + "\n")
    bad = aggregate["violations_total"] > 0 or bool(synth["summary"]["flags"])
    return 1 if bad else 0


# -- parser --------------------------------------------------------------------


def _add_common(sub, domain_required=True, vertex_args=False):
    sub.add_argument("--domain", required=domain_required,
                     help="domain JSON file or generator spec like "
                          "half_plane:width=40,depth=40,h=0.1,conn=8")
    sub.add_argument("--weight", required=True,
                     help="weight spec: power:beta=2, powerlog:beta=2,kappa=1, "
                          "or table:@file.json")
    sub.add_argument("--quad", default="subdivided:4",
                     help="edge quadrature: trapezoid or subdivided:k")
    sub.add_argument("--samples", type=int, default=200,
                     help="sample budget for estimates and checks")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--tol", default="auto",
                     help="tolerance factor (>= 1), default 1 + 10h")
    sub.add_argument("--out", default=None, help="output file (or directory "
                                                 "for report)")
    sub.add_argument("--cu", type=float, default=None,
                     help="override the uniformity constant")
    sub.add_argument("--cq", type=float, default=None,
                     help="override the quasiconvexity constant")
    if vertex_args:
        sub.add_argument("--from", dest="frm", required=True,
                         help="vertex: 'x,y' (snapped) or 'id:N'")
        sub.add_argument("--to", required=True,
                         help="vertex like --from, or 'inf'")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="confdeform",
        description="Deform boundary-marked metric graphs by a weight of the "
                    "distance to the boundary; query, synthesize uniform "
                    "curves, and check the quantitative inequalities.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("generate", help="write a generated domain as JSON")
    gen.add_argument("--spec", required=True,
                     help="generator spec, e.g. half_plane:width=40,depth=40,h=0.1")
    gen.add_argument("--out", default=None)
    gen.set_defaults(func=cmd_generate)

    dist = subs.add_parser("distance", help="base and deformed distances")
    _add_common(dist, vertex_args=True)
    dist.set_defaults(func=cmd_distance)

    geo = subs.add_parser("geodesic", help="deformed-metric geodesic")
    _add_common(geo, vertex_args=True)
    geo.set_defaults(func=cmd_geodesic)

    cons = subs.add_parser("constants", help="derived constants bundle; "
                           "cu/cq not given are estimated from --domain")
    _add_common(cons, domain_required=False)
    cons.set_defaults(func=cmd_constants)

    syn = subs.add_parser("synthesize", help="produce a candidate uniform curve")
    _add_common(syn, vertex_args=True)
    syn.set_defaults(func=cmd_synthesize)

    chk = subs.add_parser("check", help="run the inequality checkers")
    _add_common(chk)
    chk.add_argument("--checks", default="all",
                     help="comma-separated checker names, or 'all'")
    chk.add_argument("--no-timestamp", action="store_true",
                     help="omit the timestamp for byte-identical reruns")
    chk.set_defaults(func=cmd_check)

    rep = subs.add_parser("report", help="full report bundle into a directory")
    _add_common(rep)
    rep.add_argument("--inf-queries", type=int, default=20,
                     help="point-to-infinity synthesis samples")
    rep.add_argument("--no-timestamp", action="store_true")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

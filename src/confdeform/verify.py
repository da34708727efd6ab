"""Numerical checkers for the quantitative inequalities of the deformation.

Each checker samples points, pairs, or curves, evaluates one family of
inequalities, and returns a :class:`CheckReport`.  Ratios are always
oriented so that values at most 1 mean the inequality holds with room to
spare; a sample counts as a violation only when its ratio exceeds the
tolerance factor ``1 + tolerance``.  Checkers never raise on a violation:
they record witnesses and report.

Sampling is stratified by dyadic shell so that the deep shells, where the
interesting inequalities live, are represented despite holding few
vertices.  Every checker is deterministic given its seed.
"""

from __future__ import annotations

import csv
import io
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _graphs
from .curves import subcurve_excess_ratio
from .synthesis import (default_tolerance, shell_groups, stratified_pick,
                        uniform_curve_d)


@dataclass
class CheckReport:
    name: str
    tolerance: float
    seed: int
    samples: int = 0
    violations: int = 0
    worst_ratio: float = 0.0
    excluded: int = 0
    witnesses: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    def score(self, ratio, witness, allowed=None):
        """Fold one ratio in.  Past ``allowed`` (``1 + tolerance`` by default)
        it is a violation, and the first few violations keep their witness."""
        self.worst_ratio = max(self.worst_ratio, ratio)
        if ratio > (1.0 + self.tolerance if allowed is None else allowed):
            self.violations += 1
            if len(self.witnesses) < _MAX_WITNESSES:
                self.witnesses.append(witness)


CHECK_NAMES = (
    "crossing_levels", "nearby_points", "dist_to_infty", "dist_pip_bdy",
    "large_bound", "boundary_identification", "separation_from_infinity",
)

_MAX_WITNESSES = 10


def _rooted_pairs(adj, groups, rng, n_sources, per_source):
    """(source, target, distances from source) over stratified sources.
    Each source's targets are drawn after its full run; a target equal to
    its source or unreachable from it is skipped."""
    for s in stratified_pick(groups, rng, n_sources):
        dist = _graphs.distances_from(adj, s)
        for t in stratified_pick(groups, rng, per_source):
            if t != s and np.isfinite(dist[t]):
                yield s, t, dist


# -- individual checkers -----------------------------------------------------


def check_crossing_levels(dd, n_samples=200, seed=0, tolerance=None):
    """Curves meeting both shell m and shell m+2 are at least as long as
    the crossing bound ``2**m * phi(2**m) / c_phi**2`` in the deformed
    metric.  Samples mix deformed geodesics with seeded random walks."""
    tolerance = default_tolerance(dd, tolerance)
    rng = np.random.default_rng(seed)
    shells = dd.field.shells
    weight = dd.weight
    cphi2 = weight.c_phi ** 2
    adj = dd.adjacency_phi_interior
    groups = shell_groups(dd)
    rep = CheckReport(name="crossing_levels", tolerance=tolerance, seed=seed)
    n_geo = n_samples // 2
    n_sources = max(1, n_geo // 10)
    pairs = _rooted_pairs(adj, groups, rng, n_sources, max(1, n_geo // n_sources))
    curves = [(_graphs.extract_path(adj, dist, s, t), float(dist[t]))
              for s, t, dist in pairs]
    n_from_geodesics = len(curves)
    indptr, indices = adj.indptr, adj.indices
    data = adj.data
    while len(curves) < n_samples:
        v = stratified_pick(groups, rng, 1, start=len(curves))[0]
        steps = int(rng.integers(40, 400))
        walk = [v]
        total = 0.0
        for _ in range(steps):
            lo, hi = indptr[v], indptr[v + 1]
            if hi == lo:
                break
            j = int(rng.integers(lo, hi))
            total += float(data[j])
            v = int(indices[j])
            walk.append(v)
        if len(walk) > 1:
            curves.append((np.asarray(walk, dtype=np.int64), total))

    for path, len_phi in curves:
        s = shells[path]
        lo_shell, hi_shell = int(s.min()), int(s.max())
        tested = False
        for m in range(lo_shell, hi_shell - 1):
            if (s == m).any() and (s == m + 2).any():
                tested = True
                bound = 2.0 ** m * weight.value(2.0 ** m) / cphi2
                ratio = bound / len_phi
                rep.score(ratio, {
                    "kind": "crossing", "m": m, "len_phi": len_phi,
                    "bound": bound, "ratio": ratio,
                    "start": dd.domain.vertex_id(path[0]),
                    "end": dd.domain.vertex_id(path[-1]),
                })
        if tested:
            rep.samples += 1
        else:
            rep.excluded += 1
    rep.notes = {"curves": len(curves), "geodesics": n_from_geodesics}
    return rep


def check_nearby_points(dd, bundle, n_samples=200, seed=0, tolerance=None):
    """Pairs below the closeness threshold compare the two metrics both
    ways through ``phi(2**m)``, with the constant ``c_a``, plus the sharper
    one-sided form with factor 11/10.

    The threshold shrinks with the shell scale, so shallow shells on a
    coarse grid hold no qualifying pairs; attempts there count as excluded.
    """
    tolerance = default_tolerance(dd, tolerance)
    rng = np.random.default_rng(seed)
    weight = dd.weight
    shells = dd.field.shells
    bmask = dd.domain.boundary_mask
    adj_phi = dd.adjacency_phi_interior
    adj_d = dd.domain.adjacency_interior
    thr_coef = min(10.0 / (11.0 * 4.0 * weight.c_phi ** 2),
                   10.0 / (22.0 * bundle.cq ** 2))
    groups = shell_groups(dd, deep_side=True)
    rep = CheckReport(name="nearby_points", tolerance=tolerance, seed=seed)
    attempts = 0
    while rep.samples < n_samples and attempts < 8 * n_samples:
        # rotate the starting shell so deep shells get their turn even
        # though shallow ones are usually excluded by the threshold
        x = stratified_pick(groups, rng, 1, start=attempts)[0]
        attempts += 1
        m = int(shells[x])
        scale = weight.value(2.0 ** m) * 2.0 ** m
        thr = thr_coef * scale
        dist_phi = _graphs.distances_from(adj_phi, x, limit=thr)
        cand = np.nonzero(np.isfinite(dist_phi) & (dist_phi > 0) & ~bmask)[0]
        cand = cand[dist_phi[cand] < thr]
        if cand.size == 0:
            rep.excluded += 1
            continue
        take = cand if cand.size <= 3 else rng.choice(cand, size=3, replace=False)
        limit_d = bundle.c_a * thr / weight.value(2.0 ** m) * (1.0 + tolerance) * 1.01
        dist_d = _graphs.distances_from(adj_d, x, limit=limit_d)
        for y in take:
            dphi = float(dist_phi[y])
            d = float(dist_d[y])
            phim = weight.value(2.0 ** m)
            rep.samples += 1
            if not np.isfinite(d):
                # the upper comparison already fails at the search limit
                rep.score(np.inf, {
                    "kind": "upper", "x": dd.domain.vertex_id(x),
                    "y": dd.domain.vertex_id(int(y)), "m": m,
                    "d_phi": dphi, "d": None, "ratio": None,
                })
                continue
            r_upper = dphi / (bundle.c_a * phim * d)
            r_lower = phim * d / (bundle.c_a * dphi)
            r_sharp = weight.value(2.0 ** (m + 1)) * d / (1.1 * dphi)
            ratio = max(r_upper, r_lower, r_sharp)
            rep.score(ratio, {
                "kind": "two-sided", "x": dd.domain.vertex_id(x),
                "y": dd.domain.vertex_id(int(y)), "m": m,
                "d_phi": dphi, "d": d, "ratio": ratio,
            })
    branch = "cq<2cphi" if bundle.cq < 2.0 * weight.c_phi else "cq>=2cphi"
    rep.notes = {"threshold_branch": branch, "attempts": attempts}
    return rep


def check_dist_to_infty(dd, bundle, n_samples=200, seed=0, tolerance=None):
    """Infinity intervals for points in shells m >= n0+2 nest into the
    analytic band [(5/11) tail(m+1), cu*cphi*tail(m-n0)] within tolerance
    and intersect it outright.  A clamped interval is a violation: the
    escape model failed, so it certifies nothing."""
    tolerance = default_tolerance(dd, tolerance)
    rng = np.random.default_rng(seed)
    weight = dd.weight
    min_shell = bundle.n0 + 2
    groups = shell_groups(dd, min_shell=min_shell)
    rep = CheckReport(name="dist_to_infty", tolerance=tolerance, seed=seed)
    if not groups:
        rep.notes = {"reason": f"no interior vertices in shells >= {min_shell}"}
        return rep
    for x in stratified_pick(groups, rng, n_samples):
        m = int(dd.field.shells[x])
        est = dd.dist_to_infinity(dd.domain.vertex_id(x))
        rep.samples += 1
        if est.clamped:
            rep.score(np.inf, {"kind": "clamped", "x": dd.domain.vertex_id(x),
                               "m": m, "interval": [est.lower, est.upper]})
            continue
        band_low = (5.0 / 11.0) * weight.tail_sum(m + 1)
        band_up = bundle.cu * bundle.c_phi * weight.tail_sum(m - bundle.n0)
        ratio = max(
            est.upper / band_up,
            band_low / est.lower,
            est.lower / band_up,
            band_low / est.upper,
        )
        rep.score(ratio, {
            "x": dd.domain.vertex_id(x), "m": m,
            "interval": [est.lower, est.upper],
            "band": [band_low, band_up], "ratio": ratio,
        })
    return rep


def check_dist_pip_bdy(dd, bundle, n_samples=200, seed=0, tolerance=None):
    """Deformed boundary distance against the shell-sum band.

    Shell-0 points must reproduce the base boundary distance exactly (the
    weight is 1 there); a tiny float allowance stands in for exactness.
    Deeper points land between (50/121) of the inner shell sum and
    cu*cphi times the extended shell sum.
    """
    tolerance = default_tolerance(dd, tolerance)
    eps0 = 1e-9
    rng = np.random.default_rng(seed)
    weight = dd.weight
    vals_phi = dd.boundary_field_phi
    vals_d = dd.field.values
    groups = shell_groups(dd)
    rep = CheckReport(name="dist_pip_bdy", tolerance=tolerance, seed=seed,
                      notes={"shell0_eps": eps0})
    full = weight.tail_sum(0)
    for x in stratified_pick(groups, rng, n_samples):
        m = int(dd.field.shells[x])
        v = float(vals_phi[x])
        d0 = float(vals_d[x])
        rep.samples += 1
        if m == 0:
            ratio = max(v / d0, d0 / v)
            rep.score(ratio, {
                "x": dd.domain.vertex_id(x), "m": 0,
                "d_omega": d0, "d_phi_bdry": v,
                "ratio": ratio,
            }, allowed=1.0 + eps0)
            continue
        low = (50.0 / 121.0) * (full - weight.tail_sum(m))
        up = bundle.cu * bundle.c_phi * (full - weight.tail_sum(m + bundle.n0 + 1))
        ratio = max(low / v, v / up)
        rep.score(ratio, {
            "x": dd.domain.vertex_id(x), "m": m, "d_phi_bdry": v,
            "band": [low, up], "ratio": ratio,
        })
    return rep


def check_large_bound(dd, bundle, n_samples=200, seed=0, tolerance=None):
    """Pairs within shells <= m0 obey the coarse growth bound
    ``c_growth * 2**m * phi(2**m)`` with m the shallower shell."""
    tolerance = default_tolerance(dd, tolerance)
    rng = np.random.default_rng(seed)
    weight = dd.weight
    shells = dd.field.shells
    adj = dd.adjacency_phi_interior
    groups = [(s, g) for s, g in shell_groups(dd) if s <= bundle.m0]
    rep = CheckReport(name="large_bound", tolerance=tolerance, seed=seed)
    if not groups:
        rep.notes = {"reason": "no shells at or below m0"}
        return rep
    n_sources = max(2, n_samples // 14)
    per_src = max(1, -(-n_samples // n_sources))
    deepest = int(max(s for s, _ in groups))
    for src, t, dist in _rooted_pairs(adj, groups, rng, n_sources, per_src):
        m = int(min(shells[src], shells[t]))
        bound = bundle.c_growth * 2.0 ** m * weight.value(2.0 ** m)
        ratio = float(dist[t]) / bound
        rep.samples += 1
        rep.score(ratio, {
            "x": dd.domain.vertex_id(src), "y": dd.domain.vertex_id(t),
            "m": m, "d_phi": float(dist[t]), "bound": bound,
            "ratio": ratio,
        })
    rep.notes = {"deepest_shell_sampled": deepest, "m0": bundle.m0}
    return rep


def check_boundary_identification(dd, bundle, n_samples=200, seed=0,
                                  tolerance=None):
    """Nearby boundary pairs (base distance at most 1/10) satisfy
    ``d <= d_phi <= cq * d`` with the empirical quasiconvexity constant.

    Distances run on the full graph: curves between boundary points live in
    the closure, where travelling along the boundary is legitimate.
    """
    tolerance = default_tolerance(dd, tolerance)
    rng = np.random.default_rng(seed)
    domain = dd.domain
    boundary = domain.boundary_idx
    adj_d = domain.adjacency
    adj_phi = dd.adjacency_phi
    bmask = domain.boundary_mask
    rep = CheckReport(name="boundary_identification", tolerance=tolerance,
                      seed=seed, notes={"cq": bundle.cq})
    attempts = 0
    while rep.samples < n_samples and attempts < 6 * n_samples:
        attempts += 1
        z = int(rng.choice(boundary))
        dist_d = _graphs.distances_from(adj_d, z, limit=0.1000001)
        cand = np.nonzero(np.isfinite(dist_d) & (dist_d > 0) & bmask)[0]
        cand = cand[dist_d[cand] <= 0.1]
        if cand.size == 0:
            rep.excluded += 1
            continue
        take = cand if cand.size <= 4 else rng.choice(cand, size=4, replace=False)
        # phi <= 1, so d_phi <= d <= 0.1: the base run's limit serves
        dist_phi = _graphs.distances_from(adj_phi, z, limit=0.1000001)
        for y in take:
            d = float(dist_d[y])
            dphi = float(dist_phi[y])
            r1 = d / dphi
            r2 = dphi / (bundle.cq * d)
            ratio = max(r1, r2)
            rep.samples += 1
            rep.score(ratio, {
                "zeta": domain.vertex_id(z), "eta": domain.vertex_id(int(y)),
                "d": d, "d_phi": dphi, "ratio": ratio,
            })
    return rep


def check_separation_from_infinity(dd, bundle, n_samples=0, seed=0,
                                   tolerance=None):
    """The point at infinity stays at positive deformed distance from every
    boundary vertex, and no boundary interval is clamped (a clamp means the
    escape model failed, so the interval certifies nothing).  On generated
    half-plane domains with a power weight the boundary value has the closed
    form beta/(beta-1); the interval midpoint must land within 2 percent
    plus the interval width.

    All boundary vertices are checked (the sample budget is ignored); the
    frontier distances come from one frontier-rooted sweep on the full
    graph, whose minima agree with the per-vertex queries.
    """
    tolerance = default_tolerance(dd, tolerance)
    domain = dd.domain
    rep = CheckReport(name="separation_from_infinity", tolerance=tolerance,
                      seed=seed)
    if domain.frontier_idx.size == 0:
        rep.notes = {"reason": "no frontier"}
        return rep
    weight = dd.weight
    dist_fr = _graphs.min_distance_field(dd.adjacency_phi, domain.frontier_idx)
    lowers, uppers, clamped = dd.infinity_interval(dist_fr[domain.boundary_idx], 0)
    for i in np.flatnonzero(clamped):
        rep.score(np.inf, {"kind": "clamped", "upper": float(uppers[i]),
                           "zeta": domain.vertex_id(domain.boundary_idx[i])})
    min_i = int(np.argmin(lowers))
    min_lower = float(lowers[min_i])
    rep.samples = len(lowers)
    if not (min_lower > 0.0) or not np.isfinite(min_lower):
        rep.score(np.inf, {
            "kind": "positivity",
            "zeta": domain.vertex_id(domain.boundary_idx[min_i]),
            "lower": min_lower,
        })
    rep.notes = {"min_lower": min_lower}
    if domain.meta.get("generator") == "half_plane" and weight.kind == "power":
        target = weight.beta / (weight.beta - 1.0)
        mid = 0.5 * (min_lower + float(uppers[min_i]))
        width = float(uppers[min_i]) - min_lower
        allowed = 0.02 * target + width
        ratio = abs(mid - target) / allowed
        rep.score(ratio, {
            "kind": "closed_form", "midpoint": mid, "target": target,
            "allowed": allowed, "ratio": ratio,
        })
        rep.notes.update(target=target, midpoint=mid, width=width)
    return rep


# -- orchestration -------------------------------------------------------------


def run_all_checks(dd, bundle, checks=None, n_samples=200, seed=0,
                   tolerance=None):
    """Run the named checkers (all seven by default) and return the reports
    in the canonical order."""
    if checks is None:
        checks = CHECK_NAMES
    unknown = set(checks) - set(CHECK_NAMES)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}")
    reports = []
    for name in CHECK_NAMES:
        if name in checks:
            # looked up at call time, so a replaced checker is the one that runs
            args = (dd,) if name == "crossing_levels" else (dd, bundle)
            reports.append(globals()[f"check_{name}"](
                *args, n_samples=n_samples, seed=seed, tolerance=tolerance))
    return reports


def subcurve_excess_report(dd, n_curves=6, seed=0, tolerance=None):
    """Prefix/suffix uniformity drift of sampled base-metric geodesics.

    Subcurves of uniform curves are uniform in the continuum; discrete
    geodesics may drift, so the worst prefix/suffix constant is reported
    relative to the whole-curve constant and flagged past tolerance.
    """
    tolerance = default_tolerance(dd, tolerance)
    rng = np.random.default_rng(seed)
    groups = shell_groups(dd)
    rows = []
    for _ in range(n_curves):
        a, b = stratified_pick(groups, rng, 2)
        if a == b:
            continue
        curve = uniform_curve_d(dd, dd.domain.vertex_id(a), dd.domain.vertex_id(b))
        for metric in ("d", "phi"):
            excess = subcurve_excess_ratio(curve, metric)
            rows.append({
                "x": dd.domain.vertex_id(a), "y": dd.domain.vertex_id(b),
                "metric": metric, "excess": excess,
                "flag": bool(excess > 1.0 + tolerance),
            })
    return rows


def aggregate_report(dd, bundle, reports, seed, tolerance=None,
                     include_timestamp=True):
    """Bundle checker reports with run provenance into one JSON-ready dict."""
    tolerance = default_tolerance(dd, tolerance)
    out = {
        "checks": [r.to_dict() for r in reports],
        "domain_meta": dict(dd.domain.meta),
        "weight_spec": dd.weight.spec_string,
        "bundle": bundle.to_dict(),
        "seed": seed,
        "tolerance": tolerance,
        "violations_total": int(sum(r.violations for r in reports)),
        "subcurve_excess": subcurve_excess_report(dd, seed=seed,
                                                  tolerance=tolerance),
    }
    if include_timestamp:
        out["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
    return out


def report_csv(reports):
    """Flat CSV view of checker reports."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["check", "samples", "excluded", "violations",
                     "worst_ratio", "tolerance", "seed"])
    for r in reports:
        writer.writerow([r.name, r.samples, r.excluded, r.violations,
                         repr(r.worst_ratio), repr(r.tolerance), r.seed])
    return buf.getvalue()

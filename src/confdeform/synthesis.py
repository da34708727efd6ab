"""Constructive production of uniform curves in the deformed metric.

Given two endpoints (or one endpoint and infinity), the shell indices of the
endpoints select one of a fixed table of constructions, each returning a
candidate curve together with the constant it is predicted to satisfy:

* both deep (shells >= m0): the deformed-metric geodesic;
* both shallow (shells <= m0): the base-metric geodesic, spliced through a
  deformed-metric geodesic wherever it strays above shell m0+n0;
* one shallow, one deep: the base-metric geodesic up to its first crossing
  of depth 2**m0, then the deformed-metric geodesic;
* to infinity: the deformed-metric shortest path to the frontier, prefixed
  for shallow starts by the base-metric escape up to a threshold shell.

The predicted constants come from the constants bundle; the measured
constant of every produced curve is computed independently so predictions
can be audited sample by sample.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _graphs
from .curves import Curve, uniformity_constant
from .deform import DeformError
from .weight import derive_constants

CASE_TAGS = (
    "small", "medium_inside", "medium_spliced", "large_k", "cross_border",
    "to_infinity_deep", "to_infinity_shallow",
)


class SynthesisError(ValueError):
    """Raised for invalid synthesis queries."""


@dataclass
class SynthesisResult:
    curve: Curve
    case: str
    predicted: float
    measured: float
    x: int
    y: int | None
    splice_ids: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def ratio(self):
        return self.measured / self.predicted

    def to_dict(self):
        return {
            "case": self.case,
            "x": self.x,
            "y": self.y if self.y is not None else "inf",
            "predicted": self.predicted,
            "measured": self.measured,
            "ratio": self.ratio,
            "spliceverts": self.splice_ids,
            "notes": self.notes,
        }


def default_tolerance(dd, tolerance=None):
    """``tolerance`` if given, else ten mesh sizes (a factor 1 + 10h)."""
    return 10.0 * dd.domain.mesh_size if tolerance is None else tolerance


def uniform_curve_d(dd, x, y):
    """Base-metric geodesic between two ids, as a dual-length curve.

    This is the discrete stand-in for a uniform curve in the base metric:
    graph geodesics are the best curves the discretisation offers, and their
    measured uniformity constant feeds back into the bundle when it exceeds
    the assumed one.
    """
    domain = dd.domain
    ix, iy = domain.index(x), domain.index(y)
    if ix == iy:
        raise SynthesisError("curve endpoints must differ")
    total_d, path = domain.view.geodesic(ix, iy)
    if path is None:
        raise SynthesisError("endpoints are not connected through the open domain")
    return Curve.from_indices(dd, path, total_d=total_d)


def _geodesic_to_frontier(dd, view, start_idx):
    """Vertex path from a vertex index to the nearest frontier vertex under
    one metric's view, and its length."""
    fr = dd.domain.frontier_idx
    dist, total = view.nearest(start_idx, fr)
    if not np.isfinite(total):
        raise SynthesisError("frontier unreachable from the start vertex")
    best = int(fr[int(np.argmin(dist[fr]))])
    return _graphs.extract_path(view.full, dist, start_idx, best), total


def _phi_geodesic_to_frontier(dd, start_idx):
    """Deformed geodesic from a vertex index to the cheapest frontier vertex."""
    path, total_phi = _geodesic_to_frontier(dd, dd.view, start_idx)
    return Curve.from_indices(dd, path, total_phi=total_phi)


def _maybe_rebundle(dd, bundle, base_curve, notes):
    """Recompute the bundle when a base geodesic beats the assumed cu.

    The predictions are functions of the true uniformity constant, so an
    observed constant above the assumed one invalidates them; the bundle is
    rebuilt with the observed value.
    """
    measured_cu = uniformity_constant(base_curve, "d")
    if measured_cu > bundle.cu:
        notes["rebundled_cu"] = measured_cu
        return derive_constants(dd.weight, measured_cu, bundle.cq)
    return bundle


def synthesize(dd, bundle, x, y=None, to_infinity=False):
    """Produce a candidate uniform curve between x and y (or infinity).

    Returns a :class:`SynthesisResult` whose ``measured`` field is the
    independently measured uniformity constant of the produced curve in the
    deformed metric.
    """
    if to_infinity or y is None:
        return _synthesize_to_infinity(dd, bundle, x)
    domain = dd.domain
    ix, iy = domain.index(x), domain.index(y)
    if ix == iy:
        raise SynthesisError("endpoints must differ")
    sx, sy = int(dd.field.shells[ix]), int(dd.field.shells[iy])
    m, k = min(sx, sy), max(sx, sy)
    notes = {"shells": [sx, sy]}

    def result(case, predicted, curve, dphi=None, splice_ids=()):
        """Orient the curve from x, measure it and wrap it; ``dphi`` is the
        endpoint distance when the caller already has it."""
        if curve.start_id != int(x):
            curve = curve.reverse()
        measured = uniformity_constant(curve, "phi", endpoint_distance=dphi)
        return SynthesisResult(curve=curve, case=case, predicted=predicted,
                               measured=measured, x=int(x), y=int(y),
                               splice_ids=list(splice_ids), notes=notes)

    if m >= bundle.m0:
        curve = dd.dphi_geodesic(x, y)
        return result("large_k", 1331.0 / 669.0, curve, curve.total_phi)

    # order endpoints shallow-first for the crossing constructions
    a, b = (x, y) if sx <= sy else (y, x)
    beta = uniform_curve_d(dd, a, b)
    bundle = _maybe_rebundle(dd, bundle, beta, notes)

    if k <= bundle.m0:
        level = 2.0 ** (bundle.m0 + bundle.n0)
        depths = dd.field.values[beta.vertices]
        outside = depths >= level
        if not outside.any():
            dphi = dd.dphi_distance(x, y)
            threshold = bundle.t_small * 2.0 ** m * dd.weight.value(2.0 ** m)
            if dphi < threshold:
                return result("small", bundle.c1, beta, dphi)
            return result("medium_inside", bundle.c2, beta, dphi)
        first = int(np.argmax(outside))
        last = len(outside) - 1 - int(np.argmax(outside[::-1]))
        z1, z2 = beta.vertices[first], beta.vertices[last]
        splice_ids = [domain.vertex_id(z1), domain.vertex_id(z2)]
        if first == last:
            curve = beta
            notes["degenerate_splice"] = True
        else:
            middle = dd.dphi_geodesic(domain.vertex_id(z1), domain.vertex_id(z2))
            curve = beta_slice(beta, 0, first).concat(middle) if first > 0 else middle
            if last < len(beta) - 1:
                curve = curve.concat(beta_slice(beta, last, len(beta) - 1))
        return result("medium_spliced", bundle.c2, curve, splice_ids=splice_ids)

    # m < m0 < k: shallow-to-deep
    dphi = dd.dphi_distance(x, y)
    if dphi < bundle.t_small * bundle.lam:
        # below the crossing construction's own applicability threshold;
        # the base geodesic is the candidate, as in the all-shallow case
        notes["subthreshold"] = True
        return result("small", bundle.c1, beta, dphi)
    level = 2.0 ** bundle.m0
    depths = dd.field.values[beta.vertices]
    crossing = depths >= level
    if not crossing.any():
        raise SynthesisError("deep endpoint below its own shell level; "
                             "inconsistent boundary distances")
    first = int(np.argmax(crossing))
    z1_id = domain.vertex_id(beta.vertices[first])
    if first == 0:
        curve = dd.dphi_geodesic(a, b)
    else:
        tail = dd.dphi_geodesic(z1_id, b)
        curve = beta_slice(beta, 0, first).concat(tail)
    return result("cross_border", bundle.c3, curve, dphi, [z1_id])


def _synthesize_to_infinity(dd, bundle, x):
    domain = dd.domain
    if domain.frontier_idx.size == 0:
        raise DeformError("domain has no frontier; nothing escapes to infinity")
    ix = domain.index(x)
    if domain.boundary_mask[ix]:
        raise SynthesisError("curves to infinity start at interior vertices")
    if domain.frontier_mask[ix]:
        raise SynthesisError(
            "start vertex sits on the truncation frontier; its escape lies "
            "entirely outside the sampled window"
        )
    m = int(dd.field.shells[ix])
    estimate = dd.dist_to_infinity(x)
    notes = {"shells": [m]}

    if m >= bundle.m0:
        path, total_phi = _geodesic_to_frontier(dd, dd.view, ix)
        curve = Curve.from_indices(dd, path, total_phi=total_phi,
                                   to_infinity=True, estimate=estimate)
        measured = uniformity_constant(curve, "phi")
        return SynthesisResult(curve=curve, case="to_infinity_deep",
                               predicted=1331.0 / 669.0, measured=measured,
                               x=int(x), y=None, notes=notes)

    # shallow start: base-metric escape to the frontier
    path, total_d = _geodesic_to_frontier(dd, domain.view, ix)
    beta = Curve.from_indices(dd, path, total_d=total_d)
    bundle = _maybe_rebundle(dd, bundle, beta, notes)

    # smallest shell at or past m0+n0 whose every vertex is at deformed
    # distance at least the crossing threshold from x; fall back to m0+n0
    threshold = bundle.t_small * bundle.lam
    dist_phi = dd.view.run(ix)
    shells = dd.field.shells
    k_star = bundle.m0 + bundle.n0
    for cand in range(bundle.m0 + bundle.n0, int(shells.max()) + 1):
        members = np.nonzero(shells == cand)[0]
        members = members[np.isfinite(dist_phi[members])]
        if members.size and dist_phi[members].min() >= threshold:
            k_star = cand
            break
    notes["k_star"] = k_star

    past = shells[beta.vertices] >= k_star
    cut = int(np.argmax(past)) if past.any() else len(beta) - 1
    if cut == len(beta) - 1:
        # the base escape reaches the frontier without ever clearing the
        # threshold shell (or only at its endpoint); it is the whole curve
        combined = beta
    elif cut == 0:
        combined = _phi_geodesic_to_frontier(dd, ix)
    else:
        tail = _phi_geodesic_to_frontier(dd, int(beta.vertices[cut]))
        combined = beta_slice(beta, 0, cut).concat(tail)
    curve = Curve(dd, combined.vertices, combined.incr_d, combined.incr_phi,
                  combined.total_d, combined.total_phi, to_infinity=True,
                  estimate=estimate)
    measured = uniformity_constant(curve, "phi")
    return SynthesisResult(curve=curve, case="to_infinity_shallow",
                           predicted=bundle.c4, measured=measured,
                           x=int(x), y=None,
                           splice_ids=[domain.vertex_id(beta.vertices[cut])],
                           notes=notes)


def beta_slice(curve, i, j):
    """Subcurve between vertex positions i <= j (inclusive)."""
    if not (0 <= i < j < len(curve)):
        raise SynthesisError("bad subcurve positions")
    return Curve(
        curve.dd, curve.vertices[i:j + 1],
        curve.incr_d[i:j], curve.incr_phi[i:j],
        float(np.sum(curve.incr_d[i:j])), float(np.sum(curve.incr_phi[i:j])),
    )


def shell_groups(dd, min_shell=0, deep_side=False, skip_frontier=False):
    """Interior vertex indices grouped by shell, as (shell, members) pairs,
    optionally without the frontier or only the deeper quarter of each shell
    (distance at least three quarters of the shell top)."""
    shells = dd.field.shells
    keep = ~dd.domain.boundary_mask
    if skip_frontier:
        keep &= ~dd.domain.frontier_mask
    interior = np.nonzero(keep)[0]
    groups = []
    for s in range(min_shell, int(shells.max()) + 1):
        members = interior[shells[interior] == s]
        if deep_side and s >= 1:
            members = members[dd.field.values[members] >= 0.75 * 2.0 ** s]
        if members.size:
            groups.append((s, members))
    return groups


def stratified_pick(groups, rng, count, start=0):
    """One random member of each group in turn, from group ``start`` on,
    until ``count`` vertex indices are drawn."""
    if not groups:
        raise SynthesisError("no interior vertices in the requested shells")
    picks = []
    gi = start
    while len(picks) < count:
        _, members = groups[gi % len(groups)]
        picks.append(int(rng.choice(members)))
        gi += 1
    return picks


def predicted_vs_measured(dd, bundle, n_pairs=200, n_to_infinity=0, seed=0,
                          tolerance=None):
    """Run synthesize over a stratified sample and audit the predictions.

    Returns a report dict with one row per sample and a summary block:
    per-case counts and worst measured constants, every sample where the
    measured constant exceeds the predicted one beyond tolerance, and how
    often the shallow-to-deep construction fell below its threshold.
    """
    if n_pairs < 0 or n_to_infinity < 0:
        raise SynthesisError("sample counts must be nonnegative")
    if n_pairs < 1 and n_to_infinity < 1:
        raise SynthesisError("sample budget must be at least 1")
    tolerance = default_tolerance(dd, tolerance)
    rng = np.random.default_rng(seed)
    domain = dd.domain
    rows = []
    xs = stratified_pick(shell_groups(dd), rng, n_pairs)
    ys = stratified_pick(shell_groups(dd), rng, n_pairs)
    interior = np.nonzero(~domain.boundary_mask)[0]
    for ix, iy in zip(xs, ys):
        while iy == ix:
            iy = int(rng.choice(interior))
        res = synthesize(dd, bundle, domain.vertex_id(ix), domain.vertex_id(iy))
        rows.append(res.to_dict())
    if n_to_infinity and domain.frontier_idx.size:
        starts = shell_groups(dd, skip_frontier=True)
        for ix in stratified_pick(starts, rng, n_to_infinity):
            res = synthesize(dd, bundle, domain.vertex_id(ix), to_infinity=True)
            rows.append(res.to_dict())

    by_case = {tag: [r for r in rows if r["case"] == tag] for tag in CASE_TAGS}
    flags = [r for r in rows if r["measured"] > r["predicted"] * (1.0 + tolerance)]
    summary = {
        "samples": len(rows),
        "tolerance": tolerance,
        "cases": {
            tag: {
                "count": len(group),
                "max_measured": max((r["measured"] for r in group), default=None),
                "max_ratio": max((r["ratio"] for r in group), default=None),
            }
            for tag, group in by_case.items()
        },
        "absent_cases": [tag for tag, group in by_case.items() if not group],
        "flags": flags,
        "subthreshold_count": sum(
            1 for r in rows if r["notes"].get("subthreshold")
        ),
        "rebundled_count": sum(
            1 for r in rows if "rebundled_cu" in r["notes"]
        ),
    }
    return {"rows": rows, "summary": summary}

"""Curves through a deformed domain and their uniformity measurements.

A curve is an ordered vertex walk along graph edges carrying per-step
lengths in both metrics (base and deformed).  Totals are stored explicitly:
geodesics record the bitwise Dijkstra distance as their length, so the
invariant "geodesic length equals the distance" holds exactly, and a
reversed curve shares the totals of its original.

Uniformity of a curve combines two ratios: the detour ratio (curve length
over endpoint distance) and the clearance ratio (at every interior vertex,
the shorter arm of the curve over the distance to the boundary).  The least
constant making the curve uniform is the larger of the two.
"""

from __future__ import annotations

import numpy as np

from . import _graphs


class CurveError(ValueError):
    """Raised for invalid curve constructions or measurements."""


class Curve:
    """Immutable vertex walk with dual-metric lengths."""

    def __init__(self, dd, vertices, incr_d, incr_phi, total_d, total_phi,
                 to_infinity=False, estimate=None):
        self.dd = dd
        self.vertices = np.asarray(vertices, dtype=np.int64)
        self.incr_d = np.asarray(incr_d, dtype=np.float64)
        self.incr_phi = np.asarray(incr_phi, dtype=np.float64)
        self.total_d = float(total_d)
        self.total_phi = float(total_phi)
        self.to_infinity = bool(to_infinity)
        self.estimate = estimate
        n = len(self.vertices)
        if n < 2:
            raise CurveError("a curve needs at least two vertices")
        if len(self.incr_d) != n - 1 or len(self.incr_phi) != n - 1:
            raise CurveError("increment arrays must have one entry per step")
        if (self.incr_d <= 0).any() or (self.incr_phi <= 0).any():
            raise CurveError("curve increments must be positive")
        if self.to_infinity and self.estimate is None:
            raise CurveError("a curve to infinity carries its terminal estimate")

    @classmethod
    def from_indices(cls, dd, indices, total_d=None, total_phi=None,
                     to_infinity=False, estimate=None):
        """Build a curve from consecutive-adjacent vertex indices.

        Explicit totals override the forward float sums; geodesic builders
        pass the Dijkstra distance so lengths telescope exactly.
        """
        indices = np.asarray(indices, dtype=np.int64)
        # both matrices come from one edge list, so one lookup serves both
        steps = _graphs.edge_positions(dd.domain.adjacency, indices)
        incr_d = dd.domain.adjacency.data[steps]
        incr_phi = dd.adjacency_phi.data[steps]
        return cls(
            dd, indices, incr_d, incr_phi,
            float(np.sum(incr_d)) if total_d is None else total_d,
            float(np.sum(incr_phi)) if total_phi is None else total_phi,
            to_infinity=to_infinity, estimate=estimate,
        )

    # -- basics -----------------------------------------------------------

    def __len__(self):
        return len(self.vertices)

    @property
    def vertex_ids(self):
        return self.dd.domain.ids[self.vertices].tolist()

    @property
    def start_id(self):
        return self.dd.domain.vertex_id(self.vertices[0])

    @property
    def end_id(self):
        return self.dd.domain.vertex_id(self.vertices[-1])

    def lengths(self):
        """(base length, deformed length)."""
        return self.total_d, self.total_phi

    def reverse(self):
        """The same walk traversed backwards.  Totals are shared, so every
        measurement that depends only on lengths is exactly invariant."""
        if self.to_infinity:
            raise CurveError("a curve to infinity has no reversal")
        return Curve(
            self.dd, self.vertices[::-1].copy(),
            self.incr_d[::-1].copy(), self.incr_phi[::-1].copy(),
            self.total_d, self.total_phi,
        )

    def concat(self, other):
        """Join two curves at a shared vertex; totals add."""
        if self.to_infinity:
            raise CurveError("cannot extend past infinity")
        if self.vertices[-1] != other.vertices[0]:
            raise CurveError("curves do not share a junction vertex")
        return Curve(
            self.dd,
            np.concatenate([self.vertices, other.vertices[1:]]),
            np.concatenate([self.incr_d, other.incr_d]),
            np.concatenate([self.incr_phi, other.incr_phi]),
            self.total_d + other.total_d,
            self.total_phi + other.total_phi,
            to_infinity=other.to_infinity, estimate=other.estimate,
        )

    def to_dict(self):
        return {
            "vertices": self.vertex_ids,
            "len_d": self.total_d,
            "len_phi": self.total_phi,
            "to_infinity": self.to_infinity,
        }


# -- uniformity measurement ------------------------------------------------


def _metric(curve, metric):
    """(increments, total, view, boundary distances) of the curve in one
    metric.  The boundary distances are None for a curve with no interior
    vertex, so measuring it makes no multi-source run."""
    dd = curve.dd
    if metric == "phi":
        out = curve.incr_phi, curve.total_phi, dd.view
    elif metric == "d":
        out = curve.incr_d, curve.total_d, dd.domain.view
    else:
        raise CurveError(f"unknown metric {metric!r}")
    if len(curve) < 3:
        return (*out, None)
    return (*out, dd.boundary_field_phi if metric == "phi" else dd.field.values)


def clearance_ratio(incr, clearance):
    """Worst shorter arm over clearance at the interior vertices of a walk
    with steps ``incr``.  The arms are left folds from each end, so the
    value is reversal-symmetric."""
    left = np.cumsum(incr)[:-1]
    right = np.cumsum(incr[::-1])[:-1][::-1]
    return float((np.minimum(left, right) / clearance).max())


def uniformity_constant(curve, metric="phi", endpoint_distance=None):
    """Least C for which the curve is C-uniform in the chosen metric: the
    larger of the detour ratio and the worst clearance ratio.

    ``endpoint_distance`` defaults to the distance between the curve's ends
    in that metric; an override lets callers reuse one already computed.
    """
    incr, total, view, bvals = _metric(curve, metric)
    if endpoint_distance is None and curve.to_infinity:
        if metric != "phi":
            raise CurveError("distance to infinity is only defined when deformed")
        # conservative choice: the low end of the interval inflates the ratio
        endpoint_distance = curve.estimate.lower
    elif endpoint_distance is None:
        endpoint_distance = view.distance(int(curve.vertices[0]),
                                          int(curve.vertices[-1]))
        if not np.isfinite(endpoint_distance):
            raise CurveError("curve endpoints are not connected through the "
                             "open domain")
    if endpoint_distance <= 0:
        raise CurveError("endpoint distance must be positive")
    constant = total / endpoint_distance
    if bvals is None:
        return constant
    clearance = bvals[curve.vertices[1:-1]]
    if (clearance <= 0).any():
        raise CurveError("curve passes through a boundary vertex")
    return max(constant, clearance_ratio(incr, clearance))


def subcurve_excess_ratio(curve, metric="phi"):
    """Worst prefix/suffix uniformity constant over the whole-curve constant.

    Discrete geodesics need not pass their uniformity down to subcurves with
    the same constant; this measures how far prefixes and suffixes stray.
    Endpoint distances for the subcurves come from two rooted runs, one per
    curve end, bounded by the curve's length, which no subcurve's endpoint
    distance exceeds.  The run from the smaller index, made last, is exact
    that far, so it also answers the whole-curve distance.
    """
    if curve.to_infinity:
        raise CurveError("subcurve scan expects a two-endpoint curve")
    if len(curve) < 3:
        return 1.0
    incr, total, view, bvals = _metric(curve, metric)
    n = len(curve)
    left = np.concatenate([[0.0], np.cumsum(incr)])
    # the prefix sums may end a few ulps above the total, and a distance
    # summed in another order a few ulps above the length
    bound = max(total, left[-1]) * (1.0 + 1e-9)
    a, b = int(curve.vertices[0]), int(curve.vertices[-1])
    dist = {v: view.run(v, bound) for v in sorted({a, b}, reverse=True)}
    whole = uniformity_constant(curve, metric,
                                endpoint_distance=view.distance(a, b))
    clearance = bvals[curve.vertices]
    worst = whole
    # windows [lo..hi]: the prefixes [0..i], then the suffixes [i..n-1]
    windows = [(0, i, dist[a][curve.vertices[i]]) for i in range(2, n)]
    windows += [(i, n - 1, dist[b][curve.vertices[i]]) for i in range(n - 2)]
    for lo, hi, dpair in windows:
        if dpair > 0 and np.isfinite(dpair):
            quasi = (left[hi] - left[lo]) / dpair
            inner = left[lo + 1:hi]
            arms = np.minimum(inner - left[lo], left[hi] - inner)
            cigar = float((arms / clearance[lo + 1:hi]).max())
            worst = max(worst, quasi, cigar)
    return worst / whole

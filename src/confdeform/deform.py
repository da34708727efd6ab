"""The deformed metric: edge lengths re-weighted by the dampening weight.

Deforming multiplies arc length by ``phi(distance to boundary)``, so deep
paths become cheap and near-boundary paths keep their length.  On a graph the
deformed length of an edge is the line integral of the weight along it, with
the boundary distance interpolated linearly between the endpoint values (it
is 1-Lipschitz along edges, so the interpolant is within one mesh size).

When the weight is summable along dyadic scales the deformed domain acquires
one extra point at infinite depth, at finite deformed distance.  Distances to
it are reported as certified intervals: the computed deformed distance to the
truncation frontier plus an analytic bracket for the escape cost beyond it.
The bracket assumes the continuation beyond the frontier admits escape rays
along which the boundary distance grows at unit speed, which holds for the
built-in generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import BoundaryDistanceField, DomainError, boundary_distance


class DeformError(ValueError):
    """Raised for invalid deformation queries."""


def _deformed_edge_lengths(domain, depth, weight, pieces):
    """Composite trapezoid integral of the weight along each edge.

    The boundary distance ``depth`` is interpolated linearly along an edge
    and clamped below at half the mesh size; since the weight is 1 up to
    distance 1 and the mesh size is at most 2, clamping never changes the
    integrand, it only guards against boundary vertices where the distance
    is exactly zero.  Edges go in blocks of about 2**18 nodes.
    """
    nodes, step = np.linspace(0.0, 1.0, pieces + 1), max(1, (1 << 18) // (pieces + 1))
    out = np.empty(domain.n_edges)
    for b in (slice(lo, lo + step) for lo in range(0, domain.n_edges, step)):
        d_u, d_v = depth[domain.edge_u[b], None], depth[domain.edge_v[b], None]
        vals = weight.value(np.maximum(d_u * (1 - nodes) + d_v * nodes, domain.mesh_size / 2))
        trapz = (vals[:, 0] + vals[:, -1]) / 2.0 + vals[:, 1:-1].sum(axis=1)
        out[b] = domain.edge_len[b] * (trapz / pieces)
    return out


def parse_quadrature(text):
    """Quadrature spec: ``trapezoid`` or ``subdivided:k``."""
    text = text.strip().lower()
    if text == "trapezoid":
        return 1
    name, _, arg = text.partition(":")
    if name == "subdivided":
        try:
            k = int(arg)
        except ValueError:
            raise DeformError(f"bad subdivision count {arg!r}") from None
        if k < 1:
            raise DeformError("subdivision count must be at least 1")
        return k
    raise DeformError(f"unknown quadrature {text!r}")


class DeformedDomain:
    """A domain together with its deformed edge lengths and cached fields,
    each computed on first use.

    Immutable once built; all queries are pure.
    """

    def __init__(self, domain, weight, field=None, quadrature=4):
        if field is None:
            field = boundary_distance(domain)
        if not isinstance(field, BoundaryDistanceField):
            raise DeformError("field must be a BoundaryDistanceField")
        h = domain.mesh_size
        if h > 2.0:
            raise DomainError(
                f"mesh size {h} exceeds 2; the weight would see clamped "
                "distances above 1 and the near-boundary calibration breaks"
            )
        self.domain = domain
        self.weight = weight
        self.field = field
        self.quadrature = int(quadrature)
        self._shell_counts = {}  # interior component label -> members per shell

    # -- edge lengths and adjacency views -------------------------------------

    @property
    def edge_len_phi(self):
        """The deformed length of each edge, scattered back from the view's
        matrix into a new array per read: the view keeps the only copy."""
        ids, out = self.domain.edge_ids, np.empty(self.domain.n_edges)
        out[ids.data - 1] = self.view.full.data
        return out

    @cached_property
    def view(self):
        """Deformed-metric view: pair queries, rooted runs and geodesics,
        steered by six landmarks, as the deformation packs the deep part of
        the domain into a short region and leaves the chord bound slack.  Its
        matrix gathers the quadrature's per-edge lengths, which it keeps no
        further."""
        return self.domain.metric_view(
            _deformed_edge_lengths(self.domain, self.field.values, self.weight,
                                   self.quadrature), landmarks=6)

    adjacency_phi = property(lambda self: self.view.full)
    adjacency_phi_interior = property(lambda self: self.view.interior)

    # -- distance and geodesic queries ----------------------------------------

    def dphi_distance(self, x, y):
        """Deformed distance between two vertex ids."""
        val = self.view.distance(self.domain.index(x), self.domain.index(y))
        if not math.isfinite(val):
            raise DeformError(f"vertices {x} and {y} are not connected "
                              "through the open domain")
        return val

    def dphi_geodesic(self, x, y):
        """Shortest curve in the deformed metric, as a :class:`Curve`.

        The curve is oriented from x to y; its deformed length equals
        ``dphi_distance(x, y)`` bitwise.
        """
        from .curves import Curve

        ix, iy = self.domain.index(x), self.domain.index(y)
        if ix == iy:
            raise DeformError("geodesic endpoints must differ")
        total_phi, path, entries = self.view.geodesic(ix, iy)
        if path is None:
            raise DeformError(f"vertices {x} and {y} are not connected "
                              "through the open domain")
        return Curve._from_walk(self, path, entries, deformed=True, total=total_phi)

    # -- cached distance fields ------------------------------------------------

    # deformed distance to the boundary, on the full graph
    boundary_field_phi = property(lambda self: self.view.boundary_field)

    @property
    def frontier_field_phi(self):
        """Deformed distance to the nearest frontier vertex (interior view)."""
        if self.domain.frontier_idx.size == 0:
            raise DeformError("domain has no frontier")
        return self.view.frontier_field

    def component_shell_counts(self, ix):
        """Members per shell (0 up to the deepest) of the interior component
        of vertex index ``ix`` (``MetricDomain.interior_components``),
        counted on the first ask for that component."""
        labels = self.domain.interior_components
        label = int(labels[ix])
        if label not in self._shell_counts:
            shells = self.field.shells
            self._shell_counts[label] = np.bincount(shells[labels == label],
                                                    minlength=int(shells.max()) + 1)
        return self._shell_counts[label]

    # -- the point at infinity ---------------------------------------------------

    @property
    def frontier_shell(self):
        """Smallest shell index on the frontier ring."""
        if self.domain.frontier_idx.size == 0:
            raise DeformError("domain has no frontier")
        return int(self.field.shells[self.domain.frontier_idx].min())

    def infinity_interval(self, big_d, shell):
        """(lower, upper, clamped) around the deformed distance to infinity
        from starts in ``shell`` at deformed distance ``big_d`` (a float or
        an array) from the frontier ring.  The escape cost beyond the
        frontier is at least the weight's integral from the frontier depth
        outward (an escape crosses every depth level left) and at most its
        dyadic majorant from one shell early (an escape ray from the nearest
        frontier vertex).  The lower end is kept above the shell's coarea
        bound; where that lifts it past the upper end, which happens only
        when the escape model fails, it is cut back and ``clamped`` is set."""
        upper = big_d + self.weight.tail_sum(max(self.frontier_shell - 1, 0))
        depth = float(self.field.values[self.domain.frontier_idx].min())
        lower = np.maximum(big_d + self.weight.integral_tail(depth),
                           (5.0 / 11.0) * self.weight.tail_sum(shell + 1))
        return np.minimum(lower, upper), upper, lower > upper

    def dist_to_infinity(self, x):
        """Certified interval around the deformed distance to infinity: D, the
        computed deformed distance to the frontier ring, plus the escape
        bracket of :meth:`infinity_interval`."""
        ix, view = self.domain.index(x), self.view
        if self.domain.frontier_idx.size == 0:
            raise DeformError("domain has no frontier; nothing escapes to infinity")
        if view.boundary_mask[ix]:  # steered by an exact potential
            big_d = view.nearest(ix, view.frontier_idx, 0.0, ("frontier_field", -1))[1]
        else:
            big_d = float(self.frontier_field_phi[ix])
        if not math.isfinite(big_d):
            raise DeformError("frontier unreachable from this vertex")
        m = int(self.field.shells[ix])
        lower, upper, clamped = self.infinity_interval(big_d, m)
        return InfinityEstimate(
            vertex=int(x), lower=float(lower), upper=float(upper),
            frontier_dphi=big_d, shell=m, frontier_shell=self.frontier_shell,
            clamped=bool(clamped),
        )


@dataclass(frozen=True)
class InfinityEstimate:
    """Interval bracket for the deformed distance from a vertex to infinity."""

    vertex: int
    lower: float
    upper: float
    frontier_dphi: float
    shell: int
    frontier_shell: int
    clamped: bool = False  # lower was raised past upper and cut back to it

    @property
    def midpoint(self):
        return 0.5 * (self.lower + self.upper)

    @property
    def width(self):
        return self.upper - self.lower

    def to_dict(self):
        return {
            "x": self.vertex,
            "lower": self.lower,
            "upper": self.upper,
            "frontier_shell": self.frontier_shell,
            "clamped": self.clamped,
        }


def deform(domain, weight, field=None, quadrature=4):
    """Build the deformed domain.  ``quadrature`` is the subdivision count
    per edge (1 = plain trapezoid)."""
    return DeformedDomain(domain, weight, field=field, quadrature=quadrature)

"""Boundary-marked metric graphs.

A domain here is a finite connected graph with positive edge lengths and two
disjoint sets of marked vertices:

* ``boundary``: samples of the metric boundary.  Their distance to the
  boundary is zero and interior curves are not allowed to travel through
  them (a path touching the boundary leaves the open domain).
* ``frontier``: the artificial truncation ring of an unbounded domain, the
  vertices where escaping rays leave the sampled window.  Frontier vertices
  are ordinary interior vertices for every purpose except the point-at-
  infinity constructions, which treat them as the gateway outward.

Distances between vertices are shortest-path distances in the graph.  The
distance-to-boundary field and its dyadic shell decomposition (shell 0 is
``d <= 1``, shell n is ``2**(n-1) < d <= 2**n``) drive everything else in the
package.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from operator import itemgetter

import numpy as np
from scipy.sparse.csgraph import connected_components

from . import _graphs
from .curves import clearance_ratio


class DomainError(ValueError):
    """Raised for malformed or inconsistent domain data."""


@dataclass(eq=False)
class MetricDomain:
    """Finite graph with marked boundary and optional frontier ring.

    Vertex ids are arbitrary ints; internally everything is indexed by the
    position of the id in ``ids``.  Methods accept and return ids unless the
    name says otherwise.
    """

    ids: np.ndarray
    coords: np.ndarray | None
    edge_u: np.ndarray
    edge_v: np.ndarray
    edge_len: np.ndarray
    boundary_idx: np.ndarray
    frontier_idx: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.coords is not None:
            self.coords = np.asarray(self.coords, dtype=np.float64)
        self.edge_u = np.asarray(self.edge_u, dtype=np.int64)
        self.edge_v = np.asarray(self.edge_v, dtype=np.int64)
        self.edge_len = np.asarray(self.edge_len, dtype=np.float64)
        self.boundary_idx = np.asarray(self.boundary_idx, dtype=np.int64)
        self.frontier_idx = np.asarray(self.frontier_idx, dtype=np.int64)
        self.validate()

    # -- basic queries ----------------------------------------------------

    @property
    def n_vertices(self):
        return len(self.ids)

    @property
    def n_edges(self):
        return len(self.edge_len)

    @property
    def boundary_mask(self):
        """Read-only boolean mask of the boundary vertices."""
        return self.view.boundary_mask

    @cached_property
    def frontier_mask(self):
        """Read-only boolean mask of the frontier vertices."""
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[self.frontier_idx] = True
        mask.flags.writeable = False
        return mask

    @cached_property
    def mesh_size(self):
        """Edge-length scale h used for clamping and tolerances.

        Generated domains record it in ``meta``; for loaded domains it falls
        back to the shortest edge.  Either way it must be a finite number of
        at least 1e-6 times the median edge, or tolerances of 10h would
        score float noise.
        """
        h = self.meta.get("h")
        if h is None:
            h = float(self.edge_len.min())
        if (not isinstance(h, numbers.Real) or isinstance(h, bool)
                or not math.isfinite(h)
                or h < 1e-6 * float(np.median(self.edge_len))):
            raise DomainError(f"mesh size {h!r} is not a finite number of at "
                              "least 1e-6 times the median edge length")
        return float(h)

    @cached_property
    def _by_id(self):
        return _id_lookup(self.ids)

    def index(self, vertex_id):
        """Row index of a vertex id."""
        vid = _integers([int(vertex_id)], "a vertex id")
        return int(self._by_id(vid, "unknown vertex id")[0])

    def vertex_id(self, idx):
        return int(self.ids[int(idx)])

    def nearest_vertex(self, x, y):
        """Id of the vertex whose coordinates are closest to (x, y)."""
        if self.coords is None:
            raise DomainError("domain has no vertex coordinates")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"vertex coordinates must be finite, got {x},{y}")
        d2 = (self.coords[:, 0] - x) ** 2 + (self.coords[:, 1] - y) ** 2
        ties = np.nonzero(d2 == d2.min())[0]
        return int(self.ids[ties].min())

    # -- adjacency views ---------------------------------------------------

    @cached_property
    def view(self):
        """Base-metric view: pair queries, rooted runs and geodesics."""
        return _graphs.MetricView(
            self.n_vertices, self.edge_u, self.edge_v, self.edge_len,
            self.boundary_idx,
        )

    @property
    def adjacency(self):
        """Full CSR adjacency, boundary vertices included."""
        return self.view.full

    @property
    def adjacency_interior(self):
        """Source-directed interior adjacency: no edge enters a boundary
        vertex.  Interior paths must stay in the open domain, so queries run
        on this view.  Frontier vertices are ordinary interior vertices."""
        return self.view.interior

    def distance(self, x, y):
        """Graph distance between two ids through the open domain.

        Rooted at the smaller index so the result is exactly symmetric in
        the arguments.  Boundary endpoints may start or end the path.
        """
        val = self.view.distance(self.index(x), self.index(y))
        if not np.isfinite(val):
            raise DomainError(
                f"vertices {x} and {y} are not connected through the open domain"
            )
        return val

    # -- validation and I/O -------------------------------------------------

    def validate(self):
        n = self.n_vertices
        if n == 0:
            raise DomainError("domain has no vertices")
        if len(np.unique(self.ids)) != n:
            raise DomainError("vertex ids are not unique")
        if self.coords is not None and self.coords.shape != (n, 2):
            raise DomainError("coords must be an (n, 2) array")
        if not (len(self.edge_u) == len(self.edge_v) == len(self.edge_len)):
            raise DomainError("edge arrays have mismatched lengths")
        for arr, what in ((self.edge_u, "edge"), (self.edge_v, "edge"),
                          (self.boundary_idx, "boundary"),
                          (self.frontier_idx, "frontier")):
            if arr.size and (arr.min() < 0 or arr.max() >= n):
                raise DomainError(f"{what} refers to a vertex index out of range")
        if (self.edge_len <= 0).any() or not np.isfinite(self.edge_len).all():
            raise DomainError("edge lengths must be positive and finite")
        if (self.edge_u == self.edge_v).any():
            raise DomainError("self-loop edges are not allowed")
        if self.boundary_idx.size == 0:
            raise DomainError("domain needs at least one boundary vertex")
        if np.intersect1d(self.boundary_idx, self.frontier_idx).size:
            raise DomainError("boundary and frontier vertices overlap")
        # csr_matrix sums repeats: a listed-twice edge would count double
        if self.adjacency.nnz != 2 * self.n_edges:
            raise DomainError("an undirected edge is listed more than once")
        if connected_components(self.adjacency, directed=False)[0] != 1:
            raise DomainError("graph is not connected")

    def to_dict(self):
        ids = self.ids.tolist()
        if self.coords is None:
            verts = [{"id": i} for i in ids]
        else:
            verts = [{"id": i, "xy": xy} for i, xy in zip(ids, self.coords.tolist())]
        edges = zip(self.ids[self.edge_u].tolist(), self.ids[self.edge_v].tolist(),
                    self.edge_len.tolist())
        return {
            "vertices": verts,
            "edges": list(map(list, edges)),
            "boundary": self.ids[self.boundary_idx].tolist(),
            "frontier": self.ids[self.frontier_idx].tolist(),
            "meta": self.meta,
        }

    def save(self, path):
        """Write the bytes of ``json.dump(self.to_dict(), fh, sort_keys=True,
        indent=1)`` and a newline, list by list in blocks of records."""
        ids = self.ids
        meta = json.dumps(self.meta, sort_keys=True, indent=1).replace("\n", "\n ")
        with open(path, "w") as fh:
            fh.write('{\n "boundary": ')
            _write_records(fh, [ids[self.boundary_idx]], _SCALAR)
            fh.write(',\n "edges": ')
            _write_records(fh, [ids[self.edge_u], ids[self.edge_v], self.edge_len], _EDGE)
            fh.write(',\n "frontier": ')
            _write_records(fh, [ids[self.frontier_idx]], _SCALAR)
            fh.write(f',\n "meta": {meta},\n "vertices": ')
            if self.coords is None:
                _write_records(fh, [ids], _ID)
            else:
                _write_records(fh, [ids, self.coords], _VERTEX)
            fh.write("\n}\n")


# Record layouts for MetricDomain.save: (brackets cut from the front and the
# back of a block's compact JSON, text before the block, text after it,
# replacements made in order).  They turn the compact JSON of a block of
# records into the text json.dump(indent=1) gives those records two levels
# deep.  Numbers hold no "," "[" or "]", so only structure gets replaced.
_SCALAR = (1, 1, "  ", "", ((",", ",\n  "),))
_ID = (1, 1, '  {\n   "id": ', "\n  }", ((",", '\n  },\n  {\n   "id": '),))
_EDGE = (2, 2, "  [\n   ", "\n  ]",
         ((",", ",\n   "), ("],\n   [", "\n  ],\n  [\n   ")))
_VERTEX = (2, 3, '  {\n   "id": ', "\n   ]\n  }",
           ((",", ",\n    "), ("]],\n    [", '\n   ]\n  },\n  {\n   "id": '),
            (",\n    [", ',\n   "xy": [\n    ')))
_BLOCK = 1 << 16


def _write_records(fh, columns, layout):
    """Write the rows zipped from ``columns`` as a list one level below the
    top object.  Each block goes through the C encoder, which takes no
    ``indent``, so no text or tree of the whole list is ever held."""
    front, back, head, tail, swaps = layout
    n = len(columns[0])
    fh.write("[\n" if n else "[]")
    for start in range(0, n, _BLOCK):
        cols = [c[start:start + _BLOCK].tolist() for c in columns]
        text = json.dumps(cols[0] if len(cols) == 1 else list(zip(*cols)),
                          separators=(",", ":"))[front:-back]
        for old, new in swaps:
            text = text.replace(old, new)
        fh.write((",\n" if start else "") + head + text + tail)
    fh.write("\n ]" if n else "")


def _integers(values, what):
    """int64 array of JSON integers; anything else is named in the error."""
    values = list(values)
    if not set(map(type, values)) <= {int}:
        bad = next(v for v in values if type(v) is not int)
        raise DomainError(f"{what} must be an integer, got {bad!r}")
    try:
        return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        raise DomainError(f"{what} does not fit in 64 bits") from None


def _reals(values, what):
    """float64 array of JSON numbers; anything else, a bool too, is named in
    the error (numpy would read ``"0.5"`` as 0.5, ``true`` as 1.0 and
    ``null`` as nan)."""
    values = list(values)
    if not set(map(type, values)) <= {int, float}:
        bad = next(v for v in values if type(v) not in (int, float))
        raise DomainError(f"{what} must be a number, got {bad!r}")
    try:
        return np.fromiter(values, dtype=np.float64, count=len(values))
    except OverflowError:
        raise DomainError(f"{what} does not fit in a double") from None


def _id_lookup(ids):
    """Map int64 id arrays to indices: one sort, then a binary search per id
    (repeated ids fail validation).  The first unknown id is named."""
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]

    def lookup(vids, unknown_msg):
        pos = np.minimum(np.searchsorted(sorted_ids, vids), len(ids) - 1)
        unknown = sorted_ids[pos] != vids
        if unknown.any():
            raise DomainError(f"{unknown_msg} {vids[unknown.argmax()]}")
        return order[pos]
    return lookup


def from_dict(data):
    """Build a :class:`MetricDomain` from the JSON object layout."""
    try:
        raw_vertices = data["vertices"]
        raw_edges = data["edges"]
        raw_boundary = data["boundary"]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"missing required domain field: {exc}") from exc
    raw_frontier = data.get("frontier", [])
    if any(type(f) is not list for f in (raw_vertices, raw_edges, raw_boundary,
                                          raw_frontier)):
        raise DomainError("vertices, edges, boundary and frontier must be lists")
    try:
        ids = _integers(map(itemgetter("id"), raw_vertices), "a vertex id")
        raw_xy = [v["xy"] for v in raw_vertices if "xy" in v]
    except (KeyError, TypeError):
        raise DomainError('every vertex must be an object with an "id"') from None
    if not set(map(type, raw_xy)) <= {list} or not set(map(len, raw_xy)) <= {2}:
        raise DomainError("vertex coordinates must be pairs of numbers")
    coords = _reals(chain.from_iterable(raw_xy), "a vertex coordinate").reshape(-1, 2)
    if not set(map(type, raw_edges)) <= {list} or not set(map(len, raw_edges)) <= {3}:
        bad = next(e for e in raw_edges if type(e) is not list or len(e) != 3)
        raise DomainError(f"edge {bad!r} is not a list [u, v, length]")
    edge_len = _reals(map(itemgetter(2), raw_edges), "an edge length")
    return _from_columns(
        ids, coords,
        _integers(map(itemgetter(0), raw_edges), "an edge endpoint"),
        _integers(map(itemgetter(1), raw_edges), "an edge endpoint"),
        edge_len,
        _integers(raw_boundary, "a boundary vertex id"),
        _integers(raw_frontier, "a frontier vertex id"),
        data.get("meta", {}),
    )


def _from_columns(ids, coords, edge_u, edge_v, edge_len, boundary, frontier,
                  meta):
    """The checks both readers share, then the domain.  Ids, edge ends and
    markers are int64 arrays of vertex ids; ``coords`` holds the pairs of
    the vertices that carry one."""
    if len(ids) == 0:
        raise DomainError("domain has no vertices")
    if type(meta) is not dict:
        raise DomainError(f"meta must be an object, not {type(meta).__name__}")
    if len(coords) not in (0, len(ids)):
        raise DomainError("either all vertices carry coordinates or none do")
    by_id = _id_lookup(ids)

    def lookup(values):
        return by_id(values, "edge or marker refers to unknown vertex id")

    return MetricDomain(
        ids=ids, coords=coords if len(coords) else None, edge_len=edge_len,
        edge_u=lookup(edge_u), edge_v=lookup(edge_v),
        boundary_idx=lookup(boundary), frontier_idx=lookup(frontier),
        meta=meta,
    )


def _scan(path):
    """The columns of :func:`_from_columns` as the C scanner reads them from
    the file's bytes, or None where it declines them (or did not load)."""
    kernel = _graphs._kernel
    if kernel is None:
        return None
    with open(path, "rb") as fh:
        raw = fh.read()
    counts = np.zeros(7, np.int64)
    for _ in range(2):  # count, then fill arrays of exactly those sizes
        n_ids, n_xy, n_edges, n_boundary, n_frontier = counts[:5]
        cols = (np.empty(n_ids, np.int64), np.empty((n_xy, 2)),
                np.empty((n_edges, 2), np.int64), np.empty(n_edges),
                np.empty(n_boundary, np.int64), np.empty(n_frontier, np.int64))
        if kernel.cd_scan(raw, len(raw), counts, *cols):
            return None
    at, end = counts[5:]
    try:
        meta = {} if at < 0 else json.loads(raw[at:end].decode("ascii"))
    except ValueError:  # not ASCII, or not JSON
        return None
    ids, coords, ends, edge_len, boundary, frontier = cols
    return ids, coords, ends[:, 0], ends[:, 1], edge_len, boundary, frontier, meta


def load_domain(path):
    """Read a domain file: the C scanner's columns where it takes the bytes,
    else ``json.load`` and :func:`from_dict`, whose errors stay the ones
    raised."""
    columns = _scan(path)
    if columns is not None:
        return _from_columns(*columns)
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"not valid JSON: {exc}") from exc
    return from_dict(data)


# -- distance to the boundary and dyadic shells -----------------------------


def shell_index(values):
    """Dyadic shell index of each distance value.

    Shell 0 collects ``d <= 1``; shell n >= 1 is ``2**(n-1) < d <= 2**n``.
    Exact at powers of two: frexp gives mantissa 0.5 there, which belongs to
    the lower shell.
    """
    d = np.asarray(values, dtype=np.float64)
    mant, expo = np.frexp(d)
    n = np.where(mant == 0.5, expo - 1, expo)
    out = np.where(d <= 1.0, 0, n).astype(np.int64)
    if d.ndim == 0:
        return int(out)
    return out


@dataclass(eq=False)
class BoundaryDistanceField:
    """Distance to the nearest boundary vertex, per vertex, with shells."""

    values: np.ndarray
    shells: np.ndarray


def boundary_distance(domain):
    """Compute the distance-to-boundary field on the full graph.

    Travelling through one boundary vertex on the way to another cannot beat
    the direct distance to the first, so the full graph gives the right
    minimum even though interior curves avoid the boundary.
    """
    values = _graphs.min_distance_field(domain.adjacency, domain.boundary_idx)
    if not np.isfinite(values).all():
        raise DomainError("some vertices cannot reach the boundary")
    return BoundaryDistanceField(values=values, shells=shell_index(values))


# -- structural constants of the discretisation -----------------------------


@dataclass(frozen=True)
class ConstantEstimates:
    """Empirical uniformity and quasiconvexity constants of a domain.

    ``cu`` bounds the two-sided clearance ratio of sampled geodesics: every
    interior point z of a geodesic from x to y satisfies
    ``min(len to x, len to y) <= cu * dist_to_boundary(z)``.
    ``cq`` bounds graph distance over straight-line distance (only when the
    domain has coordinates; otherwise 1.0 and ``cq_valid`` is False).
    """

    cu: float
    cq: float
    cq_valid: bool
    n_pairs: int
    seed: int


def estimate_metric_constants(domain, bdry_field=None, n_pairs=400, seed=0):
    """Sample interior geodesics and measure uniformity constants.

    Geodesics in the graph metric are the best curves the discretisation can
    offer, so the maxima observed here estimate the uniformity constant of
    the underlying domain from below.  Values are floored at 1.
    """
    if bdry_field is None:
        bdry_field = boundary_distance(domain)
    rng = np.random.default_rng(seed)
    interior = np.nonzero(~domain.boundary_mask)[0]
    if interior.size < 2:
        raise DomainError("need at least two interior vertices")
    n_sources = max(2, min(interior.size, int(math.ceil(math.sqrt(n_pairs)))))
    n_targets = max(1, int(math.ceil(n_pairs / n_sources)))
    sources = rng.choice(interior, size=n_sources, replace=False)
    adj = domain.adjacency_interior
    cu = 1.0
    cq = 1.0
    used = 0
    for s in sources:
        dist = _graphs.distances_from(adj, s)
        reachable = interior[np.isfinite(dist[interior])]
        reachable = reachable[reachable != s]
        if reachable.size == 0:
            continue
        targets = rng.choice(reachable, size=min(n_targets, reachable.size),
                             replace=False)
        for t in targets:
            path = _graphs.extract_path(adj, dist, s, t)
            # rounded differences, not the edge lengths: dist[v] is the float
            # sum dist[u] + w(u, v), and dist[v] - dist[u] need not give w back
            steps = np.diff(dist[path])
            if domain.coords is not None:
                chord = math.hypot(*(domain.coords[t] - domain.coords[s]))
                if chord > 0:
                    cq = max(cq, dist[t] / chord)
            if len(path) > 2:
                cu = max(cu, clearance_ratio(steps, bdry_field.values[path[1:-1]]))
            used += 1
    if used == 0:
        raise DomainError("no usable interior pairs found")
    return ConstantEstimates(cu=float(cu), cq=float(cq),
                             cq_valid=domain.coords is not None,
                             n_pairs=used, seed=seed)


# -- generators --------------------------------------------------------------


def _grid_edges(n_cols, n_rows, h, conn):
    """Edge arrays of an n_cols x n_rows grid, vertex id = row*n_cols + col."""
    if conn not in (4, 8):
        raise DomainError(f"conn must be 4 or 8, got {conn}")
    idx = np.arange(n_cols * n_rows, dtype=np.int64).reshape(n_rows, n_cols)
    us = [idx[:, :-1].ravel(), idx[:-1, :].ravel()]
    vs = [idx[:, 1:].ravel(), idx[1:, :].ravel()]
    ws = [np.full(us[0].size, h), np.full(us[1].size, h)]
    if conn == 8:
        diag = h * math.sqrt(2.0)
        us += [idx[:-1, :-1].ravel(), idx[:-1, 1:].ravel()]
        vs += [idx[1:, 1:].ravel(), idx[1:, :-1].ravel()]
        ws += [np.full(us[2].size, diag), np.full(us[3].size, diag)]
    return np.concatenate(us), np.concatenate(vs), np.concatenate(ws)


def _steps(extent, h):
    n = int(round(extent / h))
    if abs(n * h - extent) > 1e-9 * max(1.0, extent):
        raise DomainError(f"extent {extent} is not a multiple of the mesh size {h}")
    return n


def half_plane(width=40.0, depth=40.0, h=0.1, conn=8):
    """Rectangular sample of the upper half plane.

    Columns span ``[-width/2, width/2]``, rows ``[0, depth]``.  The bottom row
    is the boundary, the top row is the frontier (rays escape upward).
    """
    n_cols = _steps(width, h) + 1
    n_rows = _steps(depth, h) + 1
    xs = np.linspace(-width / 2.0, width / 2.0, n_cols)
    ys = np.linspace(0.0, depth, n_rows)
    coords = np.stack(
        [np.tile(xs, n_rows), np.repeat(ys, n_cols)], axis=1
    )
    eu, ev, ew = _grid_edges(n_cols, n_rows, h, conn)
    n = n_cols * n_rows
    return MetricDomain(
        ids=np.arange(n), coords=coords, edge_u=eu, edge_v=ev, edge_len=ew,
        boundary_idx=np.arange(n_cols),
        frontier_idx=np.arange((n_rows - 1) * n_cols, n),
        meta={"generator": "half_plane", "width": width, "depth": depth,
              "h": h, "conn": conn},
    )


def strip(width=40.0, h=0.1, conn=8):
    """Bounded slab of height 1 over a boundary line; no frontier.

    Every vertex has distance at most 1 to the boundary, so a weight that is
    identically 1 up to distance 1 leaves this domain unchanged.
    """
    n_cols = _steps(width, h) + 1
    n_rows = _steps(1.0, h) + 1
    xs = np.linspace(-width / 2.0, width / 2.0, n_cols)
    ys = np.linspace(0.0, 1.0, n_rows)
    coords = np.stack([np.tile(xs, n_rows), np.repeat(ys, n_cols)], axis=1)
    eu, ev, ew = _grid_edges(n_cols, n_rows, h, conn)
    n = n_cols * n_rows
    return MetricDomain(
        ids=np.arange(n), coords=coords, edge_u=eu, edge_v=ev, edge_len=ew,
        boundary_idx=np.arange(n_cols), frontier_idx=np.arange(0),
        meta={"generator": "strip", "width": width, "h": h, "conn": conn},
    )


def slit_plane(depth=10.0, h=0.1, conn=8):
    """Square window of the plane slit along the segment [-depth, 0] x {0}.

    The grid covers ``[-2*depth, 2*depth]**2``.  Vertices on the slit are the
    boundary.  Because interior curves may not travel through boundary
    vertices, the two banks of the slit are only connected around the tip at
    the origin, which reproduces the slit topology.  The frontier collects
    vertices whose straight-line distance to the slit is at least ``depth``.
    """
    side = 4.0 * depth
    n_side = _steps(side, h) + 1
    xs = np.linspace(-2.0 * depth, 2.0 * depth, n_side)
    coords = np.stack([np.tile(xs, n_side), np.repeat(xs, n_side)], axis=1)
    eu, ev, ew = _grid_edges(n_side, n_side, h, conn)
    x, y = coords[:, 0], coords[:, 1]
    on_axis = np.abs(y) < h * 1e-9
    boundary = np.nonzero(on_axis & (x >= -depth - h * 1e-9) & (x <= h * 1e-9))[0]
    # straight-line distance to the slit segment
    seg = np.where(x > 0, np.hypot(x, y), np.where(x < -depth, np.hypot(x + depth, y), np.abs(y)))
    frontier = np.nonzero(seg >= depth - h * 1e-9)[0]
    frontier = np.setdiff1d(frontier, boundary)
    n = n_side * n_side
    return MetricDomain(
        ids=np.arange(n), coords=coords, edge_u=eu, edge_v=ev, edge_len=ew,
        boundary_idx=boundary, frontier_idx=frontier,
        meta={"generator": "slit_plane", "depth": depth, "h": h, "conn": conn},
    )


_GENERATORS = {gen.__name__: gen for gen in (half_plane, strip, slit_plane)}


def generate_domain(spec):
    """Build a domain from a text spec like ``half_plane:width=40,h=0.1``."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name not in _GENERATORS:
        known = ", ".join(sorted(_GENERATORS))
        raise DomainError(f"unknown generator {name!r} (choose from {known})")
    params = {}
    # each parameter takes the type of its default
    schema = {key: type(par.default) for key, par
              in inspect.signature(_GENERATORS[name]).parameters.items()}
    if rest.strip():
        for item in rest.split(","):
            key, eq, val = item.partition("=")
            key = key.strip()
            if not eq or key not in schema:
                raise DomainError(f"bad generator parameter {item!r} for {name}")
            try:
                params[key] = schema[key](val)
            except ValueError:
                raise DomainError(f"bad value for {key!r}: {val!r}") from None
    return _GENERATORS[name](**params)

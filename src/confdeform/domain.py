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
import mmap
import numbers
import operator
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

    @cached_property
    def boundary_mask(self):
        """Read-only boolean mask of the boundary vertices; both views share it."""
        return self._mask(self.boundary_idx)

    @cached_property
    def frontier_mask(self):
        """Read-only boolean mask of the frontier vertices."""
        return self._mask(self.frontier_idx)

    @cached_property
    def _box(self):
        """Lowest and highest corner of the coordinates' bounding box (one
        column at a time: numpy reduces an (n, 2) array along axis 0 slowly)."""
        x, y = self.coords[:, 0], self.coords[:, 1]
        return np.array([x.min(), y.min()]), np.array([x.max(), y.max()])

    def _mask(self, idx):
        mask = np.zeros(self.n_vertices, dtype=bool)
        mask[idx] = True
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
        """Row index of a vertex id, a Python or numpy integer: the id itself
        where row ``vertex_id`` holds it, as on every generated domain and
        every file saved from one, else by the binary search of ``_by_id``."""
        try:
            vid = operator.index(vertex_id)
        except TypeError:
            raise DomainError(f"a vertex id must be an integer, got {vertex_id!r}") from None
        if 0 <= vid < self.n_vertices and self.ids[vid] == vid:
            return vid
        return int(self._by_id(_integers([vid], "a vertex id"), "unknown vertex id")[0])

    def vertex_id(self, idx):
        return int(self.ids[int(idx)])

    def nearest_vertex(self, x, y):
        """Id of the vertex whose coordinates are closest to (x, y)."""
        if self.coords is None:
            raise DomainError("domain has no vertex coordinates")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"vertex coordinates must be finite, got {x},{y}")
        lo, hi = self._box
        if math.dist(np.clip((x, y), lo, hi), (x, y)) > math.dist(lo, hi):
            raise DomainError(f"point {x},{y} lies too far outside the vertex "
                              "bounding box")
        d2 = (self.coords[:, 0] - x) ** 2 + (self.coords[:, 1] - y) ** 2
        ties = np.nonzero(d2 == d2.min())[0]
        return int(self.ids[ties].min())

    # -- adjacency views ---------------------------------------------------

    def metric_view(self, lengths, landmarks):
        """Queries under the per-edge ``lengths``: a gather over the pattern,
        pair queries steered by ``landmarks`` landmark fields too."""
        return _graphs.MetricView(self.edge_ids, lengths, self.boundary_mask,
                                  self.frontier_idx, self.coords, landmarks)

    @cached_property
    def view(self):
        """Base-metric view: pair queries, rooted runs and geodesics.  No
        landmarks: the chord bound already bounds base pairs sideways."""
        return self.metric_view(self.edge_len, landmarks=0)

    # the base metric's CSR adjacency, and its source-directed reference (built per read)
    adjacency = property(lambda self: self.view.full)
    adjacency_interior = property(lambda self: self.view.interior)

    @cached_property
    def interior_components(self):
        """Strong components of ``adjacency_interior`` (scipy would float an int pattern)."""
        return connected_components(self.adjacency_interior, connection="strong")[1]

    @property
    def frontier_field(self):
        """Base twin of ``DeformedDomain.frontier_field_phi`` (open domain)."""
        return self.view.frontier_field

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
        self._by_id  # rejects an empty or repeating id list
        n = self.n_vertices
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
        if (self.boundary_mask & self.frontier_mask).any():
            raise DomainError("boundary and frontier vertices overlap")
        # both metrics' pattern: entry (u, v) is edge u-v's id + 1, and a repeat sums
        adj = _graphs.build_adjacency(n, self.edge_u, self.edge_v,
                                      np.arange(1, self.n_edges + 1))
        if adj.nnz != 2 * self.n_edges:
            raise DomainError("an undirected edge is listed more than once")
        if connected_components(adj, directed=False)[0] != 1:
            raise DomainError("graph is not connected")
        self.edge_ids = adj.astype(adj.indices.dtype)

    def _records(self, key, rows=slice(None)):
        """The records of the list ``key`` of :meth:`to_dict` in ``rows``."""
        ids = self.ids
        if key == "edges":
            return list(map(list, zip(ids[self.edge_u[rows]].tolist(),
                                      ids[self.edge_v[rows]].tolist(),
                                      self.edge_len[rows].tolist())))
        if key != "vertices":
            return ids[getattr(self, f"{key}_idx")[rows]].tolist()
        if self.coords is None:
            return [{"id": i} for i in ids[rows].tolist()]
        return [{"id": i, "xy": xy}
                for i, xy in zip(ids[rows].tolist(), self.coords[rows].tolist())]

    def to_dict(self):
        lists = ("vertices", "edges", "boundary", "frontier")
        return {**{key: self._records(key) for key in lists}, "meta": self.meta}

    def save(self, path):
        """Write the bytes of ``json.dumps(self.to_dict(), sort_keys=True,
        separators=(",", ":"))`` and a newline."""
        meta = json.dumps(self.meta, sort_keys=True, separators=(",", ":"))
        with open(path, "w") as fh:
            fh.write('{"boundary":')
            self._write_list(fh, "boundary", len(self.boundary_idx))
            fh.write(',"edges":')
            self._write_list(fh, "edges", self.n_edges)
            fh.write(',"frontier":')
            self._write_list(fh, "frontier", len(self.frontier_idx))
            fh.write(f',"meta":{meta},"vertices":')
            self._write_list(fh, "vertices", self.n_vertices)
            fh.write("}\n")

    def _write_list(self, fh, key, n):
        """Write the ``n`` records of ``key`` as one compact JSON list.  Each
        block of ``_BLOCK`` records goes through the C encoder, so no text
        or tree of the whole list is ever held."""
        fh.write("[")
        for start in range(0, n, _BLOCK):
            # fresh lists of numbers hold no cycle; not checking for one
            # saves a fifth of the encoding time
            text = json.dumps(self._records(key, slice(start, start + _BLOCK)),
                              separators=(",", ":"), check_circular=False)
            fh.write(("," if start else "") + text[1:-1])
        fh.write("]")


_BLOCK = 1 << 16


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


def _id_lookup(ids, bulk=False):
    """Map int64 id arrays to indices.  Ids equal to their rows, as on every
    generated domain and every file saved from one, map by a range check;
    others by one sort, then a binary search per id through the sort order,
    the one array the lookup keeps (``bulk``: through the sorted ids, one
    random read per probe, not two).  An empty or repeating id list is
    rejected; the first unknown id is named."""
    n = len(ids)
    if n == 0:
        raise DomainError("domain has no vertices")
    if ids[0] == 0 and ids[-1] == n - 1 and (ids == np.arange(n)).all():
        def identity(vids, unknown_msg):
            unknown = vids.view(np.uint64) >= n  # a negative id wraps past n
            if unknown.any():
                raise DomainError(f"{unknown_msg} {vids[unknown.argmax()]}")
            return vids
        return identity
    order = np.argsort(ids, kind="stable")
    sorted_ids = ids[order]
    if (sorted_ids[1:] == sorted_ids[:-1]).any():
        raise DomainError("vertex ids are not unique")
    keys, sorter = (sorted_ids, None) if bulk else (ids, order)

    def lookup(vids, unknown_msg):
        rows = order[np.minimum(np.searchsorted(keys, vids, sorter=sorter), n - 1)]
        unknown = ids[rows] != vids
        if unknown.any():
            raise DomainError(f"{unknown_msg} {vids[unknown.argmax()]}")
        return rows
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
    by_id = _id_lookup(ids, bulk=True)  # dropped with this call
    if type(meta) is not dict:
        raise DomainError(f"meta must be an object, not {type(meta).__name__}")
    if len(coords) not in (0, len(ids)):
        raise DomainError("either all vertices carry coordinates or none do")

    def lookup(values):
        return by_id(values, "edge or marker refers to unknown vertex id")

    return MetricDomain(
        ids=ids, coords=coords if len(coords) else None, edge_len=edge_len,
        edge_u=lookup(edge_u), edge_v=lookup(edge_v),
        boundary_idx=lookup(boundary), frontier_idx=lookup(frontier),
        meta=meta,
    )


# The fewest bytes a record of each list of _scan.c's counts takes, so that
# a file of b bytes holds at most b // _LEAST_BYTES of them: {"id":0},
# {"id":0,"xy":[0,0]}, [0,1,1] and its comma, a marker and its comma.
_LEAST_BYTES = np.array([8, 19, 8, 2, 2])
# The most records a list gets room for, which keeps each mapping within
# 1 GiB of address space: a longer list is counted, then read again with
# exactly its room.
_MAX_ROOM = 1 << 26


def _mapped(shape, dtype):
    """An uninitialised array in a private anonymous mapping of its own,
    whose pages the system backs only once they are written, a page at a
    time: room never written costs no memory.  ``np.empty`` asks for
    transparent huge pages on arrays of 4 MB or more, so its room would
    fault in 2 MB at a time."""
    count = int(np.prod(shape))
    buf = mmap.mmap(-1, max(count * np.dtype(dtype).itemsize, 1), flags=mmap.MAP_PRIVATE)
    return np.frombuffer(buf, dtype, count).reshape(shape)


def _scan(path):
    """The columns of :func:`_from_columns` as the C scanner reads them from
    the file's bytes, or None where it declines them (or did not load).
    One pass fills arrays with room for as many records as the bytes can
    hold; a list that outgrew its room (only past ``_MAX_ROOM``) is read
    again with exactly the room it needs, never returned part filled."""
    kernel = _graphs._kernel
    if kernel is None:
        return None
    with open(path, "rb") as fh:
        raw = fh.read()
    counts = np.zeros(7, np.int64)
    counts[:5] = np.minimum(len(raw) // _LEAST_BYTES, _MAX_ROOM)
    dtypes = ("i8", "i8", "f8", "i8", "f8", "i8", "i8")
    for _ in range(2):
        room = counts[:5].copy()
        n_ids, n_xy, n_edges, n_boundary, n_frontier = room.tolist()
        cols = (_mapped(n_ids, "i8"), _mapped((n_xy, 2), "f8"),
                _mapped((n_edges, 2), "i8"), _mapped(n_edges, "f8"),
                _mapped(n_boundary, "i8"), _mapped(n_frontier, "i8"))
        if kernel.cd_scan(raw, len(raw), *map(_graphs._ptr, (counts, *cols), dtypes)):
            return None
        if (counts[:5] <= room).all():
            break
    at, end = counts[5:]
    try:
        meta = {} if at < 0 else json.loads(raw[at:end].decode("ascii"))
    except ValueError:  # not ASCII, or not JSON
        return None
    # the filled part of each array: edge ends and lengths share a count
    ids, coords, ends, edge_len, boundary, frontier = (
        col[:k] for col, k in zip(cols, counts[[0, 1, 2, 2, 3, 4]]))
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
    """The distance-to-boundary field: the base view's ``boundary_field``.

    Travelling through one boundary vertex on the way to another cannot beat
    the direct distance to the first, so the full graph gives the right
    minimum even though interior curves avoid the boundary.
    """
    values = domain.view.boundary_field
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

    ``cu`` is the worst clearance ratio of the sampled graph geodesics, not a
    bound from below on the domain's: a graph geodesic between two points near
    the boundary runs parallel to it, so its ratio grows like their separation
    over twice their height (20.0 on ``half_plane:width=40,depth=40,h=0.1``,
    where quasihyperbolic geodesics give 1.53).  Values are floored at 1.
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
    view = domain.view
    cu = 1.0
    cq = 1.0
    used = 0
    for dist, s in zip(view.runs(sources), sources):  # each draw reads its run
        reachable = interior[np.isfinite(dist[interior])]
        reachable = reachable[reachable != s]
        if reachable.size == 0:
            continue
        targets = rng.choice(reachable, size=min(n_targets, reachable.size),
                             replace=False)
        for t in targets:
            path = _graphs.extract_path(view.full, dist, s, t)
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


def _axis(lo, hi, h):
    """Grid coordinates from lo to hi in steps of the mesh size h."""
    if not (math.isfinite(h) and h > 0):
        raise DomainError(f"mesh size h must be positive and finite, got {h}")
    extent = hi - lo
    if not (math.isfinite(extent) and extent >= 0):
        raise DomainError(f"extent {extent} must be finite and nonnegative")
    n = int(round(extent / h))
    if abs(n * h - extent) > 1e-9 * max(1.0, extent):
        raise DomainError(f"extent {extent} is not a multiple of the mesh size {h}")
    return np.linspace(lo, hi, n + 1)


def _grid(xs, ys, h, conn, marks, meta):
    """The domain on the grid ``xs`` x ``ys``, vertex id = row*len(xs) + col,
    with edges of length h along rows and columns, and diagonals for conn=8.
    ``marks(x, y)`` gives the boundary and frontier masks from the
    coordinate columns."""
    if conn not in (4, 8):
        raise DomainError(f"conn must be 4 or 8, got {conn}")
    coords = np.stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))], axis=1)
    idx = np.arange(len(coords)).reshape(len(ys), len(xs))
    edges = [(idx[:, :-1], idx[:, 1:], h), (idx[:-1, :], idx[1:, :], h)]
    if conn == 8:
        diag = h * math.sqrt(2.0)
        edges += [(idx[:-1, :-1], idx[1:, 1:], diag), (idx[:-1, 1:], idx[1:, :-1], diag)]
    boundary, frontier = marks(coords[:, 0], coords[:, 1])
    return MetricDomain(
        ids=idx.ravel(), coords=coords,
        edge_u=np.concatenate([u.ravel() for u, _, _ in edges]),
        edge_v=np.concatenate([v.ravel() for _, v, _ in edges]),
        edge_len=np.concatenate([np.full(u.size, w) for u, _, w in edges]),
        boundary_idx=np.nonzero(boundary)[0], frontier_idx=np.nonzero(frontier)[0],
        meta={**meta, "h": h, "conn": conn},
    )


def half_plane(width=40.0, depth=40.0, h=0.1, conn=8):
    """Rectangular sample of the upper half plane.

    Columns span ``[-width/2, width/2]``, rows ``[0, depth]``.  The bottom row
    is the boundary, the top row is the frontier (rays escape upward).
    """
    return _grid(_axis(-width / 2.0, width / 2.0, h), _axis(0.0, depth, h), h, conn,
                 lambda x, y: (y == 0.0, y == depth),
                 {"generator": "half_plane", "width": width, "depth": depth})


def strip(width=40.0, h=0.1, conn=8):
    """Bounded slab of height 1 over a boundary line; no frontier.

    Every vertex has distance at most 1 to the boundary, so a weight that is
    identically 1 up to distance 1 leaves this domain unchanged.
    """
    return _grid(_axis(-width / 2.0, width / 2.0, h), _axis(0.0, 1.0, h), h, conn,
                 lambda x, y: (y == 0.0, np.zeros_like(y, dtype=bool)),
                 {"generator": "strip", "width": width})


def slit_plane(depth=10.0, h=0.1, conn=8):
    """Square window of the plane slit along the segment [-depth, 0] x {0}.

    The grid covers ``[-2*depth, 2*depth]**2``.  Vertices on the slit are the
    boundary.  Because interior curves may not travel through boundary
    vertices, the two banks of the slit are only connected around the tip at
    the origin, which reproduces the slit topology.  The frontier collects
    vertices whose straight-line distance to the slit is at least ``depth``.
    """
    def marks(x, y):
        slit = (np.abs(y) < h * 1e-9) & (x >= -depth - h * 1e-9) & (x <= h * 1e-9)
        # straight-line distance to the slit segment
        seg = np.where(x > 0, np.hypot(x, y),
                       np.where(x < -depth, np.hypot(x + depth, y), np.abs(y)))
        return slit, (seg >= depth - h * 1e-9) & ~slit

    xs = _axis(-2.0 * depth, 2.0 * depth, h)
    return _grid(xs, xs, h, conn, marks, {"generator": "slit_plane", "depth": depth})


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
            if not eq or key not in schema or key in params:
                raise DomainError(f"bad or repeated generator parameter {item!r} for {name}")
            try:
                params[key] = schema[key](val)
            except ValueError:
                raise DomainError(f"bad value for {key!r}: {val!r}") from None
    return _GENERATORS[name](**params)

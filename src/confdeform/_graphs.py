"""Shortest-path plumbing shared by the rest of the package.

Everything here operates on plain CSR adjacency matrices and integer vertex
indices.  Translation between user-facing vertex ids and row indices happens
one level up, in :mod:`confdeform.domain`.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
from functools import cached_property
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


def _load_kernel():
    """The C library of ``_dijkstra.c`` and ``_scan.c``, built once per hash
    of the sources into the package directory (a build removes the libraries
    of other hashes), or None (with one warning) where it cannot be."""
    sources = [Path(__file__).with_name(name) for name in ("_dijkstra.c", "_scan.c")]
    flags = ["-O2", "-ffp-contract=off", "-shared", "-fPIC"]
    try:
        key = hashlib.sha256(b"".join(src.read_bytes() for src in sources)
                             + str(flags).encode()).hexdigest()
        lib = sources[0].with_name(f"_kernel_{key[:16]}.so")
        if not lib.exists():
            tmp = lib.with_suffix(f".{os.getpid()}.tmp")  # racing builds agree
            subprocess.run(["cc", *flags, "-o", tmp, *sources], check=True,
                           capture_output=True)
            os.replace(tmp, lib)
            for stale in set(lib.parent.glob("_kernel_*.so")) - {lib}:
                stale.unlink(missing_ok=True)  # built from older sources
        kernel = ctypes.CDLL(str(lib))
    except (OSError, subprocess.SubprocessError) as exc:
        logging.getLogger("confdeform").warning(
            "C kernel unavailable, using scipy and json.load: %s", exc)
        return None
    i32, i64, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_double
    i4, f8, i8 = (np.ctypeslib.ndpointer(t, flags="C")
                  for t in (np.int32, np.float64, np.int64))
    kernel.cd_dijkstra.argtypes = [i32, i4, i4, f8, i32, i4, f64, i32, i4, f8, f8,
                                   i32, i4]
    kernel.cd_walk.argtypes = [i32, i4, i4, f8, f8, i32, i32, i8]
    kernel.cd_scan.argtypes = [ctypes.c_char_p, i64, i8, i8, f8, i8, f8, i8, i8]
    kernel.cd_dijkstra.restype = kernel.cd_walk.restype = i32
    kernel.cd_scan.restype = ctypes.c_int
    return kernel


_kernel = _load_kernel()


def _csr(adj, *vertices):
    """(n, indptr, indices, data) as the kernel takes them, once each of
    ``vertices`` (an index or an array of them) is checked in range; None
    where scipy runs: no kernel, or not an int32-indexed CSR matrix."""
    if (_kernel is None or getattr(adj, "format", None) != "csr"
            or adj.indices.dtype != np.int32):
        return None
    n = adj.shape[0]
    if not all(((0 <= np.asarray(v)) & (np.asarray(v) < n)).all() for v in vertices):
        raise IndexError(f"vertex index out of range for {n} vertices")
    return n, adj.indptr, adj.indices, np.ascontiguousarray(adj.data, float)


def build_adjacency(n_vertices, edge_u, edge_v, edge_len):
    """Symmetric CSR adjacency matrix from an undirected edge list."""
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    edge_len = np.asarray(edge_len, dtype=np.float64)
    rows = np.concatenate([edge_u, edge_v])
    cols = np.concatenate([edge_v, edge_u])
    vals = np.concatenate([edge_len, edge_len])
    return csr_matrix((vals, (rows, cols)), shape=(n_vertices, n_vertices))


def distances_from(adj, source, limit=np.inf, stop=None, into=None):
    """Single-source distances; unreached vertices get ``inf``.  ``stop``,
    (members, offsets), ends the run once the heap minimum exceeds
    ``c = min(dist[members] + offsets)``: the array is then that of
    ``limit=c``.  ``into``, a :class:`RunBuffer`, takes the distances in
    place of a new array.  scipy, run where the kernel cannot, ignores
    ``stop`` and ``into``."""
    return _distances(adj, np.array([source]), limit, stop, into)


def min_distance_field(adj, sources):
    """Distance from every vertex to the nearest vertex of ``sources``.

    One multi-source sweep, much cheaper than a run per source.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        raise ValueError("min_distance_field needs at least one source vertex")
    return _distances(adj, sources)


class RunBuffer:
    """An all-``inf`` distance array that kernel runs fill in place of a new
    one, with the first ``order.size`` vertices the latest run settled and
    how many it settled, so the next run can undo just those.

    ``dist`` and ``order`` share one allocation.  A small ``order`` of its
    own, made in the middle of a command and kept to its end, can pin the
    top of malloc's heap, so that the command's freed matrices stay
    resident: the peak RSS of repeated ``confdeform check`` runs then rose
    by 30 MB in about one run in four."""

    def __init__(self, n_vertices, capacity):
        self.shape = (n_vertices, capacity)
        self.renew()

    def renew(self):
        """Start on a clean array; the old one stays with whoever holds it."""
        n, capacity = self.shape
        block = np.full(n + (capacity + 1) // 2, np.inf)
        self.dist = block[:n]
        self.order = block[n:].view(np.int32)[:capacity]
        self.settled = 0


_NO_ORDER = np.empty(0, dtype=np.int32)


def _distances(adj, roots, limit=np.inf, stop=None, into=None):
    """Distances from the nearest of ``roots``, each starting at 0, through
    the kernel, or scipy where it cannot run (see :func:`distances_from`)."""
    members, offsets = (np.empty(0), 0.0) if stop is None else stop
    csr = _csr(adj, roots, members)
    if csr is None:
        return dijkstra(adj, directed=True, indices=roots, limit=limit,
                        min_only=True)
    roots = np.ascontiguousarray(roots, dtype=np.int32)
    members = np.ascontiguousarray(members, dtype=np.int32)
    offsets = np.ascontiguousarray(np.broadcast_to(offsets, members.shape), float)
    dist, order = ((np.full(csr[0], np.inf), _NO_ORDER) if into is None
                   else (into.dist, into.order))
    settled = _kernel.cd_dijkstra(*csr, len(roots), roots, limit, len(members),
                                  members, offsets, dist, len(order), order)
    if settled < 0:
        raise MemoryError("no memory for a Dijkstra run")
    if into is not None:
        into.settled = settled
    return dist


def extract_path(adj, dist, source, target):
    """Vertex index sequence of a shortest path ``source -> target``.

    ``dist`` must be the distance array of a run rooted at ``source`` on the
    same matrix.  The walk goes backwards from ``target``, at each step taking
    a neighbour u with ``dist[u] + w(u, v) == dist[v]`` (exact float equality,
    which the relaxation parent always satisfies).  Ties break to the smallest
    vertex index so the returned path does not depend on heap order.
    """
    source, target = int(source), int(target)
    if not np.isfinite(dist[target]):
        raise ValueError(f"vertex {target} is not reachable from {source}")
    errors = {-1: "no optimal predecessor found; distance array does not "
                  "match the adjacency matrix",
              -2: "path extraction cycled; inconsistent distances"}
    csr, n = _csr(adj, source, target), adj.shape[0]
    if csr is not None:
        dist, path = np.ascontiguousarray(dist, float), np.empty(n, dtype=np.int64)
        if dist.shape != (n,):
            raise ValueError(f"distance array of shape {dist.shape} for {n} vertices")
        k = _kernel.cd_walk(*csr, dist, source, target, path)
        if k < 0:
            raise RuntimeError(errors[k])
        return path[k - 1::-1].copy()
    path = [target]
    while path[-1] != source:
        lo, hi = adj.indptr[path[-1]], adj.indptr[path[-1] + 1]
        nbrs = adj.indices[lo:hi]
        nbrs = nbrs[dist[nbrs] + adj.data[lo:hi] == dist[path[-1]]]
        if nbrs.size == 0 or len(path) == n:
            raise RuntimeError(errors[-1 if nbrs.size == 0 else -2])
        path.append(int(nbrs.min()))
    return np.asarray(path[::-1], dtype=np.int64)


def edge_positions(adj, path):
    """CSR position of each step of a vertex index sequence.

    A binary search of every step's row at once; rows must hold sorted
    column indices, as those of :func:`build_adjacency` do.  Matrices built
    from one edge list share these positions.  Raises if two consecutive
    vertices are not adjacent.
    """
    path = np.asarray(path, dtype=np.int64)
    u, v = path[:-1], path[1:]
    lo, end = adj.indptr[u].astype(np.int64), adj.indptr[u + 1].astype(np.int64)
    hi, last = end.copy(), max(adj.nnz - 1, 0)
    for _ in range(int(np.max(end - lo, initial=0)).bit_length()):
        mid = (lo + hi) // 2
        right = (lo < hi) & (adj.indices[np.minimum(mid, last)] < v)
        lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
    missing = (lo == end) | (adj.indices[np.minimum(lo, last)] != v)
    if missing.any():
        i = int(missing.argmax())
        raise ValueError(f"vertices {u[i]} and {v[i]} are not adjacent")
    return lo


def edge_lengths_along(adj, path):
    """Per-step edge lengths for a vertex index sequence.

    Raises if two consecutive vertices are not adjacent.
    """
    return adj.data[edge_positions(adj, path)]


def pairwise_distances(adj, vertices):
    """Dense distance matrix between the listed vertices.

    Shortest-path distances computed by independent rooted runs are only
    symmetric and triangle-consistent up to float roundoff (different runs
    associate the same edge sums differently).  The matrix is symmetrised by
    min and then closed under min-plus until stable, which restores both
    properties exactly.  Every entry remains the float sum of a genuine path,
    evaluated in some association order; observed perturbations are below
    1e-15 relative.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    mat = np.stack([distances_from(adj, v)[vertices] for v in vertices])
    mat = np.minimum(mat, mat.T)
    np.fill_diagonal(mat, 0.0)
    for _ in range(len(vertices) + 1):
        relaxed = np.minimum(mat, (mat[:, :, None] + mat[None, :, :]).min(axis=1))
        if (relaxed == mat).all():
            return mat
        mat = relaxed
    raise RuntimeError("min-plus closure failed to stabilise")


def drop_incident_edges(n_vertices, edge_u, edge_v, edge_len, blocked):
    """Source-directed adjacency: every edge *into* a blocked vertex is dropped.

    A blocked vertex keeps its out-edges, so a run may leave one but never
    enter one: from a blocked root it is the graph without the other blocked
    vertices.  Rows of unblocked vertices are those of the undirected graph
    with the blocked vertices removed, entry for entry.
    """
    blocked_mask = np.zeros(n_vertices, dtype=bool)
    blocked_mask[np.asarray(blocked, dtype=np.int64)] = True
    fwd = ~blocked_mask[edge_v]
    bwd = ~blocked_mask[edge_u]
    rows = np.concatenate([edge_u[fwd], edge_v[bwd]])
    cols = np.concatenate([edge_v[fwd], edge_u[bwd]])
    vals = np.concatenate([edge_len[fwd], edge_len[bwd]])
    return csr_matrix((vals, (rows, cols)), shape=(n_vertices, n_vertices))


class MetricView:
    """Queries through the open domain under one edge-length assignment.

    Owns the full CSR and the source-directed interior CSR of
    :func:`drop_incident_edges`.  A pair query is one run from the smaller
    index on the directed matrix, stopped at the target's value: the least
    ``dist[u] + w(u, t)`` over its neighbours in the full CSR (where other
    boundary vertices hold ``inf``), for interior and boundary targets
    alike; paths are extracted there too.  Pair answers and the latest run
    are kept, no array per root (5 MB each at 641k vertices).

    Stopped runs fill one :class:`RunBuffer` of the view, so a run that
    settles a few vertices costs that few, not ``n``: before the next run
    the view resets the entries the latest one settled.  A run that
    settled more than ``n / 16`` (cheaper to replace than to undo entry by
    entry) keeps its array as the latest run, and a clean one takes its
    place in the same call.
    """

    MEMO_SIZE = 256

    def __init__(self, n_vertices, edge_u, edge_v, edge_len, boundary_idx):
        self._edges = (n_vertices, edge_u, edge_v, edge_len)
        self.boundary_mask = np.zeros(n_vertices, dtype=bool)
        self.boundary_mask[boundary_idx] = True
        self.boundary_mask.flags.writeable = False
        self._memo = {}  # (root, other) -> distance, oldest first
        self._last = None  # (root, radius up to which it is exact, dist)

    @cached_property
    def full(self):
        return build_adjacency(*self._edges)

    @cached_property
    def interior(self):
        return drop_incident_edges(*self._edges, np.flatnonzero(self.boundary_mask))

    @cached_property
    def _buffer(self):
        return RunBuffer(self._edges[0], self._edges[0] // 16)

    def run(self, root, limit=np.inf):
        """Distances from ``root`` on the interior matrix, up to ``limit``,
        in a new array the caller owns."""
        self._last = (int(root), limit, distances_from(self.interior, root, limit))
        return self._last[2]

    def nearest(self, root, members, offsets=0.0):
        """(dist, c) of a run from ``root`` stopped at the least
        ``c = dist[m] + offset`` over the members; ``dist`` is exact up to
        ``c`` (``inf`` when no member is reached).  The latest run answers
        when it is exact that far.  ``dist`` may be the view's buffer: it
        is valid until the view's next run, and is not to be written."""
        root, last = int(root), self._last
        if last is not None and last[0] == root:
            c = float(np.min(last[2][members] + offsets, initial=np.inf))
            if c <= last[1]:
                return last[2], c
        buf = self._buffer
        buf.dist[buf.order[:buf.settled]] = np.inf
        buf.settled = 0
        dist = distances_from(self.interior, root, stop=(members, offsets),
                              into=buf)
        c = float(np.min(dist[members] + offsets, initial=np.inf))
        self._last = (root, c, dist)
        if buf.settled > buf.order.size:
            buf.renew()
        return dist, c

    def distance(self, ia, ib):
        """Distance between two indices, ``inf`` when not connected."""
        if ia == ib:
            return 0.0
        value = self._memo.get((min(ia, ib), max(ia, ib)))
        return self._reach(ia, ib)[3] if value is None else value

    def geodesic(self, ia, ib):
        """(distance, path from ``ia`` to ``ib``) for distinct indices; the
        path is None when they are not connected."""
        root, other, dist, value = self._reach(ia, ib)
        if not np.isfinite(value):
            return value, None
        saved = dist[other]
        if self.boundary_mask[other]:
            # the run never enters a boundary target: the walk starts at
            # its value, put in for the walk only
            dist[other] = value
        try:
            path = extract_path(self.full, dist, root, other)
        finally:
            dist[other] = saved
        return value, (path if path[0] == ia else path[::-1].copy())

    def _reach(self, ia, ib):
        """(root, other, dist, value) of the run from the smaller index
        stopped at the other one."""
        root, other = min(int(ia), int(ib)), max(int(ia), int(ib))
        row = slice(self.full.indptr[other], self.full.indptr[other + 1])
        dist, value = self.nearest(root, self.full.indices[row], self.full.data[row])
        self._memo[(root, other)] = value
        if len(self._memo) > self.MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        return root, other, dist, value

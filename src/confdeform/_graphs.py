"""Shortest-path plumbing shared by the rest of the package.

Everything here operates on plain CSR adjacency matrices and integer vertex
indices.  Translation between user-facing vertex ids and row indices happens
one level up, in :mod:`confdeform.domain`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


def build_adjacency(n_vertices, edge_u, edge_v, edge_len):
    """Symmetric CSR adjacency matrix from an undirected edge list."""
    edge_u = np.asarray(edge_u, dtype=np.int64)
    edge_v = np.asarray(edge_v, dtype=np.int64)
    edge_len = np.asarray(edge_len, dtype=np.float64)
    rows = np.concatenate([edge_u, edge_v])
    cols = np.concatenate([edge_v, edge_u])
    vals = np.concatenate([edge_len, edge_len])
    return csr_matrix((vals, (rows, cols)), shape=(n_vertices, n_vertices))


def distances_from(adj, source, limit=np.inf):
    """Single-source distances; unreached vertices get ``inf``."""
    return dijkstra(adj, directed=True, indices=int(source), limit=limit)


def min_distance_field(adj, sources):
    """Distance from every vertex to the nearest vertex of ``sources``.

    One multi-source sweep, much cheaper than a run per source.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        raise ValueError("min_distance_field needs at least one source vertex")
    return dijkstra(adj, directed=True, indices=sources, min_only=True)


def extract_path(adj, dist, source, target):
    """Vertex index sequence of a shortest path ``source -> target``.

    ``dist`` must be the distance array of a run rooted at ``source`` on the
    same matrix.  The walk goes backwards from ``target``, at each step taking
    a neighbour u with ``dist[u] + w(u, v) == dist[v]`` (exact float equality,
    which the relaxation parent always satisfies).  Ties break to the smallest
    vertex index so the returned path does not depend on heap order.
    """
    source = int(source)
    target = int(target)
    if not np.isfinite(dist[target]):
        raise ValueError(f"vertex {target} is not reachable from {source}")
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    path = [target]
    v = target
    while v != source:
        lo, hi = indptr[v], indptr[v + 1]
        nbrs = indices[lo:hi]
        exact = dist[nbrs] + data[lo:hi] == dist[v]
        if not exact.any():
            raise RuntimeError(
                "no optimal predecessor found; distance array does not match "
                "the adjacency matrix"
            )
        v = int(nbrs[exact].min())
        path.append(v)
        if len(path) > adj.shape[0]:
            raise RuntimeError("path extraction cycled; inconsistent distances")
    path.reverse()
    return np.asarray(path, dtype=np.int64)


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


def pairwise_distances(adj, vertices, tighten=True):
    """Dense distance matrix between the listed vertices.

    Shortest-path distances computed by independent rooted runs are only
    symmetric and triangle-consistent up to float roundoff (different runs
    associate the same edge sums differently).  With ``tighten`` the matrix is
    symmetrised by min and then closed under min-plus until stable, which
    restores both properties exactly.  Every entry remains the float sum of a
    genuine path, evaluated in some association order; observed perturbations
    are below 1e-15 relative.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    mat = dijkstra(adj, directed=True, indices=vertices)[:, vertices]
    if not tighten:
        return mat
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
    :func:`drop_incident_edges`.  Pair queries root at the smaller index on
    the directed matrix.  A boundary target, never entered, takes the
    minimum of ``dist[u] + w(u, t)`` over its neighbours in the full CSR,
    where other boundary vertices hold ``inf``; paths are extracted there
    too.  Runs are bounded by a known upper bound on the answer or else,
    given ``first_limit``, by limits growing fourfold from it, and fall back
    to a full run; a bounded run is exact wherever it reaches.  Pair answers
    and the latest run's array are kept, no array per root (5 MB each at
    641k vertices).
    """

    MEMO_SIZE = 256

    def __init__(self, n_vertices, edge_u, edge_v, edge_len, boundary_idx,
                 first_limit=None):
        self._edges = (n_vertices, edge_u, edge_v, edge_len)
        self.boundary_mask = np.zeros(n_vertices, dtype=bool)
        self.boundary_mask[boundary_idx] = True
        self.boundary_mask.flags.writeable = False
        # limits for a query with no known bound: fourfold from first_limit,
        # below the total edge length (which bounds every finite distance),
        # at most the largest 12 so that a tiny first_limit stays cheap
        self._schedule, limit, total = [], first_limit, float(np.sum(edge_len))
        while limit is not None and 0.0 < limit < total:
            self._schedule.append(limit)
            limit *= 4.0
        del self._schedule[:-12]
        self._memo = {}  # (root, other) -> distance, oldest first
        self._last = None  # (root, limit, dist) of the latest run

    @cached_property
    def full(self):
        return build_adjacency(*self._edges)

    @cached_property
    def interior(self):
        return drop_incident_edges(*self._edges, np.flatnonzero(self.boundary_mask))

    def run(self, root, limit=np.inf):
        """Distances from ``root`` on the interior matrix, reusing the latest run."""
        root = int(root)
        if self._last is None or self._last[:2] != (root, limit):
            self._last = (root, limit, distances_from(self.interior, root, limit=limit))
        return self._last[2]

    def known(self, ia, ib):
        """Memoised distance between two indices, or None."""
        return self._memo.get((min(ia, ib), max(ia, ib)))

    def distance(self, ia, ib, bound=None):
        """Distance between two indices, ``inf`` when not connected.
        ``bound``, a known upper bound on it, only limits the run."""
        if ia == ib:
            return 0.0
        value = self.known(ia, ib)
        return self._reach(ia, ib, bound)[3] if value is None else value

    def geodesic(self, ia, ib, bound=None):
        """(distance, path from ``ia`` to ``ib``) for distinct indices; the
        path is None when they are not connected."""
        known = self.known(ia, ib)
        root, other, dist, value = self._reach(
            ia, ib, bound if known is None else known)
        if not np.isfinite(value):
            return value, None
        if self.boundary_mask[other]:
            dist = dist.copy()
            dist[other] = value
        path = extract_path(self.full, dist, root, other)
        return value, (path if path[0] == ia else path[::-1].copy())

    def _target_value(self, dist, other):
        if not self.boundary_mask[other]:
            return float(dist[other])
        lo, hi = self.full.indptr[other], self.full.indptr[other + 1]
        return float(np.min(dist[self.full.indices[lo:hi]] + self.full.data[lo:hi],
                            initial=np.inf))

    def _reach(self, ia, ib, bound):
        """(root, other, dist, value) of a run rooted at the smaller index
        that reaches the other one, or of a full run."""
        root, other = min(int(ia), int(ib)), max(int(ia), int(ib))
        # a curve length summed in another order may sit a few ulps below the
        # run's value; the slack only widens the run
        limits = self._schedule if bound is None else [bound * (1.0 + 1e-9)]
        last = self._last
        if last is not None and last[0] == root:
            # the latest run from this root answers if it reached the target
            limits = [last[1]] + [lim for lim in limits if lim > last[1]]
        for limit in limits + [np.inf]:
            dist = self.run(root, limit)
            value = self._target_value(dist, other)
            if value <= limit:
                break
        self._memo[(root, other)] = value
        if len(self._memo) > self.MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        return root, other, dist, value

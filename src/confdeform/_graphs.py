"""Shortest-path plumbing shared by the rest of the package.

Everything here operates on plain CSR matrices and integer vertex indices.
Vertex ids and a domain's edge-id CSR, over which each metric gathers its
lengths (:class:`MetricView`), live one level up, in :mod:`confdeform.domain`.
A run through the open domain reads the full matrix and skips the vertices
of a ``blocked`` mask: bit for bit a run on ``drop_incident_edges(full, blocked)``.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import operator
import os
import queue
import subprocess
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
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
    flags = ["-O2", "-ffp-contract=off", "-fno-math-errno", "-shared", "-fPIC"]
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
    i32, i64, f64, p = ctypes.c_int32, ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
    kernel.cd_dijkstra.argtypes = [i32, p, p, p, i32, p, f64, i32, p, p, p, i32, p,
                                   i32, p, p, i64, f64, p, p, p]
    kernel.cd_kappa.argtypes, kernel.cd_kappa.restype = [i32, p, p, p, p], f64
    kernel.cd_walk.argtypes = [i32, p, p, p, p, i64, i32, p, p]
    kernel.cd_scan.argtypes = [ctypes.c_char_p, i64, p, p, p, p, p, p, p]
    kernel.cd_dijkstra.restype = kernel.cd_walk.restype = i32
    kernel.cd_scan.restype = ctypes.c_int
    return kernel


_kernel = _load_kernel()
_MAX_FIELDS = ctypes.c_int32.in_dll(_kernel, "cd_max_fields").value if _kernel else 0


def _ptr(arr, dtype, size=0):
    """The address of ``arr``, a C-contiguous ``dtype`` array of at least ``size``
    entries (or a TypeError), for a call during which the caller holds ``arr``.
    numpy builds a ctypes view to read it, which can cost more than a small
    run, so an array that lives across calls has it taken once, as a pin
    (:meth:`_Binding.pin`)."""
    if arr.dtype != dtype or not arr.flags.c_contiguous or arr.size < size:
        raise TypeError(f"the kernel takes big enough C-contiguous {np.dtype(dtype)} arrays")
    return arr.ctypes.data


class _Binding:
    """What the kernel takes of one float64 CSR matrix of int32 indices, kept
    on the matrix (:func:`_csr`): ``args``, its ``(n, indptr, indices, data)``
    as addresses, and the pins of the long-lived arrays that calls on it
    pass beside it.  It refers to every array weakly, so it keeps none of
    them alive: a pin dies with its array, and the matrix's own arrays are
    told apart from ones rebound in their place by identity."""

    __slots__ = ("arrays", "args", "pins")

    def __init__(self, adj, pins):
        self.arrays = tuple(map(weakref.ref, (adj.indptr, adj.indices, adj.data)))
        self.args = (adj.shape[0], _ptr(adj.indptr, "i4", adj.shape[0] + 1),
                     _ptr(adj.indices, "i4"), _ptr(adj.data, "f8", adj.indices.size))
        self.pins = pins  # id(array) -> (weak reference, dtype, size, address)

    def holds(self, adj):
        indptr, indices, data = self.arrays
        return indptr() is adj.indptr and indices() is adj.indices and data() is adj.data

    def pin(self, *arrays):
        """Take the address of each C-contiguous array of ``arrays`` once, for
        every later call on this matrix that passes that array."""
        pins = {key: pin for key, pin in self.pins.items() if pin[0]() is not None}
        for arr in arrays:
            if arr is not None and arr.flags.c_contiguous:
                pins[id(arr)] = (weakref.ref(arr), arr.dtype, arr.size,
                                 _ptr(arr, arr.dtype))
        self.pins = pins  # one assignment: a worker thread reads either dict whole

    def at(self, arr, dtype, size=0):
        """:func:`_ptr` of ``arr``, read from its pin where it has one."""
        pin = self.pins.get(id(arr))
        if pin is not None and pin[0]() is arr and pin[1] == dtype and pin[2] >= size:
            return pin[3]
        return _ptr(arr, dtype, size)


def _csr(adj):
    """The :class:`_Binding` of ``adj``, kept on it as ``_binding`` and made
    anew (keeping its pins) once ``adj`` holds other arrays than it was made
    from; None where scipy runs: no kernel, or not a float64 CSR matrix of
    int32 indices.  The kernel checks the vertex indices it is given."""
    if _kernel is None:
        return None
    binding = getattr(adj, "_binding", None)
    if binding is not None and binding.holds(adj):
        return binding
    if (getattr(adj, "format", None) != "csr" or adj.indices.dtype != np.int32
            or adj.data.dtype != np.float64):
        return None
    adj._binding = binding = _Binding(adj, {} if binding is None else binding.pins)
    return binding


def _pin(adj, *arrays):
    """Pin ``arrays`` (:meth:`_Binding.pin`) to ``adj`` where the kernel runs on it."""
    binding = _csr(adj)
    if binding is not None:
        binding.pin(*arrays)


def _check_range(n, *vertices):
    """Raise IndexError unless every entry of ``vertices`` (indices or arrays
    of them) is in ``[0, n)``; the kernel checks its own, so this serves
    the scipy runs and walks."""
    if not all(((0 <= np.asarray(v)) & (np.asarray(v) < n)).all() for v in vertices):
        raise IndexError(f"vertex index out of range for {n} vertices")


def build_adjacency(n_vertices, edge_u, edge_v, edge_len):
    """Symmetric CSR of an undirected edge list's values, a repeat summed (a
    domain's holds edge ids plus one).  The coordinates are made in its index
    dtype, so scipy copies none: at 641,601 vertices it peaks at 146 MB."""
    index = np.int32 if n_vertices < 2**31 else np.int64
    rows = np.concatenate([edge_u, edge_v], dtype=index)
    cols = np.concatenate([edge_v, edge_u], dtype=index)
    vals = np.concatenate([edge_len, edge_len], dtype=np.float64)
    return csr_matrix((vals, (rows, cols)), shape=(n_vertices, n_vertices))


def distances_from(adj, source, limit=np.inf, stop=None, into=None, goal=None, blocked=None,
                   scratch=None):
    """Single-source distances; unreached vertices get ``inf``.  ``stop``,
    (members, offsets), ends the run once the heap minimum exceeds
    ``c = min(dist[members] + offsets)``: the array is then that of
    ``limit=c``, or steered by ``goal`` ((fields, coords, t, kappa) of
    ``_dijkstra.c``; fields: a C-contiguous float64 ``(n,)`` array or
    ``(n, k)`` block, one row per vertex), exact where it settled.
    ``into``, a :class:`RunBuffer`, takes the distances in place of a new
    array, and the kernel's ``c`` as its ``stop_value``.  ``blocked``, a
    bool mask, gives the run on ``drop_incident_edges(adj, blocked)``.
    ``scratch``, a float64 array of
    ``3 n`` entries that one run at a time may use, holds the kernel's heap
    in place of its own allocation.  scipy, run where the kernel cannot,
    ignores ``stop``, ``into``, ``goal`` and ``scratch``.

    A call costs what the kernel does plus a few µs of Python: the matrix's
    arguments and the addresses of pinned arrays (the views pin their mask,
    coordinates, steering fields and buffer) are read, not taken again, and
    the kernel checks ``source``, the stop members and ``t`` in range,
    raising IndexError here, before it reads any array."""
    return _distances(adj, source, limit, stop, into, goal, blocked, scratch)


def runs_from(adj, roots, limits=np.inf, blocked=None):
    """The arrays of :func:`distances_from` from each of ``roots``, up to its
    entry of ``limits`` (one limit for all, or one per root), through
    ``drop_incident_edges(adj, blocked)`` with a mask, yielded in root order.

    The kernel releases the interpreter lock, so the runs go to a pool of one
    thread per CPU this process may use, at most that many in flight, each
    worker with one more run queued, so that a run which ends behind a
    longer one leaves no worker idle.  This thread allocates each run's
    ``inf`` array (at most ``2 workers + 1`` are alive, counting the one the
    caller holds) and one scratch block per worker for the kernel's heap:
    arrays allocated on the workers went to glibc's per-thread malloc arenas
    and raised the peak RSS of ``confdeform check`` by 5-8 MB.  With one
    CPU, or where scipy runs (which holds the lock), the runs go here, one
    by one.  No thread outlives the generator.
    """
    roots = [int(r) for r in roots]
    limits = np.broadcast_to(np.asarray(limits, dtype=float), (len(roots),))
    csr = _csr(adj)
    workers = min(len(os.sched_getaffinity(0)), len(roots))
    if csr is None or workers < 2:
        for root, limit in zip(roots, limits):
            yield distances_from(adj, root, limit, blocked=blocked)
        return
    blocks = queue.SimpleQueue()  # no more runs in flight than blocks: none waits
    for _ in range(workers):
        blocks.put(np.empty(3 * csr.args[0]))

    def run(root, limit, into):
        scratch = blocks.get()
        try:  # looked up here, so a wrapped distances_from sees every run
            return distances_from(adj, root, limit, into=into, blocked=blocked,
                                  scratch=scratch)
        finally:
            blocks.put(scratch)

    pending = deque()
    with ThreadPoolExecutor(workers) as pool:
        try:
            for root, limit in zip(roots, limits):
                # RunBuffer(n, 0): an inf array and no order
                pending.append(pool.submit(run, root, limit, RunBuffer(csr.args[0], 0)))
                if len(pending) == 2 * workers:
                    yield pending.popleft().result()
        except BaseException:  # closed early, or a run raised: start no more
            pool.shutdown(cancel_futures=True)
            raise
    for future in pending:  # the last runs, ended as the pool shut down
        yield future.result()


def min_distance_field(adj, sources, blocked=None):
    """Distance from every vertex to the nearest vertex of ``sources`` (on
    ``drop_incident_edges(adj, blocked)`` with a mask): one multi-source
    sweep, much cheaper than a run per source."""
    sources = _vertices(sources)
    if sources.size == 0:
        raise ValueError("min_distance_field needs at least one source vertex")
    return _distances(adj, sources, blocked=blocked)


class RunBuffer:
    """An all-``inf`` distance array that kernel runs fill in place of a new
    one, with the first ``order.size`` vertices the latest run settled and
    how many it settled, so the next run can undo just those, and, after a
    kernel run with stop members, its stop value ``c`` (else None).  Whoever
    keeps one across calls pins its arrays to the matrix it runs on
    (:func:`_pin`), so that a call takes no address of theirs.

    ``dist`` and ``order`` share one allocation.  A small ``order`` of its
    own, made in the middle of a command and kept to its end, can pin the
    top of malloc's heap, so that the command's freed matrices stay
    resident: the peak RSS of repeated ``confdeform check`` runs then rose
    by 30 MB in about one run in four."""

    def __init__(self, n_vertices, capacity):
        self.shape = (n_vertices, capacity)
        self.stop_value = None
        self.renew()

    def renew(self):
        """Start on a clean array; the old one stays with whoever holds it."""
        n, capacity = self.shape
        block = np.full(n + (capacity + 1) // 2, np.inf)
        self.dist = block[:n]
        self.order = block[n:].view(np.int32)[:capacity]
        self.settled = 0

    def run(self, adj, root, **run):
        """(dist, settled) of ``distances_from(adj, root, into=self, **run)``,
        once the latest run's entries are reset: ``settled``, the part of
        ``order`` that lists the vertices it settled, is None where scipy
        ran or they overflowed the order, and ``dist`` is then an array of
        its own; a clean one, pinned to ``adj``, takes its place here."""
        self.dist[self.order[:self.settled]] = np.inf
        self.settled, self.stop_value = 0, None
        dist = distances_from(adj, root, into=self, **run)
        if self.settled > self.order.size:
            self.renew()
            _pin(adj, self.dist, self.order)
        return dist, self.order[:self.settled] if dist is self.dist else None


def _vertices(v):
    """``v``, a vertex index or an array of them, as the int64 array whose
    entries the kernel checks in range; IndexError where one cannot be an
    index (a float, or past 64 bits)."""
    v = np.asarray(v)
    if v.size and v.dtype.kind not in "biu":
        raise IndexError(f"vertex indices must be integers, not {v.dtype}")
    return np.ascontiguousarray(v, dtype=np.int64).reshape(-1)  # uint64 past 2**63: < 0


def _int64(v):
    """The integer ``v`` as the kernel's int64 scalars take it, which ctypes
    would wrap in silence past 64 bits (IndexError); the kernel checks its
    range."""
    v = operator.index(v)
    if not -2**63 <= v < 2**63:
        raise IndexError(f"vertex index {v} out of range")
    return v


def _distances(adj, roots, limit=np.inf, stop=None, into=None, goal=None, blocked=None,
               scratch=None):
    """Distances from the nearest of ``roots`` (one index, or an array of
    them), each starting at 0, through the kernel, or scipy where it cannot
    run (see :func:`distances_from`)."""
    members, offsets = (None, None) if stop is None else stop
    fields, xy, target, kappa = goal or (None, None, -1, 0.0)
    csr = _csr(adj)
    if csr is None:
        # the kernel's checks: t = -1 steers toward the fields' zeros
        _check_range(adj.shape[0], roots, () if members is None else members,
                     0 if target == -1 else target)
        return dijkstra(adj if blocked is None else drop_incident_edges(adj, blocked),
                        directed=True, indices=roots, limit=limit, min_only=True)
    n = csr.args[0]
    if fields is not None:
        if isinstance(fields, np.ndarray) and fields.ndim == 1:
            fields = fields[:, None]  # a view: one column
        if (not isinstance(fields, np.ndarray) or fields.ndim != 2 or len(fields) != n
                or fields.shape[1] > _MAX_FIELDS):
            raise TypeError(f"the kernel takes an ({n},) array or an ({n}, k) "
                            f"block of k <= {_MAX_FIELDS} fields")
    if isinstance(roots, np.ndarray):
        n_root, at_roots = len(roots), _ptr(roots, "i8")
    else:  # one root, passed by reference: no array to make
        n_root, at_roots = 1, ctypes.byref(ctypes.c_int64(_int64(roots)))
    n_stop, at_members, at_offsets = 0, None, None
    if members is not None:
        members = _vertices(members)
        offsets = np.asarray(offsets, dtype=float)
        if offsets.shape != members.shape or not offsets.flags.c_contiguous:
            offsets = np.ascontiguousarray(np.broadcast_to(offsets, members.shape))
        n_stop, at_members, at_offsets = len(members), _ptr(members, "i8"), _ptr(offsets, "f8")
    dist = np.full(n, np.inf) if into is None else into.dist
    n_order = 0 if into is None else len(into.order)
    stop_value = None if into is None or members is None else ctypes.c_double()
    settled = _kernel.cd_dijkstra(
        *csr.args, n_root, at_roots, limit, n_stop, at_members, at_offsets,
        csr.at(dist, "f8", n), n_order, csr.at(into.order, "i4") if n_order else None,
        0 if fields is None else fields.shape[1],
        None if fields is None else csr.at(fields, "f8"),
        None if xy is None else csr.at(xy, "f8", 2 * n), _int64(target), kappa,
        None if blocked is None else csr.at(blocked, "?", n),
        None if scratch is None else csr.at(scratch, "f8", 3 * n),
        None if stop_value is None else ctypes.byref(stop_value))
    if settled < 0:
        if settled == -2:
            raise IndexError(f"vertex index out of range for {n} vertices")
        raise MemoryError("no memory for a Dijkstra run")
    if into is not None:
        into.settled = settled
        into.stop_value = None if stop_value is None else stop_value.value
    return dist


_WALK = 1024  # the vertices a walk first makes room for; a longer one grows it 8-fold


def descend(adj, dist, start):
    """(vertex indices, entries of ``adj`` taken) of the walk from ``start`` down
    ``dist`` to the first vertex at 0, each step to the least-index neighbour u
    with ``dist[u] + w(u, v) == dist[v]`` (exact: the relaxation parent satisfies
    it).  On a run's array the walk ends at the root; on a
    :func:`min_distance_field`, at a nearest source by a shortest path.  The
    kernel walks into a buffer of ``_WALK`` vertices, made larger and walked
    again only for a longer walk."""
    errors = {-1: "no optimal predecessor found; distance array does not "
                  "match the adjacency matrix",
              -2: "path extraction cycled; inconsistent distances"}
    csr, n = _csr(adj), adj.shape[0]
    if csr is not None:
        dist = np.ascontiguousarray(dist, float)
        if dist.shape != (n,):
            raise ValueError(f"distance array of shape {dist.shape} for {n} vertices")
        at_dist, first, cap = csr.at(dist, "f8", n), _int64(start), min(n, _WALK)
        while True:
            walk = np.empty(2 * cap, dtype=np.int64)  # the path, then the entries
            at = _ptr(walk, "i8")
            k = _kernel.cd_walk(*csr.args, at_dist, first, cap, at, at + 8 * cap)
            if k != -2 or cap == n:
                break
            cap = min(n, 8 * cap)
        if k == -3:
            raise IndexError(f"vertex index {start} out of range for {n} vertices")
        if k == -4:
            raise ValueError(f"vertex {start} has no finite distance to walk down")
        if k < 0:
            raise RuntimeError(errors[k])
        return walk[:k].copy(), walk[cap:cap + k - 1].copy()
    start = int(start)
    _check_range(n, start)
    if not np.isfinite(dist[start]):
        raise ValueError(f"vertex {start} has no finite distance to walk down")
    path, entries = [start], []
    while dist[path[-1]] != 0:
        lo, hi = adj.indptr[path[-1]], adj.indptr[path[-1] + 1]
        nbrs = adj.indices[lo:hi]
        exact = np.flatnonzero(dist[nbrs] + adj.data[lo:hi] == dist[path[-1]])
        if exact.size == 0 or len(path) == n:
            raise RuntimeError(errors[-1 if exact.size == 0 else -2])
        entries.append(lo + int(exact[np.argmin(nbrs[exact])]))
        path.append(int(adj.indices[entries[-1]]))
    return np.asarray(path, dtype=np.int64), np.asarray(entries, dtype=np.int64)


def extract_path(adj, dist, source, target):
    """A shortest path ``source -> target``: :func:`descend` from ``target`` on
    the array of a run rooted at ``source``, reversed; it must end there."""
    path = descend(adj, dist, target)[0]
    if path[-1] != int(source):
        raise RuntimeError(f"the walk ended at vertex {path[-1]}, "
                           f"not at the source {source}")
    return path[::-1].copy()


def edge_lengths_along(pattern, path, *data):
    """Per-step lengths of a vertex index path no walk took (a walk's entries
    give its steps), one array per ``data`` over the entries of the canonical
    CSR ``pattern`` (as each view's ``full.data`` over the domain's edge
    ids): at the entry of row ``u`` that names ``v``, for each step
    ``u -> v``, found by one scan of the steps' rows side by side.  Raises if
    an index is out of range or two consecutive vertices are not adjacent."""
    path, n = np.asarray(path, dtype=np.int64), pattern.shape[0]
    if path.size and (path.min() < 0 or path.max() >= n):
        raise IndexError(f"vertex index out of range for {n} vertices")
    u, v = path[:-1], path[1:]
    lo, hi = pattern.indptr[u], pattern.indptr[u + 1]
    pos = lo[:, None] + np.arange(np.max(hi - lo, initial=0))  # row u's entries, padded
    hit = (pos < hi[:, None]) & (pattern.indices[np.minimum(pos, pattern.nnz - 1)]
                                 == v[:, None])
    found = hit.any(axis=1)
    if not found.all():
        i = int(np.argmin(found))
        raise ValueError(f"vertices {path[i]} and {path[i + 1]} are not adjacent")
    return tuple(d[pos[hit]] for d in data)  # one hit per row: a canonical pattern


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
    mat = np.stack([dist[vertices] for dist in runs_from(adj, vertices)])
    mat = np.minimum(mat, mat.T)
    np.fill_diagonal(mat, 0.0)
    for _ in range(len(vertices) + 1):
        relaxed = np.minimum(mat, (mat[:, :, None] + mat[None, :, :]).min(axis=1))
        if (relaxed == mat).all():
            return mat
        mat = relaxed
    raise RuntimeError("min-plus closure failed to stabilise")


def drop_incident_edges(adj, blocked):
    """Source-directed adjacency: every edge *into* a blocked vertex is dropped.

    A blocked vertex keeps its out-edges, so a run may leave one but never
    enter one: from a blocked root it is the graph without the other blocked
    vertices.  Rows of unblocked vertices are those of the undirected graph
    with the blocked vertices removed, entry for entry (``blocked`` is a mask).
    The matrix a ``blocked`` run equals bit for bit, which the kernel never builds.
    """
    keep = ~blocked[adj.indices]
    # kept entries before each position, in the index dtype the kernel takes
    count = np.zeros(adj.nnz + 1, dtype=adj.indptr.dtype)
    np.cumsum(keep, dtype=count.dtype, out=count[1:])
    return csr_matrix((adj.data[keep], adj.indices[keep], count[adj.indptr]),
                      shape=adj.shape)


class MetricView:
    """Queries through the open domain under one edge-length assignment.

    Its one CSR, ``full``, gathers per-edge lengths over the domain's edge-id
    CSR, sharing its index arrays; runs skip the boundary vertices by the
    mask, as on ``interior`` (built per read, kept nowhere).  Holds arrays
    only, never the domain.  A pair query is one run from the smaller index,
    steered toward the target (:meth:`_goal`) and stopped at its value: the
    least ``dist[u] + w(u, t)`` over its neighbours in the full CSR (where
    other boundary vertices hold ``inf``), for interior and boundary targets
    alike; paths are extracted there too.  Pair answers are kept, no array
    per root (5 MB each at 641k vertices).

    The pair potential is the largest of ``|f[v] - f[t]|`` over the columns
    of ``pair_fields`` and the chord bound.  That ``(n, 1 + landmarks)``
    block, one row per vertex, holds ``boundary_field`` in column 0 and the
    distances from ``landmarks`` landmark vertices of the full matrix,
    picked by farthest-point selection (Goldberg and Harrelson, 2005): the
    first farthest from the deepest vertex, each next farthest from those
    picked.  They bound sideways distance where the chord bound cannot, as
    under the deformed metric, whose least length per chord is tiny; the
    first steered pair query builds them.

    Stopped runs and balls fill one :class:`RunBuffer` of the view, so a
    run that settles a few vertices costs that few, not ``n``: before the
    next run the view resets the entries the latest one settled.  A run
    that settled more than ``n / 16`` (cheaper to replace than to undo
    entry by entry) keeps its array, and a clean one takes its place in
    the same call.  One reuse rule: the view reads back only the latest
    stopped run it made (:meth:`nearest`), in its buffer or that kept
    array, and only for a stopped query with the same root and goal.
    What :meth:`run` and :meth:`runs` return is the caller's alone.
    """

    MEMO_SIZE = 256

    def __init__(self, edges, lengths, boundary_mask, frontier_idx=(), coords=None,
                 landmarks=6):
        self.full = csr_matrix((lengths[edges.data - 1], edges.indices, edges.indptr),
                               shape=edges.shape)
        self.boundary_mask = boundary_mask
        self.frontier_idx = np.asarray(frontier_idx, dtype=np.int64)
        self.coords = None if coords is None else np.ascontiguousarray(coords, float)
        _pin(self.full, boundary_mask, self.coords)
        self._memo = {}  # (root, other) -> distance, oldest first
        self._last = None  # (root, goal, dist) of the latest stopped run
        self._steers = {}  # field name -> the block of its fields that may steer, or None
        self.landmarks = landmarks

    @cached_property
    def boundary_field(self):  # through the boundary is never shorter
        field = min_distance_field(self.full, np.flatnonzero(self.boundary_mask))
        field.flags.writeable = False  # as every field the view hands out
        return field

    @cached_property
    def pair_fields(self):
        """The block of ``boundary_field`` and the landmark fields (see the
        class docstring), each sweep written into its column as it ends, the
        distance to the landmarks so far kept in one array; ``boundary_field``
        then reads column 0, so no second copy of it stays."""
        def farthest(field):
            return [int(np.argmax(np.where(np.isfinite(field), field, -1.0)))]
        if not self.landmarks:
            return self.boundary_field[:, None]
        block = np.empty((self.full.shape[0], 1 + self.landmarks))
        block[:, 0] = self.boundary_field
        near = min_distance_field(self.full, farthest(block[:, 0]))  # the seed sweep
        for i in range(1, block.shape[1]):
            block[:, i] = min_distance_field(self.full, farthest(near))
            if i == 1:  # the seed is no landmark
                np.copyto(near, block[:, 1])
            else:
                np.minimum(near, block[:, i], out=near)
        block.flags.writeable = False
        self.boundary_field = block[:, 0]
        return block

    interior = property(lambda self: drop_incident_edges(self.full, self.boundary_mask))

    @cached_property
    def frontier_field(self):  # escapes walk it
        field = min_distance_field(self.full, self.frontier_idx, self.boundary_mask)
        field.flags.writeable = False
        _pin(self.full, field)
        return field

    @cached_property
    def _kappa(self):
        """``cd_kappa`` of the coordinates; 0 without them or the kernel."""
        csr = self.coords is not None and _csr(self.full)
        return _kernel.cd_kappa(*csr.args, csr.at(self.coords, "f8", 2 * csr.args[0])
                                ) if csr else 0.0

    def _goal(self, name, target):
        """The kernel's goal toward vertex ``target`` (-1: the fields' zeros)
        by the coordinates and the field or block of fields ``name`` names,
        less each field whose largest finite value exceeds 2**30 times the
        least edge (the margin of 2**-10 per edge must dwarf the rounding of
        the keys): the block itself, or a compacted copy when one is left
        out; None when no field is left."""
        if name not in self._steers:
            fields, least = getattr(self, name), np.min(self.full.data, initial=np.inf)
            fields = fields.reshape(len(fields), -1)
            keep = least >= 2.0 ** -30 * np.max(fields, axis=0, initial=0.0,
                                                 where=np.isfinite(fields))
            self._steers[name] = (None if not keep.any() else fields if keep.all()
                                  else np.ascontiguousarray(fields[:, keep]))
            _pin(self.full, self._steers[name])
        fields = self._steers[name]
        return None if fields is None else (fields, self.coords, target, self._kappa)

    @cached_property
    def _buffer(self):
        buf = RunBuffer(self.full.shape[0], self.full.shape[0] // 16)
        _pin(self.full, buf.dist, buf.order)
        return buf

    def run(self, root, limit=np.inf):
        """Distances from ``root`` through the open domain, up to ``limit``,
        in a new array the caller owns; the view keeps no hold on it."""
        return distances_from(self.full, root, limit, blocked=self.boundary_mask)

    def runs(self, roots, limits=np.inf):
        """The arrays of :meth:`run` from each of ``roots``, up to its entry
        of ``limits`` (one limit for all, or one per root), yielded in root
        order by :func:`runs_from`; the caller owns them, as :meth:`run`'s."""
        return runs_from(self.full, roots, limits, self.boundary_mask)

    def ball(self, root, limit):
        """(vertices, distances) of the vertices a run from ``root`` through
        the open domain settles up to ``limit``, as :meth:`run` gives them,
        in new arrays the caller owns: the run fills the view's buffer and
        hands out the vertices it settled (in settling order, or by index
        where they overflow the buffer's order or scipy ran)."""
        self._last = None  # the buffer holds no stopped run now
        dist, settled = self._buffer.run(self.full, root, limit=limit,
                                         blocked=self.boundary_mask)
        vertices = (np.flatnonzero(np.isfinite(dist)) if settled is None
                    else settled.astype(np.int64))
        return vertices, dist[vertices]

    def nearest(self, root, members, offsets=0.0, goal=None):
        """(dist, c) of a run from ``root`` stopped at the least ``c = dist[m]
        + offset`` over the members, exact up to ``c`` (``inf`` when no member
        is reached), or steered by ``goal`` (:meth:`_goal`'s arguments), exact
        where it settled.  The next such query with the same root and goal,
        not None, reads ``c`` back from this run (a geodesic after its
        pair's distance, a repeated escape).  ``dist`` may be the view's
        buffer: valid until the view's next run, and not to be written."""
        root, last = int(root), self._last
        if goal is not None and last is not None and last[:2] == (root, goal):
            _check_range(len(last[2]), members)  # numpy reads a negative index from the end
            return last[2], float((last[2][members] + offsets).min(initial=np.inf))
        steer = goal and _kernel and self._goal(*goal)  # scipy ignores goals
        dist = self._buffer.run(self.full, root, stop=(members, offsets), goal=steer,
                                blocked=self.boundary_mask)[0]
        c = self._buffer.stop_value  # the kernel's: each member's g + offset, as numpy adds
        if c is None:  # scipy ran
            c = float((dist[members] + offsets).min(initial=np.inf))
        self._last = (root, goal, dist)
        return dist, c

    def distance(self, ia, ib):
        """Distance between two indices, ``inf`` when not connected."""
        if ia == ib:
            return 0.0
        value = self._memo.get((min(ia, ib), max(ia, ib)))
        return self._reach(ia, ib)[3] if value is None else value

    def geodesic(self, ia, ib):
        """(distance, path from ``ia`` to ``ib``, the entries of ``full`` its
        steps take, each in either end's row) for distinct indices; path and
        entries are None when they are not connected."""
        root, other, dist, value = self._reach(ia, ib)
        if not np.isfinite(value):
            return value, None, None
        saved = dist[other]
        if self.boundary_mask[other]:
            # the run never enters a boundary target: the walk starts at
            # its value, put in for the walk only
            dist[other] = value
        try:  # down to the root, the one vertex at 0
            path, entries = descend(self.full, dist, other)
        finally:
            dist[other] = saved
        step = 1 if other == ia else -1
        return value, path[::step].copy(), entries[::step].copy()

    def _reach(self, ia, ib):
        """(root, other, dist, value) of the run from the smaller index
        stopped at, and steered toward, the other one."""
        root, other = min(int(ia), int(ib)), max(int(ia), int(ib))
        row = slice(self.full.indptr[other], self.full.indptr[other + 1])
        dist, value = self.nearest(root, self.full.indices[row], self.full.data[row],
                                   ("pair_fields", other))
        self._memo[(root, other)] = value
        if len(self._memo) > self.MEMO_SIZE:
            del self._memo[next(iter(self._memo))]
        return root, other, dist, value

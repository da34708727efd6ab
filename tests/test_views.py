"""The shared query engine: exact equivalence with rebuilt matrices, exact
bounded runs, and no rebuilt matrix or repeated run on a warm domain."""

import contextlib
import io
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix, issparse
from scipy.sparse.csgraph import dijkstra

from confdeform import _graphs, cli, synthesis
from confdeform.curves import Curve, subcurve_excess_ratio, uniformity_constant
from confdeform.deform import deform
from confdeform.domain import MetricDomain, generate_domain, half_plane
from confdeform.weight import WeightFunction, derive_constants

W2 = WeightFunction.power(2)

SMALL_SPECS = [
    "half_plane:width=2,depth=2,h=1,conn=4",
    "half_plane:width=3,depth=2,h=1,conn=8",
    "half_plane:width=4,depth=3,h=1,conn=8",
    "half_plane:width=2,depth=3,h=0.5,conn=8",
    "strip:width=4,h=1,conn=4",
    "strip:width=3,h=0.5,conn=8",
    "slit_plane:depth=1,h=1,conn=4",
    "slit_plane:depth=1,h=1,conn=8",
]


def _edges(spec, metric, seed):
    dom = generate_domain(spec)
    if metric == "base":
        w = dom.edge_len
    elif metric == "phi":
        w = deform(dom, W2).edge_len_phi
    else:
        w = np.random.default_rng(seed).uniform(0.5, 1.5, dom.n_edges)
    return dom.n_vertices, dom.edge_u, dom.edge_v, w, dom.boundary_idx


def _view(edges, dom=None):
    """The view a domain makes of these edges: their lengths over the
    edge-id pattern, a read-only boundary mask, and the frontier and
    coordinates of ``dom`` when it is given."""
    n, eu, ev, w, boundary = edges
    mask = np.zeros(n, dtype=bool)
    mask[boundary] = True
    mask.flags.writeable = False
    placed = () if dom is None else (dom.frontier_idx, dom.coords)
    ids = _graphs.build_adjacency(n, eu, ev, np.arange(1, eu.size + 1)).astype(np.int32)
    return _graphs.MetricView(ids, w, mask, *placed)


def _rebuilt(n, eu, ev, w, boundary, ia, ib):
    """Distance and path on a matrix rebuilt for the query: boundary
    vertices isolated except the two endpoints, rooted at the smaller."""
    blocked = np.zeros(n, dtype=bool)
    blocked[boundary] = True
    blocked[[ia, ib]] = False
    ok = ~(blocked[eu] | blocked[ev])
    rows = np.concatenate([eu[ok], ev[ok]])
    cols = np.concatenate([ev[ok], eu[ok]])
    adj = csr_matrix((np.concatenate([w[ok], w[ok]]), (rows, cols)), shape=(n, n))
    root, other = min(ia, ib), max(ia, ib)
    dist = dijkstra(adj, directed=True, indices=root)
    if not np.isfinite(dist[other]):
        return dist[other], None
    path = _graphs.extract_path(adj, dist, root, other)
    return dist[other], path if path[0] == ia else path[::-1]


def _same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _exact_to(dist, full, c):
    """Whether ``dist`` is the array of a run exact up to a radius of at
    least ``c``: ``full`` up to that radius, ``inf`` beyond it."""
    r = max(c, np.max(dist, initial=-np.inf, where=np.isfinite(dist)))
    return _same(dist, np.where(full <= r, full, np.inf))


def _py_walk(adj, dist, source, target):
    """The canonical predecessor walk in plain Python: from the target back,
    the smallest u with ``dist[u] + w(u, v) == dist[v]``."""
    path = [target]
    while path[-1] != source:
        lo, hi = adj.indptr[path[-1]], adj.indptr[path[-1] + 1]
        nbrs = adj.indices[lo:hi]
        exact = dist[nbrs] + adj.data[lo:hi] == dist[path[-1]]
        path.append(int(nbrs[exact].min()))
    return path[::-1]


def _pair_suite(spec, metric, seed):
    # pair runs are steered by the boundary field alone, and by the field
    # and the coordinates (kappa < 1 under the random metric at h = 1)
    edges = _edges(spec, metric, seed)
    for dom in (None, generate_domain(spec)):
        _every_pair(edges, dom)


def _masked_runs(edges, dom):
    """Every rooted run of a view, boundary roots included, bounded,
    stopped at the frontier and steered there, and its frontier field,
    bitwise against scipy on the source-directed reference: the view's
    full matrix without the entries into boundary vertices."""
    view = _view(edges, dom)
    ref = _graphs.drop_incident_edges(view.full, view.boundary_mask)
    frontier = view.frontier_idx
    if frontier.size:
        assert _same(view.frontier_field, dijkstra(ref, indices=frontier, min_only=True))
    for root in range(edges[0]):
        full = dijkstra(ref, indices=root)
        if frontier.size:
            c = np.min(full[frontier])
            dist, got = _view(edges, dom).nearest(root, frontier)
            assert got == c and _exact_to(dist, full, c)
            dist, got = view.nearest(root, frontier, goal=("frontier_field", -1))
            reached = np.isfinite(dist)
            assert got == c and _same(dist[reached], full[reached])
        assert _same(view.run(root), full)
        for limit in np.unique(full[np.isfinite(full)])[::2]:
            assert _same(view.run(root, limit), dijkstra(ref, indices=root, limit=limit))


def _every_pair(edges, dom):
    n = edges[0]
    _masked_runs(edges, dom)
    for ia in range(n):
        for ib in range(ia + 1, n):
            want, want_path = _rebuilt(*edges, ia, ib)
            # a fresh view per comparison, so no memo can answer
            got = _view(edges, dom).distance(ia, ib)
            assert got == want or (math.isinf(got) and math.isinf(want))
            view = _view(edges, dom)
            val, path, _ = view.geodesic(ia, ib)
            assert val == got or (math.isinf(val) and math.isinf(want))
            if want_path is None:
                assert path is None
                continue
            assert path.tolist() == want_path.tolist()
            # reversed, the latest run answers, and the path comes back
            # oriented from the first argument
            assert view.geodesic(ib, ia)[1].tolist() == want_path[::-1].tolist()


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(["base", "phi", "random"]),
       st.integers(min_value=0, max_value=10_000))
def test_view_matches_rebuilt_matrix_on_every_pair(spec, metric, seed):
    _pair_suite(spec, metric, seed)


@settings(max_examples=8, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(["base", "phi", "random"]),
       st.integers(min_value=0, max_value=10_000))
def test_view_matches_rebuilt_matrix_without_the_kernel(spec, metric, seed):
    # scipy runs on, past the stop set, and the Python walk takes the paths
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_graphs, "_kernel", None)
        _pair_suite(spec, metric, seed)


@pytest.mark.parametrize("engine", ["kernel", "scipy"])
def test_view_matches_rebuilt_matrix_with_coincident_vertices(engine, monkeypatch):
    # a 3 x 3 grid over a boundary row, and a tenth vertex at the centre's
    # coordinates: their edge has no chord, and kappa comes from the others
    xy = np.array([(x, y) for y in range(3) for x in range(3)] + [(1, 1)], float)
    eu = np.array([0, 1, 3, 4, 6, 7, 0, 1, 2, 3, 4, 5, 4, 9, 9, 9])
    ev = np.array([1, 2, 4, 5, 7, 8, 3, 4, 5, 6, 7, 8, 9, 2, 6, 8])
    w = np.random.default_rng(7).uniform(0.5, 1.5, eu.size)
    w[12] = 0.25
    dom = MetricDomain(ids=np.arange(10), coords=xy, edge_u=eu, edge_v=ev,
                       edge_len=w, boundary_idx=np.arange(3), frontier_idx=[7])
    chord = np.sqrt(np.sum((xy[eu] - xy[ev]) ** 2, axis=1))
    assert chord[12] == 0.0
    want = np.min(np.delete(w, 12) / np.delete(chord, 12)) if _graphs._kernel else 0.0
    assert dom.view._kappa == want < 1.0
    if engine == "scipy":
        monkeypatch.setattr(_graphs, "_kernel", None)
    _every_pair((10, eu, ev, w, dom.boundary_idx), dom)


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(["base", "phi", "random"]),
       st.integers(min_value=0, max_value=10_000))
def test_bounded_runs_are_exact_where_they_reach(spec, metric, seed):
    edges = _edges(spec, metric, seed)
    for root in range(edges[0]):
        full = _view(edges).run(root)
        for limit in np.unique(full[np.isfinite(full)]):
            bounded = _view(edges).run(root, limit)
            reached = np.isfinite(bounded)
            assert (bounded[reached] == full[reached]).all()
            assert (full[~reached] > limit).all()


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(["base", "phi", "random"]),
       st.integers(min_value=0, max_value=10_000))
def test_kernel_runs_and_walks_match_scipy(spec, metric, seed):
    edges = _edges(spec, metric, seed)
    view = _view(edges)
    frontier = generate_domain(spec).frontier_idx
    interior = view.interior
    # the kernel on the interior reference, and on the full matrix with the
    # boundary mask, each bitwise against scipy on the reference
    inputs = ((interior, None), (view.full, view.boundary_mask))
    for root in range(edges[0]):
        full = dijkstra(interior, directed=True, indices=root)
        # stop sets: each pair target's full row (interior and boundary
        # targets alike), and the frontier at offset 0
        stops = [(view.full.indices[view.full.indptr[t]:view.full.indptr[t + 1]],
                  view.full.data[view.full.indptr[t]:view.full.indptr[t + 1]])
                 for t in range(edges[0]) if t != root]
        if frontier.size:
            stops.append((frontier, np.zeros(frontier.size)))
        for adj, blocked in inputs:
            assert _same(_graphs.distances_from(adj, root, blocked=blocked), full)
            for limit in np.unique(full[np.isfinite(full)])[::3]:
                assert _same(_graphs.distances_from(adj, root, limit, blocked=blocked),
                             dijkstra(interior, directed=True, indices=root,
                                      limit=limit))
            for members, offsets in stops:
                c = np.min(full[members] + offsets)
                got = _graphs.distances_from(adj, root, stop=(members, offsets),
                                             blocked=blocked)
                want = (full if np.isinf(c) else
                        dijkstra(interior, directed=True, indices=root, limit=c))
                assert _same(got, want)
        for target in np.flatnonzero(np.isfinite(full)):
            path = _graphs.extract_path(view.full, full, root, int(target))
            assert path.tolist() == _py_walk(view.full, full, root, int(target))


# -- one view's runs leave nothing behind -------------------------------------


@pytest.mark.parametrize("metric", ["base", "phi", "random"])
@pytest.mark.parametrize("seed", [0, 1])
def test_one_view_keeps_no_state_between_runs(metric, seed):
    # on one view, in a seeded order: pair runs that settle a few vertices
    # (undone entry by entry) and pair runs across the grid (more than
    # n / 16, so the array is handed off), boundary targets, frontier runs,
    # bounded runs, and kernel runs with and without a stop set; each
    # answer is checked against a fresh scipy run
    spec = "half_plane:width=4,depth=8,h=0.25,conn=8"
    edges = _edges(spec, metric, seed)
    n, boundary = edges[0], edges[4]
    view = _view(edges)
    dom = generate_domain(spec)
    frontier, y = dom.frontier_idx, dom.coords[:, 1]
    interior = np.flatnonzero(~view.boundary_mask)
    low, high = interior[y[interior] < 1.0], interior[y[interior] > 6.0]
    rng = np.random.default_rng(seed)

    def full_from(root, **kwargs):
        return dijkstra(view.interior, directed=True, indices=root, **kwargs)

    def row(v):
        lo, hi = view.full.indptr[v], view.full.indptr[v + 1]
        return view.full.indices[lo:hi], view.full.data[lo:hi]

    def pair():
        kind = rng.integers(4)
        if kind == 0:  # a neighbour, boundary ones included
            a = int(rng.choice(interior))
            return a, int(rng.choice(row(a)[0]))
        if kind == 1:
            return int(rng.choice(low)), int(rng.choice(high))
        if kind == 2:  # a boundary root
            return int(rng.choice(boundary)), int(rng.choice(interior))
        a, b = rng.choice(boundary, size=2, replace=False)  # a boundary target
        return int(a), int(b)

    handed_off, buffer = 0, view._buffer.dist
    for _ in range(80):
        op = rng.integers(6)
        if op < 2:
            ia, ib = pair()
            want, want_path = _rebuilt(*edges, ia, ib)
            if op == 0:
                assert view.distance(ia, ib) == want
            else:
                val, path, _ = view.geodesic(ia, ib)
                assert val == want and path.tolist() == want_path.tolist()
            handed_off += view._buffer.dist is not buffer
            buffer = view._buffer.dist
        elif op == 2:
            root = int(rng.choice(interior))
            dist, c = view.nearest(root, frontier)
            full = full_from(root)
            assert c == np.min(full[frontier])
            assert _exact_to(dist, full, c)
        elif op == 3:
            root = int(rng.choice(n))
            full = full_from(root)
            limit = float(rng.uniform(0.0, np.max(full[np.isfinite(full)])))
            assert _same(view.run(root, limit), full_from(root, limit=limit))
        else:
            # a stopped kernel run, then straight away a run without a stop
            # set or a multi-source sweep
            root, target = int(rng.choice(n)), int(rng.choice(n))
            full = full_from(root)
            members, offsets = row(target)
            c = np.min(full[members] + offsets)
            got = _graphs.distances_from(view.interior, root, stop=(members, offsets))
            assert _same(got, full_from(root, limit=c))
            if op == 4:
                root = int(rng.choice(n))
                assert _same(_graphs.distances_from(view.interior, root), full_from(root))
            else:
                roots = rng.choice(n, size=3, replace=False)
                assert _same(_graphs.min_distance_field(view.interior, roots),
                             full_from(roots, min_only=True))
    # scipy, where the kernel cannot run, fills no buffer
    assert handed_off or _graphs._kernel is None


# -- a warm domain builds no matrix and repeats no run --------------------------


def _counted(monkeypatch, name):
    """Record every call of ``_graphs.<name>``; the list grows per call."""
    calls = []
    orig = getattr(_graphs, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return orig(*args, **kwargs)

    monkeypatch.setattr(_graphs, name, wrapper)
    return calls


@pytest.fixture
def warm():
    dom = half_plane(width=4, depth=8, h=0.25, conn=8)
    dd = deform(dom, W2)
    for matrix in (dom.adjacency, dom.adjacency_interior, dd.adjacency_phi,
                   dd.adjacency_phi_interior):
        assert matrix.nnz
    dd.frontier_field_phi
    return dom, dd


def test_boundary_endpoint_queries_build_no_matrix(warm, monkeypatch):
    dom, dd = warm
    builds = _counted(monkeypatch, "build_adjacency")
    drops = _counted(monkeypatch, "drop_incident_edges")
    b1, b2 = (int(dom.ids[i]) for i in dom.boundary_idx[[3, 9]])
    inner = dom.nearest_vertex(0.5, 2.0)
    for x, y in ((b1, inner), (inner, b2), (b1, b2)):
        assert dom.distance(x, y) > 0.0
        assert 0.0 < dd.dphi_distance(x, y) <= dom.distance(x, y)
        curve = dd.dphi_geodesic(x, y)
        assert (curve.start_id, curve.end_id) == (x, y)
        assert synthesis.uniform_curve_d(dd, x, y).end_id == y
    assert dd.dist_to_infinity(b1).upper > 0.0
    assert builds == [] and drops == []


def test_one_boundary_mask_per_domain(monkeypatch):
    dom = half_plane(width=4, depth=8, h=0.25, conn=8)
    builds = _counted(monkeypatch, "build_adjacency")
    drops = _counted(monkeypatch, "drop_incident_edges")
    mask = dom.boundary_mask
    assert builds == [] and drops == []
    assert mask is dom.boundary_mask and not mask.flags.writeable
    assert np.flatnonzero(mask).tolist() == sorted(dom.boundary_idx.tolist())
    dd = deform(dom, W2)
    assert dd.view.boundary_mask is mask and dom.view.boundary_mask is mask
    # the domain built its pattern when it was validated; each metric's runs
    # and fields read the mask, and no query drops an entry from a matrix
    b, x = int(dom.ids[dom.boundary_idx[3]]), dom.nearest_vertex(0.5, 2.0)
    assert dom.distance(b, x) > 0.0 and dd.dphi_geodesic(b, x).total_phi > 0.0
    assert dd.frontier_field_phi.size and dom.frontier_field.size
    assert dd.dist_to_infinity(b).upper > 0.0 and dd.dist_to_infinity(x).upper > 0.0
    assert builds == [] and drops == []
    # each view holds one matrix; the interior reference is built per read
    for view in (dom.view, dd.view):
        assert [a for a in vars(view).values() if issparse(a)] == [view.full]
        assert view.interior is not view.interior
    assert builds == [] and len(drops) == 4


def test_metrics_share_one_pattern(monkeypatch):
    builds = _counted(monkeypatch, "build_adjacency")
    drops = _counted(monkeypatch, "drop_incident_edges")
    dom = half_plane(width=4, depth=8, h=0.25, conn=8)
    assert len(builds) == 1 and dom.edge_ids.data.dtype == np.int32
    # three deformations, every view used: no build and no mask, and each
    # view's one matrix shares the pattern's index arrays
    for weight in (W2, WeightFunction.power(3), WeightFunction.power(2)):
        dd = deform(dom, weight)
        assert dd.dphi_distance(int(dom.ids[dom.boundary_idx[3]]),
                                dom.nearest_vertex(0.5, 2.0)) > 0.0
        assert dd.dphi_geodesic(dom.nearest_vertex(-1.5, 6.0),
                                dom.nearest_vertex(1.0, 0.5)).total_d > 0.0
        assert dd.frontier_field_phi.size and dom.frontier_field.size
        for view in (dom.view, dd.view):
            assert np.shares_memory(view.full.indices, dom.edge_ids.indices)
            assert np.shares_memory(view.full.indptr, dom.edge_ids.indptr)
    assert len(builds) == 1 and drops == []


def test_distance_then_geodesic_runs_once(warm, monkeypatch):
    dom, dd = warm
    runs = _counted(monkeypatch, "distances_from")
    x, y = dom.nearest_vertex(-1.5, 6.0), dom.nearest_vertex(1.0, 0.5)
    dphi = dd.dphi_distance(x, y)
    assert dd.dphi_geodesic(x, y).total_phi == dphi
    assert dd.dphi_distance(y, x) == dphi
    assert len(runs) == 1


def test_rebundle_reuses_the_base_pair(monkeypatch):
    heights = [0.0, 0.4, 0.4002, 1.0] + [float(2 ** k) for k in range(1, 13)]
    n = len(heights)
    ray = MetricDomain(
        ids=np.arange(n), coords=None, edge_u=np.arange(n - 1),
        edge_v=np.arange(1, n), edge_len=np.diff(heights),
        boundary_idx=np.array([0]), frontier_idx=np.array([n - 1]),
    )
    dd = deform(ray, W2)
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    runs = _counted(monkeypatch, "distances_from")
    in_rebundle = []
    rebundle = synthesis._maybe_rebundle

    def watched(*args):
        before = len(runs)
        out = rebundle(*args)
        in_rebundle.append(len(runs) - before)
        return out

    monkeypatch.setattr(synthesis, "_maybe_rebundle", watched)
    res = synthesis.synthesize(dd, bundle, 1, 10)
    assert res.case == "medium_inside"
    assert in_rebundle == [0]


@pytest.mark.parametrize("first_edge, meta", [(1.0, {"h": 0.0}), (1e-300, {})])
def test_limit_schedule_stays_short(first_edge, meta, monkeypatch):
    # neither a zero mesh size nor a tiny one (loaded domains take the
    # shortest edge) changes the query: one run, stopped at the target
    n = 200
    lens = np.ones(n - 1)
    lens[0] = first_edge
    path = MetricDomain(
        ids=np.arange(n), coords=None, edge_u=np.arange(n - 1),
        edge_v=np.arange(1, n), edge_len=lens, boundary_idx=np.array([0]),
        frontier_idx=np.arange(0), meta=meta,
    )
    runs = _counted(monkeypatch, "distances_from")
    assert path.distance(3, n - 1) == n - 4.0
    assert len(runs) == 1


def _limits(monkeypatch):
    """Record the limit of every run; the list grows per call."""
    limits = []
    orig = _graphs.distances_from

    def wrapper(adj, source, limit=np.inf, **kwargs):
        limits.append(limit)
        return orig(adj, source, limit, **kwargs)

    monkeypatch.setattr(_graphs, "distances_from", wrapper)
    return limits


def test_every_pair_query_makes_one_run(monkeypatch):
    dom = half_plane(width=4, depth=8, h=0.25, conn=8)
    pairs = [(dom.nearest_vertex(-1.0, 0.5), dom.nearest_vertex(-0.5, 0.75)),
             (dom.nearest_vertex(-1.75, 0.25), dom.nearest_vertex(1.75, 0.25)),
             (dom.nearest_vertex(-1.0, 4.0), dom.nearest_vertex(1.0, 6.0)),
             (int(dom.ids[dom.boundary_idx[5]]), dom.nearest_vertex(1.0, 3.0))]
    runs = _counted(monkeypatch, "distances_from")
    for ask in ("dphi_distance", "dphi_geodesic", "distance"):
        # a fresh domain per kind of query: no memo and no latest run
        fresh = deform(half_plane(width=4, depth=8, h=0.25, conn=8), W2)
        owner = fresh.domain if ask == "distance" else fresh
        view = owner.view
        for x, y in pairs:
            before = len(runs)
            got = getattr(owner, ask)(x, y)
            # the reversed pair is a repeat and makes no run
            getattr(owner, ask)(y, x)
            assert len(runs) == before + 1
            # the answer is that of a full scipy run from the smaller index
            ix, iy = sorted((dom.index(x), dom.index(y)))
            full = dijkstra(view.interior, indices=ix)
            lo, hi = view.full.indptr[iy], view.full.indptr[iy + 1]
            want = np.min(full[view.full.indices[lo:hi]] + view.full.data[lo:hi])
            assert (got.total_phi if ask == "dphi_geodesic" else got) == want


def test_curve_steps_are_looked_up_once(warm):
    dom, dd = warm
    # both metrics' matrices come from one edge list: one sparsity pattern
    assert (dom.adjacency.indptr == dd.adjacency_phi.indptr).all()
    assert (dom.adjacency.indices == dd.adjacency_phi.indices).all()
    # every curve the package walks (the geodesics of both metrics, to an
    # interior and to a boundary target, and both escapes) takes its steps'
    # edge ids from the entries of its walk, with the kernel and without
    for kernel in (_graphs._kernel, None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_graphs, "_kernel", kernel)
            _walked_curve_cases(deform(half_plane(width=4, depth=8, h=0.25, conn=8), W2))


def _walked_curve_cases(dd):
    dom = dd.domain
    x, y = dom.nearest_vertex(-1.5, 6.0), dom.nearest_vertex(1.0, 0.5)
    b = int(dom.ids[dom.boundary_idx[5]])
    walks = []  # (curve, (path, entries) of its walk, walked metric, its total)
    for u, v in ((x, y), (y, x), (y, b), (b, y)):  # the walk runs from the larger index
        iu, iv = dom.index(u), dom.index(v)
        walks.append((dd.dphi_geodesic(u, v), dd.view.geodesic(iu, iv)[1:], "phi",
                      dd.dphi_distance(u, v)))
        walks.append((synthesis.uniform_curve_d(dd, u, v), dom.view.geodesic(iu, iv)[1:],
                      "d", dom.distance(u, v)))
    for view, metric in ((dd.view, "phi"), (dom.view, "d")):
        # an escape's total is the fold of its steps from the start
        walk = _graphs.descend(view.full, view.frontier_field, dom.index(x))
        walks.append((synthesis._geodesic_to_frontier(dd, dom.index(x), metric == "phi"),
                      walk, metric, np.cumsum(view.full.data[walk[1]])[-1]))
    for curve, (path, entries), metric, total in walks:
        u, v = path[:-1], path[1:]
        assert curve.vertices.tolist() == path.tolist()
        ids = dom.edge_ids.data[entries] - 1
        assert ids.tolist() == (np.asarray(dom.edge_ids[u, v]).ravel() - 1).tolist()
        for adj, incr in ((dom.adjacency, curve.incr_d), (dd.adjacency_phi, curve.incr_phi)):
            assert _same(incr, np.asarray(adj[u, v]).ravel())
        sums = float(np.sum(curve.incr_d)), float(np.sum(curve.incr_phi))
        want = (sums[0], total) if metric == "phi" else (total, sums[1])
        assert curve.lengths() == want


def test_returned_arrays_outlive_later_queries(warm):
    dom, dd = warm
    view = dd.view
    b1, b2, b3 = (int(v) for v in dom.boundary_idx[[2, 7, 12]])
    inner = dom.index(dom.nearest_vertex(0.5, 2.0))
    kept = [view.run(b1), view.run(inner, 1.0), *view.ball(inner, 0.1),
            _graphs.distances_from(view.interior, b3)]
    # the last run above is the latest run: the boundary-target geodesic
    # from b1 reads it, and puts its target's value in for the walk only
    kept.append(view.run(b1))
    copies = [a.copy() for a in kept]
    assert view.geodesic(b1, b2)[1] is not None
    for x, y in ((b1, inner), (inner, b3), (b2, b3), (b1, b2)):
        view.distance(x, y)
        view.geodesic(y, x)
    view.nearest(inner, dom.frontier_idx)
    view.run(b2, 2.0)
    assert all(_same(a, b) for a, b in zip(kept, copies))


@pytest.mark.parametrize("engine", ["kernel", "scipy"])
def test_balls_are_the_settled_part_of_runs(engine, monkeypatch):
    # a ball is the finite part of the run bounded at its limit, bitwise:
    # balls that fit the buffer's order (n / 16 = 35 vertices here) and
    # balls past it, then pair queries that answer as on a fresh domain and
    # read the ball's run when it is exact that far
    if engine == "scipy":
        monkeypatch.setattr(_graphs, "_kernel", None)
    runs, reused = _counted(monkeypatch, "distances_from"), 0
    spec = "half_plane:width=4,depth=8,h=0.25,conn=8"
    dom, fresh = generate_domain(spec), generate_domain(spec)
    dd, fresh_dd = deform(dom, W2), deform(fresh, W2)
    inner = dom.index(dom.nearest_vertex(0.5, 2.0))
    foot = int(dom.boundary_idx[5])
    pairs = [(inner, dom.index(dom.nearest_vertex(0.75, 2.0))),
             (inner, dom.index(dom.nearest_vertex(-1.5, 6.0))),
             (foot, dom.index(dom.nearest_vertex(1.0, 3.0)))]
    for view, twin in ((dom.view, fresh.view), (dd.view, fresh_dd.view)):
        capacity = view._buffer.order.size
        assert capacity == dom.n_vertices // 16
        sizes = []
        for root, limit in ((inner, 0.3), (inner, 1.0), (foot, 0.5), (inner, np.inf)):
            ran = view.run(root, limit)
            vertices, dist = view.ball(root, limit)
            assert vertices.dtype == np.int64
            assert sorted(vertices.tolist()) == np.flatnonzero(np.isfinite(ran)).tolist()
            assert _same(dist, ran[vertices])
            sizes.append(vertices.size)
            # the buffer holds what a ball settled only while it fits
            fits = _graphs._kernel is not None and vertices.size <= capacity
            assert view._buffer.settled == (vertices.size if fits else 0)
            # each pair query right after a ball, some from the ball's root
            for ia, ib in pairs:
                want = twin.distance(ia, ib)
                view._memo.clear()
                view.ball(root, limit)
                before, value = len(runs), view.distance(ia, ib)
                assert value == want
                read = min(ia, ib) == root and value <= limit
                assert len(runs) == before + (not read)
                reused += read
                view.ball(root, limit)
                got, want = view.geodesic(ib, ia), twin.geodesic(ib, ia)
                assert got[0] == want[0] and _same(got[1], want[1])
        assert min(sizes) <= capacity < max(sizes)
    assert reused


def _subcurve_oracle(curve, metric):
    """The subcurve scan from unbounded runs and plain loops: the worst
    prefix or suffix constant over the whole-curve constant."""
    dd, vs = curve.dd, curve.vertices
    deformed = metric == "phi"
    view = dd.view if deformed else dd.domain.view
    clear = (dd.boundary_field_phi if deformed else dd.field.values)[vs]
    left = np.concatenate([[0.0], np.cumsum(curve.incr_phi if deformed else curve.incr_d)])
    dist_a = dijkstra(view.interior, indices=int(vs[0]))
    dist_b = dijkstra(view.interior, indices=int(vs[-1]))
    # interior endpoints: the run from the smaller index gives the distance
    d_ab = (dist_a if vs[0] < vs[-1] else dist_b)[max(vs[0], vs[-1])]
    whole = uniformity_constant(curve, metric, endpoint_distance=d_ab)
    worst, n = whole, len(vs)
    for i in range(2, n):
        if 0 < dist_a[vs[i]] < np.inf:
            arms = [min(left[j], left[i] - left[j]) / clear[j] for j in range(1, i)]
            worst = max(worst, left[i] / dist_a[vs[i]], max(arms))
    for i in range(n - 2):
        if 0 < dist_b[vs[i]] < np.inf:
            arms = [min(left[j] - left[i], left[-1] - left[j]) / clear[j]
                    for j in range(i + 1, n - 1)]
            worst = max(worst, (left[-1] - left[i]) / dist_b[vs[i]], max(arms))
    return worst / whole


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(["phi", "d"]),
       st.integers(min_value=0, max_value=10_000), st.booleans())
def test_subcurve_scan_matches_full_runs(spec, metric, seed, walk):
    dom = generate_domain(spec)
    dd = deform(dom, W2)
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(~dom.boundary_mask)
    if walk:
        # a random walk through the interior, often far longer than a geodesic
        adj, path = dd.adjacency_phi_interior, [int(rng.choice(interior))]
        for _ in range(int(rng.integers(2, 12))):
            row = adj.indices[adj.indptr[path[-1]]:adj.indptr[path[-1] + 1]]
            path.append(int(rng.choice(row)))
        curve = Curve.from_indices(dd, path)
    else:
        a, b = rng.choice(interior, size=2, replace=False)
        curve = dd.dphi_geodesic(dom.vertex_id(a), dom.vertex_id(b))
    if len(curve) < 3 or curve.vertices[0] == curve.vertices[-1]:
        return
    want = _subcurve_oracle(curve, metric)
    # a fresh deformed domain, so no pair memo answers
    fresh = deform(generate_domain(spec), W2)
    copy = Curve(fresh, curve.vertices, curve.incr_d, curve.incr_phi,
                 curve.total_d, curve.total_phi)
    with pytest.MonkeyPatch.context() as mp:
        limits = _limits(mp)
        got = subcurve_excess_ratio(copy, metric)
    assert got == want
    # one bounded run per curve end, and none for the whole-curve distance
    assert len(limits) == 2 and all(np.isfinite(limits))


# -- steered runs settle fewer vertices and answer the same -------------------


def _plain(view, ia, ib):
    """(value, path from ``ia``, vertices settled) of the unsteered run from
    the smaller index stopped at the other one, walked as ``geodesic``
    walks."""
    root, other = min(ia, ib), max(ia, ib)
    lo, hi = view.full.indptr[other], view.full.indptr[other + 1]
    members, offsets = view.full.indices[lo:hi], view.full.data[lo:hi]
    buf = _graphs.RunBuffer(view.full.shape[0], 0)
    dist = _graphs.distances_from(view.interior, root, stop=(members, offsets), into=buf)
    dist[other] = value = np.min(dist[members] + offsets)
    path = _graphs.extract_path(view.full, dist, root, other) if np.isfinite(value) else None
    return value, (path if path is None or path[0] == ia else path[::-1]), buf.settled


_BIG = {}


def _big(spec, metric):
    """A 40,401-vertex domain's view of one metric, built once per module."""
    if (spec, metric) not in _BIG:
        dom = generate_domain(spec)
        _BIG[spec, metric] = dom, (dom.view if metric == "base" else deform(dom, W2).view)
    return _BIG[spec, metric]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["half_plane:width=20,depth=20,h=0.1,conn=8",
                        "slit_plane:depth=5,h=0.1,conn=8"]),
       st.sampled_from(["base", "phi"]), st.integers(min_value=0, max_value=10_000))
def test_steered_pairs_match_plain_runs_on_deep_grids(spec, metric, seed):
    dom, view = _big(spec, metric)
    rng = np.random.default_rng(seed)
    interior = np.flatnonzero(~dom.boundary_mask)
    a = int(rng.choice(dom.boundary_idx if seed % 3 == 0 else interior))
    b = int(rng.choice(interior))
    if a == b:
        return
    value, path, _ = _plain(view, a, b)
    got, got_path, _ = view.geodesic(a, b)
    assert _same(np.float64(got), np.float64(value))
    assert got_path.tolist() == path.tolist()
    assert view.distance(b, a) == got


def test_boundary_escape_matches_the_plain_stopped_run():
    dom = _big("half_plane:width=20,depth=20,h=0.1,conn=8", "phi")[0]
    dd = deform(dom, W2)
    frontier = dom.frontier_idx
    for b in dom.boundary_idx[::23]:
        dist = _graphs.distances_from(dd.view.interior, int(b), stop=(frontier, 0.0))
        est = dd.dist_to_infinity(dom.vertex_id(b))
        assert _same(np.float64(est.frontier_dphi), np.min(dist[frontier]))


def test_steered_runs_settle_a_fraction_of_plain_ones():
    # counts of vertices, which do not depend on the machine
    dom = generate_domain("half_plane:width=20,depth=20,h=0.1")
    dd = deform(dom, W2)
    b, t = dom.index(dom.nearest_vertex(0.0, 0.0)), dom.index(dom.nearest_vertex(2.0, 12.0))
    for view in (dom.view, dd.view):
        settled = _plain(view, b, t)[2]
        view.distance(b, t)
        assert view._buffer.settled <= settled / 4
    dd.dist_to_infinity(dom.vertex_id(b))
    settled = dd.view._buffer.settled
    # the latest run answers: its array, walked from the nearest frontier vertex
    escape = dd.view.nearest(b, dom.frontier_idx, goal=("frontier_field", -1))[0]
    fr = dom.frontier_idx
    path, _ = _graphs.descend(dd.view.full, escape, int(fr[np.argmin(escape[fr])]))
    assert settled < 4 * len(path)


@pytest.mark.parametrize("engine", ["kernel", "scipy"])
def test_landmarks_steer_sideways_deformed_pairs(engine, monkeypatch):
    # from the boundary at x = -8 to (8, 15): under the deformed metric the
    # chord bound is slack and the boundary field bounds only the depth
    # difference; the landmarks bound the sideways distance
    if engine == "scipy":
        monkeypatch.setattr(_graphs, "_kernel", None)
    dom = generate_domain("half_plane:width=20,depth=20,h=0.1")
    view = deform(dom, W2).view
    a, b = dom.index(dom.nearest_vertex(-8.0, 0.0)), dom.index(dom.nearest_vertex(8.0, 15.0))
    value, path, plain = _plain(view, a, b)
    got, got_path, _ = view.geodesic(a, b)
    assert _same(np.float64(got), np.float64(value))
    assert got_path.tolist() == path.tolist()
    # farthest-point selection lands on the boundary row, then beside it;
    # it keeps its prefix: the first four are the four that k = 4 picked
    marks = dom.coords[np.argmin(view.pair_fields[:, 1:], axis=0)]
    assert view.pair_fields.shape == (dom.n_vertices, 7)
    assert np.allclose(marks, [(10.0, 0.0), (-10.0, 0.0), (0.0, 0.0), (-5.0, 0.0),
                               (5.0, 0.0), (-7.5, 0.7)], rtol=0.0, atol=1e-12)
    if engine == "scipy":
        return
    # vertices settled by the same stopped run under each potential
    root, other = min(a, b), max(a, b)
    lo, hi = view.full.indptr[other], view.full.indptr[other + 1]
    stop = (view.full.indices[lo:hi], view.full.data[lo:hi])
    settled = []
    for fields in (np.ascontiguousarray(view.boundary_field), view.pair_fields):
        buf = _graphs.RunBuffer(view.full.shape[0], 0)
        _graphs.distances_from(view.full, root, stop=stop, into=buf, blocked=view.boundary_mask,
                               goal=(fields, view.coords, other, view._kappa))
        settled.append(buf.settled)
    assert [plain, *settled] == [25_604, 18_862, 2_175]
    assert settled[1] <= plain / 4


@pytest.mark.parametrize("engine", ["kernel", "scipy"])
def test_steered_runs_by_the_block_equal_plain_stopped_runs(engine, monkeypatch):
    # every pair of two views: a deformed half plane's, steered by its whole
    # block, and a ladder's whose guard drops the six landmark columns (they
    # pass 2**30 times its one short edge, the boundary field does not),
    # steered by a compact copy of column 0: each distance and path is
    # bitwise that of the plain stopped run
    if engine == "scipy":
        monkeypatch.setattr(_graphs, "_kernel", None)
    idx = np.arange(3 * 24).reshape(3, 24)  # rows of 24, the bottom one the boundary
    eu = np.concatenate([idx[:, :-1].ravel(), idx[:-1].ravel()])
    ev = np.concatenate([idx[:, 1:].ravel(), idx[1:].ravel()])
    w = np.ones(eu.size)
    w[-1] = 4e-9  # the last rung up to the top row
    dom = generate_domain("half_plane:width=4,depth=3,h=0.5,conn=8")
    views = deform(dom, W2).view, _view((idx.size, eu, ev, w, idx[0]))
    for view in views:
        n = view.full.shape[0]
        for ia in range(n):
            for ib in range(ia + 1, n):
                value, path, _ = _plain(view, ia, ib)
                got, got_path, _ = view.geodesic(ia, ib)
                assert _same(np.float64(got), np.float64(value))
                assert got_path.tolist() == path.tolist()
    if engine == "scipy":
        return
    whole, ladder = (view._goal("pair_fields", 1)[0] for view in views)
    assert whole.shape == views[0].pair_fields.shape == (dom.n_vertices, 7)
    assert np.shares_memory(whole, views[0].pair_fields)
    assert ladder.shape == (idx.size, 1) and ladder.flags.c_contiguous
    assert not np.shares_memory(ladder, views[1].pair_fields)
    assert _same(ladder[:, 0], views[1].pair_fields[:, 0])


def _sweeps(monkeypatch):
    """The source count of every ``min_distance_field`` sweep; it grows per call."""
    sizes, sweep = [], _graphs.min_distance_field

    def counted(adj, sources, blocked=None):
        sizes.append(np.size(sources))
        return sweep(adj, sources, blocked)

    monkeypatch.setattr(_graphs, "min_distance_field", counted)
    return sizes


def test_landmarks_are_built_once_on_the_first_deformed_pair_query(warm, monkeypatch):
    dom, dd = warm
    fresh = deform(dom, W2)
    for view in (dom.view, dd.view, fresh.view):
        view.boundary_field, view.frontier_field
    sweeps = _sweeps(monkeypatch)
    x, y, z = (dom.nearest_vertex(-1.5, 6.0), dom.nearest_vertex(1.0, 0.5),
               dom.nearest_vertex(1.5, 3.0))
    # base pairs steer by the boundary field alone
    assert dom.distance(x, y) > 0.0 and dom.view.geodesic(dom.index(x), dom.index(z))[0] > 0.0
    assert sweeps == [] and dom.view.pair_fields.shape == (dom.n_vertices, 1)
    assert np.shares_memory(dom.view.pair_fields, dom.view.boundary_field)
    # set-up and escapes build no landmark
    assert fresh.dist_to_infinity(int(dom.ids[dom.boundary_idx[3]])).upper > 0.0
    assert fresh.view.run(fresh.domain.index(x)).size and sweeps == []
    assert "pair_fields" not in vars(fresh.view)
    # the first steered deformed pair query: a seed sweep and six landmarks,
    # one block that also holds the boundary field, no second copy of it
    boundary = dd.view.boundary_field
    assert dd.dphi_distance(x, y) > 0.0
    assert sweeps == [1] * 7 and dd.view.pair_fields.shape[1] == 7
    assert _same(dd.view.boundary_field, boundary)
    assert np.shares_memory(dd.view.boundary_field, dd.view.pair_fields)
    assert dd.dphi_geodesic(y, z).total_phi > 0.0 and dd.dphi_distance(x, z) > 0.0
    assert sweeps == [1] * 7
    # each deformed view builds its own
    assert fresh.dphi_distance(x, z) == dd.dphi_distance(x, z)
    assert sweeps == [1] * 14


def test_check_builds_no_landmarks(monkeypatch):
    # confdeform check makes no deformed pair query, so every sweep it
    # makes is a field from a set of vertices, never a landmark's
    sweeps = _sweeps(monkeypatch)
    argv = ["check", "--domain", "half_plane:width=4,depth=8,h=0.25,conn=8",
            "--weight", "power:beta=2", "--samples", "20", "--seed", "1",
            "--cu", "2", "--cq", "1", "--no-timestamp"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    assert sweeps and min(sweeps) > 1


def _cpus(monkeypatch, count):
    """Let the run pool see ``count`` CPUs, whatever the host has."""
    monkeypatch.setattr(_graphs.os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "scipy"])
def test_pooled_runs_equal_serial_runs(kernel, monkeypatch):
    dom = generate_domain("half_plane:width=6,depth=6,h=0.1,conn=8")
    dd = deform(dom, W2)
    if not kernel:
        monkeypatch.setattr(_graphs, "_kernel", None)
    rng = np.random.default_rng(4)
    roots = rng.choice(dom.n_vertices, 9, replace=False)  # boundary roots too
    limits = np.where(np.arange(roots.size) % 3, rng.uniform(0.5, 3.0, roots.size), np.inf)
    verts = roots[:6]
    _cpus(monkeypatch, 1)
    adjs = (dom.adjacency, dd.adjacency_phi)
    mats = [_graphs.pairwise_distances(adj, verts) for adj in adjs]
    for cpus in (3, 1):  # three workers on fewer cores, then inline
        _cpus(monkeypatch, cpus)
        for view in (dom.view, dd.view):
            for lims in (limits, 2.0):
                each = np.broadcast_to(lims, roots.shape)
                serial = [view.run(r, lim) for r, lim in zip(roots, each)]
                want = view._last
                view._last = None
                got = []
                for dist in view.runs(roots, lims):  # root order, each the latest run
                    assert view._last[0] == roots[len(got)] and view._last[3] is dist
                    got.append(dist)
                assert len(got) == len(serial)
                assert all(_same(a, b) for a, b in zip(got, serial))
                assert view._last[:3] == want[:3] and _same(view._last[3], want[3])
        for adj, mat in zip(adjs, mats):
            assert _same(_graphs.pairwise_distances(adj, verts), mat)


def test_no_more_runs_in_flight_than_workers(monkeypatch):
    dom = half_plane(width=4, depth=8, h=0.25, conn=8)
    _cpus(monkeypatch, 4)
    lock, flying, peak, runs = threading.Lock(), [0], [0], []
    orig = _graphs.distances_from

    def wrapper(*args, **kwargs):
        with lock:
            flying[0] += 1
            peak[0] = max(peak[0], flying[0])
        try:
            # a lost count would show as a peak past 4; the runs from odd
            # roots end first, yet come out in root order
            time.sleep(0.02 if args[1] % 2 == 0 else 0.002)
            return orig(*args, **kwargs)
        finally:
            with lock:
                flying[0] -= 1
                runs.append(args[1])

    monkeypatch.setattr(_graphs, "distances_from", wrapper)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        roots = list(range(0, dom.n_vertices, 7))
        got = list(dom.view.runs(roots))
    finally:
        sys.setswitchinterval(interval)
    assert len(got) == len(roots) and sorted(runs) == roots
    assert [int(np.flatnonzero(dist == 0.0)[0]) for dist in got] == roots
    assert 1 < peak[0] <= 4
    assert threading.active_count() == threads


def test_a_failed_or_closed_call_leaves_no_thread(monkeypatch):
    dom = half_plane(width=4, depth=8, h=0.25, conn=8)
    _cpus(monkeypatch, 3)
    roots, runs = list(range(0, dom.n_vertices, 5)), []
    orig = _graphs.distances_from

    def failing(*args, **kwargs):
        runs.append(args[1])
        if args[1] == roots[4]:
            raise MemoryError("no memory for a Dijkstra run")
        return orig(*args, **kwargs)

    monkeypatch.setattr(_graphs, "distances_from", failing)
    threads, got = threading.active_count(), []
    with pytest.raises(MemoryError):
        for dist in dom.view.runs(roots):
            got.append(dist)
    # the runs before it came out; none past the pool's window started
    assert len(got) == 4 and len(runs) <= 4 + 2 * 3
    assert threading.active_count() == threads
    calls = dom.view.runs(roots)
    assert next(calls).size == dom.n_vertices
    calls.close()
    assert threading.active_count() == threads

"""The shared query engine: exact equivalence with rebuilt matrices, exact
bounded runs, and no rebuilt matrix or repeated run on a warm domain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from confdeform import _graphs, synthesis
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
    edges = _edges(spec, metric, seed)
    n = edges[0]
    for ia in range(n):
        for ib in range(ia + 1, n):
            want, want_path = _rebuilt(*edges, ia, ib)
            # a fresh view per comparison, so no memo can answer
            got = _graphs.MetricView(*edges).distance(ia, ib)
            assert got == want or (math.isinf(got) and math.isinf(want))
            view = _graphs.MetricView(*edges)
            val, path = view.geodesic(ia, ib)
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


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(["base", "phi", "random"]),
       st.integers(min_value=0, max_value=10_000))
def test_bounded_runs_are_exact_where_they_reach(spec, metric, seed):
    edges = _edges(spec, metric, seed)
    for root in range(edges[0]):
        full = _graphs.MetricView(*edges).run(root)
        for limit in np.unique(full[np.isfinite(full)]):
            bounded = _graphs.MetricView(*edges).run(root, limit)
            reached = np.isfinite(bounded)
            assert (bounded[reached] == full[reached]).all()
            assert (full[~reached] > limit).all()


def _same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=24, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(["base", "phi", "random"]),
       st.integers(min_value=0, max_value=10_000))
def test_kernel_runs_and_walks_match_scipy(spec, metric, seed):
    edges = _edges(spec, metric, seed)
    view = _graphs.MetricView(*edges)
    frontier = generate_domain(spec).frontier_idx
    for root in range(edges[0]):
        full = dijkstra(view.interior, directed=True, indices=root)
        assert _same(_graphs.distances_from(view.interior, root), full)
        for limit in np.unique(full[np.isfinite(full)])[::3]:
            assert _same(_graphs.distances_from(view.interior, root, limit),
                         dijkstra(view.interior, directed=True, indices=root,
                                  limit=limit))
        # stop sets: each pair target's full row (interior and boundary
        # targets alike), and the frontier at offset 0
        stops = [(view.full.indices[view.full.indptr[t]:view.full.indptr[t + 1]],
                  view.full.data[view.full.indptr[t]:view.full.indptr[t + 1]])
                 for t in range(edges[0]) if t != root]
        if frontier.size:
            stops.append((frontier, np.zeros(frontier.size)))
        for members, offsets in stops:
            c = np.min(full[members] + offsets)
            got = _graphs.distances_from(view.interior, root, stop=(members, offsets))
            want = (full if np.isinf(c) else
                    dijkstra(view.interior, directed=True, indices=root, limit=c))
            assert _same(got, want)
        for target in np.flatnonzero(np.isfinite(full)):
            path = _graphs.extract_path(view.full, full, root, int(target))
            assert path.tolist() == _py_walk(view.full, full, root, int(target))


# -- one view's runs leave nothing behind -------------------------------------


def _exact_to(dist, full, c):
    """Whether ``dist`` is the array of a run exact up to a radius of at
    least ``c``: ``full`` up to that radius, ``inf`` beyond it."""
    r = max(c, np.max(dist, initial=-np.inf, where=np.isfinite(dist)))
    return _same(dist, np.where(full <= r, full, np.inf))


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
    view = _graphs.MetricView(*edges)
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
                val, path = view.geodesic(ia, ib)
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


def test_curve_steps_are_looked_up_once(warm, monkeypatch):
    dom, dd = warm
    # both metrics' matrices come from one edge list: one sparsity pattern
    assert (dom.adjacency.indptr == dd.adjacency_phi.indptr).all()
    assert (dom.adjacency.indices == dd.adjacency_phi.indices).all()
    lookups = _counted(monkeypatch, "edge_positions")
    curve = dd.dphi_geodesic(dom.nearest_vertex(-1.5, 6.0), dom.nearest_vertex(1.0, 0.5))
    assert len(lookups) == 1
    for adj, incr in ((dom.adjacency, curve.incr_d), (dd.adjacency_phi, curve.incr_phi)):
        for (u, v), w in zip(zip(curve.vertices[:-1], curve.vertices[1:]), incr):
            assert adj[u, v] == w


def test_returned_arrays_outlive_later_queries(warm):
    dom, dd = warm
    view = dd.view
    b1, b2, b3 = (int(v) for v in dom.boundary_idx[[2, 7, 12]])
    inner = dom.index(dom.nearest_vertex(0.5, 2.0))
    kept = [view.run(b1), view.run(inner, 1.0),
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

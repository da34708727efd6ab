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


@settings(max_examples=16, deadline=None)
@given(st.sampled_from(SMALL_SPECS), st.sampled_from(["base", "phi", "random"]),
       st.integers(min_value=0, max_value=10_000))
def test_view_matches_rebuilt_matrix_on_every_pair(spec, metric, seed):
    edges = _edges(spec, metric, seed)
    n = edges[0]
    for ia in range(n):
        for ib in range(ia + 1, n):
            want, want_path = _rebuilt(*edges, ia, ib)
            # a fresh view per comparison, so no memo can answer
            got = _graphs.MetricView(*edges).distance(ia, ib)
            assert got == want or (math.isinf(got) and math.isinf(want))
            # a schedule that starts far too small falls back through
            # bounded runs without changing the answer
            sched = _graphs.MetricView(*edges, first_limit=0.3)
            val, path = sched.geodesic(ia, ib)
            assert val == got or (math.isinf(val) and math.isinf(want))
            if want_path is None:
                assert path is None
                continue
            assert path.tolist() == want_path.tolist()
            # an exact known bound still reaches the target, and the path
            # comes back oriented from the first argument
            tight = _graphs.MetricView(*edges).geodesic(ib, ia, bound=want)
            assert tight[1].tolist() == want_path[::-1].tolist()


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
    # a zero mesh size must not stall the fourfold schedule, and a tiny one
    # (loaded domains take the shortest edge) must not make it long
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
    assert len(runs) <= 13

"""Curve containers, uniformity measurement, reversal invariance."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdeform import _graphs, synthesis
from confdeform.curves import (
    Curve,
    CurveError,
    subcurve_excess_ratio,
    uniformity_constant,
)
from confdeform.deform import _deformed_edge_lengths, deform
from confdeform.domain import MetricDomain, half_plane
from confdeform.weight import WeightFunction

W2 = WeightFunction.power(2)


@pytest.fixture(scope="module")
def hp():
    return half_plane(width=4, depth=4, h=0.5, conn=8)


@pytest.fixture(scope="module")
def dd(hp):
    return deform(hp, W2)


def vertical_geodesic(hp, dd):
    x = hp.nearest_vertex(0.0, 0.5)
    y = hp.nearest_vertex(0.0, 3.5)
    return dd.dphi_geodesic(x, y)


# -- construction ----------------------------------------------------------------


def test_from_indices_totals_default_to_sums(hp, dd):
    idx = [hp.index(hp.nearest_vertex(0.0, 0.5 + 0.5 * k)) for k in range(4)]
    c = Curve.from_indices(dd, idx)
    assert c.total_d == float(np.sum(c.incr_d))
    assert c.total_phi == float(np.sum(c.incr_phi))
    assert len(c) == 4
    assert c.lengths() == (c.total_d, c.total_phi)
    forced = Curve.from_indices(dd, idx, total_d=9.0, total_phi=1.25)
    assert forced.lengths() == (9.0, 1.25)


def _same(a, b):
    return a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("engine", ["kernel", "scipy"])
def test_steps_are_both_views_entries_and_no_edge_lengths_are_kept(hp, engine, monkeypatch):
    # geodesics and escapes in both metrics read each step from both views'
    # matrices at the entries their walk took (one shared pattern), bitwise
    # the per-edge lengths; the deformed ones are kept by the view alone
    if engine == "scipy":
        monkeypatch.setattr(_graphs, "_kernel", None)
    dd = deform(hp, W2)
    base, phi = hp.view, dd.view
    a, b = hp.index(hp.nearest_vertex(-1.5, 0.5)), hp.index(hp.nearest_vertex(1.0, 3.0))
    walks = [(dd.dphi_geodesic(hp.vertex_id(a), hp.vertex_id(b)), phi.geodesic(a, b)[2]),
             (synthesis.uniform_curve_d(dd, hp.vertex_id(a), hp.vertex_id(b)),
              base.geodesic(a, b)[2])]
    for view, deformed in ((phi, True), (base, False)):
        walks.append((synthesis._geodesic_to_frontier(dd, a, deformed),
                      _graphs.descend(view.full, view.frontier_field, a)[1]))
    per_edge = hp.edge_len, dd.edge_len_phi
    assert "edge_len_phi" not in vars(dd)
    assert _same(per_edge[1], _deformed_edge_lengths(hp, dd.field.values, W2, dd.quadrature))
    for curve, entries in walks:
        ids = hp.edge_ids.data[entries] - 1
        for steps, view, lengths in zip((curve.incr_d, curve.incr_phi), (base, phi), per_edge):
            assert _same(steps, view.full.data[entries]) and _same(steps, lengths[ids])
        again = Curve.from_indices(dd, curve.vertices)
        assert _same(again.incr_d, curve.incr_d) and _same(again.incr_phi, curve.incr_phi)
    assert "edge_len_phi" not in vars(dd)


def test_construction_errors(hp, dd):
    i0 = hp.index(hp.nearest_vertex(0.0, 1.0))
    i1 = hp.index(hp.nearest_vertex(0.5, 1.0))
    with pytest.raises(CurveError):
        Curve(dd, [i0], [], [], 0.0, 0.0)
    with pytest.raises(CurveError):
        Curve(dd, [i0, i1], [1.0, 1.0], [1.0], 2.0, 1.0)
    with pytest.raises(CurveError):
        Curve(dd, [i0, i1], [0.0], [1.0], 0.0, 1.0)
    with pytest.raises(CurveError):
        Curve(dd, [i0, i1], [1.0], [1.0], 1.0, 1.0, to_infinity=True)
    far = hp.index(hp.nearest_vertex(2.0, 3.5))
    with pytest.raises(ValueError):
        Curve.from_indices(dd, [i0, far])  # not adjacent
    n = hp.n_vertices
    for bad in ([i0, -1], [-n, i0], [i0, n], [i0, i1, n + 5]):
        with pytest.raises(IndexError):
            Curve.from_indices(dd, bad)


def test_ids_and_orientation(hp, dd):
    c = vertical_geodesic(hp, dd)
    assert c.start_id == hp.nearest_vertex(0.0, 0.5)
    assert c.end_id == hp.nearest_vertex(0.0, 3.5)
    assert c.vertex_ids[0] == c.start_id and c.vertex_ids[-1] == c.end_id
    d = c.to_dict()
    assert set(d) == {"vertices", "len_d", "len_phi", "to_infinity"}
    assert d["to_infinity"] is False
    assert d["len_phi"] == c.total_phi


# -- reversal and concatenation ----------------------------------------------------


def test_reverse_shares_totals_exactly(hp, dd):
    c = vertical_geodesic(hp, dd)
    r = c.reverse()
    assert r.vertices.tolist() == c.vertices.tolist()[::-1]
    assert (r.total_d, r.total_phi) == (c.total_d, c.total_phi)
    rr = r.reverse()
    assert rr.vertices.tolist() == c.vertices.tolist()
    assert np.array_equal(rr.incr_phi, c.incr_phi)


def test_uniformity_is_reversal_invariant_exactly(hp, dd):
    c = vertical_geodesic(hp, dd)
    r = c.reverse()
    for metric in ("phi", "d"):
        assert uniformity_constant(c, metric) == uniformity_constant(r, metric)


def test_concat(hp, dd):
    mid = hp.nearest_vertex(0.0, 2.0)
    a = dd.dphi_geodesic(hp.nearest_vertex(0.0, 0.5), mid)
    b = dd.dphi_geodesic(mid, hp.nearest_vertex(1.5, 3.0))
    joined = a.concat(b)
    assert joined.start_id == a.start_id and joined.end_id == b.end_id
    assert joined.total_phi == a.total_phi + b.total_phi
    assert joined.total_d == a.total_d + b.total_d
    assert len(joined) == len(a) + len(b) - 1
    with pytest.raises(CurveError):
        b.concat(a.reverse())  # junction mismatch


def test_infinity_rules(hp, dd):
    x = hp.nearest_vertex(0.0, 2.0)
    est = dd.dist_to_infinity(x)
    tail = dd.dphi_geodesic(x, hp.nearest_vertex(0.0, 4.0))
    inf_curve = Curve(dd, tail.vertices, tail.incr_d, tail.incr_phi,
                      tail.total_d, tail.total_phi,
                      to_infinity=True, estimate=est)
    assert inf_curve.to_dict()["to_infinity"] is True
    with pytest.raises(CurveError):
        inf_curve.reverse()
    with pytest.raises(CurveError):
        inf_curve.concat(tail)
    head = dd.dphi_geodesic(hp.nearest_vertex(-1.0, 1.0), x)
    extended = head.concat(inf_curve)
    assert extended.to_infinity and extended.estimate is est
    # detour ratio measured against the certified lower end
    c = uniformity_constant(inf_curve, "phi")
    assert c >= inf_curve.total_phi / est.lower
    with pytest.raises(CurveError):
        uniformity_constant(inf_curve, "d")


# -- uniformity measurement ----------------------------------------------------------


def test_straight_geodesic_is_one_uniform(hp, dd):
    c = vertical_geodesic(hp, dd)
    # geodesic: detour ratio is exactly 1; the vertical segment clears the
    # boundary faster than its arms grow, so the clearance ratio stays below 1
    assert uniformity_constant(c, "phi") == 1.0
    assert uniformity_constant(c, "d") == 1.0


def pinched_domain():
    # A(depth 1.05) - M(depth 0.05) - B(depth 1.05), boundary spur at M
    return MetricDomain(
        ids=np.arange(4),
        coords=None,
        edge_u=np.array([0, 1, 1]),
        edge_v=np.array([1, 2, 3]),
        edge_len=np.array([1.0, 1.0, 0.05]),
        boundary_idx=np.array([3]),
        frontier_idx=np.arange(0),
    )


def test_clearance_witness():
    d = pinched_domain()
    ddp = deform(d, W2)
    c = Curve.from_indices(ddp, [0, 1, 2])
    const = uniformity_constant(c, "d")
    assert const == 1.0 / 0.05  # arm 1.0 over clearance 0.05


def test_uniformity_rejects_boundary_transit():
    d = pinched_domain()
    ddp = deform(d, W2)
    walk = Curve.from_indices(ddp, [0, 1, 3, 1, 2])
    with pytest.raises(CurveError):
        uniformity_constant(walk, "d")


def test_endpoint_distance_override(hp, dd):
    c = vertical_geodesic(hp, dd)
    forced = uniformity_constant(c, "phi", endpoint_distance=c.total_phi / 2.0)
    assert forced == 2.0
    with pytest.raises(CurveError):
        uniformity_constant(c, "phi", endpoint_distance=0.0)
    with pytest.raises(CurveError):
        uniformity_constant(c, "watts")


@pytest.mark.parametrize("metric", ["deformed", "d_phi", "base", "nope"])
def test_metric_names_are_phi_and_d_only(hp, dd, metric):
    c = vertical_geodesic(hp, dd)
    with pytest.raises(CurveError, match="unknown metric"):
        uniformity_constant(c, metric)


# -- subcurve excess -------------------------------------------------------------------


def test_subcurve_excess_ratio_basics(hp, dd):
    c = vertical_geodesic(hp, dd)
    for metric in ("phi", "d"):
        r = subcurve_excess_ratio(c, metric)
        assert r >= 1.0
        assert r < 3.0
    two = dd.dphi_geodesic(hp.nearest_vertex(0.0, 1.0), hp.nearest_vertex(0.5, 1.0))
    assert subcurve_excess_ratio(two) == 1.0


# -- property: measurements are reversal-invariant on arbitrary walks -------------------


@st.composite
def interior_walks(draw):
    seed = draw(st.integers(min_value=0, max_value=10 ** 6))
    steps = draw(st.integers(min_value=2, max_value=9))
    return seed, steps


_WALK_CACHE = {}


def _walk_fixture():
    # hypothesis tests cannot take pytest fixtures; cache one domain here
    if "dd" not in _WALK_CACHE:
        hp = half_plane(width=4, depth=4, h=0.5, conn=8)
        _WALK_CACHE["hp"] = hp
        _WALK_CACHE["dd"] = deform(hp, W2)
    return _WALK_CACHE["hp"], _WALK_CACHE["dd"]


@settings(max_examples=30, deadline=None)
@given(interior_walks())
def test_random_walk_reversal_invariance(walk):
    hp, dd = _walk_fixture()
    seed, steps = walk
    rng = np.random.default_rng(seed)
    adj = dd.adjacency_phi_interior
    interior = np.nonzero(~hp.boundary_mask)[0]
    v = int(rng.choice(interior))
    path = [v]
    for _ in range(steps):
        nbrs = adj.indices[adj.indptr[v]:adj.indptr[v + 1]]
        if nbrs.size == 0:
            break
        v = int(rng.choice(nbrs))
        path.append(v)
    if len(path) < 2 or path[0] == path[-1]:
        return
    c = Curve.from_indices(dd, path)
    r = c.reverse()
    assert uniformity_constant(c, "phi") == uniformity_constant(r, "phi")
    assert uniformity_constant(c, "d") == uniformity_constant(r, "d")

"""Deformed edge lengths, deformed distances, and the point at infinity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdeform.deform import DeformError, deform, parse_quadrature
from confdeform.domain import (DomainError, MetricDomain, boundary_distance,
                               half_plane, strip)
from confdeform.weight import WeightFunction

from test_domain import path_domain


W2 = WeightFunction.power(2)
W3 = WeightFunction.power(3)


def test_parse_quadrature():
    assert parse_quadrature("trapezoid") == 1
    assert parse_quadrature("subdivided:4") == 4
    assert parse_quadrature(" SUBDIVIDED:2 ") == 2
    for bad in ("subdivided:x", "subdivided:0", "simpson"):
        with pytest.raises(DeformError):
            parse_quadrature(bad)


# -- edge quadrature -----------------------------------------------------------


def test_trapezoid_edge_oracle():
    # unit edge from depth 2 to depth 3: plain trapezoid gives
    # (phi(2) + phi(3)) / 2 = (1/4 + 1/9) / 2 = 13/72
    d = path_domain([0.0, 1.0, 2.0, 3.0])
    dd = deform(d, W2, quadrature=1)
    got = dd.edge_len_phi[2]
    assert got == (W2.value(2.0) + W2.value(3.0)) / 2.0
    assert math.isclose(got, 13.0 / 72.0, rel_tol=1e-15)


def test_subdivided_edge_converges_to_integral():
    # exact integral of t**-2 over (2, 3) is 1/6
    d = path_domain([0.0, 1.0, 2.0, 3.0])
    exact = 1.0 / 6.0
    vals = [deform(d, W2, quadrature=k).edge_len_phi[2] for k in (1, 2, 4, 8)]
    # trapezoid overestimates a convex integrand; refinement is monotone
    assert vals[0] > vals[1] > vals[2] > vals[3] > exact
    assert abs(vals[3] - exact) <= 0.01 * exact
    assert abs(vals[2] - exact) <= 0.04 * exact


def test_blocked_quadrature_equals_one_pass():
    # edges are integrated in blocks of about 2**18 nodes; the lengths are
    # those of one pass over all edges, bitwise, across the block seams
    d = half_plane(width=20, depth=20, h=0.1, conn=8)
    depth = boundary_distance(d).values
    for w, k in ((W2, 1), (W3, 4), (WeightFunction.parse("powerlog:beta=2,kappa=1"), 9)):
        assert d.n_edges > 2**18 // (k + 1)  # more than one block
        nodes = np.linspace(0.0, 1.0, k + 1)
        t = depth[d.edge_u, None] * (1.0 - nodes) + depth[d.edge_v, None] * nodes
        vals = w.value(np.maximum(t, d.mesh_size / 2.0))
        trapz = (vals[:, 0] + vals[:, -1]) / 2.0 + vals[:, 1:-1].sum(axis=1)
        got = deform(d, w, quadrature=k).edge_len_phi
        assert got.tobytes() == (d.edge_len * (trapz / k)).tobytes()


def test_shallow_edges_are_untouched():
    # depth <= 1 everywhere, so the weight is identically 1 and the deformed
    # lengths must equal the originals bitwise
    s = strip(width=3, h=0.25, conn=8)
    dd = deform(s, W2)
    assert np.array_equal(dd.edge_len_phi, s.edge_len)
    a = s.nearest_vertex(-1.0, 0.5)
    b = s.nearest_vertex(1.0, 0.75)
    assert dd.dphi_distance(a, b) == s.distance(a, b)


def test_mesh_size_cap():
    coarse = half_plane(width=4, depth=4, h=4.0, conn=4)
    with pytest.raises(DomainError):
        deform(coarse, W2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_edge_sandwich_property(seed):
    rng = np.random.default_rng(seed)
    heights = np.concatenate([[0.0], np.cumsum(rng.random(6) * 1.5 + 0.05)])
    d = path_domain(heights)
    dd = deform(d, W2)
    h = d.mesh_size
    for e in range(d.n_edges):
        du = heights[d.edge_u[e]]
        dv = heights[d.edge_v[e]]
        L = d.edge_len[e]
        lo = L * W2.value(max(du, dv))
        hi = L * W2.value(max(min(du, dv), h / 2.0))
        assert lo * (1 - 1e-12) <= dd.edge_len_phi[e] <= hi * (1 + 1e-12)


# -- distances -----------------------------------------------------------------


@pytest.fixture(scope="module")
def hp():
    return half_plane(width=4, depth=4, h=0.5, conn=8)


@pytest.fixture(scope="module")
def dd2(hp):
    return deform(hp, W2)


def test_dphi_never_exceeds_base_distance(hp, dd2):
    rng = np.random.default_rng(5)
    ids = rng.choice(hp.ids, size=12, replace=False)
    for x, y in zip(ids[:6], ids[6:]):
        x, y = int(x), int(y)
        assert dd2.dphi_distance(x, y) <= hp.distance(x, y)


def test_dphi_symmetry_and_identity(dd2, hp):
    rng = np.random.default_rng(6)
    ids = rng.choice(hp.ids, size=10, replace=False)
    for x, y in zip(ids[:5], ids[5:]):
        x, y = int(x), int(y)
        assert dd2.dphi_distance(x, y) == dd2.dphi_distance(y, x)
    assert dd2.dphi_distance(int(ids[0]), int(ids[0])) == 0.0


def test_dphi_monotone_in_decay_rate(hp, dd2):
    dd3 = deform(hp, W3)
    rng = np.random.default_rng(7)
    ids = rng.choice(hp.ids, size=10, replace=False)
    for x, y in zip(ids[:5], ids[5:]):
        x, y = int(x), int(y)
        assert dd3.dphi_distance(x, y) <= dd2.dphi_distance(x, y)


def test_vertical_ray_cost_matches_integral(hp, dd2):
    # from (0, 0.5) to (0, 3.5) the cheapest route is straight up and costs
    # about the integral of the weight: 1/2 + (1 - 2/7)
    x = hp.nearest_vertex(0.0, 0.5)
    y = hp.nearest_vertex(0.0, 3.5)
    expected = 0.5 + (1.0 - 1.0 / 3.5)
    assert math.isclose(dd2.dphi_distance(x, y), expected, rel_tol=0.01)


def test_deep_travel_is_cheap(hp, dd2):
    left = hp.nearest_vertex(-2.0, 3.5)
    right = hp.nearest_vertex(2.0, 3.5)
    base = hp.distance(left, right)
    assert base >= 4.0
    # at depth ~3.5 the weight is ~1/12, so crossing costs far less
    assert dd2.dphi_distance(left, right) < 0.45


def test_interior_query_avoids_boundary_transit():
    d = MetricDomain(
        ids=np.arange(3),
        coords=None,
        edge_u=np.array([0, 1, 0]),
        edge_v=np.array([1, 2, 2]),
        edge_len=np.array([1.0, 1.0, 1.9]),
        boundary_idx=np.array([1]),
        frontier_idx=np.arange(0),
    )
    dd = deform(d, W2)
    # direct edge is longer but the short route transits the boundary
    assert dd.dphi_distance(0, 2) > 1.5
    assert dd.dphi_distance(0, 1) <= 1.0


def test_disconnected_query_raises():
    # the only route between 0 and 2 transits the boundary vertex 1
    d = MetricDomain(
        ids=np.arange(3),
        coords=None,
        edge_u=np.array([0, 1]),
        edge_v=np.array([1, 2]),
        edge_len=np.array([1.0, 1.0]),
        boundary_idx=np.array([1]),
        frontier_idx=np.arange(0),
    )
    dd = deform(d, W2)
    with pytest.raises(DeformError):
        dd.dphi_distance(0, 2)
    assert dd.dphi_distance(0, 1) == 1.0


# -- geodesics ------------------------------------------------------------------


def test_geodesic_matches_distance_bitwise(hp, dd2):
    x = hp.nearest_vertex(-1.5, 0.5)
    y = hp.nearest_vertex(1.5, 2.5)
    c = dd2.dphi_geodesic(x, y)
    assert c.total_phi == dd2.dphi_distance(x, y)
    assert c.start_id == x and c.end_id == y
    rev = dd2.dphi_geodesic(y, x)
    assert rev.vertex_ids == c.vertex_ids[::-1]
    assert rev.total_phi == c.total_phi


def test_geodesic_between_neighbours(hp, dd2):
    x = hp.nearest_vertex(0.0, 1.0)
    y = hp.nearest_vertex(0.5, 1.0)
    c = dd2.dphi_geodesic(x, y)
    assert c.vertex_ids == [x, y]
    with pytest.raises(DeformError):
        dd2.dphi_geodesic(x, x)


# -- boundary field ---------------------------------------------------------------


def test_dphi_boundary_distance(hp, dd2):
    b = int(hp.ids[hp.boundary_idx[0]])
    assert dd2.boundary_field_phi[hp.index(b)] == 0.0
    # shallow vertices see an unweighted neighbourhood: deformed and base
    # boundary distances agree there
    x = hp.nearest_vertex(0.0, 0.5)
    assert dd2.boundary_field_phi[hp.index(x)] == 0.5
    field = dd2.boundary_field_phi
    assert field.shape == (hp.n_vertices,)
    assert (field[hp.boundary_idx] == 0.0).all()
    # deformed boundary distance never exceeds the base one
    assert (field <= dd2.field.values * (1 + 1e-12)).all()


# -- point at infinity -------------------------------------------------------------


def test_dist_to_infinity_brackets_the_escape():
    d = half_plane(width=20, depth=20, h=0.1, conn=8)
    dd = deform(d, W2)
    x = d.nearest_vertex(0.0, 1.0)
    est = dd.dist_to_infinity(x)
    # continuum value from height 1 is integral of phi over (1, inf) = 1
    assert est.lower <= 1.02
    assert est.upper >= 1.0
    assert 0.0 < est.lower <= est.upper
    assert est.frontier_shell == 5
    assert est.shell == 0
    assert est.width <= 0.13  # tail_sum(4) - integral_tail(20)
    assert est.to_dict() == {
        "x": x, "lower": est.lower, "upper": est.upper, "frontier_shell": 5,
        "clamped": False,
    }


def test_dist_to_infinity_decreases_with_depth():
    d = half_plane(width=8, depth=16, h=0.25, conn=8)
    dd = deform(d, W2)
    ests = [dd.dist_to_infinity(d.nearest_vertex(0.0, y)) for y in (0.5, 2.0, 8.0)]
    assert ests[0].lower > ests[1].lower > ests[2].lower
    assert ests[0].upper > ests[1].upper > ests[2].upper
    # deterministic
    again = dd.dist_to_infinity(d.nearest_vertex(0.0, 2.0))
    assert (again.lower, again.upper) == (ests[1].lower, ests[1].upper)


def test_dist_to_infinity_from_boundary():
    d = half_plane(width=4, depth=8, h=0.5, conn=8)
    dd = deform(d, W2)
    b = int(d.ids[d.boundary_idx[len(d.boundary_idx) // 2]])
    est_b = dd.dist_to_infinity(b)
    est_i = dd.dist_to_infinity(d.nearest_vertex(0.0, 4.0))
    assert est_b.lower > est_i.lower
    assert math.isfinite(est_b.upper)


@pytest.mark.parametrize("beta", [2, 3])
def test_quadrature_bias_is_one_sided_and_shrinks(beta):
    # from a boundary vertex of the half plane the distance to infinity has
    # the closed form beta/(beta - 1); the quadrature overestimates it, by
    # less than half as much at each halving of the mesh
    w = WeightFunction.power(beta)
    errs = []
    for h in (0.4, 0.2, 0.1, 0.05):
        d = half_plane(width=4, depth=8, h=h, conn=8)
        est = deform(d, w).dist_to_infinity(d.nearest_vertex(0.0, 0.0))
        errs.append(est.lower - beta / (beta - 1.0))
    assert all(err > 0.0 for err in errs), errs
    assert all(fine < 0.5 * coarse for coarse, fine in zip(errs, errs[1:])), errs


def test_dist_to_infinity_flags_a_clamped_interval(monkeypatch):
    d = half_plane(width=4, depth=8, h=0.5, conn=8)
    dd = deform(d, W2)
    x = d.nearest_vertex(0.0, 2.0)
    est = dd.dist_to_infinity(x)
    assert not est.clamped and est.lower < est.upper
    # a broken escape model: the upper escape cost vanishes below the lower
    monkeypatch.setattr(WeightFunction, "tail_sum", lambda self, m: 0.0)
    est = dd.dist_to_infinity(x)
    assert est.clamped
    assert est.lower == est.upper == est.frontier_dphi
    assert set(est.to_dict()) == {"x", "lower", "upper", "frontier_shell",
                                  "clamped"}
    assert est.to_dict()["clamped"] is True


def test_dist_to_infinity_requires_frontier():
    s = strip(width=3, h=0.5, conn=4)
    dd = deform(s, W2)
    with pytest.raises(DeformError):
        dd.dist_to_infinity(s.nearest_vertex(0.0, 0.5))
    with pytest.raises(DeformError):
        _ = dd.frontier_field_phi

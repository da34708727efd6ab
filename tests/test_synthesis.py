"""Case routing, splicing, and prediction audits of the curve synthesis."""

import numpy as np
import pytest

from confdeform.deform import deform
from confdeform.domain import MetricDomain, half_plane, estimate_metric_constants
from confdeform.synthesis import (
    CASE_TAGS,
    SynthesisError,
    beta_slice,
    predicted_vs_measured,
    synthesize,
    uniform_curve_d,
)
from confdeform.weight import WeightFunction, derive_constants

W2 = WeightFunction.power(2)


def ray_domain(heights, with_frontier=True):
    """Path from a boundary foot through increasing depths; the last vertex
    is the frontier when requested.  Depth of each vertex is its height."""
    heights = np.asarray(heights, dtype=float)
    n = len(heights)
    return MetricDomain(
        ids=np.arange(n),
        coords=None,
        edge_u=np.arange(n - 1),
        edge_v=np.arange(1, n),
        edge_len=np.diff(heights),
        boundary_idx=np.array([0]),
        frontier_idx=np.array([n - 1]) if with_frontier else np.arange(0),
    )


@pytest.fixture(scope="module")
def ray():
    heights = [0.0, 0.4, 0.4002, 1.0] + [float(2 ** k) for k in range(1, 13)]
    domain = ray_domain(heights)
    dd = deform(domain, W2)
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    return domain, dd, bundle


def vertex_at(domain, dd, height):
    i = int(np.argmin(np.abs(dd.field.values - height)))
    return int(domain.ids[i])


# -- uniform_curve_d ---------------------------------------------------------------


def test_uniform_curve_d_is_base_geodesic(ray):
    domain, dd, _ = ray
    x, y = vertex_at(domain, dd, 0.4), vertex_at(domain, dd, 64.0)
    c = uniform_curve_d(dd, x, y)
    assert c.start_id == x and c.end_id == y
    assert c.total_d == domain.distance(x, y)
    with pytest.raises(SynthesisError):
        uniform_curve_d(dd, x, x)


# -- case routing on the ray ---------------------------------------------------------


def test_case_large_k(ray):
    domain, dd, bundle = ray
    assert bundle.m0 == 8
    x, y = vertex_at(domain, dd, 256.0), vertex_at(domain, dd, 2048.0)
    res = synthesize(dd, bundle, x, y)
    assert res.case == "large_k"
    assert res.predicted == 1331.0 / 669.0
    assert res.measured <= res.predicted
    assert res.curve.start_id == x and res.curve.end_id == y
    assert res.notes["shells"] == [8, 11]


def test_case_small(ray):
    domain, dd, bundle = ray
    x, y = vertex_at(domain, dd, 0.4), vertex_at(domain, dd, 0.4002)
    dphi = dd.dphi_distance(x, y)
    assert dphi < bundle.t_small * 1.0  # shell 0 threshold
    res = synthesize(dd, bundle, x, y)
    assert res.case == "small"
    assert res.predicted == bundle.c1
    assert res.measured == 1.0  # single-edge geodesic
    assert "subthreshold" not in res.notes


def test_case_medium_inside(ray):
    domain, dd, bundle = ray
    x, y = vertex_at(domain, dd, 0.4), vertex_at(domain, dd, 64.0)
    res = synthesize(dd, bundle, x, y)
    assert res.case == "medium_inside"
    assert res.predicted == bundle.c2
    assert res.measured < 1.001
    assert res.splice_ids == []


def test_case_cross_border(ray):
    domain, dd, bundle = ray
    x, y = vertex_at(domain, dd, 0.4), vertex_at(domain, dd, 2048.0)
    res = synthesize(dd, bundle, x, y)
    assert res.case == "cross_border"
    assert res.predicted == bundle.c3
    # splice at the first vertex at depth >= 2**m0 = 256
    assert res.splice_ids == [vertex_at(domain, dd, 256.0)]
    assert res.measured < 1.001
    assert res.curve.start_id == x and res.curve.end_id == y
    # orientation flips with the argument order, construction does not
    rev = synthesize(dd, bundle, y, x)
    assert rev.case == "cross_border"
    assert rev.curve.start_id == y and rev.curve.end_id == x
    assert rev.splice_ids == res.splice_ids


def test_case_to_infinity_deep(ray):
    domain, dd, bundle = ray
    x = vertex_at(domain, dd, 256.0)
    res = synthesize(dd, bundle, x, to_infinity=True)
    assert res.case == "to_infinity_deep"
    assert res.predicted == 1331.0 / 669.0
    assert res.curve.to_infinity
    assert res.curve.estimate is not None
    assert res.y is None
    assert res.measured <= res.predicted
    assert res.to_dict()["y"] == "inf"


def test_case_to_infinity_shallow(ray):
    domain, dd, bundle = ray
    x = vertex_at(domain, dd, 0.4)
    res = synthesize(dd, bundle, x, to_infinity=True)
    assert res.case == "to_infinity_shallow"
    assert res.predicted == bundle.c4
    assert res.curve.to_infinity
    # threshold shell search starts at m0 + n0 = 9 and succeeds immediately
    assert res.notes["k_star"] == 9
    assert res.splice_ids == [vertex_at(domain, dd, 512.0)]
    assert res.measured <= res.predicted
    # curve runs from x out to the frontier ring
    assert res.curve.start_id == x
    assert res.curve.end_id == vertex_at(domain, dd, 4096.0)


def test_infinity_guards(ray):
    domain, dd, bundle = ray
    with pytest.raises(SynthesisError):
        synthesize(dd, bundle, 0, to_infinity=True)  # boundary start
    frontier_id = int(domain.ids[domain.frontier_idx[0]])
    with pytest.raises(SynthesisError):
        synthesize(dd, bundle, frontier_id, to_infinity=True)
    with pytest.raises(SynthesisError):
        synthesize(dd, bundle, vertex_at(domain, dd, 64.0),
                   vertex_at(domain, dd, 64.0))


def test_shallow_escape_without_threshold_shell():
    # frontier below the threshold shell m0 + n0: the base escape is the
    # whole curve and the splice collapses to its endpoint
    heights = [0.0, 0.4, 1.0, 2.0, 4.0, 8.0, 16.0, 33.0]
    domain = ray_domain(heights)
    dd = deform(domain, W2)
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    assert bundle.m0 + bundle.n0 == 9
    assert dd.field.shells.max() < 9
    x = vertex_at(domain, dd, 0.4)
    res = synthesize(dd, bundle, x, to_infinity=True)
    assert res.case == "to_infinity_shallow"
    assert res.curve.to_infinity
    assert res.curve.end_id == vertex_at(domain, dd, 33.0)
    assert res.notes["k_star"] == 9


# -- splicing on a canyon --------------------------------------------------------------


def canyon_domain(bridge_len=2.0, spur=None):
    """Two dyadic legs joined over the top, each footed on its own boundary.

    Vertices: 0 (left foot, boundary), 1..11 up the left leg at heights
    2**0..2**10, 12 (right top at 1024), ..., 22 (right height 1), 23 (right
    foot, boundary).  ``spur`` optionally hangs a boundary vertex under the
    bridge to pinch the clearance there.
    """
    left_heights = [float(2 ** k) for k in range(11)]
    eu = list(range(11)) + [11] + list(range(12, 23))
    ev = list(range(1, 12)) + [12] + list(range(13, 24))
    lens = [1.0] + list(np.diff(left_heights)) + [bridge_len] \
        + list(-np.diff(left_heights[::-1])) + [1.0]
    ids = list(range(24))
    boundary = [0, 23]
    if spur is not None:
        mid, spur_len = spur
        eu.append(mid)
        ev.append(24)
        lens.append(spur_len)
        ids.append(24)
        boundary.append(24)
    return MetricDomain(
        ids=np.array(ids),
        coords=None,
        edge_u=np.array(eu),
        edge_v=np.array(ev),
        edge_len=np.array(lens, dtype=float),
        boundary_idx=np.array(boundary),
        frontier_idx=np.arange(0),
    )


def test_case_medium_spliced():
    domain = canyon_domain()
    dd = deform(domain, W2)
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    x, y = 7, 16  # height 64 = 2**6 on each leg, shell 6 on both sides
    assert dd.field.shells[domain.index(x)] == 6
    assert dd.field.shells[domain.index(y)] == 6
    res = synthesize(dd, bundle, x, y)
    assert res.case == "medium_spliced"
    assert res.predicted == bundle.c2
    # splice points: first and last vertices at depth >= 2**(m0+n0) = 512
    assert res.splice_ids == [10, 13]
    assert res.curve.start_id == x and res.curve.end_id == y
    # the construction never repeats a vertex here: the deformed geodesic
    # between the splice points is the same unique over-the-top path
    assert len(set(res.curve.vertex_ids)) == len(res.curve.vertex_ids)
    assert res.measured <= res.predicted


def test_rebundle_on_pinched_canyon():
    # a cheap boundary spur under a long bridge pinches the clearance, so the
    # measured base uniformity beats the assumed cu = 1 and the constants are
    # recomputed before routing
    domain = canyon_domain(bridge_len=4096.0, spur=(11, 10.0))
    dd = deform(domain, W2)
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    res = synthesize(dd, bundle, 7, 16)
    assert res.notes["rebundled_cu"] > 50.0
    # with the recomputed (much larger) m0, the over-the-top route no longer
    # counts as leaving the shallow band, so the pair routes as medium_inside
    assert res.case == "medium_inside"
    assert res.predicted > bundle.c2
    assert res.measured < res.predicted


# -- slices -----------------------------------------------------------------------------


def test_beta_slice(ray):
    domain, dd, _ = ray
    c = uniform_curve_d(dd, vertex_at(domain, dd, 0.4), vertex_at(domain, dd, 64.0))
    piece = beta_slice(c, 1, 3)
    assert piece.vertices.tolist() == c.vertices[1:4].tolist()
    assert piece.total_d == float(np.sum(c.incr_d[1:3]))
    with pytest.raises(SynthesisError):
        beta_slice(c, 3, 3)
    with pytest.raises(SynthesisError):
        beta_slice(c, -1, 2)


# -- sampled audit -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def audited():
    domain = half_plane(width=8, depth=8, h=0.25, conn=8)
    dd = deform(domain, W2)
    est = estimate_metric_constants(domain, dd.field, n_pairs=120, seed=0)
    bundle = derive_constants(W2, est.cu, est.cq)
    report = predicted_vs_measured(dd, bundle, n_pairs=40, n_to_infinity=8, seed=3)
    return domain, dd, bundle, report


def test_predicted_vs_measured_report_shape(audited):
    domain, dd, bundle, report = audited
    rows, summary = report["rows"], report["summary"]
    assert summary["samples"] == len(rows) == 48
    assert set(summary["cases"]) == set(CASE_TAGS)
    assert sum(c["count"] for c in summary["cases"].values()) == 48
    for row in rows:
        assert row["case"] in CASE_TAGS
        assert row["measured"] > 0 and row["predicted"] > 0
        sh = row["notes"]["shells"]
        m, k = min(sh), max(sh)
        if row["case"] == "large_k":
            assert m >= bundle.m0
        elif row["case"] in ("small", "medium_inside", "medium_spliced"):
            if row["y"] != "inf":
                assert k <= bundle.m0
        elif row["case"] == "cross_border":
            assert m < bundle.m0 < k
        if row["case"] in ("medium_spliced", "cross_border", "to_infinity_shallow"):
            assert row["spliceverts"]


def test_predictions_hold_on_half_plane(audited):
    _, _, _, report = audited
    assert report["summary"]["flags"] == []
    assert report["summary"]["subthreshold_count"] == 0


def test_predicted_vs_measured_determinism(audited):
    domain, dd, bundle, report = audited
    again = predicted_vs_measured(dd, bundle, n_pairs=40, n_to_infinity=8, seed=3)
    assert again == report


def test_predicted_vs_measured_infinity_only(ray):
    _, dd, bundle = ray
    report = predicted_vs_measured(dd, bundle, n_pairs=0, n_to_infinity=5, seed=1)
    assert report["summary"]["samples"] == 5
    assert all(r["y"] == "inf" for r in report["rows"])
    with pytest.raises(SynthesisError):
        predicted_vs_measured(dd, bundle, n_pairs=0, n_to_infinity=0)
    with pytest.raises(SynthesisError, match="nonnegative"):
        predicted_vs_measured(dd, bundle, n_pairs=-3, n_to_infinity=5)

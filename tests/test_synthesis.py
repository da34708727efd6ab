"""Case routing, splicing, and prediction audits of the curve synthesis."""

import dataclasses

import numpy as np
import pytest

from confdeform import _graphs, synthesis
from confdeform.deform import deform
from confdeform.domain import (
    MetricDomain, estimate_metric_constants, generate_domain, half_plane, slit_plane,
)
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


# -- the threshold shell k_star ----------------------------------------------------


def _full_run_threshold_shell(dd, bundle, ix):
    """The oracle: the first shell from m0+n0 on that has members reachable
    in a full deformed run from ``ix``, all at the crossing threshold or
    past it, else m0+n0."""
    threshold = bundle.t_small * bundle.lam
    dist_phi = dd.view.run(ix)
    shells = dd.field.shells
    for cand in range(bundle.m0 + bundle.n0, int(shells.max()) + 1):
        members = np.nonzero(shells == cand)[0]
        members = members[np.isfinite(dist_phi[members])]
        if members.size and dist_phi[members].min() >= threshold:
            return cand
    return bundle.m0 + bundle.n0


def _with_threshold(bundle, threshold):
    return dataclasses.replace(bundle, t_small=threshold / bundle.lam)


SEARCHES = {"bounded": synthesis._threshold_shell, "oracle": _full_run_threshold_shell}


def _shallow_to_infinity(domain, bundle, starts, monkeypatch):
    """Each start's to-infinity result on a fresh deformed domain, keyed by
    (kernel or "scipy", "bounded" search or its "oracle")."""
    out = {}
    for engine, kernel in (("kernel", _graphs._kernel), ("scipy", None)):
        monkeypatch.setattr(_graphs, "_kernel", kernel)
        for name, search in SEARCHES.items():
            monkeypatch.setattr(synthesis, "_threshold_shell", search)
            dd = deform(domain, W2)
            out[engine, name] = [
                synthesize(dd, bundle, domain.vertex_id(ix), to_infinity=True)
                for ix in starts]
    return out


def _assert_same_results(out):
    """Bounded search and oracle agree bitwise in k_star, curve and measured."""
    for engine in ("kernel", "scipy"):
        for a, b in zip(out[engine, "bounded"], out[engine, "oracle"], strict=True):
            assert a.case == b.case == "to_infinity_shallow"
            assert a.notes == b.notes
            assert a.curve.vertices.tobytes() == b.curve.vertices.tobytes()
            assert a.measured == b.measured and a.splice_ids == b.splice_ids


def _tall():
    return half_plane(width=4, depth=600, h=0.5, conn=8)  # shells up to 10


@pytest.mark.parametrize("threshold, k_stars", [
    # the bundle's own threshold (8.7e-7): every shell lies past it
    (None, [9] * 7),
    # from depth 0.5 shell 9 starts below it (at 1.4987) and shell 10 past
    # it; from depth 1 on every shell starts below it: m0+n0
    (1.4999, [10, 10, 9, 9, 9, 9, 9]),
    (2.0, [9] * 7),
])
def test_threshold_shell_matches_full_run_on_half_plane(threshold, k_stars, monkeypatch):
    domain = _tall()
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    if threshold is not None:
        bundle = _with_threshold(bundle, threshold)
    values = deform(domain, W2).field.values
    starts = np.flatnonzero((values > 0.4) & (values < 3.0))[::7]
    assert values[starts].tolist() == [0.5, 0.5, 1.0, 1.5, 2.0, 2.0, 2.5]
    out = _shallow_to_infinity(domain, bundle, starts, monkeypatch)
    _assert_same_results(out)
    assert [r.notes["k_star"] for r in out["kernel", "bounded"]] == k_stars


def test_threshold_shell_matches_full_run_on_slit_and_ray(ray, monkeypatch):
    domain = slit_plane(depth=4.0, h=0.25, conn=8)
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    values = deform(domain, W2).field.values
    starts = np.flatnonzero(~domain.boundary_mask & ~domain.frontier_mask
                            & (values < 4.0))[::97]
    _assert_same_results(_shallow_to_infinity(domain, bundle, starts, monkeypatch))
    domain, dd, bundle = ray
    starts = [domain.index(vertex_at(domain, dd, h)) for h in (0.4, 1.0, 2.0, 64.0)]
    for threshold in (None, 1.0, 1.6):
        b = bundle if threshold is None else _with_threshold(bundle, threshold)
        _assert_same_results(_shallow_to_infinity(domain, b, starts, monkeypatch))


def walled_rays():
    """Two rays from one boundary foot (vertex 0), each topped by a frontier
    vertex; the foot is the wall between their interiors.  Ray A (ids 1-13)
    climbs 0.4, 1, 2, ..., 512, then skips shell 10 to 2048 and 4096; ray B
    (ids 14-27) climbs 0.4, 1, 2, ..., 4096 through every shell."""
    a = [0.4] + [float(2 ** k) for k in range(10)] + [2048.0, 4096.0]
    b = [0.4] + [float(2 ** k) for k in range(13)]
    eu, ev, lens, ids = [], [], [], [0]
    for heights in (a, b):
        prev, prev_h = 0, 0.0
        for h in heights:
            ids.append(len(ids))
            eu.append(prev), ev.append(ids[-1]), lens.append(h - prev_h)
            prev, prev_h = ids[-1], h
    return MetricDomain(
        ids=np.array(ids), coords=None, edge_u=np.array(eu), edge_v=np.array(ev),
        edge_len=np.array(lens), boundary_idx=np.array([0]),
        frontier_idx=np.array([len(a), len(ids) - 1]),
    )


def test_threshold_shell_skips_shells_unreachable_past_a_wall(monkeypatch):
    domain = walled_rays()
    labels = domain.interior_components
    assert labels[1] == labels[13] != labels[14] == labels[27]
    assert len({labels[0], labels[1], labels[14]}) == 3  # the foot is alone
    dd = deform(domain, W2)
    assert dd.field.shells[[11, 12, 13]].tolist() == [9, 11, 12]
    assert dd.field.shells[25] == 10  # shell 10 lies only past the wall
    full = dd.view.run(1)
    # shell 9 (id 11) lies below the threshold, shell 11 (id 12) past it;
    # shell 10 has no member reachable from id 1, so k_star is 11, not 10
    threshold = (full[11] + full[12]) / 2.0
    bundle = _with_threshold(derive_constants(W2, cu=1.0, cq=1.0), threshold)
    assert bundle.m0 + bundle.n0 == 9
    out = _shallow_to_infinity(domain, bundle, [1], monkeypatch)
    _assert_same_results(out)
    res = out["kernel", "bounded"][0]
    assert "rebundled_cu" not in res.notes
    assert res.notes["k_star"] == 11
    assert res.splice_ids == [12]
    assert res.curve.vertex_ids == list(range(1, 14))


def test_escapes_run_only_the_threshold_search(monkeypatch):
    domain = _tall()
    dd = deform(domain, W2)
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    # the fields escapes read, each built by one sweep per domain
    dd.frontier_field_phi, dd.boundary_field_phi, domain.frontier_field
    runs = []
    real = _graphs._distances

    def recorded(adj, roots, limit=np.inf, *more, **named):
        runs.append(limit)
        return real(adj, roots, limit, *more, **named)

    monkeypatch.setattr(_graphs, "_distances", recorded)
    x = domain.vertex_id(np.flatnonzero(dd.field.values == 1.0)[1])
    res = synthesize(dd, bundle, x, to_infinity=True)
    assert res.case == "to_infinity_shallow"
    assert res.curve.start_id == x != res.splice_ids[0] != res.curve.end_id
    # both escapes walk their frontier fields: the one run is the search
    # bounded at the threshold
    assert runs == [bundle.t_small * bundle.lam]
    # so does every later shallow escape, and the shell counts of the one
    # interior component are made once
    values = dd.field.values
    starts = np.flatnonzero((values > 0.4) & (values < 3.0))[::7]
    for ix in starts:
        res = synthesize(dd, bundle, domain.vertex_id(ix), to_infinity=True)
        assert res.case == "to_infinity_shallow"
    assert runs == [bundle.t_small * bundle.lam] * (1 + starts.size)
    assert list(dd._shell_counts) == [domain.interior_components[starts[0]]]
    deep = np.flatnonzero((dd.field.shells >= bundle.m0) & ~domain.frontier_mask)
    res = synthesize(dd, bundle, domain.vertex_id(deep[0]), to_infinity=True)
    assert res.case == "to_infinity_deep"
    assert runs == [bundle.t_small * bundle.lam] * (1 + starts.size)


@pytest.mark.parametrize("make, n_components", [
    (walled_rays, 3),  # two rays and their foot
    (_tall, 10),  # the interior and nine boundary singletons
])
def test_component_shell_counts_are_kept_per_component(make, n_components):
    domain = make()
    dd = deform(domain, W2)
    labels, shells = domain.interior_components, dd.field.shells
    components = np.unique(labels)
    assert components.size == n_components
    for label in components:
        members = np.flatnonzero(labels == label)
        counts = dd.component_shell_counts(members[0])
        assert counts.size == shells.max() + 1
        assert counts.tolist() == np.bincount(shells[members],
                                              minlength=counts.size).tolist()
        for ix in members[1:]:
            assert dd.component_shell_counts(ix) is counts
    assert sorted(dd._shell_counts) == components.tolist()


def _stopped_run_escape(dd, ix, deformed):
    """The oracle: (path, distance) of the escape from a run from ``ix``
    stopped at the frontier, walked back from its least-index nearest
    frontier vertex."""
    view = dd.view if deformed else dd.domain.view
    fr = dd.domain.frontier_idx
    dist, total = view.nearest(ix, fr)
    best = int(fr[int(np.argmin(dist[fr]))])
    return _graphs.extract_path(view.full, dist, ix, best), total


@pytest.mark.parametrize("engine", ["kernel", "scipy"])
@pytest.mark.parametrize("spec", [
    "half_plane:width=6,depth=8,h=0.25,conn=4",
    "half_plane:width=6,depth=8,h=0.25,conn=8",
    "slit_plane:depth=4,h=0.25,conn=8",
])
def test_escape_walk_matches_stopped_run(spec, engine, monkeypatch):
    if engine == "scipy":
        monkeypatch.setattr(_graphs, "_kernel", None)
    domain = generate_domain(spec)  # its fields built by this engine
    dd = deform(domain, W2)
    starts = np.flatnonzero(~domain.boundary_mask & ~domain.frontier_mask)[::9]
    for deformed in (False, True):
        for ix in starts:
            curve = synthesis._geodesic_to_frontier(dd, ix, deformed)
            path, total = _stopped_run_escape(dd, ix, deformed)
            walked = curve.total_phi if deformed else curve.total_d
            if spec.startswith("half_plane"):
                assert curve.vertices.tolist() == path.tolist()
                assert walked == total
            else:
                # ties may fall to another shortest path of as many steps
                assert curve.vertices[-1] == path[-1] and len(curve) == len(path)
                assert abs(walked - total) <= 4 * np.spacing(total)


def pocketed_ray():
    """The ray of the ``ray`` fixture with a pocket on its foot: ids 16
    (height 0.4) and 17 (height 256) hang from the boundary vertex 0,
    which no interior path may enter, so the frontier is out of their reach."""
    heights = [0.0, 0.4, 0.4002, 1.0] + [float(2 ** k) for k in range(1, 13)]
    n = len(heights)
    return MetricDomain(
        ids=np.arange(n + 2), coords=None,
        edge_u=np.r_[np.arange(n - 1), 0, n], edge_v=np.r_[np.arange(1, n), n, n + 1],
        edge_len=np.r_[np.diff(heights), 0.4, 255.6],
        boundary_idx=np.array([0]), frontier_idx=np.array([n - 1]),
    )


@pytest.mark.parametrize("engine", ["kernel", "scipy"])
def test_escape_from_a_walled_pocket_is_refused(engine, monkeypatch):
    if engine == "scipy":
        monkeypatch.setattr(_graphs, "_kernel", None)
    dd = deform(pocketed_ray(), W2)
    bundle = derive_constants(W2, cu=1.0, cq=1.0)
    # a shallow start (base escape first) and a deep one (deformed escape)
    assert dd.field.shells[16] < bundle.m0 <= dd.field.shells[17]
    for x in (16, 17):
        with pytest.raises(SynthesisError, match="frontier unreachable from the start"):
            synthesize(dd, bundle, x, to_infinity=True)


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

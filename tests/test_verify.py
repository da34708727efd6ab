"""Checker reports on a half plane where every inequality holds with slack."""

import csv
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdeform.deform import deform
from confdeform.domain import generate_domain, strip
from confdeform.verify import (
    CHECK_NAMES,
    CheckReport,
    aggregate_report,
    check_boundary_identification,
    check_crossing_levels,
    check_dist_pip_bdy,
    check_dist_to_infty,
    check_large_bound,
    check_nearby_points,
    check_separation_from_infinity,
    default_tolerance,
    report_csv,
    run_all_checks,
    subcurve_excess_report,
)
from confdeform.weight import WeightFunction, derive_constants

W2 = WeightFunction.power(2)


@pytest.fixture(scope="module")
def dd16():
    dom = generate_domain("half_plane:width=6,depth=16,h=0.1,conn=8")
    return deform(dom, W2)


@pytest.fixture(scope="module")
def bundle22():
    return derive_constants(W2, 2.0, 2.0)


@pytest.fixture(scope="module")
def shallow():
    # two shells only, mesh too coarse for any closeness threshold
    return deform(generate_domain("half_plane:width=4,depth=2,h=0.5,conn=4"), W2)


def test_default_tolerance_is_ten_mesh_sizes(dd16):
    assert default_tolerance(dd16) == 1.0


def test_crossing_levels_clean(dd16):
    rep = check_crossing_levels(dd16, n_samples=40, seed=1)
    assert rep.name == "crossing_levels"
    assert rep.notes["curves"] == 40
    assert 0 < rep.notes["geodesics"] <= 40
    assert rep.samples + rep.excluded == 40
    assert rep.samples > 0
    assert rep.violations == 0 and rep.witnesses == []
    # the analytic bound has a factor c_phi**2 = 16 of room
    assert rep.worst_ratio < 0.5


def test_nearby_points_reaches_deep_shells(dd16, bundle22):
    rep = check_nearby_points(dd16, bundle22, n_samples=40, seed=1)
    assert rep.samples >= 40
    # the threshold excludes every shallow shell on this mesh
    assert rep.excluded > 0
    assert rep.violations == 0
    assert rep.worst_ratio < 1.0
    assert rep.notes["threshold_branch"] == "cq<2cphi"
    assert rep.notes["attempts"] >= rep.excluded


def test_nearby_points_all_excluded_on_coarse_grid(shallow, bundle22):
    rep = check_nearby_points(shallow, bundle22, n_samples=5, seed=0)
    assert rep.samples == 0
    assert rep.excluded == rep.notes["attempts"] == 40
    assert rep.violations == 0
    assert rep.worst_ratio == 0.0


def test_checker_deterministic_given_seed(dd16, bundle22):
    a = check_nearby_points(dd16, bundle22, n_samples=25, seed=7)
    b = check_nearby_points(dd16, bundle22, n_samples=25, seed=7)
    assert a.to_dict() == b.to_dict()


def test_dist_to_infty_intervals_inside_band(dd16, bundle22):
    rep = check_dist_to_infty(dd16, bundle22, n_samples=40, seed=1)
    assert rep.samples == 40
    assert rep.violations == 0
    assert rep.worst_ratio < 1.0


def test_dist_to_infty_counts_a_clamped_interval(dd16, bundle22, monkeypatch):
    # a broken escape model: the lower escape cost lifts every interval past
    # its upper end, and the point it is cut back to sits inside the band
    monkeypatch.setattr(WeightFunction, "integral_tail", lambda self, d: 1e9)
    rep = check_dist_to_infty(dd16, bundle22, n_samples=10, seed=1)
    assert rep.samples == 10 and rep.violations == 10
    assert rep.witnesses[0]["kind"] == "clamped"
    lower, upper = rep.witnesses[0]["interval"]
    assert lower == upper


def test_dist_to_infty_empty_without_deep_shells(shallow, bundle22):
    rep = check_dist_to_infty(shallow, bundle22, n_samples=5, seed=0)
    assert rep.samples == 0 and rep.violations == 0
    assert "shells >= 4" in rep.notes["reason"]


def test_dist_pip_bdy_shell0_exact(dd16, bundle22):
    rep = check_dist_pip_bdy(dd16, bundle22, n_samples=40, seed=1)
    assert rep.samples == 40
    assert rep.violations == 0
    # shell-0 points reproduce the base boundary distance, ratio exactly 1
    assert rep.worst_ratio <= 1.0 + 1e-9
    assert rep.notes["shell0_eps"] == 1e-9


def test_large_bound_has_huge_margin(dd16, bundle22):
    rep = check_large_bound(dd16, bundle22, n_samples=40, seed=1)
    assert rep.samples > 0
    assert rep.violations == 0
    assert rep.worst_ratio < 1e-5
    assert rep.notes["m0"] == bundle22.m0 == 10
    assert rep.notes["deepest_shell_sampled"] <= bundle22.m0


def test_boundary_identification_clean(dd16, bundle22):
    rep = check_boundary_identification(dd16, bundle22, n_samples=40, seed=1)
    assert rep.samples >= 40
    assert rep.violations == 0
    # the weight is 1 near the boundary, so d_phi == d along it
    assert rep.worst_ratio <= 1.0 + 1e-9
    assert rep.notes["cq"] == 2.0


def test_separation_closed_form_on_half_plane(dd16, bundle22):
    rep = check_separation_from_infinity(dd16, bundle22, seed=1)
    assert rep.samples == dd16.domain.boundary_idx.size == 61
    assert rep.violations == 0
    assert rep.worst_ratio < 1.0
    assert rep.notes["target"] == 2.0
    assert 1.9 < rep.notes["min_lower"] < 2.2
    assert rep.notes["width"] > 0.0
    assert abs(rep.notes["midpoint"] - 2.0) < 0.2


def test_separation_counts_a_clamped_interval(bundle22, monkeypatch):
    dd = deform(generate_domain("half_plane:width=4,depth=8,h=0.5,conn=8"), W2)
    # a broken escape model: the upper escape cost vanishes below the lower
    monkeypatch.setattr(WeightFunction, "tail_sum", lambda self, m: 0.0)
    rep = check_separation_from_infinity(dd, bundle22)
    # every boundary interval is clamped, on top of any closed-form miss
    assert rep.samples == dd.domain.boundary_idx.size
    assert rep.violations >= rep.samples
    assert rep.witnesses[0]["kind"] == "clamped"
    assert rep.notes["width"] == 0.0


def test_separation_without_frontier(bundle22):
    dd = deform(strip(4, 0.5), W2)
    rep = check_separation_from_infinity(dd, bundle22)
    assert rep.samples == 0 and rep.violations == 0
    assert rep.notes["reason"] == "no frontier"


def test_run_all_checks_canonical_order(dd16, bundle22):
    reports = run_all_checks(dd16, bundle22, n_samples=15, seed=3)
    assert [r.name for r in reports] == list(CHECK_NAMES)
    assert sum(r.violations for r in reports) == 0
    # a scrambled subset still comes back in canonical order
    sub = run_all_checks(
        dd16, bundle22, checks=("large_bound", "crossing_levels"),
        n_samples=10, seed=3)
    assert [r.name for r in sub] == ["crossing_levels", "large_bound"]


def test_run_all_checks_rejects_unknown_names(dd16, bundle22):
    with pytest.raises(ValueError, match="unknown checks"):
        run_all_checks(dd16, bundle22, checks=("crossing_levels", "nope"))


def test_subcurve_excess_report_rows(dd16):
    rows = subcurve_excess_report(dd16, n_curves=4, seed=5)
    assert 0 < len(rows) <= 8
    assert len(rows) % 2 == 0
    for even, odd in zip(rows[::2], rows[1::2]):
        assert (even["metric"], odd["metric"]) == ("d", "phi")
        assert even["x"] == odd["x"] and even["y"] == odd["y"]
    for row in rows:
        assert row["excess"] >= 1.0
        assert row["flag"] == (row["excess"] > 2.0)
        assert not row["flag"]


def test_aggregate_report_shape(dd16, bundle22):
    reports = run_all_checks(
        dd16, bundle22, checks=("large_bound", "separation_from_infinity"),
        n_samples=10, seed=4)
    agg = aggregate_report(dd16, bundle22, reports, seed=4)
    assert agg["violations_total"] == 0
    assert agg["weight_spec"] == "power:beta=2"
    assert agg["domain_meta"]["generator"] == "half_plane"
    assert agg["bundle"]["m0"] == 10
    assert [c["name"] for c in agg["checks"]] == [r.name for r in reports]
    assert len(agg["timestamp"]) == 19 and agg["timestamp"][10] == "T"
    assert agg["subcurve_excess"]
    bare = aggregate_report(dd16, bundle22, reports, seed=4,
                            include_timestamp=False)
    assert "timestamp" not in bare


def test_report_csv_round_trips_ratios(dd16, bundle22):
    reports = run_all_checks(dd16, bundle22, n_samples=10, seed=6)
    text = report_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["check", "samples", "excluded", "violations",
                       "worst_ratio", "tolerance", "seed"]
    assert [r[0] for r in rows[1:]] == list(CHECK_NAMES)
    for row, rep in zip(rows[1:], reports):
        assert int(row[1]) == rep.samples
        assert float(row[4]) == rep.worst_ratio


@st.composite
def reports(draw):
    n = draw(st.integers(min_value=0, max_value=500))
    return CheckReport(
        name=draw(st.sampled_from(CHECK_NAMES)),
        samples=n,
        violations=draw(st.integers(min_value=0, max_value=n)),
        worst_ratio=draw(st.floats(min_value=0.0, max_value=1e12,
                                   allow_nan=False)),
        tolerance=draw(st.floats(min_value=1e-6, max_value=10.0)),
        seed=draw(st.integers(min_value=0, max_value=2 ** 31)),
        excluded=draw(st.integers(min_value=0, max_value=100)),
    )


@settings(max_examples=60, deadline=None)
@given(st.lists(reports(), min_size=1, max_size=5))
def test_csv_preserves_report_fields(reps):
    rows = list(csv.reader(io.StringIO(report_csv(reps))))[1:]
    assert len(rows) == len(reps)
    for row, rep in zip(rows, reps):
        assert row[0] == rep.name
        assert [int(v) for v in row[1:4]] == [rep.samples, rep.excluded,
                                              rep.violations]
        # repr round trip keeps floats bitwise
        assert float(row[4]) == rep.worst_ratio
        assert float(row[5]) == rep.tolerance

"""Domain construction, shells, constants estimation, generators, I/O."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import confdeform
from confdeform import _graphs
from confdeform import domain as dom
from confdeform.domain import (
    DomainError,
    MetricDomain,
    boundary_distance,
    estimate_metric_constants,
    from_dict,
    generate_domain,
    half_plane,
    load_domain,
    shell_index,
    slit_plane,
    strip,
)


def path_domain(heights, boundary=(0,), frontier=(), coords=None):
    """Path graph whose edge lengths are the height differences."""
    heights = np.asarray(heights, dtype=float)
    n = len(heights)
    return MetricDomain(
        ids=np.arange(n),
        coords=coords,
        edge_u=np.arange(n - 1),
        edge_v=np.arange(1, n),
        edge_len=np.abs(np.diff(heights)),
        boundary_idx=np.array(boundary, dtype=np.int64),
        frontier_idx=np.array(frontier, dtype=np.int64),
    )


# -- shells -------------------------------------------------------------------


def test_shell_index_hand_values():
    cases = {
        0.3: 0, 1.0: 0, 1.0000001: 1, 1.5: 1, 2.0: 1,
        2.0000001: 2, 2.5: 2, 4.0: 2, 5.0: 3, 40.0: 6, 1024.0: 10,
    }
    for d, n in cases.items():
        assert shell_index(d) == n, d
    arr = shell_index(np.array(list(cases)))
    assert arr.tolist() == list(cases.values())


@given(st.floats(min_value=1e-300, max_value=1e300))
def test_shell_index_brackets(d):
    n = shell_index(d)
    if n == 0:
        assert d <= 1.0
    else:
        assert 2.0 ** (n - 1) < d <= 2.0 ** n


# -- generators ---------------------------------------------------------------


def test_half_plane_small_counts():
    d4 = half_plane(width=2, depth=2, h=1.0, conn=4)
    assert d4.n_vertices == 9
    assert d4.n_edges == 12
    assert d4.boundary_idx.tolist() == [0, 1, 2]
    assert d4.frontier_idx.tolist() == [6, 7, 8]
    assert d4.coords[0].tolist() == [-1.0, 0.0]
    assert d4.coords[8].tolist() == [1.0, 2.0]
    d8 = half_plane(width=2, depth=2, h=1.0, conn=8)
    assert d8.n_edges == 20
    assert d8.mesh_size == 1.0


def test_half_plane_boundary_distance_is_height():
    d = half_plane(width=4, depth=3, h=0.5, conn=8)
    field = boundary_distance(d)
    assert np.allclose(field.values, d.coords[:, 1], rtol=0, atol=1e-12)
    assert field.shells.max() == 2
    assert (field.shells == shell_index(field.values)).all()


def test_strip_has_no_frontier_and_unit_depth():
    s = strip(width=3, h=0.5, conn=4)
    assert s.frontier_idx.size == 0
    field = boundary_distance(s)
    assert field.values.max() == 1.0
    assert field.shells.max() == 0


def test_slit_plane_topology():
    s = slit_plane(depth=1.0, h=0.5, conn=8)
    assert s.n_vertices == 81
    bxy = s.coords[s.boundary_idx]
    assert (bxy[:, 1] == 0).all()
    assert bxy[:, 0].min() == -1.0 and bxy[:, 0].max() == 0.0
    # the two banks near the slit connect only around the tip at the origin
    up = s.nearest_vertex(-0.5, 0.5)
    down = s.nearest_vertex(-0.5, -0.5)
    d = s.distance(up, down)
    assert d > 2.0  # straight across would be 1.0
    # far from the slit the metric is undisturbed
    a = s.nearest_vertex(1.5, 1.0)
    b = s.nearest_vertex(1.5, 2.0)
    assert s.distance(a, b) == 1.0


def test_generate_domain_spec_strings():
    d = generate_domain("half_plane:width=2,depth=2,h=1,conn=4")
    assert d.n_vertices == 9
    assert d.meta["generator"] == "half_plane"
    # each value takes the type of the generator's default
    assert type(d.meta["h"]) is float and type(d.meta["conn"]) is int
    assert generate_domain("strip:width=2,h=0.5").n_vertices == 15
    with pytest.raises(DomainError):
        generate_domain("half_plane:conn=8.0")
    with pytest.raises(DomainError):
        generate_domain("doughnut:radius=2")
    with pytest.raises(DomainError):
        generate_domain("half_plane:wobble=3")
    with pytest.raises(DomainError):
        generate_domain("half_plane:width=often")
    with pytest.raises(DomainError):
        generate_domain("half_plane:width=2,h=0.3")  # extent not a mesh multiple


def test_nearest_vertex_tie_breaks_to_smallest_id():
    d = half_plane(width=2, depth=2, h=1.0, conn=4)
    assert d.nearest_vertex(0.5, 0.5) == 1
    assert d.nearest_vertex(-0.9, 0.1) == 0
    no_xy = path_domain([0, 1, 2])
    with pytest.raises(DomainError):
        no_xy.nearest_vertex(0, 0)


# -- distances and boundary transit -------------------------------------------


def test_interior_distance_avoids_boundary_transit():
    d = MetricDomain(
        ids=np.arange(3),
        coords=None,
        edge_u=np.array([0, 1, 0]),
        edge_v=np.array([1, 2, 2]),
        edge_len=np.array([1.0, 1.0, 5.0]),
        boundary_idx=np.array([1]),
        frontier_idx=np.arange(0),
    )
    # 0 and 2 may not shortcut through the boundary vertex 1
    assert d.distance(0, 2) == 5.0
    # but queries ending at the boundary reattach it
    assert d.distance(0, 1) == 1.0
    assert d.distance(2, 1) == 1.0


def test_distance_symmetry_is_exact():
    d = half_plane(width=3, depth=3, h=0.5, conn=8)
    rng = np.random.default_rng(3)
    ids = rng.choice(d.ids, size=8, replace=False)
    for x, y in zip(ids[:4], ids[4:]):
        assert d.distance(int(x), int(y)) == d.distance(int(y), int(x))
    assert d.distance(int(ids[0]), int(ids[0])) == 0.0


def test_distance_raises_when_disconnected_through_interior():
    # both routes between 0 and 2 pass through boundary vertices
    d = MetricDomain(
        ids=np.arange(4),
        coords=None,
        edge_u=np.array([0, 1, 0, 3]),
        edge_v=np.array([1, 2, 3, 2]),
        edge_len=np.ones(4),
        boundary_idx=np.array([1, 3]),
        frontier_idx=np.arange(0),
    )
    with pytest.raises(DomainError):
        d.distance(0, 2)


# -- validation ---------------------------------------------------------------


def test_validation_rejects_bad_data():
    ok = dict(
        ids=np.arange(3), coords=None,
        edge_u=np.array([0, 1]), edge_v=np.array([1, 2]),
        edge_len=np.array([1.0, 1.0]),
        boundary_idx=np.array([0]), frontier_idx=np.arange(0),
    )
    MetricDomain(**ok)  # sanity: the template itself is fine

    def variant(**kw):
        return {**ok, **kw}

    bad = [
        variant(ids=np.array([0, 1, 1])),
        variant(edge_len=np.array([1.0, -1.0])),
        variant(edge_len=np.array([1.0, np.inf])),
        variant(edge_u=np.array([0, 2]), edge_v=np.array([1, 2])),  # self-loop
        variant(edge_v=np.array([1, 7])),  # out of range
        variant(boundary_idx=np.arange(0)),  # no boundary
        variant(boundary_idx=np.array([0]), frontier_idx=np.array([0])),
        variant(edge_u=np.array([0]), edge_v=np.array([1]),
                edge_len=np.array([1.0])),  # vertex 2 disconnected
    ]
    for kw in bad:
        with pytest.raises(DomainError):
            MetricDomain(**kw)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=10_000),
       st.booleans())
def test_repeated_edge_is_rejected(n, seed, reversed_copy):
    # summed into one matrix entry, the pair would read as one edge of
    # twice the length
    record = path_domain(np.arange(n, dtype=float)).to_dict()
    u, v, w = record["edges"][np.random.default_rng(seed).integers(n - 1)]
    record["edges"].append([v, u, w] if reversed_copy else [u, v, w])
    with pytest.raises(DomainError, match="more than once"):
        from_dict(record)


def test_masks_are_built_once_and_read_only():
    d = half_plane(width=2, depth=2, h=0.5, conn=8)
    for mask, idx in ((d.boundary_mask, d.boundary_idx),
                      (d.frontier_mask, d.frontier_idx)):
        assert np.array_equal(np.flatnonzero(mask), np.sort(idx))
        with pytest.raises(ValueError):
            mask[0] = not mask[0]
    assert d.boundary_mask is d.boundary_mask is d.view.boundary_mask
    assert d.frontier_mask is d.frontier_mask


# -- serialisation ------------------------------------------------------------


def test_json_round_trip(tmp_path):
    d = half_plane(width=2, depth=2, h=0.5, conn=8)
    # the same domain with its ids shuffled and spread out, negatives too
    ids = np.random.default_rng(4).permutation(d.n_vertices) * 7 - 30
    shuffled = MetricDomain(ids=ids, coords=d.coords, edge_u=d.edge_u,
                            edge_v=d.edge_v, edge_len=d.edge_len,
                            boundary_idx=d.boundary_idx,
                            frontier_idx=d.frontier_idx, meta=d.meta)
    for n, dom_ in enumerate((d, shuffled)):
        p = tmp_path / f"dom{n}.json"
        dom_.save(p)
        d2 = load_domain(p)
        assert d2.to_dict() == dom_.to_dict()
        assert (d2.ids == dom_.ids).all()
        assert (d2.edge_u == dom_.edge_u).all() and (d2.edge_v == dom_.edge_v).all()
        assert all(d2.index(d2.vertex_id(i)) == i for i in range(d2.n_vertices))
        # a second save is byte-identical
        p2 = tmp_path / f"dom{n}-again.json"
        d2.save(p2)
        assert p.read_bytes() == p2.read_bytes()


def _oracle_bytes(domain_):
    """The layout's reference text: the standard library's indented dump."""
    return (json.dumps(domain_.to_dict(), sort_keys=True, indent=1) + "\n").encode()


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _meta_containers(inner):
    return (st.lists(inner, max_size=3)
            | st.dictionaries(st.text(alphabet=",:ab ", max_size=3), inner,
                              max_size=3))


_meta_value = st.recursive(
    st.none() | st.booleans() | st.integers() | _finite
    | st.text(alphabet=",[]{}:\" \\\nab\u00e9", max_size=6),
    _meta_containers, max_leaves=8)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=12),
       seed=st.integers(min_value=0, max_value=10_000),
       with_coords=st.booleans(), with_frontier=st.booleans(),
       bad_coord=st.sampled_from([None, np.nan, np.inf, -np.inf]),
       meta=st.dictionaries(st.text(max_size=4), _meta_value, max_size=4))
def test_save_matches_indented_dump(tmp_path_factory, n, seed, with_coords,
                                    with_frontier, bad_coord, meta):
    rng = np.random.default_rng(seed)
    ids = rng.choice(np.arange(-50, 50), size=n, replace=False)
    # a random tree keeps the graph connected; a few chords on top
    tree_u = np.array([rng.integers(i) for i in range(1, n)], dtype=np.int64)
    pairs = {(int(min(a, b)), int(max(a, b))) for a, b in zip(tree_u, range(1, n))}
    for a, b in rng.integers(n, size=(n, 2)):
        if a != b:
            pairs.add((int(min(a, b)), int(max(a, b))))
    eu, ev = np.array(sorted(pairs), dtype=np.int64).reshape(-1, 2).T
    coords = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-5, 6) if with_coords else None
    if coords is not None and bad_coord is not None:
        coords[rng.integers(n), rng.integers(2)] = bad_coord
    order = rng.permutation(n)
    d = MetricDomain(
        ids=ids, coords=coords, edge_u=eu, edge_v=ev,
        edge_len=rng.uniform(1e-3, 1e3, len(eu)),
        boundary_idx=order[:1],
        frontier_idx=order[1:1 + n // 2] if with_frontier else np.arange(0),
        meta=meta)
    path = tmp_path_factory.mktemp("save") / "dom.json"
    d.save(path)
    assert path.read_bytes() == _oracle_bytes(d)
    if bad_coord is None:
        assert load_domain(path).to_dict() == d.to_dict()


def test_save_writes_in_blocks(tmp_path, monkeypatch):
    # more records than one block holds: the blocks join into one list
    monkeypatch.setattr(dom, "_BLOCK", 7)
    d = half_plane(width=3, depth=2, h=0.5, conn=8)
    d.save(tmp_path / "dom.json")
    assert (tmp_path / "dom.json").read_bytes() == _oracle_bytes(d)


def _rejected(record, match, tmp_path, monkeypatch):
    """from_dict, and load_domain on the record's file with the C scanner
    and with json.load, each raise a DomainError matching ``match``."""
    with pytest.raises(DomainError, match=match):
        from_dict(record)
    path = tmp_path / "dom.json"
    path.write_text(json.dumps(record))
    for kernel in (_graphs._kernel, None):
        monkeypatch.setattr(_graphs, "_kernel", kernel)
        with pytest.raises(DomainError, match=match):
            load_domain(path)


def test_from_dict_errors(tmp_path, monkeypatch):
    base = half_plane(width=2, depth=1, h=1.0, conn=4).to_dict()
    _rejected({"vertices": base["vertices"]}, "missing required domain field",
              tmp_path, monkeypatch)
    missing_edge_ref = json.loads(json.dumps(base))
    missing_edge_ref["edges"][0][0] = 999
    _rejected(missing_edge_ref, "unknown vertex id 999", tmp_path, monkeypatch)
    mixed = json.loads(json.dumps(base))
    del mixed["vertices"][0]["xy"]
    _rejected(mixed, "either all vertices", tmp_path, monkeypatch)
    bad_json = tmp_path / "broken.json"
    bad_json.write_text("{not json")
    for kernel in (_graphs._kernel, None):
        monkeypatch.setattr(_graphs, "_kernel", kernel)
        with pytest.raises(DomainError, match="not valid JSON"):
            load_domain(bad_json)


def _strip_record():
    return json.loads(json.dumps(strip(width=2, h=1.0, conn=4).to_dict()))


@pytest.mark.parametrize("edge", [[0, 1], [0, 1, 1.0, 5], {"u": 0}, 3])
def test_from_dict_rejects_an_edge_that_is_not_a_triple(edge, tmp_path, monkeypatch):
    record = _strip_record()
    record["edges"].append(edge)
    _rejected(record, "is not a list", tmp_path, monkeypatch)


@pytest.mark.parametrize("key", ["vertices", "edges", "boundary", "frontier"])
def test_from_dict_rejects_a_field_that_is_not_a_list(key, tmp_path, monkeypatch):
    record = _strip_record()
    record[key] = 5
    _rejected(record, "must be lists", tmp_path, monkeypatch)


def test_from_dict_rejects_a_vertex_without_an_id(tmp_path, monkeypatch):
    record = _strip_record()
    record["vertices"][2] = {"xy": record["vertices"][2]["xy"]}
    _rejected(record, '"id"', tmp_path, monkeypatch)


@pytest.mark.parametrize("value", [1.5, 1.0, "1", True, None])
def test_from_dict_rejects_a_non_integral_id(value, tmp_path, monkeypatch):
    record = _strip_record()
    record["vertices"][1]["id"] = value
    _rejected(record, "vertex id must be an integer", tmp_path, monkeypatch)


@pytest.mark.parametrize("end", [0, 1])
def test_from_dict_rejects_a_non_integral_edge_endpoint(end, tmp_path, monkeypatch):
    # truncated, 1.7 would silently read as vertex 1
    record = _strip_record()
    record["edges"][0][end] = 1.7
    _rejected(record, "endpoint must be an integer, got 1.7", tmp_path, monkeypatch)


@pytest.mark.parametrize("where, value, error", [
    ("length", "0.5", "must be a number, got '0.5'"),
    ("length", True, "must be a number, got True"),
    ("length", None, "must be a number, got None"),
    ("length", 10 ** 400, "does not fit in a double"),
    ("xy", None, "must be a number, got None"),
    ("xy", "0.25", "must be a number, got '0.25'"),
    ("xy", False, "must be a number, got False")])
def test_from_dict_rejects_a_value_that_is_not_a_number(where, value, error,
                                                         tmp_path, monkeypatch):
    # numpy would read "0.5" as 0.5, true as 1.0 and null as nan
    record = _strip_record()
    if where == "length":
        record["edges"][2][2] = value
        what = "an edge length"
    else:
        record["vertices"][3]["xy"][0] = value
        what = "a vertex coordinate"
    _rejected(record, re.escape(f"{what} {error}"), tmp_path, monkeypatch)


def test_from_dict_names_the_first_unknown_id(tmp_path, monkeypatch):
    record = _strip_record()
    record["edges"][3][1] = 77
    record["edges"][1][1] = 55
    record["boundary"].append(99)
    _rejected(record, "unknown vertex id 55$", tmp_path, monkeypatch)


def test_index_rejects_unknown_ids():
    d = from_dict({
        "vertices": [{"id": 12}, {"id": -30}, {"id": 5}, {"id": -23}],
        "edges": [[12, 5, 1.0], [5, -23, 1.0], [-23, -30, 1.0]],
        "boundary": [-30],
    })
    assert [d.index(v) for v in (12, -30, 5, -23)] == [0, 1, 2, 3]
    for missing in (-31, -29, 0, 13, 2**63 - 1):
        with pytest.raises(DomainError, match=f"unknown vertex id {missing}$"):
            d.index(missing)
    for outside in (2**63, 2**70, -2**70):
        with pytest.raises(DomainError, match="does not fit in 64 bits"):
            d.index(outside)


def test_from_dict_without_coords():
    d = from_dict({
        "vertices": [{"id": 5}, {"id": 6}],
        "edges": [[5, 6, 2.0]],
        "boundary": [5],
    })
    assert d.coords is None
    assert d.distance(5, 6) == 2.0
    assert d.frontier_idx.size == 0


# -- constants estimation -----------------------------------------------------


def test_estimate_constants_on_strip():
    s = strip(width=6, h=0.25, conn=8)
    est = estimate_metric_constants(s, n_pairs=60, seed=1)
    assert est.cu >= 1.0 and est.cq >= 1.0
    assert est.cq_valid
    assert est.cq < 2.0  # grid paths stretch straight lines by < sqrt(2)
    again = estimate_metric_constants(s, n_pairs=60, seed=1)
    assert (again.cu, again.cq, again.n_pairs) == (est.cu, est.cq, est.n_pairs)


def test_estimate_constants_detects_pinched_clearance():
    # path 0..8 with a short boundary spur hanging off the midpoint, so the
    # geodesic 1 -> 7 passes a point of clearance 0.1 with arms of length 3
    d = MetricDomain(
        ids=np.arange(10),
        coords=None,
        edge_u=np.concatenate([np.arange(8), [4]]),
        edge_v=np.concatenate([np.arange(1, 9), [9]]),
        edge_len=np.concatenate([np.ones(8), [0.1]]),
        boundary_idx=np.array([0, 8, 9]),
        frontier_idx=np.arange(0),
    )
    est = estimate_metric_constants(d, n_pairs=80, seed=0)
    assert est.cu >= 30.0
    assert not est.cq_valid and est.cq == 1.0


def test_estimate_constants_needs_interior_pairs():
    tiny = path_domain([0.0, 1.0], boundary=(0,))
    with pytest.raises(DomainError):
        estimate_metric_constants(tiny, n_pairs=4, seed=0)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=3, max_value=9), st.integers(min_value=0, max_value=10_000))
def test_path_domain_round_trip_property(n, seed):
    rng = np.random.default_rng(seed)
    heights = np.concatenate([[0.0], np.cumsum(rng.random(n - 1) + 0.05)])
    d = path_domain(heights)
    assert from_dict(d.to_dict()).to_dict() == d.to_dict()
    field = boundary_distance(d)
    assert np.allclose(field.values, heights, rtol=0, atol=1e-12)


def test_every_exported_name_resolves():
    missing = [n for n in confdeform.__all__ if not hasattr(confdeform, n)]
    assert missing == []

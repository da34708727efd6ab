"""Shortest-path plumbing: exactness and determinism guarantees."""

import gc
import logging
import shutil
import subprocess
import weakref
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from confdeform import _graphs, domain
from confdeform.deform import deform
from confdeform.domain import MetricDomain, generate_domain, load_domain
from confdeform.weight import WeightFunction


def _diamond():
    # 0 -1- 1 -1- 3, 0 -1.5- 2 -1.5- 3, plus 1 -0.2- 2
    eu = np.array([0, 1, 0, 2, 1])
    ev = np.array([1, 3, 2, 3, 2])
    ew = np.array([1.0, 1.0, 1.5, 1.5, 0.2])
    return _graphs.build_adjacency(4, eu, ev, ew)


def test_adjacency_is_symmetric():
    adj = _diamond()
    assert (adj != adj.T).nnz == 0
    assert adj[0, 1] == 1.0 and adj[1, 0] == 1.0


def test_distances_from_basic():
    adj = _diamond()
    dist = _graphs.distances_from(adj, 0)
    assert dist[0] == 0.0
    assert dist[1] == 1.0
    assert dist[2] == 1.2
    assert dist[3] == 2.0


def test_distances_from_limit_marks_unreached():
    adj = _diamond()
    dist = _graphs.distances_from(adj, 0, limit=1.1)
    assert dist[1] == 1.0
    assert np.isinf(dist[3])


def test_min_distance_field():
    adj = _diamond()
    field = _graphs.min_distance_field(adj, [0, 3])
    assert field[0] == 0.0 and field[3] == 0.0
    assert field[1] == 1.0
    assert field[2] == 1.2


def test_min_distance_field_rejects_empty_sources():
    with pytest.raises(ValueError):
        _graphs.min_distance_field(_diamond(), [])


def test_extract_path_telescopes_exactly():
    adj = _diamond()
    dist = _graphs.distances_from(adj, 0)
    path = _graphs.extract_path(adj, dist, 0, 3)
    assert path.tolist() == [0, 1, 3]
    steps = np.diff(dist[path])
    assert steps.sum() == dist[3]


def test_extract_path_breaks_ties_to_smallest_index():
    # two equal-cost routes 0-1-3 and 0-2-3; the walk back from 3 must pick 1
    eu = np.array([0, 1, 0, 2])
    ev = np.array([1, 3, 2, 3])
    ew = np.array([1.0, 1.0, 1.0, 1.0])
    adj = _graphs.build_adjacency(4, eu, ev, ew)
    dist = _graphs.distances_from(adj, 0)
    path = _graphs.extract_path(adj, dist, 0, 3)
    assert path.tolist() == [0, 1, 3]


def test_extract_path_unreachable():
    eu, ev, ew = np.array([0]), np.array([1]), np.array([1.0])
    adj = _graphs.build_adjacency(3, eu, ev, ew)
    dist = _graphs.distances_from(adj, 0)
    with pytest.raises(ValueError):
        _graphs.extract_path(adj, dist, 0, 2)


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "scipy"])
def test_extract_path_rejects_a_walk_ending_off_the_source(kernel, monkeypatch):
    if not kernel:
        monkeypatch.setattr(_graphs, "_kernel", None)
    adj = _diamond()
    # the walk back from 3 reaches 0, the zero of a run rooted there
    dist = _graphs.distances_from(adj, 0)
    with pytest.raises(RuntimeError, match="ended at vertex 0, not at the source 1"):
        _graphs.extract_path(adj, dist, 1, 3)
    # a field from two roots: the walk from 2 ends at the nearer one, 0
    field = _graphs.min_distance_field(adj, [0, 3])
    path, entries = _graphs.descend(adj, field, 2)
    assert path.tolist() == [2, 1, 0]
    # each step's entry in the row it leaves holds the vertex it reaches
    assert adj.indices[entries].tolist() == [1, 0]
    assert entries.tolist() == [adj.indptr[2] + 1, adj.indptr[1]]
    with pytest.raises(RuntimeError, match="not at the source 3"):
        _graphs.extract_path(adj, field, 3, 2)
    assert _graphs.extract_path(adj, field, 0, 2).tolist() == [0, 1, 2]


def test_kernel_loaded():
    # the C library builds on import wherever a compiler is present; without
    # it every run would quietly fall back to scipy, every load to json.load
    assert _graphs._kernel is not None
    counts, none = np.zeros(7, np.int64), np.empty(0, np.int64)
    raw = b'{"boundary": [], "edges": [], "vertices": []}'
    cols = (counts, none, np.empty((0, 2)), np.empty((0, 2), np.int64),
            np.empty(0), none, none)
    assert _graphs._kernel.cd_scan(raw, len(raw), *(c.ctypes.data for c in cols)) == 0


def test_kernel_builds_once_or_warns(tmp_path, monkeypatch, caplog):
    for name in ("_dijkstra.c", "_scan.c"):
        src = Path(_graphs.__file__).with_name(name)
        (tmp_path / name).write_bytes(src.read_bytes())
    monkeypatch.setattr(_graphs, "__file__", str(tmp_path / "_graphs.py"))
    stale = tmp_path / "_kernel_0000000000000000.so"  # older sources'
    stale.write_bytes(b"")
    assert _graphs._load_kernel() is not None
    built = sorted(p.name for p in tmp_path.iterdir())
    lib = [name for name in built if name.endswith(".so")]
    assert len(built) == 3 and len(lib) == 1
    assert not stale.exists()
    # a second import loads the built library and leaves no temp file
    assert _graphs._load_kernel() is not None
    assert sorted(p.name for p in tmp_path.iterdir()) == built
    # with no compiler there is one warning and no kernel
    (tmp_path / lib[0]).unlink()

    def no_compiler(*args, **kwargs):
        raise FileNotFoundError("cc")
    monkeypatch.setattr(_graphs.subprocess, "run", no_compiler)
    with caplog.at_level(logging.WARNING, logger="confdeform"):
        assert _graphs._load_kernel() is None
    assert [r.name for r in caplog.records] == ["confdeform"]


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "scipy"])
def test_extract_path_rejects_inconsistent_distances(kernel, monkeypatch):
    if not kernel:
        monkeypatch.setattr(_graphs, "_kernel", None)
    adj = _diamond()
    # vertex 3 claims a distance no neighbour explains
    with pytest.raises(RuntimeError, match="no optimal predecessor"):
        _graphs.extract_path(adj, np.array([0.0, 1.0, 1.2, 7.0]), 0, 3)
    # a zero-length edge between two vertices at one claimed distance,
    # neither of them next to the source: the walk bounces between them
    zero = _graphs.build_adjacency(3, [0, 1], [1, 2], [1.0, 0.0])
    with pytest.raises(RuntimeError, match="cycled"):
        _graphs.extract_path(zero, np.array([0.0, 5.0, 5.0]), 0, 2)
    with pytest.raises(ValueError):
        _graphs.extract_path(adj, np.array([0.0, 1.0, 1.2, np.inf]), 0, 3)


def test_edge_lengths_along():
    # the diamond's pattern, then the geodesics of both metrics on a half
    # plane: each step's lengths are those the metrics' matrices hold
    eu, ev = np.array([0, 1, 0, 2, 1]), np.array([1, 3, 2, 3, 2])
    diamond = MetricDomain(ids=np.arange(4), coords=None, edge_u=eu, edge_v=ev,
                           edge_len=[1.0, 1.0, 1.5, 1.5, 0.2], boundary_idx=[0],
                           frontier_idx=[])
    lengths = diamond.view.full.data, 2.0 * diamond.view.full.data  # per entry
    dd = deform(generate_domain("half_plane:width=4,depth=4,h=0.5,conn=8"),
                WeightFunction.power(2))
    steps = _graphs.edge_lengths_along(diamond.edge_ids, [0, 1, 2, 3], *lengths)
    assert [s.tolist() for s in steps] == [[1.0, 0.2, 1.5], [2.0, 0.4, 3.0]]
    # a one-vertex path has no steps
    assert [s.size for s in _graphs.edge_lengths_along(diamond.edge_ids, [2], *lengths)] == [0, 0]
    dom = dd.domain
    for path in (dom.view.geodesic(0, 80)[1], dd.view.geodesic(3, 75)[1]):
        # reversed too: a path that is a view with a negative stride
        for walk in (path, path[::-1]):
            steps = _graphs.edge_lengths_along(dom.edge_ids, walk, dom.view.full.data,
                                               dd.view.full.data)
            for adj, got in zip((dom.adjacency, dd.adjacency_phi), steps):
                want = np.asarray(adj[walk[:-1], walk[1:]]).ravel()
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    for edges, path in ((diamond.edge_ids, [0, 3]), (dom.edge_ids, [3, 4, 5, 80])):
        with pytest.raises(ValueError, match="not adjacent"):
            _graphs.edge_lengths_along(edges, path, *lengths)
    # scipy's indexing reads A[-1, 0] as the last row: range-checked first
    for path in ([0, 1, -1], [-4, 0], [0, 4], [3, 2, 1, 40]):
        with pytest.raises(IndexError, match="out of range"):
            _graphs.edge_lengths_along(diamond.edge_ids, path, *lengths)


def test_kernel_sources_compile_without_warnings():
    # an unused parameter or variable, as a changed signature leaves, fails here
    cc = shutil.which("cc")
    if cc is None:
        pytest.skip("no C compiler")
    for name in ("_dijkstra.c", "_scan.c"):
        src = Path(_graphs.__file__).with_name(name)
        out = subprocess.run([cc, "-O2", "-Wall", "-Wextra", "-Werror", "-fsyntax-only",
                              str(src)], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr


def _random_geometric_adjacency(rng, n=60):
    pts = rng.random((n, 2))
    edges = []
    for i in range(n):
        d2 = ((pts - pts[i]) ** 2).sum(axis=1)
        for j in np.argsort(d2)[1:5]:
            if i < j:
                edges.append((i, int(j), float(np.sqrt(d2[j])) + 1e-6))
    eu = np.array([e[0] for e in edges])
    ev = np.array([e[1] for e in edges])
    ew = np.array([e[2] for e in edges])
    return _graphs.build_adjacency(n, eu, ev, ew)


def test_pairwise_distances_exact_metric_axioms():
    rng = np.random.default_rng(7)
    adj = _random_geometric_adjacency(rng)
    verts = rng.choice(adj.shape[0], size=12, replace=False)
    raw = np.stack([_graphs.distances_from(adj, v)[verts] for v in verts])
    mat = _graphs.pairwise_distances(adj, verts)
    assert (mat == mat.T).all()
    assert (np.diag(mat) == 0.0).all()
    # triangle inequality exactly, every ordered triple
    via = mat[:, :, None] + mat[None, :, :]
    assert (mat <= via.min(axis=1)).all()
    # tightening is a perturbation at float roundoff scale, not a rewrite
    finite = np.isfinite(raw)
    assert np.allclose(mat[finite], raw[finite], rtol=1e-12, atol=0)


def test_drop_incident_edges_is_source_directed():
    eu = np.array([0, 1, 0, 2, 1])
    ev = np.array([1, 3, 2, 3, 2])
    ew = np.array([1.0, 1.0, 1.5, 1.5, 0.2])
    cut = _graphs.drop_incident_edges(_diamond(), np.array([False, True, False, False]))
    # no edge enters the blocked vertex, so runs from elsewhere avoid it
    assert cut[:, [1]].nnz == 0
    dist = _graphs.distances_from(cut, 0)
    assert np.isinf(dist[1])
    assert dist[3] == 3.0  # forced through vertex 2
    # the blocked vertex keeps its out-edges: a run rooted there leaves it
    assert (cut[[1]] != _diamond()[[1]]).nnz == 0
    assert _graphs.distances_from(cut, 1).tolist() == [1.0, 0.0, 0.2, 1.0]
    # rows of unblocked vertices equal those of the graph without vertex 1
    keep = np.array([False, False, True, True, False])
    without = _graphs.build_adjacency(4, eu[keep], ev[keep], ew[keep])
    for v in (0, 2, 3):
        assert (cut[[v]] != without[[v]]).nnz == 0


def _interior_from_edges(n, eu, ev, w, blocked):
    """The source-directed matrix built from the edge list: each direction
    of an edge is kept unless it enters a blocked vertex."""
    fwd, bwd = ~blocked[ev], ~blocked[eu]
    rows = np.concatenate([eu[fwd], ev[bwd]])
    cols = np.concatenate([ev[fwd], eu[bwd]])
    vals = np.concatenate([w[fwd], w[bwd]])
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


@pytest.mark.parametrize("spec", ["half_plane:width=4,depth=3,h=0.5,conn=8",
                                  "strip:width=3,h=0.5,conn=4",
                                  "slit_plane:depth=1,h=0.5,conn=8"])
@pytest.mark.parametrize("metric", ["base", "phi", "random"])
def test_masked_interior_equals_the_edge_list_build(spec, metric):
    dom = generate_domain(spec)
    rng = np.random.default_rng(5)
    w = {"base": dom.edge_len,
         "phi": deform(dom, WeightFunction.power(2)).edge_len_phi,
         "random": rng.uniform(0.5, 1.5, dom.n_edges)}[metric]
    full = _graphs.build_adjacency(dom.n_vertices, dom.edge_u, dom.edge_v, w)
    # the domain's boundary, no vertex, every vertex and a random third
    for blocked in (dom.boundary_mask, np.zeros(dom.n_vertices, dtype=bool),
                    np.ones(dom.n_vertices, dtype=bool), rng.random(dom.n_vertices) < 0.3):
        got = _graphs.drop_incident_edges(full, blocked)
        want = _interior_from_edges(dom.n_vertices, dom.edge_u, dom.edge_v, w, blocked)
        for part in ("indptr", "indices", "data"):
            a, b = getattr(got, part), getattr(want, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), part
        assert got.indptr.dtype == got.indices.dtype == np.int32


def test_kernel_calls_leave_no_reference_cycles(tmp_path):
    # every array a kernel call took is freed when its last owner drops it,
    # not at the next garbage collection
    path = tmp_path / "strip.json"
    generate_domain("strip:width=4,h=0.5").save(path)
    adj = _diamond()
    gc.collect()
    gc.disable()
    try:
        dist = _graphs.distances_from(adj, 0)
        _graphs.distances_from(adj, 0, limit=1.1)
        _graphs.distances_from(adj, 0, stop=(np.array([3]), 0.0))
        _graphs.min_distance_field(adj, [0, 3])
        assert _graphs.pairwise_distances(adj, [0, 3])[0, 1] == 2.0  # pooled runs
        assert _graphs.extract_path(adj, dist, 0, 3).tolist() == [0, 1, 3]
        assert domain._scan(path) is not None  # the C scanner reads the file
        dom = load_domain(path)
        assert dom.distance(int(dom.ids[3]), int(dom.ids[12])) > 0.0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_goal_arrays_are_checked_before_the_kernel_reads_them():
    adj, stop = _diamond(), (np.array([3]), 0.0)
    for goal in ((np.zeros(3), None, 3, 0.0), (np.zeros(4), np.zeros(4), 3, 1.0),
                 (np.zeros(4, np.float32), None, 3, 0.0)):
        with pytest.raises(TypeError):
            _graphs.distances_from(adj, 0, stop=stop, goal=goal)
    with pytest.raises(IndexError):
        _graphs.distances_from(adj, 0, stop=stop, goal=(np.zeros(4), None, 4, 0.0))
    # so is the blocked mask: too short, or not bool
    for blocked in (np.zeros(3, bool), np.zeros(4, np.uint8), np.zeros(4)):
        with pytest.raises(TypeError):
            _graphs.distances_from(adj, 0, stop=stop, blocked=blocked)
        with pytest.raises(TypeError):
            _graphs.min_distance_field(adj, [0, 3], blocked=blocked)
    # and the scratch block: too short, or not float64
    for scratch in (np.empty(11), np.empty(12, np.float32), np.empty(24)[::2]):
        with pytest.raises(TypeError):
            _graphs.distances_from(adj, 0, stop=stop, scratch=scratch)
    # a zero field and kappa 0 steer nothing: the plain run
    assert _graphs.distances_from(adj, 0, goal=(np.zeros(4), np.zeros((4, 2)), 3, 0.0)
                                  ).tolist() == _graphs.distances_from(adj, 0).tolist()


def test_field_stacks_are_checked_before_the_kernel_reads_them():
    adj, stop = _diamond(), (np.array([3]), 0.0)
    cap = _graphs._MAX_FIELDS
    wide = np.zeros((4, 2 * cap))
    for fields in (np.zeros((3, 2)), np.zeros((5, 2)),  # a wrong row count
                   np.zeros((4, 2), np.float32), np.zeros((4, 2), order="F"),  # dtype, order
                   wide[:, ::2], wide[:, :2], np.zeros(8)[::2],  # strided
                   np.zeros((4, cap + 1)), np.zeros((4, 2, 1)),  # past the cap, not a block
                   [np.zeros(4)] * 2):  # a list of arrays is no block
        with pytest.raises(TypeError):
            _graphs.distances_from(adj, 0, stop=stop, goal=(fields, None, 3, 0.0))
    # an (n,) array is a one-column block, and a full block of exact fields
    # steers to the plain run, leaving no reference cycle behind
    plain = _graphs.distances_from(adj, 0, stop=stop)
    dist = _graphs.distances_from(adj, 0)
    gc.collect()
    gc.disable()
    try:
        for fields in (dist, np.repeat(dist[:, None], cap, axis=1),
                       np.stack([dist, np.zeros(4)], axis=1)):
            steered = _graphs.distances_from(adj, 0, stop=stop, goal=(fields, None, 3, 0.0))
            assert steered.tolist() == plain.tolist()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dropped_domains_leave_no_reference_cycles():
    # the views hold arrays, never their domain: pair queries on both views
    # and a boundary escape leave nothing for the garbage collector when the
    # domain and the deformed domain are dropped
    dom = generate_domain("half_plane:width=4,depth=8,h=0.25,conn=8")
    dd = deform(dom, WeightFunction.power(2))
    b, x, y = (int(dom.ids[dom.boundary_idx[3]]), dom.nearest_vertex(0.5, 2.0),
               dom.nearest_vertex(-1.0, 6.0))
    gc.collect()
    gc.disable()
    try:
        for pair in ((b, x), (x, y)):
            assert dom.distance(*pair) > 0.0 and dd.dphi_distance(*pair) > 0.0
            assert dd.dphi_geodesic(*pair).total_phi > 0.0
        assert dd.dist_to_infinity(b).upper > 0.0
        del dom, dd
        assert gc.collect() == 0
    finally:
        gc.enable()


def _deep_graphs():
    """(name, matrix, domain, blocked mask or None) on grids of about 40k
    vertices, where the heap holds hundreds of entries: a half plane's full
    and interior matrices, and its full one with the boundary mask, then
    the same three of a slit plane under random edge lengths."""
    hp = generate_domain("half_plane:width=20,depth=20,h=0.1,conn=8")
    sp = generate_domain("slit_plane:depth=5,h=0.1,conn=8")
    lengths = sp.edge_len * np.random.default_rng(3).uniform(0.5, 2.0, sp.n_edges)
    out = []
    for name, d, w in (("half_plane", hp, hp.edge_len), ("slit_random", sp, lengths)):
        full = _graphs.build_adjacency(d.n_vertices, d.edge_u, d.edge_v, w)
        out.append((f"{name}_full", full, d, None))
        out.append((f"{name}_interior",
                    _graphs.drop_incident_edges(full, d.boundary_mask), d, None))
        out.append((f"{name}_masked", full, d, d.boundary_mask))
    return out


def test_kernel_equals_scipy_on_deep_heaps():
    rng = np.random.default_rng(11)
    for name, adj, d, blocked in _deep_graphs():
        assert adj.shape[0] > 40_000
        # scipy runs on the matrix a blocked run stands for
        ref = adj if blocked is None else _graphs.drop_incident_edges(adj, blocked)
        for sources in (d.boundary_idx, d.frontier_idx):
            want = dijkstra(ref, directed=True, indices=sources, min_only=True)
            got = _graphs.min_distance_field(adj, sources, blocked)
            assert np.array_equal(got, want), name
        for root in rng.choice(adj.shape[0], 8, replace=False):
            full = dijkstra(ref, directed=True, indices=root)
            assert np.array_equal(_graphs.distances_from(adj, root, blocked=blocked),
                                  full), name
            reach = np.sort(full[np.isfinite(full)])
            limit = reach[len(reach) // 3]
            assert np.array_equal(_graphs.distances_from(adj, root, limit, blocked=blocked),
                                  dijkstra(ref, directed=True, indices=root,
                                           limit=limit)), name
            # stopped at the least dist[m] + offset over random members
            members = rng.choice(adj.shape[0], 6, replace=False)
            offsets = rng.uniform(0.0, 1.0, members.size)
            c = np.min(full[members] + offsets)
            stopped = _graphs.distances_from(adj, root, stop=(members, offsets),
                                             blocked=blocked)
            assert np.array_equal(stopped, dijkstra(ref, directed=True,
                                                    indices=root, limit=c)), name


def test_stopped_runs_hand_back_their_stop_value():
    # the kernel's c is numpy's least dist[m] + offset, bit for bit: a
    # repeated member counts at its least offset, an unreached one adds inf
    rng = np.random.default_rng(12)
    for name, adj, d, blocked in _deep_graphs():
        buf = _graphs.RunBuffer(adj.shape[0], 64)
        for root in rng.choice(adj.shape[0], 4, replace=False):
            members = rng.choice(adj.shape[0], 6)
            members = np.concatenate([members, members[:3], d.boundary_idx[:2]])
            offsets = rng.uniform(0.0, 1.0, members.size)
            dist, _ = buf.run(adj, root, stop=(members, offsets), blocked=blocked)
            assert buf.stop_value == np.min(dist[members] + offsets), name
        unreached = d.boundary_idx[d.boundary_idx != root][:3]
        buf.run(adj, root, stop=(unreached, 0.5), blocked=d.boundary_mask)
        assert buf.stop_value == np.inf, name
        buf.run(adj, root, limit=1.0)  # no stop members: no stop value
        assert buf.stop_value is None, name


def test_min_distance_field_falls_back_to_scipy(monkeypatch):
    # the slit plane's interior matrix, then its full one with the mask
    cases = _deep_graphs()[4:]
    fields = [_graphs.min_distance_field(adj, d.frontier_idx, blocked)
              for _, adj, d, blocked in cases]
    monkeypatch.setattr(_graphs, "_kernel", None)
    for (_, adj, d, blocked), field in zip(cases, fields):
        assert np.array_equal(_graphs.min_distance_field(adj, d.frontier_idx, blocked), field)


def test_caller_scratch_equals_the_kernels_own_allocation():
    # one block serves every run, whatever the runs before it left there:
    # full, bounded, stopped and steered, with and without a mask
    rng = np.random.default_rng(12)
    for name, adj, d, blocked in _deep_graphs():
        n = adj.shape[0]
        scratch = np.full(3 * n, np.nan)
        field = _graphs.min_distance_field(adj, d.boundary_idx, blocked)
        for root in rng.choice(n, 4, replace=False):
            full = _graphs.distances_from(adj, root, blocked=blocked)
            members = rng.choice(n, 6, replace=False)
            stop = (members, rng.uniform(0.0, 1.0, members.size))
            for run in ({}, {"limit": np.sort(full[np.isfinite(full)])[n // 4]},
                        {"stop": stop}, {"stop": stop, "goal": (field, None, -1, 0.0)},
                        {"stop": stop, "goal": (field, d.coords, int(members[0]), 1e-3)}):
                want = _graphs.distances_from(adj, root, blocked=blocked, **run)
                got = _graphs.distances_from(adj, root, blocked=blocked, scratch=scratch,
                                             **run)
                assert np.array_equal(got, want), (name, run.keys())


# -- the kernel checks its indices; bindings follow and never keep arrays ----


def _ladder(n):
    """A path 0 - 1 - ... - n-1 of unit edges."""
    return _graphs.build_adjacency(n, np.arange(n - 1), np.arange(1, n), np.ones(n - 1))


@pytest.mark.parametrize("kernel", [True, False], ids=["kernel", "scipy"])
def test_out_of_range_indices_raise_before_a_run(kernel, monkeypatch):
    # roots, stop members, targets and walk starts out of range, negative or
    # past int32, raise IndexError; the buffer a run would fill stays clean
    if not kernel:
        monkeypatch.setattr(_graphs, "_kernel", None)
    adj, stop = _diamond(), (np.array([3]), 0.0)
    dist = _graphs.distances_from(adj, 0)
    buf = _graphs.RunBuffer(4, 4)
    for bad in (-1, 4, 2**31, -2**31 - 1, 2**32, 2**63, 2**64):
        calls = [lambda: _graphs.distances_from(adj, bad),
                 lambda: _graphs.distances_from(adj, 0, stop=(np.array([3, bad]), 0.0),
                                                into=buf),
                 lambda: _graphs.distances_from(adj, 0, stop=([bad], [0.5]), into=buf),
                 lambda: list(_graphs.runs_from(adj, [0, bad])),
                 lambda: _graphs.min_distance_field(adj, [0, bad]),
                 lambda: _graphs.descend(adj, dist, bad)]
        if -2**63 <= bad < 2**63:  # numpy holds it in an int64 array
            calls.append(lambda: _graphs.distances_from(
                adj, 0, stop=(np.array([bad], dtype=np.int64), 0.0), into=buf))
        for call in calls:
            with pytest.raises(IndexError):
                call()
            assert np.isinf(buf.dist).all() and buf.settled == 0
    for bad in (-2, 4, 2**31, -2**31, 2**64):  # -1 steers toward the fields' zeros
        with pytest.raises(IndexError):
            _graphs.distances_from(adj, 0, stop=stop, into=buf,
                                   goal=(np.zeros(4), None, bad, 0.0))
        assert np.isinf(buf.dist).all() and buf.settled == 0
    # a view's stopped runs, fresh and after a run the view never reads back
    dom = generate_domain("half_plane:width=2,depth=2,h=0.5,conn=8")
    view = dom.view
    x = int(np.flatnonzero(~dom.boundary_mask)[0])
    for bad in (-1, dom.n_vertices, 2**31):
        with pytest.raises(IndexError):
            view.nearest(bad, np.array([x]))
        with pytest.raises(IndexError):
            view.nearest(x, np.array([bad]))
        view.run(x)  # the caller's run, from x
        with pytest.raises(IndexError):
            view.nearest(x, np.array([x, bad]), 0.0)
        with pytest.raises(IndexError):
            view.geodesic(x, bad)


def test_a_binding_follows_rebound_arrays(monkeypatch):
    adj = _deep_graphs()[3][1]  # the slit plane under random lengths
    n = adj.shape[0]
    before = _graphs.distances_from(adj, 5)
    old = weakref.ref(adj.data)
    adj.data = adj.data[::-1].copy()
    assert old() is None  # the binding kept the old array no longer
    for root in (5, n // 2):
        want = dijkstra(adj, directed=True, indices=root)
        assert np.array_equal(_graphs.distances_from(adj, root), want)
    assert not np.array_equal(_graphs.distances_from(adj, 5), before)
    walk = _graphs.descend(adj, want, 5)
    # a pin dies with its array, and a pin left under the id of another
    # array is no pin of that one: its address is checked and taken anew
    binding = _graphs._csr(adj)
    dead = np.zeros(n, bool)
    binding.pin(dead)
    pin = binding.pins[id(dead)]
    del dead
    assert pin[0]() is None
    other = np.zeros(n, np.uint8)
    binding.pins[id(other)] = pin
    with pytest.raises(TypeError):
        _graphs.distances_from(adj, 0, blocked=other)
    binding.pin(np.zeros(n, bool))  # a pin sweeps out the dead ones
    assert id(other) not in binding.pins
    monkeypatch.setattr(_graphs, "_kernel", None)
    assert all(np.array_equal(a, b) for a, b in zip(walk, _graphs.descend(adj, want, 5)))


def test_dropped_domains_leave_no_bound_array_alive():
    # pins hold their arrays weakly: with the domain gone, its steering
    # block, buffer and mask die even while a caller keeps the matrix
    dom = generate_domain("half_plane:width=4,depth=8,h=0.25,conn=8")
    dd = deform(dom, WeightFunction.power(2))
    x, y = dom.nearest_vertex(0.5, 2.0), dom.nearest_vertex(-1.0, 6.0)
    assert dd.dphi_geodesic(x, y).total_phi > 0.0 and dom.distance(x, y) > 0.0
    assert dd.dist_to_infinity(int(dom.ids[dom.boundary_idx[3]])).upper > 0.0
    view = dd.view
    kept = view.full
    refs = [weakref.ref(a) for a in (dom.view.full, dom.view.full.data, view.pair_fields,
                                     view._buffer.dist, dom.boundary_mask, view.coords,
                                     view.frontier_field, *view._steers.values())]
    assert len(_graphs._csr(kept).pins) >= 6
    del dom, dd, view
    gc.collect()
    assert [r() is None for r in refs] == [True] * len(refs)
    assert _graphs.distances_from(kept, 0).size == kept.shape[0]


def test_a_walk_longer_than_its_first_buffer_equals_the_python_walk(monkeypatch):
    n = 10 * _graphs._WALK  # past two growths
    adj = _ladder(n)
    dist = _graphs.distances_from(adj, 0)
    got = [_graphs.descend(adj, dist, start) for start in (n - 1, _graphs._WALK, 3)]
    assert [len(path) for path, _ in got] == [n, _graphs._WALK + 1, 4]
    monkeypatch.setattr(_graphs, "_kernel", None)
    for start, (path, entries) in zip((n - 1, _graphs._WALK, 3), got):
        want = _graphs.descend(adj, dist, start)
        assert path.tobytes() == want[0].tobytes() and entries.tobytes() == want[1].tobytes()


def test_warm_queries_take_no_address_of_a_long_lived_array(monkeypatch):
    # a steered pair query, a ball, a frontier run and a geodesic walk read
    # the addresses of the view's matrix, mask, coordinates, steering blocks
    # and buffer from their pins; _ptr sees only the arrays made per call
    dom = generate_domain("half_plane:width=8,depth=8,h=0.1,conn=8")
    view = deform(dom, WeightFunction.power(2)).view

    def queries(i):  # small runs: none renews the buffer
        a, b, c, d = (dom.index(dom.nearest_vertex(x, y)) for x, y in (
            (0.1 * i, 0.2), (0.1 * i + 0.3, 0.4), (-0.2 * i, 0.3), (-0.2 * i - 0.5, 0.1)))
        view.distance(a, b)
        view.ball(c, 0.25)
        view.nearest(b, view.frontier_idx, 0.0, ("frontier_field", -1))
        view.geodesic(c, d)
        _graphs.descend(view.full, view.frontier_field, a)

    queries(0)  # warm: fields, steering blocks and buffer made and pinned
    long_lived = [view.full.indptr, view.full.indices, view.full.data, view.boundary_mask,
                  view.coords, view.frontier_field, view._buffer.dist, view._buffer.order,
                  *view._steers.values()]
    seen, ptr = [], _graphs._ptr

    def recorded(arr, dtype, size=0):
        seen.append(arr)
        return ptr(arr, dtype, size)

    monkeypatch.setattr(_graphs, "_ptr", recorded)
    for i in range(1, 6):
        queries(i)
    assert seen  # the per-call arrays: stop members and offsets, walk buffers
    assert not [a for a in seen if any(a is b for b in long_lived)]
    assert view._buffer.dist is long_lived[6]  # no run overflowed and renewed it

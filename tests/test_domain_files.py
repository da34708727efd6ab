"""The two readers of domain files agree: the C scanner and json.load.

Every file is read by ``load_domain`` with the C library and without it.
The two must give bitwise-equal arrays and equal ``meta``, or raise the same
``DomainError``.  Each case also says whether the scanner takes the bytes
itself or declines them to ``json.load``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confdeform import _graphs
from confdeform import domain as domain_module
from confdeform.domain import (
    DomainError,
    MetricDomain,
    _scan,
    generate_domain,
    load_domain,
)

SPECS = ("half_plane:width=2,depth=2,h=0.5,conn=8", "strip:width=2,h=0.25,conn=4",
         "slit_plane:depth=1,h=0.25,conn=8")
COLUMNS = ("ids", "coords", "edge_u", "edge_v", "edge_len", "boundary_idx",
           "frontier_idx")


def _read(path):
    """The loaded domain's :func:`_columns`, or its error."""
    try:
        d = load_domain(path)
    except DomainError as exc:
        return "error", str(exc)
    return _columns(d)


def _columns(d):
    """A domain's columns and meta as bytes and JSON."""
    cols = [getattr(d, c) for c in COLUMNS]
    return ([None if a is None else (a.dtype.str, a.shape, a.tobytes()) for a in cols],
            json.dumps(d.meta, sort_keys=True))


def _both(path):
    """(whether the scanner takes the file, what it reads); the same read
    without the kernel must agree."""
    taken = _scan(path) is not None
    with_kernel = _read(path)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_graphs, "_kernel", None)
        assert _read(path) == with_kernel
    return taken, with_kernel


def _no_coords(d):
    return MetricDomain(ids=d.ids, coords=None, edge_u=d.edge_u, edge_v=d.edge_v,
                        edge_len=d.edge_len, boundary_idx=d.boundary_idx,
                        frontier_idx=d.frontier_idx, meta=d.meta)


def _shuffled(record):
    """Top-level keys reversed, and "xy" before "id" in every vertex."""
    out = {k: record[k] for k in reversed(list(record))}
    out["vertices"] = [dict(reversed(list(v.items()))) for v in record["vertices"]]
    return out


LAYOUTS = {
    "compact": lambda r: json.dumps(r, separators=(",", ":")),
    "indent4": lambda r: json.dumps(r, indent=4),
    "tabs": lambda r: json.dumps(r, indent="\t"),
    "crlf": lambda r: json.dumps(r, indent=1).replace("\n", "\r\n") + "\r\n",
    "shuffled": lambda r: json.dumps(_shuffled(r), indent=2),
}


@pytest.mark.parametrize("coords", [True, False], ids=["xy", "no_xy"])
@pytest.mark.parametrize("spec", SPECS)
def test_generated_files_read_the_same(tmp_path, spec, coords):
    d = generate_domain(spec)
    d = d if coords else _no_coords(d)
    d.save(tmp_path / "saved.json")
    texts = {name: layout(d.to_dict()) for name, layout in LAYOUTS.items()}
    for name, text in texts.items():
        (tmp_path / f"{name}.json").write_text(text, newline="")
    for name in ("saved", *texts):
        taken, (cols, meta) = _both(tmp_path / f"{name}.json")
        assert taken, name
        assert cols[0][2] == d.ids.tobytes() and cols[4][2] == d.edge_len.tobytes()
        assert (cols[1] is None) != coords
        assert json.loads(meta) == d.meta


# numbers in every spelling JSON allows: exponents, -0 and -0.0, integers
# where floats belong, a 57-digit float; meta brackets and quotes in strings
NUMBERS = r"""{"meta": {"h": 1E0, "note": "] } [ { \" \\", "deep": [1, {"a": [null, true]}]},
 "vertices": [{"xy": [-0, -0.0], "id": -0}, {"id": 1, "xy": [1e0, 2.5E-3]},
  {"id": 2, "xy": [2, 1e+1]},
  {"id": 3, "xy": [0.5e1, 0.1000000000000000055511151231257827021181583404541015625]}],
 "edges": [[-0, 1, 1e0], [1, 2, 25E-1], [2, 3, 3], [3, 0, 0.5e+1], [1, 3, 1.0000000000000002]],
 "boundary": [0], "frontier": [2]}"""
ID18, ID19, ID20 = "123456789012345678", "1234567890123456789", "12345678901234567890"


def _edit(old, new):
    return NUMBERS.replace(old, new, 1)


def _renamed(big):
    """NUMBERS, compact, with vertex 1 renamed to the integer spelled ``big``."""
    record = json.loads(NUMBERS)
    record["vertices"][1]["id"] = int(big)
    record["edges"] = [[int(big) if v == 1 else v for v in e[:2]] + e[2:]
                       for e in record["edges"]]
    return json.dumps(record, separators=(",", ":"))


# (name, file text, whether the scanner takes it, the error both raise or None)
CORPUS = [
    ("numbers", NUMBERS, True, None),
    ("id_18_digits", _renamed(ID18), True, None),
    ("id_19_digits", _renamed(ID19), False, None),
    ("id_20_digits", _renamed(ID20), False, "does not fit in 64 bits"),
    ("length_19_digits", _edit("[2, 3, 3]", f"[2, 3, {ID19}]"), False, None),
    ("token_70_bytes", _edit("1.0000000000000002", "1." + "0" * 68), False, None),
    ("nan", _edit("25E-1", "NaN"), False, "positive and finite"),
    ("infinity", _edit("25E-1", "Infinity"), False, "positive and finite"),
    ("true", _edit("25E-1", "true"), False, "edge length must be a number, got True"),
    ("null", _edit("[2, 3, 3]", "[2, 3, null]"), False,
     "edge length must be a number, got None"),
    ("float_id", _edit('"id": 1,', '"id": 1.0,'), False, "must be an integer, got 1.0"),
    ("leading_zero", _edit("25E-1", "025"), False, "not valid JSON"),
    ("duplicate_key", _edit('"boundary": [0]', '"boundary": [1], "boundary": [0]'),
     False, None),
    ("unknown_key", _edit('"boundary"', '"colour": "red", "boundary"'), False, None),
    ("escaped_key", _edit('"edges"', '"\\u0065dges"'), False, None),
    ("extra_vertex_key", _edit('"id": 2,', '"id": 2, "label": "b",'), False, None),
    ("duplicate_vertex_key", _edit('"id": 2,', '"id": 7, "id": 2,'), False, None),
    ("no_frontier", _edit(', "frontier": [2]', ""), True, None),
    ("no_meta", NUMBERS[NUMBERS.index("\n") + 1:].replace(' "vertices"', '{"vertices"'),
     True, None),
    ("no_edges", _edit('"edges"', '"edgez"'), False, "missing required domain field"),
    ("meta_list", _edit('{"h": 1E0,', '[{"h": 1E0,').replace("true]}]},", "true]}]}],"), True,
     "meta must be an object, not list"),
    ("meta_non_ascii", _edit('"note": "', '"note": "é'), False, None),
    ("meta_nan", _edit('"h": 1E0', '"h": NaN'), True, None),
    ("unknown_id", _edit("[2, 3, 3]", "[2, 55, 3]"), True, "unknown vertex id 55"),
    ("repeated_id", _edit('}],\n "edges"', '}, {"id": 1, "xy": [7, 7]}],\n "edges"'),
     True, "vertex ids are not unique"),
    ("mixed_xy", _edit(', "xy": [2, 1e+1]', ""), True, "either all vertices"),
    ("no_vertices", '{"vertices": [], "edges": [], "boundary": []}', True,
     "domain has no vertices"),
    ("empty_object", "{}", False, "missing required domain field"),
    ("bom", "\ufeff" + NUMBERS, False, "not valid JSON"),
    ("trailing_garbage", NUMBERS + "\n]", False, "not valid JSON"),
    ("trailing_nul", NUMBERS + "\0", False, "not valid JSON"),
    ("truncated", NUMBERS[:-40], False, "not valid JSON"),
    ("truncated_meta", NUMBERS[:30], False, "not valid JSON"),
]


@pytest.mark.parametrize("text, taken, error", [c[1:] for c in CORPUS],
                         ids=[c[0] for c in CORPUS])
def test_corpus_reads_the_same(tmp_path, text, taken, error):
    path = tmp_path / "dom.json"
    path.write_bytes(text.encode())
    scanned, (cols, meta) = _both(path)
    assert scanned == taken
    if error is None:
        assert cols != "error", meta
    else:
        assert cols == "error" and error in meta


def test_numbers_read_as_json_reads_them(tmp_path):
    path = tmp_path / "dom.json"
    path.write_text(NUMBERS)
    d = load_domain(path)
    assert np.signbit(d.coords[0]).tolist() == [False, True]  # -0 is int 0
    assert d.coords[3, 1] == 0.1 and d.edge_len[2] == 3.0
    assert d.meta["note"] == '] } [ { " \\'


# decimal spellings strtod must round as Python's float does: long
# mantissas, halfway cases, subnormal and overflowing exponents
_token = st.from_regex(r"-?(0|[1-9][0-9]{0,20})(\.[0-9]{1,30})?([eE][+-]?[0-9]{1,3})?",
                       fullmatch=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(_token, _token), min_size=2, max_size=6),
       st.lists(st.floats(min_value=5e-324, allow_infinity=False), min_size=1,
                max_size=5))
def test_decimal_tokens_read_bitwise(tmp_path_factory, xy, lengths):
    n = len(xy)
    vertices = ", ".join(f'{{"id": {i}, "xy": [{x}, {y}]}}' for i, (x, y) in enumerate(xy))
    edges = ", ".join(f"[{i}, {i + 1}, {lengths[i % len(lengths)]!r}]"
                      for i in range(n - 1))
    path = tmp_path_factory.mktemp("tokens") / "dom.json"
    path.write_text(f'{{"vertices": [{vertices}], "edges": [{edges}], "boundary": [0]}}')
    _, (cols, _) = _both(path)
    assert cols != "error"
    # json.load reads an integer as an int: "-0" is then +0.0
    assert cols[1][2] == np.array([[float(json.loads(x)), float(json.loads(y))]
                                   for x, y in xy]).tobytes()


@pytest.mark.parametrize("spec", SPECS)
def test_shuffled_ids_load_as_their_sorted_twin(tmp_path, spec):
    # one domain under shuffled ids, saved in the generator's vertex order
    # and with its vertices sorted by id: each file loads to the arrays it
    # was saved from, and the two agree vertex for vertex
    d = generate_domain(spec)
    ids = np.random.default_rng(1).permutation(d.n_vertices) * 3 - 5
    order = np.argsort(ids)
    rank = np.argsort(order)  # the sorted twin's index of each vertex
    doms = [MetricDomain(ids=ids, coords=d.coords, edge_u=d.edge_u, edge_v=d.edge_v,
                         edge_len=d.edge_len, boundary_idx=d.boundary_idx,
                         frontier_idx=d.frontier_idx, meta=d.meta),
            MetricDomain(ids=ids[order], coords=d.coords[order], edge_u=rank[d.edge_u],
                         edge_v=rank[d.edge_v], edge_len=d.edge_len,
                         boundary_idx=rank[d.boundary_idx],
                         frontier_idx=rank[d.frontier_idx], meta=d.meta)]
    loaded = []
    for n, dom in enumerate(doms):
        dom.save(tmp_path / f"{n}.json")
        assert _both(tmp_path / f"{n}.json") == (True, _columns(dom))
        loaded.append(load_domain(tmp_path / f"{n}.json"))
    shuffled, twin = loaded
    assert (shuffled.ids[order] == twin.ids).all()
    assert (shuffled.coords[order] == twin.coords).all()
    for col in ("edge_u", "edge_v", "boundary_idx", "frontier_idx"):
        assert (rank[getattr(shuffled, col)] == getattr(twin, col)).all()


def test_saved_files_never_reach_json_load(tmp_path, monkeypatch):
    # a silent fallback would keep every answer and lose the speed
    def refuse(*args, **kwargs):
        raise AssertionError("json.load read a saved domain file")
    monkeypatch.setattr(json, "load", refuse)
    for spec in SPECS:
        d = generate_domain(spec)
        for n, dom in enumerate((d, _no_coords(d))):
            path = tmp_path / f"{n}.json"
            dom.save(path)
            assert load_domain(path).to_dict() == dom.to_dict()


# -- the scanner's decimal path, its token reuse and its room ----------------


def _scans(monkeypatch):
    """Record every ``cd_scan`` call of the loaded kernel; the list grows per call."""
    calls, real = [], _graphs._kernel.cd_scan

    def counted(*args):
        calls.append(args[1])
        return real(*args)

    monkeypatch.setattr(_graphs._kernel, "cd_scan", counted)
    return calls


# (tokens, why): read in this order, as vertex coordinates
TOKENS = [
    (["0.123456789012345", "-98765.4321098765", "123456789.012345"],
     "15 significant digits: one exact division"),
    (["0.9007199254740993", "1234567890.123457"],
     "16 significant digits: 9007199254740993 is no double, so strtod"),
    (["0.0000000000000000000001", "-0.0000000000000000000017"], "exponent -22"),
    (["0.00000000000000000000001", "0.00000000000000000000007"],
     "exponent -23: 1 / 1e23 rounds twice, so strtod"),
    (["-0.0", "5.0", "-7.000", "10.50"], "-0.0 and integers spelled with .0"),
    (["1.5e3", "2E-2", "1e22", "3.0e-1", "0.5e+1", "1e23", "123456789012345e-22"],
     "exponents go to strtod"),
    (["0.14142135623730953", "0.14142135623730951", "0.14142135623730953",
      "0.14142135623730953", "0.5", "0.14142135623730953", "0.14142135623730951"],
     "tokens strtod read in a row, of one length: reuse compares bytes"),
]


@pytest.mark.parametrize("tokens", [t for t, _ in TOKENS], ids=[w for _, w in TOKENS])
def test_decimal_path_and_token_reuse_read_bitwise(tmp_path, tokens):
    # vertex coordinates, in file order, with a 0 to fill the last pair
    xy = np.array(tokens + ["0"] * (len(tokens) % 2)).reshape(-1, 2)
    vertices = ",".join(f'{{"id":{i},"xy":[{x},{y}]}}' for i, (x, y) in enumerate(xy))
    edges = ",".join(f"[{i},{i + 1},1]" for i in range(len(xy) - 1))
    path = tmp_path / "dom.json"
    path.write_text(f'{{"vertices":[{vertices}],"edges":[{edges}],"boundary":[0]}}')
    taken, (cols, _) = _both(path)
    assert taken and cols != "error"
    assert cols[1][2] == np.array([float(json.loads(t)) for t in xy.ravel()]).tobytes()


@pytest.mark.parametrize("layout", [
    '{"boundary":[%s],"edges":[],"vertices":[{"id":0}]}' % ",".join(["0"] * 500),
    '{"boundary":[0],"edges":[],"frontier":[%s],"vertices":[{"id":0}]}'
    % ",".join(["1"] * 500),
    '{"boundary":[0],"edges":[%s],"vertices":[{"id":0}]}' % ",".join(["[0,1,1]"] * 500),
    '{"boundary":[0],"edges":[],"vertices":[%s]}'
    % ",".join(f'{{"id":{i % 10}}}' for i in range(500)),
    '{"boundary":[0],"edges":[],"vertices":[%s]}'
    % ",".join(f'{{"id":{i % 10},"xy":[0,0]}}' for i in range(500)),
], ids=["boundary", "frontier", "edges", "vertices", "xy"])
def test_densest_lists_fit_their_room(tmp_path, monkeypatch, layout):
    # each list at its fewest bytes a record, no whitespace: one pass fills it
    path = tmp_path / "dense.json"
    path.write_text(layout)
    calls = _scans(monkeypatch)
    cols = _scan(path)
    assert cols is not None and len(calls) == 1
    assert max(map(len, cols[:7])) == 500


def test_saved_files_scan_once(tmp_path, monkeypatch):
    d = generate_domain(SPECS[0])
    d.save(tmp_path / "saved.json")
    calls = _scans(monkeypatch)
    assert _columns(load_domain(tmp_path / "saved.json")) == _columns(d)
    assert len(calls) == 1


def test_a_list_past_its_room_is_read_again(tmp_path, monkeypatch):
    # no list comes back part filled: the second pass has exactly its room
    d = generate_domain(SPECS[2])
    d.save(tmp_path / "saved.json")
    monkeypatch.setattr(domain_module, "_MAX_ROOM", 3)
    calls = _scans(monkeypatch)
    assert _columns(load_domain(tmp_path / "saved.json")) == _columns(d)
    assert len(calls) == 2


# an edge end, boundary marker or frontier marker naming a vertex no file has
UNKNOWN_IDS = [
    ("edge_end_n", lambda r, n: r["edges"][3].__setitem__(1, n)),
    ("edge_end_minus_1", lambda r, n: r["edges"][5].__setitem__(0, -1)),
    ("boundary_n", lambda r, n: r["boundary"].append(n)),
    ("boundary_minus_1", lambda r, n: r["boundary"].insert(1, -1)),
    ("frontier_n", lambda r, n: r["frontier"].insert(0, n)),
    ("frontier_minus_1", lambda r, n: r["frontier"].append(-1)),
]


@pytest.mark.parametrize("edit", [e for _, e in UNKNOWN_IDS], ids=[i for i, _ in UNKNOWN_IDS])
def test_identity_ids_name_unknown_ids_as_shuffled_ones_do(tmp_path, edit):
    # ids equal to their rows map by a range check, others by a sort: the
    # same file under a permutation of its vertex records raises the same error
    d = generate_domain(SPECS[0])
    record = d.to_dict()
    edit(record, d.n_vertices)
    shuffled = dict(record, vertices=[record["vertices"][i] for i in
                                      np.random.default_rng(2).permutation(d.n_vertices)])
    errors = []
    for name, r in (("identity", record), ("shuffled", shuffled)):
        (tmp_path / f"{name}.json").write_text(json.dumps(r, separators=(",", ":")))
        taken, (cols, message) = _both(tmp_path / f"{name}.json")
        assert taken and cols == "error"
        errors.append(message)
    assert errors[0] == errors[1]
    assert errors[0].startswith("edge or marker refers to unknown vertex id ")

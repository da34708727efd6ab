"""End-to-end runs of the command-line driver through ``cli.main``."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from confdeform import _graphs, cli, verify
from confdeform.verify import CheckReport

DOM = "half_plane:width=4,depth=8,h=0.25,conn=8"
W = "power:beta=2"
COMMON = ["--domain", DOM, "--weight", W, "--samples", "20", "--seed", "1"]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def run_both(argv, monkeypatch):
    """run(argv) with the C library, which reads domain files with its
    scanner, and again without it (json.load); the two must agree."""
    ran = run(argv)
    monkeypatch.setattr(_graphs, "_kernel", None)
    assert run(argv) == ran
    return ran


def test_generate_writes_loadable_domain(tmp_path):
    path = str(tmp_path / "strip.json")
    code, out, _ = run(["generate", "--spec", "strip:width=3,h=0.5", "--out", path])
    assert code == 0 and out == ""
    # the file round-trips through another subcommand
    code, out, _ = run(["distance", "--domain", path, "--weight", W,
                        "--from", "id:0", "--to", "id:1"])
    assert code == 0
    assert json.loads(out)["d"] == 0.5


def test_generate_without_out_prints_json():
    code, out, _ = run(["generate", "--spec", "strip:width=2,h=0.5"])
    assert code == 0
    record = json.loads(out)
    assert record["meta"]["generator"] == "strip"
    assert len(record["vertices"]) == 15
    assert record["vertices"][0] == {"id": 0, "xy": [-1.0, 0.0]}


def test_distance_snaps_coordinates():
    code, out, _ = run(["distance", *COMMON, "--from", "0,1", "--to", "0,4"])
    assert code == 0
    rec = json.loads(out)
    assert rec["d"] == 3.0
    assert 0.0 < rec["d_phi"] < rec["d"]
    assert isinstance(rec["x"], int) and isinstance(rec["y"], int)


def test_distance_to_infinity_interval():
    code, out, _ = run(["distance", *COMMON, "--from", "id:0", "--to", "inf"])
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"x", "lower", "upper", "frontier_shell", "clamped"}
    assert rec["x"] == 0
    assert 0.0 < rec["lower"] <= rec["upper"]
    assert rec["frontier_shell"] == 3


def test_geodesic_lists_vertices():
    code, out, _ = run(["geodesic", *COMMON, "--from", "0,1", "--to", "0,2"])
    assert code == 0
    rec = json.loads(out)
    assert rec["d"] == 1.0
    assert len(rec["geodesic"]) == 5
    assert rec["geodesic"][0] == rec["x"]
    assert rec["geodesic"][-1] == rec["y"]
    assert rec["d_phi"] < 1.0


def test_geodesic_to_infinity_carries_interval():
    code, out, _ = run(["geodesic", *COMMON, "--cu", "2", "--cq", "1",
                        "--from", "0,1", "--to", "inf"])
    assert code == 0
    rec = json.loads(out)
    assert rec["y"] == "inf"
    assert rec["to_infinity"] is True
    lo, hi = rec["d_phi_interval"]
    assert 0.0 < lo <= hi


def test_quadrature_flag_changes_refinement():
    argv = ["distance", *COMMON, "--from", "0,1", "--to", "0,4"]
    coarse = json.loads(run([*argv, "--quad", "trapezoid"])[1])["d_phi"]
    fine = json.loads(run([*argv, "--quad", "subdivided:8"])[1])["d_phi"]
    # refinement can only lower the overestimate
    assert fine <= coarse


def test_constants_with_explicit_cu_cq():
    code, out, _ = run(["constants", "--weight", W, "--cu", "2", "--cq", "1"])
    assert code == 0
    rec = json.loads(out)
    assert rec["n0"] == 2 and rec["m0"] == 10
    assert rec["k_star"] == 2
    assert rec["lam"] == 2.0 ** -12
    assert rec["c_star"] == pytest.approx(2.000887784, rel=1e-9)
    assert "estimated" not in rec


def test_constants_estimated_from_domain():
    code, out, _ = run(["constants", "--weight", W, "--domain", DOM,
                        "--samples", "20", "--seed", "0"])
    assert code == 0
    rec = json.loads(out)
    est = rec["estimated"]
    assert est["pairs"] > 0
    assert est["cu"] >= 1.0 and est["cq"] >= 1.0
    assert rec["m0"] >= rec["n0"] + 3


def test_constants_from_a_domain_builds_no_deformed_matrix(monkeypatch):
    # the estimate reads the base metric only: no quadrature, one matrix
    calls = []
    for owner, name in ((_graphs, "build_adjacency"),
                        (sys.modules["confdeform.deform"], "_deformed_edge_lengths")):
        def counted(*args, orig=getattr(owner, name), name=name, **kwargs):
            calls.append(name)
            return orig(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)
    code, _, _ = run(["constants", "--weight", W, "--domain", DOM,
                      "--samples", "20", "--seed", "0"])
    assert code == 0
    assert calls == ["build_adjacency"]


def test_constants_needs_domain_or_overrides():
    code, _, err = run(["constants", "--weight", W])
    assert code == 2
    assert "either --cu and --cq or --domain" in err


def test_synthesize_reports_case_and_bound():
    code, out, _ = run(["synthesize", *COMMON, "--cu", "2", "--cq", "1",
                        "--from", "0,1", "--to", "0,4"])
    assert code == 0
    rec = json.loads(out)
    assert rec["case"] == "medium_inside"
    assert rec["measured"] <= rec["predicted"]
    assert rec["curve"]["vertices"][0] == rec["x"]
    assert rec["spliceverts"] == []


def test_synthesize_to_infinity():
    code, out, _ = run(["synthesize", *COMMON, "--cu", "2", "--cq", "1",
                        "--from", "0,1", "--to", "inf"])
    assert code == 0
    rec = json.loads(out)
    assert rec["case"] == "to_infinity_shallow"
    assert rec["y"] == "inf"
    assert rec["notes"]["k_star"] == 12
    assert rec["curve"]["to_infinity"] is True


def test_check_clean_run_is_deterministic(tmp_path):
    argv = ["check", *COMMON, "--cu", "2", "--cq", "1", "--no-timestamp"]
    code1, out1, _ = run(argv)
    code2, out2, _ = run(argv)
    assert code1 == code2 == 0
    assert out1 == out2
    rec = json.loads(out1)
    assert rec["violations_total"] == 0
    assert len(rec["checks"]) == 7
    assert "timestamp" not in rec
    # --out writes the same payload to a file instead of stdout
    path = str(tmp_path / "report.json")
    code3, out3, _ = run([*argv, "--out", path])
    assert code3 == 0 and out3 == ""
    assert open(path).read() == out1


def test_check_runs_every_dijkstra_in_the_kernel(monkeypatch):
    # estimated constants, all 7 checkers: single runs and sweeps alike
    argv = ["check", *COMMON, "--no-timestamp"]

    def scipy_dijkstra(*args, **kwargs):
        raise AssertionError("scipy dijkstra called with the kernel loaded")
    with monkeypatch.context() as m:
        m.setattr(_graphs, "dijkstra", scipy_dijkstra)
        ran = run(argv)
    assert ran[0] == 0
    monkeypatch.setattr(_graphs, "_kernel", None)  # scipy, the oracle
    assert run(argv) == ran


def test_check_and_report_write_the_same_bytes_on_one_cpu(tmp_path, monkeypatch):
    # estimated constants, all 7 checkers and the synthesis audit, with the
    # independent runs on a pool of three workers, then inline
    def outputs(cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out_dir = tmp_path / str(cpus)
        checked = run(["check", *COMMON, "--no-timestamp"])
        reported = run(["report", *COMMON, "--inf-queries", "4", "--out", str(out_dir),
                        "--no-timestamp"])
        return checked, reported, {p.name: p.read_bytes() for p in out_dir.iterdir()}

    pooled = outputs(3)
    assert pooled[0][0] == 0 and pooled[1][0] == 0 and len(pooled[2]) == 3
    assert outputs(1) == pooled


def test_check_default_includes_timestamp():
    code, out, _ = run(["check", *COMMON, "--cu", "2", "--cq", "1"])
    assert code == 0
    assert "timestamp" in json.loads(out)


def test_check_subset_estimates_constants():
    code, out, _ = run(["check", *COMMON,
                        "--checks", "large_bound,separation_from_infinity"])
    assert code == 0
    rec = json.loads(out)
    assert [c["name"] for c in rec["checks"]] == [
        "large_bound", "separation_from_infinity"]
    assert rec["estimated"]["pairs"] > 0


def test_check_exit_code_on_violation(monkeypatch):
    def failing(dd, bundle, n_samples=200, seed=0, tolerance=None):
        return CheckReport(
            name="large_bound", samples=3, violations=1, worst_ratio=97.0,
            tolerance=tolerance or 0.0, seed=seed,
            witnesses=[{"ratio": 97.0}])

    monkeypatch.setattr(verify, "check_large_bound", failing)
    code, out, _ = run(["check", *COMMON, "--cu", "2", "--cq", "1",
                        "--checks", "large_bound", "--no-timestamp"])
    assert code == 1
    rec = json.loads(out)
    assert rec["violations_total"] == 1
    assert rec["checks"][0]["witnesses"] == [{"ratio": 97.0}]


def test_report_writes_bundle_directory(tmp_path):
    out_dir = str(tmp_path / "rep")
    code, _, _ = run(["report", *COMMON, "--cu", "2", "--cq", "1",
                      "--inf-queries", "4", "--out", out_dir, "--no-timestamp"])
    assert code == 0
    assert sorted(os.listdir(out_dir)) == [
        "aggregate.json", "checks.csv", "synthesis.json"]
    agg = json.load(open(os.path.join(out_dir, "aggregate.json")))
    assert agg["violations_total"] == 0
    synth = json.load(open(os.path.join(out_dir, "synthesis.json")))
    assert synth["summary"]["samples"] == 24
    assert synth["summary"]["flags"] == []
    header = open(os.path.join(out_dir, "checks.csv")).readline().strip()
    assert header.split(",")[0] == "check"


def test_report_flags_synthesis_regression(tmp_path, monkeypatch):
    monkeypatch.setattr(
        cli, "predicted_vs_measured",
        lambda *a, **k: {"rows": [], "summary": {"flags": ["fake"], "samples": 0}})
    out_dir = str(tmp_path / "rep")
    code, _, _ = run(["report", *COMMON, "--cu", "2", "--cq", "1",
                      "--out", out_dir, "--no-timestamp"])
    assert code == 1


@pytest.mark.parametrize("argv, fragment", [
    (["distance", "--domain", DOM, "--weight", "power:beta=oops",
      "--from", "0,1", "--to", "0,2"], "beta"),
    (["distance", "--domain", "/nope/missing.json", "--weight", W,
      "--from", "0,1", "--to", "0,2"], "neither a domain file"),
    (["distance", *COMMON, "--from", "id:999999", "--to", "0,2"],
     "unknown vertex id"),
    (["distance", *COMMON, "--from", "zzz", "--to", "0,2"],
     "bad vertex reference"),
    (["check", "--domain", DOM, "--weight", W, "--samples", "0",
      "--cu", "2", "--cq", "1"], "sample budget"),
    (["check", *COMMON, "--tol", "0.5", "--cu", "2", "--cq", "1"],
     "tolerance factor"),
    (["synthesize", *COMMON, "--cu", "2", "--cq", "1",
      "--from", "0,1", "--to", "0,1"], "endpoints must differ"),
    (["distance", *COMMON, "--from", "id:99999999999999999999", "--to", "0,2"],
     "does not fit in 64 bits"),
    (["distance", *COMMON, "--quad", "nope", "--from", "0,1", "--to", "0,2"],
     "unknown quadrature"),
    (["distance", *COMMON, "--quad", "subdivided:0", "--from", "0,1", "--to", "0,2"],
     "subdivision count"),
    (["check", *COMMON, "--tol", "abc", "--cu", "2", "--cq", "1"],
     "--tol must be 'auto' or a number >= 1, got 'abc'"),
    # with both constants given, constants loads no domain but checks flags
    (["constants", "--weight", W, "--cu", "2", "--cq", "1", "--quad", "nope"],
     "unknown quadrature"),
    (["constants", "--weight", W, "--cu", "2", "--cq", "1", "--samples", "0"],
     "sample budget"),
    (["constants", "--weight", W, "--cu", "2", "--cq", "1", "--tol", "0.5"],
     "tolerance factor"),
    (["check", *COMMON, "--tol", "nan", "--cu", "2", "--cq", "1"],
     "tolerance factor"),
    (["distance", "--domain", DOM, "--weight", "power:beta=nan",
      "--from", "0,1", "--to", "0,2"], "beta must be finite"),
    (["distance", "--domain", DOM, "--weight", "powerlog:beta=2,kappa=inf",
      "--from", "0,1", "--to", "0,2"], "kappa must be finite"),
    (["distance", *COMMON, "--from", "inf,0.5", "--to", "0,2"],
     "coordinates must be finite"),
    (["distance", *COMMON, "--from", "nan,0.5", "--to", "0,2"],
     "coordinates must be finite"),
    (["report", *COMMON, "--cu", "2", "--cq", "1", "--inf-queries", "-3"],
     "sample counts must be nonnegative"),
    # so far outside the vertices that squared distances overflow, or that
    # every vertex ties at one squared distance
    (["distance", *COMMON, "--from", "1e200,0.5", "--to", "0,2"],
     "too far outside"),
    (["distance", *COMMON, "--from", "1e20,0.5", "--to", "0,2"],
     "too far outside"),
    # generator extents: named, not an OverflowError, ZeroDivisionError or
    # numpy's sample count
    (["distance", "--domain", "half_plane:width=inf", "--weight", W,
      "--from", "0,1", "--to", "0,2"], "extent inf must be finite"),
    (["distance", "--domain", "half_plane:h=0", "--weight", W,
      "--from", "0,1", "--to", "0,2"], "mesh size h must be positive and finite, got 0.0"),
    (["distance", "--domain", "half_plane:h=-0.5,width=2,depth=2", "--weight", W,
      "--from", "0,1", "--to", "0,2"], "mesh size h must be positive and finite, got -0.5"),
    # a checker list that names nothing, or a name no checker has
    (["check", *COMMON, "--checks", ","], "--checks takes 'all' or names from"),
    (["check", *COMMON, "--checks", "large_bound,bogus"], "got 'large_bound,bogus'"),
    # vertex references that are not numbers: named, not Python's message
    (["distance", *COMMON, "--from", "id:abc", "--to", "0,2"],
     "bad vertex reference 'id:abc'; use 'x,y' coordinates or 'id:N'"),
    (["distance", *COMMON, "--from", "1,x", "--to", "0,2"],
     "bad vertex reference '1,x'; use 'x,y' coordinates or 'id:N'"),
    # a repeated spec parameter, which would otherwise take its last value
    (["distance", "--domain", DOM, "--weight", "power:beta=2,beta=3",
      "--from", "0,1", "--to", "0,2"], "bad or repeated weight parameter 'beta=3'"),
    (["distance", "--domain", "strip:width=2,width=4,h=0.5", "--weight", W,
      "--from", "0,1", "--to", "0,2"], "bad or repeated generator parameter 'width=4' for strip"),
    # every checker would pass, and the report's tolerance is no JSON number
    (["check", *COMMON, "--tol", "inf", "--cu", "2", "--cq", "1"],
     "tolerance factor must be finite and at least 1, got inf"),
    # named, not numpy's "expected non-negative integer" once the domain is built
    (["check", *COMMON, "--cu", "2", "--cq", "1", "--seed", "-1"],
     "--seed must be nonnegative, got -1"),
])
def test_bad_input_exits_2(argv, fragment):
    code, _, err = run(argv)
    assert code == 2
    assert err.startswith("error: ")
    assert fragment in err


def test_negative_inf_queries_exit_2_before_the_domain_loads(monkeypatch):
    def no_load(spec):
        raise AssertionError("the domain was loaded")
    monkeypatch.setattr(cli, "_load_domain", no_load)
    code, _, err = run(["report", *COMMON, "--cu", "2", "--cq", "1",
                        "--inf-queries", "-3"])
    assert code == 2
    assert "sample counts must be nonnegative" in err


def test_negative_seed_exits_2_before_the_domain_loads(monkeypatch):
    def no_load(spec):
        raise AssertionError("the domain was loaded")
    monkeypatch.setattr(cli, "_load_domain", no_load)
    code, _, err = run(["check", *COMMON, "--seed", "-1"])
    assert code == 2
    assert "--seed must be nonnegative" in err


@pytest.mark.parametrize("checks", [",", "", "bogus"])
def test_bad_checks_exit_2_before_the_domain_loads(monkeypatch, checks):
    def no_load(spec):
        raise AssertionError("the domain was loaded")
    monkeypatch.setattr(cli, "_load_domain", no_load)
    code, _, err = run(["check", *COMMON, "--checks", checks])
    assert code == 2
    assert "--checks takes 'all' or names from" in err


def test_repeated_edge_in_domain_file_exits_2(tmp_path, monkeypatch):
    path = str(tmp_path / "strip.json")
    assert run(["generate", "--spec", "strip:width=2,h=0.5", "--out", path])[0] == 0
    with open(path) as fh:
        record = json.load(fh)
    u, v, w = record["edges"][0]
    record["edges"].append([v, u, w])
    with open(path, "w") as fh:
        json.dump(record, fh)
    code, _, err = run_both(["distance", "--domain", path, "--weight", W,
                             "--from", f"id:{u}", "--to", f"id:{v}"], monkeypatch)
    assert code == 2
    assert "more than once" in err


def test_malformed_edge_in_domain_file_exits_2(tmp_path, monkeypatch):
    # an exit code of 1 would read as a violation
    path = str(tmp_path / "short.json")
    with open(path, "w") as fh:
        json.dump({"vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1]],
                   "boundary": [0]}, fh)
    code, _, err = run_both(["distance", "--domain", path, "--weight", W,
                             "--from", "id:0", "--to", "id:1"], monkeypatch)
    assert code == 2
    assert "is not a list" in err


@pytest.mark.parametrize("meta, first_edge, fragment", [
    ([1], None, "meta must be an object"),
    ("h=0.5", None, "meta must be an object"),
    (0.5, None, "meta must be an object"),
    ({"h": True}, None, "mesh size"),
    ({"h": "0.25"}, None, "mesh size"),
    ({"h": 1e-300}, None, "mesh size"),
    ({"h": float("nan")}, None, "mesh size"),
    ({}, 1e-300, "mesh size"),  # the shortest-edge fallback
])
def test_malformed_meta_in_domain_file_exits_2(tmp_path, monkeypatch, meta,
                                               first_edge, fragment):
    path = str(tmp_path / "strip.json")
    assert run(["generate", "--spec", "strip:width=2,h=0.5", "--out", path])[0] == 0
    with open(path) as fh:
        record = json.load(fh)
    record["meta"] = meta
    if first_edge is not None:
        record["edges"][0][2] = first_edge
    with open(path, "w") as fh:
        json.dump(record, fh)
    code, _, err = run_both(["distance", "--domain", path, "--weight", W,
                             "--from", "id:0", "--to", "id:1"], monkeypatch)
    assert code == 2
    assert err.startswith("error: ")
    assert fragment in err


def _env():
    """The environment of a child process that imports this package."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}


def test_cli_start_up_leaves_out_scipy_integrate():
    # only power_log's integral_tail integrates, and pays for the import
    code = "import sys, confdeform.cli; print('scipy.integrate' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                           env=_env(), timeout=60)
    assert (child.returncode, child.stdout) == (0, "False\n"), child.stderr


def test_sparse_interiors_end_in_time(tmp_path):
    # one boundary vertex and one interior vertex: no walk can leave its
    # start and no pair has two interior ends; each command, run in a
    # process of its own, must end before its timeout
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"vertices": [{"id": 0}, {"id": 1}],
                                "edges": [[0, 1, 1.0]], "boundary": [0]}))
    env = _env()
    common = ["--domain", str(path), "--weight", W, "--cu", "2", "--cq", "1",
              "--no-timestamp"]

    def confdeform(*argv):
        return subprocess.run([sys.executable, "-m", "confdeform.cli", *argv, *common],
                              capture_output=True, text=True, env=env, timeout=60)

    checked = confdeform("check", "--checks", "crossing_levels")
    assert checked.returncode == 0, checked.stderr
    report = json.loads(checked.stdout)["checks"][0]
    assert (report["samples"], report["excluded"]) == (0, 8 * 200)
    reported = confdeform("report", "--out", str(tmp_path / "report"))
    assert reported.returncode == 2
    assert reported.stderr == "error: pairs need at least two interior vertices\n"

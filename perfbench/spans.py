"""In-memory span tracing of confdeform, installed from outside the package.

``Tracer.install()`` replaces each traced function, method and classmethod
with a wrapper that records one span per call: name, start, end, parent span
and the benchmark op that was running.  Functions that other confdeform
modules imported by name are replaced in every module that holds them, so a
call is traced whichever module makes it.  ``uninstall()`` puts the original
objects back, which leaves untraced runs with no wrapper at all.

Some wrappers annotate their span after the call returns (vertices settled
by a Dijkstra run, the synthesis case, checker sample counts).  That work
happens outside the span and its cost is kept apart, so it is not charged to
the parent's self time either.

The package runs checkers on one thread unless ``CD_THREADS`` says otherwise;
the benchmark clears that variable, so a single span stack is enough.
"""

from __future__ import annotations

import functools
import hashlib
import sys
import time
from importlib import import_module

import numpy as np

MODULES = ("_graphs", "domain", "weight", "deform", "curves", "synthesis",
           "verify", "cli")

CHECKS = ("crossing_levels", "nearby_points", "dist_to_infty", "dist_pip_bdy",
          "large_bound", "boundary_identification", "separation_from_infinity")

SAMPLED_CHECKS = ("crossing_levels", "nearby_points", "boundary_identification")


def matrix_key(adj):
    """Content fingerprint of a CSR matrix, cheap enough to take per run.

    Matrices rebuilt per query are new objects with the same content, so
    object identity would hide repeats.  The sample is strided over the whole
    data array because the base and deformed matrices agree bitwise inside
    the unit collar, where the first rows live.
    """
    stride = max(1, adj.nnz // 256)
    digest = hashlib.blake2b(digest_size=12)
    digest.update(np.ascontiguousarray(adj.data[::stride]).tobytes())
    digest.update(np.ascontiguousarray(adj.indices[::stride]).tobytes())
    return (adj.shape[0], adj.nnz, digest.hexdigest())


# -- per-call annotations ------------------------------------------------------


def _note_run(span, args, kwargs, dist):
    adj, source = args[0], args[1]
    limit = kwargs.get("limit", args[2] if len(args) > 2 else np.inf)
    reached = np.flatnonzero(np.isfinite(dist))
    indptr = adj.indptr
    span["bounded"] = bool(np.isfinite(limit))
    span["settled"] = int(reached.size)
    span["edges"] = int((indptr[reached + 1] - indptr[reached]).sum())
    span["key"] = (matrix_key(adj), int(source))
    span["adj_id"] = id(adj)


def _note_path(span, args, kwargs, path):
    span["steps"] = max(len(path) - 1, 0)


def _note_case(span, args, kwargs, result):
    span["case"] = result.case


def _note_draws(check):
    """Useful draws over all draws of a sampling checker.

    A draw is one sampled start (a curve, a point, a boundary vertex); the
    report counts draws that yielded nothing as ``excluded``.
    """
    def note(span, args, kwargs, report):
        if check == "crossing_levels":
            draws = report.notes["curves"]
        elif check == "nearby_points":
            draws = report.notes["attempts"]
        else:
            # every draw starts with one bounded run on the full base matrix
            base = id(args[0].domain.adjacency)
            draws = sum(1 for child in span["children"]
                        if child.get("adj_id") == base)
        span["draws"] = draws
        span["useful"] = draws - report.excluded
    return note


def targets():
    """(span name, owner, attribute, annotate) for every traced callable."""
    # by dotted name: the package re-exports a function as ``deform``
    _graphs, domain, weight, deform, curves, synthesis, verify, cli = (
        import_module(f"confdeform.{name}") for name in MODULES)

    out = [
        ("graphs.build_adjacency", _graphs, "build_adjacency", None),
        ("graphs.drop_incident_edges", _graphs, "drop_incident_edges", None),
        ("graphs.distances_from", _graphs, "distances_from", _note_run),
        ("graphs.min_distance_field", _graphs, "min_distance_field", None),
        ("graphs.extract_path", _graphs, "extract_path", _note_path),
        ("graphs.edge_lengths_along", _graphs, "edge_lengths_along", None),
        ("domain.generate_domain", domain, "generate_domain", None),
        ("domain.load_domain", domain, "load_domain", None),
        ("domain.boundary_distance", domain, "boundary_distance", None),
        ("domain.estimate_metric_constants", domain,
         "estimate_metric_constants", None),
        ("domain.save", domain.MetricDomain, "save", None),
        ("domain.validate", domain.MetricDomain, "validate", None),
        ("domain.distance", domain.MetricDomain, "distance", None),
        ("weight.derive_constants", weight, "derive_constants", None),
        ("deform.deform", deform.DeformedDomain, "__init__", None),
        ("deform.dphi_distance", deform.DeformedDomain, "dphi_distance", None),
        ("deform.dphi_geodesic", deform.DeformedDomain, "dphi_geodesic", None),
        ("deform.dist_to_infinity", deform.DeformedDomain, "dist_to_infinity",
         None),
        ("curves.from_indices", curves.Curve, "from_indices", None),
        ("curves.uniformity_constant", curves, "uniformity_constant", None),
        ("curves.subcurve_excess_ratio", curves, "subcurve_excess_ratio", None),
        ("synthesis.synthesize", synthesis, "synthesize", _note_case),
        ("synthesis.uniform_curve_d", synthesis, "uniform_curve_d", None),
        ("verify.subcurve_excess_report", verify, "subcurve_excess_report",
         None),
        ("verify.aggregate_report", verify, "aggregate_report", None),
        ("cli.main", cli, "main", None),
    ]
    for check in CHECKS:
        note = _note_draws(check) if check in SAMPLED_CHECKS else None
        out.append((f"verify.{check}", verify, f"check_{check}", note))
    return out


# -- the tracer ------------------------------------------------------------------


class Tracer:
    """Records spans while installed; ``op`` names the op being run."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._active = {}
        self._patches = []

    def _wrap(self, name, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = {"name": name, "op": tracer.op,
                    "parent": parent["id"] if parent else None,
                    "id": len(tracer.spans), "children": [],
                    "nested": tracer._active.get(name, 0) > 0, "trace_s": 0.0}
            tracer.spans.append(span)
            if parent is not None:
                parent["children"].append(span)
            tracer._stack.append(span)
            tracer._active[name] = tracer._active.get(name, 0) + 1
            span["start"] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
            if annotate is not None:
                annotate(span, args, kwargs, out)
                span["trace_s"] = time.perf_counter() - span["end"]
            return out

        return wrapper

    def install(self):
        if self._patches:
            return
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "confdeform" or key.startswith("confdeform.")]
        for name, owner, attr, annotate in targets():
            if isinstance(owner, type):
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__, annotate))
                else:
                    new = self._wrap(name, raw, annotate)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, new)
                continue
            orig = getattr(owner, attr)
            new = self._wrap(name, orig, annotate)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches = []

    # -- reading the spans back ----------------------------------------------------

    def export(self):
        """Spans as plain records: name, start, end, parent, op, annotations."""
        skip = {"children", "adj_id", "key"}
        return [{k: v for k, v in s.items() if k not in skip}
                for s in self.spans]

    def layer_metrics(self, ops=None):
        """Per-layer metrics over the spans of the given ops (all if None).

        ``<name>.s`` sums spans not nested in a span of the same name;
        ``<module>.self_s`` is span time minus the time its direct children
        and their annotations cover.
        """
        spans = [s for s in self.spans if ops is None or s["op"] in ops]
        out = {}

        def add(key, value):
            out[key] = out.get(key, 0) + value

        seen = set()
        runs = repeats = 0
        for s in spans:
            name = s["name"]
            dur = s["end"] - s["start"]
            if name == "synthesis.synthesize" and "case" in s:
                name = f"synthesis.synthesize.{s['case']}"
            add(f"{name}.calls", 1)
            if not s["nested"]:
                add(f"{name}.s", dur)
            covered = sum(c["end"] - c["start"] + c["trace_s"]
                          for c in s["children"])
            add(f"{s['name'].split('.')[0]}.self_s", dur - covered)
            # a call that raised has no annotations
            if s["name"] == "graphs.distances_from" and "settled" in s:
                runs += 1
                add("graphs.distances_from.bounded_calls", int(s["bounded"]))
                add("graphs.distances_from.settled", s["settled"])
                add("graphs.distances_from.edges_scanned", s["edges"])
                repeats += s["key"] in seen
                seen.add(s["key"])
            elif s["name"] == "graphs.extract_path" and "steps" in s:
                add("graphs.extract_path.steps", s["steps"])
            elif "draws" in s:
                add(f"{s['name']}.draws", s["draws"])
                add(f"{s['name']}.useful", s["useful"])
        out["graphs.distances_from.repeat_share"] = repeats / runs if runs else 0.0
        for check in SAMPLED_CHECKS:
            draws = out.pop(f"verify.{check}.draws", 0)
            useful = out.pop(f"verify.{check}.useful", 0)
            out[f"verify.{check}.accept_ratio"] = useful / draws if draws else 0.0
        return out

    def counters(self, ops):
        """Deterministic work counts over the spans of the given ops."""
        m = self.layer_metrics(ops)
        return {
            "dijkstra_runs": m.get("graphs.distances_from.calls", 0),
            "dijkstra_bounded_runs": m.get("graphs.distances_from.bounded_calls", 0),
            "settled": m.get("graphs.distances_from.settled", 0),
            "edges_scanned": m.get("graphs.distances_from.edges_scanned", 0),
            "repeat_share": m["graphs.distances_from.repeat_share"],
            "multi_source_runs": m.get("graphs.min_distance_field.calls", 0),
            "csr_builds": m.get("graphs.build_adjacency.calls", 0),
            "path_steps": m.get("graphs.extract_path.steps", 0),
        }

"""The three benchmark workloads.

Each workload builds its program state in ``setup()`` (timed, repeated by the
runner) and then yields an endless, seeded stream of ops.  An op is one call
a user of the package would make; ``call()`` is the timed part and
``check(result)`` is the correctness gate, which raises ``GateError`` on a
wrong answer and otherwise returns the bytes that enter the run's answer
digest.  ``summary(done)`` reads the deterministic prefix of the run as
``(op, result, answer bytes)`` triples.  The program receives only the
generated inputs: vertex ids, file paths, flags.  Every call goes through
the package's public functions and methods, looked up on their modules at
call time so that the tracer's wrappers see them.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass
from importlib import import_module
from typing import Callable

import numpy as np

# the package re-exports functions under some module names (``deform``), so
# the modules themselves are fetched by their dotted names
cli, deform, domain, synthesis, weight = (
    import_module(f"confdeform.{name}")
    for name in ("cli", "deform", "domain", "synthesis", "weight"))


class GateError(AssertionError):
    """An op returned a wrong answer."""


@dataclass
class Op:
    kind: str
    call: Callable
    check: Callable


def _gate(ok, message):
    if not ok:
        raise GateError(message)


def _shell_groups(dom, field, exclude_frontier=False):
    """Interior vertex indices grouped by dyadic shell, shallowest first."""
    keep = ~dom.boundary_mask
    if exclude_frontier:
        keep &= ~dom.frontier_mask
    interior = np.flatnonzero(keep)
    shells = field.shells[interior]
    return [interior[shells == s] for s in np.unique(shells)]


def _warm(dd):
    """Build the lazily cached matrices and fields a long-lived deformed
    domain serves every query from, so op timings are steady state."""
    dd.domain.adjacency
    dd.domain.adjacency_interior
    dd.adjacency_phi
    dd.adjacency_phi_interior
    dd.boundary_field_phi
    dd.frontier_field_phi


def _float_bytes(*values):
    return np.asarray(values, dtype=np.float64).tobytes()


class Workload:
    """Defaults shared by the workloads; ``setup`` records ``graph_size``."""

    graph_size = (0, 0)

    def __init__(self, workdir):
        self.workdir = workdir

    def cleanup(self):
        """Remove what the run wrote; most workloads write nothing."""


# -- check_cli ---------------------------------------------------------------


class CheckCli(Workload):
    """``confdeform check`` on a saved 160,801-vertex half plane."""

    name = "check_cli"
    spec = "half_plane:width=40,depth=40,h=0.1,conn=8"
    samples = 200
    min_ops = 1
    det_ops = 1

    def __init__(self, workdir):
        super().__init__(workdir)
        # a directory of its own, so runs sharing a checkout never collide
        self.dir = tempfile.mkdtemp(prefix="check_cli-", dir=self.workdir)
        self.domain_path = os.path.join(self.dir, "domain.json")
        self.out_path = os.path.join(self.dir, "out.json")

    def setup(self):
        dom = domain.generate_domain(self.spec)
        dom.save(self.domain_path)
        self.graph_size = (dom.n_vertices, dom.n_edges)
        return self.domain_path

    def cleanup(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def stream(self, state, seed):
        argv = ["check", "--domain", state, "--weight", "power:beta=2",
                "--cu", "2", "--cq", "1", "--samples", str(self.samples),
                "--no-timestamp", "--seed", str(seed), "--out", self.out_path]
        first = []

        def call():
            if os.path.exists(self.out_path):
                os.remove(self.out_path)
            return cli.main(list(argv))

        def check(rc):
            _gate(rc == 0, f"confdeform check exited {rc}")
            with open(self.out_path, "rb") as fh:
                text = fh.read()
            report = json.loads(text)
            _gate(report["violations_total"] == 0,
                  f"{report['violations_total']} violations")
            samples = {c["name"]: c["samples"] for c in report["checks"]}
            _gate(samples.get("dist_to_infty") == self.samples,
                  f"dist_to_infty took {samples.get('dist_to_infty')} samples")
            if not first:
                first.append(text)
            _gate(text == first[0], "same seed gave different output bytes")
            return text

        while True:
            yield Op("check", call, check)

    def summary(self, done):
        texts = [answer for _, _, answer in done if answer is not None]
        report = json.loads(texts[0]) if texts else {}
        return {
            "violations_total": report.get("violations_total"),
            "check_samples": {c["name"]: c["samples"]
                              for c in report.get("checks", [])},
        }


# -- synthesis_tall --------------------------------------------------------------


class SynthesisTall(Workload):
    """``synthesize`` on AC5's ten-shell half plane with AC5's bundle."""

    name = "synthesis_tall"
    spec = "half_plane:width=20,depth=600,h=0.25,conn=8"
    min_ops = 100
    det_ops = 50
    infinity_every = 5

    def setup(self):
        dom = domain.generate_domain(self.spec)
        field = domain.boundary_distance(dom)
        dd = deform.deform(dom, weight.WeightFunction.power(2), field=field)
        est = domain.estimate_metric_constants(dom, field, n_pairs=60, seed=0)
        bundle = weight.derive_constants(dd.weight, est.cu, est.cq)
        _warm(dd)
        self.graph_size = (dom.n_vertices, dom.n_edges)
        return dd, bundle

    def stream(self, state, seed):
        dd, bundle = state
        dom = dd.domain
        tolerance = 10.0 * dom.mesh_size
        rng = np.random.default_rng(seed)
        pair_groups = _shell_groups(dom, dd.field)
        start_groups = _shell_groups(dom, dd.field, exclude_frontier=True)
        interior = np.flatnonzero(~dom.boundary_mask)
        frontier = set(dom.frontier_idx.tolist())
        n_pairs = n_inf = 0
        for i in range(1 << 62):
            if i % self.infinity_every == self.infinity_every - 1:
                group = start_groups[n_inf % len(start_groups)]
                n_inf += 1
                x = dom.vertex_id(rng.choice(group))
                y = None
            else:
                group = pair_groups[n_pairs % len(pair_groups)]
                n_pairs += 1
                ix, iy = rng.choice(group), rng.choice(group)
                while iy == ix:
                    iy = rng.choice(interior)
                x, y = dom.vertex_id(ix), dom.vertex_id(iy)
            yield self._op(dd, bundle, x, y, tolerance, frontier)

    @staticmethod
    def _op(dd, bundle, x, y, tolerance, frontier):
        def call():
            if y is None:
                return synthesis.synthesize(dd, bundle, x, to_infinity=True)
            return synthesis.synthesize(dd, bundle, x, y)

        def check(res):
            curve = res.curve
            _gate(np.isfinite(res.measured), f"measured {res.measured}")
            _gate(res.measured <= res.predicted * (1.0 + tolerance),
                  f"{res.case} {x}->{y}: measured {res.measured} > predicted "
                  f"{res.predicted} x (1 + {tolerance})")
            _gate(curve.start_id == x, f"curve starts at {curve.start_id}, not {x}")
            if y is None:
                _gate(curve.to_infinity and int(curve.vertices[-1]) in frontier,
                      "curve to infinity does not end on the frontier")
            else:
                _gate(curve.end_id == y, f"curve ends at {curve.end_id}, not {y}")
            return (res.case.encode() + _float_bytes(res.predicted, res.measured)
                    + curve.vertices.tobytes())

        return Op("infinity" if y is None else "pair", call, check)

    def summary(self, done):
        cases = Counter(res.case for _, res, _ in done if res is not None)
        return {"cases": dict(sorted(cases.items()))}


# -- query_mix -----------------------------------------------------------------


class QueryMix(Workload):
    """Single distance, geodesic and infinity questions asked of one
    long-lived deformed domain on the 641,601-vertex acceptance half plane.

    The stream is a sequence of 20-item blocks with the item counts of
    ``block``, so every run holds the same mix; the seed shuffles each block
    and draws the vertices.  Collar and boundary items ask d, then d_phi (as
    ``confdeform distance`` does); deep items ask d_phi, then the geodesic.
    The three repeats close each block, one per pair kind, each reversing a
    pair of that kind from the block.  Infinity items alternate between
    interior and boundary starts.  Each question is one timed query.
    """

    name = "query_mix"
    spec = "half_plane:width=40,depth=40,h=0.05,conn=8"
    min_ops = 100
    block = {"collar": 6, "boundary": 3, "deep": 5, "infinity": 3, "repeat": 3}
    # pair items ask two questions, the others one: 34 queries per block,
    # so the deterministic prefix is exactly one block
    det_ops = sum(n if k in ("infinity", "repeat") else 2 * n
                  for k, n in block.items())

    def setup(self):
        dom = domain.generate_domain(self.spec)
        field = domain.boundary_distance(dom)
        dd = deform.deform(dom, weight.WeightFunction.power(2), field=field)
        _warm(dd)
        self.graph_size = (dom.n_vertices, dom.n_edges)
        return dd

    def stream(self, dd, seed):
        dom = dd.domain
        rng = np.random.default_rng(seed)
        xy = dom.coords
        # collar pairs as in AC3: heights 0.05 to 0.38, offsets up to 0.3
        collar = np.flatnonzero(~dom.boundary_mask & (xy[:, 1] <= 0.38 + 1e-9))
        deep = np.flatnonzero((dd.field.values >= 2.0) & ~dom.frontier_mask)
        boundary = dom.boundary_idx
        groups = _shell_groups(dom, dd.field, exclude_frontier=True)
        # AC3's diameter bound: every deformed distance sits below it
        diameter = 4.0 * dd.weight.c_phi * dd.weight.tail_sum(0)
        answers = {}
        ident = dom.vertex_id

        def interior():
            return ident(rng.choice(groups[rng.integers(len(groups))]))

        def collar_pair():
            while True:
                a = int(rng.choice(collar))
                px = xy[a, 0] + rng.uniform(0.05, 0.3) * rng.choice((-1.0, 1.0))
                py = min(max(xy[a, 1] + rng.uniform(-0.1, 0.1), 0.05), 0.38)
                d2 = (xy[collar, 0] - px) ** 2 + (xy[collar, 1] - py) ** 2
                b = int(collar[np.argmin(d2)])
                if a != b:
                    return ident(a), ident(b)

        def d_op(kind, a, b):
            def check(val):
                _gate(np.isfinite(val) and val > 0.0, f"d({a}, {b}) = {val!r}")
                answers[("d", a, b)] = val
                return _float_bytes(val)
            return Op(kind, lambda: dom.distance(a, b), check)

        def d_phi_op(kind, a, b):
            def check(val):
                _gate(np.isfinite(val) and 0.0 < val <= diameter,
                      f"{kind} d_phi({a}, {b}) = {val!r}")
                d = answers.get(("d", a, b))
                if kind == "collar":
                    _gate(val == d, f"collar d_phi {val!r} != d {d!r}")
                elif kind == "boundary":
                    _gate(val <= d, f"boundary d_phi {val!r} > d {d!r}")
                answers[("d_phi", a, b)] = val
                return _float_bytes(val)
            return Op(kind, lambda: dd.dphi_distance(a, b), check)

        def geodesic_op(a, b):
            def check(curve):
                want = answers[("d_phi", a, b)]
                _gate(curve.total_phi == want,
                      f"geodesic length {curve.total_phi!r} != d_phi {want!r}")
                _gate(curve.start_id == a and curve.end_id == b,
                      "geodesic has the wrong endpoints")
                return _float_bytes(curve.total_phi) + curve.vertices.tobytes()
            return Op("deep", lambda: dd.dphi_geodesic(a, b), check)

        def reversed_op(a, b):
            def check(val):
                want = answers[("d_phi", a, b)]
                _gate(val == want, f"reversed d_phi {val!r} != {want!r}")
                return _float_bytes(val)
            return Op("repeat", lambda: dd.dphi_distance(b, a), check)

        def infinity_op(v):
            ix = dom.index(v)

            def check(est):
                # the escape bracket has esc_high > esc_low, so a strict
                # lower < upper also catches an interval clamped to a point
                _gate(np.isfinite(est.lower) and np.isfinite(est.upper)
                      and est.frontier_dphi <= est.lower < est.upper,
                      f"infinity interval [{est.lower}, {est.upper}] at {v}, "
                      f"want d_phi to the frontier {est.frontier_dphi} "
                      f"<= lower < upper")
                if not dom.boundary_mask[ix]:
                    want = dd.frontier_field_phi[ix]
                    _gate(est.frontier_dphi == want,
                          f"d_phi to the frontier {est.frontier_dphi!r} != "
                          f"frontier field {want!r} at {v}")
                return _float_bytes(est.lower, est.upper)
            return Op("infinity", lambda: dd.dist_to_infinity(v), check)

        items = [k for k, n in self.block.items() if k != "repeat" for _ in range(n)]
        n_inf = 0
        while True:
            asked = {"collar": [], "boundary": [], "deep": []}
            for kind in rng.permutation(items):
                if kind == "infinity":
                    n_inf += 1
                    yield infinity_op(interior() if n_inf % 2
                                      else ident(rng.choice(boundary)))
                    continue
                if kind == "collar":
                    a, b = collar_pair()
                elif kind == "boundary":
                    a, b = ident(rng.choice(boundary)), interior()
                else:
                    a, b = (ident(v) for v in rng.choice(deep, size=2, replace=False))
                if kind == "deep":
                    yield d_phi_op(kind, a, b)
                    yield geodesic_op(a, b)
                else:
                    yield d_op(kind, a, b)
                    yield d_phi_op(kind, a, b)
                asked[kind].append((a, b))
            for kind in rng.permutation(list(asked)):
                pairs = asked[kind]
                yield reversed_op(*pairs[rng.integers(len(pairs))])

    def summary(self, done):
        counts = Counter(op.kind for op, _, _ in done)
        return {"query_kind_shares": {k: counts[k] / len(done) for k in self.block}}


WORKLOADS = {w.name: w for w in (CheckCli, SynthesisTall, QueryMix)}

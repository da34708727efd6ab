"""Benchmark of confdeform: one workload, one seed, one run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 27 --trace 0

The package is imported from ``src/`` of the checkout.  ``--trace 0`` sets
the workload up several times (``setup_s`` is the median), then runs a closed
loop of ops with one client until ``--seconds`` have passed and the run
holds enough ops for its percentiles, and reports the end-to-end metrics.
``--trace 1`` sets up once under the tracer, runs the first op once as a
warm-up, then runs the workload's first ``det_ops`` ops twice each,
untraced and traced in alternating order, and reports the per-layer metrics
of the traced pass with the tracing overhead.

Every op passes through its workload's correctness gate.  Stdout carries a
detail record (environment, sample counts, the deterministic block) and, as
its last line, the result object the metric names in BENCHMARK.json refer
to.  Run records and spans are written under ``.perfbench/`` in the
checkout.  Without the package sources the run fails before measuring.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 3
MAX_ERRORS_SHOWN = 5


def _import_package():
    src = ROOT / "src"
    if not (src / "confdeform" / "__init__.py").is_file():
        raise ImportError(f"no confdeform sources under {src}")
    sys.path.insert(0, str(src))
    import confdeform

    if Path(confdeform.__file__).resolve().parent != src / "confdeform":
        raise ImportError(f"confdeform was imported from {confdeform.__file__}")


# -- environment record ----------------------------------------------------------


def _git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def _llc():
    """Last-level cache line of ``lscpu``, or None where lscpu is missing."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10, env={**os.environ, "LC_ALL": "C"},
                             check=False).stdout
    except (OSError, subprocess.SubprocessError):
        return None
    caches = [line.split(":", 1)[1].strip() for line in out.splitlines()
              if line.startswith("L") and " cache:" in line]
    return caches[-1] if caches else None


def environment(cd_threads):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "CD_THREADS": cd_threads,
        "llc": _llc(),
        "note": "shared machine: other tenants run on the same cores, so "
                "timings carry their noise; counts do not",
    }


def csr_bytes(n_vertices, n_edges):
    """Computed (not measured) bytes of one full CSR matrix of the graph:
    float64 data and int32 column indices per stored entry, two entries per
    undirected edge, plus the int32 row pointers."""
    return 12 * 2 * n_edges + 4 * (n_vertices + 1)


# -- measuring ---------------------------------------------------------------------


def _ms_quantiles(latencies):
    """Median and p90 in ms, and the count of samples beyond the p90.

    A failed op counts as infinitely slow; a percentile that lands on one
    reads as the largest float, so the result line stays valid JSON.
    """
    import numpy as np

    ms = np.asarray(latencies) * 1e3
    with np.errstate(invalid="ignore"):
        p50, p90 = (float(np.percentile(ms, q)) for q in (50, 90))
    p50, p90 = (q if math.isfinite(q) else sys.float_info.max for q in (p50, p90))
    return p50, p90, int((ms > p90).sum())


def _attempt(op):
    """Run one op: (seconds, result, answer bytes or None, error or None)."""
    t0 = time.perf_counter()
    try:
        result = op.call()
    except Exception as exc:  # a raising op is a failed op, not a crash
        return time.perf_counter() - t0, None, None, f"{op.kind}: {exc!r}"
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, result, op.check(result), None
    except Exception as exc:
        return elapsed, result, None, f"{op.kind}: {exc!r}"


def _setup(workload, repeats):
    times, state = [], None
    for _ in range(repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = workload.setup()
        times.append(time.perf_counter() - t0)
    return state, times


def run_timed(workload, seed, seconds):
    state, setup_times = _setup(workload, SETUP_REPEATS)
    stream = workload.stream(state, seed)
    latencies, errors, done = [], [], []
    digest = hashlib.sha256()
    ok_ops = 0
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        n = len(latencies)
        if n >= workload.min_ops and (
                elapsed >= seconds
                or elapsed + statistics.median(latencies) > seconds):
            break
        op = next(stream)
        dt, result, answer, error = _attempt(op)
        if error is None:
            ok_ops += 1
        else:
            errors.append(error)
            dt = float("inf")
        latencies.append(dt)
        if n < workload.det_ops:
            digest.update(answer or b"failed")
            done.append((op, result, answer))
    window = time.perf_counter() - start
    p50, p90, beyond = _ms_quantiles(latencies)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ops_per_s": ok_ops / window,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
    }
    detail = {
        "setup_s_samples": setup_times,
        "ops": len(latencies),
        "window_s": window,
        "samples_beyond_p90": beyond,
        "csr_bytes_per_matrix_computed": csr_bytes(*workload.graph_size),
        "deterministic": {"ops": len(done), "digest": digest.hexdigest(),
                          **workload.summary(done)},
    }
    return metrics, detail, len(latencies), len(errors), errors


def run_traced(workload, seed, spans_path):
    from spans import Tracer

    tracer = Tracer()
    tracer.op = "setup"
    tracer.install()
    try:
        state = workload.setup()
    finally:
        tracer.uninstall()
    stream = workload.stream(state, seed)
    ops = [next(stream) for _ in range(workload.det_ops)]
    # one untimed run of the first op takes its first-call costs, so that
    # both timed passes of every op follow a run of the same op
    *_, error = _attempt(ops[0])
    errors = [] if error is None else [error]
    done = []
    spent = {False: 0.0, True: 0.0}
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        answers = {}
        # alternate which pass goes first so neither gets the warmer caches
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.op = i
                tracer.install()
            try:
                dt, result, answer, error = _attempt(op)
            finally:
                tracer.uninstall()
            answers[with_trace] = answer
            spent[with_trace] += dt
            if error is not None:
                errors.append(error)
        if answers[True] != answers[False]:
            errors.append(f"{op.kind}: traced and untraced answers differ")
        digest.update(answers[True] or b"failed")
        done.append((op, result, answers[True]))
    metrics = tracer.layer_metrics()
    metrics["trace.overhead"] = spent[True] / spent[False] - 1.0
    with open(spans_path, "w") as fh:
        json.dump(tracer.export(), fh)
    detail = {
        "ops": len(done),
        "untraced_s": spent[False],
        "traced_s": spent[True],
        "trace_overhead": metrics["trace.overhead"],
        "spans": len(tracer.spans),
        "spans_file": os.path.relpath(spans_path, ROOT),
        "deterministic": {"ops": len(done), "digest": digest.hexdigest(),
                          **workload.summary(done),
                          **tracer.counters(set(range(len(done))))},
    }
    return metrics, detail, 2 * len(done) + 1, len(errors), errors


# -- entry point ---------------------------------------------------------------------


def _result_metrics(spec, values, trace):
    """The metrics BENCHMARK.json lists for this mode, with their units.

    End-to-end metrics must all be measured; a per-layer metric whose layer
    the workload never called reads 0.
    """
    out = {}
    for entry in spec["per_layer" if trace else "end_to_end"]:
        name = entry["name"]
        if name not in values and not trace:
            raise KeyError(f"end-to-end metric {name} was not measured")
        out[name] = {"value": float(values.get(name, 0.0)), "unit": entry["unit"]}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        _import_package()
    except (OSError, ValueError, ImportError) as exc:
        print(f"perfbench: cannot start: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    # checkers run on one thread, as in a default install
    cd_threads = os.environ.pop("CD_THREADS", None)
    workdir = ROOT / ".perfbench"
    workdir.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](str(workdir))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            metrics, detail, attempted, failed, errors = run_traced(
                workload, args.seed, workdir / f"{stem}-spans.json")
        else:
            metrics, detail, attempted, failed, errors = run_timed(
                workload, args.seed, args.seconds)
    finally:
        workload.cleanup()

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(cd_threads),
        "error_rate": failed / attempted, "errors": errors[:MAX_ERRORS_SHOWN],
        "metrics": metrics, **detail,
    }
    (workdir / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": _result_metrics(spec, metrics, args.trace),
    }
    print(json.dumps(detail, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

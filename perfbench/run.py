"""The repository's end-to-end benchmark: one workload per invocation.

Run from the repository root::

    python3 perfbench/run.py --workload world-churn --seed 1 --seconds 48 --trace 0

Workloads are defined in ``perfbench/workloads.py``.  ``--trace 0`` runs
the workload untraced and reports the end-to-end metrics; ``--trace 1``
makes two traced and two untraced passes and reports the per-layer metrics
of the last traced pass, plus the tracing overhead between the two kinds.
With ``--trace 0``, ``--seconds`` sets the number of passes (set-up, fit,
stream and serve, persist), at least two; every batch, query and fit is
reported as its mean over passes, and set-up, repeated alone as well, as a
median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the same object,
with the environment fingerprint and any failure messages, is written to
``.perfbench_out/``.  Any failed correctness gate or query makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.workloads import BLAS_THREADS, SETUPS, WORKLOADS, passes as run_passes  # noqa: E402

# one BLAS thread, fixed before numpy is first imported (part of the workload)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s", "fit_s": "s", "apply_ops_per_s": "1/s",
    "apply_p50_ms": "ms", "apply_p90_ms": "ms",
    "query_qps": "1/s", "query_p50_ms": "ms", "query_p95_ms": "ms",
    "wall_s": "s", "peak_rss_mb": "MB", "static_acc": "fraction", "new_acc": "fraction",
}


def _import_library() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: library sources not found under {src}")
    sys.path.insert(0, str(src))


def end_to_end(result) -> dict:
    import numpy as np
    import statistics

    apply_ms = np.asarray(result.apply_s) * 1e3
    query_ms = np.asarray(result.query_s) * 1e3
    values = {
        "setup_s": statistics.median(result.setup_s),
        "fit_s": result.fit_s,
        "apply_ops_per_s": result.ops / float(np.sum(result.apply_s)),
        "apply_p50_ms": float(np.percentile(apply_ms, 50)),
        "apply_p90_ms": float(np.percentile(apply_ms, 90)),
        "query_qps": query_ms.size / float(np.sum(query_ms) / 1e3),
        "query_p50_ms": float(np.percentile(query_ms, 50)),
        # p95, not p99: slices of the growing head set the tail, and the top 1%
        # are the slices of the stream's last ~15%, a few seconds of each pass
        # on a host whose speed steps by up to 2x about every second; the top
        # 5% span the stream's last ~40%
        "query_p95_ms": float(np.percentile(query_ms, 95)),
        "wall_s": result.wall_s,
        "peak_rss_mb": result.peak_rss_mb,
        "static_acc": result.static_acc,
        "new_acc": result.new_acc,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    _import_library()
    # The main thread and the server's handler thread take turns (closed
    # loop), so one CPU costs no parallelism; it replaces a cross-CPU
    # wake-up per query by a same-CPU thread switch.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from perfbench.fingerprint import fingerprint, set_blas_threads
    from perfbench.pipeline import run
    from perfbench.tracing import NULL_TRACER, Tracer, layer_metrics

    workload = WORKLOADS[args.workload]
    passes = run_passes(args.seconds)
    set_blas_threads(BLAS_THREADS)  # numpy may have been imported before main
    env = fingerprint(ROOT)
    if any(threads != BLAS_THREADS for threads in env["blas_threads"].values()):
        raise SystemExit(f"perfbench: BLAS threads {env['blas_threads']} != {BLAS_THREADS}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"passes {passes} blas_threads {BLAS_THREADS}")

    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        if not args.trace:
            result = run(workload, args.seed, Path(tmp), [NULL_TRACER] * passes, setups=SETUPS)
            metrics = end_to_end(result)
        else:
            # ABBA: a linear drift in host speed cancels from the overhead, the
            # first pass's warm-up counts against tracing, and the last pass,
            # whose stack stays alive, is traced
            tracer = Tracer()
            tracers = [tracer, NULL_TRACER, NULL_TRACER, tracer]
            result = run(workload, args.seed, Path(tmp), tracers)
            metrics = layer_metrics(tracer, result, tracers)
            tracer.dump(out / f"trace-{workload.name}-seed{args.seed}.json")

    failures, attempted = result.failures, result.attempted
    for name, metric in metrics.items():
        print(f"{name:<32}{metric['value']:>16.6g} {metric['unit']}")
    print(f"samples: {len(result.passes)} passes, {len(result.setup_s)} set-ups, "
          f"{len(result.apply_s)} batches, {len(result.query_s)} queries, {result.ops} ops")
    print(f"run took {time.perf_counter() - started:.1f} s")
    for failure in failures:
        print(f"FAILED: {failure}")
    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }
    record = {
        "env": env, "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "blas_threads": BLAS_THREADS, "passes": passes,
        "failures": failures, **summary,
    }
    (out / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2)
    )
    print(json.dumps(summary))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())

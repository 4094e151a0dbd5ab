"""Layer tracing from outside the program.

A :class:`Tracer` wraps public functions and methods of the library at run
time (nothing under ``src/`` is edited) and records one span per call:
name, thread, start, end and the span that was open on the same thread when
it began.  Spans stay in memory; :meth:`Tracer.dump` writes them out at the
end.  A layer's self time is its spans' duration minus the time their child
spans cover.  Re-entering a span of the same name on the same thread (an
engine query calling another engine query) records nothing, so call counts
and times are per outermost call.

Untraced passes use :data:`NULL_TRACER`, whose spans are no-op context
managers.
"""

from __future__ import annotations

import contextlib
import functools
import json
import threading
import time
from pathlib import Path


class _Span:
    __slots__ = ("tracer", "name", "attrs", "record", "skip")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.skip = bool(stack) and stack[-1]["name"] == self.name
        if self.skip:
            self.record = stack[-1]
            return self
        self.record = {
            "id": next(self.tracer._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": self.name,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
            "attrs": self.attrs,
        }
        stack.append(self.record)
        return self

    def __exit__(self, *exc) -> bool:
        if not self.skip:
            self.record["end"] = time.perf_counter()
            self.tracer._stack().pop()
            self.tracer.spans.append(self.record)
        return False


class Tracer:
    """In-memory span recorder with run-time wrappers around library calls."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._ids = iter(range(1, 1 << 62))
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, **attrs) -> _Span:
        return _Span(self, name, attrs)

    # -------------------------------------------------------------- wrapping

    def wrap(self, owner, attribute: str, name: str, attrs=None) -> None:
        """Replace ``owner.attribute`` by a version that records a span.

        ``attrs(args, kwargs, result)`` may return extra span attributes.
        Class and static methods keep their descriptor kind.
        """
        raw = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = func(*args, **kwargs)
                if attrs is not None and not span.skip:
                    span.record["attrs"] = attrs(args, kwargs, result)
            return result

        setattr(owner, attribute, kind(traced) if kind is not None else traced)
        self._patches.append((owner, attribute, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (last wrapped first)."""
        while self._patches:
            owner, attribute, raw = self._patches.pop()
            setattr(owner, attribute, raw)

    @contextlib.contextmanager
    def installed(self):
        """The library's layer boundaries wrapped for the ``with`` block."""
        instrument(self)
        try:
            yield self
        finally:
            self.uninstall()

    # -------------------------------------------------------------- analysis

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the duration of its direct children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] in own:
                own[s["parent"]] -= s["end"] - s["start"]
        return own

    def self_total(self, name: str) -> float:
        own = self.self_times()
        return sum(own[s["id"]] for s in self.named(name))

    def covered(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` inside root spans of the main thread."""
        main = threading.main_thread().ident
        return sum(
            min(s["end"], end) - max(s["start"], start)
            for s in self.spans
            if s["parent"] is None and s["thread"] == main
            and s["end"] > start and s["start"] < end
        )

    def keep_within(self, intervals) -> None:
        """Drop spans that began outside every ``(start, end)`` interval."""
        self.spans = [
            s for s in self.spans if any(a <= s["start"] <= b for a, b in intervals)
        ]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        own = self.self_times()
        rows = [dict(s, self=own[s["id"]]) for s in sorted(self.spans, key=lambda s: s["id"])]
        path.write_text(json.dumps(rows, default=str))


class _NullTracer:
    """Records nothing."""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext(self)


NULL_TRACER = _NullTracer()


def instrument(tracer: Tracer) -> None:
    """Wrap the library's public layer boundaries (see :data:`PER_LAYER`)."""
    import repro.core.node2vec as node2vec_core
    import repro.core.node2vec_dynamic as node2vec_dynamic
    import repro.nn.corpus as corpus
    from repro.core.forward import ForwardEmbedder
    from repro.core.forward_dynamic import ForwardDynamicExtender
    from repro.engine import WalkEngine
    from repro.graph.db_graph import DatabaseGraph
    from repro.graph.node2vec_walks import Node2VecWalker
    from repro.index.exact import ExactIndex
    from repro.nn.negative_sampling import UnigramNegativeSampler
    from repro.nn.skipgram import SkipGramModel
    from repro.optim.optimizers import SGD, Adam
    from repro.serve.backend import LocalBackend
    from repro.serve.client import ServeClient
    from repro.service.store import EmbeddingStore

    for method in (
        "destination_matrix", "destination_row", "destination_distribution",
        "attribute_rows", "attribute_matrix", "attribute_row", "attribute_distribution",
    ):
        tracer.wrap(WalkEngine, method, "engine.query")
    for method in ("add_facts", "remove_facts", "update_facts"):
        tracer.wrap(WalkEngine, method, "engine.sync")
    tracer.wrap(ForwardEmbedder, "fit", "forward.fit")
    tracer.wrap(ForwardEmbedder, "build_targets", "forward.build_targets")
    tracer.wrap(Adam, "update", "optim.update")
    tracer.wrap(SGD, "update", "optim.update")
    tracer.wrap(
        ForwardDynamicExtender, "extend_batch", "extend.batch",
        attrs=lambda args, kwargs, result: {"facts": len(result)},
    )
    tracer.wrap(ForwardDynamicExtender, "prime", "extend.prime")
    tracer.wrap(DatabaseGraph, "__init__", "graph.build")
    tracer.wrap(Node2VecWalker, "generate", "walks.generate")
    for module in (corpus, node2vec_core, node2vec_dynamic):
        tracer.wrap(module, "build_training_pairs", "corpus.pairs")
    tracer.wrap(
        SkipGramModel, "train_pairs", "skipgram.train",
        attrs=lambda args, kwargs, result: {"pairs": len(args[1]) * len(result)},
    )
    tracer.wrap(UnigramNegativeSampler, "sample", "negsample.sample")
    tracer.wrap(EmbeddingStore, "commit", "store.commit")
    tracer.wrap(EmbeddingStore, "prune", "store.prune")
    tracer.wrap(
        EmbeddingStore, "save", "store.save",
        attrs=lambda args, kwargs, result: {
            "bytes": sum(f.stat().st_size for f in Path(result).iterdir())
        },
    )
    tracer.wrap(EmbeddingStore, "load", "store.load")
    tracer.wrap(ExactIndex, "search", "index.search")
    for kind in ("fetch", "knn", "slice"):
        tracer.wrap(LocalBackend, kind, f"serve.backend.{kind}")
        tracer.wrap(
            ServeClient, kind, f"serve.client.{kind}",
            attrs=lambda args, kwargs, result: {"bytes": len(json.dumps(result))},
        )


#: Per-layer metrics of a traced pass: name -> (unit, better, the
#: end-to-end metric it should move, the workload where it shows most).  A
#: change names its claim and its no-change prediction from this table.
PER_LAYER = {
    "datasets.load_s": ("s", "lower", "setup_s", "world-churn"),
    "dynamic.partition_s": ("s", "lower", "setup_s", "world-churn"),
    "feed.build_s": ("s", "lower", "setup_s", "world-churn"),
    "engine.compile_s": ("s", "lower", "setup_s", "both"),
    "engine.query_s": ("s", "lower", "fit_s, apply_*", "world-churn"),
    "engine.query_calls": ("count", "lower", "fit_s, apply_*", "world-churn"),
    "engine.sync_s": ("s", "lower", "apply_p50_ms", "world-churn"),
    "engine.sync_calls": ("count", "lower", "apply_p50_ms", "world-churn"),
    "engine.row_cache_hit_ratio": ("fraction", "higher", "apply_p50_ms", "world-churn"),
    "forward.build_targets_s": ("s", "lower", "fit_s", "world-churn"),
    "forward.fit_self_s": ("s", "lower", "fit_s", "world-churn"),
    "forward.final_loss": ("loss", "lower", "static_acc", "world-churn"),
    "optim.update_s": ("s", "lower", "fit_s", "both"),
    "optim.update_calls": ("count", "lower", "fit_s", "both"),
    "extend.batch_s": ("s", "lower", "apply_ops_per_s", "world-churn"),
    "extend.calls": ("count", "lower", "apply_ops_per_s", "world-churn"),
    "extend.prime_s": ("s", "lower", "setup_s", "world-churn"),
    "extend.facts_per_arrival": ("ratio", "lower", "apply_ops_per_s", "world-churn"),
    "graph.build_s": ("s", "lower", "fit_s", "genes-node2vec"),
    "walks.generate_s": ("s", "lower", "fit_s, apply_p50_ms", "genes-node2vec"),
    "corpus.pairs_s": ("s", "lower", "fit_s, apply_p50_ms", "genes-node2vec"),
    "skipgram.train_s": ("s", "lower", "fit_s, apply_p50_ms", "genes-node2vec"),
    "skipgram.pairs_trained": ("count", "lower", "fit_s, apply_p50_ms", "genes-node2vec"),
    "negsample.sample_s": ("s", "lower", "fit_s, apply_p50_ms", "genes-node2vec"),
    "skipgram.final_loss": ("loss", "lower", "static_acc", "genes-node2vec"),
    "service.apply_s": ("s", "lower", "apply_*", "both"),
    "service.apply.decode_s": ("s", "lower", "apply_*", "both"),
    "service.apply.engine_sync_s": ("s", "lower", "apply_*", "world-churn"),
    "service.apply.embed_s": ("s", "lower", "apply_*", "both"),
    "service.apply.store_commit_s": ("s", "lower", "apply_*", "genes-node2vec"),
    "service.batches": ("count", "higher", "apply_*", "both"),
    "service.ops": ("count", "higher", "apply_ops_per_s", "both"),
    "store.commit_s": ("s", "lower", "apply_p50_ms", "genes-node2vec"),
    "store.prune_s": ("s", "lower", "apply_p50_ms", "genes-node2vec"),
    "store.rows": ("count", "lower", "apply_p50_ms, query_*", "genes-node2vec"),
    "store.dead_rows": ("count", "lower", "apply_p50_ms", "genes-node2vec"),
    "store.versions_retained": ("count", "lower", "peak_rss_mb", "genes-node2vec"),
    "store.save_s": ("s", "lower", "wall_s", "both"),
    "store.load_s": ("s", "lower", "wall_s", "both"),
    "store.bytes": ("bytes", "lower", "wall_s", "both"),
    "index.search_ms": ("ms", "lower", "query_p50_ms", "genes-node2vec"),
    "index.rows": ("count", "lower", "query_p50_ms", "genes-node2vec"),
    "serve.backend_fetch_ms": ("ms", "lower", "query_p50_ms", "both"),
    "serve.backend_knn_ms": ("ms", "lower", "query_p50_ms", "both"),
    "serve.backend_slice_ms": ("ms", "lower", "query_p95_ms", "both"),
    "serve.transport_ms": ("ms", "lower", "query_p50_ms", "both"),
    "serve.response_bytes_fetch": ("bytes", "lower", "query_p50_ms", "both"),
    "serve.response_bytes_knn": ("bytes", "lower", "query_p50_ms", "both"),
    "serve.response_bytes_slice": ("bytes", "lower", "query_p95_ms", "both"),
    "trace.overhead_pct": ("%", "lower", "none (tracing cost)", "both"),
    "trace.coverage": ("fraction", "higher", "none (trace quality)", "both"),
}


def _p50_ms(durations) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(durations) * 1e3, 50)) if len(durations) else 0.0


def layer_metrics(tracer: Tracer, result, tracers: list) -> dict:
    """Every :data:`PER_LAYER` metric from a run of traced and untraced
    passes (one tracer per pass, the last one ``tracer``).

    Layer figures come from the last pass; the tracing overhead compares the
    mean wall time of the traced passes with that of the untraced ones.
    """
    import numpy as np

    last = result.passes[-1]
    tracer.keep_within(last.intervals)
    build = last.build
    telemetry = build.telemetry
    counters = telemetry.metrics.snapshot()["counters"]
    stages = telemetry.profiler.report()
    store = build.service.store
    head = store.head
    model = build.model
    values = {
        name: tracer.total(name.rsplit("_", 1)[0])
        for name in PER_LAYER if name.endswith("_s")
    }
    values["forward.fit_self_s"] = tracer.self_total("forward.fit")
    for name in ("decode", "engine_sync", "embed", "store_commit"):
        values[f"service.apply.{name}_s"] = stages.get(
            f"service.apply.{name}", {}
        ).get("exclusive_seconds", 0.0)
    for name in ("engine.query", "engine.sync", "optim.update"):
        values[f"{name}_calls"] = tracer.count(name)
    values["extend.calls"] = tracer.count("extend.batch")
    row_hits = counters.get("engine.cache.row.hits", 0)
    row_lookups = row_hits + counters.get("engine.cache.row.misses", 0)
    values["engine.row_cache_hit_ratio"] = row_hits / row_lookups if row_lookups else 0.0
    history = getattr(model, "loss_history", None)
    values["forward.final_loss"] = history[-1] if history else 0.0
    n2v = getattr(model, "model_", None)
    values["skipgram.final_loss"] = (
        n2v.loss_history[-1] if n2v is not None and n2v.loss_history else 0.0
    )
    extended = sum(s["attrs"].get("facts", 0) for s in tracer.named("extend.batch"))
    relation = build.dataset.prediction_relation
    arrivals = sum(
        1 for batch in build.feed for op in batch.ops
        if op.kind == "insert" and op.fact.relation == relation
    )
    values["extend.facts_per_arrival"] = extended / arrivals if arrivals else 0.0
    values["skipgram.pairs_trained"] = sum(
        s["attrs"].get("pairs", 0) for s in tracer.named("skipgram.train")
    )
    values["service.batches"] = counters.get("service.batches", 0)
    values["service.ops"] = counters.get("service.ops", 0)
    values["store.rows"] = head.num_rows
    values["store.dead_rows"] = head.num_dead
    values["store.versions_retained"] = len(store.versions())
    values["store.bytes"] = tracer.named("store.save")[-1]["attrs"].get("bytes", 0)
    values["index.search_ms"] = _p50_ms(
        [s["end"] - s["start"] for s in tracer.named("index.search")]
    )
    values["index.rows"] = head.num_rows

    clients = sorted(
        (s for s in tracer.spans if s["name"].startswith("serve.client.")),
        key=lambda s: s["start"],
    )
    backends = sorted(
        (s for s in tracer.spans if s["name"].startswith("serve.backend.")),
        key=lambda s: s["start"],
    )
    for kind in ("fetch", "knn", "slice"):
        mine = tracer.named(f"serve.backend.{kind}")
        values[f"serve.backend_{kind}_ms"] = _p50_ms([s["end"] - s["start"] for s in mine])
        sizes = [s["attrs"]["bytes"] for s in tracer.named(f"serve.client.{kind}")]
        values[f"serve.response_bytes_{kind}"] = float(np.median(sizes)) if sizes else 0.0
    if len(clients) == len(backends):
        values["serve.transport_ms"] = _p50_ms([
            (c["end"] - c["start"]) - (b["end"] - b["start"]) for c, b in zip(clients, backends)
        ])
    else:  # every backend call must come from the benchmark's one client
        raise RuntimeError(f"{len(clients)} client queries but {len(backends)} backend calls")

    traced = [p.wall_s for p, t in zip(result.passes, tracers) if t is tracer]
    untraced = [p.wall_s for p, t in zip(result.passes, tracers) if t is not tracer]
    values["trace.overhead_pct"] = 100.0 * (np.mean(traced) / np.mean(untraced) - 1.0)
    window = sum(end - start for start, end in last.intervals)
    values["trace.coverage"] = sum(
        tracer.covered(start, end) for start, end in last.intervals
    ) / window
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, (unit, *_) in PER_LAYER.items()
    }

"""A workload through the whole pipeline, measured.

One *pass* sets up and fits the stack, pins its baseline version, streams
the feed batch by batch through ``EmbeddingService.apply`` and after every
batch sends a fixed number of queries over one keep-alive HTTP connection
(closed loop, one main thread), then saves and reloads the store.  Its
correctness gates run after it, outside the timed phases.

:func:`run` makes a fixed number of passes.  They replay the same stream
and query plan (a gate checks that every pass ends bit-identical), so each
batch, query and fit is timed once per pass and reported as its mean over
passes; see ``workloads.MIN_PASSES``.  Set-up alone repeats up to
``workloads.SETUPS`` times and is reported as a median.  The one-shot gate
and the two downstream evaluations run on the first pass only: later passes
end in the same head store.

Every failed query, invisible commit or failed gate is one failed
operation; batches, queries and gates are the operations attempted.
"""

from __future__ import annotations

import gc
import hashlib
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.api.embedders import Node2VecEmbedding
from repro.core.config import ForwardConfig, Node2VecConfig
from repro.core.forward import ForwardEmbedder
from repro.core.forward_dynamic import ForwardDynamicExtender
from repro.datasets import load_dataset
from repro.dynamic.partition import partition_dataset
from repro.engine import WalkEngine
from repro.evaluation.downstream import (
    DownstreamClassifier,
    LabelledEmbedding,
    cross_validated_accuracy,
)
from repro.obs import Telemetry
from repro.serve.backend import LocalBackend
from repro.serve.client import ServeClient, ServeError
from repro.serve.router import SnapshotRouter
from repro.serve.server import EmbeddingServer
from repro.service.feed import churn_feed
from repro.service.service import EmbeddingService
from repro.service.store import EmbeddingStore

from perfbench import gates
from perfbench.workloads import (
    DATA_SEED, FETCH_IDS, FORWARD_CONFIG, K, KNN_RELATION_SHARE, MIN_BATCHES, MIN_QUERIES,
    NODE2VEC_CONFIG, PINNED_EVERY, PLAN_BLOCK, QUERIES_PER_BATCH, QUERY_MIX, ZIPF_EXPONENT,
    Workload,
)
from perfbench.tracing import NULL_TRACER

#: Churn shares of the CRUD workloads (of each batch's inserts).
DELETE_FRACTION = 0.15
UPDATE_FRACTION = 0.15
#: Folds of the static cross-validation (the paper's protocol), repeated
#: over differently seeded fold assignments and averaged.  The fold seeds
#: derive from ``DATA_SEED``, so both accuracies are fixed per workload and
#: move only when the embeddings do.
CV_FOLDS = 10
CV_REPEATS = 10


@dataclass
class Build:
    """Everything one set-up + fit produced, ready to stream."""

    dataset: object
    partition: object
    feed: object
    model: object  # ForwardModel or fitted Node2VecEmbedding
    service: EmbeddingService
    router: SnapshotRouter
    server: EmbeddingServer
    telemetry: Telemetry | None
    setup_s: float
    fit_s: float
    intervals: list = field(default_factory=list)

    def stop(self) -> None:
        self.server.stop()


@dataclass
class Pass:
    """Raw measurements of one streamed pass."""

    build: Build | None  # dropped once a later pass has run
    apply_s: list[float]  # per batch, in feed order
    query_s: list[float]  # per query, in plan order
    ops: int
    setup_s: float
    fit_s: float
    stream_s: float
    persist_s: float
    baseline_digest: str  # of the version-1 store; equal on every build
    head_digest: str  # of the head store after the stream; equal on every pass
    attempted: int
    failures: list[str]
    intervals: list[tuple[float, float]]

    @property
    def wall_s(self) -> float:
        """Set-up + fit + stream/serve + persist."""
        return self.setup_s + self.fit_s + self.stream_s + self.persist_s


@dataclass
class Result:
    """All passes and set-ups of one run, with the aggregates it reports.

    Per-item timings are means over passes (see the module docstring).
    """

    passes: list[Pass]
    setup_s: list[float]
    static_acc: float
    new_acc: float
    peak_rss_mb: float
    attempted: int
    failures: list[str]

    @property
    def apply_s(self) -> np.ndarray:
        return np.mean([p.apply_s for p in self.passes], axis=0)

    @property
    def query_s(self) -> np.ndarray:
        return np.mean([p.query_s for p in self.passes], axis=0)

    @property
    def fit_s(self) -> float:
        return statistics.mean(p.fit_s for p in self.passes)

    @property
    def ops(self) -> int:
        return self.passes[0].ops

    @property
    def wall_s(self) -> float:
        return statistics.mean(p.wall_s for p in self.passes)


def _build(workload: Workload, tracer) -> Build:
    span = tracer.span
    begun = time.perf_counter()
    with span("datasets.load"):
        dataset = load_dataset(workload.dataset, scale=workload.scale, seed=DATA_SEED)
    with span("dynamic.partition"):
        partition = partition_dataset(dataset, ratio_new=workload.insert_ratio, rng=DATA_SEED)
    with span("feed.build"):
        feed = churn_feed(
            partition, group_size=1, delete_fraction=DELETE_FRACTION,
            update_fraction=UPDATE_FRACTION, rng=DATA_SEED,
        )
    with span("engine.compile"):
        engine = WalkEngine(partition.db)
    fit_begun = time.perf_counter()
    with span("fit"):
        if workload.method == "forward":
            model = ForwardEmbedder(
                partition.db, dataset.prediction_relation, ForwardConfig(**FORWARD_CONFIG),
                rng=DATA_SEED, engine=engine,
            ).fit()
        else:
            model = Node2VecEmbedding(Node2VecConfig(**NODE2VEC_CONFIG)).fit(
                partition.db, rng=DATA_SEED, engine=engine,
            )
    fit_ended = time.perf_counter()
    telemetry = None if tracer is NULL_TRACER else Telemetry()
    with span("service.start"):
        service = EmbeddingService(
            model, partition.db, engine=engine if workload.method == "forward" else None,
            policy=workload.policy, seed=DATA_SEED, telemetry=telemetry,
        )
        router = SnapshotRouter(service.store)
        service.attach_router(router)
        server = EmbeddingServer(
            LocalBackend(router, telemetry=telemetry), port=0
        ).start()
    ended = time.perf_counter()
    return Build(
        dataset, partition, feed, model, service, router, server, telemetry,
        setup_s=(fit_begun - begun) + (ended - fit_ended),
        fit_s=fit_ended - fit_begun,
        intervals=[(begun, ended)],
    )


def _zipf(n: int) -> np.ndarray:
    weights = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    return weights / weights.sum()


def _apportion(n: int, mix: dict[str, float]) -> list[str]:
    """``n`` kinds in the shares of ``mix``, rounded by largest remainder."""
    quotas = {kind: n * share for kind, share in mix.items()}
    counts = {kind: int(quota) for kind, quota in quotas.items()}
    short = n - sum(counts.values())
    for kind in sorted(quotas, key=lambda k: counts[k] - quotas[k])[:short]:
        counts[kind] += 1
    return [kind for kind in mix for _ in range(counts[kind])]


def _balanced(rng: np.random.Generator, items: list[str]):
    """Endless seeded sequence holding each item once in every ``len(items)``."""
    while True:
        yield from (str(item) for item in rng.permutation(items))


def query_plan(baseline, count: int, seed: int) -> list[dict]:
    """``count`` queries over the baseline's facts, zipfian by popularity.

    Fact popularity ranks are a seeded permutation of the baseline fact ids,
    so the hot facts differ per seed.  Kinds and slice relations are
    stratified rather than drawn per query: every ``PLAN_BLOCK`` queries
    hold the kinds in the exact shares of ``QUERY_MIX``, among the pinned
    and the unpinned queries alike, in seeded order, and slices of each
    group take the relations in turn, in a seeded order per round.  Slices
    set the query tail, and a slice costs in proportion to its relation's
    size, which grows over the stream; a kind and relation drawn per query
    would let the seed decide how many large slices fall late in the
    stream, and with it ``query_p95_ms``.  Relation filters of kNN queries
    pick a relation uniformly.
    """
    rng = np.random.default_rng([seed, 7])
    fact_ids = rng.permutation(np.asarray(sorted(baseline.row_of), dtype=np.int64))
    fact_p = _zipf(fact_ids.size)
    relations = sorted(set(baseline.relations))
    pinned = np.arange(count) % PINNED_EVERY == 0
    kinds = np.empty(count, dtype=object)
    for start in range(0, count, PLAN_BLOCK):
        block = np.arange(start, min(start + PLAN_BLOCK, count))
        for slots in (block[pinned[block]], block[~pinned[block]]):
            kinds[slots] = rng.permutation(_apportion(slots.size, QUERY_MIX))
    slice_relations = {flag: _balanced(rng, relations) for flag in (True, False)}
    plan = []
    for i, kind in enumerate(kinds):
        if kind == "fetch":
            ids = rng.choice(fact_ids, FETCH_IDS, p=fact_p)
            op = {"kind": kind, "fact_ids": [int(f) for f in ids]}
        elif kind == "knn":
            op = {"kind": kind, "query": int(rng.choice(fact_ids, p=fact_p)), "k": K}
            if rng.random() < KNN_RELATION_SHARE:
                op["relation"] = relations[int(rng.integers(len(relations)))]
        else:
            op = {"kind": kind, "relation": next(slice_relations[bool(pinned[i])])}
        plan.append(op)
    return plan


def send(client: ServeClient, op: dict, version: int | None) -> dict:
    if op["kind"] == "fetch":
        return client.fetch(op["fact_ids"], version=version)
    if op["kind"] == "knn":
        return client.knn(op["query"], k=op["k"], relation=op.get("relation"), version=version)
    return client.slice(op["relation"], version=version)


def _trained_ids(build: Build) -> list[int]:
    embedder = build.service.embedder
    return sorted(fid for fid in build.service.store.snapshot(1).row_of if embedder.is_trained(fid))


def _replay_into(db, feed, prediction_relation: str) -> list:
    """Apply the feed's ops to ``db`` as the service does (public API only).

    Returns the surviving streamed prediction facts in arrival order.
    """
    arrival: dict[int, None] = {}
    for batch in feed:
        for op in batch.ops:
            fact = op.fact
            if op.kind == "insert":
                if fact not in db:
                    db.reinsert(fact)
                    if fact.relation == prediction_relation:
                        arrival[fact.fact_id] = None
            elif op.kind == "delete":
                if fact in db:
                    db.delete(fact.fact_id)
                    arrival.pop(fact.fact_id, None)
            elif fact in db:
                current = db.fact(fact.fact_id)
                if current.values != fact.values:
                    db.update(current, fact.as_dict())
    return [db.fact(fid) for fid in arrival]


def _one_shot_gate(workload: Workload, build: Build) -> list[str]:
    """Recompute head == one fresh extender over a replayed twin database."""
    twin = partition_dataset(build.dataset, ratio_new=workload.insert_ratio, rng=DATA_SEED)
    arrival = _replay_into(twin.db, build.feed, build.dataset.prediction_relation)
    extender = ForwardDynamicExtender(
        build.model, twin.db, recompute_old_paths=True, rng=DATA_SEED,
        engine=WalkEngine(twin.db),
    )
    vectors = extender.extend_batch(arrival)
    ids = [f.fact_id for f in arrival]
    head = build.service.store.head
    missing = [fid for fid in ids if fid not in head]
    if missing:
        return [f"{len(missing)} surviving streamed facts missing from the head store"]
    one_shot = np.asarray([vectors[fid] for fid in ids]).reshape(len(ids), head.dimension)
    return gates.one_shot(head.fetch(ids), one_shot)


def _accuracies(build: Build) -> tuple[float, float]:
    """Static CV accuracy on old facts; old-trained classifier on new facts."""
    head = build.service.store.head
    labels = build.dataset.labels()

    def labelled(ids) -> LabelledEmbedding:
        kept = [fid for fid in ids if fid in head and fid in labels]
        return LabelledEmbedding(
            tuple(kept), head.fetch(kept), np.asarray([labels[f] for f in kept], dtype=object)
        )

    old = labelled(build.partition.old_prediction_ids)
    new = labelled(build.partition.new_prediction_ids)
    static_acc = statistics.mean(
        cross_validated_accuracy(
            old, n_splits=CV_FOLDS, rng=np.random.default_rng([DATA_SEED, r])
        )[0]
        for r in range(CV_REPEATS)
    )
    classifier = DownstreamClassifier()
    classifier.train(old)
    return static_acc, classifier.accuracy(new)


def _digest(*snapshots) -> str:
    digest = hashlib.sha256()
    for snapshot in snapshots:
        digest.update(snapshot.fact_ids.tobytes())
        digest.update(snapshot.vectors.tobytes())
    return digest.hexdigest()


def stream_pass(workload: Workload, seed: int, workdir: Path, tracer) -> Pass:
    """Build, stream and serve, persist, then check; see the module docstring."""
    failures: list[str] = []
    checked = []

    def gate(name: str, errors: list[str]) -> None:
        checked.append(name)
        if errors:
            failures.append(f"{name}: {'; '.join(errors)}")

    build = _build(workload, tracer)
    gate("op_mix", gates.op_mix(build.feed.num_ops, workload.ops))
    service, router = build.service, build.router
    baseline = router.store.head
    plan = query_plan(baseline, len(build.feed) * QUERIES_PER_BATCH, seed)
    client = ServeClient("127.0.0.1", build.server.port, timeout=60.0)
    query_s: list[float] = []
    apply_s: list[float] = []
    try:
        pinned = client.pin(1)["version"]
        references = {
            i: send(client, op, pinned) for i, op in enumerate(plan) if i % PINNED_EVERY == 0
        }
        stream_begun = time.perf_counter()
        for n, batch in enumerate(build.feed):
            with tracer.span("service.apply"):
                started = time.perf_counter()
                outcome = service.apply(batch)
                router.collect()
                visible = router.latest().version
                apply_s.append(time.perf_counter() - started)
            if visible != outcome.store_version:
                failures.append(f"batch {n}: committed version {outcome.store_version} not visible")
            for i in range(n * QUERIES_PER_BATCH, (n + 1) * QUERIES_PER_BATCH):
                version = pinned if i in references else None
                started = time.perf_counter()
                try:
                    response = send(client, plan[i], version)
                except (ServeError, OSError) as exc:
                    failures.append(f"query {i} failed: {exc}")
                    continue
                finally:  # a failed query keeps its slot, so passes stay aligned
                    query_s.append(time.perf_counter() - started)
                if version is not None and gates.pinned_read(references[i], response):
                    failures.append(f"query {i}: pinned read differs from its reference")
        stream_ended = time.perf_counter()
        client.release(pinned)
    finally:
        client.close()

    store_dir = workdir / "store"
    persist_begun = time.perf_counter()
    service.store.save(store_dir)
    loaded = EmbeddingStore.load(store_dir)
    persist_ended = time.perf_counter()
    build.stop()
    shutil.rmtree(store_dir, ignore_errors=True)

    head = service.store.head
    gate("samples", gates.samples(len(apply_s), len(plan), MIN_BATCHES, MIN_QUERIES))
    gate("stable", gates.stable(head, service.store.snapshot(1), _trained_ids(build)))
    deleted = {op.fact.fact_id for batch in build.feed for op in batch.ops if op.kind == "delete"}
    gate("deleted_absent", gates.deleted_absent(head, deleted))
    gate("save_load", gates.same_snapshot(head, loaded.head))
    return Pass(
        build=build, apply_s=apply_s, query_s=query_s,
        ops=sum(len(batch.ops) for batch in build.feed),
        setup_s=build.setup_s, fit_s=build.fit_s,
        stream_s=stream_ended - stream_begun, persist_s=persist_ended - persist_begun,
        baseline_digest=_digest(baseline), head_digest=_digest(head),
        attempted=len(build.feed) + len(plan) + len(checked), failures=failures,
        intervals=build.intervals + [(stream_begun, stream_ended), (persist_begun, persist_ended)],
    )


def run(workload: Workload, seed: int, workdir: Path, tracers: list, setups: int = 1) -> Result:
    """One pass per tracer, then untraced set-ups alone until ``setups`` were made.

    A :class:`~perfbench.tracing.Tracer` wraps the library only during its
    own passes.
    """
    done: list[Pass] = []
    failures: list[str] = []
    attempted = 0
    for n, tracer in enumerate(tracers):
        if done:
            done[-1].build = None  # keep only the last pass's stack alive
            gc.collect()
        with tracer.installed():
            last = stream_pass(workload, seed, workdir, tracer)
        done.append(last)
        failures += last.failures
        attempted += last.attempted
        if n == 0:  # later passes end in the same head store (checked below)
            if workload.policy == "recompute":
                attempted += 1
                errors = _one_shot_gate(workload, last.build)
                failures += [f"one_shot: {'; '.join(errors)}"] if errors else []
            static_acc, new_acc = _accuracies(last.build)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s = [p.setup_s for p in done]
    baselines = [p.baseline_digest for p in done]
    while len(setup_s) < setups:
        gc.collect()
        extra = _build(workload, NULL_TRACER)
        extra.stop()
        setup_s.append(extra.setup_s)
        baselines.append(_digest(extra.service.store.head))
        del extra
    errors = gates.identical(baselines) + gates.identical([p.head_digest for p in done])
    attempted += 1
    if errors:
        failures.append(f"deterministic: {'; '.join(errors)}")
    return Result(
        passes=done, setup_s=setup_s, static_acc=float(static_acc), new_acc=float(new_acc),
        peak_rss_mb=peak_rss_mb, attempted=attempted, failures=failures,
    )

"""The benchmark's workloads.

Every workload runs the whole pipeline (dataset → partition → feed →
compiled walk engine → static fit → streamed CRUD apply interleaved with
HTTP queries → persist) through public entry points only.  The two differ
in which layer dominates, so an optimisation of one layer shows on the
workload that loads it and must leave the other unchanged:

* ``world-churn`` is dominated by the CRUD apply path (``engine`` sync,
  ``core.forward_dynamic`` re-extension under ``recompute``); its FoRWaRD
  fit is the only one in the benchmark, so ``core.forward`` and ``optim``
  changes show in its ``fit_s``.
* ``genes-node2vec`` is dominated by skip-gram training (``graph``,
  ``walks``, ``nn``) in both fit and apply, and its store holds every fact,
  so the store, index and serve layers work on the larger state.

Which per-layer metric should move which end-to-end metric on which
workload is recorded next to each metric in ``perfbench.tracing.PER_LAYER``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: BLAS threads for every run.  Part of the workload definition: the
#: default two OpenBLAS threads on a two-core host burn about twice the CPU
#: seconds of one thread for the same fit, and change the fit's last digits.
BLAS_THREADS = 1

#: Seed of dataset generation, partitioning, the churn schedule, static
#: training and the service's extension RNG: data, stream and model are
#: part of the workload, and ``--seed`` draws the query plan.  Seeding data
#: and model per run moved the accuracies by more than any bound allows:
#: their test sets hold about 100 facts, and ``genes-node2vec`` classifies
#: new facts at chance level.
DATA_SEED = 0

#: Queries the main thread sends after each applied batch (closed loop, one
#: keep-alive HTTP client).
QUERIES_PER_BATCH = 20

#: Every ``PINNED_EVERY``-th query reads the baseline version pinned before
#: the stream and must match its serially recorded reference exactly.
PINNED_EVERY = 5

#: Query mix: fetch of ``FETCH_IDS`` ids, kNN with ``K`` neighbours (a
#: ``KNN_RELATION_SHARE`` of them relation-filtered) and relation slices.
QUERY_MIX = {"fetch": 0.50, "knn": 0.35, "slice": 0.15}
FETCH_IDS = 4
K = 5
KNN_RELATION_SHARE = 0.25
#: Queries of one stratum of the plan: the smallest block in which the
#: pinned and the unpinned queries both hold ``QUERY_MIX`` exactly.
PLAN_BLOCK = QUERIES_PER_BATCH * PINNED_EVERY
#: Skew of fact popularity, ``1/rank^s``.  An assumption, not a measurement:
#: it is the default of the serve tier's own load generator
#: (``repro.serve.loadgen.LoadProfile.zipf_exponent``).
ZIPF_EXPONENT = 1.1

#: Every item a run times (each batch's apply, each query, each fit) is
#: timed once per pass and reported as its mean over passes.  The host's
#: speed moves in steps of up to 2x that last seconds to minutes, so the
#: pooled median of single timings jumps between speed levels; a per-item
#: mean over passes far apart in time moves far less (quartile spread over
#: one-minute windows of a fixed numpy and Python kernel on a shared
#: two-vCPU Xeon host: 0.27 for the pooled median, 0.12 for the median of
#: two-pass means).
MIN_PASSES = 2
#: Nominal seconds of one measured pass; a run of ``--seconds`` makes
#: :func:`passes` passes, a count fixed in advance so a slow host gets no
#: fewer samples.
PASS_SECONDS = 24.0
#: Set-ups per run (the passes' own plus set-up-only repeats); their median
#: is ``setup_s``.
SETUPS = 5

#: Sample floors: p90 apply latency needs at least ten batches beyond it and
#: p95 query latency at least a hundred queries beyond it.
MIN_BATCHES = 100
MIN_QUERIES = 2000

#: ``ForwardConfig`` of the replay workloads (``repro.service.replay``'s
#: ``DEFAULT_CONFIG``), spelled out so the workload stays fixed if that
#: default moves.
FORWARD_CONFIG = dict(
    dimension=32, n_samples=1500, batch_size=2048, max_walk_length=2, epochs=15,
    learning_rate=0.01, n_new_samples=60,
)

#: ``Node2VecConfig`` of the reduced benchmark profile (``benchmarks/conftest.py``).
NODE2VEC_CONFIG = dict(
    dimension=16, walks_per_node=5, walk_length=10, window_size=3,
    negatives_per_positive=5, batch_size=8192, epochs=3, dynamic_epochs=3,
    dynamic_walks_per_node=8,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: inputs, method and feed shape."""

    name: str
    dataset: str
    scale: float
    insert_ratio: float
    method: str  # "forward" or "node2vec"
    policy: str  # service policy: "recompute" or "on_arrival"
    ops: tuple[str, ...]  # op kinds the feed must contain
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="world-churn",
            dataset="world", scale=0.65, insert_ratio=0.65,
            method="forward", policy="recompute",
            ops=("insert", "delete", "update"),
            why="CRUD apply dominates (engine sync, forward_dynamic re-extension, "
            "store commit heavy); FoRWaRD fit (core.forward, optim) is short but "
            "only here.",
        ),
        Workload(
            name="genes-node2vec",
            dataset="genes", scale=0.2, insert_ratio=0.6,
            method="node2vec", policy="on_arrival",
            ops=("insert", "delete", "update"),
            why="Skip-gram (graph, walks, nn) dominates fit and apply; FoRWaRD "
            "layers idle. All-facts store loads store, index and serve layers "
            "most.",
        ),
    )
}


def passes(seconds: float) -> int:
    """Passes of a run that measures about ``seconds``."""
    return max(MIN_PASSES, round(seconds / PASS_SECONDS))

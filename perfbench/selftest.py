"""Self-tests of the benchmark: its gates catch injected faults, and a traced
run reports every per-layer metric ``BENCHMARK.json`` lists.

Run from the repository root (about a minute)::

    python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from collections import Counter
from dataclasses import replace
from types import SimpleNamespace
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import gates, pipeline, run, workloads  # noqa: E402
from perfbench.tracing import NULL_TRACER, PER_LAYER  # noqa: E402

#: Small versions of the benchmark's two methods, fast enough for a test.
TINY = {
    "tiny-forward": replace(
        workloads.WORKLOADS["world-churn"], name="tiny-forward", dataset="genes",
        scale=0.08, insert_ratio=0.45,
    ),
    "tiny-node2vec": replace(
        workloads.WORKLOADS["genes-node2vec"], name="tiny-node2vec", scale=0.08,
        insert_ratio=0.45,
    ),
}


@pytest.fixture(autouse=True)
def tiny_floors(monkeypatch):
    """Tiny workloads stream fewer batches than the real sample floors."""
    monkeypatch.setattr(pipeline, "MIN_BATCHES", 1)
    monkeypatch.setattr(pipeline, "MIN_QUERIES", 1)
    monkeypatch.setattr(run, "WORKLOADS", {**workloads.WORKLOADS, **TINY})


def _run(tmp_path, name="tiny-forward", passes=1, setups=1):
    return pipeline.run(TINY[name], 0, tmp_path, [NULL_TRACER] * passes, setups=setups)


def _main(*argv) -> tuple[int, dict]:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = run.main(list(argv))
    return code, json.loads(stdout.getvalue().strip().splitlines()[-1])


def test_clean_run_reports_each_item_as_its_mean_over_passes(tmp_path):
    result = _run(tmp_path, passes=2, setups=3)
    assert result.failures == [] and len(result.passes) == 2 and len(result.setup_s) == 3
    first, second = result.passes
    assert first.head_digest == second.head_digest
    assert len(result.apply_s) == len(first.apply_s)
    assert np.allclose(result.apply_s, (np.add(first.apply_s, second.apply_s)) / 2)
    assert np.allclose(result.query_s, (np.add(first.query_s, second.query_s)) / 2)
    assert np.isclose(result.fit_s, (first.fit_s + second.fit_s) / 2)
    assert np.isclose(result.wall_s, (first.wall_s + second.wall_s) / 2)


def test_pinned_gate_catches_a_perturbed_pinned_vector(tmp_path, monkeypatch):
    from repro.serve.backend import LocalBackend
    from repro.service.service import EmbeddingService

    fetch, apply = LocalBackend.fetch, EmbeddingService.apply
    streaming = []

    def perturbed(self, fact_ids, version=None):
        response = fetch(self, fact_ids, version)
        if version is not None and streaming:  # references are recorded before
            response["vectors"][0][0] += 1e-12
        return response

    monkeypatch.setattr(LocalBackend, "fetch", perturbed)
    monkeypatch.setattr(
        EmbeddingService, "apply", lambda self, batch: streaming.append(1) or apply(self, batch)
    )
    failures = _run(tmp_path).failures
    assert failures and all("pinned read differs" in f for f in failures)


def test_deleted_gate_catches_a_leaked_deleted_fact(tmp_path, monkeypatch):
    from repro.service.store import EmbeddingStore

    commit = EmbeddingStore.commit
    monkeypatch.setattr(
        EmbeddingStore, "commit",
        lambda self, updates=(), batch_id=None, *, deletes=(): commit(self, updates, batch_id),
    )
    failures = _run(tmp_path).failures
    assert any("deleted facts still in the head store" in f for f in failures)


def test_op_mix_gate_catches_a_missing_op_kind():
    from repro.datasets import load_dataset
    from repro.dynamic.partition import partition_dataset
    from repro.service.feed import churn_feed

    # one-fact Mondial arrivals round 15% churn down to zero deletes/updates
    dataset = load_dataset("mondial", scale=0.3, seed=0)
    feed = churn_feed(partition_dataset(dataset, ratio_new=0.5, rng=0), group_size=1, rng=0)
    errors = gates.op_mix(feed.num_ops, ("insert", "delete", "update"))
    assert any("'delete' never occurs" in e for e in errors)
    assert any("'update' never occurs" in e for e in errors)
    assert gates.op_mix({"insert": 3, "delete": 1, "update": 0}, ("insert",))


def test_one_shot_and_determinism_gates():
    vectors = np.arange(6.0).reshape(2, 3)
    assert gates.one_shot(vectors, vectors + 1e-10) == []
    assert gates.one_shot(vectors, vectors + 1e-8)
    assert gates.identical(["a", "a", "a"]) == []
    assert gates.identical([("a", 0.5), ("a", 0.5), ("a", 0.25)])


def test_query_plan_holds_the_mix_in_every_block():
    baseline = SimpleNamespace(
        row_of=dict.fromkeys(range(40)), relations=["a"] * 20 + ["b"] * 12 + ["c"] * 8
    )
    block = workloads.PLAN_BLOCK
    plan = pipeline.query_plan(baseline, 3 * block, seed=3)
    assert plan == pipeline.query_plan(baseline, 3 * block, seed=3)
    assert plan != pipeline.query_plan(baseline, 3 * block, seed=4)
    pinned = [i % workloads.PINNED_EVERY == 0 for i in range(len(plan))]
    for start in range(0, len(plan), block):
        for flag in (True, False):
            ops = [op for i, op in enumerate(plan[start:start + block], start) if pinned[i] == flag]
            shares = {kind: round(len(ops) * share) for kind, share in workloads.QUERY_MIX.items()}
            assert Counter(op["kind"] for op in ops) == shares
    for flag in (True, False):
        relations = [op["relation"] for i, op in enumerate(plan)
                     if op["kind"] == "slice" and pinned[i] == flag]
        rounds = len(relations) // 3
        assert rounds >= 3
        assert all(sorted(relations[3 * r:3 * r + 3]) == ["a", "b", "c"] for r in range(rounds))


def _listed(kind: str) -> dict[str, tuple]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: (entry["unit"], entry["better"]) for entry in spec[kind]}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_reports_every_per_layer_metric(name):
    code, summary = _main("--workload", name, "--seed", "0", "--seconds", "0", "--trace", "1")
    assert code == 0 and summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == set(PER_LAYER)
    assert {name: row[:2] for name, row in PER_LAYER.items()} == _listed("per_layer")
    workload_names = set(workloads.WORKLOADS) | {"both"}
    assert all(on in workload_names for *_, on in PER_LAYER.values())
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    busy = ["datasets.load_s", "engine.compile_s", "service.apply_s", "store.commit_s",
            "serve.backend_slice_ms", "trace.coverage"]
    busy += (["forward.fit_self_s", "optim.update_calls", "extend.batch_s"]
             if name == "tiny-forward" else ["skipgram.train_s", "walks.generate_s"])
    assert all(metrics[m] > 0 for m in busy), {m: metrics[m] for m in busy}
    assert 0.5 < metrics["trace.coverage"] <= 1.0


def test_untraced_run_reports_every_end_to_end_metric():
    code, summary = _main("--workload", "tiny-node2vec", "--seed", "1", "--seconds", "0")
    assert code == 0 and summary["correct"]
    assert set(summary["metrics"]) == set(run.END_TO_END)
    assert run.END_TO_END == {name: unit for name, (unit, _) in _listed("end_to_end").items()}
    assert all(m["value"] > 0 for m in summary["metrics"].values())


if __name__ == "__main__":
    raise SystemExit(pytest.main(["-q", __file__]))

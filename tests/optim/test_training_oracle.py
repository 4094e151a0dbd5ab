"""Exactness oracle for the shared row-sparse training kernel.

This module freezes the trainers as they were before they shared
``repro.optim.segment_sum``: skip-gram gradients scatter-added with
``np.add.at`` (loss from a second forward pass, frozen rows looked up with
``np.isin`` in a Python set), the FoRWaRD mini-batch step, the Adam sparse
step with ``np.subtract.at`` and the Python loops over walk corpora.  The
live trainers must reproduce them exactly: every comparison is at 0.0.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ForwardConfig, ForwardEmbedder
from repro.core.forward import _symmetrize
from repro.datasets import load_dataset
from repro.datasets.movies import movies_database
from repro.nn import (
    SkipGramConfig,
    SkipGramModel,
    UnigramNegativeSampler,
    WalkCorpus,
    build_training_pairs,
)
from repro.optim import Optimizer
from repro.optim.optimizers import segment_sum


# ----------------------------------------------------------------- oracle


class OracleAdam(Optimizer):
    """Adam with per-step state allocation and ``np.subtract.at`` row updates."""

    def __init__(self, learning_rate=0.001, beta1=0.9, beta2=0.999, epsilon=1e-8):
        super().__init__(learning_rate)
        self.beta1, self.beta2, self.epsilon = beta1, beta2, epsilon
        self._first: dict = {}
        self._second: dict = {}
        self._step = 0

    def update(self, params, grads, rows=None):
        self._step += 1
        correction1 = 1.0 - self.beta1**self._step
        correction2 = 1.0 - self.beta2**self._step
        for name, grad in grads.items():
            param = params[name]
            first = self._first.setdefault(name, np.zeros_like(param))
            second = self._second.setdefault(name, np.zeros_like(param))
            if rows is not None and name in rows:
                idx = rows[name]
                first[idx] = self.beta1 * first[idx] + (1 - self.beta1) * grad
                second[idx] = self.beta2 * second[idx] + (1 - self.beta2) * grad * grad
                m_hat = first[idx] / correction1
                v_hat = second[idx] / correction2
                np.subtract.at(
                    param, idx, self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)
                )
            else:
                first *= self.beta1
                first += (1 - self.beta1) * grad
                second *= self.beta2
                second += (1 - self.beta2) * grad * grad
                m_hat = first / correction1
                v_hat = second / correction2
                param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self):
        self._first.clear()
        self._second.clear()
        self._step = 0


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def oracle_loss(model, centers, contexts, negatives):
    x = model.input_embeddings[centers]
    y_pos = model.output_embeddings[contexts]
    y_neg = model.output_embeddings[negatives]
    pos_score = np.sum(x * y_pos, axis=1)
    neg_score = np.einsum("bd,bkd->bk", x, y_neg)
    loss = -np.log(_sigmoid(pos_score) + 1e-12).sum()
    loss -= np.log(_sigmoid(-neg_score) + 1e-12).sum()
    return float(loss / max(len(centers), 1))


def oracle_batch_gradients(model, frozen, centers, contexts, negatives):
    x = model.input_embeddings[centers]
    y_pos = model.output_embeddings[contexts]
    y_neg = model.output_embeddings[negatives]
    pos_score = np.sum(x * y_pos, axis=1)
    neg_score = np.einsum("bd,bkd->bk", x, y_neg)
    pos_sig = _sigmoid(pos_score)
    neg_sig = _sigmoid(neg_score)
    batch = max(len(centers), 1)
    grad_x = ((pos_sig - 1.0)[:, None] * y_pos + np.einsum("bk,bkd->bd", neg_sig, y_neg)) / batch
    grad_y_pos = (pos_sig - 1.0)[:, None] * x / batch
    grad_y_neg = neg_sig[:, :, None] * x[:, None, :] / batch

    input_rows, input_inverse = np.unique(centers, return_inverse=True)
    grad_input = np.zeros((input_rows.size, x.shape[1]))
    np.add.at(grad_input, input_inverse, grad_x)
    out_indices = np.concatenate([contexts, negatives.reshape(-1)])
    out_grads = np.concatenate([grad_y_pos, grad_y_neg.reshape(-1, x.shape[1])])
    output_rows, output_inverse = np.unique(out_indices, return_inverse=True)
    grad_output = np.zeros((output_rows.size, x.shape[1]))
    np.add.at(grad_output, output_inverse, out_grads)
    if frozen:
        grad_input[np.isin(input_rows, list(frozen))] = 0.0
        grad_output[np.isin(output_rows, list(frozen))] = 0.0
    return {"input": grad_input, "output": grad_output}, {
        "input": input_rows,
        "output": output_rows,
    }


def oracle_train_pairs(model, frozen, pairs, sampler, epochs, batch_size):
    pairs = np.asarray(pairs, dtype=np.int64)
    negatives_k = model.config.negatives_per_positive
    params = {"input": model.input_embeddings, "output": model.output_embeddings}
    history = []
    for _ in range(epochs):
        order = model.rng.permutation(len(pairs))
        epoch_loss = 0.0
        num_batches = 0
        for start in range(0, len(pairs), batch_size):
            batch = pairs[order[start : start + batch_size]]
            centers, contexts = batch[:, 0], batch[:, 1]
            negatives = sampler.sample((len(batch), negatives_k))
            epoch_loss += oracle_loss(model, centers, contexts, negatives)
            num_batches += 1
            grads, rows = oracle_batch_gradients(model, frozen, centers, contexts, negatives)
            model.optimizer.update(params, grads, rows)
        history.append(epoch_loss / max(num_batches, 1))
    return history


def oracle_forward_batch_step(phi, psi, samples, batch):
    left = samples.left_rows[batch]
    right = samples.right_rows[batch]
    kappa = samples.kernel_values[batch]
    matrix = psi[samples.target_index]
    f_left = phi[left]
    f_right = phi[right]
    left_projected = f_left @ matrix
    scores = np.sum(left_projected * f_right, axis=1)
    errors = scores - kappa
    size = max(len(batch), 1)
    loss = float(0.5 * np.mean(errors**2))
    grad_left = errors[:, None] * (f_right @ matrix) / size
    grad_right = errors[:, None] * left_projected / size
    grad_matrix = _symmetrize((f_left * errors[:, None]).T @ f_right / size)
    rows_concat = np.concatenate([left, right])
    grads_concat = np.concatenate([grad_left, grad_right])
    unique_rows, inverse = np.unique(rows_concat, return_inverse=True)
    grad_phi = np.zeros((unique_rows.size, phi.shape[1]))
    np.add.at(grad_phi, inverse, grads_concat)
    grads = {"phi": grad_phi, "psi": grad_matrix[None]}
    rows = {"phi": unique_rows, "psi": np.array([samples.target_index])}
    return loss, grads, rows


class OracleForwardEmbedder(ForwardEmbedder):
    """``ForwardEmbedder`` whose training loop is the frozen oracle."""

    def _train(self, phi, psi, samples):
        optimizer = OracleAdam(self.config.learning_rate)
        params = {"phi": phi, "psi": psi}
        batch_size = self.config.batch_size
        history = []
        for _ in range(self.config.epochs):
            epoch_loss = 0.0
            num_batches = 0
            for target_samples in samples:
                order = self.rng.permutation(len(target_samples))
                for start in range(0, len(target_samples), batch_size):
                    batch = order[start : start + batch_size]
                    loss, grads, rows = oracle_forward_batch_step(phi, psi, target_samples, batch)
                    optimizer.update(params, grads, rows)
                    epoch_loss += loss
                    num_batches += 1
            history.append(epoch_loss / max(num_batches, 1))
        return history


def oracle_pairs(walks, window_size, restrict_centers_to=None):
    pairs = []
    for walk in walks:
        length = len(walk)
        for i, center in enumerate(walk):
            if restrict_centers_to is not None and center not in restrict_centers_to:
                continue
            for j in range(max(0, i - window_size), min(length, i + window_size + 1)):
                if j != i:
                    pairs.append((center, walk[j]))
    if not pairs:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(pairs, dtype=np.int64)


def oracle_counts(walks, num_nodes):
    counts = np.zeros(num_nodes, dtype=np.float64)
    for walk in walks:
        for node in walk:
            counts[node] += 1.0
    return counts


# ------------------------------------------------------------------ tests


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float64).view(np.int64)


def test_segment_sum_is_bit_identical_to_add_at():
    rng = np.random.default_rng(11)
    for n, top, dim in [(1, 3, 4), (500, 20, 8), (4000, 3000, 16), (300, 5, 1)]:
        indices = rng.integers(0, top, size=n)
        values = rng.normal(size=(n, dim)) * rng.choice([1e-8, 1.0, 1e8], size=(n, 1))
        values[::9] = -0.0
        rows, inverse = np.unique(indices, return_inverse=True)
        expected = np.zeros((rows.size, dim))
        np.add.at(expected, inverse, values)
        got_rows, got = segment_sum(indices, values)
        assert np.array_equal(got_rows, rows)
        assert np.array_equal(_bits(got), _bits(expected))


def test_segment_sum_keeps_trailing_shape_and_handles_empty():
    rows, sums = segment_sum(np.array([2, 0, 2]), np.arange(12.0).reshape(3, 2, 2))
    assert rows.tolist() == [0, 2]
    assert sums.shape == (2, 2, 2)
    expected = np.arange(4.0).reshape(2, 2) + np.arange(8.0, 12.0).reshape(2, 2)
    assert np.array_equal(sums[1], expected)
    rows, sums = segment_sum(np.zeros(0, dtype=np.int64), np.zeros((0, 3)))
    assert rows.size == 0 and sums.shape == (0, 3)


def _skipgram_pair(seed=3, num_nodes=40, dim=6):
    config = SkipGramConfig(
        dimension=dim, negatives_per_positive=4, batch_size=37, epochs=3, learning_rate=0.05
    )
    live = SkipGramModel(num_nodes, config, rng=seed)
    oracle = SkipGramModel(num_nodes, config, rng=seed, optimizer=OracleAdam(0.05))
    return live, oracle


def _random_pairs(num_nodes, count, seed):
    rng = np.random.default_rng(seed)
    # Skewed centers so batches carry many duplicate rows.
    return np.stack(
        [rng.zipf(1.5, count) % num_nodes, rng.integers(0, num_nodes, count)], axis=1
    )


def _assert_models_equal(live, oracle):
    assert np.array_equal(_bits(live.input_embeddings), _bits(oracle.input_embeddings))
    assert np.array_equal(_bits(live.output_embeddings), _bits(oracle.output_embeddings))


def test_skipgram_train_pairs_matches_oracle():
    live, oracle = _skipgram_pair()
    pairs = _random_pairs(live.num_nodes, 900, seed=1)
    counts = np.bincount(pairs.ravel(), minlength=live.num_nodes)
    live_history = live.train_pairs(pairs, UnigramNegativeSampler(counts, rng=5), epochs=4)
    oracle_history = oracle_train_pairs(
        oracle, set(), pairs, UnigramNegativeSampler(counts, rng=5), epochs=4, batch_size=37
    )
    assert live_history == oracle_history
    _assert_models_equal(live, oracle)


def test_skipgram_with_frozen_rows_matches_oracle():
    live, oracle = _skipgram_pair(seed=8)
    pairs = _random_pairs(live.num_nodes, 700, seed=2)
    counts = np.ones(live.num_nodes + 10)
    live.train_pairs(pairs, UnigramNegativeSampler(counts[:40], rng=6), epochs=2)
    oracle_train_pairs(
        oracle, set(), pairs, UnigramNegativeSampler(counts[:40], rng=6), epochs=2, batch_size=37
    )
    # Frozen rows while optimizer state is live, then the dynamic
    # extension's pattern: add nodes, freeze every old one, train on.
    frozen = set(range(0, 40, 3))
    live.freeze(frozen)
    history = live.train_pairs(pairs, UnigramNegativeSampler(counts[:40], rng=7), epochs=2)
    expected = oracle_train_pairs(
        oracle, frozen, pairs, UnigramNegativeSampler(counts[:40], rng=7), epochs=2, batch_size=37
    )
    assert history == expected
    _assert_models_equal(live, oracle)

    live.add_nodes(10)
    oracle.add_nodes(10)
    live.freeze(range(40))
    assert live.frozen == frozenset(range(40))
    new_pairs = _random_pairs(50, 500, seed=3)
    history = live.train_pairs(new_pairs, UnigramNegativeSampler(counts, rng=9), epochs=3)
    expected = oracle_train_pairs(
        oracle, set(range(40)), new_pairs, UnigramNegativeSampler(counts, rng=9),
        epochs=3, batch_size=37,
    )
    assert history == expected
    _assert_models_equal(live, oracle)
    live.unfreeze_all()
    assert live.frozen == set()


@pytest.mark.parametrize(
    "dataset, relation",
    [("movies", "MOVIES"), ("genes", "CLASSIFICATION")],
)
def test_forward_fit_matches_oracle(dataset, relation):
    db = movies_database() if dataset == "movies" else load_dataset("genes", scale=0.05, seed=5).db
    config = ForwardConfig(
        dimension=10, n_samples=300, batch_size=128, max_walk_length=2, epochs=3,
        learning_rate=0.02,
    )
    live = ForwardEmbedder(db, relation, config, rng=4).fit()
    oracle = OracleForwardEmbedder(db, relation, config, rng=4).fit()
    assert np.array_equal(_bits(live.phi), _bits(oracle.phi))
    assert np.array_equal(_bits(live.psi), _bits(oracle.psi))
    assert live.loss_history == oracle.loss_history


def _random_walks(seed):
    rng = np.random.default_rng(seed)
    walks = [list(rng.integers(0, 30, size=rng.integers(0, 12))) for _ in range(60)]
    return [[], [7], *walks, [], [3, 3]]


@pytest.mark.parametrize("window_size", [0, 1, 2, 5, 20])
def test_training_pairs_match_oracle(window_size):
    for seed in range(4):
        walks = _random_walks(seed)
        expected = oracle_pairs(walks, window_size)
        got = build_training_pairs(walks, window_size)
        assert got.dtype == np.int64 and got.shape == expected.shape
        assert np.array_equal(got, expected)
        restrict = {1, 3, 7, 11, 29}
        assert np.array_equal(
            build_training_pairs(iter(walks), window_size, restrict_centers_to=restrict),
            oracle_pairs(walks, window_size, restrict),
        )


def test_node_counts_match_oracle():
    for seed in range(4):
        walks = _random_walks(seed)
        got = WalkCorpus(walks, num_nodes=35).node_counts()
        assert got.dtype == np.float64
        assert np.array_equal(got, oracle_counts(walks, 35))
    assert np.array_equal(WalkCorpus([], num_nodes=3).node_counts(), np.zeros(3))

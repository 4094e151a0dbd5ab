"""Skip-gram with negative sampling (SGNS) over graph nodes.

The objective for a (center ``u``, context ``v``) pair with negatives
``n_1..n_K`` is::

    L = -log σ(x_u · y_v) - Σ_k log σ(-x_u · y_{n_k})

where ``x`` are input (center) embeddings and ``y`` output (context)
embeddings.  The gradients are the standard word2vec expressions and are
applied with mini-batch SGD/Adam through the shared row-sparse kernel of
:mod:`repro.optim`.  A set of *frozen* node indices can be
supplied; gradients for those rows are zeroed before the update, which is
exactly how the dynamic Node2Vec adaptation of Section IV-A keeps existing
tuple embeddings stable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.nn.negative_sampling import UnigramNegativeSampler
from repro.optim.optimizers import Adam, Optimizer, segment_sum
from repro.utils.rng import ensure_rng


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Clip to keep exp() in range; 30 is far beyond float64 sigmoid saturation.
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


@dataclass
class SkipGramConfig:
    """Hyper-parameters of the SGNS model (paper Table II, Node2Vec block)."""

    dimension: int = 100
    negatives_per_positive: int = 20
    batch_size: int = 40_000
    epochs: int = 10
    learning_rate: float = 0.025
    init_scale: float = 0.1


class SkipGramModel:
    """Trainable SGNS embeddings over ``num_nodes`` graph nodes."""

    def __init__(
        self,
        num_nodes: int,
        config: SkipGramConfig | None = None,
        rng: int | np.random.Generator | None = None,
        optimizer: Optimizer | None = None,
    ):
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.config = config or SkipGramConfig()
        self.rng = ensure_rng(rng)
        dim = self.config.dimension
        scale = self.config.init_scale
        self.input_embeddings = self.rng.normal(0.0, scale, size=(num_nodes, dim))
        self.output_embeddings = self.rng.normal(0.0, scale, size=(num_nodes, dim))
        self.optimizer = optimizer or Adam(self.config.learning_rate)
        self._frozen_rows = np.zeros(num_nodes, dtype=bool)

    # ------------------------------------------------------------- topology

    @property
    def num_nodes(self) -> int:
        return self.input_embeddings.shape[0]

    @property
    def frozen(self) -> frozenset[int]:
        """Indices of the nodes whose embeddings training leaves unchanged."""
        return frozenset(np.flatnonzero(self._frozen_rows).tolist())

    def add_nodes(self, count: int) -> np.ndarray:
        """Append ``count`` new randomly initialised nodes; returns their indices."""
        if count <= 0:
            return np.zeros(0, dtype=np.int64)
        dim = self.config.dimension
        scale = self.config.init_scale
        new_in = self.rng.normal(0.0, scale, size=(count, dim))
        new_out = self.rng.normal(0.0, scale, size=(count, dim))
        start = self.num_nodes
        self.input_embeddings = np.vstack([self.input_embeddings, new_in])
        self.output_embeddings = np.vstack([self.output_embeddings, new_out])
        self._frozen_rows = np.append(self._frozen_rows, np.zeros(count, dtype=bool))
        # Optimizer state shapes no longer match; restart it (the paper's
        # continuation trains only the new rows, so losing old momenta is fine).
        self.optimizer.reset()
        return np.arange(start, start + count, dtype=np.int64)

    def freeze(self, nodes: Iterable[int]) -> None:
        """Mark nodes whose embeddings must not change during training."""
        self._frozen_rows[np.fromiter(nodes, dtype=np.int64)] = True

    def unfreeze_all(self) -> None:
        self._frozen_rows[:] = False

    # -------------------------------------------------------------- training

    def loss(self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray) -> float:
        """Mean SGNS loss of a batch (used by tests and for monitoring)."""
        return self._batch_step(centers, contexts, negatives)[0]

    def _batch_gradients(
        self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Accumulated gradients of one batch, as (grads, row-index) dicts."""
        return self._batch_step(centers, contexts, negatives)[1:]

    def _batch_step(
        self, centers: np.ndarray, contexts: np.ndarray, negatives: np.ndarray
    ) -> tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Mean loss and accumulated gradients of one batch, from one forward pass."""
        x = self.input_embeddings[centers]  # (b, d)
        y_pos = self.output_embeddings[contexts]  # (b, d)
        y_neg = self.output_embeddings[negatives]  # (b, k, d)

        pos_score = np.sum(x * y_pos, axis=1)  # (b,)
        neg_score = np.einsum("bd,bkd->bk", x, y_neg)  # (b, k)
        pos_sig = _sigmoid(pos_score)
        neg_sig = _sigmoid(neg_score)
        loss = -np.log(pos_sig + 1e-12).sum()
        loss -= np.log(_sigmoid(-neg_score) + 1e-12).sum()

        batch = max(len(centers), 1)
        grad_x = ((pos_sig - 1.0)[:, None] * y_pos + np.einsum("bk,bkd->bd", neg_sig, y_neg)) / batch
        grad_y_pos = (pos_sig - 1.0)[:, None] * x / batch
        grad_y_neg = neg_sig[:, :, None] * x[:, None, :] / batch

        # Accumulate into unique rows so the optimizer sees one gradient per
        # touched row.
        input_rows, grad_input = segment_sum(centers, grad_x)
        output_rows, grad_output = segment_sum(
            np.concatenate([contexts, negatives.reshape(-1)]),
            np.concatenate([grad_y_pos, grad_y_neg.reshape(-1, x.shape[1])]),
        )

        # Zero the gradients of frozen rows (stability constraint).
        if self._frozen_rows.any():
            grad_input[self._frozen_rows[input_rows]] = 0.0
            grad_output[self._frozen_rows[output_rows]] = 0.0

        grads = {"input": grad_input, "output": grad_output}
        rows = {"input": input_rows, "output": output_rows}
        return float(loss / batch), grads, rows

    def train_pairs(
        self,
        pairs: np.ndarray,
        sampler: UnigramNegativeSampler,
        epochs: int | None = None,
        batch_size: int | None = None,
        shuffle: bool = True,
    ) -> list[float]:
        """Train on (center, context) pairs; returns the mean loss per epoch."""
        pairs = np.asarray(pairs, dtype=np.int64)
        if pairs.size == 0:
            return []
        epochs = epochs if epochs is not None else self.config.epochs
        batch_size = batch_size if batch_size is not None else self.config.batch_size
        negatives_k = self.config.negatives_per_positive
        params = {"input": self.input_embeddings, "output": self.output_embeddings}
        history: list[float] = []
        for _ in range(epochs):
            order = self.rng.permutation(len(pairs)) if shuffle else np.arange(len(pairs))
            epoch_loss = 0.0
            num_batches = 0
            for start in range(0, len(pairs), batch_size):
                batch = pairs[order[start : start + batch_size]]
                centers = batch[:, 0]
                contexts = batch[:, 1]
                negatives = sampler.sample((len(batch), negatives_k))
                loss, grads, rows = self._batch_step(centers, contexts, negatives)
                epoch_loss += loss
                num_batches += 1
                self.optimizer.update(params, grads, rows)
            history.append(epoch_loss / max(num_batches, 1))
        # Parameter dict holds references; keep attributes in sync in case the
        # optimizer ever re-binds (defensive, SGD/Adam update in place).
        self.input_embeddings = params["input"]
        self.output_embeddings = params["output"]
        return history

    # ------------------------------------------------------------ embeddings

    def embedding(self, node: int) -> np.ndarray:
        """The learned embedding of one node (the input/center vector)."""
        return self.input_embeddings[int(node)].copy()

    def embeddings(self, nodes: Sequence[int] | None = None) -> np.ndarray:
        """Embeddings of the given nodes (all nodes when None)."""
        if nodes is None:
            return self.input_embeddings.copy()
        return self.input_embeddings[np.asarray(nodes, dtype=np.int64)].copy()

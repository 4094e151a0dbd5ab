"""Negative sampling for skip-gram training."""

from __future__ import annotations

import numpy as np

from repro.utils.rng import ensure_rng


class UnigramNegativeSampler:
    """Draws negative context nodes from the smoothed unigram distribution.

    As in word2vec/Node2Vec, nodes are sampled proportionally to
    ``count(node) ** power`` with ``power = 0.75`` by default.
    """

    def __init__(
        self,
        counts: np.ndarray,
        power: float = 0.75,
        rng: int | np.random.Generator | None = None,
    ):
        counts = np.asarray(counts, dtype=np.float64)
        if counts.ndim != 1 or counts.size == 0:
            raise ValueError("counts must be a non-empty 1-D array")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")
        weights = np.power(np.maximum(counts, 0.0), power)
        total = weights.sum()
        if total <= 0:
            weights = np.ones_like(weights)
            total = weights.sum()
        self.probabilities = weights / total
        self._cumulative = np.cumsum(self.probabilities)
        # ``_cumulative[-1]`` can round below 1.0: draws above it go to the last drawable node
        self._last_node = int(np.flatnonzero(self.probabilities)[-1])
        self.rng = ensure_rng(rng)

    @property
    def num_nodes(self) -> int:
        return self.probabilities.shape[0]

    def sample(self, size: int | tuple[int, ...]) -> np.ndarray:
        """Sample node indices with the smoothed unigram distribution."""
        draws = self.rng.random(size=size)
        nodes = np.searchsorted(self._cumulative, draws, side="right")
        return np.minimum(nodes, self._last_node).astype(np.int64)

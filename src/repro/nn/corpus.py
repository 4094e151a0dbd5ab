"""Turning random walks into skip-gram training pairs."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

import numpy as np


def _concatenated(walks: Iterable[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """All walks as one flat int64 array, plus each walk's length."""
    walks = list(walks)
    lengths = np.fromiter(map(len, walks), dtype=np.int64, count=len(walks))
    flat = np.fromiter(chain.from_iterable(walks), dtype=np.int64, count=int(lengths.sum()))
    return flat, lengths


@dataclass
class WalkCorpus:
    """A collection of walks (sequences of node indices) plus node statistics."""

    walks: list[list[int]]
    num_nodes: int

    def node_counts(self) -> np.ndarray:
        """Occurrence count of every node across all walks."""
        flat, _ = _concatenated(self.walks)
        return np.bincount(flat, minlength=self.num_nodes).astype(np.float64)

    def __len__(self) -> int:
        return len(self.walks)


def build_training_pairs(
    walks: Iterable[Sequence[int]],
    window_size: int,
    restrict_centers_to: set[int] | None = None,
) -> np.ndarray:
    """All (center, context) pairs within ``window_size`` of each other.

    When ``restrict_centers_to`` is given, only pairs whose *center* node is
    in the set are emitted.  The dynamic Node2Vec extension uses this to
    train only on pairs centred at newly inserted nodes, which combined with
    gradient freezing leaves old embeddings untouched.
    """
    flat, lengths = _concatenated(walks)
    offsets = np.array([o for o in range(-window_size, window_size + 1) if o != 0], dtype=np.int64)
    # Position of every flat entry within its walk, then one row of window
    # offsets per position: row-major order is the (walk, center, context) order.
    position = np.arange(flat.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    target = position[:, None] + offsets
    valid = (target >= 0) & (target < np.repeat(lengths, lengths)[:, None])
    if restrict_centers_to is not None:
        valid &= np.isin(flat, list(restrict_centers_to))[:, None]
    centers, slots = np.nonzero(valid)
    return np.stack([flat[centers], flat[centers + offsets[slots]]], axis=1)

"""Gradient-descent optimizers over named NumPy parameter arrays.

Parameters live in a plain ``{name: ndarray}`` dict owned by the model; an
optimizer keeps its own per-parameter state (momenta, second moments) keyed
by the same names.  Sparse updates — updating only a subset of the rows of an
embedding matrix, as both skip-gram and FoRWaRD training do — are supported
through the optional ``rows`` argument of :meth:`Optimizer.update`; duplicate
rows are first summed with :func:`segment_sum`, the same kernel the trainers
use to accumulate their per-sample gradients.
"""

from __future__ import annotations

import abc
from typing import Mapping

import numpy as np
from scipy.sparse import csr_matrix


def segment_sum(indices: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum the rows of ``values`` that share an index.

    Returns ``(rows, sums)``: the sorted distinct non-negative ``indices``
    and, per row, the sum of its ``values`` rows.  Each sum starts at 0.0
    and adds the values in input order, so the result is bit-identical to
    ``np.add.at(zeros, inverse, values)``: the COO→CSR conversion is a
    stable counting sort by row, and the CSR product accumulates
    ``y += 1.0 * x`` entry by entry, where ``1.0 * x`` is exact.  Cost is
    O(len(indices) + max(indices)).
    """
    indices, n = np.asarray(indices, dtype=np.int64), np.size(indices)
    if n == 0:
        return indices, np.zeros(np.shape(values))
    flat = np.asarray(values, dtype=np.float64).reshape(n, -1)
    by_row = csr_matrix((np.ones(n), (indices, np.arange(n))), shape=(int(indices.max()) + 1, n))
    rows = np.flatnonzero(np.diff(by_row.indptr))
    indptr = np.append(by_row.indptr[rows], n)  # drop the rows no index touches
    sums = csr_matrix((by_row.data, by_row.indices, indptr), shape=(rows.size, n)) @ flat
    return rows, sums.reshape((rows.size,) + np.shape(values)[1:])


def _distinct_rows(rows: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A sparse update's rows made distinct; strictly increasing rows pass through."""
    rows = np.asarray(rows)
    if rows.size > 1 and not np.all(rows[1:] > rows[:-1]):
        return segment_sum(rows, grad)
    return rows, grad


class Optimizer(abc.ABC):
    """Base class: applies gradients to parameters in place."""

    def __init__(self, learning_rate: float = 0.01):
        if learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        self.learning_rate = float(learning_rate)

    @abc.abstractmethod
    def update(
        self,
        params: Mapping[str, np.ndarray],
        grads: Mapping[str, np.ndarray],
        rows: Mapping[str, np.ndarray] | None = None,
    ) -> None:
        """Apply one update step in place.

        ``grads[name]`` must have the same shape as ``params[name]`` unless
        ``rows`` provides row indices for ``name``, in which case the gradient
        has shape ``(len(rows[name]), *params[name].shape[1:])`` and only those
        rows are updated (sparse update); gradients of duplicate rows are
        summed before the step.
        """

    def reset(self) -> None:
        """Drop optimizer state (momenta, step counters)."""

    @staticmethod
    def _state(store: dict[str, np.ndarray], name: str, param: np.ndarray) -> np.ndarray:
        """Per-parameter state, allocated as zeros when absent or reshaped."""
        state = store.get(name)
        if state is None or state.shape != param.shape:
            state = store[name] = np.zeros_like(param)
        return state


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def update(self, params, grads, rows=None):
        for name, grad in grads.items():
            param = params[name]
            if rows is not None and name in rows:
                idx, grad = _distinct_rows(rows[name], grad)
                param[idx] -= self.learning_rate * grad
            else:
                param -= self.learning_rate * grad


class Momentum(Optimizer):
    """SGD with classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.momentum = float(momentum)
        self._velocity: dict[str, np.ndarray] = {}

    def update(self, params, grads, rows=None):
        for name, grad in grads.items():
            param = params[name]
            velocity = self._state(self._velocity, name, param)
            if rows is not None and name in rows:
                idx, grad = _distinct_rows(rows[name], grad)
                velocity[idx] = step = self.momentum * velocity[idx] + grad
                param[idx] -= self.learning_rate * step
            else:
                velocity *= self.momentum
                velocity += grad
                param -= self.learning_rate * velocity

    def reset(self) -> None:
        self._velocity.clear()


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction.

    For sparse updates the step counter is global (not per row), which is the
    usual "dense step count" treatment and is adequate for the small models
    trained here.
    """

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        super().__init__(learning_rate)
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError("beta1 and beta2 must be in [0, 1)")
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self._first: dict[str, np.ndarray] = {}
        self._second: dict[str, np.ndarray] = {}
        self._step = 0

    def update(self, params, grads, rows=None):
        self._step += 1
        correction1 = 1.0 - self.beta1**self._step
        correction2 = 1.0 - self.beta2**self._step
        for name, grad in grads.items():
            param = params[name]
            first = self._state(self._first, name, param)
            second = self._state(self._second, name, param)
            if rows is not None and name in rows:
                idx, grad = _distinct_rows(rows[name], grad)
                first[idx] = m = self.beta1 * first[idx] + (1 - self.beta1) * grad
                second[idx] = v = self.beta2 * second[idx] + (1 - self.beta2) * grad * grad
                param[idx] -= self.learning_rate * (m / correction1) / (
                    np.sqrt(v / correction2) + self.epsilon
                )
            else:
                first *= self.beta1
                first += (1 - self.beta1) * grad
                second *= self.beta2
                second += (1 - self.beta2) * grad * grad
                m_hat = first / correction1
                v_hat = second / correction2
                param -= self.learning_rate * m_hat / (np.sqrt(v_hat) + self.epsilon)

    def reset(self) -> None:
        self._first.clear()
        self._second.clear()
        self._step = 0

"""Tests for the NumPy optimizers (dense and sparse row updates)."""

import numpy as np
import pytest

from repro.optim import SGD, Adam, Momentum


def quadratic_grad(x):
    """Gradient of 0.5 * ||x - 3||²."""
    return x - 3.0


@pytest.mark.parametrize(
    "optimizer",
    [SGD(0.1), Momentum(0.05, momentum=0.8), Adam(0.2)],
    ids=["sgd", "momentum", "adam"],
)
def test_converges_on_quadratic(optimizer):
    params = {"x": np.zeros(4)}
    for _ in range(300):
        optimizer.update(params, {"x": quadratic_grad(params["x"])})
    assert np.allclose(params["x"], 3.0, atol=1e-2)


def test_sgd_single_step_value():
    params = {"x": np.array([1.0, 2.0])}
    SGD(0.5).update(params, {"x": np.array([2.0, -2.0])})
    assert np.allclose(params["x"], [0.0, 3.0])


def test_sparse_update_only_touches_given_rows():
    params = {"emb": np.ones((5, 3))}
    grads = {"emb": np.full((2, 3), 2.0)}
    rows = {"emb": np.array([1, 3])}
    SGD(0.5).update(params, grads, rows)
    assert np.allclose(params["emb"][[1, 3]], 0.0)
    assert np.allclose(params["emb"][[0, 2, 4]], 1.0)


def test_sparse_update_with_duplicate_rows_accumulates():
    params = {"emb": np.zeros((2, 1))}
    grads = {"emb": np.array([[1.0], [1.0]])}
    rows = {"emb": np.array([0, 0])}
    SGD(1.0).update(params, grads, rows)
    assert params["emb"][0, 0] == pytest.approx(-2.0)  # np.subtract.at accumulates


def test_momentum_accumulates_velocity():
    params = {"x": np.array([0.0])}
    optimizer = Momentum(0.1, momentum=0.9)
    optimizer.update(params, {"x": np.array([1.0])})
    first_step = -params["x"][0]
    optimizer.update(params, {"x": np.array([1.0])})
    second_step = -params["x"][0] - first_step
    assert second_step > first_step  # velocity builds up


def test_adam_reset_clears_state():
    optimizer = Adam(0.1)
    params = {"x": np.array([0.0])}
    optimizer.update(params, {"x": np.array([1.0])})
    optimizer.reset()
    assert optimizer._step == 0
    assert optimizer._first == {}


def test_adam_sparse_and_dense_mix():
    optimizer = Adam(0.05)
    params = {"emb": np.zeros((4, 2)), "w": np.zeros(2)}
    for _ in range(200):
        grads = {"emb": (params["emb"][[0, 2]] - 1.0), "w": params["w"] - 2.0}
        optimizer.update(params, grads, rows={"emb": np.array([0, 2])})
    assert np.allclose(params["emb"][[0, 2]], 1.0, atol=0.05)
    assert np.allclose(params["emb"][[1, 3]], 0.0)
    assert np.allclose(params["w"], 2.0, atol=0.05)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_invalid_learning_rate_rejected(bad):
    with pytest.raises(ValueError):
        SGD(bad)


def test_invalid_momentum_rejected():
    with pytest.raises(ValueError):
        Momentum(0.1, momentum=1.5)


def test_invalid_adam_betas_rejected():
    with pytest.raises(ValueError):
        Adam(0.1, beta1=1.0)


@pytest.mark.parametrize(
    "make", [lambda: Adam(0.1), lambda: Momentum(0.1, momentum=0.9)], ids=["adam", "momentum"]
)
def test_duplicate_rows_equal_one_update_with_summed_gradient(make):
    start = np.array([[0.5, -1.0], [2.0, 3.0]])
    duplicated, summed = {"emb": start.copy()}, {"emb": start.copy()}
    dup_opt, sum_opt = make(), make()
    for step in range(3):
        g1 = np.array([[0.3 + step, -0.2]])
        g2 = np.array([[0.1, 0.7 * step]])
        dup_opt.update(duplicated, {"emb": np.vstack([g1, g2])}, {"emb": np.array([0, 0])})
        sum_opt.update(summed, {"emb": g1 + g2}, {"emb": np.array([0])})
        assert np.array_equal(duplicated["emb"], summed["emb"])
    assert np.array_equal(duplicated["emb"][1], start[1])


def test_unsorted_distinct_rows_update_like_sorted_rows():
    grads = np.array([[1.0], [-2.0], [0.5]])
    shuffled, ordered = {"emb": np.ones((4, 1))}, {"emb": np.ones((4, 1))}
    Adam(0.1).update(shuffled, {"emb": grads}, {"emb": np.array([3, 0, 2])})
    Adam(0.1).update(ordered, {"emb": grads[[1, 2, 0]]}, {"emb": np.array([0, 2, 3])})
    assert np.array_equal(shuffled["emb"], ordered["emb"])


def test_adam_state_is_allocated_once_per_shape():
    optimizer = Adam(0.1)
    params = {"emb": np.zeros((3, 2))}
    optimizer.update(params, {"emb": np.ones((1, 2))}, {"emb": np.array([1])})
    first = optimizer._first["emb"]
    optimizer.update(params, {"emb": np.ones((1, 2))}, {"emb": np.array([2])})
    assert optimizer._first["emb"] is first
    params = {"emb": np.zeros((5, 2))}
    optimizer.update(params, {"emb": np.ones((1, 2))}, {"emb": np.array([4])})
    assert optimizer._first["emb"].shape == (5, 2)

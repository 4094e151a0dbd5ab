"""Tests for the unigram negative sampler."""

import numpy as np
import pytest

from repro.nn import UnigramNegativeSampler


def test_probabilities_follow_smoothed_counts():
    sampler = UnigramNegativeSampler(np.array([1.0, 16.0]), power=0.75, rng=0)
    expected = np.array([1.0, 8.0])
    expected = expected / expected.sum()
    assert np.allclose(sampler.probabilities, expected)


def test_zero_count_nodes_never_sampled():
    sampler = UnigramNegativeSampler(np.array([0.0, 5.0, 0.0, 5.0]), rng=0)
    draws = sampler.sample(2000)
    assert set(np.unique(draws)) <= {1, 3}


def test_all_zero_counts_fall_back_to_uniform():
    sampler = UnigramNegativeSampler(np.zeros(4), rng=0)
    draws = sampler.sample(4000)
    counts = np.bincount(draws, minlength=4)
    assert counts.min() > 500  # roughly uniform


def test_sample_shape():
    sampler = UnigramNegativeSampler(np.ones(10), rng=0)
    assert sampler.sample((3, 5)).shape == (3, 5)
    assert sampler.num_nodes == 10


def test_empirical_frequencies_match_probabilities():
    counts = np.array([1.0, 2.0, 4.0, 8.0])
    sampler = UnigramNegativeSampler(counts, power=1.0, rng=3)
    draws = sampler.sample(20000)
    freq = np.bincount(draws, minlength=4) / 20000
    assert np.allclose(freq, counts / counts.sum(), atol=0.02)


@pytest.mark.parametrize("bad", [np.array([]), np.array([[1.0]]), np.array([-1.0, 2.0])])
def test_invalid_counts_rejected(bad):
    with pytest.raises(ValueError):
        UnigramNegativeSampler(bad)


class _FixedDraws:
    """Stands in for the sampler's generator and returns fixed uniform draws."""

    def __init__(self, draws):
        self.draws = np.asarray(draws, dtype=np.float64)

    def random(self, size=None):
        return self.draws.reshape(size)


@pytest.mark.parametrize(
    "counts, last",
    [(np.ones(7), 6), (np.array([3.0, 5.0, 0.0, 0.0]), 1), (np.array([2.0, 0.0, 9.0]), 2)],
)
def test_draw_just_below_one_stays_in_range(counts, last):
    sampler = UnigramNegativeSampler(counts, rng=0)
    below_one = np.nextafter(1.0, 0.0)
    sampler.rng = _FixedDraws([0.0, 0.5, below_one])
    draws = sampler.sample(3)
    assert draws[-1] == last
    assert draws.max() < sampler.num_nodes
    assert sampler.probabilities[draws].min() > 0


def test_clamp_keeps_every_in_range_draw():
    rng = np.random.default_rng(4)
    counts = rng.integers(0, 5, size=50).astype(float)
    sampler = UnigramNegativeSampler(counts, rng=0)
    draws = np.random.default_rng(1).random(5000)
    sampler.rng = _FixedDraws(draws)
    expected = np.searchsorted(np.cumsum(sampler.probabilities), draws, side="right")
    assert np.array_equal(sampler.sample(5000), expected)

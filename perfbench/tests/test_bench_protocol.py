"""The percentile rule: a tail only with ten samples beyond it."""

import numpy as np
import pytest

from benchlib.protocol import (BenchmarkError, percentile,
                               required_percentile, samples_beyond)


def test_samples_beyond_counts_ranks_above_the_percentile():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(99, 90) == 9
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    assert samples_beyond(20, 50) == 10


@pytest.mark.parametrize("count,q,supported", [
    (100, 90, True), (99, 90, False), (1000, 99, True), (999, 99, False),
    (20, 50, True), (19, 50, False)])
def test_percentile_reported_only_with_ten_samples_beyond(count, q,
                                                           supported):
    samples = list(np.random.default_rng(0).permutation(count) * 1.5)
    value = percentile(samples, q)
    if supported:
        assert value == pytest.approx(np.percentile(samples, q))
    else:
        assert value is None


def test_required_percentile_raises_when_unsupported():
    with pytest.raises(BenchmarkError, match="p90 needs 10 samples"):
        required_percentile(list(range(50)), 90, "step_tail_ms")
    assert required_percentile(list(range(101)), 90, "x") == \
        pytest.approx(90.0)


import itertools

import numpy as np
import pytest

from cpls.experiments import QuantileBox, quantile_box
from cpls.simulate import GridSpec, PathSample


@pytest.fixture
def toy_grid():
    return GridSpec(n_steps=4, dt=0.5, drop_first=0)


def make_sample(grid: GridSpec, x_rows, y_rows) -> PathSample:
    x = np.asarray(x_rows, dtype=float)
    y = np.asarray(y_rows, dtype=float)
    return PathSample(grid, x, y)


@pytest.fixture
def small_sample():
    """A tiny deterministic sample with values inside [0, 1] for trig bases."""
    grid = GridSpec(n_steps=4, dt=0.5, drop_first=0)
    rng = np.random.default_rng(7)
    x = 0.1 + 0.8 * rng.random((3, 5))
    y = 0.1 + 0.8 * rng.random((3, 5))
    return make_sample(grid, x, y)


def flaky_quantile_box(fail_call):
    """``quantile_box`` that returns a degenerate box on its ``fail_call``-th call."""
    calls = itertools.count(1)

    def box(sample):
        if next(calls) == fail_call:
            return QuantileBox(0.0, 0.0, 0.0, 1.0)  # raises ValueError
        return quantile_box(sample)

    return box


def quantile_box_failing_on(first_x):
    """``quantile_box`` that returns a degenerate box for a sample whose path 0 is ``first_x``.

    Path 0 of a repetition's sample is the same for every N, so each N of
    that repetition fails alike, whatever the order the samples come in.
    """

    def box(sample):
        if np.array_equal(sample.x[0], first_x):
            return QuantileBox(0.0, 0.0, 0.0, 1.0)  # raises ValueError
        return quantile_box(sample)

    return box

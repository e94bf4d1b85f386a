"""Draws from a simulation DGP at one fixed covariate value, for Monte-Carlo
checks of conditional means. Only the tests need them."""

import numpy as np

from cqcbench.simlab import _draw_at


def draw_given_x(spec, x, size: int, seed: int):
    """Draw (y, a) pairs conditional on a fixed covariate value."""
    xs = np.tile(np.atleast_1d(np.asarray(x, dtype=float)), (size, 1))
    return _draw_at(spec, xs, np.random.default_rng(seed))

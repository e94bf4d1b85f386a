"""Reference implementations for the isotonic projection tests.

``dp_isotonic_fit`` is an independent brute-force oracle: a dynamic program
over a fixed value grid, where position l takes value grid[g] and the best
nondecreasing prefix cost is

    best[l][g] = (v[l] - grid[g])^2 + min_{g' <= g} best[l-1][g'].

When the grid contains the exact optimum's values (block means), the DP
recovers the exact projection; for integer inputs in {-2..2} with blocks of
at most five elements, every block mean is a multiple of 1/60, so a 1/60-step
grid over [-2, 2] is exact.

``numpy_stack_pava`` is the pool-adjacent-violators stack on numpy scalars
and arrays. The library's stack runs on Python floats; it must reproduce this
one byte for byte.

``per_row_inversion`` is the inversion step one profile at a time: project the
row, take the first grid index of smallest |projected value|. The library
projects and inverts the whole (m, p) table at once; it must reproduce this
one byte for byte.
"""

import numpy as np

EXACT_GRID = np.linspace(-2.0, 2.0, 241)  # step 1/60


def dp_isotonic_fit(values, grid=EXACT_GRID) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    n_grid = grid.size
    prev = (values[0] - grid) ** 2
    backptr = np.zeros((values.size, n_grid), dtype=np.intp)
    for level in range(1, values.size):
        run_min = np.minimum.accumulate(prev)
        hits = np.where(prev <= run_min, np.arange(n_grid), -1)
        run_idx = np.maximum.accumulate(hits)
        backptr[level] = run_idx
        prev = (values[level] - grid) ** 2 + run_min
    g = int(np.argmin(prev))
    out = np.empty(values.size)
    out[-1] = grid[g]
    for level in range(values.size - 1, 0, -1):
        g = int(backptr[level][g])
        out[level - 1] = grid[g]
    return out


def numpy_stack_pava(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    means = np.empty(v.size)
    counts = np.empty(v.size, dtype=np.intp)
    top = -1
    for val in v:
        top += 1
        means[top] = val
        counts[top] = 1
        while top > 0 and means[top - 1] > means[top]:
            merged = counts[top - 1] + counts[top]
            means[top - 1] = (
                counts[top - 1] * means[top - 1] + counts[top] * means[top]
            ) / merged
            counts[top - 1] = merged
            top -= 1
    return np.repeat(means[: top + 1], counts[: top + 1])


def per_row_inversion(profiles, grid):
    grid = np.asarray(grid, dtype=float)
    indices = np.empty(len(profiles), dtype=np.intp)
    residuals = np.empty(len(profiles))
    for q, row in enumerate(profiles):
        projected = numpy_stack_pava(row)
        indices[q] = np.argmin(np.abs(projected))
        residuals[q] = abs(projected[indices[q]])
    return grid[indices], indices, residuals

"""Reference implementations for the blocked kernel-distance tests.

``full_tensor_sq_dists`` builds the whole (m, n, d) difference tensor and
reduces it over d in one call. The library fills the same (m, n) matrix one
block of query rows at a time; it must reproduce this one byte for byte.
``full_tensor_kernel_matrix`` applies the kernel formulas out of place; the
library's in-place kernels must match it byte for byte too.
``masked_normalise_rows`` is the row normalisation that divides with a
``where=`` mask, leaving rows without kernel mass untouched.
``retry_row`` applies the retry policy to one query at a time from these
two; every row of the library's batched retry must match it byte for byte.
"""

import numpy as np

from cqcbench.kernels import MAX_DOUBLINGS, MIN_SUPPORT, DegenerateMassError, KernelSpec


def full_tensor_sq_dists(queries, train) -> np.ndarray:
    diff = queries[:, None, :] - train[None, :, :]
    return np.einsum("mnd,mnd->mn", diff, diff)


def full_tensor_kernel_matrix(spec, queries, train) -> np.ndarray:
    sq = full_tensor_sq_dists(queries, train)
    if spec.family == "box":
        return (sq <= spec.bandwidth**2).astype(float)
    return np.exp(-sq / (2.0 * spec.bandwidth**2))


def masked_normalise_rows(km):
    totals = km.sum(axis=1)
    bad = totals <= 0.0
    np.divide(km, totals[:, None], out=km, where=~bad[:, None])
    return bad


def retry_row(spec, x, train_xs) -> np.ndarray:
    """One query's NW weights: the first bandwidth accepts any mass; each doubling
    after it needs ``min(MIN_SUPPORT, n)`` points with mass."""
    query = np.asarray(x, dtype=float).reshape(1, -1)
    train = np.asarray(train_xs, dtype=float)
    train = train.reshape(train.shape[0], -1)
    target = min(MIN_SUPPORT, train.shape[0])
    for doublings in range(MAX_DOUBLINGS + 1):
        widened = KernelSpec(spec.family, spec.bandwidth * 2.0**doublings)
        row = full_tensor_kernel_matrix(widened, query, train)
        if not masked_normalise_rows(row)[0] and (doublings == 0 or np.count_nonzero(row) >= target):
            return row[0]
    raise DegenerateMassError(f"no kernel mass at query point {query[0]!r}")

"""Reference implementations for the blocked kernel-distance tests.

``full_tensor_sq_dists`` builds the whole (m, n, d) difference tensor and
reduces it over d in one call. The library fills the same (m, n) matrix one
block of query rows at a time; it must reproduce this one byte for byte.
``full_tensor_kernel_matrix`` applies the kernel formulas out of place; the
library's in-place kernels must match it byte for byte too.
"""

import numpy as np


def full_tensor_sq_dists(queries, train) -> np.ndarray:
    diff = queries[:, None, :] - train[None, :, :]
    return np.einsum("mnd,mnd->mn", diff, diff)


def full_tensor_kernel_matrix(spec, queries, train) -> np.ndarray:
    sq = full_tensor_sq_dists(queries, train)
    if spec.family == "box":
        return (sq <= spec.bandwidth**2).astype(float)
    return np.exp(-sq / (2.0 * spec.bandwidth**2))

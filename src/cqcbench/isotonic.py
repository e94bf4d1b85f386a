"""Exact nondecreasing L2 projection via pool-adjacent-violators.

The projection is the unique minimiser of the squared Euclidean distance to
the input over all nondecreasing sequences. Pooling is exact (block means),
not an iterative approximation, so block means -- and hence the global mean --
are preserved to float precision.

``scipy.optimize.isotonic_regression`` is not used: importing
``scipy.optimize`` adds about 23 MB of resident memory and 0.25 s of import
time (scipy 1.17, x86-64), and projecting its output again does not always
return the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IsotonicResult:
    projected: np.ndarray
    input_length: int  # the length p of each projected sequence


def pava_project(values) -> IsotonicResult:
    """Project a sequence, or each row of an (m, p) table, onto nondecreasing sequences.

    Left-to-right stack implementation: each new value starts a block, and
    adjacent blocks merge (weighted mean) while they violate monotonicity.
    Ties produce equal-valued blocks. The stack holds Python floats and ints:
    their arithmetic is the same IEEE double arithmetic as numpy's float64,
    and scalar access to a list is several times cheaper than to an array.
    The first merge is always of two adjacent raw values, so a row with no
    adjacent descent (NaN, ties, signed zeros) never merges and is copied.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise ValueError("input must be a nonempty sequence or an (m, p) table of rows")
    projected = v.reshape(-1, v.shape[-1]).copy()
    for i in np.flatnonzero(np.any(projected[:, :-1] > projected[:, 1:], axis=1)):
        # Stack blocks are means[:top + 1]; (m, c) is the new block, merged
        # into the stack top while the two violate monotonicity.
        means = [0.0] * v.shape[-1]
        counts = [0] * v.shape[-1]
        top = -1
        for m in projected[i].tolist():
            c = 1
            while top >= 0 and means[top] > m:
                c1 = counts[top]
                merged = c1 + c
                m = (c1 * means[top] + c * m) / merged
                c = merged
                top -= 1
            top += 1
            means[top] = m
            counts[top] = c
        projected[i] = np.repeat(means[: top + 1], counts[: top + 1])
    return IsotonicResult(projected=projected.reshape(v.shape), input_length=v.shape[-1])

"""Kernel functions and Nadaraya-Watson smoother weights.

Every regression in the package (propensity score, per-arm conditional CDFs,
the outer pseudo-outcome smoother) runs through the weight constructors in
this module, so the degenerate-mass retry policy lives here as well.

Distances are unscaled Euclidean norms on the raw covariates; callers that
want standardised covariates must pre-scale.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

KERNEL_FAMILIES = ("box", "gaussian")

# Retry policy: a query with zero kernel mass doubles the bandwidth up to
# MAX_DOUBLINGS times, accepting the first bandwidth where at least
# min(MIN_SUPPORT, n) candidate points carry positive weight.
MAX_DOUBLINGS = 10
MIN_SUPPORT = 5

# Float64 differences per row block of ``_sq_dist_matrix`` (256 KiB, an
# L2-sized working set).
_BLOCK_VALUES = 1 << 15

# Input rows per strip of ``transpose_strips``: a strip is read row by row and
# written as a band of short runs, one per output row. On 2000 x 2000 and
# 2500 x 2500, 128 rows took about half the time of ``ascontiguousarray(m.T)``.
_STRIP_ROWS = 128


class DegenerateMassError(RuntimeError):
    """No kernel mass at a query point, even after the retry policy."""


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth (box radius, or Gaussian length-scale)."""

    family: str
    bandwidth: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        try:
            square = float(self.bandwidth) ** 2
        except OverflowError:  # above sqrt(max float)
            square = math.inf
        if not (self.bandwidth > 0 and 0 < square < math.inf):
            raise ValueError("bandwidth must be positive, with a nonzero finite square")


def as_rows(xs, dim=None) -> np.ndarray:
    """Covariates as an (n, d) float array; a scalar or a vector is one covariate.
    With ``dim``, d must equal it and every row must be finite: the one check of
    a covariate array that enters a nuisance or a kernel as queries."""
    rows = np.asarray(xs, dtype=float)
    if rows.ndim > 2:
        raise ValueError("covariates must form an (n, d) array")
    rows = rows.reshape(-1, 1) if rows.ndim < 2 else rows
    if dim is not None:
        if rows.shape[1] != dim:
            raise ValueError(f"dimension mismatch: {rows.shape[1]} vs {dim}")
        finite = np.isfinite(rows)
        if not finite.all():
            raise ValueError(f"covariate row {np.argmin(finite.all(axis=1))} is not finite")
    return rows


def _kernel_from_sq(spec: KernelSpec, sq_dists: np.ndarray) -> np.ndarray:
    # Overwrites ``sq_dists`` with the kernel values. (-a)/b == a/(-b) exactly,
    # so dividing by -2h^2 gives the bits of exp(-a / (2h^2)). A tiny h
    # overflows the quotient to -inf, whose exp 0 is zero mass for the retry.
    if spec.family == "box":
        return np.less_equal(sq_dists, spec.bandwidth**2, out=sq_dists)
    with np.errstate(over="ignore"):
        np.divide(sq_dists, -2.0 * spec.bandwidth**2, out=sq_dists)
    return np.exp(sq_dists, out=sq_dists)


def _sq_dist_matrix(queries: np.ndarray, train: np.ndarray) -> np.ndarray:
    # (m, n) squared distances from explicit differences, filled one block of
    # query rows at a time. Blocking keeps memory O(m*n) instead of O(m*n*d)
    # and a block's differences in cache. The Gram form |q|^2 + |t|^2 - 2 q.t
    # is faster at large d but moves the low bits of every distance, so the
    # exact-difference form is kept.
    out = np.empty((queries.shape[0], train.shape[0]))
    rows = max(1, _BLOCK_VALUES // max(1, train.size))
    for s in range(0, queries.shape[0], rows):
        diff = queries[s : s + rows, None, :] - train[None, :, :]
        np.einsum("mnd,mnd->mn", diff, diff, out=out[s : s + rows])
    return out


def kernel_matrix(spec: KernelSpec, queries, train) -> np.ndarray:
    """Kernel evaluations for every (query, training point) pair."""
    t = as_rows(train)
    return _kernel_from_sq(spec, _sq_dist_matrix(as_rows(queries, t.shape[1]), t))


def transpose_strips(m: np.ndarray) -> np.ndarray:
    """``m.T`` as a C-ordered copy, written one strip of ``m``'s rows at a time."""
    out = np.empty((m.shape[1], m.shape[0]), dtype=m.dtype)
    for s in range(0, m.shape[0], _STRIP_ROWS):
        out[:, s : s + _STRIP_ROWS] = m[s : s + _STRIP_ROWS].T
    return out


def _normalise_rows(km: np.ndarray) -> np.ndarray:
    # Divides each row by its sum in place and returns the mask of rows with no
    # kernel mass (empty box ball, or total underflow). Those rows are divided
    # by 1, which leaves their zeros as they are.
    totals = km.sum(axis=1)
    bad = totals <= 0.0
    np.divide(km, np.where(bad, 1.0, totals)[:, None], out=km)
    return bad


def nw_weight_matrix(spec: KernelSpec, queries, train_xs, km=None) -> np.ndarray:
    """Row-normalised NW weight matrix with the retry policy applied.

    The rows with no kernel mass are widened together: each doubling of the
    bandwidth, up to ``MAX_DOUBLINGS``, accepts the rows where at least
    ``min(MIN_SUPPORT, n)`` points carry mass; if any row is still short, this
    raises ``DegenerateMassError`` naming the first. ``km``, if given, is
    ``kernel_matrix(spec, queries, train_xs)`` computed by the caller, or a
    column range of it: any matrix whose rows are contiguous. It is normalised
    in place and returned.
    """
    q = as_rows(queries)
    train = as_rows(train_xs)
    if km is None:
        km = kernel_matrix(spec, q, train)
    elif km.shape != (q.shape[0], train.shape[0]) or km.strides[1] != km.itemsize:
        raise ValueError("kernel matrix must have contiguous rows, (queries, training points)")
    retry = np.nonzero(_normalise_rows(km))[0]
    target = min(MIN_SUPPORT, train.shape[0])
    widened = spec
    for _ in range(MAX_DOUBLINGS):
        if retry.size == 0:
            return km
        widened = KernelSpec(widened.family, widened.bandwidth * 2.0)
        rows = kernel_matrix(widened, q[retry], train)
        done = ~_normalise_rows(rows) & (np.count_nonzero(rows, axis=1) >= target)
        km[retry[done]] = rows[done]
        retry = retry[~done]
    if retry.size:
        with np.printoptions(linewidth=sys.maxsize):  # one line at any d
            raise DegenerateMassError(f"no kernel mass at query point {q[retry[0]]!r} "
                                      f"(after {MAX_DOUBLINGS} bandwidth doublings)")
    return km


def resolve_weights(spec: KernelSpec, x, train_xs) -> np.ndarray:
    """Nadaraya-Watson weights of one query point: one row of ``nw_weight_matrix``."""
    return nw_weight_matrix(spec, as_rows(x).reshape(1, -1), train_xs)[0]

"""Kernel functions and Nadaraya-Watson smoother weights.

Every regression in the package (propensity score, per-arm conditional CDFs,
the outer pseudo-outcome smoother) runs through the weight constructors in
this module, so the degenerate-mass retry policy lives here as well.

Distances are unscaled Euclidean norms on the raw covariates; callers that
want standardised covariates must pre-scale.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KERNEL_FAMILIES = ("box", "gaussian")

# Retry policy: a query with zero kernel mass doubles the bandwidth up to
# MAX_DOUBLINGS times, accepting the first bandwidth where at least
# min(MIN_SUPPORT, n) candidate points carry positive weight.
MAX_DOUBLINGS = 10
MIN_SUPPORT = 5

_WEIGHT_SUM_TOL = 1e-12

# Float64 differences per row block of ``_sq_dist_matrix`` (256 KiB, an L2-sized
# working set).
_BLOCK_VALUES = 1 << 15


class DegenerateMassError(RuntimeError):
    """No kernel mass at a query point, even after the retry policy."""

    def __init__(self, x, detail: str = ""):
        self.x = np.asarray(x, dtype=float)
        msg = f"no kernel mass at query point {self.x!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth (box radius, or Gaussian length-scale)."""

    family: str
    bandwidth: float

    def __post_init__(self):
        if self.family not in KERNEL_FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if not self.bandwidth > 0:
            raise ValueError("bandwidth must be positive")

    def with_bandwidth(self, bandwidth: float) -> "KernelSpec":
        return KernelSpec(self.family, bandwidth)


@dataclass
class WeightVector:
    """Smoother weights for one query point.

    Non-degenerate weights are nonnegative and sum to one (within 1e-12).
    A degenerate vector is all zeros with ``degenerate=True``; the two states
    are mutually exclusive.
    """

    weights: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if np.any(self.weights < 0):
            raise ValueError("weights must be nonnegative")
        total = self.weights.sum()
        if self.degenerate:
            if total != 0.0:
                raise ValueError("degenerate weight vector must be all zero")
        elif abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {total!r}, expected 1")

    @property
    def norm1(self) -> float:
        return float(np.abs(self.weights).sum())

    @property
    def norm2(self) -> float:
        return float(np.sqrt((self.weights**2).sum()))

    @property
    def norm_inf(self) -> float:
        return float(np.abs(self.weights).max()) if self.weights.size else 0.0

    def __len__(self) -> int:
        return self.weights.size


def _as_query(x) -> np.ndarray:
    q = np.atleast_1d(np.asarray(x, dtype=float))
    if q.ndim != 1:
        raise ValueError("query point must be a single covariate vector")
    return q


def _as_train(xs) -> np.ndarray:
    t = np.asarray(xs, dtype=float)
    if t.ndim == 0:
        t = t.reshape(1, 1)
    elif t.ndim == 1:
        t = t.reshape(-1, 1)
    elif t.ndim != 2:
        raise ValueError("training covariates must form an (n, d) array")
    return t


def kernel_eval(spec: KernelSpec, x, x2) -> float:
    """Evaluate the kernel between two covariate vectors."""
    a = _as_query(x)
    b = _as_query(x2)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")
    sq = float(((a - b) ** 2).sum())
    return _kernel_from_sq(spec, np.array(sq)).item()


def _kernel_from_sq(spec: KernelSpec, sq_dists: np.ndarray) -> np.ndarray:
    # Overwrites ``sq_dists`` with the kernel values. (-a)/b == a/(-b) exactly,
    # so dividing by -2h^2 gives the bits of exp(-a / (2h^2)).
    if spec.family == "box":
        return np.less_equal(sq_dists, spec.bandwidth**2, out=sq_dists)
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
    q = _as_train(queries)
    t = _as_train(train)
    if q.shape[1] != t.shape[1]:
        raise ValueError(f"dimension mismatch: {q.shape[1]} vs {t.shape[1]}")
    return _kernel_from_sq(spec, _sq_dist_matrix(q, t))


def nw_weights(spec: KernelSpec, x, train_xs, mask=None) -> WeightVector:
    """Nadaraya-Watson weights of a query point against training points.

    Masked-out points get weight zero; the degenerate flag is set when the
    kernel mass is zero (empty box ball, or total underflow). Degeneracy is
    never an error here: policy is up to the caller.
    """
    train = _as_train(train_xs)
    if train.shape[0] == 0:
        raise ValueError("training set must be nonempty")
    row = kernel_matrix(spec, _as_query(x).reshape(1, -1), train)[0]
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        if mask.shape[0] != train.shape[0]:
            raise ValueError("mask length must match training set")
        row = row * mask
    total = row.sum()
    if total <= 0.0:
        return WeightVector(np.zeros_like(row), degenerate=True)
    return WeightVector(row / total)


def resolve_weights(
    spec: KernelSpec, x, train_xs, mask=None, strict: bool = False
) -> WeightVector:
    """``nw_weights`` with the degenerate-mass retry policy applied.

    Default mode doubles the bandwidth up to ``MAX_DOUBLINGS`` times until at
    least ``min(MIN_SUPPORT, n)`` points carry positive mass, then raises;
    strict mode raises immediately on a degenerate query.
    """
    wv = nw_weights(spec, x, train_xs, mask)
    if not wv.degenerate:
        return wv
    if strict:
        raise DegenerateMassError(x, "strict mode")
    n_candidates = len(wv) if mask is None else int(np.asarray(mask).sum())
    target = min(MIN_SUPPORT, n_candidates)
    widened = spec
    for _ in range(MAX_DOUBLINGS):
        widened = widened.with_bandwidth(widened.bandwidth * 2.0)
        wv = nw_weights(widened, x, train_xs, mask)
        if not wv.degenerate and np.count_nonzero(wv.weights) >= target:
            return wv
    raise DegenerateMassError(x, f"after {MAX_DOUBLINGS} bandwidth doublings")


def nw_regress(spec: KernelSpec, x, train_xs, targets, mask=None, strict: bool = False) -> float:
    """NW regression estimate at a query point (convex combination of targets)."""
    targets = np.asarray(targets, dtype=float)
    train = _as_train(train_xs)
    if targets.shape[0] != train.shape[0]:
        raise ValueError("targets length must match training set")
    wv = resolve_weights(spec, x, train, mask, strict=strict)
    return float(wv.weights @ targets)


def nw_weight_matrix(
    spec: KernelSpec, queries, train_xs, mask=None, strict: bool = False
) -> np.ndarray:
    """Row-normalised NW weight matrix with the retry policy applied per row."""
    q = _as_train(queries)
    train = _as_train(train_xs)
    km = kernel_matrix(spec, q, train)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool)
        km *= mask
    totals = km.sum(axis=1)
    bad = totals <= 0.0
    np.divide(km, totals[:, None], out=km, where=~bad[:, None])
    for i in np.nonzero(bad)[0]:
        km[i] = resolve_weights(spec, q[i], train, mask, strict=strict).weights
    return km

"""Dataset container, sample splitting, and nuisance parameter fits.

The nuisance parameters are the propensity score (probability of treatment
given covariates) and the per-arm conditional outcome CDFs. Both are fitted
with Nadaraya-Watson regression on the first data split and evaluated on the
second, so that estimation noise in the nuisances is independent of the rows
used for the downstream pseudo-outcome regression.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_rows, nw_weight_matrix, resolve_weights

_QUANTILE_SLACK = 1e-9


class SingleArmError(ValueError):
    """A fit that needs both treatment arms saw only one."""


def step_quantile(jumps: np.ndarray, cums: np.ndarray, alphas):
    """Generalised inverses of step CDFs given their jump points and cumulative mass.

    Row q of ``cums`` (nondecreasing mass at each of ``jumps``) is inverted at
    ``alphas[q]``; a single ``cums`` row is inverted at every level. Each
    answer is the smallest jump point whose cumulative mass reaches alpha; at
    alpha = 0 that is the smallest jump point. On a nondecreasing row the
    count of entries below alpha is ``searchsorted(side="left")``. A small
    slack absorbs float round-off in cumulative sums that should reach
    exactly one.
    """
    alphas = np.asarray(alphas, dtype=float)
    last = cums[..., -1]
    beyond = ~(alphas <= last + _QUANTILE_SLACK)  # NaN levels included
    if np.any(beyond):
        alpha, mass = np.broadcast_arrays(alphas, last)
        raise ValueError(f"alpha={alpha[beyond][0]} above attainable CDF mass {mass[beyond][0]}")
    pos = np.count_nonzero(cums < alphas[..., None], axis=-1)
    return jumps[np.minimum(pos, jumps.size - 1)]


def prefix_gather(weights: np.ndarray, points: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row sums of ``weights`` over the columns whose point is <= each of ``ys``.

    ``points`` (ascending) labels the columns of the (m, k) ``weights``; the
    result is the (m, len(ys)) table sum_k weights[:, k] * (points[k] <= ys[l]),
    computed as a running sum gathered at the last point <= each y. The running
    sum is taken in place: ``weights`` is overwritten.
    """
    last = np.searchsorted(points, ys, side="right") - 1
    if points.size == 0:  # e.g. a regression half without treated rows
        return np.zeros((weights.shape[0], last.size))
    table = np.cumsum(weights, axis=1, out=weights)[:, last]
    table[:, last < 0] = 0.0
    return table


@dataclass
class Dataset:
    """Observations (outcome, covariate vector, binary treatment).

    ``x`` is coerced to an (n, d) float array by ``kernels.as_rows``.
    """

    y: np.ndarray
    x: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        self.a = np.asarray(self.a)
        self.x = as_rows(self.x)
        if self.y.size == 0:
            raise ValueError("dataset must be nonempty")
        if not (self.y.size == self.x.shape[0] == self.a.shape[0]):
            raise ValueError("y, x, a must have equal length")
        if not np.isin(self.a, (0, 1)).all():
            raise ValueError("treatment indicator must be 0 or 1")
        self.a = self.a.astype(np.int64)

    @property
    def n(self) -> int:
        return self.y.size

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def arm_indices(self, arm: int) -> np.ndarray:
        return np.nonzero(self.a == arm)[0]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        return Dataset(self.y[idx], self.x[idx], self.a[idx])


@dataclass(frozen=True)
class SplitPlan:
    """Disjoint half/half index partition of a dataset."""

    indices_1: np.ndarray
    indices_2: np.ndarray

    def swapped(self) -> "SplitPlan":
        return SplitPlan(self.indices_2, self.indices_1)


def make_split(dataset: Dataset, seed: int) -> SplitPlan:
    """Uniformly random half/half partition, deterministic given the seed."""
    if dataset.n < 4:
        raise ValueError("dataset too small to split (need at least 4 rows)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    half = dataset.n // 2
    return SplitPlan(
        indices_1=np.sort(perm[:half]),
        indices_2=np.sort(perm[half:]),
    )


class PropensityEvaluator:
    """NW regression of the treatment indicator, clamped into [xi, 1 - xi]."""

    def __init__(self, kernel: KernelSpec, xs, treatments, xi: float):
        if not 0.0 < xi <= 0.5:
            raise ValueError("xi must lie in (0, 0.5]")
        self.kernel = kernel
        self.xs = np.asarray(xs, dtype=float)
        self.treatments = np.asarray(treatments, dtype=float)
        self.xi = xi
        if not (0 < self.treatments.sum() < self.treatments.size):
            raise SingleArmError("propensity fit needs both treatment arms")

    def many(self, xs, km=None) -> np.ndarray:
        """Clamped propensities at ``xs``. ``km``, if given, is the caller's
        unnormalised kernel matrix between ``xs`` and the training rows; it is
        normalised in place."""
        w = nw_weight_matrix(self.kernel, xs, self.xs, km)
        return np.clip(w @ self.treatments, self.xi, 1.0 - self.xi)


class CcdfEvaluator:
    """Arm-masked NW step CDF of the outcome given covariates.

    For a fixed arm and covariate value this is a right-continuous step
    function of y jumping at the arm's observed outcomes, with weights
    normalised over that arm only.
    """

    def __init__(self, kernel: KernelSpec, xs, ys, arms):
        self.kernel = kernel
        self.xs = np.asarray(xs, dtype=float)
        ys, arms = np.asarray(ys, dtype=float), np.asarray(arms)
        self._arm_rows = {}
        for arm in (0, 1):
            idx = np.nonzero(arms == arm)[0]
            if idx.size == 0:
                raise SingleArmError(f"no observations in arm {arm}")
            order = np.argsort(ys[idx], kind="stable")
            self._arm_rows[arm] = (idx[order], ys[idx][order])

    def arm_outcomes(self, arm: int) -> np.ndarray:
        """Outcomes of the given arm, ascending (the CDF's jump points)."""
        return self._arm_rows[arm][1]

    def arm_rows(self, arm: int) -> np.ndarray:
        """Training-row indices of the given arm, in jump-point order."""
        return self._arm_rows[arm][0]

    def weight_row(self, arm: int, x) -> np.ndarray:
        """Policy-resolved weights over the arm's rows, in jump-point order."""
        idx, _ = self._arm_rows[arm]
        return resolve_weights(self.kernel, x, self.xs[idx])

    def weight_matrix(self, arm: int, queries, km=None) -> np.ndarray:
        idx, _ = self._arm_rows[arm]
        return nw_weight_matrix(self.kernel, queries, self.xs[idx], km)

    def cdf_table(self, arm: int, ys, queries) -> np.ndarray:
        """CDF values F(ys[l] | queries[j], arm) as a (len(queries), len(ys)) table."""
        ys = np.asarray(ys, dtype=float).reshape(-1)
        _, jumps = self._arm_rows[arm]
        table = prefix_gather(self.weight_matrix(arm, queries), jumps, ys)
        return np.clip(table, 0.0, 1.0, out=table)

    def mixer(self, arm: int, queries, km=None):
        """``mix(u, ys)``: the unclipped ``u @ cdf_table(arm, ys, queries)``.

        The arm's weight matrix at ``queries`` is computed once and kept, and
        each call is the prefix gather of ``u @ weights``, so its inner size is
        the arm's row count rather than ``len(ys)``. ``km``, if given, is the
        caller's unnormalised kernel matrix between ``queries`` and the arm's
        rows in ``arm_rows`` order; it becomes the weight matrix in place.
        """
        _, jumps = self._arm_rows[arm]
        weights = self.weight_matrix(arm, queries, km)

        def mix(u, ys):
            return prefix_gather(u @ weights, jumps, np.asarray(ys, dtype=float).reshape(-1))

        return mix

    def quantile(self, arm: int, alphas, x):
        """Generalised inverse inf{y : F(y) >= alpha} over the jump points at
        every level in ``alphas``, from one weight row at ``x``."""
        alphas = np.asarray(alphas, dtype=float)
        if not np.all((alphas >= 0.0) & (alphas <= 1.0)):
            raise ValueError("alpha must lie in [0, 1]")
        _, jumps = self._arm_rows[arm]
        return step_quantile(jumps, np.cumsum(self.weight_row(arm, x)), alphas)


def fit_propensity(dataset: Dataset, kernel: KernelSpec, xi: float = 0.05) -> PropensityEvaluator:
    return PropensityEvaluator(kernel, dataset.x, dataset.a, xi)


def fit_ccdf(dataset: Dataset, kernel: KernelSpec) -> CcdfEvaluator:
    return CcdfEvaluator(kernel, dataset.x, dataset.y, dataset.a)


@dataclass
class NuisanceModel:
    """Fitted propensity and CCDF evaluators."""

    propensity: PropensityEvaluator
    ccdf: CcdfEvaluator


def fit_nuisance(dataset: Dataset, kernel: KernelSpec, xi: float = 0.05) -> NuisanceModel:
    """Fit both nuisances on one split of the data."""
    return NuisanceModel(
        propensity=fit_propensity(dataset, kernel, xi),
        ccdf=fit_ccdf(dataset, kernel),
    )

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

from .kernels import KernelSpec, as_rows, kernel_matrix, nw_weight_matrix, resolve_weights

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


def _step_gather(cums: np.ndarray, points: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # The (m, len(ys)) table of the running sums ``cums``, whose columns the
    # ascending ``points`` label, at the last point <= each y; 0 before the first.
    last = np.searchsorted(points, ys, side="right") - 1
    table = cums[:, last]
    table[:, last < 0] = 0.0
    return table


def prefix_gather(weights: np.ndarray, points: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Row sums of ``weights`` over the columns whose point is <= each of ``ys``.

    ``points`` (ascending) labels the columns of the (m, k) ``weights``; the
    result is the (m, len(ys)) table sum_k weights[:, k] * (points[k] <= ys[l]),
    computed as a running sum gathered at the last point <= each y. The running
    sum is taken in place: ``weights`` is overwritten.
    """
    if points.size == 0:  # e.g. a regression half without treated rows
        return np.zeros((weights.shape[0], np.size(ys)))
    return _step_gather(np.cumsum(weights, axis=1, out=weights), points, ys)


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
        if not (np.isfinite(self.y).all() and np.isfinite(self.x).all()):
            raise ValueError("outcomes and covariates must be finite")
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


def arm_major(dataset: Dataset) -> np.ndarray:
    """Row order by arm, then outcome, ties in row order: arm 0's rows come
    first, each arm's in the order of its CDF's jump points."""
    return np.lexsort((dataset.y, dataset.a))


def make_split(dataset: Dataset, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniformly random half/half split: two sorted index arrays, deterministic given the seed."""
    if dataset.n < 4:
        raise ValueError("dataset too small to split (need at least 4 rows)")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(dataset.n)
    half = dataset.n // 2
    return np.sort(perm[:half]), np.sort(perm[half:])


class PropensityEvaluator:
    """NW regression of ``dataset``'s treatment indicator, clamped into [xi, 1 - xi]."""

    def __init__(self, kernel: KernelSpec, dataset: Dataset, xi: float = 0.05):
        if not 0.0 < xi <= 0.5:
            raise ValueError("xi must lie in (0, 0.5]")
        self.kernel = kernel
        self.xs = dataset.x
        self.treatments = dataset.a.astype(float)
        self.xi = xi
        if not (0 < self.treatments.sum() < self.treatments.size):
            raise SingleArmError("propensity fit needs both treatment arms")

    def many(self, xs, km=None) -> np.ndarray:
        """Clamped propensities at ``xs``: (km @ a) / (row sums of km), where
        ``km`` is the unnormalised kernel matrix between ``xs`` and the
        training rows, the caller's if given. ``km`` is only read. Rows
        without kernel mass take ``nw_weight_matrix``'s retry policy."""
        if km is None:
            km = kernel_matrix(self.kernel, xs, self.xs)
        totals = km.sum(axis=1)
        retry = np.nonzero(totals <= 0.0)[0]
        totals[retry] = 1.0
        pi = np.divide(km @ self.treatments, totals, out=totals)
        if retry.size:
            pi[retry] = nw_weight_matrix(self.kernel, as_rows(xs)[retry], self.xs) @ self.treatments
        return np.clip(pi, self.xi, 1.0 - self.xi, out=pi)


class CcdfEvaluator:
    """Arm-masked NW step CDF of the outcome given covariates.

    For a fixed arm and covariate value this is a right-continuous step
    function of y jumping at the arm's observed outcomes, with weights
    normalised over that arm only. The training rows are kept in
    ``arm_major`` order, so each arm's rows are one range of them.
    """

    def __init__(self, kernel: KernelSpec, dataset: Dataset):
        self.kernel = kernel
        order = arm_major(dataset)
        self.xs, self.ys = dataset.x[order], dataset.y[order]
        n0 = int(np.count_nonzero(dataset.a == 0))
        if n0 in (0, dataset.n):
            raise SingleArmError(f"no observations in arm {0 if n0 == 0 else 1}")
        self._arms = (slice(0, n0), slice(n0, None))

    def arm_outcomes(self, arm: int) -> np.ndarray:
        """Outcomes of the given arm, ascending (the CDF's jump points)."""
        return self.ys[self._arms[arm]]

    def weight_matrix(self, arm: int, queries, km=None) -> np.ndarray:
        return nw_weight_matrix(self.kernel, queries, self.xs[self._arms[arm]], km)

    def cdf_table(self, arm: int, ys, queries, cums=None) -> np.ndarray:
        """CDF values F(ys[l] | queries[j], arm) as a (len(queries), len(ys)) table.

        ``cums``, if given, is the arm's weight matrix at ``queries`` summed
        along each row, as ``plug_ins`` keeps arm 0's; the table is then a
        column gather of it, and no kernel is evaluated.
        """
        ys = np.asarray(ys, dtype=float).reshape(-1)
        if cums is None:
            cums = self.weight_matrix(arm, queries)
            np.cumsum(cums, axis=1, out=cums)
        table = _step_gather(cums, self.arm_outcomes(arm), ys)
        return np.clip(table, 0.0, 1.0, out=table)

    def plug_ins(self, queries, km=None):
        """``(mix, table)``: the DR plug-in CDFs at ``queries``, built once and kept.

        ``mix(u, ys)`` is the unclipped ``u @ cdf_table(1, ys, queries)``, the
        prefix gather of ``u @ weights`` over arm 1's weight matrix, so its
        inner size is arm 1's row count rather than ``len(ys)``. ``table(ys)``
        is ``cdf_table(0, ys, queries, cums)`` over arm 0's cumulative
        weights: a column gather, with no kernel evaluated. Both weight
        matrices are column ranges of ``km``, the unnormalised kernel matrix
        between ``queries`` and the training rows (the caller's if given),
        normalised and summed in place.
        """
        if km is None:
            km = kernel_matrix(self.kernel, queries, self.xs)
        weights1 = self.weight_matrix(1, queries, km[:, self._arms[1]])
        cums0 = self.weight_matrix(0, queries, km[:, self._arms[0]])
        np.cumsum(cums0, axis=1, out=cums0)

        def mix(u, ys):
            ys = np.asarray(ys, dtype=float).reshape(-1)
            return prefix_gather(u @ weights1, self.arm_outcomes(1), ys)

        return mix, lambda ys: self.cdf_table(0, ys, queries, cums0)

    def quantile(self, arm: int, alphas, x):
        """Generalised inverse inf{y : F(y) >= alpha} over the jump points at
        every level in ``alphas``, from one weight row at ``x``."""
        alphas = np.asarray(alphas, dtype=float)
        if not np.all((alphas >= 0.0) & (alphas <= 1.0)):
            raise ValueError("alpha must lie in [0, 1]")
        weights = resolve_weights(self.kernel, x, self.xs[self._arms[arm]])
        return step_quantile(self.arm_outcomes(arm), np.cumsum(weights), alphas)


@dataclass
class NuisanceModel:
    """Fitted propensity and CCDF evaluators."""

    propensity: PropensityEvaluator
    ccdf: CcdfEvaluator


def fit_nuisance(dataset: Dataset, kernel: KernelSpec, xi: float = 0.05) -> NuisanceModel:
    """Fit both nuisances on one split of the data."""
    return NuisanceModel(PropensityEvaluator(kernel, dataset, xi), CcdfEvaluator(kernel, dataset))

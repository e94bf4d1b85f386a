"""Dataset container, sample splitting, and nuisance parameter fits.

The nuisance parameters are the propensity score (probability of treatment
given covariates) and the per-arm conditional outcome CDFs. Both are fitted
with Nadaraya-Watson regression on the first data split and evaluated on the
second, so that estimation noise in the nuisances is independent of the rows
used for the downstream pseudo-outcome regression.

The nuisance contract. The fitted evaluators here and the exact ones in
``simlab`` (``ExactPropensity``, ``ExactCcdf``) answer four batch calls alike:
``propensity.many(xs)``, ``ccdf.cdf_table(arm, ys, queries)``,
``ccdf.plug_ins(queries)`` and ``ccdf.quantile(arm, alphas, x)``. Each
argument has one rule, checked by one helper that both kinds call, so a
malformed call raises the same ``ValueError`` from either kind:

- ``arm`` is 0 or 1 (``check_arm``);
- ``alphas`` lie in [0, 1], NaN excluded (``check_levels``);
- ``ys``, here and in the plug-ins ``mix(u, ys)`` and ``table(ys)``, are
  flattened, and none is NaN; -inf and +inf are limits (``as_thresholds``).
  So are an estimator's y0s, its profile grid (in any order) and surface y axis;
- ``xs``, ``queries`` and ``x`` have the nuisance's covariate width
  (``kernels.as_rows(xs, dim)``), and every covariate array the library
  takes has finite rows (``as_rows``, with or without a width).

Valid calls give the same shapes from both kinds, and CDF values in [0, 1]
that are nondecreasing in y. At levels 0 and 1, exact quantiles are the
support's ends (-inf and +inf for a normal base), and fitted ones are jump
points: the smallest, and the first where the cumulative weight reaches 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_rows, kernel_matrix, nw_weight_matrix, resolve_weights

_QUANTILE_SLACK = 1e-9

XI = 0.05  # the default propensity clip: estimates are clamped into [XI, 1 - XI]


class SingleArmError(ValueError):
    """A fit that needs both treatment arms saw only one."""


def check_arm(arm) -> int:
    """``arm``, which must be 0 (untreated) or 1 (treated)."""
    if arm not in (0, 1):
        raise ValueError(f"arm must be 0 or 1, not {arm!r}")
    return arm


def check_levels(alphas) -> np.ndarray:
    """Quantile levels as a float array, each in [0, 1]."""
    alphas = np.asarray(alphas, dtype=float)
    if not np.all((alphas >= 0.0) & (alphas <= 1.0)):  # NaN levels included
        raise ValueError("alpha must lie in [0, 1]")
    return alphas


def as_thresholds(ys) -> np.ndarray:
    """CDF thresholds as a flat float array; -inf and +inf are limits, NaN is an error."""
    ys = np.asarray(ys, dtype=float).reshape(-1)
    if np.isnan(ys).any():
        raise ValueError(f"threshold {np.argmax(np.isnan(ys))} is NaN")
    return ys


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


def _step_gather(cums: np.ndarray, points: np.ndarray, ys: np.ndarray,
                 rows=slice(None)) -> np.ndarray:
    # The running sums ``cums``, whose columns the ascending ``points`` label, at
    # the last point <= each y; 0 before the first. By default the (m, len(ys))
    # table; with ``rows`` = arange(m), one value per row, row q read at ys[q].
    last = np.searchsorted(points, ys, side="right") - 1
    table = cums[rows, last]
    table[..., last < 0] = 0.0
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

    ``y`` and ``a`` are flattened; ``x`` is coerced to an (n, d) float array by ``kernels.as_rows``.
    """

    y: np.ndarray
    x: np.ndarray
    a: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        self.a = np.asarray(self.a).reshape(-1)
        self.x = as_rows(self.x)
        if self.y.size == 0:
            raise ValueError("dataset must be nonempty")
        if not (self.y.size == self.x.shape[0] == self.a.size):
            raise ValueError("y, x, a must have equal length")
        finite, binary = np.isfinite(self.y), np.isin(self.a, (0, 1))
        if not finite.all():
            raise ValueError(f"outcome row {np.argmin(finite)} is not finite")
        if not binary.all():
            raise ValueError(f"treatment row {np.argmin(binary)} is not 0 or 1")
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

    def __init__(self, kernel: KernelSpec, dataset: Dataset, xi: float = XI):
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
        ``km``, the caller's if given, is the unnormalised (queries, training
        rows) kernel matrix. It is only read. Rows without kernel mass take
        ``nw_weight_matrix``'s retry policy."""
        xs = as_rows(xs, self.xs.shape[1])
        if km is None:
            km = kernel_matrix(self.kernel, xs, self.xs)
        elif km.shape != (xs.shape[0], self.xs.shape[0]):
            raise ValueError(f"kernel matrix is {km.shape}, not (queries, training rows) "
                             f"{(xs.shape[0], self.xs.shape[0])}")
        totals = km.sum(axis=1)
        retry = np.nonzero(totals <= 0.0)[0]
        totals[retry] = 1.0
        pi = np.divide(km @ self.treatments, totals, out=totals)
        if retry.size:
            pi[retry] = nw_weight_matrix(self.kernel, xs[retry], self.xs) @ self.treatments
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
        return self.ys[self._arms[check_arm(arm)]]

    def weight_matrix(self, arm: int, queries, km=None) -> np.ndarray:
        return nw_weight_matrix(self.kernel, queries, self.xs[self._arms[check_arm(arm)]], km)

    def cumulative(self, arm: int, queries, km=None) -> np.ndarray:
        """``weight_matrix(arm, queries, km)`` summed along each row in place:
        row q holds the arm's CDF at queries[q] at each jump point."""
        weights = self.weight_matrix(arm, queries, km)
        return np.cumsum(weights, axis=1, out=weights)

    def cdf_table(self, arm: int, ys, queries, cums=None) -> np.ndarray:
        """CDF values F(ys[l] | queries[j], arm) as a (len(queries), len(ys)) table.

        ``cums``, if given, is ``cumulative(arm, queries)``, as ``plug_ins``
        keeps arm 0's; the table is then a column gather of it, and no kernel
        is evaluated.
        """
        ys = as_thresholds(ys)
        if cums is None:
            cums = self.cumulative(arm, queries)
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
        cums0 = self.cumulative(0, queries, km[:, self._arms[0]])

        def mix(u, ys):
            ys = as_thresholds(ys)
            return prefix_gather(u @ weights1, self.arm_outcomes(1), ys)

        return mix, lambda ys: self.cdf_table(0, ys, queries, cums0)

    def quantile(self, arm: int, alphas, x):
        """Generalised inverse inf{y : F(y) >= alpha} over the jump points at
        every level in ``alphas``, from one weight row at ``x``."""
        alphas = check_levels(alphas)
        weights = resolve_weights(self.kernel, x, self.xs[self._arms[check_arm(arm)]])
        return step_quantile(self.arm_outcomes(arm), np.cumsum(weights), alphas)

"""Doubly robust estimation of the equal-quantile outcome map.

Two stages. First a contrast fit: nuisances are learned on one half of the
data, pseudo-outcomes are computed on the other half, and an outer NW
regression turns them into an estimate h_hat(y0, y1 | x) of the CDF contrast
F1(y1|x) - F0(y0|x). Second the inversion: h_hat is evaluated over a sorted
grid of candidate treated outcomes, projected onto nondecreasing sequences,
and the grid point whose projected value is closest to zero is returned as
the estimate g_hat(y0|x) of the treated outcome at y0's conditional quantile.

Cross-fitting repeats the contrast fit with the two data halves' roles
swapped and averages the evaluations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# pava_project is unused here, but bench/test_bench.py checks this binding.
from .isotonic import pava_project, zero_crossing  # noqa: F401
from .kernels import KernelSpec, as_rows, nw_weight_matrix
from .nuisance import Dataset, SplitPlan, fit_nuisance, make_split, prefix_gather
from .pseudo import PseudoOutcomeKind

_MONOTONE_TOL = 1e-9


class _ContrastReplicate:
    """One nuisance-then-regress pass: fixed regression rows, fixed nuisances.

    ``nuisance`` may be a fitted model or an exact (closed-form) one; it must
    expose ``propensity.many(xs)`` and ``ccdf.cdf_table(a, ys, xs)``.
    """

    def __init__(self, nuisance, data2: Dataset, outer_kernel: KernelSpec, kind: PseudoOutcomeKind):
        self.nuisance = nuisance
        self.data2 = data2
        self.outer_kernel = outer_kernel
        self.kind = PseudoOutcomeKind(kind)
        self._a = data2.a.astype(float)
        pi = np.asarray(nuisance.propensity.many(data2.x), dtype=float)
        self._c = (self._a - pi) / (pi * (1.0 - pi))
        treated = data2.arm_indices(1)
        self._treated = treated[np.argsort(data2.y[treated], kind="stable")]
        self._tables = {}  # arm -> (ys, F_arm(ys | data2.x)) of the last ys asked for

    def _cdf_rows(self, arm: int, ys: np.ndarray) -> np.ndarray:
        # F_arm(ys | regression rows) does not depend on the query covariates,
        # so the last table per arm is kept for repeated calls with the same
        # ys (a surface profiles x by x on one grid and one set of y0s).
        cached = self._tables.get(arm)
        if cached is None or not np.array_equal(cached[0], ys):
            cached = (ys.copy(), self.nuisance.ccdf.cdf_table(arm, ys, self.data2.x))
            self._tables[arm] = cached
        return cached[1]

    def profile_many(self, y0s: np.ndarray, grid: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Contrast profiles h_hat(y0s[q], grid[l] | xs[q]) as an (m, p) table.

        The treated-indicator term sum_j w_j a_j c_j 1{y_j <= grid[l]} is a
        prefix sum over the treated rows in outcome order.
        """
        d2 = self.data2
        w_out = nw_weight_matrix(self.outer_kernel, xs, d2.x)
        rows1 = self._treated
        treated_term = prefix_gather(w_out[:, rows1] * self._c[rows1], d2.y[rows1], grid)
        ind0 = (d2.y[:, None] <= y0s[None, :]).astype(float)
        un = (1.0 - self._a) * self._c
        if self.kind is PseudoOutcomeKind.IPW:
            s0 = np.einsum("qj,jq->q", w_out, un[:, None] * ind0)
            return treated_term + s0[:, None]
        f0_q = self._cdf_rows(0, y0s)
        t0 = un[:, None] * (ind0 - f0_q) - f0_q
        s0 = np.einsum("qj,jq->q", w_out, t0)
        # sum_j w_j (1 - a_j c_j) F1(grid | x_j): the F1 part of the treated
        # term, -a_j c_j F1, merged with the DR correction's +F1.
        f1_term = (w_out * (1.0 - self._a * self._c)) @ self._cdf_rows(1, grid)
        return treated_term + f1_term + s0[:, None]


@dataclass
class ContrastFit:
    """Evaluator for the regressed pseudo-outcome contrast h_hat(y0, y1 | x).

    Holds one replicate, or two role-swapped replicates whose evaluations are
    averaged (cross-fitting).
    """

    replicates: tuple

    def profile_many(self, y0s, grid, xs) -> np.ndarray:
        y0s = np.asarray(y0s, dtype=float).reshape(-1)
        grid = np.asarray(grid, dtype=float).reshape(-1)
        xs = as_rows(xs)
        if xs.shape[0] != y0s.size:
            raise ValueError("y0s and xs must pair up one query per row")
        tables = [rep.profile_many(y0s, grid, xs) for rep in self.replicates]
        if len(tables) == 1:
            return tables[0]
        return np.mean(tables, axis=0)


def fit_contrast(
    dataset: Dataset,
    split: SplitPlan,
    nuisance_kernel: KernelSpec,
    outer_kernel: KernelSpec,
    kind: PseudoOutcomeKind = PseudoOutcomeKind.DR,
    xi: float = 0.05,
) -> ContrastFit:
    """Single-direction contrast fit: nuisances on split 1, regression on split 2."""
    kind = PseudoOutcomeKind(kind)
    nuis = fit_nuisance(dataset.subset(split.indices_1), nuisance_kernel, xi)
    rep = _ContrastReplicate(nuis, dataset.subset(split.indices_2), outer_kernel, kind)
    return ContrastFit(replicates=(rep,))


def cross_fit_contrast(
    dataset: Dataset,
    seed: int,
    nuisance_kernel: KernelSpec,
    outer_kernel: KernelSpec,
    kind: PseudoOutcomeKind = PseudoOutcomeKind.DR,
    xi: float = 0.05,
) -> ContrastFit:
    """Contrast fit averaged over the two role assignments of a random split."""
    kind = PseudoOutcomeKind(kind)
    split = make_split(dataset, seed)
    reps = []
    for plan in (split, split.swapped()):
        nuis = fit_nuisance(dataset.subset(plan.indices_1), nuisance_kernel, xi)
        reps.append(
            _ContrastReplicate(nuis, dataset.subset(plan.indices_2), outer_kernel, kind)
        )
    return ContrastFit(replicates=tuple(reps))


def fit_oracle_contrast(dataset: Dataset, exact_nuisance, outer_kernel: KernelSpec) -> ContrastFit:
    """Contrast fit with exact nuisances; the whole sample feeds the regression.

    Splitting exists only to de-correlate estimated nuisances from the
    regression rows, so with closed-form nuisances there is nothing to split.
    The pseudo-outcome is the doubly robust one.
    """
    rep = _ContrastReplicate(exact_nuisance, dataset, outer_kernel, PseudoOutcomeKind.DR)
    return ContrastFit(replicates=(rep,))


def build_grid(dataset: Dataset, policy: str = "treated", count: int | None = None) -> np.ndarray:
    """Sorted, strictly increasing evaluation grid of candidate treated outcomes.

    ``treated`` uses every distinct treated outcome; ``uniform`` spaces
    ``count`` points over the outcome range, as a fallback for sparse arms.
    Adding +0.0 maps -0.0 to 0.0, so the grid does not depend on row order.
    """
    if policy == "treated":
        points = dataset.y[dataset.a == 1]
        if points.size == 0:
            raise ValueError("no treated observations to build a grid from")
    elif policy == "uniform":
        if count is None or count < 1:
            raise ValueError("uniform grid needs a positive point count")
        points = np.linspace(dataset.y.min(), dataset.y.max(), count)
    else:
        raise ValueError(f"unknown grid policy {policy!r}")
    return np.unique(points + 0.0)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("evaluation grid must be strictly increasing")
    return grid


def estimate_cqc_many(contrast: ContrastFit, grid, y0s, xs, require_monotone: bool = False):
    """Batched inversion over query pairs (y0s[q], xs[q]).

    Each pair's contrast profile over the grid is a row of an (m, p) table.
    The estimate is the grid point where the row's projection onto
    nondecreasing sequences has the smallest |value| (ties resolve to the
    smallest index). ``isotonic.zero_crossing`` finds it without projecting
    the row: it locates the crossing from the row's suffix sums and runs the
    pool-adjacent-violators stack only on the few blocks beside it, falling
    back to one ``pava_project`` call for the rows whose crossing it cannot
    certify against rounding. Indices and residuals are bit for bit those
    of projecting every row. A contrast is -1 below the grid and +1 above
    it, so a profile that never changes sign has its root past the
    corresponding grid end, and the argmin clamps there. Returns (g_hat,
    grid indices, residuals |projected value|), empty for no queries.

    With ``require_monotone`` the pre-projection profiles are asserted to be
    nondecreasing (up to ``_MONOTONE_TOL``); a violation signals an
    implementation bug in a pipeline that guarantees monotone profiles.
    """
    grid = _check_grid(grid)
    y0s = np.asarray(y0s, dtype=float).reshape(-1)
    profiles = contrast.profile_many(y0s, grid, xs)
    if require_monotone and np.any(np.diff(profiles, axis=1) < -_MONOTONE_TOL):
        raise AssertionError(
            "pre-projection contrast profile is not monotone; "
            "this pipeline guarantees monotonicity"
        )
    indices, residuals = zero_crossing(profiles)
    return grid[indices], indices, residuals


@dataclass
class CqcFit:
    """A contrast fit bound to an evaluation grid: the batch predictor of g_hat.

    ``fit(y0s, xs)`` is ``estimate_cqc_many``'s g_hat for the query pairs
    (y0s[q], xs[q]); ``require_monotone`` is passed through to it.
    """

    contrast: ContrastFit
    grid: np.ndarray
    require_monotone: bool = False

    def __post_init__(self):
        self.grid = _check_grid(self.grid)

    def __call__(self, y0s, xs) -> np.ndarray:
        g_hat, _, _ = estimate_cqc_many(
            self.contrast, self.grid, y0s, xs, require_monotone=self.require_monotone
        )
        return g_hat


def cqc_to_cqte(fit: CqcFit, arm0_quantile, alphas, xs) -> np.ndarray:
    """Quantile treatment effects over (alphas[i], xs[k]) via the estimated outcome map.

    ``arm0_quantile(alphas, x)`` supplies the untreated conditional quantiles
    (fitted or exact) at every level for one covariate row. Cell [i, k] of the
    (len(alphas), len(xs)) result is g_hat at y0 = the alphas[i]-quantile at
    xs[k], minus y0; all cells are estimated in one level-major ``fit`` call.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    if not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise ValueError("alpha must lie in (0, 1)")
    xs = as_rows(xs)
    y0s = np.column_stack([arm0_quantile(alphas, x) for x in xs])
    g_hat = fit(y0s.reshape(-1), np.tile(xs, (alphas.size, 1)))
    return g_hat.reshape(y0s.shape) - y0s


def surface_eval(fit: CqcFit, y_grid, x_grid) -> np.ndarray:
    """Treated-minus-untreated gap over a (y, x) grid, row-major in y.

    Each x column is one ``fit`` call over the y values, so only one
    column's profile table is live at a time.
    """
    ys = np.asarray(y_grid, dtype=float).reshape(-1)
    xs = as_rows(x_grid)
    if ys.size == 0 or xs.shape[0] == 0:
        raise ValueError("surface grids must be nonempty")
    out = np.empty((ys.size, xs.shape[0]))
    for j in range(xs.shape[0]):
        out[:, j] = fit(ys, np.tile(xs[j], (ys.size, 1))) - ys
    return out

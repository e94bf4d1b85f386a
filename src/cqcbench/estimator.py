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
from .kernels import (
    KernelSpec, as_rows, gather_columns, kernel_matrix, nw_weight_matrix, transpose_blocks,
    transpose_strips,
)
from .nuisance import Dataset, fit_nuisance, make_split, prefix_gather
from .pseudo import PseudoOutcomeKind

_MONOTONE_TOL = 1e-9


def _runs(xs: np.ndarray):
    """(first row of each run of equal consecutive rows, each row's run index).

    Both are ``slice(None)`` when every row differs from the one before it,
    so that indexing with them copies nothing.
    """
    starts = np.any(xs[1:] != xs[:-1], axis=1)
    if starts.all():
        return slice(None), slice(None)
    return np.flatnonzero(np.r_[True, starts]), np.cumsum(np.r_[0, starts])


class _ContrastReplicate:
    """One nuisance-then-regress pass: fixed regression rows, fixed nuisances.

    ``nuisance`` may be a fitted model or an exact (closed-form) one. ``pi`` is
    its propensity at the regression rows. The plug-in CDFs ``mix1`` and
    ``table0`` are, for DR, its ``ccdf.mixer(1, data2.x)``, whose ``mix(u,
    ys)`` is ``u @ cdf_table(1, ys, data2.x)`` without the clip to [0, 1], and
    its ``ccdf.tabulator(0, data2.x)``, whose ``table(ys)`` is ``cdf_table(0,
    ys, data2.x)``. The IPW pseudo-outcome is the DR one with both zero
    (``_zero_plug_in``). ``_replicate`` evaluates all three;
    ``cross_fit_contrast`` evaluates them for two replicates at once.
    """

    def __init__(self, nuisance, data2: Dataset, outer_kernel: KernelSpec, kind: PseudoOutcomeKind,
                 pi: np.ndarray, mix1, table0):
        self.nuisance = nuisance
        self.data2 = data2
        self.outer_kernel = outer_kernel
        self.kind = kind
        self._a = data2.a.astype(float)
        pi = np.asarray(pi, dtype=float)
        self._c = (self._a - pi) / (pi * (1.0 - pi))
        treated = data2.arm_indices(1)
        self._treated = treated[np.argsort(data2.y[treated], kind="stable")]
        self._mix1 = mix1
        self._table0 = table0

    def profile_many(self, y0s: np.ndarray, grid: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Contrast profiles h_hat(y0s[q], grid[l] | xs[q]) as an (m, p) table.

        The treated-indicator term sum_j w_j a_j c_j 1{y_j <= grid[l]} is a
        prefix sum over the treated rows in outcome order. It and the DR F1
        term depend on x only, so they are computed once per run of equal
        consecutive rows of ``xs``; only the y0 term is computed per query.
        """
        d2 = self.data2
        first, run = _runs(xs)
        w_out = nw_weight_matrix(self.outer_kernel, xs[first], d2.x)
        rows1 = self._treated
        x_part = prefix_gather(w_out[:, rows1] * self._c[rows1], d2.y[rows1], grid)
        # sum_j w_j (1 - a_j c_j) F1(grid | x_j): the F1 part of the treated
        # term, -a_j c_j F1, merged with the DR correction's +F1.
        x_part += self._mix1(w_out * (1.0 - self._a * self._c), grid)
        # un * (1{y_j <= y0} - f0) - f0, built in one buffer.
        un = ((1.0 - self._a) * self._c)[:, None]
        f0_q = self._table0(y0s)
        t0 = np.subtract(d2.y[:, None] <= y0s[None, :], f0_q)
        np.multiply(un, t0, out=t0)
        t0 -= f0_q
        s0 = np.einsum("qj,jq->q", w_out[run], t0)
        return x_part[run] + s0[:, None]


def _zero_plug_in(*_):  # an IPW replicate's F1 mixer and F0 table
    return 0.0


def _replicate(nuisance, data2: Dataset, outer_kernel: KernelSpec, kind: PseudoOutcomeKind):
    """A replicate whose nuisance evaluates its own propensity, arm-1 mixer and
    arm-0 tabulator; it must also expose ``propensity.many(xs)``,
    ``ccdf.mixer(arm, xs)`` and ``ccdf.tabulator(arm, xs)``."""
    pi = nuisance.propensity.many(data2.x)
    mix1 = table0 = _zero_plug_in
    if kind is PseudoOutcomeKind.DR:
        mix1 = nuisance.ccdf.mixer(1, data2.x)
        table0 = nuisance.ccdf.tabulator(0, data2.x)
    return _ContrastReplicate(nuisance, data2, outer_kernel, kind, pi, mix1, table0)


@dataclass
class ContrastFit:
    """Evaluator for the regressed pseudo-outcome contrast h_hat(y0, y1 | x).

    Holds one replicate, or two role-swapped replicates whose evaluations are
    averaged (cross-fitting). IPW profiles are nondecreasing by construction,
    so an IPW descent beyond ``_MONOTONE_TOL`` is a bug: it raises AssertionError.
    """

    replicates: tuple

    def profile_many(self, y0s, grid, xs) -> np.ndarray:
        y0s = np.asarray(y0s, dtype=float).reshape(-1)
        grid = np.asarray(grid, dtype=float).reshape(-1)
        xs = as_rows(xs)
        if xs.shape[0] != y0s.size:
            raise ValueError("y0s and xs must pair up one query per row")
        profiles = np.mean([rep.profile_many(y0s, grid, xs) for rep in self.replicates], axis=0)
        if (self.replicates[0].kind is PseudoOutcomeKind.IPW
                and np.any(np.diff(profiles, axis=1) < -_MONOTONE_TOL)):
            raise AssertionError("IPW contrast profile is not monotone before projection")
        return profiles


def fit_contrast(
    dataset: Dataset,
    split: tuple[np.ndarray, np.ndarray],
    nuisance_kernel: KernelSpec,
    outer_kernel: KernelSpec,
    kind: PseudoOutcomeKind = PseudoOutcomeKind.DR,
    xi: float = 0.05,
) -> ContrastFit:
    """Single-direction contrast fit: nuisances on rows ``split[0]``, regression on ``split[1]``."""
    kind = PseudoOutcomeKind(kind)
    indices_1, indices_2 = split
    nuis = fit_nuisance(dataset.subset(indices_1), nuisance_kernel, xi)
    rep = _replicate(nuis, dataset.subset(indices_2), outer_kernel, kind)
    return ContrastFit(replicates=(rep,))


def cross_fit_contrast(
    dataset: Dataset,
    seed: int,
    nuisance_kernel: KernelSpec,
    outer_kernel: KernelSpec,
    kind: PseudoOutcomeKind = PseudoOutcomeKind.DR,
    xi: float = 0.05,
) -> ContrastFit:
    """Contrast fit averaged over the two role assignments of a random split.

    Both replicates' nuisances are NW regressions between the same two halves,
    so one kernel matrix K (regression half 2 by nuisance half 1) gives both
    propensities and all four arm weight matrices, with the bits of
    ``fit_contrast`` on each role assignment: (a - b)^2 == (b - a)^2, and
    every matrix is C-ordered, as its row sums need. At most two half-by-half
    matrices are live at once: K and its transpose Kt, then Kt and the arm
    blocks at d1's rows (columns of Kt), then those and the arm blocks at d2's
    rows (columns of K, rebuilt from them by ``transpose_blocks``). The four
    blocks are the fitted state; each arm-0 block is kept as cumulative
    weights, so a predict evaluates no nuisance kernel.
    """
    kind = PseudoOutcomeKind(kind)
    d1, d2 = (dataset.subset(idx) for idx in make_split(dataset, seed))
    nuis1, nuis2 = fit_nuisance(d1, nuisance_kernel, xi), fit_nuisance(d2, nuisance_kernel, xi)
    # pi2, mix2, table2 are evaluated at d2's rows (replicate 1); pi1, mix1,
    # table1 at d1's.
    k = kernel_matrix(nuisance_kernel, d2.x, d1.x)
    kt = transpose_strips(k)
    pi2 = nuis1.propensity.many(d2.x, k)
    del k
    dr = kind is PseudoOutcomeKind.DR
    if dr:  # the arm blocks at d1's rows are columns of Kt
        cols = [nuis2.ccdf.arm_rows(arm) for arm in (0, 1)]
        blocks1 = [gather_columns(kt, c) for c in cols]
    pi1 = nuis2.propensity.many(d1.x, kt)
    del kt
    mix2 = table2 = mix1 = table1 = _zero_plug_in
    if dr:  # the arm blocks at d2's rows are columns of K
        blocks2 = transpose_blocks(blocks1, cols, [nuis1.ccdf.arm_rows(arm) for arm in (0, 1)])
        mix2, table2 = nuis1.ccdf.mixer(1, d2.x, blocks2[1]), nuis1.ccdf.tabulator(0, d2.x, blocks2[0])
        mix1, table1 = nuis2.ccdf.mixer(1, d1.x, blocks1[1]), nuis2.ccdf.tabulator(0, d1.x, blocks1[0])
    return ContrastFit(replicates=(
        _ContrastReplicate(nuis1, d2, outer_kernel, kind, pi2, mix2, table2),
        _ContrastReplicate(nuis2, d1, outer_kernel, kind, pi1, mix1, table1),
    ))


def fit_oracle_contrast(dataset: Dataset, exact_nuisance, outer_kernel: KernelSpec) -> ContrastFit:
    """Contrast fit with exact nuisances; the whole sample feeds the regression.

    Splitting exists only to de-correlate estimated nuisances from the
    regression rows, so with closed-form nuisances there is nothing to split.
    The pseudo-outcome is the doubly robust one.
    """
    rep = _replicate(exact_nuisance, dataset, outer_kernel, PseudoOutcomeKind.DR)
    return ContrastFit(replicates=(rep,))


def build_grid(dataset: Dataset, count: int | None = None) -> np.ndarray:
    """Sorted, strictly increasing evaluation grid of candidate treated outcomes.

    ``None`` uses every distinct treated outcome; a ``count`` spaces that many
    points over the outcome range, as a fallback for sparse arms. Adding +0.0
    maps -0.0 to 0.0, so the grid does not depend on row order.
    """
    if count is None:
        points = dataset.y[dataset.a == 1]
        if points.size == 0:
            raise ValueError("no treated observations to build a grid from")
    elif count < 1:
        raise ValueError("uniform grid needs a positive point count")
    else:
        points = np.linspace(dataset.y.min(), dataset.y.max(), count)
    return np.unique(points + 0.0)


def _check_grid(grid: np.ndarray) -> np.ndarray:
    grid = np.asarray(grid, dtype=float).reshape(-1)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    if grid.size > 1 and not np.all(np.diff(grid) > 0):
        raise ValueError("evaluation grid must be strictly increasing")
    return grid


def estimate_cqc_many(contrast: ContrastFit, grid, y0s, xs):
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
    """
    grid = _check_grid(grid)
    y0s = np.asarray(y0s, dtype=float).reshape(-1)
    indices, residuals = zero_crossing(contrast.profile_many(y0s, grid, xs))
    return grid[indices], indices, residuals


@dataclass
class CqcFit:
    """A contrast fit bound to an evaluation grid: the batch predictor of g_hat.

    ``fit(y0s, xs)`` is ``estimate_cqc_many``'s g_hat for the query pairs
    (y0s[q], xs[q]).
    """

    contrast: ContrastFit
    grid: np.ndarray

    def __post_init__(self):
        self.grid = _check_grid(self.grid)

    def __call__(self, y0s, xs) -> np.ndarray:
        g_hat, _, _ = estimate_cqc_many(self.contrast, self.grid, y0s, xs)
        return g_hat


def fit_cqc(
    dataset: Dataset,
    seed: int,
    nuisance_kernel: KernelSpec,
    outer_kernel: KernelSpec,
    kind: PseudoOutcomeKind,
    xi: float,
    cross_fit: bool,
    grid_count: int | None,
) -> CqcFit:
    """The estimator: a contrast fit (cross-fitted, or on ``make_split(dataset,
    seed)``), then ``build_grid``."""
    if cross_fit:
        contrast = cross_fit_contrast(dataset, seed, nuisance_kernel, outer_kernel, kind, xi)
    else:
        contrast = fit_contrast(dataset, make_split(dataset, seed), nuisance_kernel, outer_kernel,
                                kind, xi)
    return CqcFit(contrast, build_grid(dataset, grid_count))


def cqc_to_cqte(fit: CqcFit, arm0_quantile, alphas, xs) -> np.ndarray:
    """Quantile treatment effects over (alphas[i], xs[k]) via the estimated outcome map.

    ``arm0_quantile(alphas, x)`` supplies the untreated conditional quantiles
    (fitted or exact) at every level for one covariate row. Cell [i, k] of the
    (len(alphas), len(xs)) result is g_hat at y0 = the alphas[i]-quantile at
    xs[k], minus y0. All cells are estimated in one ``fit`` call in x-major
    order, so each x's levels form one run of equal covariate rows.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    if not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise ValueError("alpha must lie in (0, 1)")
    xs = as_rows(xs)
    y0s = np.array([arm0_quantile(alphas, x) for x in xs], dtype=float)
    y0s = y0s.reshape(xs.shape[0], alphas.size)
    g_hat = fit(y0s.reshape(-1), np.repeat(xs, alphas.size, axis=0))
    with np.errstate(over="ignore"):  # an overflowing gap is inf, for the caller to report
        return (g_hat.reshape(y0s.shape) - y0s).T


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
        out[:, j] = fit(ys, np.tile(xs[j], (ys.size, 1)))
    with np.errstate(over="ignore"):  # an overflowing gap is inf, for the caller to report
        out -= ys[:, None]
    return out

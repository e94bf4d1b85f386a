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

# Unused here: bench/test_bench.py reads estimator.pava_project as a binding its patcher restores.
from .isotonic import pava_project, zero_crossing  # noqa: F401
from .kernels import KernelSpec, as_rows, kernel_matrix, nw_weight_matrix, transpose_strips
from .nuisance import (XI, CcdfEvaluator, Dataset, PropensityEvaluator, SingleArmError, arm_major,
                       as_thresholds, make_split, prefix_gather)
from .pseudo import PseudoOutcomeKind

_MONOTONE_TOL = 1e-9


def _runs(xs: np.ndarray):
    """(first row of each run of equal consecutive rows, each row's run index),
    as index arrays; both are empty for no rows."""
    starts = np.r_[True, np.any(xs[1:] != xs[:-1], axis=1)][: xs.shape[0]]
    return np.flatnonzero(starts), np.cumsum(starts) - 1


_ZERO_PLUG_INS = (lambda *_: 0.0,) * 2  # an IPW replicate's F1 mix and F0 table


class _ContrastReplicate:
    """One nuisance-then-regress pass: fixed regression rows, fixed nuisances.

    ``propensity`` and ``ccdf`` may be fitted evaluators or exact
    (closed-form) ones, kept as attributes; they give ``pi`` and, for DR, the
    plug-in CDFs ``(mix1, table0) = ccdf.plug_ins(data2.x)`` at the
    regression rows. ``mix1(u, ys)`` is ``u @ cdf_table(1, ys, data2.x)``
    without the clip to [0, 1], and ``table0(ys)`` is ``cdf_table(0, ys,
    data2.x)``. The IPW pseudo-outcome is the DR one with both zero
    (``_ZERO_PLUG_INS``). Fitted nuisances are given ``km``, the unnormalised
    kernel matrix between ``data2``'s rows and its training half in
    ``arm_major`` order: the propensity reads it, and DR's plug-ins keep it as
    their weights. Exact nuisances are given none.
    """

    def __init__(self, propensity, ccdf, data2: Dataset, outer_kernel: KernelSpec,
                 kind: PseudoOutcomeKind, km=None):
        self.propensity, self.ccdf = propensity, ccdf
        self.data2 = data2
        self.outer_kernel = outer_kernel
        self.kind = kind
        given = () if km is None else (km,)
        pi = propensity.many(data2.x, *given)
        self._a = data2.a.astype(float)
        self._c = (self._a - pi) / (pi * (1.0 - pi))
        treated = data2.arm_indices(1)
        self._treated = treated[np.argsort(data2.y[treated], kind="stable")]
        dr = kind is PseudoOutcomeKind.DR
        self._mix1, self._table0 = ccdf.plug_ins(data2.x, *given) if dr else _ZERO_PLUG_INS

    def profile_many(self, y0s: np.ndarray, grid: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Contrast profiles h_hat(y0s[q], grid[l] | xs[q]) as an (m, p) table,
        one row per query (``estimate_cqc_many`` passes one query per run).

        The treated-indicator term sum_j w_j a_j c_j 1{y_j <= grid[l]} is a
        prefix sum over the treated rows in outcome order. The table is a
        fresh array, which ``ContrastFit`` averages in place.
        """
        d2 = self.data2
        w_out = nw_weight_matrix(self.outer_kernel, xs, d2.x)
        rows1 = self._treated
        table = prefix_gather(w_out[:, rows1] * self._c[rows1], d2.y[rows1], grid)
        # sum_j w_j (1 - a_j c_j) F1(grid | x_j): the F1 part of the treated
        # term, -a_j c_j F1, merged with the DR correction's +F1.
        table += self._mix1(w_out * (1.0 - self._a * self._c), grid)
        # A fresh sum, not +=: freeing the gathered table raises glibc's mmap threshold, so later
        # arrays of its size reuse heap pages (+= cost csv-surface-cqte 10%, 2-core x86-64 VM).
        return table + np.einsum("qj,jq->q", w_out, self._t0(y0s))[:, None]

    def _t0(self, y0s: np.ndarray) -> np.ndarray:
        """The (n, len(y0s)) table of each regression row's y0 summand:
        un * (1{y_j <= y0} - f0) - f0, built in one C-ordered buffer."""
        un = ((1.0 - self._a) * self._c)[:, None]
        f0_q = self._table0(y0s)
        t0 = np.subtract(self.data2.y[:, None] <= y0s[None, :], f0_q)
        np.multiply(un, t0, out=t0)
        t0 -= f0_q
        return t0

    def y0_terms(self, y0s: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Each query's y0 term sum_j w_j(xs[q]) t0_j(y0s[q]): the part of its
        profile row that does not depend on the grid point.

        t0 is evaluated once per distinct y0 level, and each run of equal
        consecutive rows of ``xs`` takes one outer-weight row and a GEMV over
        its own queries' columns of t0, so no per-query gather of outer
        weights or t0 columns is built: memory is O(runs n + levels n).
        """
        first, _ = _runs(xs)
        w_out = nw_weight_matrix(self.outer_kernel, xs[first], self.data2.x)
        levels, level = np.unique(y0s, return_inverse=True)
        t0 = self._t0(levels)
        terms = np.empty(y0s.size)
        for w, lo, hi in zip(w_out, first, np.r_[first[1:], y0s.size]):
            terms[lo:hi] = w @ np.take(t0, level[lo:hi], axis=1)
        return terms


@dataclass
class ContrastFit:
    """Evaluator for the regressed pseudo-outcome contrast h_hat(y0, y1 | x).

    Holds one replicate, or two role-swapped replicates whose evaluations are
    averaged (cross-fitting). A profile grid may come in any order. IPW
    profiles are nondecreasing in the grid point by construction, so an IPW
    fall beyond ``_MONOTONE_TOL`` between grid points in nondecreasing order
    is a bug: it raises AssertionError.
    """

    replicates: tuple

    def _mean(self, method: str, *args) -> np.ndarray:
        # The bits of np.mean over the replicates' results, without stacking them.
        total = getattr(self.replicates[0], method)(*args)
        for rep in self.replicates[1:]:
            total += getattr(rep, method)(*args)
        total /= len(self.replicates)
        return total

    def profile_many(self, y0s, grid, xs) -> np.ndarray:
        y0s, xs = _queries(y0s, xs)
        grid = as_thresholds(grid)
        profiles = self._mean("profile_many", y0s, grid, xs)
        if self.replicates[0].kind is PseudoOutcomeKind.IPW:
            falls = np.any(np.diff(profiles, axis=1) < -_MONOTONE_TOL, axis=0)
            if np.any(falls & (grid[1:] >= grid[:-1])):
                raise AssertionError("IPW contrast profile is not monotone before projection")
        return profiles

    def y0_terms(self, y0s, xs) -> np.ndarray:
        """The replicates' mean ``y0_terms``: profile_many(y0s, grid, xs)[q]
        is, up to rounding, a row that depends only on xs[q] plus y0_terms[q]."""
        return self._mean("y0_terms", *_queries(y0s, xs))


def _queries(y0s, xs):
    """Query pairs (y0s[q], xs[q]) as thresholds (``as_thresholds``) and (m, d) rows
    (``as_rows``), one of each per query."""
    y0s, xs = as_thresholds(y0s), as_rows(xs)
    if xs.shape[0] != y0s.size:
        raise ValueError("y0s and xs must pair up one query per row")
    return y0s, xs


def _halves(dataset: Dataset, split) -> list:
    """The rows of each index array of ``split``, in ``arm_major`` order."""
    halves = [dataset.subset(idx) for idx in split]
    return [half.subset(arm_major(half)) for half in halves]


def _fit_roles(dataset: Dataset, split, nuisance_kernel: KernelSpec, outer_kernel: KernelSpec,
               kind, xi: float, cross_fit: bool) -> ContrastFit:
    """Contrast fit: nuisances on half 1 (rows ``split[0]``), regression on
    half 2, and with ``cross_fit`` the swapped roles too, evaluations averaged.

    Every nuisance is an NW regression between the two halves, so one kernel
    matrix K (regression half 2 by nuisance half 1) serves the first role,
    and its C-ordered transpose Kt, taken before the first replicate
    normalises K in place, has the bits of the second's: (a - b)^2 == (b - a)^2.
    With both halves in ``arm_major`` order, the propensity reads a whole
    matrix and each arm's weights are a column range of it, so the
    half-by-half matrices are the fit's peak and, for DR, its fitted state;
    a predict evaluates no nuisance kernel.
    """
    kind = PseudoOutcomeKind(kind)
    d1, d2 = _halves(dataset, split)
    roles = [(d1, d2), (d2, d1)] if cross_fit else [(d1, d2)]
    nuisances = [(PropensityEvaluator(nuisance_kernel, train, xi),
                  CcdfEvaluator(nuisance_kernel, train)) for train, _ in roles]
    k = kernel_matrix(nuisance_kernel, d2.x, d1.x)
    kms = [k, transpose_strips(k)] if cross_fit else [k]
    return ContrastFit(replicates=tuple(
        _ContrastReplicate(*nuisance, regress, outer_kernel, kind, km)
        for nuisance, (_, regress), km in zip(nuisances, roles, kms)))


def fit_contrast(
    dataset: Dataset,
    split: tuple[np.ndarray, np.ndarray],
    nuisance_kernel: KernelSpec,
    outer_kernel: KernelSpec,
    kind: PseudoOutcomeKind = PseudoOutcomeKind.DR,
    xi: float = XI,
) -> ContrastFit:
    """``_fit_roles`` on ``split``, one role."""
    return _fit_roles(dataset, split, nuisance_kernel, outer_kernel, kind, xi, False)


def cross_fit_contrast(
    dataset: Dataset,
    seed: int,
    nuisance_kernel: KernelSpec,
    outer_kernel: KernelSpec,
    kind: PseudoOutcomeKind = PseudoOutcomeKind.DR,
    xi: float = XI,
) -> ContrastFit:
    """``_fit_roles`` on ``make_split(dataset, seed)``, both roles."""
    return _fit_roles(dataset, make_split(dataset, seed), nuisance_kernel, outer_kernel, kind, xi,
                      True)


def fit_oracle_contrast(dataset: Dataset, exact_nuisance, outer_kernel: KernelSpec) -> ContrastFit:
    """Contrast fit with exact nuisances; the whole sample feeds the regression.

    Splitting exists only to de-correlate estimated nuisances from the
    regression rows, so with closed-form nuisances there is nothing to split.
    The pseudo-outcome is the doubly robust one.
    """
    rep = _ContrastReplicate(exact_nuisance.propensity, exact_nuisance.ccdf, dataset, outer_kernel,
                             PseudoOutcomeKind.DR)
    return ContrastFit(replicates=(rep,))


def build_grid(dataset: Dataset, count: int | None = None) -> np.ndarray:
    """Sorted, strictly increasing evaluation grid of candidate treated outcomes.

    ``None`` uses every distinct treated outcome; a ``count`` spaces that many
    points over the outcome range, as a fallback for sparse arms; a range whose
    width overflows raises ``ValueError``. Adding +0.0 maps -0.0 to 0.0, so the
    grid does not depend on row order.
    """
    if count is None:
        points = dataset.y[dataset.a == 1]
        if points.size == 0:
            raise SingleArmError("no treated observations to build a grid from")
    elif count < 1:
        raise ValueError("uniform grid needs a positive point count")
    else:
        lo, hi = float(dataset.y.min()), float(dataset.y.max())
        if not np.isfinite(hi - lo):
            raise ValueError("the outcome range overflows; a uniform grid needs a finite max - min")
        points = np.linspace(lo, hi, count)
    return np.unique(points + 0.0)


def _check_grid(grid) -> np.ndarray:
    """Nonempty, finite, strictly increasing thresholds; an error names the point at fault."""
    grid = as_thresholds(grid)
    if grid.size == 0:
        raise ValueError("evaluation grid must be nonempty")
    infinite, flat = np.isinf(grid), np.diff(grid) <= 0.0
    if infinite.any():
        raise ValueError(f"evaluation grid point {np.argmax(infinite)} is infinite")
    if flat.any():
        raise ValueError(
            f"evaluation grid point {np.argmax(flat) + 1} is not above the one before it")
    return grid


def estimate_cqc_many(contrast: ContrastFit, grid, y0s, xs):
    """Batched inversion over query pairs (y0s[q], xs[q]).

    The estimate is the grid point where the pair's contrast profile over the
    grid, projected onto nondecreasing sequences, has the smallest |value|
    (ties resolve to the smallest index). A contrast is -1 below the grid and
    +1 above it, so a profile that never changes sign has its root past the
    corresponding grid end, and the argmin clamps there. Returns (g_hat,
    grid indices, residuals |projected value|), empty for no queries.

    Queries are grouped here into runs of equal consecutive covariate rows:
    ``contrast.profile_many`` evaluates one row per run, at the run's first
    query. Every query of a run differs from it by its ``contrast.y0_terms``
    minus the first query's, a constant that is exactly 0.0 for the first
    query, and projection commutes with adding a constant (Robertson, Wright
    & Dykstra 1988, ch. 1), so one ``isotonic.zero_crossing`` call inverts
    every query from its run's row and that shift, with the bits of
    projecting the shifted row when the shift is exact. A batch whose runs
    are all of one query needs no shift and no ``y0_terms`` call. A fitted
    contrast's ``y0_terms`` regroups the queries with ``_runs`` and rebuilds
    the run-first outer weights that its ``profile_many`` built: keeping them
    would hold one (runs, n) table per replicate beside the profile rows,
    and rebuilding bounds each step at O((runs + L) n) for n regression
    rows and L distinct y0.
    """
    grid = _check_grid(grid)
    y0s, xs = _queries(y0s, xs)
    first, run = _runs(xs)
    rows = contrast.profile_many(y0s[first], grid, xs[first])
    shifts = None
    if first.size < y0s.size:  # some run has two or more queries
        terms = contrast.y0_terms(y0s, xs)
        shifts = terms - terms[first][run]
    indices, residuals = zero_crossing(rows, run, shifts)
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


def _gap_table(fit: CqcFit, y0s: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """g_hat - y0 for an (n_x, k) table of y0, row i at xs[i], as a C-ordered (k, n_x) array.

    One x-major ``fit`` call makes each row one run of equal covariate rows,
    which ``estimate_cqc_many`` inverts from one profile row and a shift per
    y0: memory O(n_x p + (n_x + L) n + n_x k) for grid size p, n regression
    rows and L distinct y0, with no (cells, p) table. An overflowing gap is
    inf, for the caller to report.
    """
    g_hat = fit(y0s.reshape(-1), np.repeat(xs, y0s.shape[1], axis=0))
    with np.errstate(over="ignore"):
        return np.ascontiguousarray((g_hat.reshape(y0s.shape) - y0s).T)


def cqc_to_cqte(fit: CqcFit, arm0_quantile, alphas, xs) -> np.ndarray:
    """Quantile treatment effects over (alphas[i], xs[k]) via the estimated outcome map.

    ``arm0_quantile(alphas, x)`` supplies the untreated conditional quantiles
    (fitted or exact) at every level for one covariate row, called once per
    row. Cell [i, k] of the (len(alphas), len(xs)) result is g_hat at y0 =
    the alphas[i]-quantile at xs[k], minus y0, from ``_gap_table``.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1)
    if not np.all((alphas > 0.0) & (alphas < 1.0)):
        raise ValueError("alpha must lie in (0, 1)")
    xs = as_rows(xs)
    y0s = np.array([arm0_quantile(alphas, x) for x in xs], dtype=float)
    return _gap_table(fit, y0s.reshape(xs.shape[0], alphas.size), xs)


def surface_eval(fit: CqcFit, y_grid, x_grid) -> np.ndarray:
    """Treated-minus-untreated gap over a (y, x) grid, row-major in y: cell
    [i, k] is g_hat(y_grid[i] | x_grid[k]) - y_grid[i], from ``_gap_table``
    with the y axis at every x."""
    ys, xs = as_thresholds(y_grid), as_rows(x_grid)
    if ys.size == 0 or xs.shape[0] == 0:
        raise ValueError("surface grids must be nonempty")
    return _gap_table(fit, np.broadcast_to(ys, (xs.shape[0], ys.size)), xs)

"""Comparison estimators and the uniform estimator harness contract.

Three baselines ship alongside the doubly robust estimator: a separate
plug-in that estimates the two arm CDFs independently and composes the
generalised inverse with the untreated CDF, an IPW pseudo-outcome variant of
the main pipeline, and the oracle that runs the main pipeline with exact
nuisances. The estimator classes share one contract -- ``fit``
on a dataset and a seed, get back a batch predictor -- so the Monte-Carlo
runner treats all of them identically.

The separate plug-in and the oracle both use the full sample: the plug-in
has no pseudo-outcome stage to de-correlate, and the oracle's nuisances carry
no estimation noise, so sample splitting would only discard data.
"""

from __future__ import annotations

import numpy as np

from .estimator import CqcFit, _queries, build_grid, fit_cqc, fit_oracle_contrast
from .kernels import KernelSpec
from .nuisance import CcdfEvaluator, Dataset, step_quantile
from .pseudo import PseudoOutcomeKind


class _SeparatePredictor:
    def __init__(self, ccdf):
        self.ccdf = ccdf

    def __call__(self, y0s, xs) -> np.ndarray:
        y0s, xs = _queries(y0s, xs)
        # F0(y0s[q] | xs[q]) as cdf_table gathers it: row q's running arm-0
        # weight at the last jump point <= y0s[q], 0 before the first.
        cums0 = np.cumsum(self.ccdf.weight_matrix(0, xs), axis=1)
        last = np.searchsorted(self.ccdf.arm_outcomes(0), y0s, side="right") - 1
        alphas = np.where(last >= 0, cums0[np.arange(y0s.size), last], 0.0)
        cums1 = np.cumsum(self.ccdf.weight_matrix(1, xs), axis=1)
        return step_quantile(self.ccdf.arm_outcomes(1), cums1, alphas)


class DrEstimator:
    """Doubly robust pipeline packaged for the Monte-Carlo harness."""

    name = "dr"
    kind = PseudoOutcomeKind.DR

    def __init__(
        self,
        nuisance_kernel: KernelSpec,
        outer_kernel: KernelSpec,
        xi: float = 0.05,
        cross_fit: bool = False,
        grid_count: int | None = None,
    ):
        self.nuisance_kernel = nuisance_kernel
        self.outer_kernel = outer_kernel
        self.xi = xi
        self.cross_fit = cross_fit
        self.grid_count = grid_count

    def fit(self, dataset: Dataset, seed: int, truth=None) -> CqcFit:
        return fit_cqc(dataset, seed, self.nuisance_kernel, self.outer_kernel,
                       self.kind, self.xi, self.cross_fit, self.grid_count)


class IpwEstimator(DrEstimator):
    """IPW pseudo-outcome pipeline; pre-projection profiles must be monotone."""

    name = "ipw"
    kind = PseudoOutcomeKind.IPW


class SeparateEstimator:
    """Separate plug-in baseline on the full sample."""

    name = "separate"

    def __init__(self, kernel: KernelSpec):
        self.kernel = kernel

    def fit(self, dataset: Dataset, seed: int, truth=None) -> _SeparatePredictor:
        return _SeparatePredictor(CcdfEvaluator(self.kernel, dataset))


class OracleEstimator:
    """Main pipeline with exact nuisances; valid only with a simulation truth."""

    name = "oracle"

    def __init__(
        self,
        outer_kernel: KernelSpec,
        xi: float = 0.05,  # unused: exact propensities are never clipped
        grid_count: int | None = None,
    ):
        self.outer_kernel = outer_kernel
        self.grid_count = grid_count

    def fit(self, dataset: Dataset, seed: int, truth=None) -> CqcFit:
        if truth is None:
            raise ValueError("oracle estimator needs exact nuisances from a simulation")
        grid = build_grid(dataset, self.grid_count)
        contrast = fit_oracle_contrast(dataset, truth, self.outer_kernel)
        return CqcFit(contrast, grid)

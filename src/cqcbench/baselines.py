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
from .nuisance import XI, CcdfEvaluator, Dataset, _step_gather, step_quantile
from .pseudo import PseudoOutcomeKind


class DrEstimator:
    """Doubly robust pipeline packaged for the Monte-Carlo harness."""

    name = "dr"
    kind = PseudoOutcomeKind.DR

    def __init__(
        self,
        nuisance_kernel: KernelSpec,
        outer_kernel: KernelSpec,
        xi: float = XI,
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

    def fit(self, dataset: Dataset, seed: int, truth=None):
        ccdf = CcdfEvaluator(self.kernel, dataset)

        def predict(y0s, xs) -> np.ndarray:
            # F0(y0s[q] | xs[q]), read before arm 1's table is built, then
            # arm 1's generalised inverse at that level.
            y0s, xs = _queries(y0s, xs)
            alphas = _step_gather(ccdf.cumulative(0, xs), ccdf.arm_outcomes(0), y0s,
                                  np.arange(y0s.size))
            return step_quantile(ccdf.arm_outcomes(1), ccdf.cumulative(1, xs), alphas)

        return predict


class OracleEstimator:
    """Main pipeline with exact nuisances; valid only with a simulation truth."""

    name = "oracle"

    def __init__(
        self,
        outer_kernel: KernelSpec,
        xi: float = XI,  # unused: exact propensities are never clipped
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

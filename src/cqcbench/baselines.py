"""Comparison estimators and the uniform estimator harness contract.

Three baselines ship alongside the doubly robust estimator: a separate
plug-in that estimates the two arm CDFs independently and composes the
generalised inverse with the untreated CDF, an IPW pseudo-outcome variant of
the main pipeline, and the oracle that runs the main pipeline with exact
nuisances. Each estimator is a frozen record of its settings, and they
share one contract -- ``fit`` on a dataset and a seed, get back a batch
predictor -- so the Monte-Carlo runner treats all of them identically.

The separate plug-in and the oracle both use the full sample: the plug-in
has no pseudo-outcome stage to de-correlate, and the oracle's nuisances carry
no estimation noise, so sample splitting would only discard data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import (CqcFit, _queries, build_grid, cross_fit_contrast, fit_contrast,
                        fit_oracle_contrast)
from .kernels import KernelSpec
from .nuisance import XI, CcdfEvaluator, Dataset, _step_gather, make_split, step_quantile
from .pseudo import PseudoOutcomeKind


@dataclass(frozen=True)
class DrEstimator:
    """Doubly robust pipeline packaged for the Monte-Carlo harness: the record
    of its settings, which ``fit_cqc`` fits."""

    name = "dr"
    kind = PseudoOutcomeKind.DR

    nuisance_kernel: KernelSpec
    outer_kernel: KernelSpec
    xi: float = XI
    cross_fit: bool = False
    grid_count: int | None = None

    def fit(self, dataset: Dataset, seed: int, truth=None) -> CqcFit:
        return fit_cqc(self, dataset, seed)


def fit_cqc(estimator: DrEstimator, dataset: Dataset, seed: int) -> CqcFit:
    """The estimator: a contrast fit of ``estimator.kind`` (cross-fitted, or on
    ``make_split(dataset, seed)``), then ``build_grid``."""
    settings = (estimator.nuisance_kernel, estimator.outer_kernel, estimator.kind, estimator.xi)
    if estimator.cross_fit:
        contrast = cross_fit_contrast(dataset, seed, *settings)
    else:
        contrast = fit_contrast(dataset, make_split(dataset, seed), *settings)
    return CqcFit(contrast, build_grid(dataset, estimator.grid_count))


class IpwEstimator(DrEstimator):
    """IPW pseudo-outcome pipeline; pre-projection profiles must be monotone."""

    name = "ipw"
    kind = PseudoOutcomeKind.IPW


@dataclass(frozen=True)
class SeparateEstimator:
    """Separate plug-in baseline on the full sample."""

    name = "separate"

    kernel: KernelSpec

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


@dataclass(frozen=True)
class OracleEstimator:
    """Main pipeline with exact nuisances; valid only with a simulation truth."""

    name = "oracle"

    outer_kernel: KernelSpec
    xi: float = XI  # unused: exact propensities are never clipped
    grid_count: int | None = None

    def fit(self, dataset: Dataset, seed: int, truth=None) -> CqcFit:
        if truth is None:
            raise ValueError("oracle estimator needs exact nuisances from a simulation")
        grid = build_grid(dataset, self.grid_count)
        contrast = fit_oracle_contrast(dataset, truth, self.outer_kernel)
        return CqcFit(contrast, grid)

"""Scalar reference forms of the pseudo-outcomes, the contrast, the generalised
inverse and the separate plug-in.

The library forms pseudo-outcomes, smooths them and inverts the arm CDFs for
whole batches of queries with prefix sums and matrix products. These
references take one observation or one query at a time, call the nuisances'
batch evaluators ``propensity.many`` and ``ccdf.cdf_table`` at one point each
(``_pi`` and ``_cdf``), and weight the regression rows with
``resolve_weights``, so they share no batch arithmetic with the library's
profiles. ``step_quantile`` inverts one CDF at one level with
``searchsorted``, where the library counts entries row-wise. ``exact_h`` and
``exact_cqte`` read the CDF contrast and the CQTE off an exact (or fitted)
``ccdf``.
"""

import numpy as np

from cqcbench.kernels import as_rows, resolve_weights
from cqcbench.nuisance import CcdfEvaluator
from cqcbench.pseudo import PseudoOutcomeKind

QUANTILE_SLACK = 1e-9  # round-off allowance above the last cumulative mass


def _pi(propensity, x) -> float:
    """The propensity at one covariate row."""
    return float(propensity.many(np.reshape(x, (1, -1)))[0])


def _cdf(ccdf, arm: int, y: float, x) -> float:
    """F_arm(y | x) at one threshold and one covariate row."""
    return float(ccdf.cdf_table(arm, [y], np.reshape(x, (1, -1)))[0, 0])


def exact_h(ccdf, y0, y1, xs) -> np.ndarray:
    """h(y0, y1 | x) = F1(y1 | x) - F0(y0 | x) per x row; y0 and y1 broadcast against the rows."""
    rows = as_rows(xs)
    y0, y1 = (np.broadcast_to(y, len(rows)) for y in (y0, y1))
    return np.diagonal(ccdf.cdf_table(1, y1, rows)) - np.diagonal(ccdf.cdf_table(0, y0, rows))


def exact_cqte(ccdf, alpha: float, xs) -> np.ndarray:
    """The gap between the arms' alpha-quantiles, Q1(alpha | x) - Q0(alpha | x), per x row."""
    return np.array([ccdf.quantile(1, alpha, x) - ccdf.quantile(0, alpha, x) for x in as_rows(xs)])


def dr_pseudo(y: float, x, a: int, y0: float, y1: float, nuisance) -> float:
    """Doubly robust pseudo-outcome under fitted (or exact) nuisances: ``nuisance``
    is anything with a ``propensity`` and a ``ccdf``, such as a contrast
    replicate or a simulation truth.

    The indicator threshold follows the observation's own arm: y1 when
    treated, y0 when untreated.
    """
    pi = _pi(nuisance.propensity, x)
    y_a = y1 if a == 1 else y0
    f_own = _cdf(nuisance.ccdf, a, y_a, x)
    residual = ((a - pi) / (pi * (1.0 - pi))) * (float(y <= y_a) - f_own)
    return residual + _cdf(nuisance.ccdf, 1, y1, x) - _cdf(nuisance.ccdf, 0, y0, x)


def ipw_pseudo(y: float, x, a: int, y0: float, y1: float, propensity) -> float:
    """Inverse-propensity-weighted pseudo-outcome (no CDF residualisation)."""
    pi = _pi(propensity, x)
    y_a = y1 if a == 1 else y0
    return ((a - pi) / (pi * (1.0 - pi))) * float(y <= y_a)


def oracle_pseudo(y: float, x, a: int, y0: float, y1: float, exact_nuisance) -> float:
    """DR pseudo-outcome with exact nuisances; same code path as ``dr_pseudo``."""
    return dr_pseudo(y, x, a, y0, y1, exact_nuisance)


def scalar_contrast(rep, y0: float, y1: float, x) -> float:
    """One contrast replicate's h_hat(y0, y1 | x): its regression rows'
    pseudo-outcomes, one row at a time, NW-smoothed at x."""
    d2 = rep.data2
    rows = [(d2.y[j], d2.x[j], int(d2.a[j])) for j in range(d2.n)]
    if rep.kind is PseudoOutcomeKind.IPW:
        phi = [ipw_pseudo(y, xj, a, y0, y1, rep.propensity) for y, xj, a in rows]
    else:
        phi = [dr_pseudo(y, xj, a, y0, y1, rep) for y, xj, a in rows]
    return float(resolve_weights(rep.outer_kernel, x, d2.x) @ np.array(phi))


def step_quantile(jumps: np.ndarray, cum: np.ndarray, alpha: float) -> float:
    """Generalised inverse of one step CDF given its jump points and cumulative mass.

    Returns the smallest jump point whose cumulative mass reaches alpha; at
    alpha = 0 that is the smallest jump point. Mass short of alpha by at most
    ``QUANTILE_SLACK`` counts as reaching it at the last jump point.
    """
    pos = int(np.searchsorted(cum, alpha, side="left"))
    if pos >= cum.size:
        if alpha <= cum[-1] + QUANTILE_SLACK:
            pos = cum.size - 1
        else:
            raise ValueError(f"alpha={alpha} above attainable CDF mass {cum[-1]}")
    return float(jumps[pos])


def separate_plugin_cqc(dataset, kernel, y0: float, x) -> float:
    """Plug-in estimate: arm-1 generalised inverse at the arm-0 CDF value.

    Fits arm-masked NW step CDFs on the full sample; the returned value is
    always an observed treated outcome.
    """
    ccdf = CcdfEvaluator(kernel, dataset)
    alpha = _cdf(ccdf, 0, y0, x)
    weights = ccdf.weight_matrix(1, np.reshape(x, (1, -1)))[0]
    return step_quantile(ccdf.arm_outcomes(1), np.cumsum(weights), alpha)

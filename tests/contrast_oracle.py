"""Dense-indicator reference forms of the CDF and contrast-profile tables, and
the cross-fit built from two independently fitted replicates.

The library evaluates step CDFs and the contrast's treated-indicator term as
prefix sums gathered at insertion points. These references build the full
indicator matrices instead, 1{jump <= y} of shape (jumps, ys) and
1{y_j <= grid[l]} of shape (rows, grid), and reduce them with matrix
products, in the unmerged DR form

    (w a c) @ (1{y <= grid} - F1) + w @ F1 + s0.

They read only public state of the fitted objects, plus the propensity
re-evaluated on the regression rows.
"""

import numpy as np

from cqcbench.estimator import ContrastFit, fit_contrast
from cqcbench.kernels import nw_weight_matrix
from cqcbench.nuisance import make_split
from cqcbench.pseudo import PseudoOutcomeKind


def independent_cross_fit(dataset, seed, nuisance_kernel, outer_kernel, kind, xi=0.05) -> ContrastFit:
    """``cross_fit_contrast`` as two ``fit_contrast`` calls, one per role
    assignment, each evaluating its own nuisance kernels."""
    split = make_split(dataset, seed)
    reps = [fit_contrast(dataset, roles, nuisance_kernel, outer_kernel, kind, xi).replicates[0]
            for roles in (split, split[::-1])]
    return ContrastFit(replicates=tuple(reps))


def dense_cdf_table(ccdf, arm, ys, queries) -> np.ndarray:
    ys = np.asarray(ys, dtype=float).reshape(-1)
    jumps = ccdf.arm_outcomes(arm)
    indicators = (jumps[:, None] <= ys[None, :]).astype(float)
    return np.clip(ccdf.weight_matrix(arm, queries) @ indicators, 0.0, 1.0)


def dense_profile_many(rep, y0s, grid, xs) -> np.ndarray:
    """Profiles of one replicate with fitted (DR or IPW) nuisances."""
    d2 = rep.data2
    a = d2.a.astype(float)
    pi = np.asarray(rep.propensity.many(d2.x), dtype=float)
    c = (a - pi) / (pi * (1.0 - pi))
    w_out = nw_weight_matrix(rep.outer_kernel, xs, d2.x)
    ind1 = (d2.y[:, None] <= grid[None, :]).astype(float)
    ind0 = (d2.y[:, None] <= y0s[None, :]).astype(float)
    ac = a * c
    un = (1.0 - a) * c
    if rep.kind is PseudoOutcomeKind.IPW:
        s0 = np.einsum("qj,jq->q", w_out, un[:, None] * ind0)
        return (w_out * ac[None, :]) @ ind1 + s0[:, None]
    f1_grid = dense_cdf_table(rep.ccdf, 1, grid, d2.x)
    f0_q = dense_cdf_table(rep.ccdf, 0, y0s, d2.x)
    t0 = un[:, None] * (ind0 - f0_q) - f0_q
    s0 = np.einsum("qj,jq->q", w_out, t0)
    return (w_out * ac[None, :]) @ (ind1 - f1_grid) + w_out @ f1_grid + s0[:, None]

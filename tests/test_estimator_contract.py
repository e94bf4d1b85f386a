"""The estimator layer's array rules, run against every contrast kind: DR and
IPW, each with one split and cross-fitted, and the oracle, on the
illustrative (d = 1) and tendim (d = 10) families.

Thresholds (an estimator's y0s, a profile grid, a surface's y axis) enter
through ``nuisance.as_thresholds`` and covariates through
``kernels.as_rows``, so every malformed call raises one message, naming the
caller's own index, from every kind. The separate plug-in's predictor joins
the calls that take a predictor."""

from functools import lru_cache

import numpy as np
import pytest

from cqcbench.baselines import DrEstimator, IpwEstimator, OracleEstimator, SeparateEstimator
from cqcbench.estimator import ContrastFit, cqc_to_cqte, estimate_cqc_many, surface_eval
from cqcbench.kernels import KernelSpec
from cqcbench.nuisance import CcdfEvaluator
from cqcbench.pseudo import PseudoOutcomeKind
from cqcbench.simlab import DgpSpec, sample_dgp, sample_holdout, truth

FAMILIES = ("illustrative", "tendim")
# Ten covariates lie farther apart than one, so tendim's kernels are wider.
SPECS = {"illustrative": (DgpSpec("illustrative", gamma=2.0), 0.08, 0.15),
         "tendim": (DgpSpec("tendim", gamma=1.0, seed=3), 0.8, 1.5)}
CONTRAST_KINDS = ("dr", "dr-cross-fit", "ipw", "ipw-cross-fit", "oracle")
PREDICTOR_KINDS = CONTRAST_KINDS + ("separate",)


def estimator(kind, nk, ok):
    return {"dr": DrEstimator(nk, ok), "dr-cross-fit": DrEstimator(nk, ok, cross_fit=True),
            "ipw": IpwEstimator(nk, ok), "ipw-cross-fit": IpwEstimator(nk, ok, cross_fit=True),
            "oracle": OracleEstimator(ok), "separate": SeparateEstimator(nk)}[kind]


@lru_cache(maxsize=None)
def fitted(family):
    """The family's n = 300 data, 12 holdout queries (y0s, rows), the
    untreated quantiles of a fitted CDF, and each kind's predictor. The calls
    under test only read them."""
    spec, h_nuisance, h_outer = SPECS[family]
    nk, ok = KernelSpec("gaussian", h_nuisance), KernelSpec("gaussian", h_outer)
    data = sample_dgp(spec, 300, seed=4)
    y0s, rows = sample_holdout(spec, 12, seed=6)
    ccdf = CcdfEvaluator(nk, data)
    predictors = {kind: estimator(kind, nk, ok).fit(data, seed=4, truth=truth(spec))
                  for kind in PREDICTOR_KINDS}
    return data, y0s, rows, (lambda alphas, x: ccdf.quantile(0, alphas, x)), predictors


def with_bad(values, index, bad):
    """A copy of thresholds or covariate rows with ``bad`` at ``index`` (a row's last covariate)."""
    values = np.array(values, dtype=float)
    values[(index, -1)[: values.ndim]] = bad
    return values


def wide(rows):
    return np.c_[rows, rows[:, :1]]


# Each call, as (name, call(fit, y0s, rows, arm0_quantile), the kinds it takes).
# A contrast call reads ``fit.contrast``; its grid is the fit's first 20 points.
def profile(fit, y0s, rows, grid=None):
    return fit.contrast.profile_many(y0s, fit.grid[:20] if grid is None else grid, rows)


CALLS = {
    "profile_many": (profile, CONTRAST_KINDS),
    "y0_terms": (lambda fit, y0s, rows: fit.contrast.y0_terms(y0s, rows), CONTRAST_KINDS),
    "estimate_cqc_many": (lambda fit, y0s, rows: estimate_cqc_many(fit.contrast, fit.grid, y0s, rows),
                          CONTRAST_KINDS),
    "predictor": (lambda fit, y0s, rows: fit(y0s, rows), PREDICTOR_KINDS),
}
BAD_COVARIATES = (("NaN", np.nan), ("inf", np.inf), ("-inf", -np.inf))

# (name, call(fit, y0s, rows, arm0_quantile), kinds, expected message). The
# covariate row or threshold at fault is at index 2 unless the name says otherwise.
MALFORMED = []
for call_name, (call, kinds) in CALLS.items():
    MALFORMED += [
        (f"{call_name} NaN y0", lambda f, y, r, q, call=call: call(f, with_bad(y, 2, np.nan), r),
         kinds, "threshold 2 is NaN"),
        (f"{call_name} wrong width", lambda f, y, r, q, call=call: call(f, y, wide(r)),
         kinds, "dimension mismatch: {wide} vs {d}"),
        (f"{call_name} unpaired", lambda f, y, r, q, call=call: call(f, y[:-1], r),
         kinds, "y0s and xs must pair up one query per row"),
    ]
    for label, bad in BAD_COVARIATES:
        MALFORMED.append((f"{call_name} {label} row",
                          lambda f, y, r, q, call=call, bad=bad: call(f, y, with_bad(r, 2, bad)),
                          kinds, "covariate row 2 is not finite"))
MALFORMED += [
    ("profile_many NaN grid point",
     lambda f, y, r, q: profile(f, y, r, with_bad(f.grid[:20], 1, np.nan)),
     CONTRAST_KINDS, "threshold 1 is NaN"),
    ("estimate_cqc_many NaN grid point",
     lambda f, y, r, q: estimate_cqc_many(f.contrast, with_bad(f.grid, 1, np.nan), y, r),
     CONTRAST_KINDS, "threshold 1 is NaN"),
    ("estimate_cqc_many infinite grid point",
     lambda f, y, r, q: estimate_cqc_many(f.contrast, with_bad(f.grid, 1, np.inf), y, r),
     CONTRAST_KINDS, "evaluation grid point 1 is infinite"),
    ("estimate_cqc_many repeated grid point at 3",
     lambda f, y, r, q: estimate_cqc_many(f.contrast, with_bad(f.grid, 3, f.grid[2]), y, r),
     CONTRAST_KINDS, "evaluation grid point 3 is not above the one before it"),
    ("surface_eval NaN y", lambda f, y, r, q: surface_eval(f, with_bad(y[:5], 3, np.nan), r[:4]),
     PREDICTOR_KINDS, "threshold 3 is NaN"),
    ("surface_eval wrong width", lambda f, y, r, q: surface_eval(f, y[:5], wide(r[:4])),
     PREDICTOR_KINDS, "dimension mismatch: {wide} vs {d}"),
    ("cqc_to_cqte wrong width", lambda f, y, r, q: cqc_to_cqte(f, q, [0.25, 0.5], wide(r[:4])),
     PREDICTOR_KINDS, "dimension mismatch: {wide} vs {d}"),
]
for label, bad in BAD_COVARIATES:
    MALFORMED += [
        (f"surface_eval {label} x", lambda f, y, r, q, bad=bad: surface_eval(
            f, y[:5], with_bad(r[:4], 2, bad)), PREDICTOR_KINDS, "covariate row 2 is not finite"),
        (f"cqc_to_cqte {label} x at row 3", lambda f, y, r, q, bad=bad: cqc_to_cqte(
            f, q, [0.25, 0.5], with_bad(r[:4], 3, bad)), PREDICTOR_KINDS,
         "covariate row 3 is not finite"),
    ]


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name, call, kinds, message", MALFORMED,
                         ids=[case[0] for case in MALFORMED])
def test_malformed_call_raises_one_message_from_every_kind(family, name, call, kinds, message):
    _, y0s, rows, arm0_quantile, predictors = fitted(family)
    d = rows.shape[1]
    raised = {}
    for kind in kinds:
        with pytest.raises(ValueError) as info:
            call(predictors[kind], y0s, rows, arm0_quantile)
        raised[kind] = str(info.value)
    assert raised == {kind: message.format(wide=d + 1, d=d) for kind in kinds}


@pytest.mark.parametrize("family", FAMILIES)
def test_infinite_y0_is_a_limit_in_every_predictor(family):
    # -inf answers with the smallest treated outcome, the first grid point.
    data, _, rows, _, predictors = fitted(family)
    for kind in PREDICTOR_KINDS:
        g_hat = predictors[kind]([-np.inf, np.inf], rows[:2])
        assert g_hat[0] == data.y[data.a == 1].min() and np.isfinite(g_hat[1]), kind


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", CONTRAST_KINDS)
def test_permuted_grid_gives_permuted_columns(family, kind):
    # A grid in any order, limits included; IPW's monotonicity check reads
    # only the nondecreasing steps. A fitted mix gathers its grid columns
    # after its GEMM, so they keep their bits. The exact mix multiplies a
    # table whose columns are the grid points, and OpenBLAS picks its kernel
    # by column position, so the oracle's columns agree to an ulp.
    _, y0s, rows, _, predictors = fitted(family)
    fit = predictors[kind]
    grid = np.r_[-np.inf, fit.grid[::4], np.inf]
    profiles = profile(fit, y0s, rows, grid)
    for order in (np.random.default_rng(2).permutation(grid.size), np.arange(grid.size)[::-1]):
        permuted = profile(fit, y0s, rows, grid[order])
        if kind == "oracle":
            np.testing.assert_allclose(permuted, profiles[:, order], rtol=0, atol=1e-15)
        else:
            assert permuted.tobytes() == profiles[:, order].tobytes()


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", ("ipw", "ipw-cross-fit"))
def test_ipw_rows_never_fall_along_a_sorted_grid_with_repeats(family, kind):
    _, y0s, rows, _, predictors = fitted(family)
    grid = predictors[kind].grid
    profiles = profile(predictors[kind], y0s, rows, np.sort(np.r_[grid, grid[::3], grid[:2]]))
    assert (np.diff(profiles, axis=1) >= 0.0).all()


class FallingIpw:
    """An IPW replicate whose profile falls as the grid point rises: the bug
    that ``ContrastFit``'s monotonicity check reports."""

    kind = PseudoOutcomeKind.IPW

    def profile_many(self, y0s, grid, xs):
        return np.tile(-grid, (y0s.size, 1))


def test_ipw_check_flags_a_fall_only_between_rising_grid_points():
    contrast = ContrastFit((FallingIpw(),))
    profiles = contrast.profile_many([0.0], [2.0, 1.0, 1.0, 0.0], [[0.5]])
    assert profiles.tolist() == [[-2.0, -1.0, -1.0, 0.0]]
    for grid in ([0.0, 1.0], [1.0, 0.0, 2.0]):
        with pytest.raises(AssertionError, match="not monotone before projection"):
            contrast.profile_many([0.0], grid, [[0.5]])


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("kind", CONTRAST_KINDS)
def test_profile_minus_y0_term_does_not_depend_on_y0(family, kind):
    # At each of three covariate rows, eight y0 levels (limits included).
    data, _, rows, _, predictors = fitted(family)
    contrast = predictors[kind].contrast
    levels = np.r_[-np.inf, np.quantile(data.y, [0.1, 0.3, 0.5, 0.7, 0.9]), data.y.max(), np.inf]
    y0s, xs = np.tile(levels, 3), np.repeat(rows[:3], levels.size, axis=0)
    rest = (contrast.profile_many(y0s, predictors[kind].grid, xs)
            - contrast.y0_terms(y0s, xs)[:, None]).reshape(3, levels.size, -1)
    np.testing.assert_allclose(rest, np.broadcast_to(rest[:, :1], rest.shape), rtol=0, atol=1e-12)

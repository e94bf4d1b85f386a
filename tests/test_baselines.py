import dataclasses

import numpy as np
import pytest

from scalar_oracle import separate_plugin_cqc

from cqcbench.baselines import (DrEstimator, IpwEstimator, OracleEstimator, SeparateEstimator,
                                fit_cqc)
from cqcbench.estimator import build_grid, fit_contrast
from cqcbench.isotonic import pava_project
from cqcbench.kernels import KernelSpec
from cqcbench.nuisance import CcdfEvaluator, Dataset, make_split
from cqcbench.simlab import DgpSpec, sample_dgp, sample_holdout, truth

NK = KernelSpec("gaussian", 0.1)
OK = KernelSpec("gaussian", 0.15)
WIDE_BOX = KernelSpec("box", 100.0)


def step_dataset():
    """Arm-1 outcomes {1,2,3,4}; arm-0 outcomes place y0=0.5 at CDF 1/2."""
    y = np.array([1.0, 2.0, 3.0, 4.0, 0.0, 1.0])
    x = np.zeros((6, 1))
    a = np.array([1, 1, 1, 1, 0, 0])
    return Dataset(y, x, a)


def test_separate_plugin_step_inverse_by_hand():
    # F0(0.5) = 0.5; the first arm-1 outcome with CDF >= 0.5 is 2.
    assert separate_plugin_cqc(step_dataset(), WIDE_BOX, 0.5, np.array([0.0])) == 2.0


def test_separate_plugin_below_support_returns_smallest_treated():
    assert separate_plugin_cqc(step_dataset(), WIDE_BOX, -5.0, np.array([0.0])) == 1.0


def test_separate_plugin_equal_arms_tracks_empirical_quantile():
    y = np.array([1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0, 4.0])
    data = Dataset(y, np.zeros((8, 1)), np.array([1, 1, 1, 1, 0, 0, 0, 0]))
    for y0, expected in [(1.0, 1.0), (2.5, 2.0), (4.0, 4.0)]:
        assert separate_plugin_cqc(data, WIDE_BOX, y0, np.array([0.0])) == expected


def test_separate_plugin_output_is_observed_treated_outcome():
    data = sample_dgp(DgpSpec("illustrative", gamma=2.0), 150, seed=0)
    treated = set(data.y[data.a == 1].tolist())
    rng = np.random.default_rng(1)
    for _ in range(20):
        value = separate_plugin_cqc(data, NK, float(rng.normal()), rng.uniform(0, 1, 1))
        assert value in treated


def test_ipw_cqc_runs_end_to_end():
    data = sample_dgp(DgpSpec("illustrative", gamma=2.0), 200, seed=3)
    grid = build_grid(data)
    predictor = IpwEstimator(NK, OK, xi=0.05).fit(data, seed=3)
    value = predictor(np.array([0.2]), np.array([[0.5]]))[0]
    assert grid.min() <= value <= grid.max()


def test_ipw_profile_projection_is_noop():
    data = sample_dgp(DgpSpec("illustrative", gamma=2.0), 200, seed=5)
    contrast = fit_contrast(data, make_split(data, 5), NK, OK, kind="ipw")
    grid = build_grid(data)
    profile = contrast.profile_many([0.2], grid, [[0.5]])[0]
    assert np.all(np.diff(profile) >= -1e-9)
    np.testing.assert_array_equal(pava_project(profile).projected, profile)


def test_oracle_dr_cqc_deterministic():
    spec = DgpSpec("illustrative", gamma=2.0)
    data = sample_dgp(spec, 200, seed=7)
    oracle = truth(spec)
    a, b = (
        OracleEstimator(OK).fit(data, seed=7, truth=oracle)(np.array([0.3]), np.array([[0.5]]))
        for _ in range(2)
    )
    assert a.tobytes() == b.tobytes()


def test_estimators_share_harness_contract():
    spec = DgpSpec("illustrative", gamma=2.0)
    data = sample_dgp(spec, 240, seed=9)
    oracle = truth(spec)
    y0s = np.array([0.0, 0.4, 1.2])
    xs = np.array([[0.2], [0.5], [0.8]])
    estimators = [
        DrEstimator(NK, OK, cross_fit=True),
        IpwEstimator(NK, OK),
        SeparateEstimator(NK),
        OracleEstimator(OK),
    ]
    names = [est.name for est in estimators]
    assert names == ["dr", "ipw", "separate", "oracle"]
    for est in estimators:
        predictor = est.fit(data, seed=9, truth=oracle)
        g_hat = predictor(y0s, xs)
        assert g_hat.shape == (3,)
        assert np.isfinite(g_hat).all()
        assert (g_hat >= data.y[data.a == 1].min()).all()
        assert (g_hat <= data.y[data.a == 1].max()).all()


def test_estimators_are_frozen_records_that_fit_cqc_fits():
    # A setting cannot change between two fits, every one shows in the repr,
    # and a DR or IPW record's fit is fit_cqc of the record, bit for bit.
    records = [DrEstimator(NK, OK, 0.1, True, 7), IpwEstimator(NK, OK, grid_count=9),
               SeparateEstimator(NK), OracleEstimator(OK, 0.2, 5)]
    for record in records:
        for field in dataclasses.fields(record):
            value = getattr(record, field.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, field.name, value)
            assert f"{field.name}={value!r}" in repr(record), field.name
    spec = DgpSpec("illustrative", gamma=2.0)
    data = sample_dgp(spec, 240, seed=9)
    y0s, xs = sample_holdout(spec, 20, seed=10)
    for make in (DrEstimator, IpwEstimator):
        for cross_fit in (False, True):
            record = make(NK, OK, cross_fit=cross_fit)
            g_hat = record.fit(data, seed=9)(y0s, xs)
            assert fit_cqc(record, data, 9)(y0s, xs).tobytes() == g_hat.tobytes(), record


def test_a_treatment_column_fits_as_the_flat_vector():
    # Dataset flattens ``a``, so an (n, 1) column is the same dataset.
    spec = DgpSpec("illustrative", gamma=2.0)
    data = sample_dgp(spec, 240, seed=9)
    column = Dataset(data.y, data.x, data.a[:, None])
    y0s, xs = sample_holdout(spec, 20, seed=10)
    for est in (DrEstimator(NK, OK, cross_fit=True), IpwEstimator(NK, OK), SeparateEstimator(NK)):
        flat_g = est.fit(data, seed=9)(y0s, xs)
        assert est.fit(column, seed=9)(y0s, xs).tobytes() == flat_g.tobytes()


def test_oracle_estimator_requires_truth():
    data = sample_dgp(DgpSpec("illustrative", gamma=2.0), 100, seed=0)
    with pytest.raises(ValueError):
        OracleEstimator(OK).fit(data, seed=0, truth=None)


def test_separate_predictor_matches_pointwise_function():
    data = sample_dgp(DgpSpec("illustrative", gamma=2.0), 150, seed=2)
    predictor = SeparateEstimator(NK).fit(data, seed=2)
    y0s = np.array([-0.3, 0.5, 1.4])
    xs = np.array([[0.1], [0.5], [0.9]])
    batch = predictor(y0s, xs)
    for q in range(3):
        assert batch[q] == separate_plugin_cqc(data, NK, float(y0s[q]), xs[q])


def test_separate_predictor_reads_f0_at_tied_jumps_and_beyond_both_ends():
    # Rounded outcomes tie within arm 0, so F0 steps by several rows' weight at
    # one jump point. The queries sit on every distinct arm-0 jump point (the
    # step's right-continuous value), below the smallest and above the largest.
    data = sample_dgp(DgpSpec("illustrative", gamma=2.0), 300, seed=4)
    data = Dataset(np.round(data.y, 1), data.x, data.a)
    jumps0 = np.unique(data.y[data.a == 0])
    assert jumps0.size < np.count_nonzero(data.a == 0)  # ties
    y0s = np.r_[jumps0, jumps0[0] - 1.0, jumps0[-1] + 1.0]
    xs = np.random.default_rng(8).uniform(0.0, 1.0, (y0s.size, 1))
    batch = SeparateEstimator(NK).fit(data, seed=0)(y0s, xs)
    expected = [separate_plugin_cqc(data, NK, float(y0), x) for y0, x in zip(y0s, xs)]
    assert batch.tolist() == expected


@pytest.mark.parametrize("estimator", [
    DrEstimator(NK, OK, cross_fit=False), DrEstimator(NK, OK, cross_fit=True),
    IpwEstimator(NK, OK, cross_fit=False), IpwEstimator(NK, OK, cross_fit=True),
    SeparateEstimator(NK),
], ids=["dr", "dr-cross-fit", "ipw", "ipw-cross-fit", "separate"])
def test_outcome_scaling_by_a_power_of_two_scales_estimates_exactly(estimator):
    # Scaling outcomes by 2^k leaves every indicator, weight and CDF value
    # unchanged and scales the grid exactly, so fit(2^k y)(2^k y0, x) is
    # 2^k fit(y)(y0, x) bit for bit. Queries: distinct x rows, then runs of
    # nine y0 levels at each of three x rows.
    spec = DgpSpec("illustrative", gamma=4.0)
    data = sample_dgp(spec, 400, seed=5)
    y0s, xs = sample_holdout(spec, 40, seed=6)
    y0s = np.r_[y0s, np.tile(np.linspace(-1.0, 3.0, 9), 3)]
    xs = np.r_[xs, np.repeat([[0.2], [0.5], [0.8]], 9, axis=0)]
    g_hat = estimator.fit(data, seed=5)(y0s, xs)
    for k in (-3, -1, 1, 5):
        scaled = Dataset(data.y * 2.0**k, data.x, data.a)
        g_scaled = estimator.fit(scaled, seed=5)(y0s * 2.0**k, xs)
        assert g_scaled.tobytes() == (g_hat * 2.0**k).tobytes()


SCALED_ESTIMATORS = {
    "dr": lambda nk, ok: DrEstimator(nk, ok, cross_fit=False),
    "dr-cross-fit": lambda nk, ok: DrEstimator(nk, ok, cross_fit=True),
    "ipw": lambda nk, ok: IpwEstimator(nk, ok, cross_fit=False),
    "ipw-cross-fit": lambda nk, ok: IpwEstimator(nk, ok, cross_fit=True),
    "separate": lambda nk, ok: SeparateEstimator(nk),
}


@pytest.mark.parametrize("family, kernel, bandwidths", [
    ("illustrative", "gaussian", (0.1, 0.15)), ("illustrative", "box", (0.1, 0.15)),
    ("tendim", "gaussian", (0.8, 1.5)), ("tendim", "box", (1.8, 2.2)),
])
@pytest.mark.parametrize("name", list(SCALED_ESTIMATORS))
def test_covariate_and_bandwidth_scaling_by_a_power_of_two_keeps_estimates_exactly(
        name, family, kernel, bandwidths):
    # Scaling covariates and both bandwidths by 2^k scales every squared
    # distance and h^2 by 4^k exactly, so every kernel value, and so every
    # estimate, keeps its bits. Queries: distinct x rows, then runs of nine
    # y0 levels at each of three x rows.
    spec = DgpSpec(family, gamma=1.0, seed=3) if family == "tendim" else DgpSpec(family, gamma=4.0)
    data = sample_dgp(spec, 600, seed=5)
    y0s, xs = sample_holdout(spec, 60, seed=6)
    y0s = np.r_[y0s, np.tile(np.linspace(*np.percentile(data.y, [10, 90]), 9), 3)]
    xs = np.r_[xs, np.repeat(xs[:3], 9, axis=0)]
    make = SCALED_ESTIMATORS[name]
    nk, ok = (KernelSpec(kernel, h) for h in bandwidths)
    g_hat = make(nk, ok).fit(data, seed=5)(y0s, xs)
    for k in (-3, 1, 2):
        nk, ok = (KernelSpec(kernel, h * 2.0**k) for h in bandwidths)
        scaled = Dataset(data.y, data.x * 2.0**k, data.a)
        assert make(nk, ok).fit(scaled, seed=5)(y0s, xs * 2.0**k).tobytes() == g_hat.tobytes()


def _increasing_maps(levels):
    """Strictly increasing outcome maps T. Ranks are over ``levels``, the sorted
    finite values that T meets; each map keeps -inf below and +inf above them."""
    return {
        "rank": lambda v: np.where(np.isinf(v), v, np.searchsorted(levels, v).astype(float)),
        "exp": lambda v: np.exp(v / 0.7),  # -inf goes to 0, below every exp(y)
        "odd-polynomial": lambda v: 0.5 * v + v**3 + 0.1 * v**5,
    }


@pytest.mark.parametrize("kernel", ["gaussian", "box"])
@pytest.mark.parametrize("name", list(SCALED_ESTIMATORS))
def test_strictly_increasing_outcome_map_carries_every_estimate_exactly(name, kernel):
    # Outcomes enter only through comparisons (indicators, searchsorted gathers,
    # step quantiles), and the grid is the treated outcomes, so for a strictly
    # increasing T, fit(T(y))(T(y0), x) is T(fit(y)(y0, x)) bit for bit, and so
    # is a fitted arm-0 quantile. The oracle, a uniform grid, an 'N' y axis and
    # CQTE differences compute with outcome values, and are not covered.
    # Queries: distinct x rows, runs of nine y0 levels at three x rows, the
    # fitted arm-0 quantiles that cqc_to_cqte queries at those rows, and +-inf.
    spec = DgpSpec("illustrative", gamma=4.0)
    data = sample_dgp(spec, 300, seed=5)
    nk, ok = KernelSpec(kernel, 0.1), KernelSpec(kernel, 0.15)
    alphas, run_xs = [0.1, 0.5, 0.9], np.array([[0.2], [0.5], [0.8]])

    def arm0_quantiles(dataset):
        return np.concatenate([CcdfEvaluator(nk, dataset).quantile(0, alphas, x) for x in run_xs])

    quantiles = arm0_quantiles(data)
    y0s, xs = sample_holdout(spec, 30, seed=6)
    y0s = np.r_[y0s, np.tile(np.linspace(-1.0, 3.0, 9), 3), quantiles, -np.inf, np.inf]
    xs = np.r_[xs, np.repeat(run_xs, 9, axis=0), np.repeat(run_xs, 3, axis=0), run_xs[:2]]
    make = SCALED_ESTIMATORS[name]
    g_hat = make(nk, ok).fit(data, seed=5)(y0s, xs)
    levels = np.unique(np.r_[data.y, y0s[np.isfinite(y0s)]])
    for label, transform in _increasing_maps(levels).items():
        assert np.all(np.diff(transform(levels)) > 0), label  # injective on the data
        mapped = Dataset(transform(data.y), data.x, data.a)
        assert arm0_quantiles(mapped).tobytes() == transform(quantiles).tobytes(), label
        g_mapped = make(nk, ok).fit(mapped, seed=5)(transform(y0s), xs)
        assert g_mapped.tobytes() == transform(g_hat).tobytes(), label

import numpy as np
import pytest

from scalar_oracle import separate_plugin_cqc

from cqcbench.baselines import DrEstimator, IpwEstimator, OracleEstimator, SeparateEstimator
from cqcbench.estimator import build_grid, fit_contrast
from cqcbench.isotonic import pava_project
from cqcbench.kernels import KernelSpec
from cqcbench.nuisance import Dataset, make_split
from cqcbench.simlab import DgpSpec, sample_dgp, truth

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

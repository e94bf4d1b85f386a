import numpy as np
import pytest
from scipy.special import ndtri

from cqcbench import simlab
from cqcbench.baselines import DrEstimator, OracleEstimator, SeparateEstimator
from cqcbench.kernels import DegenerateMassError, KernelSpec
from cqcbench.nuisance import CcdfEvaluator, SingleArmError
from cqcbench.simlab import (
    FAMILIES,
    DgpSpec,
    run_experiment,
    sample_dgp,
    sample_holdout,
    truth,
)
from dgp_draws import draw_given_x
from margins import at_most, below, holds
from scalar_oracle import exact_cqte, exact_h

NK = KernelSpec("gaussian", 0.08)
OK = KernelSpec("gaussian", 0.12)


def test_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec("mystery")
    with pytest.raises(ValueError):
        DgpSpec("illustrative", gamma=-1.0)
    # The dimension and the tendim projection follow from the family and seed.
    assert DgpSpec("illustrative").dim == 1 and DgpSpec("illustrative").beta is None
    assert DgpSpec("tendim").dim == 10
    with pytest.raises(TypeError):
        DgpSpec("illustrative", dim=10)
    with pytest.raises(TypeError):
        DgpSpec("tendim", beta=np.ones(10))


def test_tendim_beta_frozen_per_seed():
    a = DgpSpec("tendim", gamma=1.0, seed=4)
    b = DgpSpec("tendim", gamma=1.0, seed=4)
    c = DgpSpec("tendim", gamma=1.0, seed=5)
    np.testing.assert_array_equal(a.beta, b.beta)
    assert not np.array_equal(a.beta, c.beta)
    assert a.beta.shape == (10,)


def flat_gamma_arm0_margins(base_seed=0):
    data = sample_dgp(DgpSpec("illustrative", gamma=0.0), 4000, seed=base_seed)
    arm0 = data.y[data.a == 0]
    return {"|mean| < 4/sqrt(n)": below(abs(arm0.mean()), 4.0 / np.sqrt(arm0.size)),
            "|sd - 1| <= 0.1": at_most(abs(arm0.std() - 1.0), 0.1)}


def test_sample_flat_gamma_arm0_is_standard_normal():
    margins = flat_gamma_arm0_margins()
    assert holds(margins), margins


def test_sample_uniform_family_support():
    data = sample_dgp(DgpSpec("uniform_h", gamma=0.0), 500, seed=1)
    arm0 = data.y[data.a == 0]
    arm1 = data.y[data.a == 1]
    assert (arm0 >= 0.0).all() and (arm0 <= 1.0).all()
    assert (arm1 >= 0.0).all() and (arm1 <= 2.0).all()


def treated_fraction_margins(base_seed=2):
    spec = DgpSpec("illustrative", gamma=6.0)
    data = sample_dgp(spec, 6000, seed=base_seed)
    pi = truth(spec).propensity.many(data.x)
    return {"|treated share - mean pi| <= 4/sqrt(n)":
            at_most(abs(data.a.mean() - pi.mean()), 4.0 / np.sqrt(data.n))}


def test_sample_treated_fraction_tracks_mean_propensity():
    margins = treated_fraction_margins()
    assert holds(margins), margins


def test_sample_deterministic_and_seed_sensitive():
    spec = DgpSpec("illustrative", gamma=3.0)
    d1 = sample_dgp(spec, 50, seed=9)
    d2 = sample_dgp(spec, 50, seed=9)
    np.testing.assert_array_equal(d1.y, d2.y)
    d3 = sample_dgp(spec, 50, seed=10)
    assert not np.array_equal(d1.y, d3.y)


def test_sample_too_small_raises():
    with pytest.raises(ValueError):
        sample_dgp(DgpSpec("illustrative"), 3, seed=0)


def test_truth_doubling_map():
    oracle = truth(DgpSpec("illustrative", gamma=6.0))
    for x in (0.0, 0.3, 0.9):
        g_val = oracle.g(0.7, np.array([[x]]))[0]
        assert g_val == pytest.approx(1.4)
        # the signed gap of the doubling map is the input itself
        assert g_val - 0.7 == pytest.approx(0.7)


def test_truth_linear_family_map():
    oracle = truth(DgpSpec("linear_cqc", gamma=6.0))
    assert oracle.g(1.0, np.array([[0.0]]))[0] == pytest.approx(2.25)


def test_truth_uniform_contrast_value():
    oracle = truth(DgpSpec("uniform_h", gamma=0.0))
    assert exact_h(oracle.ccdf, 0.2, 1.0, np.array([[0.5]]))[0] == pytest.approx(0.3)


def test_truth_uniform_contrast_constant_across_x():
    # Inside both arms' supports, [s, s+1] and [2s, 2s+2], the contrast is
    # F1(2s + 1.0) - F0(s + 0.2) = 0.5 - 0.2 at every x.
    oracle = truth(DgpSpec("uniform_h", gamma=6.0))
    xs = np.linspace(0, 1, 10)
    s = np.sin(6.0 * np.pi * xs)
    np.testing.assert_allclose(exact_h(oracle.ccdf, s + 0.2, 2.0 * s + 1.0, xs), 0.3, atol=1e-12)


def test_truth_propensity_range():
    for family in FAMILIES:
        spec = DgpSpec(family, gamma=6.0 if family != "tendim" else 2.0)
        oracle = truth(spec)
        xs = sample_dgp(spec, 500, seed=3).x
        pi = oracle.propensity.many(xs)
        assert (pi >= 0.1 - 1e-12).all() and (pi <= 0.9 + 1e-12).all()


def test_truth_quantile_matches_scipy():
    oracle = truth(DgpSpec("illustrative", gamma=2.0))
    x = np.array([0.3])
    s = np.sin(2.0 * np.pi * 0.3)
    assert oracle.ccdf.quantile(0, 0.8, x) == pytest.approx(s + ndtri(0.8))
    assert oracle.ccdf.quantile(1, 0.8, x) == pytest.approx(2 * s + 2 * ndtri(0.8))


@pytest.mark.parametrize("source", ["fitted", "exact"])
def test_ccdf_quantile_contract_is_shared(source):
    spec = DgpSpec("illustrative", gamma=2.0)
    if source == "fitted":
        ccdf = CcdfEvaluator(NK, sample_dgp(spec, 200, seed=1))
    else:
        ccdf = truth(spec).ccdf
    x = np.array([0.3])
    assert ccdf.quantile(0, [0.25, 0.5, 0.75], x).shape == (3,)
    assert np.ndim(ccdf.quantile(0, 0.5, x)) == 0
    with pytest.raises(ValueError):
        ccdf.quantile(0, 1.5, x)


def _plug_in_setup(source, arm):
    spec = DgpSpec("illustrative", gamma=2.0)
    data = sample_dgp(spec, 200, seed=3)
    ccdf = CcdfEvaluator(NK, data) if source == "fitted" else truth(spec).ccdf
    points = np.sort(data.y[data.a == arm])
    # Jump points with repeats, between them, and beyond both ends.
    ys = np.concatenate([points[:5], points[:5], points[::7] + 1e-3, [points[0] - 1, points[-1] + 1]])
    return ccdf, ys


@pytest.mark.parametrize("source", ["fitted", "exact"])
def test_ccdf_mixer_is_weighted_sum_of_cdf_table(source):
    # The first plug-in mixes arm 1's CDF table over signed row weights.
    ccdf, ys = _plug_in_setup(source, 1)
    rng = np.random.default_rng(5)
    rows = rng.uniform(0.0, 1.0, (40, 1))
    u = rng.normal(size=(6, rows.shape[0]))  # signed mixing weights
    mix, _ = ccdf.plug_ins(rows)
    for grid in (np.sort(ys), ys, ys[:1]):
        np.testing.assert_allclose(mix(u, grid), u @ ccdf.cdf_table(1, grid, rows), rtol=0, atol=1e-12)


@pytest.mark.parametrize("source", ["fitted", "exact"])
def test_ccdf_tabulator_is_cdf_table(source):
    # The second plug-in is arm 0's CDF table, bit for bit.
    ccdf, ys = _plug_in_setup(source, 0)
    rows = np.random.default_rng(6).uniform(0.0, 1.0, (40, 1))
    _, table = ccdf.plug_ins(rows)
    for grid in (np.sort(ys), ys, ys[:1]) * 2:  # later calls see the kept state unchanged
        assert table(grid).tobytes() == ccdf.cdf_table(0, grid, rows).tobytes()


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_cdf_table_matches_its_unbuffered_form(family):
    # The table is standardised and mapped through the base CDF in one buffer;
    # the bits are those of the plain expression, for the normal and the
    # uniform (uniform_h) bases.
    spec = DgpSpec(family, gamma=4.0, seed=2)
    rng = np.random.default_rng(7)
    xs = rng.uniform(0.0, 1.0, (30, spec.dim))
    ys = np.r_[rng.normal(0.0, 2.0, 40), -np.inf, np.inf, 0.0, -0.0]
    for arm in (0, 1):
        loc, scale = simlab._arm_params(spec, xs)[arm]
        expected = simlab._base(spec).cdf((ys[None, :] - loc[:, None]) / scale[:, None])
        assert truth(spec).ccdf.cdf_table(arm, ys, xs).tobytes() == expected.tobytes()


def test_truth_cqte_symmetry_flat_gamma():
    oracle = truth(DgpSpec("illustrative", gamma=0.0))
    xs = np.array([[0.2], [0.8]])
    np.testing.assert_allclose(exact_cqte(oracle.ccdf, 0.5, xs), 0.0, atol=1e-12)
    np.testing.assert_allclose(
        exact_cqte(oracle.ccdf, 0.25, xs), -exact_cqte(oracle.ccdf, 0.75, xs), atol=1e-12
    )


def test_truth_identity_relations_all_families():
    # Quick 12x12 version of the acceptance-grade 50x50 identity check.
    for family in FAMILIES:
        gamma = 1.0 if family == "tendim" else 6.0
        spec = DgpSpec(family, gamma=gamma, seed=1)
        oracle = truth(spec)
        rng = np.random.default_rng(0)
        xs = (
            rng.uniform(-1, 1, (12, 10))
            if family == "tendim"
            else np.linspace(0.01, 0.99, 12).reshape(-1, 1)
        )
        ys = np.linspace(-1.5, 1.5, 12)
        for y in ys:
            g_val = oracle.g(np.full(12, y), xs)
            f1 = np.array(
                [oracle.ccdf.cdf_table(1, [g_val[j]], xs[j : j + 1])[0, 0] for j in range(12)]
            )
            f0 = np.array(
                [oracle.ccdf.cdf_table(0, [y], xs[j : j + 1])[0, 0] for j in range(12)]
            )
            np.testing.assert_allclose(f1, f0, atol=1e-9)
            np.testing.assert_allclose(
                exact_h(oracle.ccdf, np.full(12, y), g_val, xs), 0.0, atol=1e-9
            )


def test_holdout_draws_from_untreated_conditional():
    spec = DgpSpec("uniform_h", gamma=0.0)
    ys, xs = sample_holdout(spec, 400, seed=5)
    assert xs.shape == (400, 1)
    assert (ys >= 0.0).all() and (ys <= 1.0).all()  # arm-0 support only


def draw_given_x_margins(base_seed=6):
    ys, arms = draw_given_x(DgpSpec("illustrative", gamma=6.0), 0.3, 2000, seed=base_seed)
    assert ys.shape == (2000,)
    pi = float(truth(DgpSpec("illustrative", gamma=6.0)).propensity.many([[0.3]])[0])
    return {"|treated share - pi| <= 4/sqrt(n)":
            at_most(abs(arms.mean() - pi), 4.0 / np.sqrt(2000))}


def test_draw_given_x_fixes_covariate():
    margins = draw_given_x_margins()
    assert holds(margins), margins


class FailingEstimator:
    name = "broken"

    def __init__(self, error=DegenerateMassError):
        self.error = error

    def fit(self, dataset, seed, truth=None):
        raise self.error("synthetic failure")


def test_run_experiment_counts_failures_without_crashing():
    spec = DgpSpec("illustrative", gamma=0.0)
    report = run_experiment(
        spec, [FailingEstimator(), SeparateEstimator(NK)], 80, 3, holdout=50, base_seed=0
    )
    broken = report.by_name("broken")
    assert broken.failures == 3
    assert np.isnan(broken.mean_abs_error)
    ok = report.by_name("separate")
    assert ok.failures == 0 and np.isfinite(ok.mean_abs_error)


class FailsFirstFit:
    name = "flaky"

    def __init__(self):
        self.fits = 0

    def fit(self, dataset, seed, truth=None):
        self.fits += 1
        if self.fits == 1:
            raise DegenerateMassError("synthetic failure")
        return SeparateEstimator(NK).fit(dataset, seed, truth=truth)


def test_one_successful_replication_has_its_error_and_no_interval():
    report = run_experiment(DgpSpec("illustrative", gamma=0.0), [FailsFirstFit()], 80, 2,
                            holdout=50, base_seed=0)
    row = report.by_name("flaky")
    assert np.isnan(report.per_replication[0, 0]) and np.isfinite(report.per_replication[1, 0])
    assert row.mean_abs_error == report.per_replication[1, 0]
    assert np.isnan(row.ci_half_width)
    assert (row.replications, row.failures) == (1, 1)


class ControlsOnly:
    """The DR estimator fitted on the untreated rows alone: its propensity fit
    raises SingleArmError in every replication."""

    name = "controls-only"

    def fit(self, dataset, seed, truth=None):
        return DrEstimator(NK, OK).fit(dataset.subset(dataset.arm_indices(0)), seed)


def test_run_experiment_records_why_each_replication_failed():
    report = run_experiment(DgpSpec("illustrative", gamma=0.0),
                            [ControlsOnly(), SeparateEstimator(NK)], 80, 2, holdout=20, base_seed=5)
    assert report.by_name("controls-only").failures == 2
    assert report.by_name("separate").failures == 0
    message = "propensity fit needs both treatment arms"
    (_, _, seed0), (_, _, seed1) = simlab.replication_seeds(5, 2)  # the fit seeds
    assert report.failures == [
        simlab.FailureRecord("controls-only", 0, seed0, "SingleArmError", message),
        simlab.FailureRecord("controls-only", 1, seed1, "SingleArmError", message),
    ]
    assert report.failures_csv_text() == (
        "estimator,replication,seed,error,message\n"
        f"controls-only,0,{seed0},SingleArmError,{message}\n"
        f"controls-only,1,{seed1},SingleArmError,{message}\n"
    )


class Recording:
    """The separate estimator, keeping each fit's seed and data and each
    predict's holdout."""

    name = "recording"

    def __init__(self):
        self.calls = []

    def fit(self, dataset, seed, truth=None):
        predictor = SeparateEstimator(NK).fit(dataset, seed)

        def predict(ys, xs):
            self.calls.append((seed, dataset.y, dataset.x, dataset.a, ys, xs))
            return predictor(ys, xs)

        return predict


def test_replication_draws_do_not_depend_on_the_replication_count():
    calls = {}
    for replications in (2, 5):
        estimator = Recording()
        run_experiment(DgpSpec("illustrative"), [estimator], 80, replications, holdout=20)
        calls[replications] = estimator.calls
    assert len(calls[5]) == 5
    for ours, theirs in zip(calls[2], calls[5]):
        # The fit seed is a Python int, which the bench stores as JSON.
        assert ours[0] == theirs[0] and type(ours[0]) is int
        for mine, other in zip(ours[1:], theirs[1:]):
            assert mine.tobytes() == other.tobytes()


@pytest.mark.parametrize("error, recorded", [
    (SingleArmError, True), (DegenerateMassError, True), (MemoryError, True),
    (AssertionError, False), (IndexError, False), (ValueError, False), (RuntimeError, False),
], ids=lambda value: value.__name__ if isinstance(value, type) else None)
def test_run_experiment_records_only_the_documented_failures(error, recorded):
    # A tiny n, a narrow box kernel or a large n fail legitimately; any other
    # exception is a bug, and the run stops.
    def run():
        return run_experiment(DgpSpec("illustrative"), [FailingEstimator(error)], 80, 2,
                              holdout=20)

    if recorded:
        assert [failure.error for failure in run().failures] == [error.__name__] * 2
    else:
        with pytest.raises(error, match="synthetic failure"):
            run()


def test_report_lookup_of_an_unknown_estimator_raises_key_error():
    report = run_experiment(DgpSpec("illustrative"), [SeparateEstimator(NK)], 80, 2, holdout=20)
    with pytest.raises(KeyError, match="dr"):
        report.by_name("dr")


def test_run_experiment_same_object_twice_identical_columns():
    spec = DgpSpec("illustrative", gamma=2.0)
    est = SeparateEstimator(NK)
    report = run_experiment(spec, [est, est], 120, 3, holdout=60, base_seed=1)
    np.testing.assert_array_equal(
        report.per_replication[:, 0], report.per_replication[:, 1]
    )


def test_run_experiment_reports_are_reproducible():
    spec = DgpSpec("illustrative", gamma=2.0)
    texts = []
    for _ in range(2):
        report = run_experiment(
            spec,
            [DrEstimator(NK, OK, cross_fit=True), SeparateEstimator(NK)],
            150,
            3,
            holdout=80,
            base_seed=21,
        )
        texts.append(report.csv_text())
    assert texts[0] == texts[1]
    header = texts[0].splitlines()[0]
    assert header == "estimator,mean_abs_error,ci_low,ci_high,replications"


def test_run_experiment_validates_inputs():
    spec = DgpSpec("illustrative")
    with pytest.raises(ValueError):
        run_experiment(spec, [SeparateEstimator(NK)], 100, 1)
    with pytest.raises(ValueError):
        run_experiment(spec, [], 100, 3)
    with pytest.raises(ValueError, match="holdout"):
        run_experiment(spec, [SeparateEstimator(NK)], 100, 3, holdout=0)
    with pytest.raises(ValueError, match="base seed must be nonnegative"):
        run_experiment(spec, [SeparateEstimator(NK)], 100, 3, base_seed=-1)


def test_run_experiment_ci_half_width_definition():
    spec = DgpSpec("illustrative", gamma=2.0)
    report = run_experiment(spec, [SeparateEstimator(NK)], 150, 4, holdout=60, base_seed=3)
    col = report.per_replication[:, 0]
    row = report.results[0]
    expected = 1.96 * col.std(ddof=1) / np.sqrt(col.size)
    assert row.ci_high - row.mean_abs_error == pytest.approx(expected)
    assert row.mean_abs_error - row.ci_low == pytest.approx(expected)


def oracle_error_in_n_margins(base_seed=17):
    spec = DgpSpec("tendim", gamma=1.0, seed=2)
    est = OracleEstimator(KernelSpec("gaussian", 1.5))
    means = []
    for n in (200, 1000):
        report = run_experiment(spec, [est], n, 3, holdout=100, base_seed=base_seed)
        means.append(report.results[0].mean_abs_error)
    return {"error at n 1000 < at n 200": below(means[1], means[0])}


def test_oracle_error_decreases_with_sample_size_identity_family():
    margins = oracle_error_in_n_margins()
    assert holds(margins), margins


def oracle_beats_separate_margins(base_seed=23):
    report = run_experiment(
        DgpSpec("illustrative", gamma=10.0), [OracleEstimator(OK), SeparateEstimator(NK)],
        400, 8, holdout=100, base_seed=base_seed,
    )
    return {"oracle CI high < separate CI low":
            below(report.by_name("oracle").ci_high, report.by_name("separate").ci_low)}


def test_oracle_beats_separate_at_high_gamma_for_doubling_map():
    # The target map does not depend on the sine frequency, but the oracle's
    # error does (see the next test). What holds in distribution is that exact
    # nuisances keep it well ahead of the separate plug-in, whose nuisance
    # smoothing blurs the sine (mean 1.59): the two intervals were apart at
    # every one of 100 base seeds (tests/mc_audit.json).
    margins = oracle_beats_separate_margins()
    assert holds(margins), margins


def oracle_gamma_trend_margins(base_seed=23):
    means = [
        run_experiment(DgpSpec("illustrative", gamma=gamma), [OracleEstimator(OK)], 400, 16,
                       holdout=100, base_seed=base_seed).results[0].mean_abs_error
        for gamma in (0.0, 10.0)
    ]
    growth = means[1] - means[0]
    return {"0.06 < growth": below(0.06, growth), "growth < 0.32": below(growth, 0.32)}


def test_oracle_error_grows_with_gamma_for_doubling_map():
    # At gamma 10 the sine's period (0.2) is close to the outer bandwidth, so
    # the oracle's error grows from gamma 0 (0.42 to 0.61 at 200 replications).
    # Over base seeds 1 + 97k (k < 100) the growth at these 16 replications had
    # mean 0.190, sd 0.033 and range 0.112 to 0.269; the band is mean +- 4 sd.
    margins = oracle_gamma_trend_margins()
    assert holds(margins), margins

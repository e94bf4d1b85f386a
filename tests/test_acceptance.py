"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Benchmark-style criteria pin their full configuration (kernels, bandwidths,
seeds, replication counts) here so reruns are byte-for-byte reproducible.
"""

import itertools

import numpy as np
import pytest

from cqcbench.baselines import (
    DrEstimator,
    IpwEstimator,
    OracleEstimator,
    SeparateEstimator,
)
from cqcbench.cli import ingest_csv, write_dataset_csv
from cqcbench.estimator import build_grid, estimate_cqc_many, fit_contrast
from cqcbench.isotonic import pava_project
from cqcbench.kernels import KernelSpec
from cqcbench.nuisance import CcdfEvaluator, make_split
from cqcbench.simlab import (
    FAMILIES,
    DgpSpec,
    run_experiment,
    sample_dgp,
    truth,
)

from dgp_draws import draw_given_x
from isotonic_oracle import dp_isotonic_fit
from margins import at_most, below, describe, holds
from scalar_oracle import exact_h, oracle_pseudo

# Benchmark configuration shared by the Monte-Carlo criteria (gaussian
# kernels; the nuisance bandwidth resolves the sine wiggle at gamma <= 10,
# the outer bandwidth trades a little bias for pseudo-outcome noise).
NUIS_BW = 0.03
OUTER_BW = 0.08
NK = KernelSpec("gaussian", NUIS_BW)
OK = KernelSpec("gaussian", OUTER_BW)
XI = 0.05


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def criterion_1_margins(base_seed=314):
    spec = DgpSpec("illustrative", gamma=6.0)
    oracle = truth(spec)
    x = 0.3
    y0 = y1 = 0.0
    ys, arms = draw_given_x(spec, x, 100_000, seed=base_seed)

    x_row = np.array([[x]])
    pi = float(oracle.propensity.many(x_row)[0])
    f0 = float(oracle.ccdf.cdf_table(0, [y0], x_row)[0, 0])
    f1 = float(oracle.ccdf.cdf_table(1, [y1], x_row)[0, 0])
    coef = (arms - pi) / (pi * (1.0 - pi))
    own = np.where(arms == 1, f1, f0)
    thresh = np.where(arms == 1, y1, y0)
    values = coef * ((ys <= thresh).astype(float) - own) + f1 - f0

    # the vectorised values are the same arithmetic as the scalar op
    spot = np.array(
        [
            oracle_pseudo(ys[i], np.array([x]), int(arms[i]), y0, y1, oracle)
            for i in range(200)
        ]
    )
    np.testing.assert_array_equal(spot, values[:200])

    target = float(exact_h(oracle.ccdf, y0, y1, np.array([x]))[0])
    se = values.std(ddof=1) / np.sqrt(values.size)
    return {"|MC mean - target| < 3 SE": below(abs(values.mean() - target), 3.0 * se)}


def test_criterion_1_pseudo_outcome_conditionally_unbiased():
    margins = criterion_1_margins()
    _report(1, holds(margins), describe(margins))


def test_criterion_2_pava_exactness():
    entries = (-2.0, -1.0, 0.0, 1.0, 2.0)
    checked = 0
    worst = 0.0
    for length in range(1, 6):
        for combo in itertools.product(entries, repeat=length):
            values = np.array(combo)
            result = pava_project(values)
            projected = result.projected
            oracle_fit = dp_isotonic_fit(values)
            worst = max(worst, float(np.max(np.abs(projected - oracle_fit))))
            assert np.max(np.abs(projected - oracle_fit)) <= 1e-6
            assert np.all(np.diff(projected) >= 0)
            np.testing.assert_array_equal(
                pava_project(projected).projected, projected
            )
            assert abs(projected.mean() - values.mean()) <= 1e-12
            checked += 1
    assert checked == 5 + 25 + 125 + 625 + 3125

    rng = np.random.default_rng(2718)
    for _ in range(1000):
        size = rng.integers(1, 30)
        target = np.sort(rng.normal(size=size))
        noisy = target + rng.normal(scale=rng.uniform(0.05, 2.0), size=size)
        projected = pava_project(noisy).projected
        assert (
            np.max(np.abs(target - projected))
            <= np.max(np.abs(target - noisy)) + 1e-12
        )
    for _ in range(1000):
        size = rng.integers(2, 30)
        values = rng.normal(size=size)
        projected = pava_project(values).projected
        assert np.all(np.abs(np.diff(projected)) <= np.abs(np.diff(values)) + 1e-12)
    _report(
        2,
        True,
        f"{checked} exhaustive sequences match the grid DP (worst gap {worst:.2e}); "
        "sup-error and step-size laws held on 1000 random draws each",
    )


def test_criterion_3_truth_oracle_identities():
    ranges = {
        "illustrative": (-4.0, 4.0),
        "tendim": (-3.0, 3.0),
        "linear_cqc": (-3.0, 5.0),
        "uniform_h": (-1.5, 3.5),
    }
    worst_f = 0.0
    worst_h = 0.0
    for family in FAMILIES:
        gamma = 1.0 if family == "tendim" else 6.0
        spec = DgpSpec(family, gamma=gamma, seed=7)
        oracle = truth(spec)
        if family == "tendim":
            xs = np.random.default_rng(7).uniform(-1, 1, (50, 10))
        else:
            xs = np.linspace(0.0, 1.0, 50).reshape(-1, 1)
        lo, hi = ranges[family]
        for y in np.linspace(lo, hi, 50):
            y_vec = np.full(50, y)
            g_val = oracle.g(y_vec, xs)
            f1 = np.array(
                [
                    oracle.ccdf.cdf_table(1, [g_val[j]], xs[j : j + 1])[0, 0]
                    for j in range(50)
                ]
            )
            f0 = np.array(
                [oracle.ccdf.cdf_table(0, [y], xs[j : j + 1])[0, 0] for j in range(50)]
            )
            worst_f = max(worst_f, float(np.max(np.abs(f1 - f0))))
            worst_h = max(worst_h, float(np.max(np.abs(exact_h(oracle.ccdf, y_vec, g_val, xs)))))
    _report(
        3,
        worst_f <= 1e-9 and worst_h <= 1e-9,
        f"max |F1(g(y|x)|x) - F0(y|x)| = {worst_f:.2e}, "
        f"max |h(y, g(y|x)|x)| = {worst_h:.2e} over 50x50 grids, all families",
    )


def criterion_4_margins(base_seed=4040):
    spec = DgpSpec("illustrative", gamma=6.0)
    estimators = [
        DrEstimator(NK, OK, xi=XI, cross_fit=True),
        IpwEstimator(NK, OK, xi=XI, cross_fit=True),
        SeparateEstimator(NK),
        OracleEstimator(OK, xi=XI),
    ]
    report = run_experiment(
        spec, estimators, n_total=1000, replications=100, holdout=200, base_seed=base_seed
    )
    dr = report.by_name("dr")
    ipw = report.by_name("ipw")
    sep = report.by_name("separate")
    orc = report.by_name("oracle")
    return {
        "oracle <= dr": at_most(orc.mean_abs_error, dr.mean_abs_error),
        "dr CI high < ipw CI low": below(dr.ci_high, ipw.ci_low),
        "dr CI high < separate CI low": below(dr.ci_high, sep.ci_low),
    }


@pytest.mark.slow
def test_criterion_4_error_ordering_at_fixed_size():
    margins = criterion_4_margins()
    _report(4, holds(margins), describe(margins))


def criterion_5_margins(base_seed=5050):
    spec = DgpSpec("illustrative", gamma=6.0)
    means = []
    for n_total in (200, 1000, 5000):
        report = run_experiment(
            spec,
            [DrEstimator(NK, OK, xi=XI, cross_fit=True)],
            n_total=n_total,
            replications=50,
            holdout=200,
            base_seed=base_seed,
        )
        means.append(report.results[0].mean_abs_error)
    return {
        "dr error at n 1000 < at n 200": below(means[1], means[0]),
        "dr error at n 5000 < at n 1000": below(means[2], means[1]),
    }


@pytest.mark.slow
def test_criterion_5_error_decreases_with_sample_size():
    margins = criterion_5_margins()
    _report(5, holds(margins), describe(margins))


def criterion_6_margins(base_seed=6060):
    results = {}
    for gamma in (2.0, 10.0):
        spec = DgpSpec("illustrative", gamma=gamma)
        report = run_experiment(
            spec,
            [DrEstimator(NK, OK, xi=XI, cross_fit=True), SeparateEstimator(NK)],
            n_total=1000,
            replications=50,
            holdout=200,
            base_seed=base_seed,
        )
        results[gamma] = report
    dr2 = results[2.0].by_name("dr")
    dr10 = results[10.0].by_name("dr")
    sep2 = results[2.0].by_name("separate")
    sep10 = results[10.0].by_name("separate")
    return {
        "dr at gamma 10 < 2x dr at gamma 2": below(dr10.mean_abs_error, 2.0 * dr2.mean_abs_error),
        "separate CI high at gamma 2 < CI low at gamma 10": below(sep2.ci_high, sep10.ci_low),
    }


@pytest.mark.slow
def test_criterion_6_gamma_robustness():
    margins = criterion_6_margins()
    _report(6, holds(margins), describe(margins))


def criterion_7_margins(base_seed=7070):
    spec = DgpSpec("tendim", gamma=1.0, seed=3)
    report = run_experiment(
        spec,
        [
            DrEstimator(KernelSpec("gaussian", 0.8), KernelSpec("gaussian", 1.5),
                        xi=XI, cross_fit=True),
            SeparateEstimator(KernelSpec("gaussian", 0.8)),
        ],
        n_total=2000,
        replications=4,
        holdout=200,
        base_seed=base_seed,
    )
    dr = report.by_name("dr").mean_abs_error
    sep = report.by_name("separate").mean_abs_error
    return {"identity-map data: dr < separate, or both < 0.5": (
        max(sep - dr, 0.5 - max(dr, sep)), True)}


@pytest.mark.slow
def test_criterion_7_identity_family_sanity():
    margins = criterion_7_margins()
    _report(7, holds(margins), describe(margins))


def criterion_8_margins(base_seed=8000):
    spec = DgpSpec("uniform_h", gamma=0.0)
    xs10 = np.linspace(0.05, 0.95, 10)
    nk = KernelSpec("gaussian", 0.1)
    ok_kernel = KernelSpec("gaussian", 0.2)
    spreads = {}
    for n_total in (500, 2000):
        per_seed = []
        for seed in range(base_seed, base_seed + 5):
            data = sample_dgp(spec, n_total, seed=seed)
            contrast = fit_contrast(data, make_split(data, seed), nk, ok_kernel, xi=XI)
            fitted = contrast.profile_many(np.full(xs10.size, 0.2), [1.0], xs10)[:, 0]
            per_seed.append(np.std(fitted))
        spreads[n_total] = float(np.mean(per_seed))
    return {"fitted spread over 10 x values at n 2000 < at n 500": below(spreads[2000],
                                                                          spreads[500])}


@pytest.mark.slow
def test_criterion_8_constant_contrast_family():
    h_values = exact_h(truth(DgpSpec("uniform_h", gamma=0.0)).ccdf, 0.2, 1.0,
                       np.linspace(0.05, 0.95, 10))
    bit_identical = len(set(h_values.tolist())) == 1
    margins = criterion_8_margins()
    _report(
        8,
        bit_identical and holds(margins),
        f"truth h(0.2, 1.0 | x) bit-identical across 10 x values "
        f"(= {float(h_values[0])!r}); {describe(margins)}",
    )


def test_criterion_9_determinism_and_round_trips(tmp_path):
    # byte-identical error reports under a fixed seed vector
    spec = DgpSpec("illustrative", gamma=2.0)
    nk = KernelSpec("gaussian", 0.1)
    ok_kernel = KernelSpec("gaussian", 0.15)
    texts = [
        run_experiment(
            spec,
            [DrEstimator(nk, ok_kernel, cross_fit=True), SeparateEstimator(nk)],
            n_total=150,
            replications=3,
            holdout=60,
            base_seed=909,
        ).csv_text()
        for _ in range(2)
    ]
    reports_identical = texts[0] == texts[1]

    # CSV write -> read is value-identical
    data = sample_dgp(spec, 80, seed=11)
    path = str(tmp_path / "round.csv")
    write_dataset_csv(data, path)
    back = ingest_csv(path)
    round_trip = (
        np.array_equal(back.y, data.y)
        and np.array_equal(back.x, data.x)
        and np.array_equal(back.a, data.a)
    )

    # monotone grid invariants, zero tolerance where exactness is structural
    data = sample_dgp(spec, 300, seed=12)
    ccdf = CcdfEvaluator(nk, data)
    x_probe = np.array([0.4])
    cdf_path = ccdf.cdf_table(1, np.linspace(-4, 4, 200), x_probe[None])[0]
    ccdf_monotone = bool(np.all(np.diff(cdf_path) >= 0))
    table = ccdf.cdf_table(1, np.linspace(-4, 4, 200), np.array([[0.2], [0.8]]))
    table_monotone = bool(np.all(np.diff(table, axis=1) >= -1e-15))

    contrast = fit_contrast(data, make_split(data, 12), nk, ok_kernel)
    grid = build_grid(data)
    profiles = contrast.profile_many([-0.5, 0.3, 1.1], grid, [[0.2], [0.5], [0.8]])
    projected = pava_project(profiles).projected
    projected_monotone = bool(np.all(np.diff(projected, axis=1) >= 0))

    ipw_contrast = fit_contrast(data, make_split(data, 12), nk, ok_kernel, kind="ipw")
    ipw_ok = True
    try:
        estimate_cqc_many(
            ipw_contrast,
            grid,
            np.linspace(-0.5, 1.5, 8),
            np.tile([[0.5]], (8, 1)),
        )  # an IPW contrast asserts monotone pre-projection profiles
    except AssertionError:
        ipw_ok = False

    ok = (
        reports_identical
        and round_trip
        and ccdf_monotone
        and table_monotone
        and projected_monotone
        and ipw_ok
    )
    _report(
        9,
        ok,
        f"reports byte-identical={reports_identical}, csv round trip={round_trip}, "
        f"ccdf monotone={ccdf_monotone and table_monotone}, "
        f"projected profiles monotone={projected_monotone}, "
        f"ipw pre-projection monotone={ipw_ok}",
    )

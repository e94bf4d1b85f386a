from collections import namedtuple

import numpy as np
import pytest

from dgp_draws import draw_given_x
from margins import below, holds
from scalar_oracle import dr_pseudo, exact_h, ipw_pseudo, oracle_pseudo

from cqcbench.kernels import KernelSpec
from cqcbench.nuisance import CcdfEvaluator, Dataset, PropensityEvaluator
from cqcbench.simlab import DgpSpec, truth

X = np.array([0.0])
# The (propensity, ccdf) pair that ``dr_pseudo`` reads.
Nuisance = namedtuple("Nuisance", "propensity ccdf")


class StubPropensity:
    def __init__(self, value):
        self.value = value

    def many(self, xs):
        return np.full(len(xs), self.value)


class StubCcdf:
    """CDF lookup keyed by (arm, threshold)."""

    def __init__(self, table):
        self.table = table

    def cdf_table(self, arm, ys, xs):
        return np.array([[self.table[(arm, y)] for y in ys]] * len(xs))


def stub_nuisance(pi, table):
    return Nuisance(StubPropensity(pi), StubCcdf(table))


def test_dr_pseudo_treated_hand_value():
    nuis = stub_nuisance(0.5, {(1, 2.0): 0.3, (0, 0.0): 0.2})
    value = dr_pseudo(y=1.0, x=X, a=1, y0=0.0, y1=2.0, nuisance=nuis)
    assert value == pytest.approx(2.0 * (1.0 - 0.3) + (0.3 - 0.2))  # 1.5


def test_dr_pseudo_zero_residual_reduces_to_plugin():
    nuis = stub_nuisance(0.5, {(1, 2.0): 1.0, (0, 0.0): 0.0})
    value = dr_pseudo(y=1.0, x=X, a=1, y0=0.0, y1=2.0, nuisance=nuis)
    assert value == pytest.approx(1.0)


def test_dr_pseudo_untreated_hand_value():
    nuis = stub_nuisance(0.5, {(1, 2.0): 0.5, (0, 0.0): 0.5})
    value = dr_pseudo(y=1.0, x=X, a=0, y0=0.0, y1=2.0, nuisance=nuis)
    assert value == pytest.approx((-2.0) * (0.0 - 0.5) + 0.0)  # 1.0


def test_ipw_pseudo_treated():
    assert ipw_pseudo(1.0, X, 1, 0.0, 2.0, StubPropensity(0.5)) == pytest.approx(2.0)


def test_ipw_pseudo_indicator_off():
    assert ipw_pseudo(3.0, X, 1, 0.0, 2.0, StubPropensity(0.5)) == 0.0


def test_ipw_pseudo_untreated():
    value = ipw_pseudo(-1.0, X, 0, 0.0, 2.0, StubPropensity(0.25))
    assert value == pytest.approx(-4.0 / 3.0)


def test_oracle_pseudo_is_dr_with_exact_nuisances():
    oracle = truth(DgpSpec("illustrative", gamma=6.0))
    for y, a, y0, y1, xv in [
        (0.3, 1, -0.5, 1.0, 0.2),
        (-1.2, 0, 0.0, 0.0, 0.7),
        (2.5, 1, 1.0, 3.0, 0.9),
    ]:
        x = np.array([xv])
        assert oracle_pseudo(y, x, a, y0, y1, oracle) == dr_pseudo(
            y, x, a, y0, y1, oracle
        )


def test_oracle_pseudo_flat_dgp_hand_value():
    # gamma=0: propensity 1/2 and both arm CDFs equal 1/2 at zero.
    oracle = truth(DgpSpec("illustrative", gamma=0.0))
    value = oracle_pseudo(0.0, np.array([0.42]), 1, 0.0, 0.0, oracle)
    assert value == pytest.approx(1.0)


def test_dr_pseudo_bounded_by_clipped_propensity():
    rng = np.random.default_rng(0)
    data = Dataset(
        rng.normal(size=60),
        rng.uniform(0, 1, (60, 1)),
        (rng.uniform(size=60) < 0.5).astype(int),
    )
    xi = 0.05
    kernel = KernelSpec("gaussian", 0.2)
    nuis = Nuisance(PropensityEvaluator(kernel, data, xi), CcdfEvaluator(kernel, data))
    bound = 1.0 / xi + 1.0
    for _ in range(200):
        y = float(rng.normal())
        x = rng.uniform(0, 1, 1)
        a = int(rng.integers(2))
        y0, y1 = sorted(rng.normal(size=2))
        assert abs(dr_pseudo(y, x, a, y0, y1, nuis)) <= bound
        assert abs(ipw_pseudo(y, x, a, y0, y1, nuis.propensity)) <= 1.0 / xi


def test_ipw_pseudo_monotone_in_thresholds():
    prop = StubPropensity(0.3)
    y, x = 0.5, X
    for a in (0, 1):
        values_y1 = [ipw_pseudo(y, x, a, 0.0, t, prop) for t in (-1.0, 0.5, 2.0)]
        assert values_y1 == sorted(values_y1)
        values_y0 = [ipw_pseudo(y, x, a, t, 2.0, prop) for t in (-1.0, 0.5, 2.0)]
        assert values_y0 == sorted(values_y0, reverse=True)


def pseudo_unbiased_margins(base_seed=99):
    spec = DgpSpec("illustrative", gamma=6.0)
    oracle = truth(spec)
    x = 0.3
    y0, y1 = 0.0, 0.5
    ys, arms = draw_given_x(spec, x, 20000, seed=base_seed)
    x_arr = np.array([x])
    values = np.array(
        [oracle_pseudo(y, x_arr, a, y0, y1, oracle) for y, a in zip(ys[:4000], arms[:4000])]
    )
    target = float(exact_h(oracle.ccdf, y0, y1, x_arr)[0])
    se = values.std(ddof=1) / np.sqrt(values.size)
    return {"|mean - target| < 4 SE": below(abs(values.mean() - target), 4 * se)}


def test_oracle_pseudo_conditionally_unbiased_quick():
    # Small-scale check of the conditional-unbiasedness property; the
    # acceptance suite runs the full-size version.
    margins = pseudo_unbiased_margins()
    assert holds(margins), margins

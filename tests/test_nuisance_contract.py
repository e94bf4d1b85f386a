"""The nuisance contract of ``cqcbench.nuisance``'s docstring, run against a
fitted and an exact nuisance of one family: illustrative (d = 1) and tendim
(d = 10). Every malformed call must raise the same message from both kinds,
and every valid call must give the same shapes."""

from functools import lru_cache

import numpy as np
import pytest

from cqcbench.kernels import KernelSpec
from cqcbench.nuisance import CcdfEvaluator, PropensityEvaluator
from cqcbench.simlab import DgpSpec, sample_dgp, sample_holdout, truth

FAMILIES = ("illustrative", "tendim")
KINDS = ("fitted", "exact")
# Ten covariates lie farther apart than one, so tendim's kernel is wider.
SPECS = {"illustrative": (DgpSpec("illustrative", gamma=2.0), KernelSpec("gaussian", 0.08)),
         "tendim": (DgpSpec("tendim", gamma=1.0, seed=3), KernelSpec("gaussian", 0.6))}


@lru_cache(maxsize=None)
def nuisances(family):
    """The family's training data, 40 query rows, and its (propensity, ccdf)
    pair of each kind. The calls under test only read the pairs."""
    spec, kernel = SPECS[family]
    data = sample_dgp(spec, 200, seed=3)
    _, rows = sample_holdout(spec, 40, seed=6)
    oracle = truth(spec)
    kinds = {"fitted": (PropensityEvaluator(kernel, data), CcdfEvaluator(kernel, data)),
             "exact": (oracle.propensity, oracle.ccdf)}
    return spec, data, rows, kinds


def thresholds(data, arm):
    """The arm's jump points with repeats, points between them, and points beyond both ends."""
    points = np.sort(data.y[data.a == arm])
    return np.concatenate([points[:5], points[:5], points[::7] + 1e-3,
                           [points[0] - 1, points[-1] + 1]])


def with_bad_row(rows, value):
    bad = rows.copy()
    bad[2, -1] = value
    return bad


# Each malformed call, as (name, call(propensity, ccdf, rows), expected message).
# ``rows`` are valid query rows of the family.
MALFORMED = []
for arm in (-1, 2):
    MALFORMED += [
        (f"cdf_table arm {arm}", lambda p, c, rows, arm=arm: c.cdf_table(arm, [0.0], rows),
         f"arm must be 0 or 1, not {arm}"),
        (f"quantile arm {arm}", lambda p, c, rows, arm=arm: c.quantile(arm, 0.5, rows[0]),
         f"arm must be 0 or 1, not {arm}"),
    ]
for levels in (1.5, [0.5, np.nan], [0.5, -0.1]):
    MALFORMED.append((f"levels {levels}",
                      lambda p, c, rows, levels=levels: c.quantile(1, levels, rows[0]),
                      "alpha must lie in [0, 1]"))
MALFORMED += [
    ("cdf_table NaN threshold", lambda p, c, rows: c.cdf_table(0, [0.0, np.nan], rows),
     "threshold 1 is NaN"),
    ("mix NaN threshold",
     lambda p, c, rows: c.plug_ins(rows)[0](np.ones((2, len(rows))), [np.nan]),
     "threshold 0 is NaN"),
    ("table NaN threshold", lambda p, c, rows: c.plug_ins(rows)[1]([0.0, np.nan]),
     "threshold 1 is NaN"),
]
for label, v in (("NaN", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
    MALFORMED += [
        (f"many {label} row", lambda p, c, rows, v=v: p.many(with_bad_row(rows, v)),
         "covariate row 2 is not finite"),
        (f"cdf_table {label} row",
         lambda p, c, rows, v=v: c.cdf_table(1, [0.0], with_bad_row(rows, v)),
         "covariate row 2 is not finite"),
        (f"plug_ins {label} row", lambda p, c, rows, v=v: c.plug_ins(with_bad_row(rows, v)),
         "covariate row 2 is not finite"),
        (f"quantile {label} row",
         lambda p, c, rows, v=v: c.quantile(0, 0.5, with_bad_row(rows, v)[2]),
         "covariate row 0 is not finite"),
    ]


def wide(rows):
    return np.c_[rows, rows[:, :1]]


WIDTH = [
    ("many", lambda p, c, rows: p.many(wide(rows))),
    ("cdf_table", lambda p, c, rows: c.cdf_table(0, [0.0], wide(rows))),
    ("plug_ins", lambda p, c, rows: c.plug_ins(wide(rows))),
    ("quantile", lambda p, c, rows: c.quantile(0, 0.5, wide(rows)[0])),
]


def messages(family, call):
    """The ValueError message that each kind raises on ``call``."""
    _, _, rows, kinds = nuisances(family)
    raised = {}
    for kind in KINDS:
        with pytest.raises(ValueError) as info:
            call(*kinds[kind], rows)
        raised[kind] = str(info.value)
    return raised


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name, call, message", MALFORMED, ids=[case[0] for case in MALFORMED])
def test_malformed_call_raises_one_message_from_both_kinds(family, name, call, message):
    assert messages(family, call) == {kind: message for kind in KINDS}


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("name, call", WIDTH, ids=[case[0] for case in WIDTH])
def test_wrong_width_raises_one_message_from_both_kinds(family, name, call):
    # A wide x for a one-covariate family is an error, not its first column.
    d = nuisances(family)[0].dim
    assert messages(family, call) == {kind: f"dimension mismatch: {d + 1} vs {d}" for kind in KINDS}


@pytest.mark.parametrize("family", FAMILIES)
def test_truth_map_checks_its_covariates_as_the_nuisances_do(family):
    spec, _, rows, _ = nuisances(family)
    g = truth(spec).g
    with pytest.raises(ValueError, match=f"^dimension mismatch: {spec.dim + 1} vs {spec.dim}$"):
        g(np.zeros(len(rows)), wide(rows))
    with pytest.raises(ValueError, match="^covariate row 2 is not finite$"):
        g(np.zeros(len(rows)), with_bad_row(rows, np.inf))


@pytest.mark.parametrize("family", FAMILIES)
def test_valid_calls_give_one_shape_and_cdf_values_from_both_kinds(family):
    _, data, rows, kinds = nuisances(family)
    ys = np.sort(np.r_[-np.inf, thresholds(data, 0), np.linspace(-3.0, 3.0, 60), np.inf])
    shapes = {}
    for kind in KINDS:
        propensity, ccdf = kinds[kind]
        pi = propensity.many(rows)
        assert ((pi >= 0.0) & (pi <= 1.0)).all()
        tables = [ccdf.cdf_table(arm, ys, rows) for arm in (0, 1)]
        for table in tables:
            assert ((table >= 0.0) & (table <= 1.0)).all()
            assert (np.diff(table, axis=1) >= 0.0).all()  # nondecreasing in y
            assert (table[:, 0] == 0.0).all()  # the limits at -inf and +inf
            np.testing.assert_allclose(table[:, -1], 1.0, rtol=0, atol=1e-12)
        mix, table = ccdf.plug_ins(rows)
        levels = [ccdf.quantile(arm, [0.25, 0.5, 0.75], rows[0]) for arm in (0, 1)]
        assert all(np.all(np.diff(q) >= 0.0) for q in levels)
        u = np.ones((6, len(rows)))
        shapes[kind] = [pi.shape, *(t.shape for t in tables), mix(u, ys).shape, table(ys).shape,
                        *(q.shape for q in levels), np.shape(ccdf.quantile(0, 0.5, rows[0]))]
    m, k = len(rows), len(ys)
    # A scalar level gives a 0-d result.
    assert shapes["fitted"] == shapes["exact"] == [(m,), (m, k), (m, k), (6, k), (m, k), (3,), (3,), ()]


@pytest.mark.parametrize("family", FAMILIES)
def test_quantiles_at_levels_zero_and_one(family):
    # Exact quantiles there are the support's ends, -inf and +inf for the
    # normal base; fitted ones are jump points, the smallest at level 0.
    _, _, rows, kinds = nuisances(family)
    for arm in (0, 1):
        exact = kinds["exact"][1].quantile(arm, [0.0, 1.0], rows[0])
        assert exact.tolist() == [-np.inf, np.inf]
        ccdf = kinds["fitted"][1]
        fitted = ccdf.quantile(arm, [0.0, 1.0], rows[0])
        assert fitted[0] == ccdf.arm_outcomes(arm)[0] and fitted[1] in ccdf.arm_outcomes(arm)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_mix_is_weighted_sum_of_cdf_table(family, kind):
    # The first plug-in mixes arm 1's CDF table over signed row weights.
    _, data, rows, kinds = nuisances(family)
    ccdf, ys = kinds[kind][1], thresholds(data, 1)
    u = np.random.default_rng(5).normal(size=(6, len(rows)))
    mix, _ = ccdf.plug_ins(rows)
    for grid in (np.sort(ys), ys, ys[:1]):
        expected = u @ ccdf.cdf_table(1, grid, rows)
        np.testing.assert_allclose(mix(u, grid), expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_table_is_cdf_table(family, kind):
    # The second plug-in is arm 0's CDF table, bit for bit.
    _, data, rows, kinds = nuisances(family)
    ccdf, ys = kinds[kind][1], thresholds(data, 0)
    _, table = ccdf.plug_ins(rows)
    for grid in (np.sort(ys), ys, ys[:1]) * 2:  # later calls see the kept state unchanged
        assert table(grid).tobytes() == ccdf.cdf_table(0, grid, rows).tobytes()

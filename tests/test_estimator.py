import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contrast_oracle import dense_cdf_table, dense_profile_many, independent_cross_fit
from isotonic_oracle import numpy_stack_pava, per_row_inversion
from margins import at_most, below, holds
from scalar_oracle import exact_cqte, exact_h, scalar_contrast
from cqcbench.estimator import (
    ContrastFit,
    CqcFit,
    build_grid,
    cqc_to_cqte,
    cross_fit_contrast,
    estimate_cqc_many,
    fit_contrast,
    fit_cqc,
    fit_oracle_contrast,
    surface_eval,
)
from cqcbench import kernels
from cqcbench.baselines import OracleEstimator, SeparateEstimator
from cqcbench.kernels import KernelSpec, as_rows
from cqcbench.nuisance import CcdfEvaluator, Dataset, SingleArmError, make_split, prefix_gather
from cqcbench.pseudo import PseudoOutcomeKind
from cqcbench.simlab import DgpSpec, sample_dgp, sample_holdout, truth

NK = KernelSpec("gaussian", 0.1)
OK = KernelSpec("gaussian", 0.15)


class StubContrast:
    """Contrast evaluator returning a fixed profile for every query."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def profile_many(self, y0s, grid, xs):
        y0s = np.asarray(y0s, dtype=float).reshape(-1)
        return np.tile(self.values, (y0s.size, 1))

    def y0_terms(self, y0s, xs):
        return np.zeros(np.size(y0s))


class LinearContrast:
    """Profile grid - y0: root of the contrast sits exactly at y0."""

    def profile_many(self, y0s, grid, xs):
        y0s = np.asarray(y0s, dtype=float).reshape(-1)
        grid = np.asarray(grid, dtype=float)
        return grid[None, :] - y0s[:, None]

    def y0_terms(self, y0s, xs):
        return -np.asarray(y0s, dtype=float).reshape(-1)


class ScaledContrast:
    """Profile grid - y0 * (1 + x1): the root depends on both y0 and x."""

    def profile_many(self, y0s, grid, xs):
        roots = np.asarray(y0s, dtype=float).reshape(-1) * (1.0 + np.asarray(xs)[:, 0])
        return np.asarray(grid, dtype=float)[None, :] - roots[:, None]

    def y0_terms(self, y0s, xs):
        return -np.asarray(y0s, dtype=float).reshape(-1) * (1.0 + np.asarray(xs)[:, 0])


def estimate_one(contrast, grid, y0=0.0, x=0.0):
    """One-query ``estimate_cqc_many``: (g_hat, index, residual) of (y0, x)."""
    g_hat, indices, residuals = estimate_cqc_many(contrast, grid, [y0], [[x]])
    return g_hat[0], indices[0], residuals[0]


def illustrative_data(n=300, gamma=2.0, seed=0):
    return sample_dgp(DgpSpec("illustrative", gamma=gamma), n, seed)


def replicate_value(rep, y0, y1, x):
    """One replicate's h_hat(y0, y1 | x), read off its batch profile."""
    return rep.profile_many(np.array([y0]), np.array([y1]), np.reshape(x, (1, -1)))[0, 0]


def test_build_grid_sorts_and_dedupes():
    data = Dataset(
        np.array([3.0, 1.0, 2.0, 2.0, 9.0]),
        np.zeros((5, 1)),
        np.array([1, 1, 1, 1, 0]),
    )
    np.testing.assert_array_equal(build_grid(data), [1.0, 2.0, 3.0])


def test_build_grid_uniform_linspace():
    data = Dataset(
        np.array([0.0, 1.0, 0.2, 0.8]), np.zeros((4, 1)), np.array([0, 1, 0, 1])
    )
    np.testing.assert_allclose(build_grid(data, 3), [0.0, 0.5, 1.0])
    with pytest.raises(ValueError, match="positive"):
        build_grid(data, 0)


def test_build_grid_no_treated_raises():
    data = Dataset(np.array([1.0, 2.0]), np.zeros((2, 1)), np.array([0, 0]))
    with pytest.raises(ValueError):
        build_grid(data)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    rows=st.lists(
        st.tuples(st.floats(-1e3, 1e3, allow_nan=False), st.integers(0, 1)),
        min_size=1,
        max_size=40,
    ).filter(lambda rows: any(a for _, a in rows)),
    count=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(rows=[(0.0, 1), (-0.0, 1)], count=3, seed=0)
@example(rows=[(-0.0, 0), (0.0, 1), (-1.0, 1)], count=3, seed=0)
def test_build_grid_ignores_row_order(rows, count, seed):
    ys, arms = (np.array(column) for column in zip(*rows))
    dataset = Dataset(ys, np.zeros((ys.size, 1)), arms)
    for order in (np.random.default_rng(seed).permutation(ys.size), np.arange(ys.size)[::-1]):
        permuted = dataset.subset(order)
        for grid_count in (None, count):
            grid = build_grid(dataset, grid_count)
            assert build_grid(permuted, grid_count).tobytes() == grid.tobytes()


def test_estimate_cqc_residual_scan():
    g_hat, index, residual = estimate_one(StubContrast([-0.2, -0.05, 0.1]), [1.0, 2.0, 3.0])
    assert g_hat == 2.0
    assert index == 1
    assert residual == pytest.approx(0.05)


def test_estimate_cqc_exact_zero():
    grid = [1.0, 2.0, 3.0]
    g_hat, _, residual = estimate_one(StubContrast([-0.1, 0.0, 0.1]), grid)
    assert g_hat == grid[1]
    assert residual == 0.0


def test_estimate_cqc_tie_takes_smallest_index():
    g_hat, index, _ = estimate_one(StubContrast([0.05, 0.05]), [1.0, 2.0])
    assert g_hat == 1.0
    assert index == 0


def test_estimate_cqc_projects_before_inverting():
    # Raw profile is non-monotone; projection pools (0.3, -0.3) to zero.
    g_hat, _, residual = estimate_one(StubContrast([-0.4, 0.3, -0.3, 0.5]), [1.0, 2.0, 3.0, 4.0])
    assert g_hat == 2.0
    assert residual == 0.0


def test_estimate_cqc_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        estimate_one(StubContrast([0.0, 0.1]), [2.0, 1.0])
    with pytest.raises(ValueError):
        estimate_one(StubContrast([]), [])


class StubReplicate(StubContrast):
    """Contrast replicate of a given pseudo-outcome kind with a fixed profile."""

    def __init__(self, kind, values):
        super().__init__(values)
        self.kind = kind


def test_estimate_cqc_many_monotone_assertion():
    grid = [1.0, 2.0, 3.0]
    descending = [0.5, -0.5, 0.5]
    for replicates in ([descending], [descending, [0.5, 0.0, 0.5]]):
        ipw = ContrastFit(tuple(StubReplicate(PseudoOutcomeKind.IPW, v) for v in replicates))
        with pytest.raises(AssertionError):
            estimate_cqc_many(ipw, grid, [0.0], [[0.0]])
        with pytest.raises(AssertionError):
            CqcFit(ipw, grid)([0.0], [[0.0]])
    # A DR profile may descend before projection; it is projected, not rejected.
    dr = ContrastFit((StubReplicate(PseudoOutcomeKind.DR, descending),))
    assert CqcFit(dr, grid)([0.0], [[0.0]])[0] == 1.0


def distinct_rows(m):
    """m covariate rows, no two consecutive ones equal: every query is a run of
    one, so ``estimate_cqc_many`` inverts each row on its own."""
    return np.arange(m, dtype=float).reshape(m, 1)


class TableContrast:
    """Contrast evaluator returning a fixed (m, p) profile table."""

    def __init__(self, table):
        self.table = table

    def profile_many(self, y0s, grid, xs):
        return self.table


def test_estimate_cqc_many_matches_per_row_inversion():
    rng = np.random.default_rng(11)
    grid = np.linspace(-1.0, 1.0, 30)
    for _ in range(20):
        m = int(rng.integers(3, 40))
        trend = np.linspace(-1.0, 1.0, grid.size) * rng.uniform(0.0, 2.0, size=(m, 1))
        table = trend + rng.uniform(-1.0, 1.0, size=(m, 1)) + rng.normal(
            scale=rng.uniform(0.0, 0.3), size=(m, grid.size)
        )
        monotone = rng.random(m) < 0.3
        table[monotone] = np.sort(table[monotone], axis=1)
        quarters = rng.random(m) < 0.3  # values k/4: ties in |projected|
        table[quarters] = np.round(table[quarters] * 4.0) / 4.0
        table[0] = np.abs(table[0]) + 0.1  # root below the grid: clamps to index 0
        table[-1] = -np.abs(table[-1]) - 0.1  # root above the grid: clamps to p - 1
        got = estimate_cqc_many(TableContrast(table), grid, np.zeros(m), distinct_rows(m))
        expected = per_row_inversion(table, grid)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def assert_same_inversion(got, expected):
    for g, e in zip(got, expected):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


# Quarter levels tie exactly, in raw values and in block means.
TIE_LEVELS = (-1.0, -0.75, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 0.75, 1.0)


@st.composite
def near_tie_rows(draw, p):
    row = np.array(draw(st.lists(st.sampled_from(TIE_LEVELS), min_size=p, max_size=p)))
    runs = draw(st.lists(st.integers(1, 4), min_size=p, max_size=p))
    row = np.repeat(row, runs)[:p]  # runs of equal adjacent raw values
    for i in draw(st.lists(st.integers(0, p - 1), max_size=3)):
        row[i] = np.nextafter(row[i], draw(st.sampled_from((-np.inf, np.inf))))  # one ulp
    # +-2 moves the crossing past a grid end, so the row never changes sign.
    row = row + draw(st.sampled_from((0.0, 0.0, 2.0, -2.0)))
    if p > 2 and draw(st.integers(0, 2)) > 0:
        # Large end values make the suffix sums round at their scale, far
        # above small steps and one-ulp gaps near the crossing.
        row = row * draw(st.sampled_from((0.1, 0.3, 1e-9)))
        row[0], row[-1] = -1e6, 1e6
    if draw(st.integers(0, 4)) == 0:
        row[draw(st.integers(0, p - 1))] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    return row


@st.composite
def near_tie_tables(draw):
    p = draw(st.integers(1, 14))
    m = draw(st.integers(0, 6))
    return np.array([draw(near_tie_rows(p)) for _ in range(m)]).reshape(m, p)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(table=near_tie_tables())
@example(table=np.empty((0, 5)))
@example(table=np.array([[0.5], [-0.0], [np.nan], [-np.inf]]))
@example(table=np.array([[-1.0, -0.25, -0.25, 0.25, 0.25, -0.5, 1.0]]))
def test_estimate_cqc_many_matches_per_row_inversion_on_near_ties(table):
    m, p = table.shape
    grid = np.linspace(-1.0, 1.0, p)
    got = estimate_cqc_many(TableContrast(table), grid, np.zeros(m), distinct_rows(m))
    with np.errstate(invalid="ignore"):
        expected = per_row_inversion(table, grid)
    assert_same_inversion(got, expected)


def test_estimate_cqc_many_matches_per_row_inversion_on_fitted_profiles():
    spec = DgpSpec("illustrative", gamma=6.0)
    data = sample_dgp(spec, 400, seed=3)
    y0s, xs = sample_holdout(spec, 40, seed=4)
    contrast = cross_fit_contrast(
        data, 3, KernelSpec("gaussian", 0.03), KernelSpec("gaussian", 0.08)
    )
    grid = build_grid(data)
    table = contrast.profile_many(y0s, grid, xs)
    assert np.any(table[:, 1:] == table[:, :-1])  # exact ties in real profiles
    assert np.any(table[:, 1:] < table[:, :-1])
    got = estimate_cqc_many(contrast, grid, y0s, xs)
    assert_same_inversion(got, per_row_inversion(table, grid))


class ShiftContrast:
    """Profile base[x] + y0 for integer covariate rows x: the queries at one
    row are constant shifts of one row. Counts the profile rows it evaluates."""

    def __init__(self, base):
        self.base = np.asarray(base, dtype=float)
        self.rows_evaluated = 0

    def profile_many(self, y0s, grid, xs):
        self.rows_evaluated += np.size(y0s)
        return self.base[as_rows(xs)[:, 0].astype(int)] + self.y0_terms(y0s, xs)[:, None]

    def y0_terms(self, y0s, xs):
        return np.asarray(y0s, dtype=float).reshape(-1)


# Quarter shifts keep rows of quarter levels exact; +-2 moves a row's crossing
# past a grid end.
SHIFT_LEVELS = (-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)


@st.composite
def shifted_runs(draw):
    """(base rows, y0s, covariate rows): runs of 1-4 queries, one base row per run."""
    p = draw(st.integers(1, 10))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    base = np.empty((len(sizes), p))
    for row in base:
        levels = draw(st.lists(st.sampled_from(TIE_LEVELS), min_size=p, max_size=p))
        repeats = draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))
        row[:] = np.repeat(levels, repeats)[:p]  # flat blocks of equal raw values
        if draw(st.integers(0, 5)) == 0:
            row[draw(st.integers(0, p - 1))] = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    y0s = draw(st.lists(st.sampled_from(SHIFT_LEVELS), min_size=sum(sizes), max_size=sum(sizes)))
    xs = np.repeat(np.arange(len(sizes), dtype=float), sizes).reshape(-1, 1)
    return base, np.array(y0s), xs


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=shifted_runs())
@example(case=(np.array([[-0.5, 0.25, 0.25, -0.25, 0.5], [np.nan, 0.0, 0.25, 0.5, 0.75]]),
               np.array([0.0, -2.0, 0.25, 2.0, -0.5, 0.5, 0.0]), np.c_[[0, 0, 0, 0, 0, 1, 1]]))
@example(case=(np.array([[0.25, 0.25, -0.25, -0.25]]), np.array([0.0, 0.0, -0.25, 0.25]),
               np.zeros((4, 1))))
def test_shared_route_matches_per_row_route_on_exact_shifts(case):
    base, y0s, xs = case
    contrast = ShiftContrast(base)
    table = contrast.profile_many(y0s, None, xs)
    run = xs[:, 0].astype(int)
    first = np.searchsorted(run, run)
    with np.errstate(invalid="ignore"):
        projected = [numpy_stack_pava(row) for row in table]
        # Exact shifts: each row's projection is its run's first projection,
        # shifted, with no rounding.
        assume(all(np.array_equal(projected[q], projected[first[q]] + (y0s[q] - y0s[first[q]]),
                                  equal_nan=True) for q in range(y0s.size)))
        expected = per_row_inversion(table, np.arange(base.shape[1], dtype=float))
    contrast.rows_evaluated = 0
    got = estimate_cqc_many(contrast, np.arange(base.shape[1], dtype=float), y0s, xs)
    assert_same_inversion(got, expected)
    # One row per run, whatever its row holds.
    sizes = np.bincount(run)
    assert contrast.rows_evaluated == sizes.size


def test_shared_route_keeps_the_ipw_monotone_check():
    # A run's queries differ from its first row by a constant, so checking
    # the first row checks them all.
    ipw = ContrastFit((StubReplicate(PseudoOutcomeKind.IPW, [0.5, -0.5, 0.5]),))
    with pytest.raises(AssertionError):
        estimate_cqc_many(ipw, [1.0, 2.0, 3.0], [0.0, 1.0, 2.0], np.zeros((3, 1)))


def test_estimate_cqc_many_rejects_unpaired_queries():
    for contrast in (LinearContrast(), ShiftContrast(np.zeros((1, 3)))):
        for xs in ([[0.0]], np.zeros((3, 1))):
            with pytest.raises(ValueError, match="pair up"):
                estimate_cqc_many(contrast, [0.0, 1.0, 2.0], [0.1, 0.2], xs)


@pytest.mark.parametrize("kind", ["dr", "ipw"])
@pytest.mark.parametrize("cross_fit", [False, True])
def test_y0_terms_are_the_grid_free_part_of_fitted_profiles(kind, cross_fit):
    # Within a run of equal covariate rows, profile rows differ by their
    # y0_terms difference, up to rounding.
    data = illustrative_data(n=300, seed=2)
    fit = fit_cqc(data, 2, NK, OK, kind, 0.05, cross_fit, None)
    y0s = np.tile(np.linspace(-1.0, 3.0, 7), 3)
    xs = np.repeat([[0.2], [0.5], [0.8]], 7, axis=0)
    table = fit.contrast.profile_many(y0s, fit.grid, xs)
    terms = fit.contrast.y0_terms(y0s, xs)
    assert terms.shape == y0s.shape
    grid_part = table - terms[:, None]
    for rows in grid_part.reshape(3, 7, -1):
        np.testing.assert_allclose(rows, np.broadcast_to(rows[0], rows.shape), rtol=0, atol=1e-12)
    shared = estimate_cqc_many(fit.contrast, fit.grid, y0s, xs)
    per_row = per_row_inversion(table, fit.grid)
    np.testing.assert_allclose(shared[2], per_row[2], rtol=0, atol=1e-12)


def test_estimate_cqc_many_with_no_queries_returns_empty_arrays():
    data = illustrative_data(200, gamma=2.0, seed=4)
    contrast = fit_contrast(data, make_split(data, 4), NK, OK)
    g_hat, indices, residuals = estimate_cqc_many(
        contrast, build_grid(data), np.empty(0), np.empty((0, 1))
    )
    assert g_hat.shape == indices.shape == residuals.shape == (0,)


def test_cqc_to_cqte_identity_map_gives_zero():
    grid = np.linspace(0.0, 1.0, 11)
    fit = CqcFit(LinearContrast(), grid)
    tau = cqc_to_cqte(fit, lambda a, x: np.round(a, 1), [0.1, 0.5, 0.9], np.array([0.0]))
    assert tau.shape == (3, 1)
    np.testing.assert_allclose(tau, 0.0, atol=1e-12)


def test_cqc_to_cqte_with_no_x_rows_is_empty():
    fit = CqcFit(LinearContrast(), np.linspace(0, 1, 5))
    tau = cqc_to_cqte(fit, lambda a, x: a, [0.25, 0.5], np.empty((0, 1)))
    assert tau.shape == (2, 0)


def test_cqc_to_cqte_alpha_bounds():
    fit = CqcFit(LinearContrast(), np.linspace(0, 1, 5))
    for alpha in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            cqc_to_cqte(fit, lambda a, x: a, [0.5, alpha], np.array([0.0]))


def test_cqc_to_cqte_table_is_alphas_by_xs():
    fit = CqcFit(ScaledContrast(), np.linspace(-3.0, 3.0, 121))
    alphas = np.array([0.2, 0.5, 0.9])
    xs = np.array([[0.0], [0.35], [0.7], [1.0]])

    def arm0_quantile(levels, x):
        return np.asarray(levels) * 2.0 - 1.0 + x[0] ** 2

    tau = cqc_to_cqte(fit, arm0_quantile, alphas, xs)
    assert tau.shape == (3, 4)
    assert np.unique(tau).size == tau.size
    for i in range(alphas.size):
        for k in range(xs.shape[0]):
            y0 = arm0_quantile(alphas[i : i + 1], xs[k])
            assert tau[i, k] == fit(y0, xs[k : k + 1])[0] - y0[0]


@pytest.mark.parametrize(
    "family, gamma",
    [("illustrative", 2.0), ("illustrative", 6.0), ("linear_cqc", 2.0), ("uniform_h", 2.0)],
)
def test_exact_cqte_route_matches_truth(family, gamma):
    # g(Q0(alpha|x) | x) - Q0(alpha|x) with the exact map and exact arm-0
    # quantiles is the gap between the arms' alpha-quantiles.
    oracle = truth(DgpSpec(family, gamma=gamma))
    alphas = np.array([0.25, 0.5, 0.75])
    xs = np.linspace(0.05, 0.95, 7)
    tau = cqc_to_cqte(
        lambda y0s, xs: oracle.g(y0s, xs),
        lambda a, x: oracle.ccdf.quantile(0, a, x),
        alphas,
        xs,
    )
    expected = np.vstack([exact_cqte(oracle.ccdf, alpha, xs) for alpha in alphas])
    np.testing.assert_allclose(tau, expected, rtol=0, atol=1e-12)


# Fitted CQTE against the truth: a cross-fitted DR map with fitted arm-0
# quantiles, n = 2000, seeds 0-9. Over ten blocks of ten seeds (0-99) the
# block mean |tau_hat - tau| was 0.185 (sd 0.016, max 0.216) on illustrative
# and 0.163 (sd 0.014, max 0.189) on linear_cqc at gamma 2; the worst block's
# mean at one level was 0.233. On illustrative at gamma 6 it was 0.356 (sd
# 0.012, max 0.371), and the worst block's mean at one level was 0.398. A
# zero-effect guess scores 0.76, 0.86 and 0.76.
@pytest.mark.parametrize(
    "family, gamma, mean_bound, level_bound",
    [pytest.param("illustrative", 2.0, 0.25, 0.3, id="illustrative"),
     pytest.param("linear_cqc", 2.0, 0.25, 0.3, id="linear_cqc"),
     pytest.param("illustrative", 6.0, 0.42, 0.46, id="illustrative-gamma6")],
)
def test_fitted_cqte_tracks_truth(family, gamma, mean_bound, level_bound):
    margins = fitted_cqte_margins(family, gamma, mean_bound, level_bound)
    assert holds(margins), margins


def fitted_cqte_margins(family, gamma, mean_bound, level_bound, base_seed=0):
    spec = DgpSpec(family, gamma=gamma)
    oracle = truth(spec)
    alphas = np.array([0.25, 0.5, 0.75])
    xs = np.linspace(0.1, 0.9, 9)
    expected = np.vstack([exact_cqte(oracle.ccdf, alpha, xs) for alpha in alphas])
    nk, ok = KernelSpec("gaussian", 0.05), KernelSpec("gaussian", 0.1)
    errors = []
    for seed in range(base_seed, base_seed + 10):
        data = sample_dgp(spec, 2000, seed)
        fit = fit_cqc(data, seed, nk, ok, "dr", 0.05, True, None)
        arm0 = CcdfEvaluator(nk, data)
        tau = cqc_to_cqte(fit, lambda a, x: arm0.quantile(0, a, x), alphas, xs)
        errors.append(np.abs(tau - expected).mean(axis=1))
    per_alpha = np.mean(errors, axis=0)
    return {f"mean error < {mean_bound}": below(per_alpha.mean(), mean_bound),
            f"worst level's error < {level_bound}": below(per_alpha.max(), level_bound)}


# CQTE against the truth with exact arm-0 quantiles, n = 2000, seeds 0-9, for
# the oracle contrast (exact nuisances), the cross-fitted DR fit and the
# separate plug-in, all through cqc_to_cqte. Over ten blocks of ten seeds
# (0-99), the block mean |tau_hat - tau| was (mean, sd, max):
#   illustrative gamma 2: oracle 0.216, 0.018, 0.255; dr 0.228, 0.018, 0.261; separate 0.319
#   illustrative gamma 6: oracle 0.251, 0.016, 0.278; dr 0.421, 0.025, 0.468; separate 0.987
#   linear_cqc gamma 2:   oracle 0.186, 0.017, 0.222; dr 0.196, 0.017, 0.229; separate 0.254
# The bounds are about mean + 4 sd. Separate exceeded DR in every block, by at
# least 0.036 (linear_cqc). A zero-effect guess scores 0.76, 0.76 and 0.86.
@pytest.mark.parametrize(
    "family, gamma, oracle_bound, dr_bound",
    [("illustrative", 2.0, 0.29, 0.30), ("illustrative", 6.0, 0.32, 0.53),
     ("linear_cqc", 2.0, 0.26, 0.27)],
)
def test_exact_quantile_cqte_tracks_truth_and_dr_beats_separate(family, gamma, oracle_bound,
                                                                  dr_bound):
    margins = exact_quantile_cqte_margins(family, gamma, oracle_bound, dr_bound)
    assert holds(margins), margins


def exact_quantile_cqte_margins(family, gamma, oracle_bound, dr_bound, base_seed=0):
    spec = DgpSpec(family, gamma=gamma)
    oracle = truth(spec)
    alphas = np.array([0.25, 0.5, 0.75])
    xs = np.linspace(0.1, 0.9, 9)
    expected = np.vstack([exact_cqte(oracle.ccdf, alpha, xs) for alpha in alphas])
    nk, ok = KernelSpec("gaussian", 0.05), KernelSpec("gaussian", 0.1)
    errors = {"oracle": [], "dr": [], "separate": []}
    for seed in range(base_seed, base_seed + 10):
        data = sample_dgp(spec, 2000, seed)
        fits = {
            "oracle": OracleEstimator(ok).fit(data, seed, truth=oracle),
            "dr": fit_cqc(data, seed, nk, ok, "dr", 0.05, True, None),
            "separate": SeparateEstimator(nk).fit(data, seed),
        }
        for name, fit in fits.items():
            tau = cqc_to_cqte(fit, lambda a, x: oracle.ccdf.quantile(0, a, x), alphas, xs)
            errors[name].append(np.abs(tau - expected).mean())
    mean = {name: np.mean(errs) for name, errs in errors.items()}
    return {f"oracle error < {oracle_bound}": below(mean["oracle"], oracle_bound),
            f"dr error < {dr_bound}": below(mean["dr"], dr_bound),
            "dr error < separate error": below(mean["dr"], mean["separate"])}


@pytest.mark.parametrize("kind, monotone", [("dr", False), ("ipw", True)])
@pytest.mark.parametrize("cross_fit", [False, True])
def test_fit_cqc_asserts_monotone_exactly_for_ipw(kind, monotone, cross_fit):
    # ContrastFit.profile_many checks monotonicity for IPW replicates only.
    data = illustrative_data(n=200)
    fit = fit_cqc(data, 3, NK, OK, kind, 0.05, cross_fit, 5)
    kinds = {rep.kind for rep in fit.contrast.replicates}
    assert kinds == {PseudoOutcomeKind.IPW if monotone else PseudoOutcomeKind.DR}
    assert len(fit.contrast.replicates) == (2 if cross_fit else 1)
    np.testing.assert_array_equal(fit.grid, build_grid(data, 5))


def test_surface_eval_single_cell_matches_fit():
    fit = CqcFit(LinearContrast(), np.linspace(0.0, 2.0, 21))
    surface = surface_eval(fit, [0.7], [0.3])
    assert surface.shape == (1, 1)
    assert surface[0, 0] == fit([0.7], [[0.3]])[0] - 0.7
    with pytest.raises(ValueError, match="nonempty"):
        surface_eval(fit, [], [0.3])


@pytest.mark.parametrize("contrast", [LinearContrast(), ScaledContrast()])
def test_surface_eval_matches_a_per_column_loop(contrast):
    fit = CqcFit(contrast, np.linspace(-1.0, 3.0, 41))
    ys, xs = np.linspace(-0.5, 1.5, 9), np.array([[0.0], [0.35], [1.0], [0.35]])
    loop = np.column_stack([fit(ys, np.tile(x, (ys.size, 1))) for x in xs]) - ys[:, None]
    surface = surface_eval(fit, ys, xs)
    assert surface.shape == (ys.size, xs.shape[0]) and surface.flags.c_contiguous
    assert surface.tobytes() == loop.tobytes()


def test_surface_eval_memory_stays_below_one_cells_by_grid_table():
    # A 60 x 60 surface holds one profile row per x column, never one per cell.
    data = illustrative_data(n=2000, gamma=6.0, seed=7)
    fit = fit_cqc(data, 7, KernelSpec("gaussian", 0.05), KernelSpec("gaussian", 0.1),
                  PseudoOutcomeKind.DR, 0.05, True, None)
    ys, xs = np.linspace(-2.0, 4.0, 60), np.linspace(0.0, 1.0, 60)
    tracemalloc.start()
    try:
        surface_eval(fit, ys, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ys.size * xs.size * fit.grid.size * 8


def test_ipw_surface_eval_memory_stays_below_one_cells_by_grid_table():
    # IPW profile rows have no descent, so every cell is read from its
    # column's row in bounded blocks of queries.
    data = illustrative_data(n=1000, gamma=6.0, seed=7)
    fit = fit_cqc(data, 7, NK, OK, PseudoOutcomeKind.IPW, 0.05, True, None)
    ys, xs = np.linspace(-2.0, 4.0, 60), np.linspace(0.0, 1.0, 60)
    tracemalloc.start()
    try:
        surface_eval(fit, ys, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < ys.size * xs.size * fit.grid.size * 8


def test_contrast_profile_rejects_unpaired_queries():
    with pytest.raises(ValueError, match="pair up"):
        ContrastFit((LinearContrast(),)).profile_many([0.1, 0.2], [0.0, 1.0], [[0.5]])


def test_surface_eval_identity_estimator_zero_matrix():
    grid = np.linspace(0.0, 1.0, 11)
    fit = CqcFit(LinearContrast(), grid)
    surface = surface_eval(fit, grid[2:5], np.array([0.1, 0.9]))
    np.testing.assert_allclose(surface, 0.0, atol=1e-12)


def test_fit_contrast_infinite_thresholds_give_unit_contrast():
    data = illustrative_data(200)
    contrast = fit_contrast(data, make_split(data, 3), NK, OK)
    value = contrast.profile_many([-np.inf], [np.inf], [[0.5]])[0, 0]
    assert value == pytest.approx(1.0)


def test_fit_contrast_single_arm_split_raises():
    data = Dataset(np.arange(8.0), np.linspace(0, 1, 8), np.ones(8, dtype=int))
    with pytest.raises(SingleArmError):
        fit_contrast(data, make_split(data, 0), NK, OK)


def test_fit_contrast_rejects_oracle_kind():
    data = illustrative_data(50)
    with pytest.raises(ValueError):
        fit_contrast(data, make_split(data, 0), NK, OK, kind="oracle_dr")


def test_contrast_values_respect_clipping_bound():
    data = illustrative_data(200, gamma=6.0)
    xi = 0.05
    contrast = fit_contrast(data, make_split(data, 1), NK, OK, xi=xi)
    rng = np.random.default_rng(0)
    bound = 1.0 / xi + 1.0
    for _ in range(50):
        y0, y1 = sorted(rng.normal(scale=2, size=2))
        value = contrast.profile_many([y0], [y1], rng.uniform(0, 1, 1))[0, 0]
        assert abs(value) <= bound


def test_profile_many_matches_scalar_evaluate():
    data = illustrative_data(150)
    grid = build_grid(data)[:25]
    for kind in (PseudoOutcomeKind.DR, PseudoOutcomeKind.IPW):
        contrast = fit_contrast(data, make_split(data, 5), NK, OK, kind=kind)
        x = np.array([0.35])
        profile = contrast.profile_many([0.2], grid, x)[0]
        scalars = np.array([scalar_contrast(contrast.replicates[0], 0.2, g, x) for g in grid])
        np.testing.assert_allclose(profile, scalars, atol=1e-10)
        dense = dense_profile_many(contrast.replicates[0], np.array([0.2]), grid, x.reshape(1, 1))
        np.testing.assert_allclose(profile, dense[0], rtol=0, atol=1e-12)


def _tables_case(n, seed, levels):
    """Data with both arms in each half of a fixed split; outcomes rounded to
    ``levels`` per unit when given, so that outcomes repeat."""
    rng = np.random.default_rng(seed)
    y = rng.normal(size=n)
    if levels is not None:
        y = np.round(y * levels) / levels
    a = rng.integers(0, 2, size=n)
    a[:4] = (0, 0, 1, 1)
    data = Dataset(y, rng.uniform(0, 1, (n, 1)), a)
    split = (np.arange(0, n, 2), np.arange(1, n, 2))
    return data, split, rng


def _on_and_between(points, rng):
    """Every point, every midpoint, and two values beyond the ends, shuffled."""
    points = np.sort(points)
    values = np.concatenate(
        [points, (points[1:] + points[:-1]) / 2, [points[0] - 1, points[-1] + 1]]
    )
    return rng.permutation(values)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=8, max_value=120),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    levels=st.sampled_from([None, 2, 8]),
    bandwidth=st.floats(min_value=0.05, max_value=1.0),
)
def test_prefix_sum_tables_match_dense_oracle(n, seed, levels, bandwidth):
    data, split, rng = _tables_case(n, seed, levels)
    kernel = KernelSpec("gaussian", bandwidth)
    queries = rng.uniform(-0.2, 1.2, (7, 1))
    for kind in (PseudoOutcomeKind.DR, PseudoOutcomeKind.IPW):
        rep = fit_contrast(data, split, kernel, kernel, kind=kind).replicates[0]
        ccdf = rep.nuisance.ccdf
        for arm in (0, 1):
            ys = _on_and_between(ccdf.arm_outcomes(arm), rng)
            np.testing.assert_allclose(
                ccdf.cdf_table(arm, ys, queries),
                dense_cdf_table(ccdf, arm, ys, queries),
                rtol=0, atol=1e-12,
            )
        grid = np.sort(_on_and_between(data.y[data.a == 1], rng))  # repeats kept
        y0s = _on_and_between(data.y[data.a == 0], rng)
        xs = rng.uniform(-0.2, 1.2, (y0s.size, 1))
        for g in (grid, grid, grid[1:]):  # one arm-1 mixer serves every grid
            np.testing.assert_allclose(
                rep.profile_many(y0s, g, xs),
                dense_profile_many(rep, y0s, g, xs),
                rtol=0, atol=1e-12,
            )


@pytest.mark.parametrize("kind", ["dr", "ipw", "oracle"])
def test_query_answer_does_not_depend_on_its_batch(kind):
    # One query answered alone, inside a batch of distinct x, and inside a run
    # of equal x rows. GEMM shapes differ between the three, so profile rows
    # agree to rounding, and g_hat may differ only where the crossing is a
    # near-tie: the alternative index's projected value is within the same
    # rounding bound of the smallest |projected value|.
    spec = DgpSpec("illustrative", gamma=6.0)
    data = sample_dgp(spec, 600, seed=9)
    if kind == "oracle":
        contrast = fit_oracle_contrast(data, truth(spec), OK)
    else:
        contrast = cross_fit_contrast(data, 9, NK, OK, kind=kind)
    grid = build_grid(data)
    y0s, xs = sample_holdout(spec, 40, seed=10)
    run_y0s = np.linspace(-3.0, 3.0, 21)
    run_y0s[8] = y0s[7]
    run_xs = np.vstack([xs[:3], np.tile(xs[7], (15, 1)), xs[3:6]])  # rows 3-17 share x
    batches = {
        "alone": (y0s[7:8], xs[7:8], 0),
        "distinct": (y0s, xs, 7),
        "run": (run_y0s, run_xs, 8),
    }
    tol = 1e-12
    rows, answers = {}, {}
    for name, (ys, rows_x, q) in batches.items():
        rows[name] = contrast.profile_many(ys, grid, rows_x)[q]
        answers[name] = estimate_cqc_many(contrast, grid, ys, rows_x)[0][q]
    projected = numpy_stack_pava(rows["alone"])
    residual = np.abs(projected).min()
    for name in ("distinct", "run"):
        np.testing.assert_allclose(rows[name], rows["alone"], rtol=0, atol=tol)
        if answers[name] != answers["alone"]:
            index = np.searchsorted(grid, answers[name])
            assert abs(projected[index]) <= residual + 2 * tol


def test_cross_fit_is_mean_of_replicates():
    data = illustrative_data(200)
    contrast = cross_fit_contrast(data, 7, NK, OK)
    assert len(contrast.replicates) == 2
    x = np.array([0.6])
    value = contrast.profile_many([0.1], [1.0], x)[0, 0]
    parts = [replicate_value(rep, 0.1, 1.0, x) for rep in contrast.replicates]
    assert value == pytest.approx(np.mean(parts), abs=1e-15)


def test_cross_fit_mean_of_stub_replicates():
    class Rep:
        kind = PseudoOutcomeKind.DR

        def __init__(self, value):
            self.value = value

        def profile_many(self, y0s, grid, xs):
            return np.full((y0s.size, grid.size), self.value)

    fit = ContrastFit(replicates=(Rep(0.2), Rep(0.4)))
    assert fit.profile_many([0], [0], [0.0])[0, 0] == pytest.approx(0.3)


@pytest.mark.parametrize("cross_fit", [False, True])
def test_replicate_average_has_the_bits_of_np_mean(cross_fit):
    # ContrastFit sums the replicates' tables into the first one and divides by
    # their count: (a + b) / 2 for two, a / 1 for one, the bits of np.mean over
    # the stacked tables. Each call returns a fresh array.
    spec = DgpSpec("illustrative", gamma=4.0)
    data = sample_dgp(spec, 300, seed=6)
    if cross_fit:
        contrast = cross_fit_contrast(data, 6, NK, OK)
    else:
        contrast = fit_contrast(data, make_split(data, 6), NK, OK)
    grid = build_grid(data)
    y0s, xs = sample_holdout(spec, 50, seed=7)
    expected = np.mean([rep.profile_many(y0s, grid, xs) for rep in contrast.replicates], axis=0)
    first = contrast.profile_many(y0s, grid, xs)
    assert first.dtype == np.float64 and first.tobytes() == expected.tobytes()
    first[:] = np.nan  # a later call shares no buffer with this one
    assert contrast.profile_many(y0s, grid, xs).tobytes() == expected.tobytes()


def test_cross_fit_error_no_worse_than_worst_replicate():
    data = illustrative_data(400, gamma=2.0, seed=11)
    oracle = truth(DgpSpec("illustrative", gamma=2.0))
    contrast = cross_fit_contrast(data, 11, NK, OK)
    rng = np.random.default_rng(2)
    for _ in range(20):
        y0, y1 = sorted(rng.normal(size=2))
        x = rng.uniform(0, 1, 1)
        target = float(exact_h(oracle.ccdf, y0, y1, x.reshape(1, -1))[0])
        combined = abs(contrast.profile_many([y0], [y1], x)[0, 0] - target)
        parts = [abs(replicate_value(rep, y0, y1, x) - target) for rep in contrast.replicates]
        assert combined <= max(parts) + 1e-12


def test_cross_fit_deterministic_to_the_bit():
    data = illustrative_data(240, gamma=4.0, seed=2)
    grid = build_grid(data)
    queries_y = np.array([0.0, 0.5, 1.0])
    queries_x = np.array([[0.2], [0.5], [0.8]])
    results = []
    for _ in range(2):
        contrast = cross_fit_contrast(data, 13, NK, OK)
        g_hat, _, _ = estimate_cqc_many(contrast, grid, queries_y, queries_x)
        results.append(g_hat)
    np.testing.assert_array_equal(results[0], results[1])


# (d, nuisance bandwidth, outer bandwidth) per kernel family.
_SHARED_KERNEL_CASES = {
    ("box", 1): (0.1, 0.15), ("gaussian", 1): (0.1, 0.15),
    ("box", 10): (1.8, 2.2), ("gaussian", 10): (0.8, 1.5),
}


def _assert_profiles_match_independent_replicates(data, seed, nk, ok, kind, xs):
    rng = np.random.default_rng(seed)
    y0s = rng.normal(size=xs.shape[0])
    grid = build_grid(data)
    shared = cross_fit_contrast(data, seed, nk, ok, kind).profile_many(y0s, grid, xs)
    oracle = independent_cross_fit(data, seed, nk, ok, kind).profile_many(y0s, grid, xs)
    assert shared.tobytes() == oracle.tobytes()


@pytest.mark.parametrize("kind", ["dr", "ipw"])
@pytest.mark.parametrize("family, d", list(_SHARED_KERNEL_CASES))
def test_shared_nuisance_kernel_matches_independent_replicates(family, d, kind):
    spec = DgpSpec("tendim", gamma=1.0, seed=3) if d == 10 else DgpSpec("illustrative", gamma=2.0)
    data = sample_dgp(spec, 401, seed=d)
    _, xs = sample_holdout(spec, 25, seed=d + 1)
    nuisance_bw, outer_bw = _SHARED_KERNEL_CASES[family, d]
    _assert_profiles_match_independent_replicates(
        data, 5, KernelSpec(family, nuisance_bw), KernelSpec(family, outer_bw), kind, xs)


@pytest.mark.parametrize("kind", ["dr", "ipw"])
def test_shared_nuisance_kernel_matches_independent_replicates_on_retry_rows(monkeypatch, kind):
    # Isolated covariates have no nuisance mass within the box radius in the
    # other half, so their propensity and arm-1 rows take the retry policy.
    base = illustrative_data(300, seed=4)
    outliers = np.array([3.0, 5.0, 7.0, 9.0, 11.0, 13.0])
    data = Dataset(np.r_[base.y, outliers], np.r_[base.x[:, 0], outliers], np.r_[base.a, [0, 1] * 3])
    nk, ok = KernelSpec("box", 0.05), KernelSpec("box", 0.1)
    halves = [data.subset(idx) for idx in make_split(data, 6)]
    retry_sizes = []
    kernel_matrix = kernels.kernel_matrix

    def recording_kernel_matrix(spec, queries, train):
        if spec.bandwidth > nk.bandwidth:  # a widened retry
            retry_sizes.append(as_rows(train).shape[0])
        return kernel_matrix(spec, queries, train)

    monkeypatch.setattr(kernels, "kernel_matrix", recording_kernel_matrix)
    contrast = cross_fit_contrast(data, 6, nk, ok, kind)
    expected = {half.n for half in halves}
    if kind == "dr":
        expected |= {half.arm_indices(arm).size for half in halves for arm in (0, 1)}
    assert expected <= set(retry_sizes)
    monkeypatch.undo()
    if kind == "dr":
        # The kept arm-0 cumulative weights give a fresh cdf_table's bits, and
        # the arm-1 mix over a column range of the kept matrix gives the bits
        # of one over a contiguous weight matrix, retry rows included.
        ys = np.r_[np.linspace(-4.0, 4.0, 17), data.y[::25]]
        rng = np.random.default_rng(6)
        for rep in contrast.replicates:
            ccdf, x = rep.nuisance.ccdf, rep.data2.x
            assert rep._table0(ys).tobytes() == ccdf.cdf_table(0, ys, x).tobytes()
            u = rng.normal(size=(7, x.shape[0]))
            contiguous = prefix_gather(u @ ccdf.weight_matrix(1, x), ccdf.arm_outcomes(1), ys)
            assert rep._mix1(u, ys).tobytes() == contiguous.tobytes()
    _assert_profiles_match_independent_replicates(data, 6, nk, ok, kind, np.c_[[0.5, 3.0, 9.0, 20.0]])


@pytest.mark.parametrize("kind", ["dr", "ipw"])
def test_cross_fit_memory_stays_within_two_half_matrices(kind):
    # K and its transpose are two (n/2)^2 matrices, live together in either
    # kind's fit; the DR fit keeps them. The DR allowance for the second is
    # the larger of one such matrix and two arm-1 weight matrices at a
    # treated share of one half. The slack covers the split's copies of the
    # data, O(n d).
    n = 3000
    data = sample_dgp(DgpSpec("tendim", gamma=1.0, seed=3), n, seed=0)
    indices_1, indices_2 = make_split(data, 0)
    n1, n2 = indices_1.size, indices_2.size
    t1, t2 = (int(data.a[idx].sum()) for idx in (indices_1, indices_2))
    second = max(n1 * n2, n2 * t1 + n1 * t2) if kind == "dr" else n1 * n2
    tracemalloc.start()
    try:
        cross_fit_contrast(data, 0, KernelSpec("gaussian", 0.8), KernelSpec("gaussian", 1.5), kind)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < (n1 * n2 + second) * 8 + 4 * n * (data.d + 1) * 8


def test_dr_fit_and_predict_memory_is_kept_blocks_plus_query_tables():
    # The fit keeps K and Kt, whose column ranges are its four arm weight
    # blocks: two half-by-half matrices in all.
    # A 200-query predict adds tables of O(m n) values: outer weights, the y0
    # term and profile rows (the grid has about n/2 points).
    n, m = 3000, 200
    spec = DgpSpec("tendim", gamma=1.0, seed=3)
    data = sample_dgp(spec, n, seed=0)
    y0s, xs = sample_holdout(spec, m, seed=1)
    n1, n2 = (idx.size for idx in make_split(data, 0))
    tracemalloc.start()
    try:
        fit = fit_cqc(data, 0, KernelSpec("gaussian", 0.8), KernelSpec("gaussian", 1.5),
                      PseudoOutcomeKind.DR, 0.05, True, None)
        fit(y0s, xs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * n1 * n2 * 8 + 4 * m * n * 8 + 4 * n * (data.d + 1) * 8


@pytest.mark.parametrize("cross_fit", [True, False])
def test_dr_predict_evaluates_only_outer_kernels(monkeypatch, cross_fit):
    # Both arms' nuisance weights at the regression rows are fitted state, so
    # the only kernels a predict evaluates are the outer smoother's.
    spec = DgpSpec("illustrative", gamma=2.0)
    data = sample_dgp(spec, 300, seed=5)
    fit = fit_cqc(data, 5, NK, OK, PseudoOutcomeKind.DR, 0.05, cross_fit, None)
    specs = []
    kernel_matrix = kernels.kernel_matrix

    def recording_kernel_matrix(spec, queries, train):
        specs.append(spec)
        return kernel_matrix(spec, queries, train)

    monkeypatch.setattr(kernels, "kernel_matrix", recording_kernel_matrix)
    y0s, xs = sample_holdout(spec, 30, seed=6)
    fit(y0s, xs)
    surface_eval(fit, y0s[:4], xs[:3])
    assert specs and set(specs) == {OK}


def test_estimate_cqc_matches_batched_path():
    data = illustrative_data(200, gamma=2.0, seed=4)
    contrast = fit_contrast(data, make_split(data, 4), NK, OK)
    grid = build_grid(data)
    y0s = np.array([0.4, -0.2, 1.1])
    xs = np.array([[0.5], [0.1], [0.9]])
    batched_g, _, _ = estimate_cqc_many(contrast, grid, y0s, xs)
    assert CqcFit(contrast, grid)(y0s, xs).tobytes() == batched_g.tobytes()


def test_cqcfit_cache_consistent_with_direct_estimate():
    data = illustrative_data(200, gamma=2.0, seed=8)
    contrast = fit_contrast(data, make_split(data, 8), NK, OK)
    grid = build_grid(data)
    fit = CqcFit(contrast, grid)
    first = fit([0.3], [[0.5]])
    second = fit([0.3], [[0.5]])
    direct, _, _ = estimate_cqc_many(contrast, grid, [0.3], [[0.5]])
    assert first.tobytes() == second.tobytes() == direct.tobytes()


def test_ipw_estimates_monotone_in_y0():
    data = illustrative_data(300, gamma=2.0, seed=6)
    contrast = fit_contrast(data, make_split(data, 6), NK, OK, kind="ipw")
    grid = build_grid(data)
    y0s = np.linspace(-1.0, 2.0, 12)
    xs = np.full((12, 1), 0.5)
    g_hat, _, _ = estimate_cqc_many(contrast, grid, y0s, xs)  # asserts monotone profiles
    assert np.all(np.diff(g_hat) >= 0)


def oracle_contrast_margins(base_seed=1):
    spec = DgpSpec("illustrative", gamma=0.0)
    data = sample_dgp(spec, 300, seed=base_seed)
    contrast = fit_oracle_contrast(data, truth(spec), OK)
    assert contrast.replicates[0].data2.n == data.n
    # gamma=0 truth: both CDFs are 1/2 at zero, so the contrast vanishes.
    value = contrast.profile_many([0.0], [0.0], [[0.5]])[0, 0]
    return {"|h(0, 0 | 0.5)| <= 0.12": at_most(abs(value), 0.12)}


def test_oracle_contrast_uses_full_sample():
    margins = oracle_contrast_margins()
    assert holds(margins), margins


def test_cqcfit_rejects_bad_grid():
    with pytest.raises(ValueError):
        CqcFit(LinearContrast(), np.array([2.0, 1.0]))

import numpy as np
import pytest

from scalar_oracle import step_quantile as reference_step_quantile
from cqcbench.kernels import KernelSpec, kernel_matrix, nw_weight_matrix
from cqcbench.nuisance import (
    CcdfEvaluator,
    Dataset,
    PropensityEvaluator,
    SingleArmError,
    fit_nuisance,
    make_split,
    prefix_gather,
    step_quantile,
)

WIDE_BOX = KernelSpec("box", 100.0)  # bandwidth beyond any data diameter used here


def four_point_arm1_dataset():
    """Arm-1 outcomes {1,2,3,4} at a common location, plus an arm-0 row."""
    y = np.array([1.0, 2.0, 3.0, 4.0, 0.5])
    x = np.zeros((5, 1))
    a = np.array([1, 1, 1, 1, 0])
    return Dataset(y, x, a)


def test_prefix_gather_with_no_columns_is_zero():
    table = prefix_gather(np.zeros((3, 0)), np.zeros(0), np.array([-1.0, 0.0, 2.0]))
    np.testing.assert_array_equal(table, np.zeros((3, 3)))


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.array([1.0]), np.array([[0.0]]), np.array([2]))
    with pytest.raises(ValueError):
        Dataset(np.array([]), np.empty((0, 1)), np.array([]))
    with pytest.raises(ValueError):
        Dataset(np.array([1.0, 2.0]), np.array([[0.0]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([1.0, 2.0]), np.array([[0.0], [np.nan]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([1.0, np.inf]), np.array([[0.0], [1.0]]), np.array([0, 1]))


def test_dataset_arm_bookkeeping():
    data = four_point_arm1_dataset()
    assert data.n == 5 and data.d == 1
    assert data.arm_indices(1).size == 4
    np.testing.assert_array_equal(data.arm_indices(0), [4])


def test_make_split_partition_arithmetic():
    data = Dataset(np.arange(6.0), np.zeros((6, 1)), np.zeros(6, dtype=int))
    indices_1, indices_2 = make_split(data, seed=5)
    assert indices_1.size == 3 and indices_2.size == 3
    assert np.intersect1d(indices_1, indices_2).size == 0
    np.testing.assert_array_equal(np.sort(np.concatenate([indices_1, indices_2])), np.arange(6))


def test_make_split_odd_sizes_differ_by_one():
    data = Dataset(np.arange(7.0), np.zeros((7, 1)), np.zeros(7, dtype=int))
    indices_1, indices_2 = make_split(data, seed=5)
    assert abs(indices_1.size - indices_2.size) == 1


def test_make_split_deterministic_and_seed_sensitive():
    data = Dataset(np.arange(100.0), np.zeros((100, 1)), np.zeros(100, dtype=int))
    split_a = make_split(data, seed=9)
    split_b = make_split(data, seed=9)
    np.testing.assert_array_equal(split_a[0], split_b[0])
    split_c = make_split(data, seed=10)
    assert not np.array_equal(split_a[0], split_c[0])


def test_make_split_too_small():
    data = Dataset(np.arange(3.0), np.zeros((3, 1)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        make_split(data, seed=0)


def test_propensity_clamps_low_and_high():
    # All neighbours untreated: raw NW value 0 clamps up to xi.
    data = Dataset(
        np.zeros(6), np.zeros((6, 1)), np.array([0, 0, 0, 0, 0, 1])
    )
    # put the only treated row far away so it carries no box mass at x=0
    data.x[5] = 50.0
    prop = PropensityEvaluator(KernelSpec("box", 1.0), data, xi=0.05)
    assert prop.many(np.array([[0.0], [50.0]])) == pytest.approx([0.05, 0.95])


def test_propensity_equal_weights_hand_average():
    data = Dataset(np.zeros(4), np.zeros((4, 1)), np.array([1, 0, 1, 0]))
    prop = PropensityEvaluator(WIDE_BOX, data, xi=0.05)
    assert prop.many(np.array([[0.0]]))[0] == pytest.approx(0.5)


def test_propensity_xi_outside_range_raises():
    data = Dataset(np.zeros(4), np.zeros((4, 1)), np.array([1, 0, 1, 0]))
    with pytest.raises(ValueError, match="xi"):
        PropensityEvaluator(WIDE_BOX, data, xi=0.7)


def test_propensity_single_arm_raises():
    data = Dataset(np.zeros(4), np.zeros((4, 1)), np.ones(4, dtype=int))
    with pytest.raises(SingleArmError):
        PropensityEvaluator(WIDE_BOX, data)


def test_propensity_outputs_stay_clipped():
    rng = np.random.default_rng(0)
    data = Dataset(
        rng.normal(size=50),
        rng.uniform(0, 1, (50, 1)),
        (rng.uniform(size=50) < 0.9).astype(int),
    )
    prop = PropensityEvaluator(KernelSpec("gaussian", 0.05), data, xi=0.1)
    values = prop.many(rng.uniform(0, 1, (40, 1)))
    assert (values >= 0.1).all() and (values <= 0.9).all()


def test_propensity_reads_a_given_kernel_matrix_without_writing_it():
    # A box kernel and one isolated query, whose empty ball takes the retry.
    rng = np.random.default_rng(3)
    data = Dataset(rng.normal(size=60), rng.uniform(0, 1, (60, 1)), np.arange(60) % 2)
    prop = PropensityEvaluator(KernelSpec("box", 0.05), data)
    xs = np.r_[rng.uniform(0, 1, (9, 1)), [[3.0]]]
    km = kernel_matrix(prop.kernel, xs, data.x)
    before = km.tobytes()
    assert km[-1].sum() == 0.0
    assert prop.many(xs, km).tobytes() == prop.many(xs).tobytes()
    assert km.tobytes() == before


def test_ccdf_step_values():
    ccdf = CcdfEvaluator(WIDE_BOX, four_point_arm1_dataset())
    below, above, middle = ccdf.cdf_table(1, [0.5, 9.0, 2.5], np.array([[0.0]]))[0]
    assert below == 0.0  # below all arm-1 outcomes
    assert above == 1.0  # above all arm-1 outcomes
    assert middle == pytest.approx(0.5)


def test_ccdf_right_continuous_step_at_jump():
    ccdf = CcdfEvaluator(WIDE_BOX, four_point_arm1_dataset())
    at_jump, before_jump = ccdf.cdf_table(1, [2.0, 2.0 - 1e-9], np.array([[0.0]]))[0]
    assert at_jump == pytest.approx(0.5)  # includes the jump at 2
    assert before_jump == pytest.approx(0.25)


def test_ccdf_single_arm_raises():
    data = Dataset(np.arange(4.0), np.zeros((4, 1)), np.ones(4, dtype=int))
    with pytest.raises(SingleArmError):
        CcdfEvaluator(WIDE_BOX, data)


def test_ccdf_wide_bandwidth_equals_empirical_cdf():
    rng = np.random.default_rng(1)
    data = Dataset(
        rng.normal(size=30),
        rng.uniform(0, 1, (30, 1)),
        (rng.uniform(size=30) < 0.5).astype(int),
    )
    ccdf = CcdfEvaluator(WIDE_BOX, data)
    arm1 = np.sort(data.y[data.a == 1])
    qs = np.array([-0.5, 0.0, 0.7])
    empirical = np.mean(arm1[None, :] <= qs[:, None], axis=1)
    for row in ccdf.cdf_table(1, qs, np.array([[0.1], [0.9]])):
        assert row == pytest.approx(empirical, abs=1e-12)


def test_ccdf_keeps_each_arm_as_a_range_of_arm_major_rows():
    # Interleaved arms with tied outcomes: each arm's jump points ascend, and
    # its weights are those over its rows in stable outcome order.
    rng = np.random.default_rng(2)
    data = Dataset(rng.integers(0, 4, 40).astype(float), rng.uniform(0, 1, (40, 1)), rng.integers(0, 2, 40))
    kernel = KernelSpec("gaussian", 0.2)
    ccdf = CcdfEvaluator(kernel, data)
    queries = rng.uniform(0, 1, (7, 1))
    for arm in (0, 1):
        rows = data.arm_indices(arm)
        rows = rows[np.argsort(data.y[rows], kind="stable")]
        assert np.all(np.diff(ccdf.arm_outcomes(arm)) >= 0)
        assert ccdf.arm_outcomes(arm).tobytes() == data.y[rows].tobytes()
        expected = nw_weight_matrix(kernel, queries, data.x[rows])
        assert ccdf.weight_matrix(arm, queries).tobytes() == expected.tobytes()


def test_generalised_inverse_step_examples():
    ccdf = CcdfEvaluator(WIDE_BOX, four_point_arm1_dataset())
    x = np.array([0.0])
    assert ccdf.quantile(1, 0.5, x) == 2.0
    assert ccdf.quantile(1, 1.0, x) == 4.0
    assert ccdf.quantile(1, 0.26, x) == 2.0
    assert ccdf.quantile(1, 0.0, x) == 1.0  # smallest jump point
    assert np.ndim(ccdf.quantile(1, 0.5, x)) == 0
    levels = ccdf.quantile(1, [0.5, 1.0, 0.26, 0.0], x)  # every level from one weight row
    np.testing.assert_array_equal(levels, [2.0, 4.0, 2.0, 1.0])


def test_generalised_inverse_alpha_out_of_range():
    ccdf = CcdfEvaluator(WIDE_BOX, four_point_arm1_dataset())
    with pytest.raises(ValueError):
        ccdf.quantile(1, 1.5, np.array([0.0]))
    with pytest.raises(ValueError):
        ccdf.quantile(1, [0.5, -0.1], np.array([0.0]))


def test_row_wise_step_quantile_matches_scalar_reference():
    rng = np.random.default_rng(5)
    m = 12
    for k in (1, 2, 7, 40):
        jumps = np.sort(rng.normal(size=k))
        # Zero weights repeat cumulative entries; rows sum to one up to round-off.
        weights = rng.exponential(size=(m, k)) * (rng.random((m, k)) < 0.7)
        weights[:, rng.integers(0, k)] += 0.1
        cums = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
        last = cums[:, -1]
        levels = (
            cums[np.arange(m), rng.integers(0, k, m)],  # on a cumulative entry
            np.zeros(m),
            rng.uniform(size=m),
            np.nextafter(cums[np.arange(m), rng.integers(0, k, m)], 2.0),
            last + 0.5e-9,  # within the slack above the last entry
            np.ones(m),
        )
        for alphas in levels:
            expected = [reference_step_quantile(jumps, cums[q], alphas[q]) for q in range(m)]
            assert step_quantile(jumps, cums, alphas).tobytes() == np.array(expected).tobytes()
        for q in range(m):  # one row inverted at every level
            alphas = np.array([level[q] for level in levels])
            expected = [reference_step_quantile(jumps, cums[q], a) for a in alphas]
            assert step_quantile(jumps, cums[q], alphas).tobytes() == np.array(expected).tobytes()
        beyond = rng.uniform(size=m)
        beyond[3] = last[3] + 2e-9  # beyond the slack
        with pytest.raises(ValueError):
            reference_step_quantile(jumps, cums[3], beyond[3])
        with pytest.raises(ValueError):
            step_quantile(jumps, cums, beyond)


def test_generalised_inverse_round_trip_laws():
    rng = np.random.default_rng(2)
    data = Dataset(
        rng.normal(size=40),
        rng.uniform(0, 1, (40, 1)),
        (rng.uniform(size=40) < 0.5).astype(int),
    )
    ccdf = CcdfEvaluator(KernelSpec("gaussian", 0.3), data)
    x = np.array([0.4])
    alphas = np.linspace(0.0, 1.0, 11)
    ys = ccdf.quantile(1, alphas, x)
    assert np.all(ccdf.cdf_table(1, ys, x[None])[0] >= alphas - 1e-12)
    jumps = ccdf.arm_outcomes(1)
    levels = ccdf.cdf_table(1, jumps, x[None])[0]
    assert np.all(ccdf.quantile(1, levels, x) <= jumps + 1e-12)


def test_ccdf_monotone_in_y():
    rng = np.random.default_rng(3)
    data = Dataset(
        rng.normal(size=50),
        rng.uniform(0, 1, (50, 1)),
        (rng.uniform(size=50) < 0.5).astype(int),
    )
    ccdf = CcdfEvaluator(KernelSpec("gaussian", 0.2), data)
    ys = np.linspace(-3, 3, 60)
    table = ccdf.cdf_table(1, ys, np.array([[0.5], [0.9]]))
    assert np.all(np.diff(table, axis=1) >= 0)
    assert (table >= 0).all() and (table <= 1).all()


def test_fit_nuisance_bundles_evaluators():
    data = four_point_arm1_dataset()
    model = fit_nuisance(data, WIDE_BOX, xi=0.05)
    assert model.propensity.xi == 0.05
    x_row = np.array([[0.0]])
    assert 0.05 <= model.propensity.many(x_row)[0] <= 0.95
    assert model.ccdf.cdf_table(1, [2.5], x_row)[0, 0] == pytest.approx(0.5)

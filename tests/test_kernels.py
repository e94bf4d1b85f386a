import tracemalloc

import numpy as np
import pytest
from kernel_oracle import full_tensor_kernel_matrix, full_tensor_sq_dists

from cqcbench.kernels import (
    _BLOCK_VALUES,
    DegenerateMassError,
    KernelSpec,
    WeightVector,
    kernel_eval,
    kernel_matrix,
    nw_regress,
    nw_weight_matrix,
    nw_weights,
    resolve_weights,
    _sq_dist_matrix,
)

BOX1 = KernelSpec("box", 1.0)
GAUSS1 = KernelSpec("gaussian", 1.0)


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec("triangle", 1.0)
    with pytest.raises(ValueError):
        KernelSpec("box", 0.0)
    with pytest.raises(ValueError):
        KernelSpec("gaussian", -1.0)


def test_box_kernel_inside_radius():
    assert kernel_eval(BOX1, 0.0, 0.5) == 1.0


def test_box_kernel_outside_radius():
    assert kernel_eval(BOX1, 0.0, 2.0) == 0.0


def test_gaussian_kernel_zero_distance():
    assert kernel_eval(GAUSS1, 0.0, 0.0) == 1.0


def test_gaussian_kernel_known_value():
    # exp(-d^2 / (2 l^2)) at d=1, l=1
    assert kernel_eval(GAUSS1, 0.0, 1.0) == pytest.approx(np.exp(-0.5))


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_eval(BOX1, [0.0, 0.0], [1.0])


def test_nw_weights_hand_count():
    wv = nw_weights(BOX1, 0.0, [-0.5, 0.1, 2.0])
    np.testing.assert_allclose(wv.weights, [0.5, 0.5, 0.0])
    assert not wv.degenerate


def test_nw_weights_single_point_full_mass():
    for spec in (BOX1, GAUSS1):
        wv = nw_weights(spec, 0.3, [0.3])
        np.testing.assert_allclose(wv.weights, [1.0])


def test_nw_weights_empty_ball_is_degenerate():
    wv = nw_weights(KernelSpec("box", 0.1), 0.0, [5.0, 6.0])
    assert wv.degenerate
    assert wv.weights.sum() == 0.0


def test_nw_weights_mask_zeroes_points():
    wv = nw_weights(BOX1, 0.0, [-0.5, 0.1, 0.2], mask=[True, False, True])
    assert wv.weights[1] == 0.0
    np.testing.assert_allclose(wv.weights.sum(), 1.0)


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector(np.array([-0.1, 1.1]))
    with pytest.raises(ValueError):
        WeightVector(np.array([0.5, 0.5]), degenerate=True)
    with pytest.raises(ValueError):
        WeightVector(np.array([0.4, 0.4]))


def test_nw_regress_weighted_average():
    assert nw_regress(BOX1, 0.0, [-0.5, 0.1, 2.0], [2.0, 4.0, 100.0]) == pytest.approx(3.0)


def test_nw_regress_constant_targets():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, 20)
    assert nw_regress(GAUSS1, 0.2, xs, np.full(20, 7.25)) == pytest.approx(7.25)


def test_nw_regress_strict_mode_errors_on_empty_ball():
    with pytest.raises(DegenerateMassError):
        nw_regress(KernelSpec("box", 0.1), 0.0, [5.0, 6.0], [1.0, 2.0], strict=True)


def test_policy_widens_until_support():
    # Points at distance ~5 need several doublings of a 0.1 box radius.
    xs = np.array([5.0, 5.1, 5.2, 5.3, 5.4, 5.5])
    wv = resolve_weights(KernelSpec("box", 0.1), 0.0, xs)
    assert not wv.degenerate
    assert np.count_nonzero(wv.weights) >= 5


def test_policy_accepts_small_training_sets():
    # Fewer than five candidates: the support target drops to what exists.
    wv = resolve_weights(KernelSpec("box", 0.1), 0.0, np.array([3.0, 3.5]))
    assert np.count_nonzero(wv.weights) == 2


def test_policy_gives_up_after_ten_doublings():
    with pytest.raises(DegenerateMassError):
        resolve_weights(KernelSpec("box", 0.1), 0.0, np.array([1e6, 2e6]))


def test_weights_nonnegative_and_normalised_randomised():
    rng = np.random.default_rng(42)
    for _ in range(50):
        xs = rng.normal(size=(rng.integers(1, 30), 2))
        x = rng.normal(size=2)
        spec = KernelSpec(
            rng.choice(["box", "gaussian"]), float(rng.uniform(0.5, 3.0))
        )
        wv = nw_weights(spec, x, xs)
        assert (wv.weights >= 0).all()
        if not wv.degenerate:
            assert abs(wv.weights.sum() - 1.0) <= 1e-12
            assert wv.norm_inf <= wv.norm2 + 1e-15
            assert wv.norm2 <= wv.norm1 + 1e-15
            assert wv.norm1 == pytest.approx(1.0, abs=1e-12)


def test_regression_is_convex_combination():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2, 2, 40)
    targets = rng.normal(size=40)
    value = nw_regress(GAUSS1, 0.1, xs, targets)
    wv = nw_weights(GAUSS1, 0.1, xs)
    active = targets[wv.weights > 0]
    assert active.min() - 1e-12 <= value <= active.max() + 1e-12


def test_box_weights_permutation_equivariant():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, 15)
    perm = rng.permutation(15)
    w = nw_weights(BOX1, 0.2, xs).weights
    w_perm = nw_weights(BOX1, 0.2, xs[perm]).weights
    np.testing.assert_array_equal(w[perm], w_perm)


def test_weight_matrix_matches_per_row_weights():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1, 1, (30, 2))
    queries = rng.uniform(-1, 1, (6, 2))
    matrix = nw_weight_matrix(GAUSS1, queries, xs)
    for i, q in enumerate(queries):
        np.testing.assert_array_equal(matrix[i], nw_weights(GAUSS1, q, xs).weights)
    # Several distance blocks, a mask, and a far query whose empty box ball
    # takes the retry path while the other rows are normalised in place.
    xs = rng.uniform(-1, 1, (400, 2))
    rows_per_block = _BLOCK_VALUES // xs.size
    queries = rng.uniform(-1, 1, (2 * rows_per_block + 5, 2))
    queries[3] = [4.0, 4.0]
    mask = rng.random(400) < 0.7
    for spec in (GAUSS1, KernelSpec("box", 0.3)):
        matrix = nw_weight_matrix(spec, queries, xs, mask=mask)
        for i, q in enumerate(queries):
            np.testing.assert_array_equal(matrix[i], resolve_weights(spec, q, xs, mask).weights)
    assert nw_weights(KernelSpec("box", 0.3), queries[3], xs, mask).degenerate


def test_kernel_matrix_matches_scalar_eval():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (10, 3))
    queries = rng.uniform(-1, 1, (4, 3))
    km = kernel_matrix(GAUSS1, queries, xs)
    for i in range(4):
        for j in range(10):
            assert km[i, j] == pytest.approx(kernel_eval(GAUSS1, queries[i], xs[j]), abs=1e-15)


@pytest.mark.parametrize("d", [1, 3, 10])
def test_blocked_distances_match_full_tensor(d):
    rng = np.random.default_rng(d)
    rows_per_block = _BLOCK_VALUES // (50 * d)
    # m not a multiple of the block's row count; then n*d above one block, so
    # every block is a single query row.
    for m, n in ((2 * rows_per_block + 3, 50), (3, _BLOCK_VALUES // d + 1)):
        queries = rng.normal(size=(m, d))
        train = rng.normal(size=(n, d))
        assert _sq_dist_matrix(queries, train).tobytes() == full_tensor_sq_dists(queries, train).tobytes()
        for spec in (KernelSpec("box", 1.5), KernelSpec("gaussian", 0.7)):
            expected = full_tensor_kernel_matrix(spec, queries, train)
            assert kernel_matrix(spec, queries, train).tobytes() == expected.tobytes()


def test_weight_matrix_memory_stays_within_two_matrices():
    rng = np.random.default_rng(0)
    m = n = 1500
    queries = rng.normal(size=(m, 10))
    train = rng.normal(size=(n, 10))
    tracemalloc.start()
    try:
        nw_weight_matrix(KernelSpec("gaussian", 2.0), queries, train)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * m * n * 8

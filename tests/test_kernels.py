import re
import tracemalloc

import numpy as np
import pytest
from kernel_oracle import full_tensor_kernel_matrix, full_tensor_sq_dists, masked_normalise_rows, retry_row

from cqcbench import kernels
from cqcbench.kernels import (
    _BLOCK_VALUES,
    _STRIP_ROWS,
    DegenerateMassError,
    KernelSpec,
    as_rows,
    kernel_matrix,
    nw_weight_matrix,
    resolve_weights,
    transpose_strips,
    _normalise_rows,
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


@pytest.mark.parametrize("family", ["box", "gaussian"])
def test_bandwidth_whose_square_is_zero_is_rejected(family):
    # 1e-200 squares to 0, so a Gaussian query on a training point would get
    # the weight 0 / -0 = NaN.
    with pytest.raises(ValueError, match="square"):
        nw_weight_matrix(KernelSpec(family, 1e-200), [[0.5]], [[0.5], [0.1], [0.9]])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bandwidth", [1e200, 1.8e154, 1.3407807929942597e154,
                                       np.float64(1e200), float("inf")])
def test_bandwidth_whose_square_overflows_is_rejected(bandwidth):
    # Above sqrt(max float) a Python float's square is inf (** would raise OverflowError).
    with pytest.raises(ValueError, match="finite square"):
        KernelSpec("gaussian", bandwidth)


def test_largest_bandwidth_with_a_finite_square_is_accepted():
    # The Gaussian divisor -2h^2 overflows to -inf here, so every weight is
    # exp(-0) = 1: the wide-bandwidth limit.
    assert KernelSpec("gaussian", 1.3407807929942596e154).bandwidth == 1.3407807929942596e154
    spec = KernelSpec("gaussian", 1.3e154)
    np.testing.assert_array_equal(nw_weight_matrix(spec, [[0.0]], [[0.5], [9.0]]), [[0.5, 0.5]])


@pytest.mark.filterwarnings("error")
def test_tiny_gaussian_bandwidth_is_zero_mass_without_warnings():
    # -d^2 / (2h^2) overflows to -inf at h = 1e-155; exp gives zero mass, and
    # the retry policy gives up.
    with pytest.raises(DegenerateMassError):
        nw_weight_matrix(KernelSpec("gaussian", 1e-155), [[0.3]], [[0.5], [0.1], [0.9]])


def kernel_value(spec, x, x2) -> float:
    return kernel_matrix(spec, [x], [x2])[0, 0]


def nw_row(spec, x, train_xs) -> np.ndarray:
    return nw_weight_matrix(spec, [x], train_xs)[0]


def test_box_kernel_inside_radius():
    assert kernel_value(BOX1, 0.0, 0.5) == 1.0


def test_box_kernel_outside_radius():
    assert kernel_value(BOX1, 0.0, 2.0) == 0.0


def test_gaussian_kernel_zero_distance():
    assert kernel_value(GAUSS1, 0.0, 0.0) == 1.0


def test_gaussian_kernel_known_value():
    # exp(-d^2 / (2 l^2)) at d=1, l=1
    assert kernel_value(GAUSS1, 0.0, 1.0) == pytest.approx(np.exp(-0.5))


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError):
        kernel_matrix(BOX1, [[0.0, 0.0]], [[1.0]])
    with pytest.raises(ValueError, match=r"\(n, d\)"):
        as_rows(np.zeros((2, 2, 2)))
    # With a width, as_rows is the one covariate-width check, kernel_matrix's included.
    assert as_rows(0.5, 1).shape == (1, 1) and as_rows([[1.0, 2.0]], 2).shape == (1, 2)
    for call in (lambda: as_rows([[0.0, 0.0]], 1),
                 lambda: kernel_matrix(BOX1, [[0.0, 0.0]], [[1.0]])):
        with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 1$"):
            call()
    # It also rejects a non-finite row, naming it, with or without a width: in
    # queries and training rows alike, which would otherwise get an all-NaN
    # weight row or a zero weight.
    for bad in (np.nan, np.inf, -np.inf):
        for call in (lambda: as_rows([0.5, bad], 1), lambda: as_rows([0.5, bad]),
                     lambda: kernel_matrix(BOX1, [0.5, bad], [1.0]),
                     lambda: kernel_matrix(GAUSS1, [0.5], [1.0, bad]),
                     lambda: nw_weight_matrix(GAUSS1, [0.5], [1.0, bad, 0.0])):
            with pytest.raises(ValueError, match="^covariate row 1 is not finite$"):
                call()


def test_nw_weights_hand_count():
    np.testing.assert_allclose(nw_row(BOX1, 0.0, [-0.5, 0.1, 2.0]), [0.5, 0.5, 0.0])


def test_nw_weights_single_point_full_mass():
    for spec in (BOX1, GAUSS1):
        np.testing.assert_allclose(nw_row(spec, 0.3, [0.3]), [1.0])


def test_nw_weights_empty_ball_is_degenerate():
    # No kernel mass at the first bandwidth, so the row takes the retry path.
    spec = KernelSpec("box", 0.1)
    assert kernel_matrix(spec, [0.0], [5.0, 6.0]).sum() == 0.0
    assert nw_row(spec, 0.0, [5.0, 6.0]).tobytes() == retry_row(spec, 0.0, [5.0, 6.0]).tobytes()


def test_nw_regress_weighted_average():
    value = nw_row(BOX1, 0.0, [-0.5, 0.1, 2.0]) @ np.array([2.0, 4.0, 100.0])
    assert value == pytest.approx(3.0)


def test_nw_regress_constant_targets():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-1, 1, 20)
    assert nw_row(GAUSS1, 0.2, xs) @ np.full(20, 7.25) == pytest.approx(7.25)


def test_policy_widens_until_support():
    # Points at distance ~5 need several doublings of a 0.1 box radius.
    xs = np.array([5.0, 5.1, 5.2, 5.3, 5.4, 5.5])
    w = resolve_weights(KernelSpec("box", 0.1), 0.0, xs)
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.count_nonzero(w) >= 5


def test_policy_accepts_small_training_sets():
    # Fewer than five candidates: the support target drops to what exists.
    w = resolve_weights(KernelSpec("box", 0.1), 0.0, np.array([3.0, 3.5]))
    assert np.count_nonzero(w) == 2


def test_policy_accepts_a_row_at_the_last_doubling(monkeypatch):
    # A 1e-3 box radius first reaches points at distance 0.8 at 1e-3 * 2**10.
    bandwidths = []

    def counted(spec, queries, train):
        bandwidths.append(spec.bandwidth)
        return kernel_matrix(spec, queries, train)

    monkeypatch.setattr(kernels, "kernel_matrix", counted)
    w = nw_weight_matrix(KernelSpec("box", 1e-3), [[0.0]], np.full((5, 1), 0.8))
    assert bandwidths == [1e-3 * 2.0**k for k in range(11)]
    np.testing.assert_array_equal(w, np.full((1, 5), 0.2))


def test_policy_gives_up_after_ten_doublings():
    message = "no kernel mass at query point array([0.]) (after 10 bandwidth doublings)"
    with pytest.raises(DegenerateMassError, match=re.escape(message)):
        resolve_weights(KernelSpec("box", 0.1), 0.0, np.array([1e6, 2e6]))


def test_weights_nonnegative_and_normalised_randomised():
    rng = np.random.default_rng(42)
    for _ in range(50):
        xs = rng.normal(size=(rng.integers(1, 30), 2))
        x = rng.normal(size=2)
        spec = KernelSpec(
            rng.choice(["box", "gaussian"]), float(rng.uniform(0.5, 3.0))
        )
        w = nw_row(spec, x, xs)
        norm1, norm2, norm_inf = (np.linalg.norm(w, order) for order in (1, 2, np.inf))
        assert (w >= 0).all()
        assert abs(w.sum() - 1.0) <= 1e-12
        assert norm_inf <= norm2 + 1e-15
        assert norm2 <= norm1 + 1e-15
        assert norm1 == pytest.approx(1.0, abs=1e-12)


def test_regression_is_convex_combination():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-2, 2, 40)
    targets = rng.normal(size=40)
    w = nw_row(GAUSS1, 0.1, xs)
    value = w @ targets
    active = targets[w > 0]
    assert active.min() - 1e-12 <= value <= active.max() + 1e-12


def test_box_weights_permutation_equivariant():
    rng = np.random.default_rng(3)
    xs = rng.uniform(-1, 1, 15)
    perm = rng.permutation(15)
    w = nw_row(BOX1, 0.2, xs)
    w_perm = nw_row(BOX1, 0.2, xs[perm])
    np.testing.assert_array_equal(w[perm], w_perm)


def test_weight_matrix_matches_per_row_weights():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-1, 1, (30, 2))
    queries = rng.uniform(-1, 1, (6, 2))
    matrix = nw_weight_matrix(GAUSS1, queries, xs)
    for i, q in enumerate(queries):
        assert matrix[i].tobytes() == retry_row(GAUSS1, q, xs).tobytes()
    # Several distance blocks, and a far query whose empty box ball takes the
    # retry path while the other rows are normalised in place.
    xs = rng.uniform(-1, 1, (400, 2))
    rows_per_block = _BLOCK_VALUES // xs.size
    queries = rng.uniform(-1, 1, (2 * rows_per_block + 5, 2))
    queries[3] = [4.0, 4.0]
    for spec in (GAUSS1, KernelSpec("box", 0.3)):
        matrix = nw_weight_matrix(spec, queries, xs)
        for i, q in enumerate(queries):
            assert matrix[i].tobytes() == retry_row(spec, q, xs).tobytes()
    assert kernel_matrix(KernelSpec("box", 0.3), queries[3:4], xs).sum() == 0.0


def test_weight_matrix_retries_rows_together_like_the_per_row_oracle():
    # d = 10 box balls of radius 0.6 around normal queries are almost all
    # empty; the rows find support after different numbers of doublings.
    rng = np.random.default_rng(10)
    xs = rng.normal(size=(400, 10))
    queries = rng.normal(size=(60, 10))
    queries[7] = 6.0  # far out: more doublings than its neighbours
    queries[9] = xs[0]  # a training point: mass at the first bandwidth
    spec = KernelSpec("box", 0.6)
    first = kernel_matrix(spec, queries, xs).sum(axis=1)
    assert np.count_nonzero(first == 0.0) > 50 and first[9] > 0.0
    matrix = nw_weight_matrix(spec, queries, xs)
    for i, q in enumerate(queries):
        assert matrix[i].tobytes() == retry_row(spec, q, xs).tobytes()
    assert np.count_nonzero(matrix[9]) == 1  # the first bandwidth accepts any mass
    support = {np.count_nonzero(row) for row in matrix[first == 0.0]}
    assert min(support) >= 5 and len(support) > 10
    # The error names the first row that is still empty after the last doubling.
    queries[[3, 5]] = [[1e6] * 10, [2e6] * 10]
    with pytest.raises(DegenerateMassError, match=re.escape("array([1000000., ")):
        nw_weight_matrix(spec, queries, xs)


def test_kernel_matrix_matches_scalar_eval():
    rng = np.random.default_rng(5)
    xs = rng.uniform(-1, 1, (10, 3))
    queries = rng.uniform(-1, 1, (4, 3))
    km = kernel_matrix(GAUSS1, queries, xs)
    for i in range(4):
        for j in range(10):
            expected = np.exp(-np.sum((queries[i] - xs[j]) ** 2) / 2.0)
            assert km[i, j] == pytest.approx(expected, abs=1e-15)


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


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("shape", [(3, 5), (_STRIP_ROWS, 7), (2 * _STRIP_ROWS + 3, 40), (1, 0)])
def test_column_gather_and_strip_transpose_match_numpy(order, shape):
    rng = np.random.default_rng(shape[0])
    m = np.asarray(rng.normal(size=shape), order=order)
    transposed = transpose_strips(m)
    assert transposed.flags.c_contiguous
    assert transposed.shape == m.T.shape and transposed.tobytes() == np.ascontiguousarray(m.T).tobytes()
    # A column range of a C-ordered matrix, as a fit reads its arm weights,
    # has the row sums and running sums of its contiguous copy.
    c = np.ascontiguousarray(m)
    for cols in (slice(0, shape[1] // 3), slice(shape[1] // 3, None), slice(1, -1)):
        view, copy = c[:, cols], np.ascontiguousarray(c[:, cols])
        assert view.sum(axis=1).tobytes() == copy.sum(axis=1).tobytes()
        assert np.cumsum(view, axis=1).tobytes() == np.cumsum(copy, axis=1).tobytes()


def test_normalise_rows_matches_masked_division():
    rng = np.random.default_rng(8)
    km = rng.uniform(size=(6, 9))
    km[1] = 0.0  # zero mass: left as zeros, flagged
    km[2, 4] = np.nan  # NaN total: divided like any other row, not flagged
    km[3] = 0.0
    km[3, 0] = np.inf  # infinite total
    km[4, :] = 1e-320  # subnormal mass
    expected = km.copy()
    with np.errstate(invalid="ignore"):  # NaN and inf / inf
        bad = _normalise_rows(km)
        assert bad.tolist() == masked_normalise_rows(expected).tolist() == [False, True] + [False] * 4
    assert km.tobytes() == expected.tobytes()


def test_weight_matrix_normalises_a_given_kernel_matrix_in_place():
    rng = np.random.default_rng(4)
    xs = rng.uniform(-1, 1, (50, 2))
    queries = rng.uniform(-1, 1, (7, 2))
    queries[2] = [5.0, 5.0]  # empty box ball: the retry row
    spec = KernelSpec("box", 0.4)
    km = kernel_matrix(spec, queries, xs)
    weights = nw_weight_matrix(spec, queries, xs, km)
    assert weights is km
    assert weights.tobytes() == nw_weight_matrix(spec, queries, xs).tobytes()
    # A column range is normalised in place, retry row included, with the
    # bits of a fresh matrix over those training points.
    km = kernel_matrix(spec, queries, xs)
    weights = nw_weight_matrix(spec, queries, xs[20:], km[:, 20:])
    assert np.shares_memory(weights, km) and km[:, :20].tobytes() == kernel_matrix(spec, queries, xs[:20]).tobytes()
    assert weights.tobytes() == nw_weight_matrix(spec, queries, xs[20:]).tobytes()
    with pytest.raises(ValueError, match="contiguous rows"):
        nw_weight_matrix(spec, queries, xs, np.asfortranarray(kernel_matrix(spec, queries, xs)))
    with pytest.raises(ValueError, match="contiguous rows"):
        nw_weight_matrix(spec, queries, xs, kernel_matrix(spec, queries[1:], xs))

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cqcbench import isotonic
from cqcbench.isotonic import pava_project, zero_crossing

from isotonic_oracle import dp_isotonic_fit, numpy_stack_pava
from test_estimator import near_tie_rows


def test_already_isotonic_is_unchanged():
    np.testing.assert_array_equal(pava_project([1.0, 2.0, 3.0]).projected, [1.0, 2.0, 3.0])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.floats(allow_nan=False) | st.sampled_from([-1.0, -0.0, 0.0, 1.0]),
        min_size=1,
        max_size=200,
    )
)
def test_nondecreasing_input_is_returned_bit_identical(values):
    # Ties, signed zeros, subnormals and infinities included.
    v = np.sort(np.array(values))
    assert pava_project(v).projected.tobytes() == v.tobytes()


def test_two_point_violation_pools_to_mean():
    np.testing.assert_allclose(pava_project([3.0, 1.0]).projected, [2.0, 2.0])


def test_interior_violation_pools_pair():
    np.testing.assert_allclose(
        pava_project([1.0, 3.0, 2.0, 4.0]).projected, [1.0, 2.5, 2.5, 4.0]
    )


def test_empty_input_raises():
    with pytest.raises(ValueError):
        pava_project([])
    with pytest.raises(ValueError):
        pava_project(np.zeros((2, 0)))


def test_zero_and_three_dimensional_input_raises():
    with pytest.raises(ValueError):
        pava_project(1.0)
    with pytest.raises(ValueError):
        pava_project(np.zeros((2, 2, 2)))


def test_result_reports_input_length():
    res = pava_project([2.0, 1.0, 5.0])
    assert res.projected.shape == (3,)
    assert pava_project([[2.0, 1.0, 5.0]] * 2).projected.shape == (2, 3)


def test_output_nondecreasing_randomised():
    rng = np.random.default_rng(0)
    for _ in range(200):
        values = rng.normal(size=rng.integers(1, 40))
        out = pava_project(values).projected
        assert np.all(np.diff(out) >= 0)


def test_idempotence():
    rng = np.random.default_rng(1)
    for _ in range(100):
        values = rng.normal(size=rng.integers(1, 30))
        once = pava_project(values).projected
        twice = pava_project(once).projected
        np.testing.assert_array_equal(once, twice)


def test_mean_preserved():
    rng = np.random.default_rng(2)
    for _ in range(100):
        values = rng.normal(size=rng.integers(1, 30))
        out = pava_project(values).projected
        assert abs(out.mean() - values.mean()) <= 1e-12


def test_matches_dp_oracle_on_random_integer_sequences():
    rng = np.random.default_rng(3)
    for _ in range(100):
        values = rng.integers(-2, 3, size=rng.integers(1, 6)).astype(float)
        np.testing.assert_allclose(
            pava_project(values).projected, dp_isotonic_fit(values), atol=1e-6
        )


def test_sup_error_never_increases_toward_monotone_target():
    rng = np.random.default_rng(4)
    for _ in range(300):
        size = rng.integers(1, 25)
        target = np.sort(rng.normal(size=size))
        noisy = target + rng.normal(scale=rng.uniform(0.01, 2.0), size=size)
        projected = pava_project(noisy).projected
        assert (
            np.max(np.abs(target - projected))
            <= np.max(np.abs(target - noisy)) + 1e-12
        )


def test_adjacent_gaps_never_increase():
    rng = np.random.default_rng(5)
    for _ in range(300):
        size = rng.integers(2, 25)
        values = rng.normal(size=size)
        projected = pava_project(values).projected
        assert np.all(
            np.abs(np.diff(projected)) <= np.abs(np.diff(values)) + 1e-12
        )


def test_ties_form_equal_valued_blocks():
    out = pava_project([2.0, 2.0, 1.0]).projected
    np.testing.assert_allclose(out, [5.0 / 3.0] * 3)


def test_bit_identical_to_numpy_stack_reference():
    rng = np.random.default_rng(6)
    rows = [
        np.array([0.1, 0.1, 0.1]),
        np.array([-0.0, 0.0, -0.0]),
        np.linspace(-1.0, 1.0, 500),  # already monotone
        np.linspace(1.0, -1.0, 500),  # one long decreasing run
        np.repeat(rng.normal(size=50), 10),  # ties
        np.repeat(rng.integers(-3, 4, size=100) / 7.0, 3),  # ties with pooling
    ]
    for _ in range(200):
        size = int(rng.integers(1, 600))
        trend = rng.uniform(-0.01, 0.01) * np.arange(size)
        rows.append(trend + rng.normal(scale=rng.uniform(0.001, 1.0), size=size))
    for values in rows:
        assert (
            pava_project(values).projected.tobytes()
            == numpy_stack_pava(values).tobytes()
        )


_TABLE_VALUES = st.floats(allow_nan=False, width=64) | st.sampled_from(
    [-1.0, -0.0, 0.0, 1.0, np.nan, np.inf, -np.inf]
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data(), st.integers(1, 8), st.integers(1, 40))
def test_table_rows_bit_identical_to_numpy_stack_reference(data, m, p):
    # Rows are raw draws or sorted draws (exactly monotone, ties included);
    # m = 1 and p = 1 give the one-row and one-column tables.
    rows = []
    for _ in range(m):
        row = np.array(data.draw(st.lists(_TABLE_VALUES, min_size=p, max_size=p)))
        rows.append(np.sort(row) if data.draw(st.booleans()) else row)
    table = np.array(rows)
    projected = pava_project(table).projected
    assert projected.shape == table.shape
    with np.errstate(all="ignore"):
        expected = [numpy_stack_pava(row).tobytes() for row in table]
    assert [row.tobytes() for row in projected] == expected


# The ends set a rounding bound of about 9e-9 on these rows; the two values
# left of the -0.25 run sit 4 and 5.5 bounds below it (mirrored in the second
# row), so pooling across the crossing window's edge is within rounding of the
# chord test and the rows must go to pava_project.
EDGE_WITHIN_ROUNDING = np.array([
    [-1e6, -0.2500000355271368, -0.2500000488498131, -0.25, -0.25, 0.5, 1e6],
    [-1e6, -0.5, 0.25, 0.25, 0.2500000488498131, 0.2500000355271368, 1e6],
])


def count_pava_rows(monkeypatch):
    calls = []

    def counted(values):
        calls.append(np.array(values))
        return pava_project(values)

    monkeypatch.setattr(isotonic, "pava_project", counted)
    return calls


def assert_matches_per_row_reference(table, indices, residuals):
    for row, index, residual in zip(table, indices, residuals):
        projected = np.abs(numpy_stack_pava(row))
        assert index == np.argmin(projected) and residual.tobytes() == projected[index].tobytes()


def test_zero_crossing_sends_only_uncertified_rows_to_one_pava_call(monkeypatch):
    calls = count_pava_rows(monkeypatch)
    table = np.vstack([
        [-1.0, -0.5, 0.5, 0.25, -0.25, 1.0, 2.0],  # a clean crossing
        EDGE_WITHIN_ROUNDING,
        [-1.0, np.nan, 0.5, 0.25, -0.25, 1.0, 2.0],
        [-1.0, -0.5, 0.5, 0.25, -0.25, 1.0, np.inf],
        [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3],  # no descent: its own projection
    ])
    indices, residuals = zero_crossing(table)
    assert len(calls) == 1 and calls[0].tobytes() == table[1:5].tobytes()
    assert_matches_per_row_reference(table, indices, residuals)

    calls.clear()
    zero_crossing(table[[0, 5]])
    assert len(calls) == 1 and calls[0].shape == (0, 7)


def test_zero_crossing_in_row_blocks_matches_per_row_reference(monkeypatch):
    calls = count_pava_rows(monkeypatch)
    rng = np.random.default_rng(3)
    quarters = np.round(np.cumsum(rng.normal(size=(30, 7)), axis=1) * 4.0) / 4.0  # ties
    table = np.vstack([quarters, EDGE_WITHIN_ROUNDING])
    for block_values in (isotonic._BLOCK_VALUES, 8, 24):  # all rows, 1 and 3 per block
        monkeypatch.setattr(isotonic, "_BLOCK_VALUES", block_values)
        calls.clear()
        indices, residuals = zero_crossing(table)
        assert_matches_per_row_reference(table, indices, residuals)
        assert len(calls) == 1 and calls[0].tobytes() == EDGE_WITHIN_ROUNDING.tobytes()


def test_zero_crossing_sends_a_window_it_cannot_bound_to_pava(monkeypatch):
    # No input found reaches this branch: a certified window holds the
    # crossing, so only rounding could break the bound check. The ceiling
    # left of the window is patched to fail it.
    windows = isotonic._windows

    def unbounded(*args):
        lo, hi, ceiling, floor, certified = windows(*args)
        return lo, hi, np.full_like(ceiling, np.inf), floor, certified

    monkeypatch.setattr(isotonic, "_windows", unbounded)
    calls = count_pava_rows(monkeypatch)
    table = np.array([[-1.0, -0.5, 0.5, 0.25, -0.25, 1.0, 2.0], [-0.3, -0.2, -0.1, 0.0, 0.1, 0.2, 0.3]])
    indices, residuals = zero_crossing(table)
    assert len(calls) == 1 and calls[0].tobytes() == table[:1].tobytes()
    assert_matches_per_row_reference(table, indices, residuals)


def record_windows(monkeypatch):
    """Patch ``_windows`` to keep what it returns, one tuple per row block."""
    seen = []
    windows = isotonic._windows

    def recorded(*args):
        seen.append(windows(*args))
        return seen[-1]

    monkeypatch.setattr(isotonic, "_windows", recorded)
    return seen


# Quarter levels keep quarter rows exact when shifted; 0.1 k is not dyadic,
# so shifted block means round, and two of them can round to one value.
SHIFTS = st.sampled_from((-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0)) | st.integers(
    -20, 20).map(lambda k: 0.1 * k)


@st.composite
def shifted_queries(draw):
    """(rows, run, shifts): each near-tie row read by a run of 1-4 queries."""
    p = draw(st.integers(1, 14))
    sizes = draw(st.lists(st.integers(1, 4), max_size=5))
    rows = np.array([draw(near_tie_rows(p)) for _ in sizes]).reshape(len(sizes), p)
    run = np.repeat(np.arange(len(sizes)), sizes)
    shifts = np.array(draw(st.lists(SHIFTS, min_size=run.size, max_size=run.size)), dtype=float)
    return rows, run, shifts


# The first row's blocks 2^-61 and 2^-60 both round to -1 when shifted by -1,
# so that query's answer is the first of them; shifted by -1e20, every value
# of [0, 1, 4.5, 4.5] rounds to -1e20, including those left of its window, so
# that query fails its window's bound and its row goes to pava_project.
ROUNDING_TIES = (np.array([[2.0**-61, 2.0**-60, 3.0, 2.5], [0.0, 1.0, 5.0, 4.0]]),
                 np.array([0, 0, 1]), np.array([0.0, -1.0, -1e20]))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=shifted_queries())
@example(case=(np.empty((0, 3)), np.empty(0, dtype=int), np.empty(0)))
@example(case=ROUNDING_TIES)
def test_zero_crossing_of_shifted_queries_matches_projecting_each_row(case):
    rows, run, shifts = case
    with pytest.MonkeyPatch.context() as patch:
        calls, windows = count_pava_rows(patch), record_windows(patch)
        indices, residuals = zero_crossing(rows, run, shifts)
    with np.errstate(invalid="ignore"):
        shifted = [np.abs(numpy_stack_pava(rows[r]) + d) for r, d in zip(run, shifts)]
    for q, values in enumerate(shifted):
        at = np.argmin(values)
        assert indices[q] == at and residuals[q].tobytes() == values[at].tobytes()
    # Windows serve the finite rows with a descent, in order. Rows with a
    # descent that they do not certify, and rows of queries whose shifted
    # bounds do not clear the window's smallest |value|, go to one pava call.
    descent = np.any(rows[:, :-1] > rows[:, 1:], axis=1)
    search = np.flatnonzero(descent & np.isfinite(rows).all(axis=1))
    lo, hi, ceiling, floor, certified = map(np.concatenate, zip(*windows or [[np.empty(0)] * 5]))
    assert lo.size == search.size
    certified = certified.astype(bool)  # float when no row had a window
    sent = set(np.flatnonzero(descent)) - set(search[certified])
    for r, start, end, top, bottom in zip(search[certified], lo[certified], hi[certified],
                                          ceiling[certified], floor[certified]):
        for q in np.flatnonzero(run == r):
            best = shifted[q][start:end].min()
            if not (top + shifts[q] < -best and bottom + shifts[q] > best):
                sent.add(r)
    assert len(calls) == 1 and calls[0].shape == (len(sent), rows.shape[1])
    assert calls[0].tobytes() == rows[sorted(sent)].tobytes()


def test_zero_crossing_answers_a_rounding_tie_in_its_window(monkeypatch):
    calls = count_pava_rows(monkeypatch)
    indices, residuals = zero_crossing(*ROUNDING_TIES)
    assert indices.tolist() == [0, 0, 0] and residuals.tolist() == [2.0**-61, 1.0, 1e20]
    assert len(calls) == 1 and calls[0].tobytes() == ROUNDING_TIES[0][1:].tobytes()


def test_zero_crossing_sends_runs_with_non_finite_shifts_to_pava_without_warnings(monkeypatch):
    # A non-finite shift has no crossing to search for: its whole row goes to
    # pava_project, with no numpy warning, and every query of that row still
    # gets the reference answer.
    calls = count_pava_rows(monkeypatch)
    rows = np.array([[-1.0, -0.5, 0.5, 0.25, -0.25, 1.0, 2.0]] * 5)
    run = np.array([0, 0, 1, 1, 2, 2, 3, 3, 3, 4])
    shifts = np.array([0.0, np.inf, 0.0, -np.inf, np.nan, 0.5, -0.25, np.inf, -np.inf, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        indices, residuals = zero_crossing(rows, run, shifts)
    for q, (r, d) in enumerate(zip(run, shifts)):
        values = np.abs(numpy_stack_pava(rows[r]) + d)
        at = np.argmin(values)
        assert indices[q] == at and residuals[q].tobytes() == values[at].tobytes()
    assert len(calls) == 1 and calls[0].tobytes() == rows[:4].tobytes()


def test_zero_crossing_rejects_non_table_input():
    for bad in (np.zeros(3), np.zeros((2, 0)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError):
            zero_crossing(bad)


def test_package_import_leaves_scipy_optimize_unloaded():
    # Importing scipy.optimize would add about 23 MB of RSS to every run.
    code = "import sys, cqcbench; sys.exit('scipy.optimize' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

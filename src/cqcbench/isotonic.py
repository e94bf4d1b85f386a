"""Exact nondecreasing L2 projection via pool-adjacent-violators.

The projection is the unique minimiser of the squared Euclidean distance to
the input over all nondecreasing sequences. Pooling is exact (block means),
not an iterative approximation, so block means -- and hence the global mean --
are preserved to float precision.

The estimator reads only where a projected profile, shifted by a constant
per query, comes nearest zero. ``zero_crossing`` finds those points from each
row's suffix sums and runs the stack once per row, only on the blocks between
its queries' crossings, with the same bits as projecting the whole row; a row
or query it cannot certify against rounding goes to ``pava_project``.

``scipy.optimize.isotonic_regression`` is not used: importing
``scipy.optimize`` adds about 23 MB of resident memory and 0.25 s of import
time (scipy 1.17, x86-64), and projecting its output again does not always
return the same bits.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate

import numpy as np


@dataclass(frozen=True)
class IsotonicResult:
    projected: np.ndarray


# Rows of a crossing search run in blocks of about this many table values
# (2 MiB per float64 table), so its few (rows, p + 1) tables stay bounded
# however many rows a profile table has.
_BLOCK_VALUES = 2**18


def _stack(values: list) -> tuple[list, list]:
    """Pool-adjacent-violators stack over a list of floats: its block means and counts.

    Each new value starts a block, and adjacent blocks merge (weighted mean)
    while they violate monotonicity; equal means do not merge. The stack holds
    Python floats and ints: their arithmetic is the same IEEE double arithmetic
    as numpy's float64, and scalar access to a list is several times cheaper
    than to an array.
    """
    # Stack blocks are means[:top + 1]; (m, c) is the new block, merged into
    # the stack top while the two violate monotonicity.
    means = [0.0] * len(values)
    counts = [0] * len(values)
    top = -1
    for m in values:
        c = 1
        while top >= 0 and means[top] > m:
            c1 = counts[top]
            merged = c1 + c
            m = (c1 * means[top] + c * m) / merged
            c = merged
            top -= 1
        top += 1
        means[top] = m
        counts[top] = c
    return means[: top + 1], counts[: top + 1]


def pava_project(values) -> IsotonicResult:
    """Project a sequence, or each row of an (m, p) table, onto nondecreasing sequences.

    Each row runs the ``_stack``. The first merge is always of two adjacent
    raw values, so a row with no adjacent descent (NaN, ties, signed zeros)
    never merges and is copied.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim not in (1, 2) or v.shape[-1] == 0:
        raise ValueError("input must be a nonempty sequence or an (m, p) table of rows")
    projected = v.reshape(-1, v.shape[-1]).copy()
    for i in np.flatnonzero(np.any(projected[:, :-1] > projected[:, 1:], axis=1)):
        projected[i] = np.repeat(*_stack(projected[i].tolist()))
    return IsotonicResult(projected=projected.reshape(v.shape))


def _chord_bounds(suffix: np.ndarray, at: np.ndarray):
    """Per row r, the chord means mean(v[k:at]) (k < at) and mean(v[at:k]) (k > at)
    as one (r, p + 1) table, its masks k < at and k > at, the largest chord
    ending at ``at`` and the smallest starting there (-inf, +inf if none).
    """
    dist = at[:, None] - np.arange(suffix.shape[1], dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        means = (suffix - suffix[np.arange(at.size), at][:, None]) / dist
    left, right = dist > 0, dist < 0
    left_max = np.max(means, axis=1, where=left, initial=-np.inf)
    right_min = np.min(means, axis=1, where=right, initial=np.inf)
    return means, left, right, left_max, right_min


def _crossings(suffix: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per row, the smallest argmax of T(s) + shift * (p - s), the suffix sums
    of the row plus its shift: the first index where that row projects to >= 0."""
    return (suffix + shifts[:, None] * np.arange(suffix.shape[1] - 1, -1, -1.0)).argmax(axis=1)


def _windows(rows: np.ndarray, tol: np.ndarray, top: np.ndarray, bottom: np.ndarray):
    """Each finite row's crossing window [lo, hi) for its shifts in [bottom, top],
    the bounds on its projection outside the window (ceiling left of lo, floor
    from hi on), and whether the stack provably pools nothing across lo or hi.
    """
    p = rows.shape[1]
    suffix = np.zeros((rows.shape[0], p + 1))
    suffix[:, :p] = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    # A larger shift crosses zero at or before a smaller one's crossing.
    start = _crossings(suffix, top)
    stop = start if np.array_equal(top, bottom) else _crossings(suffix, bottom)
    means, left, right, below, above = _chord_bounds(suffix, start)
    # Two chords of equal exact mean differ by at most 2 * tol when computed.
    lo = np.argmax(left & (means >= (below - 2 * tol)[:, None]), axis=1)
    if not np.array_equal(start, stop):
        means, _, right, _, above = _chord_bounds(suffix, stop)
    hi = p - np.argmax((right & (means <= (above + 2 * tol)[:, None]))[:, ::-1], axis=1)
    _, _, _, lo_left, lo_right = _chord_bounds(suffix, lo)
    _, _, _, hi_left, hi_right = _chord_bounds(suffix, hi)
    ceiling = lo_left + tol  # no projected value left of lo exceeds this
    floor = hi_right - tol  # no projected value from hi on is below this
    # lo < hi holds unless rounding reverses two near-tied crossings.
    certified = (lo < hi) & (ceiling < lo_right - tol) & (hi_left + tol < floor)
    return lo, hi, ceiling, floor, certified


def zero_crossing(rows, run=None, shifts=None) -> tuple[np.ndarray, np.ndarray]:
    """Where each query's shifted projected row comes nearest zero, without projecting it.

    For an (m, p) table, query q reads row ``run[q]`` and adds ``shifts[q]``:
    it returns the first index of the smallest |P + shifts[q]|, where P is
    the ``pava_project`` projection of that row, and that value, with the
    same bits. ``run`` is nondecreasing and names every row; by default each
    row is one query with shift 0. A row with no adjacent descent is its own
    projection.

    For a row v with a descent and exact projection f, the suffix sums
    T(s) = sum(v[s:]), T(p) = 0, locate the crossing (Barlow, Bartholomew,
    Bremner & Brunk 1972; Robertson, Wright & Dykstra 1988, ch. 1): s*, the
    smallest argmax of T, is the first index with f >= 0, and

        f(s*) = min_{e > s*} mean(v[s*:e]),  f(s*-1) = max_{k < s*} mean(v[k:s*]).

    Projection commutes with adding a constant, so the first index with
    f >= -d is the crossing of v + d, and it moves left as d grows: every
    query of a row crosses between the crossings of the row's largest and
    smallest shift. The window [lo, hi) takes every chord within rounding of
    the extremes beside those two crossings, so it holds the whole level sets
    there, exact ties included. The stack pools nothing across an index j
    whose largest chord ending at j is below its smallest chord starting at j
    by more than twice the rounding bound. When that holds at lo and at hi,
    the stack run on v[lo:hi] alone reproduces the row's projection there bit
    for bit. A query's answer lies in the window when its shifted projection
    left of lo and from hi on is bounded away from zero by more than the
    window's smallest shifted |value|; float addition is monotone, so the
    shifted bounds need no further tolerance. A window's answers go straight
    into the result; a query left at index -1 is read from the fallback.
    Rows failing a window bound, holding a non-finite value or serving a
    non-finite shift, and rows of queries failing their own bound, go to one
    ``pava_project`` call, made even when it has no rows.
    """
    v = np.asarray(rows, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("input must be an (m, p) table of nonempty rows")
    m, p = v.shape
    run = np.arange(m) if run is None else np.asarray(run, dtype=np.intp)
    shifts = np.zeros(run.size) if shifts is None else np.asarray(shifts, dtype=float)
    bounds = np.searchsorted(run, np.arange(m + 1))  # row r's queries are bounds[r]:bounds[r + 1]
    top, bottom = np.maximum.reduceat(shifts, bounds[:-1]), np.minimum.reduceat(shifts, bounds[:-1])
    has_descent = np.any(v[:, :-1] > v[:, 1:], axis=1)
    descent = np.flatnonzero(has_descent)
    with np.errstate(over="ignore"):
        abs_sum = np.abs(v[descent]).sum(axis=1)
    # The stack's partial sums c * mean stay below 2 * sum|v|, so these rows
    # cannot overflow; NaN and inf rows fail the test as well. A non-finite
    # shift has no crossing to search for, so its row fails too.
    finite = abs_sum <= np.finfo(float).max / 2
    finite &= np.isfinite(top[descent]) & np.isfinite(bottom[descent])
    search = descent[finite]
    # |computed - exact| for any block mean, from the sequential suffix sums
    # (about p * eps * sum|v|) or from the stack's merges (about
    # 1.5 * eps * sum|v|), plus underflow; doubled for safety.
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    tol = 2.0 * (p + 3) * (eps * abs_sum[finite] + tiny)
    indices, residuals = np.full(run.size, -1, dtype=np.intp), np.empty(run.size)
    first_query, deltas = bounds.tolist(), shifts.tolist()
    step = max(1, _BLOCK_VALUES // (p + 1))
    for first in range(0, search.size, step):
        block = search[first:first + step]
        lo, hi, ceiling, floor, certified = _windows(v[block], tol[first:first + step], top[block],
                                                     bottom[block])
        window = zip(
            block[certified].tolist(), lo[certified].tolist(), hi[certified].tolist(),
            ceiling[certified].tolist(), floor[certified].tolist(),
        )
        for r, start, end, top_left, bottom_right in window:
            means, counts = _stack(v[r, start:end].tolist())
            firsts = list(accumulate(counts, initial=start))  # each block's first index
            for q in range(first_query[r], first_query[r + 1]):
                d = deltas[q]
                # fl(mean + d) has the sign of mean + d, so this bisection is exact.
                b = bisect_left(means, -d)
                if b == len(means) or (b and abs(means[b - 1] + d) <= means[b] + d):
                    b -= 1  # the block before is nearer, or as near and first,
                    while b and means[b - 1] + d == means[b] + d:
                        b -= 1  # as is each before it whose shifted mean rounds equal
                best = abs(means[b] + d)
                if top_left + d < -best and bottom_right + d > best:
                    indices[q], residuals[q] = firsts[b], best
    pending = np.flatnonzero(indices < 0)  # queries no window answered
    needed, slot = np.unique(run[pending], return_inverse=True)
    table = v[needed]
    sent = has_descent[needed]
    table[sent] = pava_project(table[sent]).projected
    for first in range(0, pending.size, step):
        q = pending[first:first + step]
        shifted = np.abs(table[slot[first:first + step]] + shifts[q, None])
        indices[q] = np.argmin(shifted, axis=1)
        residuals[q] = shifted[np.arange(q.size), indices[q]]
    return indices, residuals

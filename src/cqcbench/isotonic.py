"""Exact nondecreasing L2 projection via pool-adjacent-violators.

The projection is the unique minimiser of the squared Euclidean distance to
the input over all nondecreasing sequences. Pooling is exact (block means),
not an iterative approximation, so block means -- and hence the global mean --
are preserved to float precision.

The estimator reads only where a projected profile comes nearest zero.
``zero_crossing`` finds that point from each row's suffix sums and runs the
stack only on the few blocks beside it, with the same bits as projecting the
whole row; a row whose crossing it cannot certify against rounding goes to
``pava_project``.

``scipy.optimize.isotonic_regression`` is not used: importing
``scipy.optimize`` adds about 23 MB of resident memory and 0.25 s of import
time (scipy 1.17, x86-64), and projecting its output again does not always
return the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _windows(rows: np.ndarray, tol: np.ndarray):
    """Each finite row's crossing window [lo, hi), the bounds on its projection
    outside the window (ceiling left of lo, floor from hi on), and whether the
    stack provably pools nothing across lo or hi.
    """
    p = rows.shape[1]
    suffix = np.zeros((rows.shape[0], p + 1))
    suffix[:, :p] = np.cumsum(rows[:, ::-1], axis=1)[:, ::-1]
    means, left, right, below, above = _chord_bounds(suffix, suffix.argmax(axis=1))
    # Two chords of equal exact mean differ by at most 2 * tol when computed.
    lo = np.argmax(left & (means >= (below - 2 * tol)[:, None]), axis=1)
    hi = p - np.argmax((right & (means <= (above + 2 * tol)[:, None]))[:, ::-1], axis=1)
    _, _, _, lo_left, lo_right = _chord_bounds(suffix, lo)
    _, _, _, hi_left, hi_right = _chord_bounds(suffix, hi)
    ceiling = lo_left + tol  # no projected value left of lo exceeds this
    floor = hi_right - tol  # no projected value from hi on is below this
    certified = (ceiling < lo_right - tol) & (hi_left + tol < floor)
    return lo, hi, ceiling, floor, certified


def zero_crossing(rows) -> tuple[np.ndarray, np.ndarray]:
    """Where each row's nondecreasing projection comes nearest zero, without projecting it.

    For an (m, p) table, returns the first index of the smallest |value| of
    each row's ``pava_project`` projection, and that |value|, with the same
    bits. A row with no adjacent descent is its own projection.

    For a row v with a descent and exact projection f, the suffix sums
    T(s) = sum(v[s:]), T(p) = 0, locate the crossing (Barlow, Bartholomew,
    Bremner & Brunk 1972; Robertson, Wright & Dykstra 1988, ch. 1): s*, the
    smallest argmax of T, is the first index with f >= 0, and

        f(s*) = min_{e > s*} mean(v[s*:e]),  f(s*-1) = max_{k < s*} mean(v[k:s*]).

    The window [lo, hi) takes every chord within rounding of those two
    extremes, so it holds the whole level sets beside the crossing, exact
    ties included. The stack pools nothing across an index j whose largest
    chord ending at j is below its smallest chord starting at j by more than
    twice the rounding bound. When that holds at lo and at hi, the stack run
    on v[lo:hi] alone reproduces the row's projection there bit for bit; the
    answer lies in the window when the projection left of lo and from hi on
    is bounded away from zero by more than the window's smallest |value|.
    Rows failing any of these four bounds, or holding a non-finite value, go
    to one ``pava_project`` call, made even when it has no rows.
    """
    v = np.asarray(rows, dtype=float)
    if v.ndim != 2 or v.shape[1] == 0:
        raise ValueError("input must be an (m, p) table of nonempty rows")
    m, p = v.shape
    indices = np.argmin(np.abs(v), axis=1)
    residuals = np.abs(v[np.arange(m), indices])
    descent = np.flatnonzero(np.any(v[:, :-1] > v[:, 1:], axis=1))
    with np.errstate(over="ignore"):
        abs_sum = np.abs(v[descent]).sum(axis=1)
    # The stack's partial sums c * mean stay below 2 * sum|v|, so these rows
    # cannot overflow; NaN and inf rows fail the test as well.
    finite = abs_sum <= np.finfo(float).max / 2
    search = descent[finite]
    # |computed - exact| for any block mean, from the sequential suffix sums
    # (about p * eps * sum|v|) or from the stack's merges (about
    # 1.5 * eps * sum|v|), plus underflow; doubled for safety.
    eps, tiny = np.finfo(float).eps, np.finfo(float).smallest_subnormal
    tol = 2.0 * (p + 3) * (eps * abs_sum[finite] + tiny)
    fallback, unbounded = [descent[~finite]], []
    step = max(1, _BLOCK_VALUES // (p + 1))
    for first in range(0, search.size, step):
        block = search[first:first + step]
        lo, hi, ceiling, floor, certified = _windows(v[block], tol[first:first + step])
        fallback.append(block[~certified])
        window = zip(
            block[certified].tolist(), lo[certified].tolist(), hi[certified].tolist(),
            ceiling[certified].tolist(), floor[certified].tolist(),
        )
        for r, start, end, top_left, bottom_right in window:
            best, at = float("inf"), start
            for mean, count in zip(*_stack(v[r, start:end].tolist())):
                if abs(mean) < best:
                    best, at = abs(mean), start
                start += count
            if top_left < -best and bottom_right > best:
                indices[r], residuals[r] = at, best
            else:
                unbounded.append(r)
    fallback = np.sort(np.concatenate(fallback + [np.array(unbounded, dtype=np.intp)]))
    projected = pava_project(v[fallback]).projected
    nearest = np.argmin(np.abs(projected), axis=1)
    indices[fallback] = nearest
    residuals[fallback] = np.abs(projected[np.arange(fallback.size), nearest])
    return indices, residuals

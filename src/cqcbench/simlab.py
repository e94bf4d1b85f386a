"""Simulation DGPs with closed-form truths, and the Monte-Carlo benchmark runner.

Each family writes arm a's outcome as loc_a(x) + scale_a(x) * Z, with Z
standard normal except in ``uniform_h``, and has the propensity 0.4*s + 0.5.
Here s = sin(g*pi*u), u is the covariate (a fixed random projection of it in
the ten-dimensional family) and the frequency g makes the nuisances wigglier
without changing the target outcome map. The (loc, scale) per arm are:

- ``illustrative``: (s, 1) and (2s, 2); the map is y -> 2y.
- ``tendim``: ten covariates, (s, 1) in both arms; the map is the identity.
- ``linear_cqc``: (s / c, 1) and (s + c/2, c) with c = 0.5*x + 1.5; the map
  is (y + 0.5) * c, linear in both arguments.
- ``uniform_h``: the illustrative parameters with Z ~ Uniform(0, 1), so the
  CDF contrast is the covariate-free y1/2 - y0 wherever both thresholds lie
  inside their arms' supports.

The one-dimensional covariate is drawn Uniform(0, 1); plots and experiments
span exactly that range.
"""

from __future__ import annotations

import csv
import importlib
import io
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

# nw_weight_matrix is unused here, but bench/test_bench.py checks this binding.
from .kernels import DegenerateMassError, as_rows, nw_weight_matrix  # noqa: F401
from .nuisance import Dataset, SingleArmError

FAMILIES = ("illustrative", "tendim", "linear_cqc", "uniform_h")

_TENDIM_BETA_SCALE = 0.2


@dataclass
class DgpSpec:
    """One simulation setting: family, sine frequency, and projection seed.

    The covariate dimension ``dim`` and the tendim projection ``beta`` follow
    from the family and the seed.
    """

    family: str
    gamma: float = 0.0
    seed: int = 0
    dim: int = field(init=False)
    beta: np.ndarray | None = field(init=False)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown DGP family {self.family!r}")
        if not 0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and nonnegative")
        self.dim = 10 if self.family == "tendim" else 1
        self.beta = None
        if self.family == "tendim":
            # One projection per spec seed, frozen for reproducibility.
            self.beta = np.random.default_rng(self.seed).normal(0.0, _TENDIM_BETA_SCALE, self.dim)


def _sine_term(spec: DgpSpec, xs: np.ndarray) -> np.ndarray:
    u = xs @ spec.beta if spec.family == "tendim" else xs[:, 0]
    return np.sin(spec.gamma * np.pi * u)


def _arm_params(spec: DgpSpec, xs: np.ndarray):
    """((loc0, scale0), (loc1, scale1)): arm a's outcome is loc + scale * Z."""
    s = _sine_term(spec, xs)
    ones = np.ones_like(s)
    if spec.family == "tendim":
        return (s, ones), (s, ones)
    if spec.family == "linear_cqc":
        x1 = xs[:, 0]
        slope = 0.5 * x1 + 1.5
        return (s / slope, ones), (s + 0.25 * x1 + 0.75, slope)
    return (s, ones), (2.0 * s, np.full_like(s, 2.0))  # illustrative, uniform_h


# The distribution of Z: its CDF, its quantile function and a sampler (rng, n).
# The normal's CDF and quantile import scipy.special on first use: it takes
# longer to import than a CLI fit on a CSV takes to run.
_Base = namedtuple("_Base", "cdf quantile draw")
# The CDF takes an optional ``out`` array, as a ufunc does.
_NORMAL = _Base(lambda z, out=None: importlib.import_module("scipy.special").ndtr(z, out=out),
                lambda p: importlib.import_module("scipy.special").ndtri(p),
                lambda rng, n: rng.standard_normal(n))
_UNIFORM = _Base(lambda z, out=None: np.clip(z, 0.0, 1.0, out=out), lambda u: u,
                 lambda rng, n: rng.uniform(size=n))


def _base(spec: DgpSpec) -> _Base:
    return _UNIFORM if spec.family == "uniform_h" else _NORMAL


class ExactPropensity:
    """Closed-form propensity with the fitted evaluator's interface."""

    def __init__(self, spec: DgpSpec):
        self.spec = spec

    def many(self, xs) -> np.ndarray:
        return 0.4 * _sine_term(self.spec, as_rows(xs)) + 0.5


class ExactCcdf:
    """Closed-form per-arm conditional CDFs with the fitted evaluator's interface."""

    def __init__(self, spec: DgpSpec):
        self.spec = spec

    def cdf_table(self, arm: int, ys, queries) -> np.ndarray:
        """The standardised thresholds and their CDF values fill one buffer."""
        ys = np.asarray(ys, dtype=float).reshape(-1)
        loc, scale = _arm_params(self.spec, as_rows(queries))[arm]
        table = np.subtract(ys[None, :], loc[:, None])
        np.divide(table, scale[:, None], out=table)
        return _base(self.spec).cdf(table, out=table)

    def plug_ins(self, queries):
        """``(mix, table)``: ``u @ cdf_table(1, ys, queries)`` and
        ``cdf_table(0, ys, queries)``, as the fitted evaluator's."""
        return (lambda u, ys: u @ self.cdf_table(1, ys, queries),
                lambda ys: self.cdf_table(0, ys, queries))

    def quantile(self, arm: int, alphas, x):
        """Arm quantiles loc + scale * Z_alpha at every level in ``alphas``, at one x."""
        alphas = np.asarray(alphas, dtype=float)
        if not np.all((alphas >= 0.0) & (alphas <= 1.0)):
            raise ValueError("alpha must lie in [0, 1]")
        loc, scale = _arm_params(self.spec, as_rows(np.reshape(x, (1, -1))))[arm]
        return loc[0] + scale[0] * _base(self.spec).quantile(alphas)


@dataclass
class TruthOracle:
    """Exact nuisances and the estimand ``g`` of one DGP.

    ``propensity`` and ``ccdf`` satisfy the fitted-nuisance interface, so the
    oracle plugs directly into the pseudo-outcome and contrast machinery. The
    CDF contrast h(y0, y1 | x) is ``ccdf.cdf_table(1, [y1], x)`` minus
    ``ccdf.cdf_table(0, [y0], x)``, and the CQTE at level alpha is
    ``ccdf.quantile(1, alpha, x) - ccdf.quantile(0, alpha, x)``.
    """

    spec: DgpSpec
    propensity: ExactPropensity
    ccdf: ExactCcdf

    def g(self, ys, xs) -> np.ndarray:
        """Treated outcome at the same conditional quantile as untreated ys."""
        ys = np.asarray(ys, dtype=float)
        rows = as_rows(xs)
        if self.spec.family in ("illustrative", "uniform_h"):
            out = 2.0 * ys
        elif self.spec.family == "tendim":
            out = ys + 0.0
        else:
            out = (ys + 0.5) * (0.5 * rows[:, 0] + 1.5)
        shape = np.broadcast_shapes(np.shape(out), (rows.shape[0],))
        return np.broadcast_to(out, shape).copy()


def truth(spec: DgpSpec) -> TruthOracle:
    """Closed-form truth evaluators for a DGP spec."""
    return TruthOracle(spec=spec, propensity=ExactPropensity(spec), ccdf=ExactCcdf(spec))


def _draw_at(spec: DgpSpec, xs: np.ndarray, rng, treat: bool = True):
    """Treatments (from the exact propensity, or none), then outcomes, at covariates xs."""
    size = xs.shape[0]
    arms = np.zeros(size, dtype=np.int64)
    if treat:
        arms = (rng.uniform(size=size) < ExactPropensity(spec).many(xs)).astype(np.int64)
    (loc0, scale0), (loc1, scale1) = _arm_params(spec, xs)
    z = _base(spec).draw(rng, size)
    return np.where(arms == 1, loc1 + scale1 * z, loc0 + scale0 * z), arms


def _draw_covariates(spec: DgpSpec, size: int, rng) -> np.ndarray:
    if spec.family == "tendim":
        return rng.uniform(-1.0, 1.0, (size, spec.dim))
    return rng.uniform(0.0, 1.0, (size, 1))


def sample_dgp(spec: DgpSpec, n_total: int, seed: int) -> Dataset:
    """Draw a dataset from the DGP; deterministic given the seed."""
    if n_total < 4:
        raise ValueError("need at least 4 observations")
    rng = np.random.default_rng(seed)
    xs = _draw_covariates(spec, n_total, rng)
    ys, arms = _draw_at(spec, xs, rng)
    return Dataset(ys, xs, arms)


def sample_holdout(spec: DgpSpec, size: int, seed: int):
    """Evaluation pairs: covariates from the marginal, outcomes from arm 0.

    This matches the benchmark error metric, which averages the estimation
    gap over untreated outcome draws.
    """
    rng = np.random.default_rng(seed)
    xs = _draw_covariates(spec, size, rng)
    ys, _ = _draw_at(spec, xs, rng, treat=False)
    return ys, xs


def replication_seeds(base_seed: int, replications: int) -> list[tuple[int, int, int]]:
    """Replication r's (training, holdout, fit) seeds, as Python ints.

    They come from child r of ``SeedSequence(base_seed).spawn(replications)``.
    Its spawn key is (r,), so replication r's seeds do not depend on
    ``replications``, and no two base seeds or replications share a stream.
    """
    if base_seed < 0:
        raise ValueError("base seed must be nonnegative")
    children = np.random.SeedSequence(base_seed).spawn(replications)
    return [tuple(int(s) for s in child.generate_state(3)) for child in children]


@dataclass(frozen=True)
class EstimatorResult:
    """Aggregated benchmark row for one estimator."""

    name: str
    mean_abs_error: float
    ci_half_width: float
    replications: int
    failures: int

    @property
    def ci_low(self) -> float:
        return self.mean_abs_error - self.ci_half_width

    @property
    def ci_high(self) -> float:
        return self.mean_abs_error + self.ci_half_width


# One estimator fit or predict that raised: ``error`` is the exception's type name.
FailureRecord = namedtuple("FailureRecord", "estimator replication seed error message")
# What a replication can raise on valid settings: one arm too small to fit
# (tiny n), no kernel mass after the retry (a narrow box kernel), and an
# array too large for memory. Anything else is a bug and stops the run.
RECORDED_FAILURES = (SingleArmError, DegenerateMassError, MemoryError)


def _csv_text(header, rows) -> str:
    """CSV text under ``header``; a float cell is its ``repr``, as ``str`` gives it."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


@dataclass
class ErrorReport:
    """Per-estimator error summary of one Monte-Carlo experiment, and a
    ``FailureRecord`` per failed replication of an estimator."""

    results: list
    replications: int
    per_replication: np.ndarray = field(repr=False)
    failures: list = field(default_factory=list)

    def csv_text(self) -> str:
        rows = [(row.name, row.mean_abs_error, row.ci_low, row.ci_high, row.replications)
                for row in self.results]
        return _csv_text(("estimator", "mean_abs_error", "ci_low", "ci_high", "replications"), rows)

    def failures_csv_text(self) -> str:
        return _csv_text(FailureRecord._fields, self.failures)

    def by_name(self, name: str) -> EstimatorResult:
        for row in self.results:
            if row.name == name:
                return row
        raise KeyError(name)


def run_experiment(
    spec: DgpSpec,
    estimators,
    n_total: int,
    replications: int,
    holdout: int = 200,
    base_seed: int = 0,
) -> ErrorReport:
    """Repeatedly refit every estimator on fresh data and score it on holdouts.

    Each replication r draws a training set and a holdout, and fits every
    estimator, under its ``replication_seeds``; it records the mean absolute
    gap between the estimated and exact outcome maps over the holdout. An
    estimator failure of a ``RECORDED_FAILURES`` class is counted and recorded
    (``ErrorReport.failures``), not raised; any other exception propagates.
    95% intervals use 1.96 * sd / sqrt(R) over the successful
    replications.
    """
    if replications < 2:
        raise ValueError("need at least 2 replications for a confidence interval")
    estimators = list(estimators)
    if not estimators:
        raise ValueError("need at least one estimator")
    if holdout < 1:
        raise ValueError("need at least 1 holdout draw")
    seeds = replication_seeds(base_seed, replications)
    oracle = truth(spec)
    errors = np.full((replications, len(estimators)), np.nan)
    failure_counts = np.zeros(len(estimators), dtype=int)
    failures = []
    for r, (train_seed, holdout_seed, fit_seed) in enumerate(seeds):
        data = sample_dgp(spec, n_total, train_seed)
        hold_y, hold_x = sample_holdout(spec, holdout, holdout_seed)
        g_star = oracle.g(hold_y, hold_x)
        for j, est in enumerate(estimators):
            try:
                predictor = est.fit(data, fit_seed, truth=oracle)
                g_hat = np.asarray(predictor(hold_y, hold_x), dtype=float)
                errors[r, j] = float(np.mean(np.abs(g_hat - g_star)))
                # A fit keeps its weight matrices and CDF tables; free them
                # before the next fit.
                del predictor
            except RECORDED_FAILURES as exc:
                failure_counts[j] += 1
                failures.append(FailureRecord(est.name, r, fit_seed, type(exc).__name__, str(exc)))
    results = []
    for j, est in enumerate(estimators):
        col = errors[:, j]
        ok = col[np.isfinite(col)]
        mean = float(ok.mean()) if ok.size else float("nan")
        half = float(1.96 * ok.std(ddof=1) / math.sqrt(ok.size)) if ok.size >= 2 else float("nan")
        results.append(EstimatorResult(est.name, mean, half, int(ok.size), int(failure_counts[j])))
    return ErrorReport(results=results, replications=replications, per_replication=errors,
                       failures=failures)

"""Command-line front end: CSV ingestion, config handling, subcommands.

Subcommands:

- ``simulate`` (alias ``benchmark``): run the Monte-Carlo benchmark on a
  simulation DGP and write ``errors.csv``.
- ``surface`` (alias ``fit``): fit the doubly robust estimator on an input
  CSV and write the treated-minus-untreated gap surface over a (y, x1) grid,
  holding other covariates at their medians.
- ``cqte``: write quantile-treatment-effect estimates per (alpha, x1) pair.

All interchange is CSV. Config files are flat ``key = value`` text whose keys
are the command's flag names with underscores; CLI flags override file
values. Exit codes: 0 success, 1 usage/config error, 2 data error, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from .estimator import (
    CqcFit,
    build_grid,
    cqc_to_cqte,
    cross_fit_contrast,
    fit_contrast,
    surface_eval,
)
from .baselines import DrEstimator, IpwEstimator, OracleEstimator, SeparateEstimator
from .kernels import DegenerateMassError, KernelSpec
from .nuisance import Dataset, SingleArmError, fit_ccdf, make_split
from .pseudo import PseudoOutcomeKind
from .simlab import FAMILIES, DgpSpec, run_experiment, sample_dgp

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUT_DIR_ENV = "CQCBENCH_OUT_DIR"

PSEUDO_KINDS = ("dr", "ipw")


class ConfigError(ValueError):
    """Bad flag, config value, or flag combination."""


class DataError(ValueError):
    """Malformed input data."""


@dataclass
class RunConfig:
    """Resolved settings for one command invocation; each field is a flag's ``dest``."""

    kernel: str = "gaussian"
    bandwidth_nuisance: float = 0.1
    bandwidth_outer: float = 0.1
    xi: float = 0.05
    pseudo: str = "dr"
    cross_fit: bool = True
    grid: str = "treated"
    seed: int = 0
    out: str = ""
    dgp: str | None = None
    gamma: float = 6.0
    n: int = 1000
    replications: int = 100
    holdout: int = 200
    estimators: str = "dr,ipw,separate,oracle"
    dump_data: str | None = None
    input: str | None = None
    y_grid: str = "25"
    x_grid: str = "25"
    alphas: str = "0.25,0.5,0.75"

    def validate(self, command: str) -> None:
        _as_config_error(self.nuisance_kernel)
        _as_config_error(self.outer_kernel)
        if not 0.0 < self.xi <= 0.5:
            raise ConfigError("xi must lie in (0, 0.5]")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        _parse_grid_policy(self.grid)
        if command in ("simulate", "benchmark"):
            if self.dgp is None:
                raise ConfigError(f"{command} requires --dgp")
            _as_config_error(self.dgp_spec)
            if self.replications < 2:
                raise ConfigError("need at least 2 replications (CI undefined otherwise)")
            if self.n < 4:
                raise ConfigError("need at least 4 observations (--n)")
            if self.holdout < 1:
                raise ConfigError("need at least 1 holdout draw (--holdout)")
        else:
            if self.input is None:
                raise ConfigError(f"{command} requires --input")
            if self.pseudo not in PSEUDO_KINDS:
                raise ConfigError(f"unknown pseudo-outcome kind {self.pseudo!r}")

    def nuisance_kernel(self) -> KernelSpec:
        return KernelSpec(self.kernel, self.bandwidth_nuisance)

    def outer_kernel(self) -> KernelSpec:
        return KernelSpec(self.kernel, self.bandwidth_outer)

    def dgp_spec(self) -> DgpSpec:
        return DgpSpec(family=self.dgp, gamma=self.gamma, seed=self.seed)


def _as_config_error(build):
    """Build a library spec from config values; its ValueError is a config error."""
    try:
        return build()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


_CONFIG_FIELDS = {f.name: f.type for f in fields(RunConfig)}
_BOOL_TRUE = ("1", "true", "yes", "on")
_BOOL_FALSE = ("0", "false", "no", "off")


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` config text; '#' starts a comment."""
    values: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _CONFIG_FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _coerce_config_value(key, value, where=f"{path}:{lineno}")
    return values


def _coerce_config_value(key: str, value: str, where: str):
    kind = _CONFIG_FIELDS[key]
    try:
        if kind == "bool":
            lowered = value.lower()
            if lowered in _BOOL_TRUE:
                return True
            if lowered in _BOOL_FALSE:
                return False
            raise ValueError(f"not a boolean: {value!r}")
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        return value
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for {key}: {exc}") from exc


def _parse_grid_policy(text: str):
    if text == "treated":
        return "treated", None
    if text.startswith("uniform:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {text!r}") from exc
        if count < 1:
            raise ConfigError("uniform grid needs a positive point count")
        return "uniform", count
    raise ConfigError(f"bad grid spec {text!r} (use 'treated' or 'uniform:N')")


def _parse_axis(text: str, lo: float, hi: float) -> np.ndarray:
    """Axis spec: either a point count over [lo, hi] or 'min:max:count'."""
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise ConfigError(f"bad axis spec {text!r} (use 'N' or 'min:max:N')")
    try:
        if len(parts) == 3:
            lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[-1])
    except ValueError as exc:
        raise ConfigError(f"bad axis spec {text!r}") from exc
    if not math.isfinite(hi - lo):  # NaN or infinite bounds, or a span that overflows
        raise ConfigError(f"bad axis spec {text!r}: bounds and their span must be finite")
    if count < 1:
        raise ConfigError(f"bad axis spec {text!r}: need at least 1 point")
    return np.linspace(lo, hi, count)


def ingest_csv(path: str) -> Dataset:
    """Read a dataset CSV with columns y, a, x1..xd (d inferred from header).

    A header naming a column twice is rejected. Rows with missing,
    non-numeric, or non-finite fields, or with a treatment value other than
    0/1, are rejected with their file line numbers.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        duplicates = sorted({name for name in header if header.count(name) > 1})
        if duplicates:
            raise DataError(f"{path}: duplicate column names {duplicates}")
        columns = {name: i for i, name in enumerate(header)}
        if "y" not in columns or "a" not in columns:
            raise DataError(f"{path}: header must contain 'y' and 'a' columns")
        x_names = [name for name in header if name.startswith("x")]
        d = len(x_names)
        expected = [f"x{k}" for k in range(1, d + 1)]
        if d == 0 or sorted(x_names) != sorted(expected):
            raise DataError(
                f"{path}: covariate columns must be named x1..xd, got {x_names}"
            )
        x_cols = [columns[name] for name in expected]
        ys, arms, xs, bad = [], [], [], []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                bad.append((lineno, "wrong field count"))
                continue
            try:
                y = float(row[columns["y"]])
                a = float(row[columns["a"]])
                x = [float(row[i]) for i in x_cols]
            except ValueError:
                bad.append((lineno, "non-numeric field"))
                continue
            if not (math.isfinite(y) and all(math.isfinite(v) for v in x) and math.isfinite(a)):
                bad.append((lineno, "non-finite field"))
                continue
            if a not in (0.0, 1.0):
                bad.append((lineno, f"non-binary a={row[columns['a']]}"))
                continue
            ys.append(y)
            arms.append(int(a))
            xs.append(x)
        if bad:
            detail = "; ".join(f"line {lineno}: {why}" for lineno, why in bad[:5])
            more = "" if len(bad) <= 5 else f" (+{len(bad) - 5} more)"
            raise DataError(f"{path}: rejected rows: {detail}{more}")
        if not ys:
            raise DataError(f"{path}: no data rows")
    return _checked_input(path, Dataset, np.array(ys), np.array(xs), np.array(arms))


def _checked_input(path: str, step, *args):
    """Run a library step that validates the input data; its ValueError is a data error."""
    try:
        return step(*args)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset in the ingestible schema; floats survive a round trip."""
    header = ["y", "a"] + [f"x{k}" for k in range(1, dataset.d + 1)]
    lines = [",".join(header)]
    for i in range(dataset.n):
        cells = [repr(float(dataset.y[i])), str(int(dataset.a[i]))]
        cells += [repr(float(v)) for v in dataset.x[i]]
        lines.append(",".join(cells))
    _atomic_write(path, "\n".join(lines) + "\n")


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` through a temporary file beside it.

    A path that cannot be written, such as one below a regular file, is a
    config error.
    """
    try:
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".csv")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _out_path(config: RunConfig, filename: str) -> str:
    """Path of an output file. Its directory is created and probed here, so a
    command with an unwritable one stops with a config error before any work.
    """
    out_dir = config.out or os.environ.get(OUT_DIR_ENV, ".")
    try:
        os.makedirs(out_dir, exist_ok=True)
        tempfile.TemporaryFile(dir=out_dir).close()
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc
    return os.path.join(out_dir, filename)


def _build_estimators(config: RunConfig):
    nk, ok = config.nuisance_kernel(), config.outer_kernel()
    policy, count = _parse_grid_policy(config.grid)
    registry = {
        "dr": lambda: DrEstimator(
            nk, ok, xi=config.xi, cross_fit=config.cross_fit,
            grid_policy=policy, grid_count=count,
        ),
        "ipw": lambda: IpwEstimator(
            nk, ok, xi=config.xi, cross_fit=config.cross_fit,
            grid_policy=policy, grid_count=count,
        ),
        "separate": lambda: SeparateEstimator(nk),
        "oracle": lambda: OracleEstimator(
            ok, xi=config.xi, grid_policy=policy, grid_count=count
        ),
    }
    names = [name.strip() for name in config.estimators.split(",") if name.strip()]
    if not names:
        raise ConfigError("empty estimator list")
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise ConfigError(f"unknown estimators: {unknown} (choose from {tuple(registry)})")
    return [registry[name]() for name in names]


def cmd_simulate(config: RunConfig) -> int:
    spec = config.dgp_spec()
    if config.dump_data is not None:
        write_dataset_csv(sample_dgp(spec, config.n, config.seed), config.dump_data)
    path = _out_path(config, "errors.csv")
    report = run_experiment(
        spec,
        _build_estimators(config),
        n_total=config.n,
        replications=config.replications,
        holdout=config.holdout,
        base_seed=config.seed,
    )
    _atomic_write(path, report.csv_text())
    for row in report.results:
        print(
            f"{row.name}: mean_abs_error={row.mean_abs_error:.6g} "
            f"ci=({row.ci_low:.6g}, {row.ci_high:.6g}) "
            f"replications={row.replications} failures={row.failures}"
        )
    print(f"wrote {path}")
    return EXIT_OK


def _fit_dr_contrast(config: RunConfig, dataset: Dataset):
    kind = PseudoOutcomeKind(config.pseudo)
    split = _checked_input(config.input, make_split, dataset, config.seed)
    if config.cross_fit:
        # Draws the same split again from the seed.
        return cross_fit_contrast(
            dataset, config.seed, config.nuisance_kernel(), config.outer_kernel(),
            kind=kind, xi=config.xi,
        )
    return fit_contrast(
        dataset, split, config.nuisance_kernel(), config.outer_kernel(), kind=kind, xi=config.xi,
    )


def _input_grid(config: RunConfig, dataset: Dataset) -> np.ndarray:
    policy, count = _parse_grid_policy(config.grid)
    return _checked_input(config.input, build_grid, dataset, policy, count)


def _surface_axes(config: RunConfig, dataset: Dataset):
    ys = _parse_axis(config.y_grid, float(dataset.y.min()), float(dataset.y.max()))
    x1 = dataset.x[:, 0]
    x_vals = _parse_axis(config.x_grid, float(x1.min()), float(x1.max()))
    medians = np.median(dataset.x, axis=0)
    xs = np.tile(medians, (x_vals.size, 1))
    xs[:, 0] = x_vals
    return ys, x_vals, xs


def cmd_surface(config: RunConfig) -> int:
    path = _out_path(config, "surface.csv")
    dataset = ingest_csv(config.input)
    contrast = _fit_dr_contrast(config, dataset)
    fit = CqcFit(contrast, _input_grid(config, dataset))
    ys, x_vals, xs = _surface_axes(config, dataset)
    surface = surface_eval(fit, ys, xs)
    if not np.isfinite(surface).all():
        raise FloatingPointError("surface contains non-finite entries")
    lines = ["y," + ",".join(repr(float(v)) for v in x_vals)]
    for i, y in enumerate(ys):
        lines.append(
            repr(float(y)) + "," + ",".join(repr(float(v)) for v in surface[i])
        )
    _atomic_write(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({ys.size} y-values x {x_vals.size} x-values)")
    return EXIT_OK


def cmd_cqte(config: RunConfig) -> int:
    path = _out_path(config, "cqte.csv")
    dataset = ingest_csv(config.input)
    try:
        alphas = [float(tok) for tok in config.alphas.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad alpha list {config.alphas!r}") from exc
    if not alphas:
        raise ConfigError("empty alpha list")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise ConfigError("alpha values must lie in (0, 1)")
    fit = CqcFit(_fit_dr_contrast(config, dataset), _input_grid(config, dataset))
    arm0 = fit_ccdf(dataset, config.nuisance_kernel())
    _, x_vals, xs = _surface_axes(config, dataset)
    tau = cqc_to_cqte(fit, lambda levels, x: arm0.quantile(0, levels, x), alphas, xs)
    lines = ["alpha,x,tau_hat"]
    for alpha, row in zip(alphas, tau):  # alpha-major, as cqc_to_cqte's table
        lines += [f"{alpha!r},{float(xv)!r},{float(t)!r}" for xv, t in zip(x_vals, row)]
    _atomic_write(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(alphas)} alphas x {x_vals.size} x-values)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cqcbench",
        description="Equal-quantile outcome map estimation: benchmark and fit tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help, aliases=()):
        p = sub.add_parser(name, aliases=list(aliases), help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--kernel", choices=("box", "gaussian"), default=None)
        p.add_argument("--bandwidth-nuisance", type=float, default=None)
        p.add_argument("--bandwidth-outer", type=float, default=None)
        p.add_argument("--xi", type=float, default=None)
        p.add_argument(
            "--cross-fit", action=argparse.BooleanOptionalAction, default=None
        )
        p.add_argument("--grid", default=None, help="'treated' or 'uniform:N'")
        p.add_argument("--out", default=None,
                       help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        return p

    p = add_command("simulate", cmd_simulate, "Monte-Carlo benchmark on a simulation DGP",
                    aliases=["benchmark"])
    p.add_argument("--dgp", choices=FAMILIES, default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--replications", type=int, default=None)
    p.add_argument("--holdout", type=int, default=None)
    p.add_argument("--estimators", default=None,
                   help="comma list from dr,ipw,separate,oracle")
    p.add_argument("--dump-data", default=None,
                   help="also write the seed replication's dataset CSV here")

    surface = add_command("surface", cmd_surface, "fit on a CSV and write the gap surface",
                          aliases=["fit"])
    surface.add_argument("--y-grid", default=None, help="'N' or 'min:max:N'")
    cqte = add_command("cqte", cmd_cqte, "fit on a CSV and write quantile effects")
    cqte.add_argument("--alphas", default=None, help="comma list of levels in (0,1)")
    for p in (surface, cqte):
        p.add_argument("--input", default=None)
        p.add_argument("--pseudo", choices=PSEUDO_KINDS, default=None)
        p.add_argument("--x-grid", default=None, help="'N' or 'min:max:N'")

    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags. A file key must name one
    of the command's flags, so no setting is accepted and then ignored."""
    config = RunConfig()
    if args.config:
        for key, value in parse_config_file(args.config).items():
            if not hasattr(args, key):
                raise ConfigError(f"{args.config}: {args.command} has no setting {key!r}")
            setattr(config, key, value)
    for key in _CONFIG_FIELDS:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    config.validate(args.command)
    return config


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        config = resolve_config(args)
        return args.run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, SingleArmError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (DegenerateMassError, FloatingPointError, AssertionError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()

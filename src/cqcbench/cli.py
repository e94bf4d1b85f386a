"""Command-line front end: CSV ingestion, config handling, subcommands.

Subcommands:

- ``simulate`` (alias ``benchmark``): run the Monte-Carlo benchmark on a
  simulation DGP and write ``errors.csv``.
- ``surface`` (alias ``fit``): fit the doubly robust estimator on an input
  CSV and write the treated-minus-untreated gap surface over a (y, x1) grid,
  holding other covariates at their medians.
- ``cqte``: write quantile-treatment-effect estimates per (alpha, x1) pair.

All interchange is CSV. Each command's argparse parser is the one
declaration of its settings. A config file's flat ``key = value`` lines are
read by that parser as ``--key=value`` flags before the command line, so a
flag overrides the file. Exit codes: 0 success, 1 usage/config error, 2 data
error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile

import numpy as np

from .estimator import cqc_to_cqte, fit_cqc, surface_eval
from .baselines import DrEstimator, IpwEstimator, OracleEstimator, SeparateEstimator
from .kernels import DegenerateMassError, KernelSpec
from .nuisance import Dataset, SingleArmError, fit_ccdf
from .simlab import FAMILIES, DgpSpec, run_experiment, sample_dgp

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

OUT_DIR_ENV = "CQCBENCH_OUT_DIR"


class ConfigError(ValueError):
    """Bad flag, config value, or flag combination."""


class DataError(ValueError):
    """Malformed input data."""


def validate(args: argparse.Namespace) -> None:
    """The checks that the parser's types and choices do not make."""
    _as_config_error(_nuisance_kernel, args)
    _as_config_error(_outer_kernel, args)
    if not 0.0 < args.xi <= 0.5:
        raise ConfigError("xi must lie in (0, 0.5]")
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    if args.run is cmd_simulate:
        if args.dgp is None:
            raise ConfigError(f"{args.command} requires --dgp")
        _as_config_error(_dgp_spec, args)
        if args.replications < 2:
            raise ConfigError("need at least 2 replications (CI undefined otherwise)")
        if args.n < 4:
            raise ConfigError("need at least 4 observations (--n)")
        if args.holdout < 1:
            raise ConfigError("need at least 1 holdout draw (--holdout)")
    elif args.input is None:
        raise ConfigError(f"{args.command} requires --input")


def _nuisance_kernel(args: argparse.Namespace) -> KernelSpec:
    return KernelSpec(args.kernel, args.bandwidth_nuisance)


def _outer_kernel(args: argparse.Namespace) -> KernelSpec:
    return KernelSpec(args.kernel, args.bandwidth_outer)


def _dgp_spec(args: argparse.Namespace) -> DgpSpec:
    return DgpSpec(family=args.dgp, gamma=args.gamma, seed=args.seed)


def _as_config_error(build, *args):
    """Build a library spec from settings; its ValueError is a config error."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# The one boolean flag takes no value: a file's word for it picks its form.
_CROSS_FIT_FLAGS = {
    **dict.fromkeys(("1", "true", "yes", "on"), "--cross-fit"),
    **dict.fromkeys(("0", "false", "no", "off"), "--no-cross-fit"),
}


def _config_argv(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """A config file's ``key = value`` lines as ``--key=value`` flags of ``command``.

    '#' starts a comment. Each flag is parsed alone first, so an error names
    its file line and key.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    argv = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        flag = f"--{key.replace('_', '-')}={value}"
        try:
            if key == "config":
                raise ConfigError("a config file cannot name another")
            if key == "cross_fit":
                if value.lower() not in _CROSS_FIT_FLAGS:
                    raise ConfigError(f"not a boolean: {value!r}")
                flag = _CROSS_FIT_FLAGS[value.lower()]
            parser.parse_args([command, flag])
        except ConfigError as exc:
            raise ConfigError(f"{path}:{lineno}: {key!r}: {exc}") from exc
        argv.append(flag)
    return argv


def _grid_count(text: str) -> int | None:
    """``--grid`` value: 'treated' (None) or 'uniform:N' (N), the grid's point count."""
    if text == "treated":
        return None
    if text.startswith("uniform:"):
        try:
            count = int(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad grid spec {text!r}") from None
        if count < 1:
            raise argparse.ArgumentTypeError("uniform grid needs a positive point count")
        return count
    raise argparse.ArgumentTypeError(f"bad grid spec {text!r} (use 'treated' or 'uniform:N')")


def _alpha_list(text: str) -> list[float]:
    """``--alphas`` value: a comma list of levels in (0, 1)."""
    try:
        alphas = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}") from None
    if not alphas:
        raise argparse.ArgumentTypeError("empty alpha list")
    if any(not 0.0 < a < 1.0 for a in alphas):
        raise argparse.ArgumentTypeError("alpha values must lie in (0, 1)")
    return alphas


def _axis_spec(text: str):
    """``--y-grid``/``--x-grid`` value: 'N' or 'min:max:N', as (min, max, N).

    The bounds of the 'N' form are None: its points span the data's range.
    """
    parts = text.split(":")
    if len(parts) not in (1, 3):
        raise argparse.ArgumentTypeError(f"bad axis spec {text!r} (use 'N' or 'min:max:N')")
    try:
        lo, hi = (float(parts[0]), float(parts[1])) if len(parts) == 3 else (None, None)
        count = int(parts[-1])
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad axis spec {text!r}") from None
    if lo is not None and not math.isfinite(hi - lo):  # NaN or infinite, or a span that overflows
        raise argparse.ArgumentTypeError(
            f"bad axis spec {text!r}: bounds and their span must be finite"
        )
    if count < 1:
        raise argparse.ArgumentTypeError(f"bad axis spec {text!r}: need at least 1 point")
    return lo, hi, count


def _axis(spec, values: np.ndarray) -> np.ndarray:
    """An axis's points; an 'N' axis spans the range of ``values``."""
    lo, hi, count = spec
    if lo is None:
        lo, hi = float(values.min()), float(values.max())
        if not math.isfinite(hi - lo):
            raise ConfigError(f"the data's range overflows; give the axis as 'min:max:{count}'")
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


def _out_path(args: argparse.Namespace, filename: str) -> str:
    """Path of an output file. Its directory is created and probed here, so a
    command with an unwritable one stops with a config error before any work.
    """
    out_dir = args.out or os.environ.get(OUT_DIR_ENV) or "."
    try:
        os.makedirs(out_dir, exist_ok=True)
        tempfile.TemporaryFile(dir=out_dir).close()
    except OSError as exc:
        raise ConfigError(f"cannot write {out_dir}: {exc}") from exc
    return os.path.join(out_dir, filename)


def _build_estimators(args: argparse.Namespace):
    nk, ok = _nuisance_kernel(args), _outer_kernel(args)
    shared = dict(xi=args.xi, cross_fit=args.cross_fit, grid_count=args.grid)
    registry = {
        "dr": lambda: DrEstimator(nk, ok, **shared),
        "ipw": lambda: IpwEstimator(nk, ok, **shared),
        "separate": lambda: SeparateEstimator(nk),
        "oracle": lambda: OracleEstimator(ok, grid_count=args.grid),
    }
    names = [name.strip() for name in args.estimators.split(",") if name.strip()]
    if not names:
        raise ConfigError("empty estimator list")
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise ConfigError(f"unknown estimators: {unknown} (choose from {tuple(registry)})")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"estimators named more than once: {repeated}")
    return [registry[name]() for name in names]


def cmd_simulate(args: argparse.Namespace) -> int:
    spec = _dgp_spec(args)
    estimators = _build_estimators(args)
    path = _out_path(args, "errors.csv")
    if args.dump_data is not None:
        write_dataset_csv(sample_dgp(spec, args.n, args.seed), args.dump_data)
    report = run_experiment(
        spec,
        estimators,
        n_total=args.n,
        replications=args.replications,
        holdout=args.holdout,
        base_seed=args.seed,
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


def _fit(args: argparse.Namespace, dataset: Dataset):
    """The estimator's fit; a dataset that it cannot split or fit is a data error."""
    return _checked_input(
        args.input, fit_cqc, dataset, args.seed, _nuisance_kernel(args), _outer_kernel(args),
        args.pseudo, args.xi, args.cross_fit, args.grid,
    )


def _x_axis(args: argparse.Namespace, dataset: Dataset):
    """The x1 values and their query rows, other covariates at their medians."""
    x_vals = _axis(args.x_grid, dataset.x[:, 0])
    xs = np.tile(np.median(dataset.x, axis=0), (x_vals.size, 1))
    xs[:, 0] = x_vals
    return x_vals, xs


def cmd_surface(args: argparse.Namespace) -> int:
    path = _out_path(args, "surface.csv")
    dataset = ingest_csv(args.input)
    fit = _fit(args, dataset)
    ys = _axis(args.y_grid, dataset.y)
    x_vals, xs = _x_axis(args, dataset)
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


def cmd_cqte(args: argparse.Namespace) -> int:
    path = _out_path(args, "cqte.csv")
    dataset = ingest_csv(args.input)
    fit = _fit(args, dataset)
    arm0 = fit_ccdf(dataset, _nuisance_kernel(args))
    x_vals, xs = _x_axis(args, dataset)
    tau = cqc_to_cqte(fit, lambda levels, x: arm0.quantile(0, levels, x), args.alphas, xs)
    lines = ["alpha,x,tau_hat"]
    for alpha, row in zip(args.alphas, tau):  # alpha-major, as cqc_to_cqte's table
        lines += [f"{alpha!r},{float(xv)!r},{float(t)!r}" for xv, t in zip(x_vals, row)]
    _atomic_write(path, "\n".join(lines) + "\n")
    print(f"wrote {path} ({len(args.alphas)} alphas x {x_vals.size} x-values)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Flags are written in full, and a usage error is a one-line config error."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cqcbench",
        description="Equal-quantile outcome map estimation: benchmark and fit tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, run, help, aliases=()):
        p = sub.add_parser(name, aliases=list(aliases), help=help)
        p.set_defaults(run=run)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--kernel", choices=("box", "gaussian"), default="gaussian")
        p.add_argument("--bandwidth-nuisance", type=float, default=0.1)
        p.add_argument("--bandwidth-outer", type=float, default=0.1)
        p.add_argument("--xi", type=float, default=0.05)
        p.add_argument("--cross-fit", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--grid", type=_grid_count, default="treated",
                       help="'treated' (every distinct treated outcome) or 'uniform:N' "
                            "(N points over the outcome range)")
        p.add_argument("--out", help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        return p

    p = add_command("simulate", cmd_simulate, "Monte-Carlo benchmark on a simulation DGP",
                    aliases=["benchmark"])
    p.add_argument("--dgp", choices=FAMILIES)
    p.add_argument("--gamma", type=float, default=6.0)
    p.add_argument("--n", type=int, default=1000)
    p.add_argument("--replications", type=int, default=100)
    p.add_argument("--holdout", type=int, default=200)
    p.add_argument("--estimators", default="dr,ipw,separate,oracle",
                   help="comma list from dr,ipw,separate,oracle")
    p.add_argument("--dump-data", help="also write the seed replication's dataset CSV here")

    surface = add_command("surface", cmd_surface, "fit on a CSV and write the gap surface",
                          aliases=["fit"])
    surface.add_argument("--y-grid", type=_axis_spec, default="25", help="'N' or 'min:max:N'")
    cqte = add_command("cqte", cmd_cqte, "fit on a CSV and write quantile effects")
    cqte.add_argument("--alphas", type=_alpha_list, default="0.25,0.5,0.75",
                      help="comma list of levels in (0,1)")
    for p in (surface, cqte):
        p.add_argument("--input")
        p.add_argument("--pseudo", choices=("dr", "ipw"), default="dr")
        p.add_argument("--x-grid", type=_axis_spec, default="25", help="'N' or 'min:max:N'")

    return parser


def resolve_config(argv: list[str]) -> argparse.Namespace:
    """Parse a command line. A ``--config`` file's flags go after the command
    and before the command line's own, so a command-line flag wins."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        args = parser.parse_args(
            [argv[0], *_config_argv(parser, args.command, args.config), *argv[1:]]
        )
    validate(args)
    return args


def main(argv=None) -> int:
    try:
        args = resolve_config(sys.argv[1:] if argv is None else list(argv))
        return args.run(args)
    except SystemExit as exc:  # --help
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
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

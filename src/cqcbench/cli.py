"""Command-line front end: CSV ingestion, config handling, subcommands.

Subcommands:

- ``simulate`` (alias ``benchmark``): run the Monte-Carlo benchmark on a
  simulation DGP and write ``errors.csv``, plus ``failures.csv`` (why each
  failed replication failed) when a fit or predict raised one of
  ``simlab.RECORDED_FAILURES``; a run without failures removes an earlier
  ``failures.csv``. Any other exception stops the run.
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
import io
import math
import os
import sys
import tempfile

import numpy as np

from .estimator import cqc_to_cqte, surface_eval
from .baselines import DrEstimator, IpwEstimator, OracleEstimator, SeparateEstimator, fit_cqc
from .kernels import KERNEL_FAMILIES, DegenerateMassError, KernelSpec
from .nuisance import XI, CcdfEvaluator, Dataset, SingleArmError
from .pseudo import PseudoOutcomeKind
from .simlab import FAMILIES, DgpSpec, csv_text, replication_seeds, run_experiment, sample_dgp

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
    """The one check that the parser's types do not make: a missing ``--dgp`` or ``--input``.
    Keeps the specs as ``args.nuisance_kernel``, ``args.outer_kernel``, ``args.spec`` (simulate)."""
    args.nuisance_kernel = KernelSpec(args.kernel, args.bandwidth_nuisance)
    args.outer_kernel = KernelSpec(args.kernel, args.bandwidth_outer)
    if args.run is cmd_simulate:
        if args.dgp is None:
            raise ConfigError(f"{args.command} requires --dgp")
        args.spec = DgpSpec(args.dgp, args.gamma, args.seed)
    elif args.input is None:
        raise ConfigError(f"{args.command} requires --input")


# The one boolean flag takes no value: a file's word for it picks its form.
_CROSS_FIT_FLAGS = {
    **dict.fromkeys(("1", "true", "yes", "on"), "--cross-fit"),
    **dict.fromkeys(("0", "false", "no", "off"), "--no-cross-fit"),
}


def _read_utf8(path: str, error: type[ValueError]) -> str:
    """The text of file ``path``, UTF-8 after any leading byte-order mark. A
    byte that is not UTF-8 raises ``error`` naming its file line; OSError passes."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        head = raw[: exc.start]  # its line ends as universal newlines count them
        line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
        raise error(f"{path}: line {line}: not UTF-8 ({exc.reason})") from None


def _config_argv(parser: argparse.ArgumentParser, command: str, path: str) -> list[str]:
    """A config file's ``key = value`` lines as ``--key=value`` flags of ``command``.

    '#' starts a comment. Each flag is parsed alone first, so an error names
    its file line and key.
    """
    try:
        lines = io.StringIO(_read_utf8(path, ConfigError), newline=None).readlines()
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


def _path(text: str) -> str:
    """A path flag's value: text without a NUL, which no file name can hold."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("a path cannot contain a NUL character")
    return text


def _checked(convert, ok, message: str):
    """An argparse type: ``convert``, then an error with ``message`` unless ``ok``."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = convert.__name__  # so argparse says "invalid int value: 'abc'"
    return parse


def _builds(spec):
    """An argparse float type whose value must build ``spec(value)``. A ValueError,
    float's or the spec's own, is the error, so the flag and the spec share one check."""

    def parse(text: str) -> float:
        try:
            value = float(text)
            spec(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return parse


_bandwidth = _builds(lambda h: KernelSpec(KERNEL_FAMILIES[0], h))


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

    A leading UTF-8 byte-order mark and blank lines are skipped. A header
    naming a column twice is rejected. Rows with missing, non-numeric, or
    non-finite fields, or with a treatment value other than 0/1, are rejected
    with the file lines they start on (a quoted field may span lines).
    """
    try:
        text = _read_utf8(path, DataError)
    except OSError as exc:
        raise DataError(f"cannot open {path}: {exc}") from exc
    rows = _numbered_rows(csv.reader(io.StringIO(text, newline="")), path)
    try:
        header = [name.strip() for name in next(rows)[1]]
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
    fields = [columns[name] for name in ("y", "a", *expected)]
    records, bad = [], []
    for lineno, row in rows:
        if not row:  # a blank line
            continue
        if len(row) != len(header):
            bad.append((lineno, "wrong field count"))
            continue
        try:
            record = [float(row[i]) for i in fields]  # y, a, x1..xd
        except ValueError:
            bad.append((lineno, "non-numeric field"))
            continue
        if not all(map(math.isfinite, record)):
            bad.append((lineno, "non-finite field"))
            continue
        if record[1] not in (0.0, 1.0):
            bad.append((lineno, f"non-binary a={row[columns['a']]}"))
            continue
        records.append(record)
    if bad:
        detail = "; ".join(f"line {lineno}: {why}" for lineno, why in bad[:5])
        more = "" if len(bad) <= 5 else f" (+{len(bad) - 5} more)"
        raise DataError(f"{path}: rejected rows: {detail}{more}")
    if not records:
        raise DataError(f"{path}: no data rows")
    table = np.array(records)  # the copies keep y and x C-contiguous
    return _checked_input(path, Dataset, table[:, 0].copy(), table[:, 2:].copy(), table[:, 1])


def _numbered_rows(reader, path: str):
    """Each row of a csv ``reader`` with the file line it starts on. A
    ``csv.Error``, such as a field over ``csv.field_size_limit()``, is a data
    error naming that line."""
    lineno = reader.line_num + 1
    try:
        for row in reader:
            yield lineno, row
            lineno = reader.line_num + 1
    except csv.Error as exc:
        raise DataError(f"{path}: line {lineno}: {exc}") from None


def _checked_input(path: str, step, *args):
    """Run a library step that validates the input data; its ValueError is a data error."""
    try:
        return step(*args)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _cells(values) -> list[str]:
    """CSV cells of a 1-D array: floats by ``repr``, which reads back to the same
    bits, integers by ``str``. A non-finite float is a numerical failure."""
    values = np.asarray(values)
    if values.dtype.kind == "f" and not np.isfinite(values).all():
        raise FloatingPointError(f"non-finite output value {values[~np.isfinite(values)][0]}")
    return list(map(repr if values.dtype.kind == "f" else str, values.tolist()))


def _write_table(path: str, header: list[str], columns) -> None:
    """Write equal-length 1-D ``columns`` under ``header`` as a CSV, through ``_atomic_write``."""
    _atomic_write(path, csv_text(header, zip(*map(_cells, columns))))


def write_dataset_csv(dataset: Dataset, path: str) -> None:
    """Write a dataset in the ingestible schema; floats survive a round trip."""
    header = ["y", "a"] + [f"x{k}" for k in range(1, dataset.d + 1)]
    _write_table(path, header, [dataset.y, dataset.a, *dataset.x.T])


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


# The estimators ``simulate`` can run, each record built from the parsed
# settings; ``surface`` and ``cqte`` fit the ``--pseudo`` one.
_ESTIMATORS = {
    **{cls.name: lambda a, cls=cls: cls(a.nuisance_kernel, a.outer_kernel, a.xi, a.cross_fit,
                                        a.grid) for cls in (DrEstimator, IpwEstimator)},
    "separate": lambda a: SeparateEstimator(a.nuisance_kernel),
    "oracle": lambda a: OracleEstimator(a.outer_kernel, grid_count=a.grid),
}


def _estimator_names(text: str) -> list[str]:
    """``--estimators`` value: a comma list of distinct names from ``_ESTIMATORS``."""
    names = [name.strip() for name in text.split(",") if name.strip()]
    if not names:
        raise argparse.ArgumentTypeError("empty estimator list")
    unknown = [name for name in names if name not in _ESTIMATORS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown estimators: {unknown} (choose from {tuple(_ESTIMATORS)})")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"estimators named more than once: {repeated}")
    return names


def cmd_simulate(args: argparse.Namespace) -> int:
    estimators = [_ESTIMATORS[name](args) for name in args.estimators]
    path = _out_path(args, "errors.csv")
    if args.dump_data is not None:  # replication 0's training draw
        train_seed = replication_seeds(args.seed, 1)[0][0]
        write_dataset_csv(sample_dgp(args.spec, args.n, train_seed), args.dump_data)
    report = run_experiment(
        args.spec,
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
    failures_path = os.path.join(os.path.dirname(path), "failures.csv")
    if report.failures:
        _atomic_write(failures_path, report.failures_csv_text())
        print(f"wrote {failures_path} ({len(report.failures)} failures)")
    else:  # an earlier run's reasons would contradict this errors.csv
        try:
            os.unlink(failures_path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            raise ConfigError(f"cannot remove {failures_path}: {exc}") from exc
    return EXIT_OK


def _query_input(args: argparse.Namespace, filename: str):
    """A ``surface`` or ``cqte`` run's output path, input dataset, full-sample
    CCDF evaluator, x1 values and their query rows (other covariates at their
    medians), checked before the fit: a single-arm dataset is a data error."""
    path = _out_path(args, filename)
    dataset = ingest_csv(args.input)
    ccdf = _checked_input(args.input, CcdfEvaluator, args.nuisance_kernel, dataset)
    x_vals = _axis(args.x_grid, dataset.x[:, 0])
    xs = np.tile(np.median(dataset.x, axis=0), (x_vals.size, 1))
    xs[:, 0] = x_vals
    return path, dataset, ccdf, x_vals, xs


def _fit(args: argparse.Namespace, dataset: Dataset):
    """``fit_cqc`` of the ``--pseudo`` estimator's record on ``dataset``; one it
    cannot split or fit is a data error."""
    return _checked_input(args.input, fit_cqc, _ESTIMATORS[args.pseudo](args), dataset, args.seed)


def cmd_surface(args: argparse.Namespace) -> int:
    path, dataset, ccdf, x_vals, xs = _query_input(args, "surface.csv")
    ys = _axis(args.y_grid, ccdf.arm_outcomes(0))  # g(y0 | x) maps arm 0's outcomes
    surface = surface_eval(_fit(args, dataset), ys, xs)
    _write_table(path, ["y", *_cells(x_vals)], [ys, *surface.T])
    print(f"wrote {path} ({ys.size} y-values x {x_vals.size} x-values)")
    return EXIT_OK


def cmd_cqte(args: argparse.Namespace) -> int:
    path, dataset, ccdf, x_vals, xs = _query_input(args, "cqte.csv")
    tau = cqc_to_cqte(_fit(args, dataset), lambda levels, x: ccdf.quantile(0, levels, x),
                      args.alphas, xs)
    alphas = np.repeat(args.alphas, x_vals.size)  # alpha-major, as cqc_to_cqte's table
    columns = [alphas, np.tile(x_vals, len(args.alphas)), tau.ravel()]
    _write_table(path, ["alpha", "x", "tau_hat"], columns)
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
        p.add_argument("--config", type=_path, help="flat key = value config file")
        p.add_argument("--seed", default=0,
                       type=_checked(int, lambda v: v >= 0, "seed must be nonnegative"))
        p.add_argument("--kernel", choices=KERNEL_FAMILIES, default="gaussian")
        p.add_argument("--bandwidth-nuisance", type=_bandwidth, default=0.1)
        p.add_argument("--bandwidth-outer", type=_bandwidth, default=0.1)
        p.add_argument("--xi", default=XI,
                       type=_checked(float, lambda v: 0.0 < v <= 0.5, "xi must lie in (0, 0.5]"))
        p.add_argument("--cross-fit", action=argparse.BooleanOptionalAction, default=True)
        p.add_argument("--grid", type=_grid_count, default="treated",
                       help="'treated' (every distinct treated outcome) or 'uniform:N' "
                            "(N points over the outcome range)")
        p.add_argument("--out", type=_path,
                       help=f"output directory (default: ${OUT_DIR_ENV} or '.')")
        return p

    p = add_command("simulate", cmd_simulate, "Monte-Carlo benchmark on a simulation DGP",
                    aliases=["benchmark"])
    p.add_argument("--dgp", choices=FAMILIES)
    p.add_argument("--gamma", type=_builds(lambda g: DgpSpec(FAMILIES[0], g)), default=6.0)
    p.add_argument("--n", default=1000,
                   type=_checked(int, lambda v: v >= 4, "need at least 4 observations"))
    p.add_argument("--replications", default=100, type=_checked(
        int, lambda v: v >= 2, "need at least 2 replications (CI undefined otherwise)"))
    p.add_argument("--holdout", default=200,
                   type=_checked(int, lambda v: v >= 1, "need at least 1 holdout draw"))
    p.add_argument("--estimators", type=_estimator_names, default=",".join(_ESTIMATORS),
                   help=f"comma list from {','.join(_ESTIMATORS)}")
    p.add_argument("--dump-data", type=_path,
                   help="also write the seed replication's dataset CSV here")

    surface = add_command("surface", cmd_surface, "fit on a CSV and write the gap surface",
                          aliases=["fit"])
    surface.add_argument("--y-grid", type=_axis_spec, default="25", help="'N' or 'min:max:N'")
    cqte = add_command("cqte", cmd_cqte, "fit on a CSV and write quantile effects")
    cqte.add_argument("--alphas", type=_alpha_list, default="0.25,0.5,0.75",
                      help="comma list of levels in (0,1)")
    for p in (surface, cqte):
        p.add_argument("--input", type=_path)
        p.add_argument("--pseudo", choices=[kind.value for kind in PseudoOutcomeKind], default="dr")
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
    except (DegenerateMassError, FloatingPointError, AssertionError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

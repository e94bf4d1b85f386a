import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from margins import below, holds
from scalar_oracle import step_quantile
from cqcbench import cli
from cqcbench.cli import (
    ConfigError,
    DataError,
    _atomic_write,
    ingest_csv,
    main,
    resolve_config,
    write_dataset_csv,
)
from cqcbench.baselines import DrEstimator, IpwEstimator
from cqcbench.estimator import (
    ContrastFit,
    _ContrastReplicate,
    build_grid,
    cross_fit_contrast,
    estimate_cqc_many,
    surface_eval,
)
from cqcbench.kernels import KernelSpec
from cqcbench.nuisance import CcdfEvaluator, Dataset
from cqcbench.simlab import FAMILIES, DgpSpec, replication_seeds, sample_dgp


def write(path, text):
    path.write_text(text)
    return str(path)


def test_ingest_minimal_file(tmp_path):
    path = write(
        tmp_path / "data.csv",
        "y,a,x1\n1.5,1,0.2\n-0.5,0,0.9\n2.25,1,0.4\n",
    )
    data = ingest_csv(path)
    assert data.n == 3 and data.d == 1
    np.testing.assert_allclose(data.y, [1.5, -0.5, 2.25])
    np.testing.assert_array_equal(data.a, [1, 0, 1])


def test_ingest_infers_dimension_from_header(tmp_path):
    path = write(
        tmp_path / "data.csv",
        "y,a,x1,x2,x3\n1,1,0.1,0.2,0.3\n2,0,0.4,0.5,0.6\n",
    )
    assert ingest_csv(path).d == 3


def test_ingest_rejects_non_binary_treatment_with_line_number(tmp_path):
    rows = ["y,a,x1"] + [f"{i},1,0.{i}" for i in range(1, 6)] + ["9,2,0.9"]
    path = write(tmp_path / "data.csv", "\n".join(rows) + "\n")
    with pytest.raises(DataError, match="line 7"):
        ingest_csv(path)


def test_ingest_rejects_non_finite_with_line_number(tmp_path):
    path = write(tmp_path / "data.csv", "y,a,x1\n1,1,0.5\nnan,0,0.2\n")
    with pytest.raises(DataError, match="line 3"):
        ingest_csv(path)


def test_ingest_rejects_missing_fields_with_line_number(tmp_path):
    path = write(tmp_path / "data.csv", "y,a,x1\n1,1\n")
    with pytest.raises(DataError, match="line 2"):
        ingest_csv(path)


def test_ingest_skips_utf8_byte_order_mark(tmp_path):
    text = "y,a,x1\n1.5,1,0.2\n-0.5,0,0.9\n2.25,1,0.4\n"
    plain = ingest_csv(write(tmp_path / "plain.csv", text))
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + text.encode())
    marked = ingest_csv(str(tmp_path / "bom.csv"))
    for field in ("y", "x", "a"):
        assert getattr(marked, field).tobytes() == getattr(plain, field).tobytes()


def test_ingest_skips_blank_lines_and_counts_them_in_line_numbers(tmp_path):
    text = "y,a,x1\n1.5,1,0.2\n-0.5,0,0.9\n2.25,1,0.4\n"
    plain = ingest_csv(write(tmp_path / "plain.csv", text))
    variants = {
        "end": text + "\n\n",
        "middle": text.replace("\n-0.5", "\n\n\n-0.5"),
        "crlf": text.replace("\n", "\r\n").replace("\r\n2.25", "\r\n\r\n2.25"),
    }
    for name, variant in variants.items():
        blank = ingest_csv(write(tmp_path / f"{name}.csv", variant))
        for field in ("y", "x", "a"):
            got, want = getattr(blank, field), getattr(plain, field)
            assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    # Line 3 is blank, so the short row is line 4.
    path = write(tmp_path / "short.csv", "y,a,x1\n1.5,1,0.2\n\n-0.5,0\n")
    with pytest.raises(DataError, match="rejected rows: line 4: wrong field count$"):
        ingest_csv(path)
    # So a command reads the same data and writes the same surface.
    path = synthetic_csv(tmp_path, gamma=6.0, n=300, seed=0)
    lines = open(path).read().splitlines(keepends=True)
    blank = write(tmp_path / "blank.csv", "".join(lines[:2] + ["\n"] + lines[2:] + ["\n\n"]))
    for name, data in (("plain", path), ("blank", blank)):
        argv = ["surface", "--input", data, "--y-grid", "5", "--x-grid", "5"]
        assert main([*argv, "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "plain" / "surface.csv").read_bytes() == (
        tmp_path / "blank" / "surface.csv").read_bytes()


def test_ingest_empty_file(tmp_path):
    path = write(tmp_path / "data.csv", "")
    with pytest.raises(DataError, match="empty"):
        ingest_csv(path)


def test_ingest_missing_columns(tmp_path):
    path = write(tmp_path / "data.csv", "y,x1\n1,0.5\n")
    with pytest.raises(DataError):
        ingest_csv(path)
    path = write(tmp_path / "data2.csv", "y,a,x2\n1,1,0.5\n")
    with pytest.raises(DataError):
        ingest_csv(path)
    path = write(tmp_path / "data3.csv", "y,a,x1,y\n1,1,0.5,2\n")
    with pytest.raises(DataError, match=r"duplicate column names \['y'\]"):
        ingest_csv(path)
    assert main(["surface", "--input", path, "--out", str(tmp_path)]) == 2


def test_dataset_round_trip_is_value_identical(tmp_path):
    rng = np.random.default_rng(0)
    data = Dataset(
        rng.normal(size=50) * 1e3,
        rng.uniform(-5, 5, (50, 2)),
        (rng.uniform(size=50) < 0.4).astype(int),
    )
    path = str(tmp_path / "round.csv")
    write_dataset_csv(data, path)
    back = ingest_csv(path)
    np.testing.assert_array_equal(back.y, data.y)
    np.testing.assert_array_equal(back.x, data.x)
    np.testing.assert_array_equal(back.a, data.a)


FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, -1.7976931348623157e308]
)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    d=st.integers(min_value=1, max_value=12),
    rows=st.integers(min_value=1, max_value=6),
    data=st.data(),
)
def test_dataset_round_trip_is_bit_exact(d, rows, data):
    values = data.draw(st.lists(FINITE, min_size=rows * (d + 1), max_size=rows * (d + 1)))
    arms = data.draw(st.lists(st.integers(0, 1), min_size=rows, max_size=rows))
    grid = np.array(values).reshape(rows, d + 1)
    dataset = Dataset(grid[:, 0], grid[:, 1:], np.array(arms))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "round.csv")
        write_dataset_csv(dataset, path)
        back = ingest_csv(path)
    assert back.y.tobytes() == dataset.y.tobytes()
    assert back.x.tobytes() == dataset.x.tobytes()
    np.testing.assert_array_equal(back.a, dataset.a)


def test_config_file_parsing(tmp_path):
    path = write(
        tmp_path / "run.cfg",
        "# benchmark settings\nseed = 7\ngamma = 2.5\ncross_fit = false\n"
        "dgp = illustrative\n",
    )
    args = resolve_config(["simulate", "--config", path])
    assert (args.seed, args.gamma, args.cross_fit, args.dgp) == (7, 2.5, False, "illustrative")
    assert (args.n, args.kernel) == (1000, "gaussian")  # keys not in the file keep their defaults
    bom = tmp_path / "bom.cfg"
    bom.write_text("\ufeffseed = 7\ndgp = illustrative\n", encoding="utf-8")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    assert resolve_config(["simulate", "--config", str(bom)]).seed == 7


def test_config_file_unknown_key(tmp_path):
    path = write(tmp_path / "run.cfg", "seed = 7\nvolume = 11\n")
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}:2: 'volume': "):
        resolve_config(["simulate", "--config", path])


def simulate_args(tmp_path, **overrides):
    args = {
        "--dgp": "illustrative",
        "--gamma": "2.0",
        "--n": "120",
        "--replications": "2",
        "--holdout": "40",
        "--seed": "3",
        "--bandwidth-nuisance": "0.1",
        "--bandwidth-outer": "0.15",
        "--estimators": "dr,separate",
        "--out": str(tmp_path),
    }
    args.update(overrides)
    argv = ["simulate"]
    for key, value in args.items():
        if value is None:
            continue
        argv += [key, value]
    return argv


def test_simulate_writes_error_report(tmp_path):
    assert main(simulate_args(tmp_path)) == 0
    text = (tmp_path / "errors.csv").read_text()
    lines = text.strip().splitlines()
    assert lines[0] == "estimator,mean_abs_error,ci_low,ci_high,replications"
    assert len(lines) == 3
    assert lines[1].startswith("dr,") and lines[2].startswith("separate,")


@pytest.mark.parametrize("argv", [
    ["--dgp", "tendim", "--kernel", "box", "--bandwidth-nuisance", "0.6",
     "--bandwidth-outer", "1.6", "--n", "400", "--estimators", "dr,separate"],
    ["--dgp", "linear_cqc", "--n", "300", "--estimators", "dr,oracle"],
    ["--dgp", "uniform_h", "--n", "300", "--estimators", "dr,oracle"],
], ids=["tendim-box", "linear_cqc", "uniform_h"])
def test_simulate_fits_every_replication(tmp_path, argv):
    dump = tmp_path / "data.csv"
    argv = ["simulate", *argv, "--replications", "2", "--holdout", "20", "--out", str(tmp_path),
            "--dump-data", str(dump)]
    assert main(argv) == 0
    args = resolve_config(argv)
    # Replication 0's training draw; d = 10 on tendim.
    reference = sample_dgp(args.spec, args.n, replication_seeds(args.seed, 1)[0][0])
    data = ingest_csv(str(dump))
    assert all(getattr(data, f).tobytes() == getattr(reference, f).tobytes() for f in "yxa")
    header, *rows = (tmp_path / "errors.csv").read_text().splitlines()
    assert header == "estimator,mean_abs_error,ci_low,ci_high,replications"
    assert [row.split(",")[0] for row in rows] == argv[argv.index("--estimators") + 1].split(",")
    assert all(row.endswith(",2") for row in rows)
    assert not (tmp_path / "failures.csv").exists()


def test_simulate_four_default_estimator_rows(tmp_path):
    argv = simulate_args(tmp_path, **{"--estimators": None})
    assert main(argv) == 0
    lines = (tmp_path / "errors.csv").read_text().strip().splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == [
        "dr",
        "ipw",
        "separate",
        "oracle",
    ]


def test_simulate_single_replication_is_config_error(tmp_path):
    assert main(simulate_args(tmp_path, **{"--replications": "1"})) == 1


def test_simulate_too_few_observations_is_config_error(tmp_path, capsys):
    assert main(simulate_args(tmp_path, **{"--n": "3"})) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["cqte", "--alphas", "0.5,abc"],
        ["surface", "--y-grid", "0"],
        ["cqte", "--x-grid", "0"],
        ["surface", "--bandwidth-nuisance", "nan"],
        ["simulate", "--gamma", "-1"],
        ["simulate", "--holdout", "0"],
        ["simulate", "--replications", "1"],
        ["simulate", "--xi", "nan"],
        ["simulate", "--gamma", "nan"],
        ["simulate", "--gamma", "inf"],
        ["simulate", "--seed", "-1"],
        ["surface", "--seed", "-1"],
        ["cqte", "--x-grid", "nan:1:3"],
        ["surface", "--y-grid", "nan:1:3"],
        ["surface", "--x-grid", "0:inf:3"],
        ["surface", "--y-grid", "1e308:-1e308:3"],
        ["surface", "--grid", "uniform:x"],
        ["surface", "--grid", "uniform:0"],
        ["cqte", "--grid", "fixed"],
        ["surface", "--y-grid", "1:2"],
        ["cqte", "--x-grid", "a:b:3"],
        ["simulate", "--estimators", ","],
    ],
    ids=[
        "alphas-abc", "y-grid-0", "x-grid-0", "bandwidth-nan", "gamma-negative", "holdout-0",
        "replications-1", "xi-nan",
        "gamma-nan", "gamma-inf", "seed-negative-simulate", "seed-negative-surface",
        "x-grid-nan", "y-grid-nan", "x-grid-inf", "y-grid-span-overflow",
        "grid-uniform-x", "grid-uniform-0", "grid-fixed", "y-grid-two-parts", "x-grid-non-numeric",
        "estimators-empty",
    ],
)
def test_malformed_config_is_one_line_config_error(tmp_path, capsys, argv):
    if argv[0] == "simulate":
        argv = simulate_args(tmp_path, **{argv[1]: argv[2]})
    else:
        argv = argv + ["--input", synthetic_csv(tmp_path, n=60), "--out", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not {"errors.csv", "surface.csv", "cqte.csv"} & set(os.listdir(tmp_path))


@pytest.mark.parametrize("case", ["simulate-out", "surface-out", "cqte-out", "dump-data"])
def test_unwritable_output_path_is_one_line_config_error(tmp_path, capsys, monkeypatch, case):
    blocker = tmp_path / "file"
    blocker.write_text("a regular file where a directory should be\n")
    if case == "simulate-out":
        argv = simulate_args(tmp_path, **{"--out": str(blocker / "sub")})

        def run_experiment(*args, **kwargs):
            raise AssertionError("the experiment ran before the output directory was checked")

        monkeypatch.setattr("cqcbench.cli.run_experiment", run_experiment)
    elif case == "dump-data":
        # A blocked --out stops the run before a writable --dump-data is written.
        dump = tmp_path / "dump.csv"
        argv = simulate_args(tmp_path, **{"--out": str(blocker / "sub"), "--dump-data": str(dump)})
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"config error: cannot write {blocker / 'sub'}")
        assert not dump.exists()
        argv = simulate_args(tmp_path, **{"--dump-data": str(blocker / "x.csv")})
    else:
        command = case.split("-")[0]
        grids = ["--x-grid", "2"] + (["--y-grid", "2"] if command == "surface" else [])
        argv = [
            command, "--input", synthetic_csv(tmp_path, n=200), "--out", str(blocker / "sub"),
            *grids, "--bandwidth-nuisance", "0.2", "--bandwidth-outer", "0.3",
        ]
    assert main(argv) == 1
    target = blocker / ("x.csv" if case == "dump-data" else "sub")
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write {target}") and err.count("\n") == 1


def test_simulate_deterministic_files(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    out_a.mkdir(), out_b.mkdir()
    assert main(simulate_args(out_a)) == 0
    assert main(simulate_args(out_b)) == 0
    assert (out_a / "errors.csv").read_bytes() == (out_b / "errors.csv").read_bytes()


def test_simulate_base_seeds_give_different_errors_csv(tmp_path):
    # Replication r once used seed base ^ r, so base seeds 0 and 1 drew the
    # same two datasets and wrote the same errors.csv.
    texts = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        assert main(["simulate", "--dgp", "illustrative", "--n", "300", "--replications", "2",
                     "--holdout", "20", "--estimators", "dr,separate", "--seed", seed,
                     "--out", str(out)]) == 0
        texts.append((out / "errors.csv").read_bytes())
    assert texts[0] != texts[1]


class _OutOfMemory:
    name = "separate"

    def fit(self, dataset, seed, truth=None):
        raise MemoryError("Unable to allocate 6.71 GiB for an array with shape (30000, 30000)")


def test_simulate_writes_failures_csv_only_when_a_fit_failed(tmp_path, monkeypatch, capsys):
    clean, failing = tmp_path / "clean", tmp_path / "failing"
    assert main(simulate_args(clean)) == 0
    assert not (clean / "failures.csv").exists()
    monkeypatch.setitem(cli._ESTIMATORS, "separate", lambda args: _OutOfMemory())
    capsys.readouterr()
    assert main(simulate_args(failing)) == 0
    assert "failures=2" in capsys.readouterr().out
    lines = (failing / "failures.csv").read_text().splitlines()
    message = '"Unable to allocate 6.71 GiB for an array with shape (30000, 30000)"'
    fit_seeds = [seeds[2] for seeds in replication_seeds(3, 2)]
    assert lines == [
        "estimator,replication,seed,error,message",
        f"separate,0,{fit_seeds[0]},MemoryError,{message}",
        f"separate,1,{fit_seeds[1]},MemoryError,{message}",
    ]
    # The dr row is unchanged, and the failed estimator's row is NaN.
    clean_rows = (clean / "errors.csv").read_text().splitlines()
    failing_rows = (failing / "errors.csv").read_text().splitlines()
    assert failing_rows[:2] == clean_rows[:2]
    assert failing_rows[2] == "separate,nan,nan,nan,0"
    # A later run without failures removes the earlier run's reasons.
    monkeypatch.undo()
    assert main(simulate_args(failing)) == 0
    assert not (failing / "failures.csv").exists()


def test_benchmark_alias_matches_simulate(tmp_path):
    argv = simulate_args(tmp_path)
    argv[0] = "benchmark"
    assert main(argv) == 0
    assert (tmp_path / "errors.csv").exists()


def test_simulate_dump_data_round_trips(tmp_path):
    dump = tmp_path / "sample.csv"
    assert main(simulate_args(tmp_path, **{"--dump-data": str(dump)})) == 0
    data = ingest_csv(str(dump))
    # Replication 0's training draw at --seed 3.
    reference = sample_dgp(DgpSpec("illustrative", gamma=2.0), 120, replication_seeds(3, 1)[0][0])
    np.testing.assert_array_equal(data.y, reference.y)
    np.testing.assert_array_equal(data.x, reference.x)
    np.testing.assert_array_equal(data.a, reference.a)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate"],
        ["surface"],
        ["frobnicate"],
        ["simulate", "--dgp", "illustrative", "--xi", "0.7"],
        ["simulate", "--dgp", "nope"],
        ["simulate", "--dgp", "illustrative", "--n", "abc"],
        ["simulate", "--dgp", "illustrative", "--volume", "11"],
        ["simulate", "--dgp", "illustrative", "--hold", "5"],
        ["surface", "--input", "d.csv", "--dgp", "illustrative"],
        ["surface", "--input", "d.csv", "--pseudo", "oracle"],
    ],
    ids=[
        "simulate-no-dgp", "surface-no-input", "unknown-command", "xi-too-large", "dgp-nope",
        "n-abc", "unknown-flag", "abbreviated-flag", "flag-of-another-command",
        "pseudo-oracle",
    ],
)
def test_usage_errors_exit_one(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert os.listdir(tmp_path) == []


def test_help_exits_zero(capsys):
    assert main(["simulate", "--help"]) == 0
    assert "--dgp" in capsys.readouterr().out


@pytest.mark.parametrize(
    "line",
    ["seed = abc", "kernel = epan", "cross_fit = maybe", "holdo = 5", "config = x.cfg",
     "xi = 0.9", "seed = -3", "n = 3", "replications = 1", "holdout = 0",
     "gamma = -1", "bandwidth_outer = 1e200", "bandwidth_nuisance = 0", "estimators = dr,nope",
     "estimators = dr,dr"],
    ids=["seed-abc", "kernel-epan", "cross-fit-maybe", "abbreviated-key", "config-key",
         "xi-too-large", "seed-negative", "n-3", "replications-1", "holdout-0",
         "gamma-negative", "bandwidth-outer-huge", "bandwidth-nuisance-0", "estimators-unknown",
         "estimators-repeated"],
)
def test_config_file_error_names_line_and_key(tmp_path, capsys, line):
    cfg = write(tmp_path / "run.cfg", f"# settings\ndgp = illustrative\n{line}\n")
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    key = line.split(" = ")[0]
    assert err.startswith(f"config error: {cfg}:3: {key!r}: ") and err.count("\n") == 1
    assert os.listdir(tmp_path) == ["run.cfg"]


@pytest.mark.parametrize(
    "text",
    [None, b"seed 7\n", b"dgp = illustrative\n\xff = 1\n", b"dump_data = a\0b.csv\n"],
    ids=["missing-file", "line-without-equals", "not-utf8", "nul-in-path"],
)
def test_unreadable_config_file_is_one_line_config_error(tmp_path, capsys, text):
    cfg = tmp_path / "run.cfg"
    if text is not None:
        cfg.write_bytes(text)
    out = tmp_path / "out"
    assert main(["simulate", "--dgp", "illustrative", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["input", "out"])
def test_nul_in_a_config_path_names_line_and_key(tmp_path, capsys, monkeypatch, key):
    monkeypatch.chdir(tmp_path)
    cfg = write(tmp_path / "run.cfg", f"input = {synthetic_csv(tmp_path, n=60)}\n{key} = a\0b\n")
    assert main(["surface", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:2: {key!r}: ") and err.count("\n") == 1


def _accepts(build, value) -> bool:
    try:
        build(value)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf, 1e-200, 1e-160, 1e200, 0.1])
@pytest.mark.parametrize(
    "flag, build",
    [("--bandwidth-nuisance", lambda v: KernelSpec("gaussian", v)),
     ("--bandwidth-outer", lambda v: KernelSpec("box", v)),
     ("--gamma", lambda v: DgpSpec(FAMILIES[0], v))],
    ids=["bandwidth-nuisance", "bandwidth-outer", "gamma"],
)
def test_flag_accepts_exactly_what_its_spec_accepts(flag, build, value):
    argv = ["simulate", "--dgp", "illustrative", f"{flag}={value!r}"]
    if _accepts(build, value):
        args = resolve_config(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == value
    else:
        with pytest.raises(ConfigError, match=f"argument {flag}: "):
            resolve_config(argv)


def test_bad_axis_is_config_error_before_input_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    assert main(["surface", "--input", missing, "--y-grid", "0", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_config_file_bad_axis_names_line_and_key(tmp_path, capsys):
    cfg = write(tmp_path / "run.cfg", "x_grid = 5\ny_grid = 0\n")
    argv = ["surface", "--input", str(tmp_path / "missing.csv"), "--config", cfg]
    assert main(argv + ["--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {cfg}:2: 'y_grid': ") and err.count("\n") == 1


def test_config_cross_fit_off_is_no_cross_fit_flag(tmp_path):
    cfg = write(tmp_path / "run.cfg", "cross_fit = off\n")
    base = ["simulate", "--dgp", "illustrative"]
    from_file = vars(resolve_config(base + ["--config", cfg]))
    from_flag = vars(resolve_config(base + ["--no-cross-fit"]))
    assert (from_file.pop("config"), from_flag.pop("config")) == (cfg, None)
    assert from_file == from_flag and from_flag["cross_fit"] is False
    assert resolve_config(base + ["--config", cfg, "--cross-fit"]).cross_fit is True
    # A surface run from a file with a byte-order mark writes what its flags write.
    data = synthetic_csv(tmp_path, gamma=6.0, n=300, seed=0)
    settings = f"input = {data}\nout = {tmp_path / 'file'}\ny_grid = 5\nx_grid = 5\n"
    (tmp_path / "surface.cfg").write_text(f"\ufeff{settings}cross_fit = off\n", encoding="utf-8")
    assert main(["surface", "--config", str(tmp_path / "surface.cfg")]) == 0
    flags = ["--input", data, "--y-grid", "5", "--x-grid", "5", "--no-cross-fit"]
    assert main(["surface", *flags, "--out", str(tmp_path / "flags")]) == 0
    assert (tmp_path / "file" / "surface.csv").read_bytes() == (
        tmp_path / "flags" / "surface.csv").read_bytes()


def test_simulate_has_no_pseudo_flag(tmp_path, capsys):
    # simulate builds each estimator with its own pseudo-outcome, so the flag
    # would be accepted and ignored.
    assert main(simulate_args(tmp_path, **{"--pseudo": "ipw"})) == 1
    assert "--pseudo" in capsys.readouterr().err
    assert not (tmp_path / "errors.csv").exists()


def test_repeated_estimator_is_config_error(tmp_path, capsys):
    assert main(simulate_args(tmp_path, **{"--estimators": "dr,dr,separate"})) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "['dr']" in err and err.count("\n") == 1
    assert not (tmp_path / "errors.csv").exists()


@pytest.mark.parametrize(
    "command, key",
    [("simulate", "pseudo"), ("simulate", "input"), ("surface", "dgp"), ("cqte", "y_grid")],
)
def test_config_key_of_another_command_is_config_error(tmp_path, capsys, command, key):
    cfg = write(tmp_path / "run.cfg", f"{key} = illustrative\n")
    if command == "simulate":
        argv = simulate_args(tmp_path, **{"--config": cfg})
    else:
        argv = [command, "--input", synthetic_csv(tmp_path, n=60), "--out", str(tmp_path),
                "--config", cfg]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(key) in err and err.count("\n") == 1
    assert not {"errors.csv", "surface.csv", "cqte.csv"} & set(os.listdir(tmp_path))


def test_single_arm_csv_is_data_error(tmp_path, capsys):
    path = write(
        tmp_path / "one_arm.csv",
        "y,a,x1\n" + "\n".join(f"{i},1,0.{i}" for i in range(1, 9)) + "\n",
    )
    assert main(["surface", "--input", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["surface", "cqte"])
def test_too_small_csv_is_data_error(tmp_path, capsys, command):
    path = write(tmp_path / "tiny.csv", "y,a,x1\n1,1,0.1\n2,0,0.5\n3,1,0.9\n")
    assert main([command, "--input", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "too small" in err
    assert err.count("\n") == 1


def test_bad_rows_are_data_error(tmp_path):
    path = write(tmp_path / "bad.csv", "y,a,x1\n1,2,0.5\n")
    assert main(["surface", "--input", path, "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "text, reason",
    [(b"y,a,x1\n1,1,abc\n2,0,0.5\n", "line 2: non-numeric field"),
     (b"y,a,x1\n", "no data rows"),
     (None, "cannot open"),
     (b"y,a,x1\n1,0,0.1\n2,1,0.\xff\n3,0,0.3\n4,1,0.4\n", "data.csv: line 3: not UTF-8"),
     (b"y,a,x1\n1,0,0.1\n2,1,0." + b"1" * 200000 + b"\n3,0,0.3\n",
      "data.csv: line 3: field larger than field limit"),
     (b'y,a,x1\n"1\n",1,0.2\n2,1,0.3\n3,2,0.4\n', "rejected rows: line 5: non-binary a=2")],
    ids=["non-numeric-field", "header-only", "missing-input", "not-utf8", "oversize-field",
         "line-of-a-row-after-a-quoted-newline"],
)
def test_unreadable_input_is_one_line_data_error(tmp_path, capsys, text, reason):
    path = tmp_path / "data.csv"
    if text is not None:
        path.write_bytes(text)
    out = tmp_path / "out"
    assert main(["surface", "--input", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and reason in err and err.count("\n") == 1
    assert not (out / "surface.csv").exists()


def synthetic_csv(tmp_path, family="illustrative", gamma=0.0, n=400, seed=2):
    data = sample_dgp(DgpSpec(family, gamma=gamma, seed=seed), n, seed)
    path = str(tmp_path / "synth.csv")
    write_dataset_csv(data, path)
    return path


def isolated_csv(tmp_path):
    # Isolated covariates in both arms (x1 = 3, 5, ..., 13): their propensity
    # and arm weight rows take the degenerate-mass retry.
    rng = np.random.default_rng(1)
    x1 = np.r_[rng.uniform(0.0, 1.0, 300), [3, 5, 7, 9, 11, 13]]
    a = np.r_[(rng.uniform(size=300) < 0.5).astype(int), [0, 1] * 3]
    y = np.sin(3 * x1) + a + rng.normal(size=306)
    path = str(tmp_path / "isolated.csv")
    write_dataset_csv(Dataset(y, x1, a), path)
    return path


# The illustrative and tendim inputs are what simulate --dump-data writes at
# its default gamma and seed.
INPUTS = {
    "illustrative": lambda tmp_path: synthetic_csv(tmp_path, "illustrative", 6.0, 300, 0),
    "tendim": lambda tmp_path: synthetic_csv(tmp_path, "tendim", 6.0, 400, 0),
    "isolated": isolated_csv,
}


@pytest.mark.parametrize("data, argv, shape", [
    ("illustrative", ["surface", "--y-grid", "5", "--x-grid", "5"], (5, 6)),
    ("illustrative", ["surface", "--y-grid", "40", "--x-grid", "3", "--pseudo", "ipw",
                      "--no-cross-fit"], (40, 4)),
    ("illustrative", ["cqte", "--alphas", "0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9", "--x-grid", "3"],
     (27, 3)),
    ("illustrative", ["cqte", "--grid", "uniform:40", "--x-grid", "5"], (15, 3)),
    ("tendim", ["cqte", "--x-grid", "3"], (9, 3)),
    ("tendim", ["surface", "--no-cross-fit", "--y-grid", "5", "--x-grid", "3"], (5, 4)),
    ("isolated", ["surface", "--kernel", "box", "--bandwidth-nuisance", "0.05", "--no-cross-fit"],
     (25, 26)),
    ("isolated", ["surface", "--kernel", "box", "--bandwidth-nuisance", "0.05", "--cross-fit"],
     (25, 26)),
], ids=["illustrative-surface", "illustrative-ipw-runs-of-40", "illustrative-cqte-runs-of-9",
        "illustrative-cqte-uniform-grid", "tendim-cqte",
        "tendim-surface-no-cross-fit", "isolated-no-cross-fit", "isolated-cross-fit"])
def test_command_writes_its_table(tmp_path, data, argv, shape):
    path = INPUTS[data](tmp_path)
    assert main([*argv, "--input", path, "--out", str(tmp_path)]) == 0
    table = np.loadtxt(tmp_path / f"{argv[0]}.csv", delimiter=",", skiprows=1, ndmin=2)
    assert table.shape == shape and np.isfinite(table).all()
    if argv[0] == "surface":  # every estimate, a gap plus its y, is a treated outcome
        data = ingest_csv(path)
        treated = np.unique(data.y[data.a == 1])
        g = (table[:, 1:] + table[:, :1]).ravel()
        assert np.isclose(g[:, None], treated[None, :], rtol=1e-12, atol=0).any(axis=1).all()


def test_surface_row_count_matches_y_grid(tmp_path):
    path = synthetic_csv(tmp_path)
    code = main(
        [
            "surface", "--input", path, "--out", str(tmp_path),
            "--y-grid", "2", "--x-grid", "3",
            "--bandwidth-nuisance", "0.2", "--bandwidth-outer", "0.3", "--seed", "1",
        ]
    )
    assert code == 0
    lines = (tmp_path / "surface.csv").read_text().strip().splitlines()
    assert len(lines) == 3  # header + 2 y rows
    assert len(lines[0].split(",")) == 4  # 'y' + 3 x columns
    body = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.isfinite(body).all()


def test_fit_alias_writes_surface(tmp_path):
    path = synthetic_csv(tmp_path)
    code = main(
        [
            "fit", "--input", path, "--out", str(tmp_path),
            "--y-grid", "3", "--x-grid", "2",
            "--bandwidth-nuisance", "0.2", "--bandwidth-outer", "0.3", "--seed", "1",
        ]
    )
    assert code == 0
    assert (tmp_path / "surface.csv").exists()


# Identical treated/untreated laws: the gap surface should hover near 0. Its
# 15 cells move together, by one offset per dataset. Over data seeds 5-65 the
# mean |gap| averaged 0.206 (sd 0.096, max 0.428), while the largest cell
# reached 0.535; the bound is about the average plus 3 sd.
def surface_near_zero_margins(tmp_path, base_seed=5):
    path = synthetic_csv(tmp_path, family="tendim", gamma=0.5, n=900, seed=base_seed)
    code = main(
        [
            "surface", "--input", path, "--out", str(tmp_path),
            "--y-grid=-1:1:5", "--x-grid", "3",
            "--bandwidth-nuisance", "1.0", "--bandwidth-outer", "2.0", "--seed", "1",
        ]
    )
    assert code == 0
    lines = (tmp_path / "surface.csv").read_text().strip().splitlines()
    body = np.array([[float(v) for v in line.split(",")[1:]] for line in lines[1:]])
    return {"mean |gap| < 0.5": below(np.abs(body).mean(), 0.5)}


def test_surface_near_zero_for_identity_map_data(tmp_path):
    margins = surface_near_zero_margins(tmp_path)
    assert holds(margins), margins


def cqte_flat_truth_margins(tmp_path, base_seed=6):
    path = synthetic_csv(tmp_path, gamma=0.0, n=700, seed=base_seed)
    code = main(
        [
            "cqte", "--input", path, "--out", str(tmp_path),
            "--alphas", "0.25,0.5,0.75", "--x-grid", "4",
            "--bandwidth-nuisance", "0.15", "--bandwidth-outer", "0.25", "--seed", "2",
        ]
    )
    assert code == 0
    lines = (tmp_path / "cqte.csv").read_text().strip().splitlines()
    assert lines[0] == "alpha,x,tau_hat"
    assert len(lines) == 1 + 3 * 4
    rows = [line.split(",") for line in lines[1:]]
    by_alpha = {}
    for alpha, _, tau in rows:
        by_alpha.setdefault(float(alpha), []).append(float(tau))
    # flat-frequency truth: zero at the median, symmetric at 0.25/0.75
    med = np.mean(by_alpha[0.5])
    lo, hi = np.mean(by_alpha[0.25]), np.mean(by_alpha[0.75])
    return {
        "|median| < 0.35": below(abs(med), 0.35),
        "lo < median": below(lo, med),
        "median < hi": below(med, hi),
        "|asymmetry| < 0.5": below(abs((hi - med) + (lo - med)), 0.5),
    }


def test_cqte_rows_and_flat_truth(tmp_path):
    margins = cqte_flat_truth_margins(tmp_path)
    assert holds(margins), margins


def test_cqte_csv_is_alpha_major_and_matches_batch_inversion(tmp_path):
    path = synthetic_csv(tmp_path, gamma=2.0, n=300, seed=4)
    code = main(
        [
            "cqte", "--input", path, "--out", str(tmp_path),
            "--alphas", "0.3,0.6", "--x-grid", "3",
            "--bandwidth-nuisance", "0.15", "--bandwidth-outer", "0.25", "--seed", "2",
        ]
    )
    assert code == 0
    lines = (tmp_path / "cqte.csv").read_text().strip().splitlines()
    rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
    data = ingest_csv(path)
    alphas = [0.3, 0.6]
    x_vals = np.linspace(data.x[:, 0].min(), data.x[:, 0].max(), 3)
    assert [(alpha, x) for alpha, x, _ in rows] == [(a, float(x)) for a in alphas for x in x_vals]
    ccdf = CcdfEvaluator(KernelSpec("gaussian", 0.15), data)
    cums0 = [np.cumsum(ccdf.weight_matrix(0, [x])[0]) for x in x_vals]
    y0s = np.array([step_quantile(ccdf.arm_outcomes(0), c, a) for a in alphas for c in cums0])
    contrast = cross_fit_contrast(
        data, 2, KernelSpec("gaussian", 0.15), KernelSpec("gaussian", 0.25)
    )
    xs = np.tile(x_vals.reshape(-1, 1), (len(alphas), 1))
    g_hat, _, _ = estimate_cqc_many(contrast, build_grid(data), y0s, xs)
    assert [tau for _, _, tau in rows] == list(g_hat - y0s)


@pytest.mark.parametrize("grid, grid_count", [("treated", None), ("uniform:40", 40)])
@pytest.mark.parametrize("cross_fit", [True, False])
@pytest.mark.parametrize("pseudo, estimator", [("dr", DrEstimator), ("ipw", IpwEstimator)])
def test_surface_csv_is_the_estimators_surface(tmp_path, pseudo, estimator, cross_fit, grid, grid_count):
    path = synthetic_csv(tmp_path, gamma=2.0, n=300, seed=4)
    flags = ["--bandwidth-nuisance", "0.15", "--bandwidth-outer", "0.25", "--seed", "3"]
    code = main(
        ["surface", "--input", path, "--out", str(tmp_path), "--y-grid", "4", "--x-grid", "3",
         "--pseudo", pseudo, "--grid", grid, "--cross-fit" if cross_fit else "--no-cross-fit", *flags]
    )
    assert code == 0
    data = ingest_csv(path)
    fit = estimator(
        KernelSpec("gaussian", 0.15), KernelSpec("gaussian", 0.25),
        xi=0.05, cross_fit=cross_fit, grid_count=grid_count,
    ).fit(data, 3)
    untreated = data.y[data.a == 0]  # an 'N' y axis spans arm 0's outcomes
    ys = np.linspace(untreated.min(), untreated.max(), 4)
    x_vals = np.linspace(data.x[:, 0].min(), data.x[:, 0].max(), 3)
    surface = surface_eval(fit, ys, x_vals.reshape(-1, 1))
    lines = ["y," + ",".join(repr(float(v)) for v in x_vals)]
    lines += [repr(float(y)) + "," + ",".join(repr(float(v)) for v in row) for y, row in zip(ys, surface)]
    assert (tmp_path / "surface.csv").read_text() == "\n".join(lines) + "\n"


def test_an_x_axis_of_equal_values_is_one_run_with_equal_columns(tmp_path, monkeypatch):
    # Every query of a batch at one x is one run: one profile row, and each
    # x column reads the same y0 levels, so the columns agree byte for byte.
    data = sample_dgp(DgpSpec("illustrative", gamma=2.0), 300, 4)
    path, flat = str(tmp_path / "data.csv"), str(tmp_path / "flat.csv")
    write_dataset_csv(data, path)
    write_dataset_csv(Dataset(data.y, np.full_like(data.x, 0.5), data.a), flat)
    rows = []
    profile_many = ContrastFit.profile_many

    def counting(self, y0s, grid, xs):
        rows.append(np.size(y0s))
        return profile_many(self, y0s, grid, xs)

    monkeypatch.setattr(ContrastFit, "profile_many", counting)
    flags = ["--bandwidth-nuisance", "0.15", "--bandwidth-outer", "0.25", "--seed", "4"]
    commands = {
        "explicit": ["surface", "--input", path, "--y-grid", "5", "--x-grid", "0.5:0.5:4"],
        "flat": ["surface", "--input", flat, "--y-grid", "5", "--x-grid", "4"],
        "cqte": ["cqte", "--input", path, "--alphas", "0.1,0.5,0.9", "--x-grid", "0.5:0.5:4"],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        assert main([*argv, "--out", str(out), *flags]) == 0
        assert rows.pop() == 1 and not rows
        if name == "cqte":
            lines = (out / "cqte.csv").read_text().splitlines()[1:]
            taus = {}
            for line in lines:
                alpha, x, tau = line.split(",")
                assert x == "0.5"
                taus.setdefault(alpha, set()).add(tau)
            assert len(lines) == 12 and [len(t) for t in taus.values()] == [1, 1, 1]
        else:
            header, *lines = (out / "surface.csv").read_text().splitlines()
            assert header == "y,0.5,0.5,0.5,0.5" and len(lines) == 5
            assert all(len(set(line.split(",")[1:])) == 1 for line in lines)


@pytest.mark.parametrize("seed", [0, 7, 13])
def test_outcome_scaling_by_a_power_of_two_scales_surface_and_cqte_exactly(tmp_path, seed):
    # Scaling the y column by 2^k leaves every indicator, weight and CDF value
    # unchanged and scales the grid, the data's range and linspace exactly, so
    # the y axis and every cell scale by 2^k; the x and alpha columns keep
    # their bits. An explicit y axis is scaled with the data.
    data = sample_dgp(DgpSpec("illustrative", gamma=2.0), 300, seed)
    flags = ["--bandwidth-nuisance", "0.15", "--bandwidth-outer", "0.25", "--seed", str(seed),
             "--x-grid", "4"]

    def tables(scale):
        path = str(tmp_path / f"data-{scale!r}.csv")
        write_dataset_csv(Dataset(data.y * scale, data.x, data.a), path)
        commands = {
            "surface-n": ["surface", "--y-grid", "7"],
            "surface-explicit": ["surface", f"--y-grid={-scale!r}:{2.0 * scale!r}:7"],
            "cqte": ["cqte", "--alphas", "0.1,0.5,0.9"],
        }
        out = {}
        for name, argv in commands.items():
            target = tmp_path / f"{name}-{scale!r}"
            assert main([*argv, "--input", path, "--out", str(target), *flags]) == 0
            csv_path = target / ("cqte.csv" if name == "cqte" else "surface.csv")
            header = csv_path.read_text().splitlines()[0]
            out[name] = header, np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        return out

    base = tables(1.0)
    for k in (1, -2, 3):
        scale = 2.0**k
        for name, (header, table) in tables(scale).items():
            fixed = 2 if name == "cqte" else 0  # the alpha and x columns
            assert header == base[name][0]  # a surface header holds the x values
            assert table[:, :fixed].tobytes() == base[name][1][:, :fixed].tobytes()
            assert table[:, fixed:].tobytes() == (base[name][1][:, fixed:] * scale).tobytes()


def descending_profiles(self, y0s, grid, xs):
    return np.tile(np.linspace(1.0, -1.0, np.size(grid)), (np.size(y0s), 1))


@pytest.mark.parametrize("pseudo, code", [("ipw", 3), ("dr", 0)])
def test_cli_asserts_monotone_profiles_for_ipw_only(tmp_path, capsys, monkeypatch, pseudo, code):
    # Each replicate's profile descends; ContrastFit.profile_many, which holds
    # the check, averages them.
    monkeypatch.setattr(_ContrastReplicate, "profile_many", descending_profiles)
    path = synthetic_csv(tmp_path, n=200)
    argv = ["surface", "--input", path, "--out", str(tmp_path), "--y-grid", "3", "--x-grid", "2"]
    assert main([*argv, "--pseudo", pseudo]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("numerical failure:") and err.count("\n") == 1


def test_a_bug_stops_simulate_with_one_line_numerical_failure(tmp_path, capsys, monkeypatch):
    # A descending IPW profile raises AssertionError, which simulate does not
    # record as a failed replication.
    monkeypatch.setattr(_ContrastReplicate, "profile_many", descending_profiles)
    assert main(simulate_args(tmp_path, **{"--estimators": "ipw"})) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: IPW contrast profile") and err.count("\n") == 1
    assert not (tmp_path / "errors.csv").exists()


def test_out_of_memory_is_one_line_numerical_failure(tmp_path, capsys, monkeypatch):
    def fit_cqc(*args):
        raise MemoryError("Unable to allocate 6.71 GiB for an array with shape (30000, 30000)")

    monkeypatch.setattr("cqcbench.cli.fit_cqc", fit_cqc)
    path = synthetic_csv(tmp_path, n=60)
    assert main(["surface", "--input", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: Unable to allocate") and err.count("\n") == 1
    assert not (tmp_path / "surface.csv").exists()


def test_surface_and_cqte_leave_scipy_unloaded(tmp_path):
    # Only the simulation truths need scipy.special, whose import takes longer
    # than a small surface fit.
    path = synthetic_csv(tmp_path, n=200)
    common = ["--input", path, "--out", str(tmp_path), "--x-grid", "3"]
    code = (
        "import sys\n"
        "from cqcbench.cli import main\n"
        f"assert main({['surface', *common, '--y-grid', '3']!r}) == 0\n"
        f"assert main({['cqte', *common]!r}) == 0\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "sys.exit(f'scipy loaded: {loaded}' if loaded else 0)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "surface.csv").exists() and (tmp_path / "cqte.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "bandwidth, code, prefix, family",
    [("1e-200", 1, "config error:", "illustrative"),
     ("1e-155", 3, "numerical failure:", "illustrative"),
     ("1e-155", 3, "numerical failure:", "tendim")],
    ids=["1e-200-1-config error:", "1e-155-3-numerical failure:", "d10-1e-155"],
)
def test_tiny_outer_bandwidth_is_one_line_error(tmp_path, capsys, bandwidth, code, prefix,
                                                family):
    # 1e-200 squares to 0; at 1e-155 every kernel weight underflows to 0. The
    # message names the query point, on one line even with ten coordinates.
    path = synthetic_csv(tmp_path, family=family, n=200)
    argv = ["surface", "--input", path, "--out", str(tmp_path), "--bandwidth-outer", bandwidth]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def test_simulate_failure_messages_are_one_line_at_d_10(tmp_path):
    # No box-kernel mass at any tendim query point, even after the retry.
    argv = simulate_args(tmp_path, **{"--dgp": "tendim", "--n": "200", "--kernel": "box",
                                      "--bandwidth-nuisance": "1e-6",
                                      "--bandwidth-outer": "1e-6"})
    assert main(argv) == 0
    header, *rows = (tmp_path / "failures.csv").read_text().splitlines()
    assert header == "estimator,replication,seed,error,message" and len(rows) == 4
    assert all(',DegenerateMassError,"no kernel mass at query point array([' in row
               for row in rows)


def overflow_csv(tmp_path):
    # Outcomes near +-1.7e308 by arm, so every treated-minus-untreated gap and
    # the outcome range overflow.
    rng = np.random.default_rng(0)
    x1 = rng.uniform(0.0, 1.0, 200)
    a = (rng.uniform(size=200) < 0.5).astype(int)
    y = np.where(a == 1, 1.7e308, -1.7e308) * rng.uniform(0.9, 1.0, 200)
    path = str(tmp_path / "overflow.csv")
    write_dataset_csv(Dataset(y, x1, a), path)
    return path


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", [
    ["cqte", "--x-grid", "0:1:3"],
    ["surface", "--y-grid=-1.7e308:-1.7e308:1", "--x-grid", "0:1:3"],
])
def test_overflowing_gap_is_one_line_numerical_failure(tmp_path, capsys, argv):
    path = overflow_csv(tmp_path)
    assert main([*argv, "--input", path, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: non-finite output value") and err.count("\n") == 1
    assert not (tmp_path / f"{argv[0]}.csv").exists()


@pytest.mark.filterwarnings("error")
def test_overflowing_outcome_range_of_a_uniform_grid_is_one_line_data_error(tmp_path, capsys):
    path = overflow_csv(tmp_path)
    argv = ["surface", "--grid", "uniform:5", "--x-grid", "0:1:3", "--input", path,
            "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "the outcome range overflows" in err
    assert err.count("\n") == 1


def straddling_csv(tmp_path, column):
    # Untreated outcomes (column "y") or covariates ("x1") near +-1.7e308 with
    # both signs, so that column's range overflows.
    rng = np.random.default_rng(0)
    a = (rng.uniform(size=200) < 0.5).astype(int)
    big = rng.choice([-1.7e308, 1.7e308], 200) * rng.uniform(0.9, 1.0, 200)
    y, x1 = rng.normal(size=200), rng.uniform(0.0, 1.0, 200)
    if column == "y":
        y = np.where(a == 0, big, y)
    else:
        x1 = big
    path = str(tmp_path / f"straddling_{column}.csv")
    write_dataset_csv(Dataset(y, x1, a), path)
    return path


@pytest.mark.filterwarnings("error")
def test_outcome_range_that_overflows_the_default_y_axis_is_config_error(tmp_path, capsys):
    path = straddling_csv(tmp_path, "y")
    assert main(["surface", "--input", path, "--out", str(tmp_path), "--x-grid", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the data's range overflows") and err.count("\n") == 1


@pytest.mark.parametrize("command, column", [("surface", "y"), ("surface", "x1"), ("cqte", "x1")])
def test_overflowing_default_axis_stops_before_the_fit(tmp_path, capsys, monkeypatch, command, column):
    def no_fit(*args):
        raise AssertionError("the estimator was fitted")

    monkeypatch.setattr(cli, "fit_cqc", no_fit)
    path = straddling_csv(tmp_path, column)
    assert main([command, "--input", path, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: the data's range overflows") and err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--bandwidth-nuisance", "--bandwidth-outer"])
def test_bandwidth_whose_square_overflows_is_config_error(tmp_path, capsys, flag):
    path = synthetic_csv(tmp_path, n=200)
    assert main(["surface", "--input", path, "--out", str(tmp_path), flag, "1e200"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert not (tmp_path / "surface.csv").exists()


def test_cqte_alpha_out_of_range(tmp_path):
    path = synthetic_csv(tmp_path)
    assert main(["cqte", "--input", path, "--alphas", "0.5,1.5"]) == 1
    assert main(["cqte", "--input", path, "--alphas", ""]) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = write(
        tmp_path / "run.cfg",
        "dgp = illustrative\ngamma = 2.0\nn = 120\nreplications = 2\n"
        f"holdout = 40\nseed = 3\nestimators = separate\nout = {tmp_path}\n"
        "bandwidth_nuisance = 0.1\nbandwidth_outer = 0.15\n",
    )
    assert main(["simulate", "--config", cfg]) == 0
    first = (tmp_path / "errors.csv").read_text()
    assert first.strip().splitlines()[1].startswith("separate,")
    # flag overrides the file's estimator list
    assert main(["simulate", "--config", cfg, "--estimators", "dr"]) == 0
    second = (tmp_path / "errors.csv").read_text()
    assert second.strip().splitlines()[1].startswith("dr,")


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("CQCBENCH_OUT_DIR", str(tmp_path / "envout"))
    argv = simulate_args(tmp_path, **{"--out": None})
    assert main(argv) == 0
    assert (tmp_path / "envout" / "errors.csv").exists()


def test_empty_out_dir_env_var_means_unset(tmp_path, monkeypatch):
    monkeypatch.setenv("CQCBENCH_OUT_DIR", "")
    monkeypatch.chdir(tmp_path)
    argv = simulate_args(tmp_path, **{"--out": None})
    assert main(argv) == 0
    assert (tmp_path / "errors.csv").exists()


def test_outputs_written_atomically(tmp_path):
    assert main(simulate_args(tmp_path)) == 0
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".tmp-")]
    assert leftovers == []


def test_atomic_write_onto_a_directory_is_config_error_and_leaves_no_temporary_file(tmp_path):
    (tmp_path / "surface.csv").mkdir()
    with pytest.raises(ConfigError, match="cannot write"):
        _atomic_write(str(tmp_path / "surface.csv"), "y\n")
    assert os.listdir(tmp_path) == ["surface.csv"]

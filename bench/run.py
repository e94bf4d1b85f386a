"""cqcbench benchmark: timed passes over one workload, checked outputs, metrics.

Run from the repository root:

    python3 bench/run.py --workload simulate-illustrative --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload csv-surface-cqte --seed 1 --seconds 20 --trace 1
    python3 bench/run.py --write-manifest      # regenerate BENCHMARK.json

One process imports ``cqcbench`` from ``src/``, builds the workload's inputs
from the seed and repeats identical passes back to back (a closed loop with
one client) for ``--seconds``. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics from traced passes interleaved with
untraced ones. Both modes check the outputs and print one JSON result as the
last line of standard output; the exit code is 0 only when every check
passes. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

RUN_SECONDS = 25
SETUP_REPEATS = 5
MIN_PASSES = 3  # per kind (untraced, traced) that a mode times
ACCOUNTING_TOL_S = 1e-6

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.15},
    {"name": "ok_frac", "unit": "fraction", "better": "higher", "bound": 0.01},
    {"name": "mae", "unit": "y_units", "better": "lower", "bound": 0.25},
]

PER_LAYER = [
    {"name": "isotonic.pava.calls", "unit": "count", "better": "lower"},
    {"name": "isotonic.pava.s", "unit": "s", "better": "lower"},
    {"name": "isotonic.pava.elems", "unit": "count", "better": "lower"},
    {"name": "isotonic.pava.pooled_frac", "unit": "fraction", "better": "lower"},
    {"name": "nuisance.cdf_table.calls", "unit": "count", "better": "lower"},
    {"name": "nuisance.cdf_table.s", "unit": "s", "better": "lower"},
    {"name": "nuisance.cdf_table.cells", "unit": "count", "better": "lower"},
    {"name": "nuisance.cdf_table.indicator_bytes", "unit": "computed_bytes", "better": "lower"},
    {"name": "nuisance.propensity.s", "unit": "s", "better": "lower"},
    {"name": "nuisance.propensity.clipped_frac", "unit": "fraction", "better": "lower"},
    {"name": "kernels.weight_matrix.calls", "unit": "count", "better": "lower"},
    {"name": "kernels.weight_matrix.s", "unit": "s", "better": "lower"},
    {"name": "kernels.weight_matrix.pairs", "unit": "count", "better": "lower"},
    {"name": "kernels.weight_matrix.retry_rows", "unit": "count", "better": "lower"},
    {"name": "kernels.sqdist.bytes", "unit": "computed_bytes", "better": "lower"},
    {"name": "estimator.fit.s", "unit": "s", "better": "lower"},
    {"name": "estimator.profile.s", "unit": "s", "better": "lower"},
    {"name": "estimator.profile.cells", "unit": "count", "better": "lower"},
    {"name": "estimator.invert.s", "unit": "s", "better": "lower"},
    {"name": "estimator.boundary_frac", "unit": "fraction", "better": "lower"},
    {"name": "baselines.dr.s", "unit": "s", "better": "lower"},
    {"name": "baselines.ipw.s", "unit": "s", "better": "lower"},
    {"name": "baselines.separate.s", "unit": "s", "better": "lower"},
    {"name": "baselines.oracle.s", "unit": "s", "better": "lower"},
    {"name": "simlab.sample.s", "unit": "s", "better": "lower"},
    {"name": "simlab.exact_cdf.s", "unit": "s", "better": "lower"},
    {"name": "simlab.replications", "unit": "count", "better": "higher"},
    {"name": "simlab.failures", "unit": "count", "better": "lower"},
    {"name": "cli.ingest.s", "unit": "s", "better": "lower"},
    {"name": "cli.ingest.rows", "unit": "count", "better": "higher"},
    {"name": "cli.command.s", "unit": "s", "better": "lower"},
    *({"name": f"layer.{layer}.s", "unit": "s", "better": "lower"}
      for layer in ("isotonic", "kernels", "nuisance", "estimator", "baselines", "simlab", "cli",
                    "untraced")),
    {"name": "trace.pass_s", "unit": "s", "better": "lower"},
    {"name": "trace.overhead_s", "unit": "s", "better": "lower"},
]


def manifest(workloads) -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def configure_blas() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        threads = int(current) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(min(threads, nproc))
    return nproc


def import_cqcbench():
    """Import the package from this checkout's src/ and return its modules."""
    import importlib
    from types import SimpleNamespace

    sys.path.insert(0, str(SRC))
    package = importlib.import_module("cqcbench")
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"cqcbench imported from {package.__file__}, not from {SRC}")
    names = ("isotonic", "kernels", "nuisance", "pseudo", "estimator", "baselines", "simlab", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"cqcbench.{n}") for n in names})


def timed_setups(workload: str, seed: int, workdir: Path) -> list[float]:
    """Wall times of fresh interpreters that import cqcbench and build the inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        child_dir = workdir / f"setup{k}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", workload, "--seed", str(seed), "--workdir", str(child_dir)]
        start = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def one_pass(w, modules, traced: bool):
    """Run one pass; return (wall seconds, raw result, spans or None)."""
    if not traced:
        start = time.perf_counter()
        raw = w.run()
        return time.perf_counter() - start, raw, None
    import layers
    from spans import Tracer

    tracer = Tracer()
    with layers.install(tracer, modules):
        raw = tracer.call(layers.ROOT_SPAN, w.run, (), {})
    return tracer.spans[0].duration, raw, tracer.spans


def same_output(a, b) -> bool:
    if isinstance(a, bytes) or isinstance(b, bytes):
        return a == b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class Run:
    """State of one benchmark run: passes made, their checks and timings."""

    def __init__(self, w, modules):
        self.w, self.modules = w, modules
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.reference = None  # outcome of the first completed pass
        self.plain_walls: list[float] = []
        self.traced_walls: list[float] = []
        self.layer_runs: list[dict] = []  # per-layer metrics of timed traced passes
        self.warmup_layers: dict | None = None

    def make_pass(self, traced: bool, timed: bool = True):
        label = f"pass {self.attempted // self.w.ops + 1} ({'traced' if traced else 'untraced'})"
        self.attempted += self.w.ops
        try:
            wall, raw, spans = one_pass(self.w, self.modules, traced)
        except Exception as exc:  # a failed pass is counted and reported, not fatal
            self.failed += self.w.ops
            self.problems.append(f"{label} raised {exc!r}")
            return
        outcome = self.w.evaluate(raw)
        self.failed += outcome.failed
        self.problems += [f"{label}: {p}" for p in outcome.problems]
        if self.reference is None:
            self.reference = outcome
        for key, value in self.reference.outputs.items():
            if not same_output(value, outcome.outputs[key]):
                self.problems.append(f"{label}: {key} differs from the first pass")
        metrics = self._check_spans(label, spans) if traced else None
        if not timed:
            self.warmup_layers = metrics
        elif traced:
            self.traced_walls.append(wall)
            self.layer_runs.append(metrics)
        else:
            self.plain_walls.append(wall)

    def _check_spans(self, label, spans) -> dict:
        import layers

        fired = layers.fired(spans)
        if fired != self.w.spans:
            self.problems.append(f"{label}: spans missing {sorted(self.w.spans - fired)}, "
                                 f"unexpected {sorted(fired - self.w.spans)}")
        metrics = layers.layer_metrics(spans)
        accounted = sum(metrics[f"layer.{layer}.s"] for layer in (*layers.LAYERS, "untraced"))
        if abs(accounted - metrics["trace.pass_s"]) > ACCOUNTING_TOL_S:
            self.problems.append(f"{label}: layer self times sum to {accounted!r}, "
                                 f"pass took {metrics['trace.pass_s']!r}")
        return metrics

    def layer_medians(self) -> dict:
        names = self.layer_runs[0].keys()
        out = {name: statistics.median(run[name] for run in self.layer_runs) for name in names}
        out["trace.overhead_s"] = statistics.median(self.traced_walls) - statistics.median(self.plain_walls)
        return out


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": nproc,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def measure(args, nproc: int) -> int:
    import layers
    import workloads

    workdir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = timed_setups(args.workload, args.seed, workdir)
        modules = import_cqcbench()
        w = workloads.WORKLOADS[args.workload](modules, args.seed, str(workdir / "main"))
        run = Run(w, modules)
        # An untimed traced pass first: it fills caches before timing starts,
        # and every later pass must reproduce its outputs, so tracing is shown
        # not to change them.
        run.make_pass(traced=True, timed=False)
        deadline = time.perf_counter() + args.seconds
        while True:
            run.make_pass(traced=bool(args.trace) and len(run.plain_walls) > len(run.traced_walls))
            timed_enough = len(run.plain_walls) >= MIN_PASSES and (
                not args.trace or len(run.traced_walls) >= MIN_PASSES)
            if time.perf_counter() >= deadline and (timed_enough or run.failed):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if run.reference is None or not run.plain_walls or (args.trace and not run.layer_runs):
            print("no pass completed:\n" + "\n".join(run.problems), file=sys.stderr)
            return 1
        info = {"workload": w.name, "seed": args.seed, "trace": args.trace,
                "sizes": w.sizes(run.reference), "environment": environment(nproc),
                "setup_runs_s": setup_times, "untraced_pass_s": run.plain_walls,
                "traced_pass_s": run.traced_walls}
        info.update(run.reference.info)
        if hasattr(w, "seed_check"):
            replay, seed_info = w.seed_check(run.reference)
            run.attempted += replay.ops
            run.failed += replay.failed
            run.problems += [f"seed check: {p}" for p in replay.problems]
            info.update(seed_info)
        shares = run.layer_medians() if run.layer_runs else run.warmup_layers
        if shares:
            info["layer_share"] = {layer: shares[f"layer.{layer}.s"] / shares["trace.pass_s"]
                                   for layer in (*layers.LAYERS, "untraced")}
            info["dominant_layer"] = max(layers.LAYERS, key=lambda layer: info["layer_share"][layer])
            info["largest_sqdist_tensor_mb_computed"] = shares["kernels.sqdist.bytes"] / 2**20
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = run.layer_medians()
        units = {m["name"]: m["unit"] for m in PER_LAYER}
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": statistics.median(w.ops / wall for wall in run.plain_walls),
            "wall_s": statistics.median(run.plain_walls),
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (run.attempted - run.failed) / run.attempted,
            "mae": run.reference.mae,
        }
        units = {m["name"]: m["unit"] for m in END_TO_END}
    correct = not run.problems and run.failed == 0
    print(json.dumps({"info": info}))
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    if info.get("seed_collision"):
        print(f"FLAG: seeds {args.seed} and {info['verification_seed']} replay the same "
              f"replication datasets (base_seed ^ r): {info['replication_seeds']}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(result_line(correct, run.attempted, run.failed, metrics, units))
    return 0 if correct else 1


def result_line(correct: bool, attempted: int, failed: int, metrics: dict, units: dict) -> str:
    """The JSON object printed as the last line of standard output."""
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = configure_blas()
    import workloads

    if args.write_manifest:
        text = json.dumps(manifest(workloads.WORKLOADS.values()), indent=2) + "\n"
        (ROOT / "BENCHMARK.json").write_text(text)
        return 0
    if args.workload not in workloads.WORKLOADS:
        print(f"--workload must be one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not (SRC / "cqcbench" / "__init__.py").is_file():
        print(f"no cqcbench sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        workloads.WORKLOADS[args.workload](import_cqcbench(), args.seed, args.workdir)
        return 0
    return measure(args, nproc)


if __name__ == "__main__":
    sys.exit(main())

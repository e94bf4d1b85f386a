"""Unit tests of the benchmark's own code: span arithmetic, patching, metric names.

Run from the repository root with ``python3 -m pytest bench -q``.
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Patches, Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _spans(*rows):
    return [Span(name, start, end, parent, counts or {}) for name, start, end, parent, counts in rows]


def test_self_time_subtracts_direct_children_only():
    spans = _spans(
        ("pass", 0.0, 10.0, None, None),
        ("a", 1.0, 4.0, 0, None),
        ("a.inner", 2.0, 3.0, 1, None),
        ("b", 5.0, 9.0, 0, None),
    )
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == spans[0].duration


def test_self_time_counts_overlapping_children_once():
    spans = _spans(
        ("p", 0.0, 10.0, None, None),
        ("c1", 1.0, 5.0, 0, None),
        ("c2", 4.0, 12.0, 0, None),  # overlaps c1 and runs past the parent's end
    )
    assert self_times(spans)[0] == pytest.approx(1.0)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_parents_and_counts():
    tracer = Tracer(clock=_FakeClock())
    leaf = tracer.wrap("leaf", lambda x: x * 2, counter=lambda args, kwargs, result: {"n": result})
    outer = tracer.wrap("outer", lambda: leaf(3) + leaf(4))
    assert tracer.call("pass", outer, (), {}) == 14
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("pass", None), ("outer", 0), ("leaf", 1), ("leaf", 1)]
    assert [s.counts for s in tracer.spans[2:]] == [{"n": 6}, {"n": 8}]
    assert sum(self_times(tracer.spans)) == tracer.spans[0].duration


def test_patches_rebind_every_import_and_restore(monkeypatch):
    def original():
        return "original"

    defining = types.ModuleType("fakepkg.defining")
    importer = types.ModuleType("fakepkg.importer")
    outsider = types.ModuleType("otherpkg")
    for module in (defining, importer, outsider):
        module.f = original
        monkeypatch.setitem(sys.modules, module.__name__, module)
    with Patches() as patches:
        assert patches.replace_everywhere("fakepkg", original, lambda: "patched") == 2
        assert defining.f() == importer.f() == "patched"
        assert outsider.f() == "original"
    assert defining.f is importer.f is original


def test_layer_metrics_from_synthetic_spans():
    spans = _spans(
        ("pass", 0.0, 10.0, None, None),
        ("estimator.invert", 1.0, 6.0, 0, {"queries": 4, "boundary": 1}),
        ("isotonic.pava", 2.0, 3.0, 1, {"elems": 10, "pooled": 4}),
        ("kernels.weight_matrix", 6.0, 8.0, 0, {"pairs": 6, "sqdist_bytes": 48}),
        ("kernels.resolve", 7.0, 7.5, 3, None),
        ("kernels.resolve", 8.5, 9.0, 0, None),
        ("baselines.dr", 9.0, 9.5, 0, None),
    )
    m = layers.layer_metrics(spans)
    assert m["isotonic.pava.calls"] == 1
    assert m["isotonic.pava.pooled_frac"] == 0.4
    assert m["estimator.invert.s"] == 4.0
    assert m["estimator.boundary_frac"] == 0.25
    assert m["kernels.weight_matrix.s"] == 1.5
    assert m["kernels.weight_matrix.retry_rows"] == 1
    assert m["kernels.sqdist.bytes"] == 48
    assert m["layer.kernels.s"] == 2.5
    assert m["layer.untraced.s"] == 2.0
    assert m["trace.pass_s"] == 10.0
    assert sum(m[f"layer.{name}.s"] for name in (*layers.LAYERS, "untraced")) == 10.0


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    declared = [metric["name"] for metric in run.PER_LAYER]
    produced = list(layers.layer_metrics(_spans(("pass", 0.0, 1.0, None, None)))) + ["trace.overhead_s"]
    assert sorted(produced) == sorted(declared)


def test_manifest_obeys_the_benchmark_contract():
    spec = run.manifest(workloads.WORKLOADS.values())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    names = [w["name"] for w in spec["workloads"]]
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["better"] in ("higher", "lower") and UNIT.fullmatch(metric["unit"])
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_committed_benchmark_json_matches_the_manifest():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == run.manifest(workloads.WORKLOADS.values())


def test_result_line_shape():
    units = {m["name"]: m["unit"] for m in run.END_TO_END}
    metrics = {name: 1.5 for name in units}
    line = run.result_line(True, 10, 0, metrics, units)
    assert "\n" not in line
    result = json.loads(line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    for name, entry in result["metrics"].items():
        assert entry == {"value": 1.5, "unit": units[name]}


@pytest.fixture(scope="module")
def cqcbench():
    return run.import_cqcbench()


def test_install_patches_from_imports_and_restores(cqcbench):
    m = cqcbench

    def bindings():
        return {
            "estimator.pava_project": m.estimator.pava_project,
            "nuisance.nw_weight_matrix": m.nuisance.nw_weight_matrix,
            "estimator.nw_weight_matrix": m.estimator.nw_weight_matrix,
            "simlab.nw_weight_matrix": m.simlab.nw_weight_matrix,
            "CcdfEvaluator.cdf_table": m.nuisance.CcdfEvaluator.cdf_table,
            "ContrastFit.profile_many": m.estimator.ContrastFit.profile_many,
        }

    originals = bindings()
    with layers.install(Tracer(), m):
        patched = bindings()
        assert all(patched[key] is not value for key, value in originals.items())
    assert bindings() == originals


def test_traced_fit_fires_the_estimator_layers(cqcbench):
    m = cqcbench
    spec = m.simlab.DgpSpec("illustrative", gamma=6.0)
    data = m.simlab.sample_dgp(spec, 120, seed=5)
    hold_y, hold_x = m.simlab.sample_holdout(spec, 4, seed=6)
    kernel = m.kernels.KernelSpec("gaussian", 0.1)
    estimator = m.baselines.DrEstimator(kernel, kernel, cross_fit=True)
    plain = estimator.fit(data, 5)(hold_y, hold_x)
    tracer = Tracer()
    with layers.install(tracer, m):
        traced = tracer.call(layers.ROOT_SPAN, lambda: estimator.fit(data, 5)(hold_y, hold_x), (), {})
    assert traced.tobytes() == plain.tobytes()
    assert layers.fired(tracer.spans) == {
        "baselines.dr", "estimator.fit", "estimator.profile", "estimator.invert",
        "isotonic.pava", "kernels.weight_matrix", "nuisance.cdf_table", "nuisance.propensity",
    }
    metrics = layers.layer_metrics(tracer.spans)
    assert metrics["isotonic.pava.calls"] == 4
    assert metrics["estimator.profile.cells"] == metrics["isotonic.pava.elems"]

"""Which cqcbench functions are timed as layer spans, and the per-layer metrics.

The layers are the package modules. Each entry below names a public function
or method of one module; a traced pass replaces it, at every binding, with a
wrapper that records a span. Spans are reduced to per-layer metrics after the
pass. Byte counts are computed from array shapes, not measured.
"""

from __future__ import annotations

import numpy as np

from spans import Patches, Tracer, self_times

PACKAGE = "cqcbench"
LAYERS = ("isotonic", "kernels", "nuisance", "estimator", "baselines", "simlab", "cli")
ESTIMATOR_NAMES = ("dr", "ipw", "separate", "oracle")
ROOT_SPAN = "pass"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _pava_counts(args, kwargs, result):
    values = np.asarray(_arg(args, kwargs, 0, "values"), dtype=float)
    return {"elems": values.size, "pooled": int(np.count_nonzero(result.projected != values))}


def _weight_counts(args, kwargs, result):
    train = np.shape(_arg(args, kwargs, 2, "train_xs"))
    d = train[1] if len(train) == 2 else 1
    m, n = result.shape
    return {"pairs": m * n, "sqdist_bytes": m * n * d * 8}


def _cdf_counts(args, kwargs, result):
    ccdf, arm = args[0], _arg(args, kwargs, 1, "arm")
    return {
        "cells": result.size,
        "indicator_bytes": ccdf.arm_outcomes(arm).size * result.shape[1] * 8,
    }


def _propensity_counts(args, kwargs, result):
    xi = args[0].xi
    return {"evals": result.size, "clipped": int(np.count_nonzero((result <= xi) | (result >= 1.0 - xi)))}


def _profile_counts(args, kwargs, result):
    return {"cells": result.size}


def _invert_counts(args, kwargs, result):
    p = np.size(_arg(args, kwargs, 1, "grid"))
    indices = result[1]
    return {"queries": indices.size, "boundary": int(np.count_nonzero((indices == 0) | (indices == p - 1)))}


def _experiment_counts(args, kwargs, result):
    return {"replications": result.replications, "failures": sum(row.failures for row in result.results)}


def _ingest_counts(args, kwargs, result):
    return {"rows": result.n}


# (span name, module, function name, counter)
FUNCTIONS = (
    ("isotonic.pava", "isotonic", "pava_project", _pava_counts),
    ("kernels.weight_matrix", "kernels", "nw_weight_matrix", _weight_counts),
    ("kernels.resolve", "kernels", "resolve_weights", None),
    ("estimator.fit", "estimator", "fit_contrast", None),
    ("estimator.fit", "estimator", "cross_fit_contrast", None),
    ("estimator.fit", "estimator", "fit_oracle_contrast", None),
    ("estimator.invert", "estimator", "estimate_cqc_many", _invert_counts),
    ("simlab.sample", "simlab", "sample_dgp", None),
    ("simlab.sample", "simlab", "sample_holdout", None),
    ("simlab.experiment", "simlab", "run_experiment", _experiment_counts),
    ("cli.ingest", "cli", "ingest_csv", _ingest_counts),
    ("cli.command", "cli", "main", None),
)

# (span name, module, class, method, counter); patched on the class.
METHODS = (
    ("nuisance.cdf_table", "nuisance", "CcdfEvaluator", "cdf_table", _cdf_counts),
    ("nuisance.propensity", "nuisance", "PropensityEvaluator", "many", _propensity_counts),
    ("estimator.profile", "estimator", "ContrastFit", "profile_many", _profile_counts),
    ("simlab.exact_cdf", "simlab", "ExactCcdf", "cdf_table", None),
)

# Estimator classes whose ``fit`` is timed, together with the predictor it
# returns, as ``baselines.<estimator name>``. IpwEstimator inherits
# DrEstimator.fit.
ESTIMATOR_CLASSES = ("DrEstimator", "SeparateEstimator", "OracleEstimator")


def _traced_fit(tracer: Tracer, fit):
    def traced(estimator, *args, **kwargs):
        name = f"baselines.{estimator.name}"
        predictor = tracer.call(name, fit, (estimator, *args), kwargs)
        return tracer.wrap(name, predictor)

    return traced


def install(tracer: Tracer, modules) -> Patches:
    """Patch every listed function and method; the result restores them on exit."""
    patches = Patches()
    try:
        for span, mod, func, counter in FUNCTIONS:
            original = getattr(getattr(modules, mod), func)
            if patches.replace_everywhere(PACKAGE, original, tracer.wrap(span, original, counter)) == 0:
                raise RuntimeError(f"{mod}.{func} is bound nowhere")
        for span, mod, cls_name, method, counter in METHODS:
            cls = getattr(getattr(modules, mod), cls_name)
            patches.replace_method(cls, method, tracer.wrap(span, vars(cls)[method], counter))
        for cls_name in ESTIMATOR_CLASSES:
            cls = getattr(modules.baselines, cls_name)
            patches.replace_method(cls, "fit", _traced_fit(tracer, vars(cls)["fit"]))
    except BaseException:
        patches.__exit__(None, None, None)
        raise
    return patches


def layer_of(span_name: str) -> str:
    return "untraced" if span_name == ROOT_SPAN else span_name.split(".", 1)[0]


def _frac(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass whose root span is ``ROOT_SPAN``."""
    selfs = self_times(spans)
    calls, self_s, total_s, counts = {}, {}, {}, {}
    retry_rows = 0
    for span, own in zip(spans, selfs):
        name = span.name
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + span.duration
        bucket = counts.setdefault(name, {})
        for key, value in span.counts.items():
            if key.endswith("_bytes"):
                bucket[key] = max(bucket.get(key, 0), value)  # largest single call
            else:
                bucket[key] = bucket.get(key, 0) + value
        if name == "kernels.resolve" and span.parent is not None:
            retry_rows += spans[span.parent].name == "kernels.weight_matrix"

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    out = {
        "isotonic.pava.calls": calls.get("isotonic.pava", 0),
        "isotonic.pava.s": self_s.get("isotonic.pava", 0.0),
        "isotonic.pava.elems": count("isotonic.pava", "elems"),
        "isotonic.pava.pooled_frac": _frac(count("isotonic.pava", "pooled"), count("isotonic.pava", "elems")),
        "nuisance.cdf_table.calls": calls.get("nuisance.cdf_table", 0),
        "nuisance.cdf_table.s": self_s.get("nuisance.cdf_table", 0.0),
        "nuisance.cdf_table.cells": count("nuisance.cdf_table", "cells"),
        "nuisance.cdf_table.indicator_bytes": count("nuisance.cdf_table", "indicator_bytes"),
        "nuisance.propensity.s": self_s.get("nuisance.propensity", 0.0),
        "nuisance.propensity.clipped_frac": _frac(
            count("nuisance.propensity", "clipped"), count("nuisance.propensity", "evals")
        ),
        "kernels.weight_matrix.calls": calls.get("kernels.weight_matrix", 0),
        "kernels.weight_matrix.s": self_s.get("kernels.weight_matrix", 0.0),
        "kernels.weight_matrix.pairs": count("kernels.weight_matrix", "pairs"),
        "kernels.weight_matrix.retry_rows": retry_rows,
        "kernels.sqdist.bytes": count("kernels.weight_matrix", "sqdist_bytes"),
        "estimator.fit.s": self_s.get("estimator.fit", 0.0),
        "estimator.profile.s": self_s.get("estimator.profile", 0.0),
        "estimator.profile.cells": count("estimator.profile", "cells"),
        "estimator.invert.s": self_s.get("estimator.invert", 0.0),
        "estimator.boundary_frac": _frac(count("estimator.invert", "boundary"), count("estimator.invert", "queries")),
    }
    for est in ESTIMATOR_NAMES:  # fit + predict, children included
        out[f"baselines.{est}.s"] = total_s.get(f"baselines.{est}", 0.0)
    out.update({
        "simlab.sample.s": self_s.get("simlab.sample", 0.0),
        "simlab.exact_cdf.s": self_s.get("simlab.exact_cdf", 0.0),
        "simlab.replications": count("simlab.experiment", "replications"),
        "simlab.failures": count("simlab.experiment", "failures"),
        "cli.ingest.s": self_s.get("cli.ingest", 0.0),
        "cli.ingest.rows": count("cli.ingest", "rows"),
        "cli.command.s": total_s.get("cli.command", 0.0),  # whole command, children included
    })
    by_layer = dict.fromkeys((*LAYERS, "untraced"), 0.0)
    for name, seconds in self_s.items():
        by_layer[layer_of(name)] += seconds
    for layer, seconds in by_layer.items():
        out[f"layer.{layer}.s"] = seconds
    out["trace.pass_s"] = total_s.get(ROOT_SPAN, 0.0)
    return out


def fired(spans) -> set:
    return {span.name for span in spans} - {ROOT_SPAN}

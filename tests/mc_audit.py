"""Rerun each seeded Monte-Carlo assertion of the test suite at other base seeds.

A seeded Monte-Carlo assertion compares a random draw's statistic with a
bound. Passing at the test's own seed shows little unless it passes at most
other seeds too. Each such test computes its margins in one helper beside it
(see ``margins.py``); this script calls the same helper at ``COUNT`` other
base seeds (100 for the gamma tests) and writes each assertion's pass rate
and margins to ``mc_audit.json``. A margin is how far a compared quantity
clears its bound, in the quantity's units; a pass needs the test's own
comparison to hold for every margin.

Other base seeds do not share a dataset with the test's own or with each
other. A test that draws from seeds ``base`` to ``base + span - 1``, or from
``base ^ r`` for ``r < span`` (``run_experiment``'s replications), gets the
bases ``base + k * 2**m`` for k = 1..COUNT, where 2**m is the smallest power
of two no smaller than the span. The gamma tests use the bases 1 + 97k.

Not audited, because they hold for every draw: PAVA's exactness and
contraction laws (criterion 2), determinism (criterion 9), support and
clipping bounds, and the cross-fit's triangle inequality.

Tier-1 does not collect this file (it has no ``test_`` prefix). Run it from
the repository root, for about 13 minutes on two cores::

    PYTHONPATH=src python tests/mc_audit.py   # writes tests/mc_audit.json

To audit one test, call ``run(test_id)`` from Python with ``tests`` on the path.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import test_acceptance  # noqa: E402
import test_cli  # noqa: E402
import test_estimator  # noqa: E402
import test_pseudo  # noqa: E402
import test_simlab  # noqa: E402
from margins import holds  # noqa: E402

COUNT = 20
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mc_audit.json")
GAMMA_BASES = [1 + 97 * k for k in range(100)]

# test id -> (margins helper, span of seeds one base draws from, bases or None)
AUDITS = {
    "tests/test_acceptance.py::test_criterion_1_pseudo_outcome_conditionally_unbiased":
        (test_acceptance.criterion_1_margins, 1, None),
    "tests/test_acceptance.py::test_criterion_4_error_ordering_at_fixed_size":
        (test_acceptance.criterion_4_margins, 100, None),
    "tests/test_acceptance.py::test_criterion_5_error_decreases_with_sample_size":
        (test_acceptance.criterion_5_margins, 50, None),
    "tests/test_acceptance.py::test_criterion_6_gamma_robustness":
        (test_acceptance.criterion_6_margins, 50, None),
    "tests/test_acceptance.py::test_criterion_7_identity_family_sanity":
        (test_acceptance.criterion_7_margins, 4, None),
    "tests/test_acceptance.py::test_criterion_8_constant_contrast_family":
        (test_acceptance.criterion_8_margins, 5, None),
    "tests/test_pseudo.py::test_oracle_pseudo_conditionally_unbiased_quick":
        (test_pseudo.pseudo_unbiased_margins, 1, None),
    "tests/test_simlab.py::test_sample_flat_gamma_arm0_is_standard_normal":
        (test_simlab.flat_gamma_arm0_margins, 1, None),
    "tests/test_simlab.py::test_sample_treated_fraction_tracks_mean_propensity":
        (test_simlab.treated_fraction_margins, 1, None),
    "tests/test_simlab.py::test_draw_given_x_fixes_covariate":
        (test_simlab.draw_given_x_margins, 1, None),
    "tests/test_simlab.py::test_oracle_error_decreases_with_sample_size_identity_family":
        (test_simlab.oracle_error_in_n_margins, 3, None),
    "tests/test_simlab.py::test_oracle_beats_separate_at_high_gamma_for_doubling_map":
        (test_simlab.oracle_beats_separate_margins, 8, GAMMA_BASES),
    "tests/test_simlab.py::test_oracle_error_grows_with_gamma_for_doubling_map":
        (test_simlab.oracle_gamma_trend_margins, 16, GAMMA_BASES),
    # The CLI tests vary the data seed; the fit seed is the test's.
    "tests/test_cli.py::test_surface_near_zero_for_identity_map_data":
        (test_cli.surface_near_zero_margins, 1, None),
    "tests/test_cli.py::test_cqte_rows_and_flat_truth":
        (test_cli.cqte_flat_truth_margins, 1, None),
}
for _id, _args in [("illustrative", ("illustrative", 2.0, 0.25, 0.3)),
                   ("linear_cqc", ("linear_cqc", 2.0, 0.25, 0.3)),
                   ("illustrative-gamma6", ("illustrative", 6.0, 0.42, 0.46))]:
    AUDITS[f"tests/test_estimator.py::test_fitted_cqte_tracks_truth[{_id}]"] = (
        functools.partial(test_estimator.fitted_cqte_margins, *_args), 10, None)
for _args in [("illustrative", 2.0, 0.29, 0.30), ("illustrative", 6.0, 0.32, 0.53),
              ("linear_cqc", 2.0, 0.26, 0.27)]:
    AUDITS["tests/test_estimator.py::test_exact_quantile_cqte_tracks_truth_and_dr_beats_separate"
           f"[{'-'.join(map(str, _args))}]"] = (
        functools.partial(test_estimator.exact_quantile_cqte_margins, *_args), 10, None)
AUDITS["tests/test_estimator.py::test_oracle_contrast_uses_full_sample"] = (
    test_estimator.oracle_contrast_margins, 1, None)


def _margins_at(margins, seed):
    if "tmp_path" not in inspect.signature(margins).parameters:
        return margins(seed)
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        return margins(Path(tmp), seed)


def run(test_id: str, count: int = COUNT) -> dict:
    margins, span, bases = AUDITS[test_id]
    own = inspect.signature(margins).parameters["base_seed"].default
    step = 1 << max(span - 1, 0).bit_length()
    bases = bases or [own + k * step for k in range(1, count + 1)]
    at_own = _margins_at(margins, own)
    rows = [_margins_at(margins, base) for base in bases]
    passed = [holds(row) for row in rows]
    return {
        "test": test_id,
        "own_base_seed": own,
        "base_seeds": bases,
        "passes": sum(passed),
        "pass_rate": sum(passed) / len(bases),
        "margin_at_own_seed": {claim: margin for claim, (margin, _) in at_own.items()},
        "passes_at_own_seed": holds(at_own),
        "margins": {claim: {"min": min(row[claim][0] for row in rows),
                            "median": float(np.median([row[claim][0] for row in rows])),
                            "max": max(row[claim][0] for row in rows)}
                    for claim in at_own},
        "failing_base_seeds": [base for base, ok in zip(bases, passed) if not ok],
    }


def main() -> int:
    results = []
    for test_id in AUDITS:
        results.append(run(test_id))
        row = results[-1]
        passes = f"{row['passes']:3d}/{len(row['base_seeds'])}"
        print(f"{row['pass_rate']:6.1%}  {passes}  {test_id}", flush=True)
    with open(OUT, "w") as fh:
        fh.write("[\n" + ",\n".join(json.dumps(row) for row in results) + "\n]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Pseudo-outcomes that turn contrast estimation into a regression problem.

For thresholds (y0, y1) and an observation (y, x, a), each pseudo-outcome is
a random quantity whose conditional mean given X = x equals the CDF contrast
F1(y1|x) - F0(y0|x). The doubly robust form residualises the observation's
own-arm CDF and adds the plug-in contrast; the IPW form keeps only the
inverse-propensity-weighted indicator. The oracle contrast uses the doubly
robust form with exact nuisances, so it needs no kind of its own.
``estimator._ContrastReplicate.profile_many`` evaluates and smooths them for
whole grids of thresholds at once.
"""

from __future__ import annotations

from enum import Enum


class PseudoOutcomeKind(str, Enum):
    DR = "dr"
    IPW = "ipw"

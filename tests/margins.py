"""Margins of the suite's seeded Monte-Carlo assertions.

A seeded Monte-Carlo assertion compares a statistic of random draws with a
bound. Each such test computes its statistics once, in a ``*_margins``
helper beside it whose ``base_seed`` defaults to the test's own seed. The
helper returns ``{claim: (margin, strict)}``: how far the quantity clears its
bound, in the quantity's units, and whether the claim's comparison is strict.
The test asserts ``holds`` of the helper's margins; ``mc_audit.py`` reruns
the same helper at other base seeds.
"""


def below(value, bound):
    """The claim ``value < bound``."""
    return bound - value, True


def at_most(value, bound):
    """The claim ``value <= bound``."""
    return bound - value, False


def holds(margins):
    """Whether every claim holds: strict margins above zero, the others at least zero."""
    return all(margin > 0 if strict else margin >= 0 for margin, strict in margins.values())


def describe(margins):
    return "; ".join(f"{claim} (margin {margin:.4f})" for claim, (margin, _) in margins.items())

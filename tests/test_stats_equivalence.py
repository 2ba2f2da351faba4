"""The stats axis of the differential harness, on its own.

``tests/test_differential.py`` crosses ``stats=True`` with every other
engine knob; these two slices turn statistics-driven planning on (with
the optimizer that consumes them) against the plain reference, as the
historical statistics harness did.
"""

from __future__ import annotations

from test_differential import slice_rows, sweep


def test_stats_on_equals_stats_off_randomized():
    """Identical answers, set and bag; statistics must change the plan
    often enough that the comparison guards something."""
    sweep(slice_rows(stats=(True,), optimize=(True,), semantics=("set", "bag")))


def test_stats_respect_soundness_chain():
    """Q+ ⊆ cert⊥ ⊆ naive and cert⊥ ⊆ Q? with statistics on."""
    sweep(slice_rows(stats=(True,), optimize=(True,)))

"""The optimize axis of the differential harness, on its own.

``tests/test_differential.py`` crosses ``optimize=True`` with every
other engine knob; these two slices flip it alone against the
unoptimized reference, as the historical optimizer harness did.
"""

from __future__ import annotations

from test_differential import slice_rows, sweep


def test_optimized_equals_unoptimized_randomized():
    """Identical answers, set and bag, plus the raw evaluator in both
    condition modes; plans must build an ``EquiJoin`` often enough."""
    sweep(slice_rows(optimize=(True,), semantics=("set", "bag")))


def test_soundness_chain_holds_under_optimization():
    """Q+ ⊆ cert⊥ ⊆ naive and cert⊥ ⊆ Q? with the optimizer on."""
    sweep(slice_rows(optimize=(True,)))

"""The fault axis of the differential harness, on its own.

``tests/test_differential.py`` crosses a seeded ``FaultPlan`` with every
other engine knob; this slice arms it alone, on sharded databases under
both backends, as the historical chaos harness did: a degraded answer is
a sound subset, no call outlives its deadline, and the caches replay the
reference answers once the faults are disarmed.
"""

from __future__ import annotations

import pytest

from repro.resilience import reset_breakers
from test_differential import slice_rows, sweep


@pytest.fixture(autouse=True)
def _clean_breakers():
    reset_breakers()
    yield
    reset_breakers()


def test_chaos_preserves_answers_and_caches():
    sweep(slice_rows(faults=(True,), shards=(1, 2, 3), executor=("serial", "thread"),
                     backend=("auto", "interpreter")))

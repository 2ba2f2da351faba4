"""Async-vs-sync pins on the Figure 1 cases.

The randomized async-vs-sync identity (``AsyncEngine(pool="thread")``
against the sync engine, crossed with every other engine knob) lives in
``tests/test_differential.py``.  Here the Figure 1 cases go through a
real **process pool**, which also exercises pickling of every task
shape (SQL AST, algebra plan) across the worker boundary, and through
``evaluate_batch``.  ``test_async_engine_matches_sync_on_random_cases``
runs the sweep's driver axis alone.
"""

from __future__ import annotations

import asyncio

from differential import _assert_identical
from repro import AsyncEngine, Engine
from repro.engine import available_strategies
from repro.workloads import figure1_cases, figure1_database_with_null
from test_differential import slice_rows, sweep


def test_async_compare_identical_to_sync_on_figure1_with_process_pool():
    """The Figure 1 cases through a real process pool, both frontends.

    Also the pickling gate: every task shape (SQL AST with subqueries,
    algebra plans, annotated outcomes with marked nulls) crosses the
    worker-process boundary here.
    """
    db = figure1_database_with_null()

    async def main():
        with Engine() as engine:
            async with AsyncEngine(pool="process", max_workers=2) as aeng:
                for case in figure1_cases():
                    # approx-libkin16's Qf side materialises Dom^k on the
                    # anti-join case (~15 s each way — E5's blowup); its
                    # equivalence is covered by the random sweep and by
                    # the other two cases here.
                    strategies = tuple(
                        name
                        for name in available_strategies()
                        if not (
                            name == "approx-libkin16"
                            and case.name == "customers without a paid order"
                        )
                    )
                    for frontend, query in (("sql", case.sql), ("algebra", case.algebra)):
                        expected = engine.compare(
                            query, db, strategies=strategies, use_cache=False
                        )
                        actual = await aeng.compare(
                            query, db, strategies=strategies, use_cache=False
                        )
                        assert set(actual) == set(expected), (
                            f"{case.name} [{frontend}]: applicable strategies differ "
                            f"({sorted(expected)} vs {sorted(actual)})"
                        )
                        for strategy in expected:
                            _assert_identical(
                                expected[strategy],
                                actual[strategy],
                                f"{case.name} [{frontend}] {strategy}",
                            )

    asyncio.run(main())


def test_async_batch_matches_sync_batch_on_figure1():
    db = figure1_database_with_null()
    queries = [case.algebra for case in figure1_cases()] * 2

    async def main():
        with Engine() as engine:
            expected = engine.evaluate_batch(
                queries, db, strategy="approx-guagliardo16", use_cache=False
            )
            async with AsyncEngine(pool="thread", max_workers=4) as aeng:
                actual = await aeng.evaluate_batch(
                    queries, db, strategy="approx-guagliardo16", use_cache=False
                )
            for i, (want, got) in enumerate(zip(expected, actual)):
                _assert_identical(want, got, f"batch query {i}")

    asyncio.run(main())


def test_async_engine_matches_sync_on_random_cases():
    """The driver axis alone: ``AsyncEngine(pool="thread")`` against
    the sync engine, on monolithic and sharded databases."""
    sweep(slice_rows(driver=("async",), shards=(0, 1, 2, 3), executor=("serial", "thread")))

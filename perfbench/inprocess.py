"""The in-process workloads: adhoc-tpch, sharded-append, certain-exact.

Each drives the program only through ``repro.Session`` (and, for
sharded-append, ``repro.sharding.ShardedDatabase`` with the process
executor): one client, closed loop, executing the seed's fixed schedule.
"""

from __future__ import annotations

import multiprocessing
import time

import inputs
from layers import LayerTotals
from measure import (
    Rounds,
    Timed,
    answer_rows,
    digest,
    proc_cpu_seconds,
    proc_peak_rss_mb,
    self_peak_rss_mb,
)
from workload import Workload, reference_session


class _SessionState:
    """The session a pass runs on; closes the first one and the closers."""

    def __init__(self, session, *closers):
        self.session = session
        self.root = session
        self.closers = closers

    def close(self) -> None:
        self.root.close()
        for close in self.closers:
            close()


class InProcessWorkload(Workload):
    """One client calling ``execute`` for each operation of the schedule."""

    # execute(state, op, trace) -> (result, rows_in), or None for a write.

    def cpu_seconds(self) -> float:
        return time.process_time()

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def is_query(self, op) -> bool:
        return True

    def sample_context(self, state, op):
        """What the reference needs beyond the operation itself."""
        return None

    def run_pass(self, state, schedule, *, trace: bool, totals: LayerTotals | None = None) -> Timed:
        timed = Timed()
        sampled = self.sampled(sum(1 for ops in schedule for op in ops if self.is_query(op)))
        kept = []  # (index, op, context, result, ms, rows_in), looked at after timing
        index = 0
        clock = Rounds(timed, self.cpu_seconds)
        for ops in schedule:
            with clock.round() as rnd:
                for op in ops:
                    timed.attempted += 1
                    start = time.perf_counter()
                    try:
                        outcome = self.execute(state, op, trace)
                    except Exception as exc:  # noqa: BLE001 - counted, reported
                        timed.fail(repr(op)[:120], exc)
                        index += self.is_query(op)
                        continue
                    ms = (time.perf_counter() - start) * 1000.0
                    rnd.ops += 1
                    if outcome is None:
                        timed.write_ms.append(ms)
                        continue
                    result, rows_in = outcome
                    timed.latencies_ms.append(ms)
                    if trace or self.keep_results or index in sampled:
                        context = self.sample_context(state, op) if index in sampled else None
                        kept.append((index, op, context, result, ms, rows_in))
                    index += 1
        clock.finish()
        timed.peak_rss_mb = self.peak_rss_mb()
        self.samples = []
        for index, op, context, result, ms, rows_in in kept:
            if index in sampled or self.keep_results:
                rows = answer_rows(result)
                if index in sampled:
                    self.samples.append((op, context, rows))
                if self.keep_results:
                    timed.digests.append(digest(rows))
            if totals is not None:
                totals.add_op(ms, result.metadata.get("trace"), rows_in, len(result.relation))
        return timed


# ----------------------------------------------------------------------
# adhoc-tpch
# ----------------------------------------------------------------------
class AdhocTpch(InProcessWorkload):
    """Ad-hoc TPC-H-lite queries: every key distinct, so the cache misses."""

    name = "adhoc-tpch"

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.database = inputs.tpch_database()
        self.warmup = self._prepare(inputs.adhoc_schedule(seed, 1, "warmup"))[0]

    def schedule(self, stream: str):
        return self._prepare(inputs.adhoc_schedule(self.seed, self.rounds, stream))

    def _prepare(self, schedule):
        """Build every query before timing: (op, query, rows the query reads)."""
        sizes = {name: len(rel) for name, rel in self.database.relations()}
        return [
            [
                (op, inputs.build_query(op), sum(sizes[r] for r in inputs.SHAPE_RELATIONS[op["shape"]]))
                for op in ops
            ]
            for ops in schedule
        ]

    def setup_once(self, i: int):
        from repro import Session

        session = Session(self.database)
        for op, query, _ in self.warmup:
            session.evaluate(query, strategy=op["strategy"])
        session.clear_cache()
        return _SessionState(session)

    def execute(self, state, item, trace):
        op, query, rows_in = item
        return state.session.evaluate(query, strategy=op["strategy"], trace=trace), rows_in

    def reference(self, item, context):
        op, query, _ = item
        return reference_session(self.database, op["shape"]).evaluate(query, strategy=op["strategy"])


# ----------------------------------------------------------------------
# sharded-append
# ----------------------------------------------------------------------
class ShardedAppend(InProcessWorkload):
    """Appends beside sharded reads over 4 shards and 2 process workers."""

    name = "sharded-append"
    SHARDS = 4
    WORKERS = 2

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.database = inputs.tpch_database()
        self.reads = inputs.sharded_reads(seed)
        self.queries = [inputs.build_query(op) for op in self.reads]

    def cpu_seconds(self) -> float:
        return time.process_time() + sum(
            proc_cpu_seconds(p.pid) for p in multiprocessing.active_children()
        )

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb() + sum(
            proc_peak_rss_mb(p.pid) for p in multiprocessing.active_children()
        )

    def schedule(self, stream: str):
        return inputs.sharded_schedule(self.seed, self.rounds, stream)

    def setup_once(self, i: int):
        from repro import Session
        from repro.sharding import ProcessShardExecutor, ShardedDatabase

        executor = ProcessShardExecutor(max_workers=self.WORKERS)
        session = Session(
            ShardedDatabase.from_database(self.database, self.SHARDS), executor=executor
        )
        state = _SessionState(session, executor.close)
        for read, query in zip(self.reads, self.queries):
            session.evaluate(query, strategy=read["strategy"])
        return state

    def is_query(self, op) -> bool:
        return "read" in op

    def execute(self, state, op, trace):
        if "append" in op:
            grown = state.session.database.add_rows(op["append"], [tuple(r) for r in op["rows"]])
            state.session = state.session.with_database(grown)
            return None
        read = self.reads[op["read"]]
        database = state.session.database
        rows_in = sum(len(database[r]) for r in inputs.SHAPE_RELATIONS[read["shape"]])
        result = state.session.evaluate(self.queries[op["read"]], strategy=read["strategy"], trace=trace)
        return result, rows_in

    def sample_context(self, state, op):
        """The database as it stood when the read ran (persistent: appends derive new ones)."""
        return state.session.database

    def reference(self, op, database):
        from repro import Database

        read = self.reads[op["read"]]
        coalesced = Database(dict(database.relations()))
        return reference_session(coalesced, read["shape"]).evaluate(
            self.queries[op["read"]], strategy=read["strategy"]
        )


# ----------------------------------------------------------------------
# certain-exact
# ----------------------------------------------------------------------
class CertainExact(InProcessWorkload):
    """Exact certain answers, c-tables and libkin16 on small databases."""

    name = "certain-exact"
    CHAIN_SAMPLE = 6  # (database, query) pairs checked for Q+ ⊆ cert⊥ ⊆ naive

    def __init__(self, seed: int, seconds: float):
        super().__init__(seed, seconds)
        self.query_of = {name: inputs.certain_query(name) for name in inputs.CERTAIN_QUERIES}
        # Warm up on the two-null database alone: every code path, without
        # the 729-valuation enumerations that would make up most of set-up.
        pairs = len(inputs.CERTAIN_QUERIES) * len(inputs.CERTAIN_STRATEGIES)
        self.warmup = self._prepare(inputs.certain_schedule(seed, 1, "warmup"))[0][pairs:]

    def schedule(self, stream: str):
        return self._prepare(inputs.certain_schedule(self.seed, self.rounds, stream))

    def _prepare(self, schedule):
        """Build every database before timing: (database, op, rows the query reads)."""
        prepared = []
        for entries in schedule:
            ops = []
            for entry in entries:
                database = inputs.build_database(entry["db"])
                ops.extend(
                    (database, op, sum(len(database[r]) for r in inputs.CERTAIN_RELATIONS[op["query"]]))
                    for op in entry["ops"]
                )
            prepared.append(ops)
        return prepared

    def setup_once(self, i: int):
        from repro import Session

        # No result cache: auto picks Q+ or naive here, and whether it hit
        # the explicit call's entry would depend on the shuffled order.
        session = Session(self.warmup[0][0], cache_size=0)
        for database, op, _ in self.warmup:
            session.evaluate(self.query_of[op["query"]], strategy=op["strategy"])
        return _SessionState(session)

    def execute(self, state, item, trace):
        database, op, rows_in = item
        if state.session.database is not database:
            state.session = state.session.with_database(database)
        result = state.session.evaluate(self.query_of[op["query"]], strategy=op["strategy"], trace=trace)
        return result, rows_in

    def reference(self, item, context):
        database, op, _ = item
        return reference_session(database).evaluate(self.query_of[op["query"]], strategy=op["strategy"])

    def check(self) -> list[str]:
        """The reference comparison, plus Q+ ⊆ cert⊥ ⊆ naive on sampled pairs."""
        mismatches = super().check()
        pairs = {(id(item[0]), item[1]["query"]): item for item, _, _ in self.samples}
        for database, op, _ in list(pairs.values())[: self.CHAIN_SAMPLE]:
            session = reference_session(database)
            query = self.query_of[op["query"]]
            q_plus = session.evaluate(query, strategy="approx-guagliardo16").certain_rows()
            cert = session.evaluate(query, strategy="exact-certain").rows_set()
            naive = session.evaluate(query, strategy="naive").rows_set()
            if not (q_plus <= cert <= naive):
                mismatches.append(f"soundness chain Q+ ⊆ cert⊥ ⊆ naive broken on {op['query']}")
        return mismatches

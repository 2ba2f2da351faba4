"""Horizontal sharding: partitioned databases with parallel evaluation.

The scaling move named on the ROADMAP: shard every relation into ``N``
horizontal fragments behind the unchanged ``Database`` interface, push
distributable plans through the fragments (selection, projection,
product and union — with broadcast of non-partitioned sides), evaluate
the fragments in parallel, and union the partial results.  Non-
distributive operators (difference, division) and strategies whose
correctness argument needs the whole database coalesce transparently to
monolithic evaluation, so sharded evaluation is *always* result-
identical to monolithic evaluation — the randomized differential
harness (``tests/test_differential.py``) enforces this.

Usage::

    from repro import Engine, Session
    from repro.sharding import ShardedDatabase, HashPartitioner

    session = Session(database, shards=4, executor="process")
    result = session.evaluate(query, strategy="naive")
    result.metadata["sharding"]      # mode, shards, cache hits, ...

or explicitly::

    sharded = ShardedDatabase.from_database(database, 4, HashPartitioner())
    Engine().evaluate(query, sharded, strategy="approx-guagliardo16")

Layers:

* :mod:`repro.sharding.partition` — hash and round-robin partitioners;
* :mod:`repro.sharding.database` — :class:`ShardedDatabase` (coalesced
  view + fragments + per-fragment fingerprints);
* :mod:`repro.sharding.planner` — the lineage rewrite pushing plans
  through fragments, with per-strategy operator allowlists;
* :class:`ShardExecutor` and friends — names of the engine's one worker
  pool (:class:`repro.engine.workers.WorkerPool`), which runs shard
  tasks serially, on threads or on processes;
* :mod:`repro.sharding.evaluate` — orchestration, per-shard caching and
  strategy-specific merging.
"""

from functools import partial

from ..engine.workers import WorkerPool
from .database import SHARD_SUFFIX, ShardedDatabase, shard_relation_name
from .evaluate import SHARD_MERGES, evaluate_sharded, register_shard_merge
from .partition import HashPartitioner, Partitioner, RoundRobinPartitioner
from .planner import NonDistributableError, ShardPlan, shard_plan

#: The shard executors are the engine's one worker pool under their
#: sharding names: ``ProcessShardExecutor(max_workers=2)`` is
#: ``WorkerPool("process", 2)``.
ShardExecutor = WorkerPool
SerialShardExecutor = partial(WorkerPool, "serial")
ThreadShardExecutor = partial(WorkerPool, "thread")
ProcessShardExecutor = partial(WorkerPool, "process")

__all__ = [
    "SHARD_SUFFIX",
    "ShardedDatabase",
    "shard_relation_name",
    "Partitioner",
    "HashPartitioner",
    "RoundRobinPartitioner",
    "ShardPlan",
    "shard_plan",
    "NonDistributableError",
    "ShardExecutor",
    "SerialShardExecutor",
    "ThreadShardExecutor",
    "ProcessShardExecutor",
    "SHARD_MERGES",
    "register_shard_merge",
    "evaluate_sharded",
]

"""Every engine knob, crossed: one sweep over a pairwise covering array.

Each case draws a random tiny database and plan (:mod:`differential`)
and takes one row of :data:`ROWS`, a fixed pairwise covering array over
the axis table :data:`AXES`.  Every applicable call — each registered
strategy under set semantics, plus naïve under bags when the row asks
for them and ``auto`` under set semantics (and bags) when the row asks
for it — is evaluated twice: under the reference (the first value of
every axis: monolithic, serial, sync, unoptimized, stats off,
interpreter, untraced, no faults, no cache) and under the row.  The two
must refuse alike or answer identically, tuple for tuple and annotation
for annotation, and both sides must satisfy the soundness chain.  With
a cache on, the row's call runs a second time and must come from the
cache, identical apart from the cache fields.  A mismatch names the
case, the seed, the row and the axes (or pairs of axes) that reproduce
it on their own.

The fault axis keeps the chaos invariants instead of strict identity: a
degraded answer is a sound subset of the reference, no call outlives
its deadline, and once the faults are disarmed the same engine replays
the reference answers from its caches.

Coverage floors keep the sweep honest: each counts over the unfaulted
cases on which its axis is on (the fault floors over the faulted ones).
"""

from __future__ import annotations

import asyncio
import itertools
import shutil
import sqlite3
import tempfile
import time
from collections import Counter

import pytest

from differential import (
    CASES,
    REFUSALS,
    SEED,
    _assert_identical,
    _assert_soundness_chain,
    _build_database,
    _evaluate_pair,
    _outcome,
    _QueryGen,
    case_rng,
)
from repro import AsyncEngine, Engine
from repro.algebra import EquiJoin, walk
from repro.algebra.evaluator import Evaluator
from repro.algebra.optimize import optimize_plan
from repro.algebra.stats import Stats
from repro.engine import EngineError, WorkerPool, available_strategies
from repro.resilience import (
    DeadlineExceeded,
    FaultPlan,
    FaultRule,
    InjectedFault,
    RetryPolicy,
    faults_armed,
    reset_breakers,
)
from repro.sharding import HashPartitioner, RoundRobinPartitioner, ShardedDatabase

#: The axis table: every axis is set independently; its first value is
#: the reference.
AXES: dict[str, tuple] = {
    "shards": (0, 1, 2, 3, 4),  # 0: the monolithic database
    "partitioner": ("hash", "round-robin"),
    "executor": ("serial", "thread", "process"),  # process: one borrowed WorkerPool
    "driver": ("sync", "async"),  # Engine, or AsyncEngine(pool="thread")
    "optimize": (False, True),
    "stats": (False, True),
    "backend": ("interpreter", "auto"),
    "trace": (False, True),  # metadata equal apart from "trace"
    "strategy": ("explicit", "auto"),  # auto: vs what it reports, + exactness audit
    "faults": (False, True),  # a seeded FaultPlan: the chaos invariants
    "semantics": ("set", "bag"),  # bag: naïve (and auto) also under bag semantics
    # On: evaluate twice, the second call a hit.  Faulted rows always
    # cache ("off": in memory), so their replay comes from the cache.
    "cache": ("off", "memory", "disk"),
}

#: Axes that mean nothing in some rows: axis -> (the setting that makes
#: it inert, why).  Pairs of an inert setting are covered by no row.
INERT: dict[str, tuple[tuple[str, object], str]] = {
    "partitioner": (("shards", 0), "a monolithic database has no partitioner"),
    "executor": (("shards", 0), "a monolithic evaluation has no shard fan-out"),
}

REFERENCE = {axis: values[0] for axis, values in AXES.items()}
PARTITIONERS = {"hash": HashPartitioner, "round-robin": RoundRobinPartitioner}

#: Wall-clock budget of a faulted call, and the slack allowed on top of
#: it (scheduler noise, not compute) before the deadline bound fails.
TIMEOUT = 20.0
SLACK = 10.0
#: What a faulted call may fail with: the engine's own error (retries
#: exhausted, every shard failed), the injected fault, or its SQLite
#: disguise.  Anything else is a real bug.
FAULT_ERRORS = (EngineError, InjectedFault, sqlite3.OperationalError)


def _pairs(row: dict) -> set[frozenset]:
    """The pairs of axis values ``row`` exercises."""
    live = [
        (axis, value)
        for axis, value in row.items()
        if axis not in INERT or INERT[axis][0] not in row.items()
    ]
    return {frozenset(pair) for pair in itertools.combinations(live, 2)}


def _every_pair() -> list[frozenset]:
    return [
        frozenset({(a, va), (b, vb)})
        for a, b in itertools.combinations(AXES, 2)
        for va in AXES[a]
        for vb in AXES[b]
    ]


#: Pairs no row can cover, with the reason.
UNCOVERED = {
    frozenset({setting, (axis, value)}): why
    for axis, (setting, why) in INERT.items()
    for value in AXES[axis]
}


def _covering_array() -> list[dict]:
    """A pairwise covering array over :data:`AXES`, greedy and
    deterministic.  Row 0 turns every axis on but faults, so case 0 (a
    ÷ plan) always counts towards the SQLite-fallback floor; each later
    row starts from the first uncovered pair and gives every other axis
    the value that covers the most new pairs."""
    needed = dict.fromkeys(p for p in _every_pair() if p not in UNCOVERED)
    first = {axis: values[-1] for axis, values in AXES.items()}
    rows = [{**first, "faults": False}]
    while True:
        for pair in _pairs(rows[-1]):
            needed.pop(pair, None)
        if not needed:
            return rows
        row = dict(next(iter(needed)))
        for axis, values in AXES.items():
            if axis not in row:
                row[axis] = max(
                    values, key=lambda v: len(_pairs({**row, axis: v}) & needed.keys())
                )
        rows.append({axis: row[axis] for axis in AXES})


ROWS = _covering_array()


def _describe(row: dict) -> str:
    parts = []
    for axis, value in row.items():
        if axis in INERT or value == REFERENCE[axis]:
            continue
        if axis == "shards":
            value = f"{value}/{row['partitioner']}/{row['executor']}"
        parts.append(f"{axis}={value}")
    return ", ".join(parts) or "reference"


# ----------------------------------------------------------------------
# Running one call under one configuration
# ----------------------------------------------------------------------
class _Drivers:
    """Sync engines and their async twins over a thread pool, one pair
    per cache store (the memory pair also serves ``cache="off"``, whose
    calls bypass it), plus the process pool they borrow for
    ``executor="process"`` (never closed by the engines: whoever built
    it closes it)."""

    def __init__(self, process_pool: WorkerPool):
        self.process_pool = process_pool
        self.cache_dir = tempfile.mkdtemp(prefix="repro-diff-cache-")
        self.engines = {"memory": Engine(), "disk": Engine(cache=f"disk:{self.cache_dir}")}
        self.aengines = {
            store: AsyncEngine(engine=engine, pool="thread", max_workers=2)
            for store, engine in self.engines.items()
        }

    def evaluate(self, driver: str, cache: str, *args, **kwargs):
        store = "disk" if cache == "disk" else "memory"
        if driver == "sync":
            return self.engines[store].evaluate(*args, **kwargs)
        return asyncio.run(self.aengines[store].evaluate(*args, **kwargs))

    def close(self) -> None:
        for engine in (*self.aengines.values(), *self.engines.values()):
            engine.close()
        shutil.rmtree(self.cache_dir, ignore_errors=True)


class _Case:
    def __init__(self, index: int, drivers: _Drivers, rows: list[dict]):
        rng = case_rng(index)
        self.index, self.rng, self.drivers = index, rng, drivers
        self.row = rows[index % len(rows)]
        self.db = _build_database(rng, skew=0.5, null_density=0.6)
        gen = _QueryGen(rng, self.db.schema())
        # Case 0 is a ÷ plan under every seed: the SQLite fallback runs.
        self.query = gen.division() if index == 0 else gen.query(rng.randint(1, 3))
        self.label = f"case {index} (seed {SEED}) [{_describe(self.row)}]"
        self._sharded = None
        self._reference: dict = {}

    def target(self, config: dict):
        if not config["shards"]:
            return self.db
        if self._sharded is None:
            partitioner = PARTITIONERS[config["partitioner"]]()
            self._sharded = ShardedDatabase.from_database(self.db, config["shards"], partitioner)
            self._sharded.verify_fragments()
            assert self._sharded == self.db, f"{self.label}: coalesced view differs"
        return self._sharded

    def run(self, config: dict, strategy: str, semantics: str, drivers=None, **options):
        settings = {key: config[key] for key in ("optimize", "stats", "backend", "trace")}
        drivers = drivers or self.drivers
        if config["shards"]:
            executor = config["executor"]
            settings["executor"] = drivers.process_pool if executor == "process" else executor
        return drivers.evaluate(
            config["driver"], config["cache"], self.query, self.target(config),
            strategy=strategy, semantics=semantics,
            **{"use_cache": config["cache"] != "off", **settings, **options},
        )

    def reference(self, call: tuple[str, str]):
        """The reference outcome of ``call``, evaluated once."""
        if call not in self._reference:
            self._reference[call] = _outcome(lambda: self.run(REFERENCE, *call))
        return self._reference[call]

    def pair(self, config: dict, call: tuple[str, str], label: str):
        result = _evaluate_pair(self.reference(call), lambda: self.run(config, *call), label)
        if result is not None and config["cache"] != "off":
            _check_cached(result, self.run(config, *call), f"{label} cache={config['cache']}")
        return result


def _without_cache_fields(result) -> dict:
    """The metadata a cache hit must keep: all but the trace (each call
    exports its own) and a sharded call's partial-cache counters."""
    metadata = {key: value for key, value in result.metadata.items() if key != "trace"}
    if "sharding" in metadata:
        metadata["sharding"] = {
            key: value for key, value in metadata["sharding"].items()
            if not key.startswith("partial_cache")
        }
    return metadata


def _check_cached(first, again, label: str) -> None:
    """The second evaluation of a call comes from the cache and is
    identical to the first apart from the cache fields."""
    assert again.from_cache, f"{label}: the second evaluation missed the cache"
    _assert_identical(first, again, f"{label} (second evaluation)")
    assert (again.semantics, again.fingerprint) == (first.semantics, first.fingerprint), label
    assert _without_cache_fields(again) == _without_cache_fields(first), (
        f"{label}: the cache hit changed the metadata"
    )


def _blame(case: _Case, *calls: tuple[str, str]) -> str:
    """The single axes of the row — or, failing those, the pairs — that
    reproduce a mismatch in one of ``calls`` on their own, unfaulted.
    An axis that is inert without another (the executor without shards)
    brings that one along."""
    row = case.row
    on = [
        axis for axis, value in row.items()
        if value != REFERENCE[axis] and (axis not in INERT or INERT[axis][0] not in row.items())
    ]
    for size in (1, 2):
        culprits = []
        for axes in itertools.combinations(on, size):
            config = {**REFERENCE, **{axis: row[axis] for axis in axes}}
            for axis in INERT.keys() & set(axes):
                enabling = INERT[axis][0][0]
                config[enabling] = row[enabling]
            try:
                for call in calls:
                    case.pair(config, call, "")
            except Exception:  # a mismatch, or a crash the reference has not
                culprits.append("+".join(axes))
        if culprits:
            return "reproduces with only: " + ", ".join(culprits)
    return "reproduces with no single axis or pair of axes"


# ----------------------------------------------------------------------
# The checks of one case
# ----------------------------------------------------------------------
def _check_case(case: _Case, tally: Counter) -> None:
    row = case.row
    calls = [(strategy, "set") for strategy in available_strategies()]
    if row["semantics"] == "bag":
        calls.append(("naive", "bag"))
    if row["strategy"] == "auto":
        # Set semantics always: the planner's set-only choices (Q+,
        # exact-certain) and the exactness audit need it.
        calls.append(("auto", "set"))
        if row["semantics"] == "bag":
            calls.append(("auto", "bag"))
    reference = {
        strategy: result
        for strategy, semantics in calls
        if semantics == "set" and strategy != "auto"
        and (result := case.reference((strategy, semantics))[0]) is not None
    }
    tally["chain"] += _assert_soundness_chain(reference, f"{case.label} reference")
    for result in reference.values():
        assert result.metadata["backend"]["resolved"] == "interpreter", case.label
    if row["faults"]:
        try:
            _check_faulted(case, calls, tally)
        except AssertionError as exc:
            raise AssertionError(f"{exc}\nunfaulted, it {_blame(case, *calls)}") from exc
        return

    configured = {}
    for call in calls:
        label = f"{case.label} {call[0]} ({call[1]})"
        try:
            result = case.pair(row, call, label)
        except Exception as exc:
            message = exc if isinstance(exc, AssertionError) else f"{label}: crashed: {exc!r}"
            raise AssertionError(f"{message}\n{_blame(case, call)}") from exc
        if result is None:
            continue
        configured[call] = result
        tally["cache-checked"] += row["cache"] != "off"
        _tally_result(case, call, result, tally)
        if row["trace"]:
            _check_trace(case, call, result, label)
        if call[0] == "auto":
            _audit_auto(case, call, result, label, tally)
    _assert_soundness_chain(
        {s: r for (s, sem), r in configured.items() if sem == "set" and s != "auto"},
        f"{case.label} configured",
    )
    if row["optimize"]:
        _check_evaluator_modes(case)
    tally["equijoin"] += row["optimize"] and _plan_builds_equijoin(case)
    tally["stats-changed"] += row["stats"] and _stats_changed_plan(case)


def _tally_result(case: _Case, call, result, tally: Counter) -> None:
    strategy, semantics = call
    row = case.row
    if row["shards"]:
        tally["shard-mode", result.metadata["sharding"]["mode"]] += 1
    if row["backend"] == "auto":
        note = result.metadata.get("backend")
        resolved = note.get("resolved") if isinstance(note, dict) else None
        name = strategy if semantics == "set" else f"{strategy}-bag"
        tally["backend", name, resolved] += 1
        if row["shards"] and name in ("naive", "approx-guagliardo16"):
            tally["backend", "sharded", resolved] += 1


def _check_trace(case: _Case, call, traced, label: str) -> None:
    """Tracing observes and never steers: the untraced twin answers the
    same (checked against the reference already) with the same
    metadata, bar the exported span tree."""
    untraced = case.run({**case.row, "trace": False}, *call)
    assert "trace" not in untraced.metadata and traced.metadata.get("trace"), label
    stripped = {k: v for k, v in traced.metadata.items() if k != "trace"}
    expected = untraced.metadata
    if case.row["cache"] != "off":  # either call may be a (partial) cache hit
        stripped, expected = _without_cache_fields(traced), _without_cache_fields(untraced)
    assert stripped == expected, f"{label}: tracing changed the metadata"


def _audit_auto(case: _Case, call, auto, label: str, tally: Counter) -> None:
    """``auto`` answers exactly as the strategy it reports, and a naïve
    choice claiming exactness returns the certain answers."""
    plan = auto.metadata["plan"]
    tally["auto", plan["strategy"]] += 1
    explicit, error = case.reference((plan["strategy"], call[1]))
    assert error is None, f"{label}: the reported {plan['strategy']} refuses: {error!r}"
    _assert_identical(explicit, auto, f"{label} vs {plan['strategy']}")
    if plan["guarantee"] == "exact" and call[1] == "set" and plan["strategy"] == "naive":
        cert = case.reference(("exact-certain", "set"))[0]
        assert cert is not None, f"{label}: exact-certain refuses"
        assert auto.relation.rows_set() == cert.relation.rows_set(), (
            f"{label}: the planner claimed exactness on fragment "
            f"{plan['fragment']} but naïve != cert⊥"
        )
        tally["audits"] += 1


def _check_evaluator_modes(case: _Case) -> None:
    """The raw evaluator in both condition modes, set and bag: the engine
    evaluates algebra in naïve mode only, so the rewrites gated on the
    three-valued mode need this direct check."""
    for mode, bag in itertools.product(("naive", "3vl"), (False, True)):
        answers = []
        for knobs in ({}, {"optimize": True, "stats": case.row["stats"]}):
            evaluator = Evaluator(condition_mode=mode, bag=bag, **knobs)
            try:
                answers.append(evaluator.evaluate(case.query, case.db))
            except (ValueError, TypeError, KeyError) as exc:
                answers.append(type(exc))
        assert answers[0] == answers[1], (
            f"{case.label} evaluator ({mode}, bag={bag}): {answers[0]} != {answers[1]}"
        )


def _optimized(case: _Case, **knobs):
    try:
        return optimize_plan(case.query, case.db.schema(), **knobs)
    except (ValueError, KeyError, TypeError):
        return None


def _plan_builds_equijoin(case: _Case) -> bool:
    return any(isinstance(node, EquiJoin) for node in walk(_optimized(case) or case.query))


def _stats_changed_plan(case: _Case) -> bool:
    return _optimized(case, stats=Stats(case.db)) != _optimized(case)


# ----------------------------------------------------------------------
# The fault axis: chaos invariants instead of strict identity
# ----------------------------------------------------------------------
def _check_faulted(case: _Case, calls, tally: Counter) -> None:
    rng = case.rng
    plan = FaultPlan(
        [
            FaultRule(point="shard.task", probability=0.4, error="transient"),
            FaultRule(point="cache.get", probability=0.2, error="transient"),
            FaultRule(point="cache.put", probability=0.2, error="transient"),
            FaultRule(point="sqlite.run", probability=0.2, error="operational"),
        ],
        seed=rng.randrange(1_000_000),
    )
    options = dict(
        use_cache=True, timeout=TIMEOUT, on_shard_error=rng.choice(["retry", "degrade"]),
        retry=RetryPolicy(max_attempts=2, base_delay=0.0, max_delay=0.0, seed=case.index),
    )
    # Fresh engines: their caches and breakers live through the faults
    # and are interrogated again once the faults are gone.  They borrow
    # the sweep's process pool: the plan rides on each task.
    drivers = _Drivers(case.drivers.process_pool)
    try:
        with faults_armed(plan):
            for call in calls:
                label = f"{case.label} {call[0]} ({call[1]}) on_shard_error={options['on_shard_error']}"
                tally["faults", _faulted_call(case, call, drivers, options, label)] += 1
        for call in calls:
            expected = case.reference(call)[0]
            if expected is not None:
                replay = case.run(case.row, *call, drivers=drivers, use_cache=True)
                _assert_identical(expected, replay, f"{case.label} {call[0]} ({call[1]}) replay")
    finally:
        drivers.close()
        reset_breakers()


def _faulted_call(case: _Case, call, drivers, options, label: str) -> str:
    expected, _ = case.reference(call)
    start = time.monotonic()
    try:
        chaotic = case.run(case.row, *call, drivers=drivers, **options)
    except DeadlineExceeded:
        outcome = "deadline"
    except (*FAULT_ERRORS, *REFUSALS) as exc:
        assert expected is None or isinstance(exc, FAULT_ERRORS), (
            f"{label}: refused only under faults: {exc!r}"
        )
        outcome = "refused" if expected is None else "failed"
    else:
        assert expected is not None, f"{label}: answered only under faults"
        degraded = chaotic.metadata.get("degraded")
        if degraded:
            assert degraded["guarantee"] == "sound-subset" and degraded["failed_shards"], label
            assert chaotic.metadata.get("exact") is not True, label
            assert chaotic.relation.rows_set() <= expected.relation.rows_set(), (
                f"{label}: the degraded answer is no subset\n"
                f"degraded:  {chaotic.relation.sorted_rows()}\n"
                f"reference: {expected.relation.sorted_rows()}"
            )
            if chaotic.certain is not None and expected.certain is not None:
                assert chaotic.certain.rows_set() <= expected.certain.rows_set(), label
            outcome = "degraded"
        else:
            _assert_identical(expected, chaotic, label)
            outcome = "ok"
    elapsed = time.monotonic() - start
    assert elapsed <= TIMEOUT + SLACK, f"{label}: outlived its deadline ({elapsed:.1f}s)"
    return outcome


# ----------------------------------------------------------------------
# The tests
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _clean_breakers():
    reset_breakers()
    yield
    reset_breakers()


def test_covering_array_holds_every_pair():
    covered = set().union(*map(_pairs, ROWS))
    missing = [sorted(pair) for pair in _every_pair() if pair not in covered | UNCOVERED.keys()]
    assert not missing, missing
    assert all(row.keys() == AXES.keys() for row in ROWS)
    assert ROWS[0]["backend"] == "auto" and not ROWS[0]["faults"]


def test_every_axis_preserves_answers():
    assert CASES >= len(ROWS), f"REPRO_DIFF_CASES must cover all {len(ROWS)} rows"
    sweep(ROWS, CASES)


# ----------------------------------------------------------------------
# The sweep, shared with the single-axis slices of the other test files
# ----------------------------------------------------------------------
#: Cases of a single-axis slice: a fraction of the crossed sweep's.
SLICE_CASES = max(32, CASES // 8)


def slice_rows(**axes) -> list[dict]:
    """Every combination of the given axis values, every other axis at
    the reference: one knob (or a few) flipped, the way a single-axis
    harness flips it."""
    assert axes.keys() <= AXES.keys(), axes.keys() - AXES.keys()
    return [
        {**REFERENCE, **dict(zip(axes, values))}
        for values in itertools.product(*axes.values())
    ]


def sweep(rows: list[dict], cases: int = SLICE_CASES) -> Counter:
    """Run cases ``0 .. cases-1`` (case *i* under ``rows[i % len(rows)]``)
    and check every coverage floor whose axes some row turns on."""
    pool = WorkerPool("process", 2)
    drivers = _Drivers(pool)
    tally: Counter = Counter()
    unfaulted = []
    try:
        for index in range(cases):
            case = _Case(index, drivers, rows)
            _check_case(case, tally)
            if not case.row["faults"]:
                unfaulted.append(case.row)
    finally:
        drivers.close()
        pool.close()

    def on(*axes) -> int:
        return sum(all(r[a] != REFERENCE[a] for a in axes) for r in unfaulted)

    faulted = cases - len(unfaulted)
    auto_cases = on("strategy")
    floors = [
        ("shards: distributed", tally["shard-mode", "distributed"], on("shards") // 4),
        ("shards: coalesced", tally["shard-mode", "coalesced"], on("shards") // 4),
        ("optimize: plans building an EquiJoin", tally["equijoin"], on("optimize") // 10),
        ("stats: plans stats change", tally["stats-changed"], on("stats") // 10),
        ("backend: naive on sqlite", tally["backend", "naive", "sqlite"], on("backend") // 2),
        ("backend: naive-bag on sqlite", tally["backend", "naive-bag", "sqlite"],
         on("backend", "semantics") // 2),
        ("backend: Q+ on sqlite", tally["backend", "approx-guagliardo16", "sqlite"],
         on("backend") // 10),
        ("backend: sharded on sqlite", tally["backend", "sharded", "sqlite"],
         on("backend", "shards") // 4),
        ("backend: interpreter fallback", tally["backend", "naive", "interpreter"],
         min(1, on("backend"))),
        ("strategy: distinct auto choices", sum(key[:1] == ("auto",) for key in tally),
         min(2, auto_cases)),
        ("strategy: auto picks naive", tally["auto", "naive"], auto_cases // 10),
        ("strategy: auto picks Q+", tally["auto", "approx-guagliardo16"], auto_cases // 20),
        ("strategy: exactness audits", tally["audits"], auto_cases // 10),
        ("faults: untouched calls", tally["faults", "ok"], faulted),
        ("faults: degraded or failed calls",
         tally["faults", "degraded"] + tally["faults", "failed"], faulted // 5),
        ("cache: second evaluations served from the cache", tally["cache-checked"],
         on("cache")),
        ("soundness chain checked", tally["chain"], 10),
    ]
    short = [f"{name}: {count} < {floor}" for name, count, floor in floors if count < floor]
    assert not short, f"seed {SEED}: coverage floors missed: {short}\n{dict(tally)}"
    return tally

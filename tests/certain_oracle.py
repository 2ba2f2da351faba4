"""Brute-force ``cert⊥``, Boolean certainty and possible answers.

The reference the reduced enumeration of :mod:`repro.incomplete.certain`
is checked against: every null of ``D`` is valued into the whole pool
(``|pool| ** |Null(D)|`` valuations) and each world is the whole
database mapped through the valuation.  Nothing here skips a null,
identifies two valuations or shares a relation between worlds.
"""

from __future__ import annotations

from repro.datamodel.relation import Relation
from repro.datamodel.valuation import enumerate_valuations
from repro.incomplete.certain import _candidate_tuples, _output_attributes
from repro.incomplete.naive import _query_constants, _run, naive_evaluate_direct
from repro.incomplete.worlds import constant_pool


def brute_worlds(query, database, extra_fresh=None):
    """Every ``(v, v(D))`` over the full pool, as the textbook defines it."""
    pool = constant_pool(database, _query_constants(query), extra_fresh=extra_fresh)
    nulls = sorted(database.nulls(), key=lambda n: str(n.label))
    for valuation in enumerate_valuations(nulls, pool):
        yield valuation, valuation.apply_database(database)


def oracle_certain(query, database, *, extra_fresh=None, optimize=False) -> Relation:
    candidates = naive_evaluate_direct(query, database, optimize=optimize)
    surviving = set(candidates.rows_set())
    for valuation, world in brute_worlds(query, database, extra_fresh):
        answer = _run(query, world, optimize=optimize).rows_set()
        surviving = {row for row in surviving if valuation.apply_tuple(row) in answer}
    return Relation(candidates.attributes, sorted(surviving, key=str))


def oracle_boolean(query, database, *, extra_fresh=None) -> bool:
    return all(_run(query, world) for _, world in brute_worlds(query, database, extra_fresh))


def oracle_possible(query, database, *, extra_fresh=None, optimize=False) -> Relation:
    candidates = _candidate_tuples(query, database)
    possible: set = set()
    for valuation, world in brute_worlds(query, database, extra_fresh):
        answer = _run(query, world, optimize=optimize).rows_set()
        possible.update(row for row in candidates if valuation.apply_tuple(row) in answer)
    return Relation(_output_attributes(query, database), sorted(possible, key=str))

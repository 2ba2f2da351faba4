"""The reduced exact enumeration against the brute-force oracle.

``cert⊥``, Boolean certainty and possible answers value only the nulls
the query reads, take the fresh constants in first-use order and rebuild
only the relations that change (:mod:`repro.incomplete.certain`).  Each
reduction must leave every answer as the brute force of
``tests/certain_oracle.py`` computes it, row for row.  The random cases
come from the shared differential generator (``REPRO_DIFF_SEED``,
``REPRO_DIFF_CASES``) with one to three nulls, shared or distinct, plus
order comparisons and ``Dom^k`` leaves the generator alone never draws.
A share of the cases crowds distinct nulls into one relation of an
otherwise empty database and compares two null-bearing columns by
order: with no known constant, only the fresh constants — their
equalities and their order — can refute a candidate, so the sweep
itself exercises both symmetry gates.  The pinned cases each guard one
reduction's gate.
"""

from __future__ import annotations

import pytest

from certain_oracle import oracle_boolean, oracle_certain, oracle_possible
from differential import CASES, SEED, _build_database, _inject_k_nulls, _QueryGen, case_rng
from repro import Database, Null, Relation, Session
from repro.algebra import builder as rb
from repro.algebra.ast import DomainRelation
from repro.algebra.conditions import Attr, Eq, Ge, Gt, Literal, Lt
from repro.incomplete import certain_answers_with_nulls, certain_boolean, possible_answers
from repro.incomplete.naive import naive_evaluate_direct

#: The brute force enumerates every world without early exit, so this
#: sweep takes a slice of the differential case count.
REDUCTION_CASES = max(8, CASES // 4)


#: The share of random cases drawn by :func:`_crowded_case`.
CROWDED_SHARE = 0.3


def _crowded_case(rng):
    """Two or three distinct nulls (one repeated to fill the last pair)
    in R or S, the other relations empty; half the time the query keeps
    only the rows a strict order comparison of two null-bearing columns
    rejects, ``Q − σ_{A<B}(Q)``."""
    name = rng.choice(["R", "S"])
    nulls = [Null(f"h{rng.randrange(1_000_000)}_{i}") for i in range(rng.randint(2, 3))]
    cells = nulls + [rng.choice(nulls) for _ in range(len(nulls) % 2)]
    crowded = [tuple(cells[i : i + 2]) for i in range(0, len(cells), 2)]
    schema = {"R": ("a", "b"), "S": ("c", "d"), "T": ("e",)}
    database = Database(
        {
            relation: Relation(attrs, crowded if relation == name else [])
            for relation, attrs in schema.items()
        }
    )
    query = _QueryGen(rng, database.schema()).query(rng.randint(0, 1))
    if rng.random() < 0.5:
        answer = naive_evaluate_direct(query, database)
        columns = [
            attr
            for index, attr in enumerate(answer.attributes)
            if any(isinstance(row[index], Null) for row in answer.rows_set())
        ]
        if len(columns) < 2:
            query, columns = rb.relation(name), list(schema[name])
        left, right = (Attr(attr) for attr in rng.sample(columns, 2))
        query = rb.difference(query, rb.select(query, rng.choice((Lt, Gt))(left, right)))
    return database, query


def _random_case(case: int):
    rng = case_rng(case)
    if rng.random() < CROWDED_SHARE:
        return _crowded_case(rng)
    database = _build_database(rng, null_density=0.0)
    database = _inject_k_nulls(database, rng.randint(1, 3), rng.random() < 0.5, rng)
    gen = _QueryGen(rng, database.schema())
    query = gen.query(rng.randint(1, 2))
    attrs = gen.attrs(query)
    roll = rng.random()
    if roll < 0.25:  # order comparisons: the symmetry gate
        left = Attr(rng.choice(attrs))
        right = Attr(rng.choice(attrs)) if rng.random() < 0.5 else Literal(f"v{rng.randrange(4)}")
        query = rb.select(query, (Lt if rng.random() < 0.5 else Ge)(left, right))
    elif roll < 0.45:  # Dom^k reads the whole active domain: the relevance gate
        if len(attrs) > 2:
            attrs = attrs[:1]
            query = rb.project(query, attrs)
        combine = rb.difference if rng.random() < 0.7 else rb.union
        query = combine(DomainRelation(tuple(attrs)), query)
    return database, query


@pytest.mark.parametrize("case", range(REDUCTION_CASES))
def test_reduced_enumeration_matches_the_brute_force(case):
    database, query = _random_case(case)
    label = f"seed {SEED} case {case}: {query} over {database.nulls()}"
    for optimize in (False, True):
        expected = oracle_certain(query, database, optimize=optimize)
        actual = certain_answers_with_nulls(query, database, optimize=optimize)
        assert actual.attributes == expected.attributes, label
        assert actual.rows_bag() == expected.rows_bag(), f"{label}, optimize={optimize}"
    assert certain_boolean(query, database) == oracle_boolean(query, database), label
    if len(query.output_attributes(database.schema())) <= 2:  # |dom|^arity candidates
        expected = oracle_possible(query, database)
        actual = possible_answers(query, database)
        assert actual.rows_bag() == expected.rows_bag(), label


# ----------------------------------------------------------------------
# Pinned cases, one per gate
# ----------------------------------------------------------------------
X, Y, Z = Null("x"), Null("y"), Null("z")
R, S, T = (rb.relation(name) for name in "RST")


def _unary(**relations) -> Database:
    return Database({name: Relation(("A",), rows) for name, rows in relations.items()})


def _pinned(query, database, expected_certain):
    assert oracle_certain(query, database).rows_set() == expected_certain
    for optimize in (False, True):
        actual = certain_answers_with_nulls(query, database, optimize=optimize)
        assert actual.rows_set() == expected_certain


def test_a_valuation_mixing_known_and_fresh_constants_refutes():
    """Only ⊥x = ⊥y = a fresh constant refutes ⊥x: an enumeration that
    never chooses a fresh constant keeps it."""
    database = _unary(R=[(X,)], T=[(Y,)], S=[("a",)])
    query = rb.union(rb.difference(R, T), rb.intersection(R, S))
    _pinned(query, database, set())


def test_order_comparisons_turn_symmetry_off():
    """``>`` tells the fresh constants apart: ⊥x = #f2, ⊥y = #f1 refutes
    the row, and first-use order never produces that valuation."""
    database = Database({"R": Relation(("A", "B"), [(X, Y)])})
    query = rb.difference(R, rb.select(R, Gt(Attr("A"), Attr("B"))))
    _pinned(query, database, set())


def test_dom_values_the_nulls_of_relations_the_plan_does_not_name():
    """``Dom − R`` reads S's null through the active domain."""
    database = _unary(R=[("a",)], S=[(Z,)])
    _pinned(rb.difference(DomainRelation(("A",)), R), database, set())


def test_a_null_the_query_carries_is_valued():
    """A null written into the query stays the same null while D's copy
    of it is valued, so it is not certain."""
    database = _unary(R=[("a",)], S=[(Z,)])
    _pinned(rb.constant_table(("A",), [(Z,)]), database, set())


def test_possible_answers_value_nulls_the_query_does_not_read():
    """(⊥z) is possible for ``Q = R``: ⊥z ↦ a.  Relevance would drop it."""
    database = _unary(R=[("a",)], S=[(Z,)])
    expected = {("a",), (Z,)}
    assert oracle_possible(R, database).rows_set() == expected
    assert possible_answers(R, database).rows_set() == expected


# ----------------------------------------------------------------------
# The pruning, as reported
# ----------------------------------------------------------------------
def test_exact_certain_reports_the_pruned_valuation_space():
    """perfbench's certain-exact shape: six constants, three nulls, all
    read, no order comparison: 9**3 = 729 valuations in full."""
    constants = [f"c{i}" for i in range(6)]
    database = Database(
        {
            "R": Relation(("A", "B"), [(Null("n0"), "c1"), ("c2", Null("n1")), ("c3", "c4")]),
            "S": Relation(("B", "C"), [(Null("n2"), "c5"), ("c1", "c0")]),
            "D": Relation(("A",), [(c,) for c in constants]),
        }
    )
    joined = rb.select(rb.product(R, rb.rename(S, {"B": "B2"})), Eq(Attr("B"), Attr("B2")))
    query = rb.difference(rb.relation("D"), rb.project(joined, ["A"]))
    result = Session(database).evaluate(query, strategy="exact-certain")
    counts = result.metadata["valuations"]
    assert counts["full"] == 729
    assert counts["relevant_nulls"] == 3
    assert counts["symmetric"] == 365
    assert counts["enumerated"] <= 365
    assert result.rows_set() == oracle_certain(query, database).rows_set()
    assert "valuations: full=729, relevant_nulls=3, symmetric=365" in result.explain()

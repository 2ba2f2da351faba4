"""Possible-world semantics of incomplete databases (Section 2).

Under the closed-world assumption (CWA) the semantics of an incomplete
database ``D`` is ``⟦D⟧ = {v(D) | v a valuation}``; under the open-world
assumption (OWA) any complete superset of some ``v(D)`` is also a
possible world.

``⟦D⟧`` is infinite (valuations range over the countably infinite set of
constants), so it cannot be materialised.  For *generic* queries,
however, it suffices to consider valuations into a finite pool of
constants: the constants of the database, the constants mentioned in the
query, and one fresh constant per null (so that "all nulls distinct and
different from everything known" is represented).  This module builds
such pools and enumerates the corresponding worlds; the exact certain
answer and probabilistic modules are built on top of it.

By default every null of ``D`` is valued into the whole pool, giving
``|pool| ** |Null(D)|`` worlds.  Two keywords shrink that space for
callers that know it is safe (:mod:`repro.incomplete.certain` decides
when): ``nulls`` values only the given nulls and leaves the others in
place, and ``interchangeable`` names pool constants (the fresh ones)
that a generic query cannot tell apart, so valuations differing by a
permutation of them are enumerated once.  :func:`count_valuations`
gives the size of the space in closed form for the same keywords.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Iterable, Iterator, Sequence

from ..datamodel.database import Database
from ..datamodel.relation import Relation
from ..datamodel.valuation import Valuation
from ..datamodel.values import Null, Value, value_sort_key

__all__ = [
    "constant_pool",
    "fresh_constants",
    "iterate_valuations",
    "iterate_worlds",
    "count_valuations",
]


def fresh_constants(count: int, avoid: Iterable[Value], prefix: str = "#f") -> list[str]:
    """``count`` constants not occurring in ``avoid`` (deterministic names)."""
    avoid_set = set(avoid)
    result: list[str] = []
    counter = itertools.count(1)
    while len(result) < count:
        candidate = f"{prefix}{next(counter)}"
        if candidate not in avoid_set:
            result.append(candidate)
            avoid_set.add(candidate)
    return result


def constant_pool(
    database: Database,
    query_constants: Iterable[Value] = (),
    extra_fresh: int | None = None,
) -> list[Value]:
    """A finite constant pool adequate for generic queries.

    The pool contains ``Const(D)``, the constants mentioned in the query,
    and ``extra_fresh`` fresh constants (default: one per null of ``D``,
    which is enough for a generic query to distinguish "all nulls equal to
    known values" from "all nulls fresh and distinct").
    """
    known = set(database.constants()) | set(query_constants)
    if extra_fresh is None:
        extra_fresh = max(1, len(database.nulls()))
    pool = sorted(known, key=value_sort_key)
    pool.extend(fresh_constants(extra_fresh, known))
    return pool


def iterate_valuations(
    database: Database,
    pool: Sequence[Value],
    *,
    nulls: Iterable[Null] | None = None,
    interchangeable: Iterable[Value] = (),
) -> Iterator[Valuation]:
    """Valuations of ``nulls`` (default: every null of ``D``) into the pool.

    Constants of the pool listed in ``interchangeable`` are taken in
    first-use order: the first null valued with one of them gets the
    first, and each later null may reuse one already taken or take the
    next one (a restricted-growth string).  Valuations that differ only
    by a permutation of these constants are thereby enumerated once.
    With no interchangeable constants this is the full product
    ``pool ** nulls``, in :func:`itertools.product` order.
    """
    ordered = _ordered_nulls(database, nulls)
    swappable = set(interchangeable)
    known = [value for value in pool if value not in swappable]
    fresh = [value for value in pool if value in swappable]
    for image in _images(len(ordered), known, fresh, 0):
        yield Valuation(dict(zip(ordered, image)))


def _images(count: int, known: list, fresh: list, used: int) -> Iterator[tuple]:
    """Images of ``count`` nulls when ``used`` fresh constants are taken."""
    if count == 0:
        yield ()
        return
    for value in known:
        for rest in _images(count - 1, known, fresh, used):
            yield (value,) + rest
    for index, value in enumerate(fresh[: used + 1]):
        for rest in _images(count - 1, known, fresh, max(used, index + 1)):
            yield (value,) + rest


def iterate_worlds(
    database: Database,
    pool: Sequence[Value],
    *,
    nulls: Iterable[Null] | None = None,
    interchangeable: Iterable[Value] = (),
) -> Iterator[tuple[Valuation, Database]]:
    """Pairs ``(v, v(D))`` for the valuations of :func:`iterate_valuations`.

    Only the relations holding a valued null are rebuilt per world: their
    rows are split once into a null-free base and the null-carrying rows,
    and each world copies the base and adds the mapped rows.  Every other
    relation is shared with ``D`` (relations are immutable).
    """
    ordered = _ordered_nulls(database, nulls)
    valued = set(ordered)
    relations = dict(database.relations())
    rebuilt = []
    for name, relation in relations.items():
        base: Counter = Counter()
        carrying = []
        for row, count in relation.iter_rows(with_multiplicity=True):
            if any(value in valued for value in row):
                carrying.append((row, count))
            else:
                base[row] = count
        if carrying:
            rebuilt.append((name, relation.attributes, base, carrying))
    for valuation in iterate_valuations(
        database, pool, nulls=ordered, interchangeable=interchangeable
    ):
        image = valuation.as_dict()
        world = dict(relations)
        for name, attributes, base, carrying in rebuilt:
            counter = base.copy()
            for row, count in carrying:
                counter[tuple(image.get(value, value) for value in row)] += count
            world[name] = Relation.from_counter(attributes, counter)
        yield valuation, Database(world)


def count_valuations(
    database: Database,
    pool: Sequence[Value],
    *,
    nulls: Iterable[Null] | None = None,
    interchangeable: Iterable[Value] = (),
) -> int:
    """The number of valuations :func:`iterate_valuations` yields.

    For ``k`` valued nulls, ``c`` other constants and ``f``
    interchangeable ones it is ``Σ_j C(k,j)·c^(k−j)·Σ_{b≤min(j,f)} S(j,b)``
    (``j`` nulls take an interchangeable constant, split into ``b``
    blocks by the Stirling number ``S(j, b)``); with ``f = 0`` it is
    ``|pool| ** k``.
    """
    k = len(database.nulls() if nulls is None else set(nulls))
    swappable = set(interchangeable)
    f = sum(1 for value in pool if value in swappable)
    c = len(pool) - f
    # stirling[b] holds S(j, b) for the current j.
    stirling = [1]
    total = 0
    for j in range(k + 1):
        if j:
            stirling = [0] + [
                b * (stirling[b] if b < len(stirling) else 0) + stirling[b - 1]
                for b in range(1, j + 1)
            ]
        total += math.comb(k, j) * c ** (k - j) * sum(stirling[: f + 1])
    return total


def _ordered_nulls(database: Database, nulls: Iterable[Null] | None) -> list[Null]:
    chosen = database.nulls() if nulls is None else set(nulls)
    return sorted(chosen, key=lambda n: str(n.label))

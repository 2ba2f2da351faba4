"""Values populating incomplete databases: constants and marked nulls.

The paper's data model (Section 2) has two countably infinite, disjoint
sets of values: ``Const`` (constants) and ``Null`` (marked, or labelled,
nulls, written ⊥ with subscripts).  We model constants as ordinary
hashable Python values (strings, integers, floats, ...) and nulls as
instances of the :class:`Null` class.  Distinct :class:`Null` objects
with the same label compare equal, so nulls can repeat across a database
(marked nulls); Codd nulls are simply marked nulls that happen not to
repeat (see :mod:`repro.datamodel.codd`).
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Iterable, Iterator

__all__ = [
    "Null",
    "NullFactory",
    "Value",
    "is_null",
    "is_const",
    "constants_in",
    "nulls_in",
    "fresh_null",
    "renew_fresh_nulls",
    "value_sort_key",
]

#: A database value: either a constant (any hashable non-Null object) or a Null.
Value = Any


class Null:
    """A marked (labelled) null value, written ⊥ₗ in the paper.

    Two nulls are equal iff they carry the same label.  Labels may be
    integers or strings; the global :func:`fresh_null` helper hands out
    integer-labelled nulls that are guaranteed fresh within a process.
    """

    __slots__ = ("label",)

    def __init__(self, label: Any = None):
        if label is None:
            label = _GLOBAL_FACTORY.next_label()
        self.label = label

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Null) and other.label == self.label

    def __ne__(self, other: object) -> bool:
        return not self.__eq__(other)

    def __hash__(self) -> int:
        return hash(("__null__", self.label))

    def __repr__(self) -> str:
        return f"⊥{self.label}"

    def __str__(self) -> str:
        return f"⊥{self.label}"


class NullFactory:
    """Hands out fresh nulls with increasing integer labels.

    A factory is handy in tests and generators that must create many
    nulls that are guaranteed not to clash with each other.
    """

    def __init__(self, prefix: str = "", start: int = 1):
        self._prefix = prefix
        self._counter = itertools.count(start)
        self._lock = threading.Lock()

    def next_label(self) -> Any:
        with self._lock:
            n = next(self._counter)
        return f"{self._prefix}{n}" if self._prefix else n

    def fresh(self) -> Null:
        """Return a fresh null, distinct from all previously created ones."""
        return Null(self.next_label())

    def fresh_many(self, count: int) -> list[Null]:
        """Return ``count`` pairwise distinct fresh nulls."""
        return [self.fresh() for _ in range(count)]


_GLOBAL_FACTORY = NullFactory(prefix="n")


def fresh_null() -> Null:
    """Return a process-unique fresh null from the global factory."""
    return _GLOBAL_FACTORY.fresh()


def renew_fresh_nulls() -> None:
    """Mint this process's fresh nulls from a label space of its own.

    A worker process starts with a copy of another process's label
    counter; called once at its start, its :func:`fresh_null` labels
    (``n<random token>.<k>``) can no longer repeat a label minted in the
    parent or in a sibling worker.
    """
    global _GLOBAL_FACTORY
    _GLOBAL_FACTORY = NullFactory(prefix=f"n{os.urandom(6).hex()}.")


def is_null(value: Value) -> bool:
    """Return True iff ``value`` is a (marked) null."""
    return isinstance(value, Null)


def is_const(value: Value) -> bool:
    """Return True iff ``value`` is a constant (i.e. not a null)."""
    return not isinstance(value, Null)


def constants_in(values: Iterable[Value]) -> Iterator[Value]:
    """Yield the constants occurring in ``values`` (in order, with repeats)."""
    for value in values:
        if is_const(value):
            yield value


def nulls_in(values: Iterable[Value]) -> Iterator[Null]:
    """Yield the nulls occurring in ``values`` (in order, with repeats)."""
    for value in values:
        if is_null(value):
            yield value


def value_sort_key(value: Value) -> tuple:
    """A total order over mixed constants and nulls, used for stable output.

    Constants sort before nulls; within each group we sort by the string
    representation of the type name and then the value itself, which gives a
    deterministic (if arbitrary) order even for mixed-type columns.
    """
    if is_null(value):
        return (1, str(type(value.label).__name__), str(value.label))
    return (0, str(type(value).__name__), str(value))

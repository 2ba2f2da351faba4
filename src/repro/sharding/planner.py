"""The shard planner: push a plan through horizontal fragments.

Given a relational algebra plan, the planner rewrites it into a *shard
plan* ``Q_s`` such that evaluating ``Q_s`` on every shard view and
unioning the partial results reproduces the monolithic answer::

    Q(D)  =  ⋃_i  Q_s(view_i)        (bag-additive union under bags)

The rewrite picks a **partitioned lineage** through the plan — the set
of paths along which fragments may flow — and renames the base-relation
leaves on that lineage to their ``::shard`` fragment names.  Everything
off the lineage is left untouched and therefore reads the *full*
relations present in every shard view (broadcast, the classic
fragment-and-replicate scheme).  The lineage recursion rules:

* σ, π, ρ — recurse into the child (``σ(⋃ᵢ Aᵢ) = ⋃ᵢ σ(Aᵢ)``, same for
  projection and renaming, with multiplicities under bags);
* ×, ⋈, ⋉ — recurse into the **left** child only, broadcast the right
  (``(⋃ᵢ Aᵢ) × B = ⋃ᵢ (Aᵢ × B)``);
* ∪ — recurse into both children (``⋃ᵢ (Aᵢ ∪ Bᵢ) = A ∪ B`` because the
  fragments of each side partition it);
* ∩ — recurse left, broadcast right (**set semantics only**: with bags
  ``min``-multiplicity does not distribute over a partition of the left
  side).

Everything else is non-distributive and raises
:class:`NonDistributableError`, which the engine turns into coalesced
(monolithic) evaluation:

* difference and the anti-semijoins — a fragment cannot know which of
  its rows survive subtraction of rows held elsewhere without the full
  left side (and the Figure 2b translation of ``−`` consults the *left*
  side's possible answers, which a fragment under-approximates);
* division — the dividend's groups are split across fragments;
* ``Dom^k`` and constant relations on the lineage — they are not
  horizontally partitioned data.

Which operators are allowed on the lineage is **strategy-specific**:
each strategy declares its lineage allowlist in its
:class:`~repro.engine.capabilities.StrategyCapabilities` record
(``shardable_ops`` / ``shardable_bag_ops``, operator class names) —
naïve evaluation is a literal evaluator so every distributive operator
qualifies, while the Figure 2b translation rewrites ``∩`` into ``−`` and
only supports the core operators, so its lineage is restricted to
σ/π/ρ/×/∪.  ``allowed_ops`` accepts either operator classes or their
names (``get_strategy(name).capabilities.ops_for(semantics)``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra import ast as ra
from .database import shard_relation_name

__all__ = ["NonDistributableError", "ShardPlan", "shard_plan"]


def _allowed_names(allowed_ops) -> frozenset[str]:
    """Normalise an allowlist of classes and/or names to names."""
    return frozenset(
        op if isinstance(op, str) else op.__name__ for op in allowed_ops
    )


class NonDistributableError(Exception):
    """The plan cannot be pushed through shards; coalesce instead."""


@dataclass(frozen=True)
class ShardPlan:
    """A rewritten plan plus the relations it reads per shard."""

    plan: ra.Query
    #: Relations read as per-shard fragments (the partitioned lineage).
    sharded_relations: tuple[str, ...]
    #: Relations read in full by every shard (broadcast subtrees).
    broadcast_relations: tuple[str, ...]
    #: True when the plan contains ``Dom^k`` somewhere: the active domain
    #: depends on the whole database, so partial results must be keyed on
    #: the full database fingerprint.
    uses_domain: bool


def shard_plan(query: ra.Query, allowed_ops: frozenset) -> ShardPlan:
    """Rewrite ``query`` for per-shard evaluation.

    ``allowed_ops`` may contain operator classes, operator class names,
    or a mix (capability records declare names).  Raises :class:`NonDistributableError` when any lineage
    operator is outside ``allowed_ops`` (or a lineage leaf is not a base
    relation).
    """
    sharded: set[str] = set()
    rewritten = _rewrite(query, _allowed_names(allowed_ops), sharded)
    broadcast: set[str] = set()
    uses_domain = False
    for node in ra.walk(rewritten):
        if isinstance(node, ra.RelationRef) and not node.name.endswith(
            shard_relation_name("")
        ):
            broadcast.add(node.name)
        if isinstance(node, ra.DomainRelation):
            uses_domain = True
    return ShardPlan(
        plan=rewritten,
        sharded_relations=tuple(sorted(sharded)),
        broadcast_relations=tuple(sorted(broadcast)),
        uses_domain=uses_domain,
    )


def _rewrite(node: ra.Query, allowed: frozenset, sharded: set[str]) -> ra.Query:
    if isinstance(node, ra.RelationRef):
        sharded.add(node.name)
        return ra.RelationRef(shard_relation_name(node.name))
    if isinstance(node, ra.DomainRelation):
        raise NonDistributableError(
            "the active-domain relation Dom^k depends on the whole database "
            "and cannot be partitioned"
        )
    if isinstance(node, ra.ConstantRelation):
        raise NonDistributableError(
            "a constant relation on the partitioned lineage would be "
            "replicated into every shard"
        )
    if type(node).__name__ not in allowed:
        raise NonDistributableError(
            f"operator {type(node).__name__} does not distribute over "
            "horizontal partitioning"
        )
    if isinstance(node, ra.Selection):
        return ra.Selection(_rewrite(node.child, allowed, sharded), node.condition)
    if isinstance(node, ra.Projection):
        return ra.Projection(_rewrite(node.child, allowed, sharded), node.attributes)
    if isinstance(node, ra.Rename):
        return ra.Rename(_rewrite(node.child, allowed, sharded), node.mapping_dict())
    if isinstance(node, ra.Union):
        return ra.Union(
            _rewrite(node.left, allowed, sharded),
            _rewrite(node.right, allowed, sharded),
        )
    if isinstance(node, (ra.Product, ra.NaturalJoin, ra.SemiJoin, ra.Intersection)):
        return type(node)(_rewrite(node.left, allowed, sharded), node.right)
    raise NonDistributableError(  # pragma: no cover - allowed_ops guards this
        f"no shard rewrite rule for operator {type(node).__name__}"
    )

"""Rule-based optimization of relational algebra plans.

Every evaluation strategy in the repro ultimately evaluates relational
algebra trees, and the trees it evaluates are dominated by one shape:
``Selection(Product(...))``.  The textbook evaluator materialises the
whole Cartesian product and filters afterwards, and the Figure 2
rewritings make that shape *worse* — the (Qt, Qf) translation
mechanically emits Product towers guarded by θ*-selections plus eagerly
enumerated ``Dom^k`` relations.  This module rewrites such plans into
equivalent ones that never build the product:

* **Logical rules** (applied to a fixpoint): split conjunctive
  selections, push selections through ×/∪/∩/−/ρ/π/⋈/⋉ toward the
  leaves, drop trivial selections, push projections through ×/ρ/π so
  unused columns are pruned early.
* **Physical rules** (one bottom-up pass): convert selections over a
  Product whose conditions contain attribute-to-attribute equalities
  into a hash :class:`~repro.algebra.ast.EquiJoin`, and convert
  selections over ``Dom^k`` into a
  :class:`~repro.algebra.ast.ConstrainedDomainRelation` whose
  enumeration is pruned by the selection instead of materialising
  ``Dom^k`` and filtering.  With a :class:`~repro.algebra.stats.Stats`
  provider (``optimize_plan(..., stats=...)``), the pass additionally
  *reorders joins across whole Product towers* greedily by estimated
  output cardinality and pins each ``EquiJoin``'s hash build side from
  the estimates (``build="left"``/``"right"``), so plans are chosen
  before anything materialises; without stats the pass keeps the PR 4
  behaviour (adjacent pairs, build side decided from actual input sizes
  at evaluation time).

**Per-mode soundness.**  The evaluator's two condition modes differ on
nulls (naïve two-valued evaluation treats a null as a value equal only
to itself; 3VL makes any comparison with a null *unknown* and keeps
only Kleene-true rows), so each rule declares the condition modes it is
sound in and the optimizer only applies rules sound for the requested
mode.  Most rules are mode-agnostic because they only *move* conditions
without changing what any condition evaluates to on any row; the
exception is ``trivial-self-equality`` (``σ_{A=A}(Q) → Q``), which
holds under naïve evaluation but not under 3VL, where ``σ_{A=A}``
filters out rows with a null in ``A``.  The physical nodes re-check
their conditions in the evaluator's own mode, so they are sound in
both.  All rules preserve bag multiplicities, hence set and bag
semantics alike.

Equivalence is enforced by the randomized harness in
``tests/test_differential.py`` (all six engine strategies, set and bag
semantics, both condition modes, crossed with every other engine knob).

The optimizer is pure and memoised: optimizing the same plan against
the same schema twice is a dictionary hit, which matters for the
strategies that evaluate one plan per possible world (``exact-certain``)
or per shard.  Once plans depend on statistics the memo key must too —
``optimize_plan`` folds ``stats.key()`` (a stable summary of every
relation's statistics) into the key, so a mutated database replans
instead of being served the stale physical plan its old statistics
chose.
"""

from __future__ import annotations

import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Mapping

from ..datamodel.schema import DatabaseSchema, RelationSchema
from ..datamodel.values import is_const
from . import ast as ra
from .conditions import (
    And,
    Attr,
    Comparison,
    Condition,
    Eq,
    FalseCondition,
    IsConst,
    IsNull,
    Neq,
    Not,
    Or,
    TrueCondition,
    attrs_in_condition,
    conjoin,
)
from .stats import PlanEstimator, Stats

__all__ = [
    "Rule",
    "OPTIMIZER_RULES",
    "optimize_plan",
    "clear_optimize_memo",
    "split_conjuncts",
    "rename_condition",
    "describe_rules",
]

#: How many node rewrites one optimization may perform before giving up
#: and returning the plan as-is (a safety valve, not a tuning knob: the
#: rules only move selections/projections downward, so real plans
#: converge long before this).
REWRITE_BUDGET = 20_000


# ----------------------------------------------------------------------
# Condition helpers
# ----------------------------------------------------------------------
def split_conjuncts(condition: Condition) -> list[Condition]:
    """Flatten a conjunction into its list of conjuncts (itself if not ∧)."""
    if isinstance(condition, And):
        return split_conjuncts(condition.left) + split_conjuncts(condition.right)
    return [condition]


def rename_condition(condition: Condition, mapping: Mapping[str, str]) -> Condition:
    """Rewrite every attribute reference through ``mapping`` (one pass)."""
    if not mapping:
        return condition

    def term(t):
        if isinstance(t, Attr) and t.name in mapping:
            return Attr(mapping[t.name])
        return t

    if isinstance(condition, (TrueCondition, FalseCondition)):
        return condition
    if isinstance(condition, IsConst):
        return IsConst(term(condition.term))
    if isinstance(condition, IsNull):
        return IsNull(term(condition.term))
    if isinstance(condition, Comparison):
        return type(condition)(term(condition.left), term(condition.right))
    if isinstance(condition, And):
        return And(
            rename_condition(condition.left, mapping),
            rename_condition(condition.right, mapping),
        )
    if isinstance(condition, Or):
        return Or(
            rename_condition(condition.left, mapping),
            rename_condition(condition.right, mapping),
        )
    if isinstance(condition, Not):
        return Not(rename_condition(condition.operand, mapping))
    raise TypeError(f"cannot rename condition of type {type(condition).__name__}")


# ----------------------------------------------------------------------
# The rule table
# ----------------------------------------------------------------------
BOTH_MODES = frozenset({"naive", "3vl"})
NAIVE_ONLY = frozenset({"naive"})


@dataclass(frozen=True)
class Rule:
    """One rewrite rule with its soundness declaration.

    For ``phase == "logical"``, ``fn(optimizer, node)`` returns the
    rewritten node or ``None`` when the rule does not apply; the
    fixpoint driver calls it directly.  For ``phase == "physical"`` the
    entry is declarative only — the transforms need the whole selection
    stack, so :meth:`_PlanOptimizer.physical_pass` dispatches them
    structurally by rule *name*, consulting the same per-mode gate
    (``fn`` is a never-called placeholder there; do not invoke it).
    ``modes`` lists the condition modes the rule is sound in; the
    optimizer skips rules whose modes do not include the requested one.
    """

    name: str
    description: str
    modes: frozenset
    phase: str
    fn: Callable


# -- logical rules ------------------------------------------------------
def _rule_drop_true_selection(opt, node):
    if isinstance(node, ra.Selection) and isinstance(node.condition, TrueCondition):
        return node.child
    return None


def _rule_empty_false_selection(opt, node):
    if isinstance(node, ra.Selection) and isinstance(node.condition, FalseCondition):
        return ra.ConstantRelation(opt.attrs(node.child), ())
    return None


def _rule_trivial_self_equality(opt, node):
    # σ_{A=A}(Q) → Q.  Naïve mode only: under 3VL the comparison is
    # unknown on rows where A is null, so the selection filters them.
    if not (isinstance(node, ra.Selection) and isinstance(node.condition, Eq)):
        return None
    left, right = node.condition.left, node.condition.right
    if (
        isinstance(left, Attr)
        and isinstance(right, Attr)
        and left.name == right.name
        and left.name in opt.attrs(node.child)
    ):
        return node.child
    return None


def _rule_trivial_self_disequality(opt, node):
    # σ_{A≠A}(Q) → ∅.  Sound in both modes: naïvely v ≠ v is false for
    # every value, and under 3VL the comparison is false on constants
    # and unknown on nulls — never Kleene-true.
    if not (isinstance(node, ra.Selection) and isinstance(node.condition, Neq)):
        return None
    left, right = node.condition.left, node.condition.right
    if (
        isinstance(left, Attr)
        and isinstance(right, Attr)
        and left.name == right.name
        and left.name in opt.attrs(node.child)
    ):
        return ra.ConstantRelation(opt.attrs(node.child), ())
    return None


def _rule_split_conjunction(opt, node):
    if isinstance(node, ra.Selection) and isinstance(node.condition, And):
        return ra.Selection(
            ra.Selection(node.child, node.condition.right), node.condition.left
        )
    return None


def _rule_push_selection_projection(opt, node):
    if not (isinstance(node, ra.Selection) and isinstance(node.child, ra.Projection)):
        return None
    projection = node.child
    if not attrs_in_condition(node.condition) <= set(projection.attributes):
        return None
    return ra.Projection(
        ra.Selection(projection.child, node.condition), projection.attributes
    )


def _rule_push_selection_rename(opt, node):
    if not (isinstance(node, ra.Selection) and isinstance(node.child, ra.Rename)):
        return None
    rename = node.child
    # The condition must reference only the rename's *output* attributes;
    # pushing an invalid reference below the rename would resolve it
    # against the pre-rename names and silently repair a malformed plan.
    if not attrs_in_condition(node.condition) <= set(opt.attrs(rename)):
        return None
    mapping = rename.mapping_dict()
    # A mapping entry whose old name is absent from the child is a no-op
    # for Rename (``mapping.get(a, a)``); inverting it would rewrite the
    # condition to reference an attribute the child does not have.
    child_attrs = set(opt.attrs(rename.child))
    effective = {old: new for old, new in mapping.items() if old in child_attrs}
    inverse = {new: old for old, new in effective.items()}
    if len(inverse) != len(effective):  # non-invertible rename: leave alone
        return None
    return ra.Rename(
        ra.Selection(rename.child, rename_condition(node.condition, inverse)), mapping
    )


def _rule_push_selection_setop(opt, node):
    # σ_θ(A ∪ B) → σ_θ(A) ∪ σ_θ'(B); same for ∩ (both sides) and − (the
    # left side only: filtering the subtrahend changes what survives).
    # The right child may use different attribute names (set operations
    # are positional, names come from the left), so θ is renamed
    # positionally for the right side.
    if not (
        isinstance(node, ra.Selection)
        and isinstance(node.child, (ra.Union, ra.Intersection, ra.Difference))
    ):
        return None
    child = node.child
    left_attrs = opt.attrs(child.left)
    if not attrs_in_condition(node.condition) <= set(left_attrs):
        return None
    left_selected = ra.Selection(child.left, node.condition)
    if isinstance(child, ra.Difference):
        return ra.Difference(left_selected, child.right)
    right_attrs = opt.attrs(child.right)
    mapping = {l: r for l, r in zip(left_attrs, right_attrs) if l != r}
    right_condition = rename_condition(node.condition, mapping)
    return type(child)(left_selected, ra.Selection(child.right, right_condition))


def _rule_push_selection_product(opt, node):
    # σ_θ(A × B) → σ_θ(A) × B when θ only reads A's attributes (and
    # symmetrically); also the left side of ⋈/⋉/▷ and of the unification
    # anti-semijoin, whose outputs keep every left attribute.  For the
    # Figure 2a translation the last case is the one that pays: its base
    # case is ``UnifAntiSemiJoin(Dom^k, R)``, so pushing θ* selections
    # into the Dom side lets the physical constrain-domain rule prune
    # the ``Dom^k`` enumeration instead of materialising it.  (The
    # anti-semijoin keeps a left row based only on that row and the
    # right side, so filtering the left first commutes in both condition
    # modes and preserves multiplicities.)
    if not isinstance(node, ra.Selection):
        return None
    child = node.child
    condition_attrs = attrs_in_condition(node.condition)
    if isinstance(child, (ra.Product, ra.EquiJoin)):
        left_attrs = set(opt.attrs(child.left))
        right_attrs = set(opt.attrs(child.right))
        if condition_attrs <= left_attrs:
            return opt.with_children(
                child, (ra.Selection(child.left, node.condition), child.right)
            )
        if condition_attrs <= right_attrs:
            return opt.with_children(
                child, (child.left, ra.Selection(child.right, node.condition))
            )
        return None
    if isinstance(
        child, (ra.NaturalJoin, ra.SemiJoin, ra.AntiSemiJoin, ra.UnifAntiSemiJoin)
    ):
        if condition_attrs <= set(opt.attrs(child.left)):
            return type(child)(ra.Selection(child.left, node.condition), child.right)
    return None


def _rule_collapse_projection(opt, node):
    if (
        isinstance(node, ra.Projection)
        and isinstance(node.child, ra.Projection)
        and set(node.attributes) <= set(node.child.attributes)
        # The inner projection must itself be valid: collapsing an inner
        # π that references attributes missing from its child would
        # swallow the KeyError the plan is due to raise.
        and set(node.child.attributes) <= set(opt.attrs(node.child.child))
    ):
        return ra.Projection(node.child.child, node.attributes)
    return None


def _rule_identity_projection(opt, node):
    if isinstance(node, ra.Projection) and node.attributes == opt.attrs(node.child):
        return node.child
    return None


def _rule_push_projection_rename(opt, node):
    if not (isinstance(node, ra.Projection) and isinstance(node.child, ra.Rename)):
        return None
    rename = node.child
    # Only push projections that reference the rename's actual output —
    # see the matching guard in _rule_push_selection_rename.
    if not set(node.attributes) <= set(opt.attrs(rename)):
        return None
    mapping = rename.mapping_dict()
    # Ignore no-op mapping entries (old name absent from the child), as
    # in _rule_push_selection_rename: inverting one would project a
    # nonexistent attribute.
    child_attrs = set(opt.attrs(rename.child))
    effective = {old: new for old, new in mapping.items() if old in child_attrs}
    inverse = {new: old for old, new in effective.items()}
    if len(inverse) != len(effective):
        return None
    kept = set(node.attributes)
    inner_attrs = tuple(inverse.get(a, a) for a in node.attributes)
    restricted = {old: new for old, new in effective.items() if new in kept}
    inner = ra.Projection(rename.child, inner_attrs)
    return ra.Rename(inner, restricted) if restricted else inner


def _rule_split_projection_product(opt, node):
    # π_α(A × B) → π_α(π_{α∩A}(A) × π_{α∩B}(B)): prune the columns a
    # product carries before it multiplies them out.
    if not (isinstance(node, ra.Projection) and isinstance(node.child, ra.Product)):
        return None
    product = node.child
    kept = set(node.attributes)
    left_attrs = opt.attrs(product.left)
    right_attrs = opt.attrs(product.right)
    left_kept = tuple(a for a in left_attrs if a in kept)
    right_kept = tuple(a for a in right_attrs if a in kept)
    if left_kept == left_attrs and right_kept == right_attrs:
        return None  # nothing to prune (also the fixpoint guard)
    return ra.Projection(
        ra.Product(
            ra.Projection(product.left, left_kept),
            ra.Projection(product.right, right_kept),
        ),
        node.attributes,
    )


# -- physical rules ----------------------------------------------------
# Declarative placeholders: the actual transforms live in
# _PlanOptimizer.physical_pass (they consume whole σ-stacks, which the
# per-node fn contract cannot express) and are gated there by rule name
# through the same modes filter as the logical rules.
def _rule_hash_equijoin(opt, node):  # pragma: no cover - see physical_pass
    return None


def _rule_reorder_joins(opt, node):  # pragma: no cover - see physical_pass
    return None


def _rule_constrain_domain(opt, node):  # pragma: no cover - see physical_pass
    return None


OPTIMIZER_RULES: tuple[Rule, ...] = (
    Rule(
        "drop-true-selection",
        "σ_true(Q) → Q",
        BOTH_MODES,
        "logical",
        _rule_drop_true_selection,
    ),
    Rule(
        "empty-false-selection",
        "σ_false(Q) → ∅ (a rowless constant table over Q's attributes)",
        BOTH_MODES,
        "logical",
        _rule_empty_false_selection,
    ),
    Rule(
        "trivial-self-equality",
        "σ_{A=A}(Q) → Q — naïve mode only (3VL filters null A)",
        NAIVE_ONLY,
        "logical",
        _rule_trivial_self_equality,
    ),
    Rule(
        "trivial-self-disequality",
        "σ_{A≠A}(Q) → ∅",
        BOTH_MODES,
        "logical",
        _rule_trivial_self_disequality,
    ),
    Rule(
        "split-conjunction",
        "σ_{θ₁∧θ₂}(Q) → σ_{θ₁}(σ_{θ₂}(Q))",
        BOTH_MODES,
        "logical",
        _rule_split_conjunction,
    ),
    Rule(
        "push-selection-projection",
        "σ_θ(π_α(Q)) → π_α(σ_θ(Q))",
        BOTH_MODES,
        "logical",
        _rule_push_selection_projection,
    ),
    Rule(
        "push-selection-rename",
        "σ_θ(ρ_m(Q)) → ρ_m(σ_{m⁻¹(θ)}(Q))",
        BOTH_MODES,
        "logical",
        _rule_push_selection_rename,
    ),
    Rule(
        "push-selection-setop",
        "σ_θ(A ∪/∩ B) → σ_θ(A) ∪/∩ σ_θ(B);  σ_θ(A − B) → σ_θ(A) − B",
        BOTH_MODES,
        "logical",
        _rule_push_selection_setop,
    ),
    Rule(
        "push-selection-product",
        "σ_θ(A × B) → σ_θ(A) × B when attrs(θ) ⊆ attrs(A) (and symmetric; "
        "left side of ⋈/⋉/▷ and of the unification anti-semijoin — which "
        "routes Figure 2a's θ* selections into the Dom^k side)",
        BOTH_MODES,
        "logical",
        _rule_push_selection_product,
    ),
    Rule(
        "collapse-projection",
        "π_α(π_β(Q)) → π_α(Q) when α ⊆ β",
        BOTH_MODES,
        "logical",
        _rule_collapse_projection,
    ),
    Rule(
        "identity-projection",
        "π_α(Q) → Q when α is exactly Q's attribute list",
        BOTH_MODES,
        "logical",
        _rule_identity_projection,
    ),
    Rule(
        "push-projection-rename",
        "π_α(ρ_m(Q)) → ρ_{m|α}(π_{m⁻¹(α)}(Q))",
        BOTH_MODES,
        "logical",
        _rule_push_projection_rename,
    ),
    Rule(
        "split-projection-product",
        "π_α(A × B) → π_α(π_{α∩A}(A) × π_{α∩B}(B))",
        BOTH_MODES,
        "logical",
        _rule_split_projection_product,
    ),
    Rule(
        "hash-equijoin",
        "σ-stack over A × B with A.x = B.y conjuncts → EquiJoin(A, B) "
        "plus residual selections (build side pinned from estimates when "
        "stats are available, else decided from actual sizes at eval time)",
        BOTH_MODES,
        "physical",
        _rule_hash_equijoin,
    ),
    Rule(
        "reorder-joins",
        "σ-stack over a whole ×/EquiJoin tower → greedy join tree ordered "
        "by estimated output cardinality (stats required; joins are "
        "commutative/associative on bags, so any order is equivalent)",
        BOTH_MODES,
        "physical",
        _rule_reorder_joins,
    ),
    Rule(
        "constrain-domain",
        "σ-stack over Dom^k → ConstrainedDomainRelation (enumeration pruned "
        "by bindings/equality groups/const-null guards, condition re-checked "
        "per tuple)",
        BOTH_MODES,
        "physical",
        _rule_constrain_domain,
    ),
)


def describe_rules() -> str:
    """A plain-text rule table (used by DESIGN.md and the examples)."""
    lines = []
    for rule in OPTIMIZER_RULES:
        modes = "+".join(sorted(rule.modes))
        lines.append(f"{rule.name:28s} [{rule.phase}, {modes}]  {rule.description}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# The optimizer
# ----------------------------------------------------------------------
class _PlanOptimizer:
    def __init__(
        self,
        schema: DatabaseSchema,
        condition_mode: str,
        bag: bool,
        physical: bool,
        stats: Stats | None = None,
    ):
        self.schema = schema
        self.condition_mode = condition_mode
        self.bag = bag
        self.physical = physical
        self.stats = stats
        self._estimator = (
            None if stats is None else PlanEstimator(schema, stats)
        )
        self._attrs_cache: dict[ra.Query, tuple[str, ...]] = {}
        self._budget = REWRITE_BUDGET
        self._logical_rules = [
            rule
            for rule in OPTIMIZER_RULES
            if rule.phase == "logical" and condition_mode in rule.modes
        ]
        # Physical rules go through the same per-mode gate as logical
        # ones: physical_pass checks membership here before applying a
        # transform, so a future mode-restricted physical rule cannot
        # silently run in a mode it did not declare.
        self._physical_rules = {
            rule.name
            for rule in OPTIMIZER_RULES
            if rule.phase == "physical" and condition_mode in rule.modes
        }

    # -- helpers -------------------------------------------------------
    def attrs(self, node: ra.Query) -> tuple[str, ...]:
        cached = self._attrs_cache.get(node)
        if cached is None:
            cached = tuple(node.output_attributes(self.schema))
            self._attrs_cache[node] = cached
        return cached

    @staticmethod
    def with_children(node: ra.Query, children) -> ra.Query:
        """Rebuild ``node`` with the given children (same operator)."""
        if isinstance(node, ra.Selection):
            return ra.Selection(children[0], node.condition)
        if isinstance(node, ra.Projection):
            return ra.Projection(children[0], node.attributes)
        if isinstance(node, ra.Rename):
            return ra.Rename(children[0], node.mapping_dict())
        if isinstance(node, ra.EquiJoin):
            return ra.EquiJoin(children[0], children[1], node.pairs, build=node.build)
        if isinstance(
            node,
            (
                ra.Product,
                ra.Union,
                ra.Difference,
                ra.Intersection,
                ra.Division,
                ra.UnifAntiSemiJoin,
                ra.NaturalJoin,
                ra.SemiJoin,
                ra.AntiSemiJoin,
            ),
        ):
            return type(node)(children[0], children[1])
        return node  # leaves

    # -- logical fixpoint ----------------------------------------------
    def rewrite(self, node: ra.Query) -> ra.Query:
        children = node.children()
        if children:
            new_children = [self.rewrite(child) for child in children]
            if tuple(new_children) != children:
                node = self.with_children(node, new_children)
        if self._budget <= 0:
            return node
        for rule in self._logical_rules:
            rewritten = rule.fn(self, node)
            if rewritten is not None and rewritten != node:
                self._budget -= 1
                return self.rewrite(rewritten)
        return node

    # -- physical pass -------------------------------------------------
    def physical_pass(self, node: ra.Query) -> ra.Query:
        if not isinstance(node, ra.Selection):
            children = node.children()
            if children:
                new_children = [self.physical_pass(child) for child in children]
                if tuple(new_children) != children:
                    node = self.with_children(node, new_children)
            return node
        # A σ-stack is one unit: gather every conjunct down to the base
        # operator *before* recursing.  Recursing into the inner
        # selections first would let an inner rewrite (in particular the
        # restore-order Projection that reorder-joins emits) hide the
        # join tower from the outer conjuncts, splitting one stack's
        # conjuncts across two half-informed rewrites.
        conjuncts: list[Condition] = []
        stack: list[ra.Selection] = []
        base: ra.Query = node
        while isinstance(base, ra.Selection):
            stack.append(base)
            conjuncts.extend(split_conjuncts(base.condition))
            base = base.child
        new_base = self.physical_pass(base)
        if isinstance(new_base, (ra.Product, ra.EquiJoin)):
            if "hash-equijoin" in self._physical_rules:
                if (
                    self._estimator is not None
                    and "reorder-joins" in self._physical_rules
                ):
                    reordered = self._reorder_joins(node, new_base, conjuncts)
                    if reordered is not None:
                        return reordered
                converted = self._to_equijoin(new_base, conjuncts)
                if converted is not None:
                    return converted
        elif "constrain-domain" in self._physical_rules:
            if isinstance(new_base, ra.DomainRelation) and new_base.attributes:
                return self._to_constrained_domain(new_base.attributes, conjuncts)
            if isinstance(new_base, ra.ConstrainedDomainRelation):
                return self._to_constrained_domain(
                    new_base.attributes,
                    split_conjuncts(new_base.condition) + conjuncts,
                )
        if new_base is base:
            return node
        rebuilt = new_base
        for selection in reversed(stack):
            rebuilt = ra.Selection(rebuilt, selection.condition)
        return rebuilt

    def _to_equijoin(self, base, conjuncts) -> ra.Query | None:
        """Turn a σ-stack over × (or an existing equi-join) into EquiJoin."""
        left_attrs = set(self.attrs(base.left))
        right_attrs = set(self.attrs(base.right))
        pairs: list[tuple[str, str]] = (
            list(base.pairs) if isinstance(base, ra.EquiJoin) else []
        )
        found_new = False
        residual: list[Condition] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, Eq):
                a, b = conjunct.left, conjunct.right
                if isinstance(a, Attr) and isinstance(b, Attr):
                    if a.name in left_attrs and b.name in right_attrs:
                        pairs.append((a.name, b.name))
                        found_new = True
                        continue
                    if a.name in right_attrs and b.name in left_attrs:
                        pairs.append((b.name, a.name))
                        found_new = True
                        continue
            residual.append(conjunct)
        if not found_new:
            return None
        build = self._build_side(base.left, base.right)
        plan: ra.Query = ra.EquiJoin(base.left, base.right, pairs, build=build)
        for conjunct in residual:
            plan = ra.Selection(plan, conjunct)
        return plan

    # -- estimate-driven planning (stats required) ---------------------
    def _estimate_rows(self, node: ra.Query) -> float | None:
        """Estimated cardinality of a subplan, or None when unavailable."""
        if self._estimator is None:
            return None
        try:
            return self._estimator.estimate(node).rows
        except (ValueError, KeyError, TypeError):
            return None

    def _build_side(self, left: ra.Query, right: ra.Query) -> str | None:
        """Which side to build the hash table on, from estimates.

        Ties go to the right side, matching the evaluator's actuals
        fallback (``len(right) <= len(left)`` builds right); without
        estimates the choice is left to the evaluator entirely.
        """
        left_rows = self._estimate_rows(left)
        right_rows = self._estimate_rows(right)
        if left_rows is None or right_rows is None:
            return None
        return "left" if left_rows < right_rows else "right"

    def _reorder_joins(self, node, base, conjuncts) -> ra.Query | None:
        """Rebuild a whole ×/EquiJoin tower as a greedy cost-ordered join tree.

        The σ-stack's conjuncts, the tower's internal residual selections
        and the pairs of already-formed equi-joins all go into one pool;
        leaves become singleton components; components are then merged
        smallest-estimated-join-first (equality-connected pairs become
        hash EquiJoins, disconnected components fall back to the
        smallest Product), applying every pooled conjunct as soon as one
        component covers its attributes.  Products/joins are commutative
        and associative on bags and selections commute with both, so any
        merge order is equivalent; a final Projection restores the
        original column order (a pure permutation, multiplicity-safe).
        """
        pool: list[Condition] = []
        leaves: list[ra.Query] = []
        self._flatten_join_tree(base, leaves, pool)
        pool.extend(conjuncts)
        if len(leaves) < 2:
            return None

        components: list[tuple[ra.Query, frozenset, float]] = []
        for leaf in leaves:
            rows = self._estimate_rows(leaf)
            if rows is None:
                return None
            components.append((leaf, frozenset(self.attrs(leaf)), rows))

        def absorb(component):
            """Apply every pooled conjunct the component now covers."""
            plan, attrs, rows = component
            remaining: list[Condition] = []
            for conjunct in pool:
                if attrs_in_condition(conjunct) <= attrs:
                    plan = ra.Selection(plan, conjunct)
                else:
                    remaining.append(conjunct)
            pool[:] = remaining
            if plan is not component[0]:
                rows = self._estimate_rows(plan)
                if rows is None:
                    return None
            return (plan, attrs, rows)

        for index, component in enumerate(components):
            absorbed = absorb(component)
            if absorbed is None:
                return None
            components[index] = absorbed

        def connecting_pairs(left_attrs, right_attrs):
            pairs = []
            used = []
            for conjunct in pool:
                if isinstance(conjunct, Eq):
                    a, b = conjunct.left, conjunct.right
                    if isinstance(a, Attr) and isinstance(b, Attr):
                        if a.name in left_attrs and b.name in right_attrs:
                            pairs.append((a.name, b.name))
                            used.append(conjunct)
                            continue
                        if a.name in right_attrs and b.name in left_attrs:
                            pairs.append((b.name, a.name))
                            used.append(conjunct)
            return pairs, used

        while len(components) > 1:
            best = None  # (rows, i, j, pairs, used)
            for i in range(len(components)):
                for j in range(i + 1, len(components)):
                    left_plan, left_attrs, left_rows = components[i]
                    right_plan, right_attrs, right_rows = components[j]
                    pairs, used = connecting_pairs(left_attrs, right_attrs)
                    if not pairs:
                        continue
                    build = "left" if left_rows < right_rows else "right"
                    candidate = ra.EquiJoin(
                        left_plan, right_plan, pairs, build=build
                    )
                    rows = self._estimate_rows(candidate)
                    if rows is None:
                        return None
                    if best is None or rows < best[0]:
                        best = (rows, i, j, candidate, used)
            if best is None:
                # No equality connects any pair: cross-product the two
                # smallest components (unavoidable; keep it cheap).
                order = sorted(
                    range(len(components)), key=lambda k: components[k][2]
                )
                i, j = sorted(order[:2])
                left_plan, left_attrs, left_rows = components[i]
                right_plan, right_attrs, right_rows = components[j]
                joined: ra.Query = ra.Product(left_plan, right_plan)
                rows = left_rows * right_rows
            else:
                rows, i, j, joined, used = best
                for conjunct in used:
                    pool.remove(conjunct)
                left_attrs = components[i][1]
                right_attrs = components[j][1]
            merged = absorb((joined, left_attrs | right_attrs, rows))
            if merged is None:
                return None
            components[i] = merged
            del components[j]

        plan, _attrs, _rows = components[0]
        for conjunct in pool:  # uncovered conjuncts: keep plan behaviour
            plan = ra.Selection(plan, conjunct)
        original = self.attrs(node)
        if self.attrs(plan) != original:
            plan = ra.Projection(plan, original)
        return plan

    def _flatten_join_tree(self, node: ra.Query, leaves, pool) -> None:
        """Decompose nested ×/EquiJoin/σ into leaves plus a conjunct pool."""
        if isinstance(node, ra.Product):
            self._flatten_join_tree(node.left, leaves, pool)
            self._flatten_join_tree(node.right, leaves, pool)
        elif isinstance(node, ra.EquiJoin):
            for a, b in node.pairs:
                pool.append(Eq(Attr(a), Attr(b)))
            self._flatten_join_tree(node.left, leaves, pool)
            self._flatten_join_tree(node.right, leaves, pool)
        elif isinstance(node, ra.Selection):
            pool.extend(split_conjuncts(node.condition))
            self._flatten_join_tree(node.child, leaves, pool)
        else:
            leaves.append(node)

    def _to_constrained_domain(self, attrs: tuple[str, ...], conjuncts) -> ra.Query:
        attr_set = set(attrs)
        parent = {a: a for a in attrs}

        def find(a: str) -> str:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        bindings: list[tuple[str, object]] = []
        require_const: list[str] = []
        require_null: list[str] = []
        for conjunct in conjuncts:
            if isinstance(conjunct, Eq):
                a, b = conjunct.left, conjunct.right
                if (
                    isinstance(a, Attr)
                    and isinstance(b, Attr)
                    and a.name in attr_set
                    and b.name in attr_set
                ):
                    parent[find(a.name)] = find(b.name)
                    continue
                for attr_term, lit_term in ((a, b), (b, a)):
                    if (
                        isinstance(attr_term, Attr)
                        and attr_term.name in attr_set
                        and lit_term.is_literal()
                        and is_const(lit_term.value)
                    ):
                        bindings.append((attr_term.name, lit_term.value))
                        break
            elif isinstance(conjunct, IsConst) and isinstance(conjunct.term, Attr):
                if conjunct.term.name in attr_set:
                    require_const.append(conjunct.term.name)
            elif isinstance(conjunct, IsNull) and isinstance(conjunct.term, Attr):
                if conjunct.term.name in attr_set:
                    require_null.append(conjunct.term.name)
        classes: dict[str, list[str]] = {}
        for a in attrs:
            classes.setdefault(find(a), []).append(a)
        groups = tuple(
            tuple(members) for members in classes.values() if len(members) > 1
        )
        return ra.ConstrainedDomainRelation(
            attrs,
            conjoin(conjuncts),
            groups=groups,
            bindings=bindings,
            require_const=tuple(require_const),
            require_null=tuple(require_null),
        )

    def run(self, query: ra.Query) -> ra.Query:
        query = self.rewrite(query)
        if self.physical:
            query = self.physical_pass(query)
        return query


def _schema_key(schema: DatabaseSchema) -> tuple:
    return tuple(sorted((rs.name, rs.attributes) for rs in schema))


def _plan_is_well_formed(query: ra.Query, schema: DatabaseSchema) -> bool:
    """Can every node's output attributes be computed under ``schema``?"""
    try:
        for node in ra.walk(query):
            node.output_attributes(schema)
    except (ValueError, KeyError, TypeError):
        return False
    return True


_OPTIMIZE_MEMO: OrderedDict[tuple, ra.Query] = OrderedDict()
_OPTIMIZE_MEMO_SIZE = 2048
_MEMO_LOCK = threading.Lock()


def clear_optimize_memo() -> None:
    """Drop every memoised plan (for tests that patch the rule table).

    Ordinary use never needs this: the memo key carries the schema, the
    mode flags and the stats fingerprint, so anything that should change
    the output already misses.
    """
    with _MEMO_LOCK:
        _OPTIMIZE_MEMO.clear()


def _optimize_uncached(
    query: ra.Query,
    schema_key: tuple,
    condition_mode: str,
    bag: bool,
    physical: bool,
    stats: Stats | None,
) -> ra.Query:
    schema = DatabaseSchema(RelationSchema(name, attrs) for name, attrs in schema_key)
    if not _plan_is_well_formed(query, schema):
        # Malformed plans (overlapping product attributes, unknown
        # relations, ...) are returned untouched so evaluation raises
        # exactly the error it would have raised without the optimizer.
        return query
    optimizer = _PlanOptimizer(schema, condition_mode, bag, physical, stats=stats)
    try:
        return optimizer.run(query)
    except (ValueError, KeyError, TypeError) as exc:
        # A failure on a *well-formed* plan is an optimizer bug, not a
        # user error: fall back to the unoptimized plan (results stay
        # correct) but say so, lest the speedups silently vanish.
        warnings.warn(
            f"plan optimizer failed on a well-formed plan ({exc!r}); "
            "evaluating unoptimized",
            RuntimeWarning,
            stacklevel=3,
        )
        return query


def optimize_plan(
    query: ra.Query,
    schema: DatabaseSchema,
    *,
    condition_mode: str = "naive",
    bag: bool = False,
    physical: bool = True,
    stats: Stats | None = None,
) -> ra.Query:
    """Optimize a relational algebra plan for evaluation on ``schema``.

    ``condition_mode`` selects which rules are sound (see the module
    docstring); ``bag`` is carried for future bag-only rules (every
    current rule preserves multiplicities); ``physical=False`` restricts
    the rewrite to the logical rules, for consumers — like the c-table
    evaluator — that cannot execute the physical operator nodes.
    ``stats`` enables the estimate-driven physical rules (join
    reordering, hash build sides): pass a :class:`~repro.algebra.stats.Stats`
    provider built over the database the plan will run against.

    The result is memoised on ``(plan, schema, mode, bag, physical,
    stats fingerprint)``, so repeated optimization of one plan (per
    possible world, per shard, per Qt/Qf pair member) costs one
    dictionary lookup.  The stats fingerprint — ``stats.key()``, which
    hashes every relation's content-addressed statistics — is part of
    the key, so mutating the database yields a fresh physical plan
    rather than a stale memo hit.
    """
    key = (
        query,
        _schema_key(schema),
        condition_mode,
        bool(bag),
        bool(physical),
        None if stats is None else stats.key(),
    )
    with _MEMO_LOCK:
        cached = _OPTIMIZE_MEMO.get(key)
        if cached is not None:
            _OPTIMIZE_MEMO.move_to_end(key)
            return cached
    result = _optimize_uncached(
        query, key[1], condition_mode, bool(bag), bool(physical), stats
    )
    with _MEMO_LOCK:
        _OPTIMIZE_MEMO[key] = result
        _OPTIMIZE_MEMO.move_to_end(key)
        while len(_OPTIMIZE_MEMO) > _OPTIMIZE_MEMO_SIZE:
            _OPTIMIZE_MEMO.popitem(last=False)
    return result

"""Action-prefix-form transformation (paper Section 2, rules 9.1-9.4).

The derivation algorithm restricts the right operand of every disabling
operator ``[>`` to *action prefix form*::

    Dis = [] ( Event_Id_i ; Seq_i )        i = 1..n

"Using expansion theorems every finitely branching expression can be
written in action prefix form" — the paper assumes this transformation
happens *before* any processing by the algorithm.  This module implements
it: :func:`head_normal_form` rewrites one expression into a choice of
action prefixes using the operational semantics (the expansion theorems
T1-T3 of Annex A computed semantically), and
:func:`transform_disable_operands` applies it to every ``[>`` right
operand in a specification.
"""

from __future__ import annotations

from typing import Dict

from repro.errors import ExpansionError
from repro.lotos.events import Delta, Event
from repro.lotos.semantics import Semantics
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer
from repro.lotos.syntax import (
    ActionPrefix,
    Behaviour,
    Choice,
    DefBlock,
    Disable,
    Exit,
    ProcessDefinition,
    ProcessRef,
    Specification,
    Stop,
)


def is_action_prefix_form(node: Behaviour) -> bool:
    """Whether ``node`` is a choice tree whose leaves are action prefixes."""
    if isinstance(node, ActionPrefix):
        return True
    if isinstance(node, Choice):
        return is_action_prefix_form(node.left) and is_action_prefix_form(node.right)
    return False


def head_normal_form(
    node: Behaviour,
    semantics: Semantics,
    allow_exit: bool = False,
) -> Behaviour:
    """One-level expansion: rewrite ``node`` as ``[] (event_i ; residual_i)``.

    The residuals are taken verbatim from the operational semantics, so a
    single level of expansion suffices — the grammar's ``Seq -> (e)``
    production (rule 19) admits arbitrary expressions after the first
    event.  ``delta``-initial expressions cannot be written as an event
    prefix; they yield an ``exit`` alternative when ``allow_exit=True``
    and raise :class:`ExpansionError` otherwise (a disable operand must
    begin with its disrupting event — paper Section 2).
    """
    if is_action_prefix_form(node):
        return node
    alternatives = []
    for label, residual in semantics.transitions(node):
        if isinstance(label, Delta):
            if not allow_exit:
                raise ExpansionError(
                    "expression may terminate immediately and therefore has "
                    "no action prefix form (a disable operand must start "
                    "with its disrupting event)"
                )
            alternatives.append(Exit())
        elif isinstance(label, Event):
            alternatives.append(ActionPrefix(label, residual))
        else:  # pragma: no cover - semantics only emits events and delta
            raise ExpansionError(f"cannot prefix label {label}")
    if not alternatives:
        return Stop()
    result = alternatives[-1]
    for alternative in reversed(alternatives[:-1]):
        result = Choice(alternative, result)
    return result


def transform_disable_operands(spec: Specification) -> Specification:
    """Rewrite every ``[>`` right operand of ``spec`` to action prefix form.

    ``spec`` must already be flat (single WHERE level — see
    :func:`repro.lotos.scope.flatten_spec`); the transformation needs the
    full process environment to unfold references occurring at the head
    of a disable operand.

    Residual expressions introduced by the expansion are themselves
    transformed, so the result contains no disable whose right operand is
    not a choice of action prefixes.
    """
    environment = {
        definition.name: definition.body.behaviour for definition in spec.definitions
    }
    for definition in spec.definitions:
        if definition.body.definitions:
            raise ExpansionError(
                "transform_disable_operands expects a flattened specification"
            )
    semantics = Semantics(environment, bind_occurrences=False)
    cache: Dict[Behaviour, Behaviour] = {}
    expansions = [0]  # disable operands actually head-normalized

    def rewrite(node: Behaviour, depth: int) -> Behaviour:
        if depth > 64:
            raise ExpansionError(
                "disable-operand expansion did not converge (recursion too deep)"
            )
        cached = cache.get(node)
        if cached is not None:
            return cached
        if isinstance(node, ProcessRef):
            cache[node] = node
            return node
        if isinstance(node, Disable):
            left = rewrite(node.left, depth)
            if not is_action_prefix_form(node.right):
                expansions[0] += 1
            right = head_normal_form(node.right, semantics)
            # The expansion may splice in residuals containing further
            # disables (e.g. unfolding a process body); normalize them too.
            right = rewrite_children(right, depth + 1)
            if left == node.left and right == node.right:
                result: Behaviour = node
            else:
                result = Disable(left, right, nid=node.nid)
        else:
            result = rewrite_children(node, depth)
        cache[node] = result
        return result

    def rewrite_children(node: Behaviour, depth: int) -> Behaviour:
        children = node.children()
        if not children:
            return node
        new_children = tuple(rewrite(child, depth) for child in children)
        # Structural (not identity) comparison: the memo cache may return
        # an equal node object built for another occurrence of the same
        # subterm, which must not count as a change.
        if all(new == old for new, old in zip(new_children, children)):
            return node
        return node.with_children(new_children)

    with get_tracer().span("expansion.normalize_disable") as span:
        new_root = rewrite(spec.root.behaviour, 0)
        new_defs = []
        changed = new_root != spec.root.behaviour
        for definition in spec.definitions:
            new_body = rewrite(definition.body.behaviour, 0)
            changed = changed or new_body != definition.body.behaviour
            new_defs.append(
                ProcessDefinition(definition.name, DefBlock(new_body))
            )
        span.set(expanded_operands=expansions[0])
        if expansions[0]:
            get_registry().counter(
                "expansion.hnf_rewrites",
                help="disable operands rewritten to action prefix form",
            ).inc(expansions[0])
    if not changed:
        return spec
    return Specification(DefBlock(new_root, tuple(new_defs)))

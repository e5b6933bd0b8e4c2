"""Behavioural equivalences on finite LTSs.

The paper's correctness theorem (Section 5) is stated in terms of
*observation congruence* ``≈`` [Lotos 89] — weak bisimulation plus the
rooted condition on initial internal moves.  This module implements, by
partition refinement:

* strong bisimulation equivalence,
* weak bisimulation equivalence (saturation + strong refinement),
* observation congruence (rooted weak bisimulation),

all between two finite, complete LTSs.  Bounded comparison of
infinite-state systems lives in :mod:`repro.lotos.traces`.

Every check runs on one integer-coded kernel.  The states of the LTSs
under comparison are numbered ``0 .. n-1`` (a disjoint union), each
distinct observable label is interned once to a positive id, and
an edge ``s -l-> t`` becomes the single int ``label_id * n + t``.  Label
id 0 is the internal move: ``tau`` in the strong relation, ``eps``
(zero or more ``tau`` steps) in the saturated one.  Refinement then
hashes ``label_id * n + block`` ints instead of ``(Label, int)`` tuples.

The result of :func:`weak_bisimilar` carries its saturated rows and
blocks to :func:`observationally_congruent`, so the rooted condition
costs no second saturation or refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import VerificationError
from repro.lotos.events import Label
from repro.lotos.lts import LTS
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer

#: One coded row per state: ``label_id * n + target`` for each edge.
Rows = List[Tuple[int, ...]]


@dataclass
class _Coded:
    """LTSs numbered as one disjoint union, their edges coded as ints.

    ``visible[s]`` holds ``label_id * n + target`` for each observable
    edge of ``s`` (label ids are positive); ``tau[s]`` holds the targets of
    its internal edges, which are also their codes under label id 0.
    """

    n: int
    visible: Rows
    tau: Rows
    initials: Tuple[int, ...]


def _code(*ltss: LTS) -> _Coded:
    for lts, which in zip(ltss, ("first", "second")):
        if not lts.complete:
            raise VerificationError(
                f"the {which} LTS is truncated; equivalence checking requires "
                "a complete state graph (raise max_states or use bounded "
                "trace comparison instead)"
            )
    n = sum(lts.num_states for lts in ltss)
    ids: Dict[Label, int] = {}
    visible: Rows = []
    tau: Rows = []
    initials = []
    offset = 0
    for lts in ltss:
        initials.append(lts.initial + offset)
        for outgoing in lts.edges:
            coded: List[int] = []
            internal: List[int] = []
            for label, target in outgoing:
                label_id = ids.get(label)
                if label_id is None:
                    label_id = ids[label] = len(ids) + 1 if label.is_observable() else 0
                if label_id:
                    coded.append(label_id * n + offset + target)
                else:
                    internal.append(offset + target)
            visible.append(tuple(coded))
            tau.append(tuple(internal))
        offset += lts.num_states
    return _Coded(n, visible, tau, tuple(initials))


def _refine(n: int, rows: Rows) -> List[int]:
    """Signature-based partition refinement; returns block ids per state.

    A state's signature is its block plus the set of ``label_id * n +
    block`` ints over its coded edges; blocks are numbered by first
    occurrence, so an unchanged partition reproduces the same list.
    """
    blocks = [0] * n
    iterations = 0
    while True:
        iterations += 1
        mapping: Dict[Tuple[int, frozenset], int] = {}
        new_blocks = [
            mapping.setdefault(
                (block, frozenset([code - (t := code % n) + blocks[t] for code in row])),
                len(mapping),
            )
            for block, row in zip(blocks, rows)
        ]
        if new_blocks == blocks:
            registry = get_registry()
            registry.counter(
                "equivalence.refine_iterations",
                help="partition-refinement sweeps until fixpoint",
            ).inc(iterations)
            registry.gauge(
                "equivalence.blocks",
                help="equivalence classes at the last fixpoint",
            ).set(len(mapping))
            return blocks
        blocks = new_blocks


def strong_bisimilar(lts1: LTS, lts2: LTS) -> bool:
    """Strong bisimulation equivalence of the two initial states."""
    coded = _code(lts1, lts2)
    blocks = _refine(coded.n, [v + t for v, t in zip(coded.visible, coded.tau)])
    initial1, initial2 = coded.initials
    return blocks[initial1] == blocks[initial2]


def _saturate(coded: _Coded) -> Rows:
    """Weak (double-arrow) transition relation with epsilon self-loops.

    ``s =a=> t``  iff  ``s (tau)* a (tau)* t`` for observable ``a``;
    ``s =eps=> t`` iff ``s (tau)* t`` (reflexive), coded as plain ``t``.
    Strong bisimulation on the saturated system coincides with weak
    bisimulation on the original.
    """
    n, visible, tau = coded.n, coded.visible, coded.tau
    closure: List[Set[int]] = []
    for state in range(n):
        seen = {state}
        stack = [state]
        while stack:
            for target in tau[stack.pop()]:
                if target not in seen:
                    seen.add(target)
                    stack.append(target)
        closure.append(seen)

    # One observable step followed by any number of internal ones.
    step: List[Set[int]] = []
    for state in range(n):
        weak: Set[int] = set()
        for code in visible[state]:
            target = code % n
            weak.update(map((code - target).__add__, closure[target]))
        step.append(weak)

    after = step.__getitem__
    return [tuple(reach.union(*map(after, reach))) for reach in closure]


def _weak_blocks(coded: _Coded) -> Tuple[List[int], Rows]:
    """Weak-bisimulation blocks and saturated rows of a coded union."""
    with get_tracer().span("equivalence.weak_bisimulation", states=coded.n) as span:
        with get_tracer().span("equivalence.saturate"):
            saturated = _saturate(coded)
        get_registry().counter(
            "equivalence.saturated_edges",
            help="weak (double-arrow) transitions after saturation",
        ).inc(sum(map(len, saturated)))
        with get_tracer().span("equivalence.refine"):
            blocks = _refine(coded.n, saturated)
        span.set(blocks=len(set(blocks)))
    return blocks, saturated


class WeakBisimulation:
    """Outcome of :func:`weak_bisimilar`: truthy iff the two are weakly bisimilar.

    It keeps the coded union, its saturated rows and its blocks, which
    :func:`observationally_congruent` reuses for the rooted condition.
    Nothing is cached anywhere: the relation lives exactly as long as the
    caller holds the outcome.
    """

    __slots__ = ("coded", "blocks", "saturated")

    def __init__(self, coded: _Coded, blocks: List[int], saturated: Rows) -> None:
        self.coded = coded
        self.blocks = blocks
        self.saturated = saturated

    def __bool__(self) -> bool:
        initial1, initial2 = self.coded.initials
        return self.blocks[initial1] == self.blocks[initial2]

    def __repr__(self) -> str:
        return f"WeakBisimulation({bool(self)})"


def weak_bisimilar(lts1: LTS, lts2: LTS) -> WeakBisimulation:
    """Weak bisimulation equivalence of the two initial states.

    The result is truthy iff they are equivalent; pass it on to
    :func:`observationally_congruent` to decide the rooted condition.
    """
    coded = _code(lts1, lts2)
    return WeakBisimulation(coded, *_weak_blocks(coded))


def observationally_congruent(
    lts1: LTS, lts2: LTS, weak: Optional[WeakBisimulation] = None
) -> bool:
    """Observation congruence ``≈`` (rooted weak bisimulation).

    The initial states must match each other's *first* move in the rooted
    sense: an initial internal move of one side must be answered by at
    least one internal move of the other (``B [] i;B`` is weakly
    bisimilar, but not congruent, to ``i;B`` — law I2 of Annex A relates
    them only under a choice context).

    ``weak`` is the outcome of ``weak_bisimilar(lts1, lts2)`` when the
    caller already has it; the rooted condition then reuses its relation.
    """
    if weak is None:
        weak = weak_bisimilar(lts1, lts2)
    if not weak:
        return False
    n, blocks, saturated = weak.coded.n, weak.blocks, weak.saturated
    visible, tau = weak.coded.visible, weak.coded.tau

    def rooted_match(source: int, other: int) -> bool:
        # Rooted condition: an internal move must be answered by *at
        # least one* internal step — one strong tau step, then any number
        # more (the eps codes, those below n, of that step's target).
        answers = {
            blocks[final]
            for mid in tau[other]
            for final in saturated[mid]
            if final < n
        }
        if any(blocks[target] not in answers for target in tau[source]):
            return False
        weak_moves = {code - (t := code % n) + blocks[t] for code in saturated[other]}
        return all(
            code - (t := code % n) + blocks[t] in weak_moves
            for code in visible[source]
        )

    initial1, initial2 = weak.coded.initials
    return rooted_match(initial1, initial2) and rooted_match(initial2, initial1)


def weak_bisimulation_classes(lts: LTS) -> List[int]:
    """Weak-bisimulation equivalence classes within a single LTS."""
    if not lts.complete:
        raise VerificationError("LTS is truncated")
    blocks, _ = _weak_blocks(_code(lts))
    return blocks


def minimize_weak(lts: LTS) -> Tuple[int, Dict[int, Set[int]]]:
    """Number of weak-bisimulation classes and the class partition."""
    blocks = weak_bisimulation_classes(lts)
    partition: Dict[int, Set[int]] = {}
    for state, block in enumerate(blocks):
        partition.setdefault(block, set()).add(state)
    return len(partition), partition

"""Reachability-based design-error detection for composed systems.

Three classic error classes (paper Section 1):

**Deadlocks**
    reachable global states with no enabled transition that are not the
    residue of successful termination.

**Unspecified receptions**
    reachable states in which a message sits at the head of a channel
    while its destination entity is *blocked* — every move the entity
    could make is a receive, and none of them matches anything the
    medium offers it.  (Stale messages that remain in flight at a
    terminal state are reported separately: they are the disable
    operator's documented residue, harmless under the selective
    discipline but a reception nobody specified.)

**Non-executable interactions**
    send/receive/service-primitive occurrences in the entity texts that
    no reachable execution ever performs.  On a complete exploration
    these are dead code; on a truncated one they are reported as "not
    seen within the explored region".

The analysis explores the composed system with messages visible
(``hide=False``) so transitions carry enough information to attribute
behaviour to entities.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lotos.events import (
    Event,
    Label,
    ReceiveAction,
    SendAction,
    ServicePrimitive,
)
from repro.lotos.lts import LTS, build_lts
from repro.lotos.syntax import ActionPrefix, Specification
from repro.runtime.system import DistributedSystem, SystemState, build_system


@dataclass
class DeadlockReport:
    """One genuine deadlock: the state and a shortest witness trace."""

    state_index: int
    witness: Tuple[Label, ...]
    pending_messages: Tuple[Tuple[int, int, object], ...]

    def __str__(self) -> str:
        path = " . ".join(str(label) for label in self.witness) or "<initial>"
        pending = ", ".join(
            f"{src}->{dest}:{message}" for src, dest, message in self.pending_messages
        )
        return f"deadlock after [{path}]" + (f" with pending {pending}" if pending else "")


@dataclass
class BlockedReception:
    """An entity wedged on receives none of which the medium can satisfy."""

    state_index: int
    place: int
    wanted: Tuple[ReceiveAction, ...]
    available: Tuple[Tuple[int, int, object], ...]

    def __str__(self) -> str:
        wants = ", ".join(str(event) for event in self.wanted)
        return f"place {self.place} blocked waiting for [{wants}]"


@dataclass
class AnalysisReport:
    """Aggregated findings over the explored state space."""

    states_explored: int = 0
    complete: bool = True
    deadlocks: List[DeadlockReport] = field(default_factory=list)
    blocked_receptions: List[BlockedReception] = field(default_factory=list)
    stale_at_termination: List[Tuple[int, int, object]] = field(default_factory=list)
    non_executable: List[Tuple[int, Event]] = field(default_factory=list)
    #: Reachable states caught in an internal cycle from which no
    #: observable action is reachable any more (livelock/divergence).
    divergences: List[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not (
            self.deadlocks
            or self.blocked_receptions
            or self.stale_at_termination
            or self.non_executable
            or self.divergences
        )

    def render(self) -> str:
        lines = [
            f"states explored     : {self.states_explored}"
            + ("" if self.complete else " (truncated)"),
            f"deadlocks           : {len(self.deadlocks)}",
            f"blocked receptions  : {len(self.blocked_receptions)}",
            f"stale at termination: {len(self.stale_at_termination)}",
            f"non-executable      : {len(self.non_executable)}",
            f"divergent states    : {len(self.divergences)}",
        ]
        for deadlock in self.deadlocks[:5]:
            lines.append(f"  {deadlock}")
        for blocked in self.blocked_receptions[:5]:
            lines.append(f"  {blocked}")
        for place, event in self.non_executable[:10]:
            lines.append(f"  never executed at place {place}: {event}")
        return "\n".join(lines)


def _normalize(event: Event) -> Event:
    """Strip occurrence bindings so runtime labels match static text.

    Static entity texts carry symbolic occurrences; executed labels carry
    the concrete occurrence path of the instance that performed them.
    Interaction *identity* for dead-code purposes is (endpoint, node,
    kind).
    """
    from repro.lotos.events import SyncMessage

    if isinstance(event, SendAction):
        message = SyncMessage(event.message.node, None, event.message.kind)
        return SendAction(dest=event.dest, message=message)
    if isinstance(event, ReceiveAction):
        message = SyncMessage(event.message.node, None, event.message.kind)
        return ReceiveAction(src=event.src, message=message)
    return event


def _static_interactions(
    entities: Dict[int, Specification]
) -> Set[Tuple[int, Event]]:
    """(place, event) for every interaction occurrence in the texts."""
    found: Set[Tuple[int, Event]] = set()
    for place, spec in entities.items():
        for node in spec.walk_behaviours():
            if isinstance(node, ActionPrefix):
                event = node.event
                if isinstance(event, (SendAction, ReceiveAction, ServicePrimitive)):
                    found.add((place, _normalize(event)))
    return found


def _witness_paths(lts: LTS) -> Dict[int, Tuple[Label, ...]]:
    """Shortest label path from the initial state to every state."""
    paths: Dict[int, Tuple[Label, ...]] = {lts.initial: ()}
    frontier = [lts.initial]
    while frontier:
        next_frontier = []
        for state in frontier:
            for label, target in lts.edges[state]:
                if target not in paths:
                    paths[target] = paths[state] + (label,)
                    next_frontier.append(target)
        frontier = next_frontier
    return paths


def analyze_system(
    system: DistributedSystem,
    entities: Optional[Dict[int, Specification]] = None,
    max_states: int = 20_000,
) -> AnalysisReport:
    """Explore ``system`` exhaustively (bounded) and report design errors.

    ``system`` should be built with ``hide=False`` so interactions are
    attributable; :func:`analyze_protocol` does this for you.
    """
    lts = build_lts(system.initial, system, max_states=max_states, on_limit="truncate")
    report = AnalysisReport(states_explored=lts.num_states, complete=lts.complete)

    executed: Set[Tuple[int, Event]] = set()
    place_of_index = {index: place for index, place in enumerate(system.places)}

    for state_index, outgoing in enumerate(lts.edges):
        for label, _target in outgoing:
            if isinstance(label, SendAction) and label.src is not None:
                executed.add((label.src, _normalize(label.short())))
            elif isinstance(label, ReceiveAction) and label.dest is not None:
                executed.add((label.dest, _normalize(label.short())))
            elif isinstance(label, ServicePrimitive):
                executed.add((label.place, label))

    paths = _witness_paths(lts)

    for state_index in lts.deadlock_states():
        if state_index in lts.truncated_states:
            continue
        coded = lts.state_terms[state_index]
        term: SystemState = system.decode(coded)
        if system.is_terminated(coded):
            for pending in term.medium.iter_messages():
                report.stale_at_termination.append(pending)
            continue
        report.deadlocks.append(
            DeadlockReport(
                state_index,
                paths.get(state_index, ()),
                tuple(term.medium.iter_messages()),
            )
        )
        # attribute the deadlock: which entities are wedged on receives?
        for index, behaviour in enumerate(term.entities):
            place = place_of_index[index]
            moves = system._semantics[index].transitions(behaviour)
            wanted = tuple(
                label for label, _ in moves if isinstance(label, ReceiveAction)
            )
            if moves and wanted and len(wanted) == len(moves):
                report.blocked_receptions.append(
                    BlockedReception(
                        state_index,
                        place,
                        wanted,
                        tuple(term.medium.iter_messages()),
                    )
                )

    if entities is not None:
        static = _static_interactions(entities)
        for place, event in sorted(
            static - executed, key=lambda item: (item[0], str(item[1]))
        ):
            report.non_executable.append((place, event))

    if lts.complete:
        report.divergences = _divergent_states(lts)
    return report


def _divergent_states(lts: LTS) -> List[int]:
    """States from which no observable action is ever reachable again,
    yet some (internal) transition still exists — livelock.

    Computed backwards: mark states with an observable outgoing edge,
    propagate reachability-of-observable against the edge direction;
    unmarked states that still move are divergent.
    """
    can_observe = [False] * lts.num_states
    predecessors: Dict[int, List[int]] = {}
    worklist = []
    for state, outgoing in enumerate(lts.edges):
        for label, target in outgoing:
            predecessors.setdefault(target, []).append(state)
            if label.is_observable() and not can_observe[state]:
                can_observe[state] = True
                worklist.append(state)
    while worklist:
        state = worklist.pop()
        for predecessor in predecessors.get(state, ()):  # pragma: no branch
            if not can_observe[predecessor]:
                can_observe[predecessor] = True
                worklist.append(predecessor)
    return [
        state
        for state, outgoing in enumerate(lts.edges)
        if outgoing and not can_observe[state]
    ]


def analyze_protocol(
    entities: Dict[int, Specification],
    max_states: int = 20_000,
    discipline: str = "fifo",
    require_empty_at_exit: bool = False,
    use_occurrences: bool = True,
) -> AnalysisReport:
    """Build the composed system (messages visible) and analyze it."""
    system = build_system(
        entities,
        hide=False,
        discipline=discipline,
        require_empty_at_exit=require_empty_at_exit,
        use_occurrences=use_occurrences,
    )
    return analyze_system(system, entities=entities, max_states=max_states)


def entity_automaton(spec, max_states: int = 5_000):
    """The *interface automaton* of one derived entity, in isolation.

    Sends and receives are treated as plain labels (no medium): the
    result is the entity's local state machine — what an implementor
    would code up — with service primitives, message interactions and
    termination as its alphabet.  Returns a (possibly truncated)
    :class:`repro.lotos.lts.LTS`.
    """
    from repro.lotos.scope import bind_occurrence, flatten
    from repro.lotos.semantics import Semantics

    root, environment = flatten(spec)
    semantics = Semantics(environment, bind_occurrences=False)
    return build_lts(
        bind_occurrence(root, ()), semantics, max_states=max_states,
        on_limit="truncate",
    )

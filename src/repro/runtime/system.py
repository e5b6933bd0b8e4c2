"""Composition of protocol entities with the communication medium.

:class:`DistributedSystem` is a transition-function object with the
same ``transitions(state)`` interface as :class:`repro.lotos.semantics.
Semantics`, so every analysis in :mod:`repro.lotos.traces` and the LTS
builder work on whole distributed systems unchanged.  Its states are
flat int tuples ``(e_1, ..., e_n, m)``: ``e_i`` numbers entity i's
behaviour in a per-entity term table and ``m`` numbers the medium in a
medium table (explicit-state tools give states compact integer codes
for the same reason: hashing and comparing them is cheap).
:meth:`DistributedSystem.decode` turns a coded state back into a
:class:`SystemState` of behaviours and medium.

The composition implements, operationally, the right-hand side of the
paper's correctness theorem::

    hide G in ( (PE_1 ||| PE_2 ||| ... ||| PE_n) |[G]| Medium )

* each entity moves independently (the ``|||``);
* a send interaction synchronizes with the medium appending to the
  corresponding channel, a receive with the medium releasing a matching
  message (the ``|[G]| Medium``);
* with ``hide=True`` (default) those interactions become internal moves
  (the ``hide G in``), leaving service primitives and ``delta``
  observable;
* ``delta`` happens globally, when every entity offers it — the ``|||``
  synchronizes on termination in LOTOS.

The paper's Medium processes never terminate, so strictly the composed
LOTOS term never offers ``delta``; we let the system terminate when all
*entities* can (the medium is dropped at global termination).  With
``require_empty_at_exit=True`` termination is additionally gated on all
channels being drained, which is the honest check for disable-free
derivations — a leftover message would mean the protocol leaked state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ExecutionError
from repro.lotos.events import (
    DELTA,
    INTERNAL,
    Delta,
    InternalAction,
    Label,
    ReceiveAction,
    SendAction,
    ServicePrimitive,
)
from repro.lotos.scope import bind_occurrence, flatten
from repro.lotos.semantics import Semantics
from repro.lotos.syntax import Behaviour, Specification, Stop
from repro.medium.state import MediumState, make_medium

#: A coded global state ``(e_1, ..., e_n, m)``: ``e_i`` numbers entity
#: i's behaviour in its term table, ``m`` the medium in the medium table.
State = Tuple[int, ...]
Transition = Tuple[Label, State]

#: An entity move: the label the system emits for it, the medium letter
#: it needs (``-1`` for a primitive or internal move, which leaves the
#: medium alone) and the entity's target term id.
Move = Tuple[Label, int, int]

_SEND, _RECEIVE = "send", "receive"


@dataclass(frozen=True)
class SystemState:
    """One global state in object form: entity behaviours plus the medium.

    :meth:`DistributedSystem.decode` turns a coded state into this form.
    """

    entities: Tuple[Behaviour, ...]
    medium: MediumState


class _TermTable:
    """One entity's behaviours, numbered densely in the order met.

    ``moves[t]`` is filled by :meth:`DistributedSystem._expand` the first
    time a state holding term ``t`` is expanded, so ``Semantics.
    transitions`` runs once per distinct term; ``delta[t]`` records
    whether the term offers termination.
    """

    __slots__ = ("ids", "terms", "moves", "delta", "stopped")

    def __init__(self) -> None:
        self.ids: Dict[Behaviour, int] = {}
        self.terms: List[Behaviour] = []
        self.moves: List[Optional[Tuple[Move, ...]]] = []
        self.delta: List[bool] = []
        self.stopped: List[bool] = []

    def intern(self, term: Behaviour) -> int:
        code = self.ids.get(term)
        if code is None:
            code = len(self.terms)
            self.ids[term] = code
            self.terms.append(term)
            self.moves.append(None)
            self.delta.append(False)
            self.stopped.append(isinstance(term, Stop))
        return code


class _MediumTable:
    """Media interned by equality, with their moves memoized.

    A *letter* is one ``(kind, channel, message)`` interaction with the
    medium; ``steps[m][letter]`` is the medium reached by it from medium
    ``m``, or ``-1`` when the medium refuses it (full channel, message
    not receivable).  Any object with the medium interface works.
    """

    __slots__ = ("ids", "media", "empty", "steps", "internal", "letter_ids", "letters")

    def __init__(self) -> None:
        self.ids: Dict[object, int] = {}
        self.media: List[object] = []
        self.empty: List[bool] = []
        self.steps: List[Dict[int, int]] = []
        self.internal: List[Optional[Tuple[int, ...]]] = []
        self.letter_ids: Dict[tuple, int] = {}
        self.letters: List[tuple] = []

    def intern(self, medium: object) -> int:
        code = self.ids.get(medium)
        if code is None:
            code = len(self.media)
            self.ids[medium] = code
            self.media.append(medium)
            self.empty.append(medium.is_empty)
            self.steps.append({})
            self.internal.append(None)
        return code

    def letter(self, kind: str, src: int, dest: int, message) -> int:
        key = (kind, src, dest, message)
        code = self.letter_ids.get(key)
        if code is None:
            code = len(self.letters)
            self.letter_ids[key] = code
            self.letters.append(key)
        return code

    def step(self, code: int, letter: int) -> int:
        kind, src, dest, message = self.letters[letter]
        medium = self.media[code]
        after = None
        if kind == _SEND:
            if medium.can_send(src, dest):
                after = medium.send(src, dest, message)
        elif medium.receivable(src, dest, message):
            after = medium.receive(src, dest, message)
        target = -1 if after is None else self.intern(after)
        self.steps[code][letter] = target
        return target

    def internal_moves(self, code: int) -> Tuple[int, ...]:
        moves = self.internal[code]
        if moves is None:
            # Media with internal machinery (ARQ recovery, loss faults)
            # contribute their own moves as internal steps.
            internal = getattr(self.media[code], "internal_transitions", None)
            afters = internal() if internal is not None else ()
            moves = tuple(self.intern(after) for _description, after in afters)
            self.internal[code] = moves
        return moves


class DistributedSystem:
    """Transition function for n entities + medium over coded states.

    A state is a flat tuple of ints ``(e_1, ..., e_n, m)`` (see
    :data:`State`); :meth:`decode` maps it back to a
    :class:`SystemState`.  Each entity's moves are computed once per
    distinct term and each medium interaction once per distinct medium,
    so expanding a state is a walk over precomputed tables.  The
    transitions of a state are listed entity by entity, each entity's in
    ``Semantics.transitions`` order, then global ``delta``, then the
    medium's internal moves.

    ``hide=True`` maps message interactions to the internal action
    (verification view); ``hide=False`` keeps them observable in long
    form (``s^i_j(m)``), which is how the message-complexity experiments
    count traffic.
    """

    def __init__(
        self,
        places: Sequence[int],
        semantics: Sequence[Semantics],
        initial: SystemState,
        hide: bool = True,
        require_empty_at_exit: bool = True,
    ) -> None:
        if len(places) != len(initial.entities) or len(places) != len(semantics):
            raise ExecutionError("places, semantics and entities must align")
        self.places = tuple(places)
        self._semantics = tuple(semantics)
        self.hide = hide
        self.require_empty_at_exit = require_empty_at_exit
        self._tables = tuple(_TermTable() for _ in self.places)
        self._media = _MediumTable()
        # Global termination lands on literal stops: the delta residual
        # of e.g. ``exit ||| exit`` is ``stop ||| stop``, behaviourally
        # stop but structurally distinct — one canonical terminated state
        # is what ``is_terminated`` recognizes.
        self._stops = tuple(table.intern(Stop()) for table in self._tables)
        self.initial: State = tuple(
            table.intern(entity)
            for table, entity in zip(self._tables, initial.entities)
        ) + (self._media.intern(initial.medium),)

    # ------------------------------------------------------------------
    def transitions(self, state: State) -> Tuple[Transition, ...]:
        result: List[Transition] = []
        media = self._media
        medium = state[-1]
        steps = media.steps[medium]
        all_delta = True
        for index, table in enumerate(self._tables):
            term = state[index]
            moves = table.moves[term]
            if moves is None:
                moves = self._expand(index, term)
            if all_delta and not table.delta[term]:
                all_delta = False
            if not moves:
                continue
            head = state[:index]
            tail = state[index + 1 :]
            for label, letter, target in moves:
                if letter < 0:
                    result.append((label, head + (target,) + tail))
                    continue
                after = steps.get(letter)
                if after is None:
                    after = media.step(medium, letter)
                if after >= 0:
                    result.append((label, head + (target,) + tail[:-1] + (after,)))
        if all_delta and (not self.require_empty_at_exit or media.empty[medium]):
            result.append((DELTA, self._stops + (medium,)))
        for after in media.internal_moves(medium):
            result.append((INTERNAL, state[:-1] + (after,)))
        return tuple(result)

    def _expand(self, index: int, term: int) -> Tuple[Move, ...]:
        """Classify the moves of entity ``index``'s term ``term`` once."""
        table = self._tables[index]
        place = self.places[index]
        moves: List[Move] = []
        for label, residual in self._semantics[index].transitions(table.terms[term]):
            if isinstance(label, Delta):
                table.delta[term] = True
                continue
            if isinstance(label, ServicePrimitive):
                move = (label, -1, table.intern(residual))
            elif isinstance(label, InternalAction):
                move = (INTERNAL, -1, table.intern(residual))
            elif isinstance(label, SendAction):
                letter = self._media.letter(_SEND, place, label.dest, label.message)
                visible: Label = INTERNAL if self.hide else label.with_src(place)
                move = (visible, letter, table.intern(residual))
            elif isinstance(label, ReceiveAction):
                letter = self._media.letter(_RECEIVE, label.src, place, label.message)
                visible = INTERNAL if self.hide else label.with_dest(place)
                move = (visible, letter, table.intern(residual))
            else:
                raise ExecutionError(
                    f"entity at place {place} offered unexpected {label}"
                )
            moves.append(move)
        table.moves[term] = result = tuple(moves)
        return result

    # ------------------------------------------------------------------
    def decode(self, state: State) -> SystemState:
        """The behaviours and medium that coded ``state`` stands for."""
        return SystemState(
            tuple(table.terms[term] for table, term in zip(self._tables, state)),
            self._media.media[state[-1]],
        )

    def is_terminated(self, state: State) -> bool:
        return all(
            table.stopped[term] for table, term in zip(self._tables, state)
        )

    def enabled(self, state: State) -> Tuple[Transition, ...]:
        return self.transitions(state)


def build_system(
    entities: Mapping[int, Specification],
    capacity: Optional[int] = None,
    discipline: str = "fifo",
    hide: bool = True,
    use_occurrences: bool = True,
    require_empty_at_exit: bool = True,
    medium: Optional[object] = None,
) -> DistributedSystem:
    """Compose derived entity specifications into a distributed system.

    ``use_occurrences=False`` runs the entities without the Section 3.5
    occurrence parameterization (all messages carry the symbolic
    occurrence).  That keeps tail-recursive systems finite-state — at the
    price of instance ambiguity, which experiment E7 demonstrates.

    ``medium`` overrides the default perfect-FIFO medium with any object
    implementing the medium interface — e.g.
    :class:`repro.medium.lossy.LossyMedium` (fault injection) or
    :class:`repro.medium.lossy.ArqMedium` (the Section 6 error-recovery
    sublayer over lossy channels).
    """
    places = sorted(entities)
    semantics_list: List[Semantics] = []
    roots: List[Behaviour] = []
    for place in places:
        root, environment = flatten(entities[place])
        semantics_list.append(
            Semantics(environment, bind_occurrences=use_occurrences)
        )
        roots.append(bind_occurrence(root, ()) if use_occurrences else root)
    if medium is None:
        medium = make_medium(capacity, discipline)
    initial = SystemState(tuple(roots), medium)
    return DistributedSystem(
        places,
        semantics_list,
        initial,
        hide=hide,
        require_empty_at_exit=require_empty_at_exit,
    )

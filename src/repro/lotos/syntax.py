"""Abstract syntax of the specification language (paper Table 1).

Behaviour expressions are immutable, hashable dataclasses.  Immutability
matters twice over: behaviour expressions *are* the states of the labelled
transition systems built by :mod:`repro.lotos.semantics`, so structural
hashing gives state identity for free; and the derivation function ``T_p``
freely shares subtrees between the specifications it produces.

Every behaviour node carries an optional ``nid`` — the preorder node
number ``N`` assigned by :mod:`repro.core.attributes` (paper Section 4.1).
``nid`` participates in equality, so two occurrences of the same
subexpression at different positions of a *numbered* service tree are
distinct objects, which is exactly what the attribute table needs.
Unnumbered trees (``nid=None`` everywhere) keep plain structural equality.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import FrozenSet, Iterator, Optional, Tuple

from repro.lotos.events import Event, OccurrencePath
from repro.lotos.location import Span


@dataclass(frozen=True, eq=False)
class Behaviour:
    """Base class of behaviour expressions.

    Equality and hashing are structural but engineered for the access
    pattern of state-space exploration: the hash is computed once per
    node object (derived states share almost all of their subtrees with
    their parents, so hashing a successor is O(1) amortized instead of
    O(tree size)), and equality short-circuits on identity and on hash
    mismatch before falling back to field-by-field comparison.

    ``loc`` is the source span the parser read this node from.  It is
    pure metadata: excluded from equality and hashing (a behaviour
    expression denotes the same state wherever it was written), carried
    along by ``with_children`` rebuilds, and ``None`` on synthesized
    nodes (derivation output, expansion residues).
    """

    nid: Optional[int] = field(default=None, kw_only=True)
    loc: Optional[Span] = field(default=None, kw_only=True, repr=False)

    @classmethod
    def _field_names(cls) -> Tuple[str, ...]:
        names = cls.__dict__.get("_field_names_cache")
        if names is None:
            names = tuple(
                f.name for f in dataclasses.fields(cls) if f.name != "loc"
            )
            cls._field_names_cache = names
        return names

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            values = tuple(getattr(self, name) for name in self._field_names())
            cached = hash((self.__class__.__qualname__, values))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if self.__class__ is not other.__class__:
            return NotImplemented if not isinstance(other, Behaviour) else False
        if hash(self) != hash(other):
            return False
        for name in self._field_names():
            if getattr(self, name) != getattr(other, name):
                return False
        return True

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def children(self) -> Tuple["Behaviour", ...]:
        """Immediate behaviour subexpressions, left to right."""
        return ()

    def with_children(self, children: Tuple["Behaviour", ...]) -> "Behaviour":
        """Rebuild this node with replacement children (same arity)."""
        if children:
            raise ValueError(f"{type(self).__name__} takes no children")
        return self

    def walk(self) -> Iterator["Behaviour"]:
        """Preorder traversal of the expression tree."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass(frozen=True, eq=False)
class Stop(Behaviour):
    """Inaction: offers no event ever.

    Not part of the paper's Table 1 grammar, but required by the LOTOS
    semantics (it is the residue of ``delta`` transitions) and accepted by
    the parser as an extension.
    """


@dataclass(frozen=True, eq=False)
class Exit(Behaviour):
    """Successful termination: offers ``delta`` and becomes :class:`Stop`."""


@dataclass(frozen=True, eq=False)
class Empty(Behaviour):
    """The derivation placeholder ``empty`` (paper Section 3.1).

    ``empty`` means "no actions are to be generated in the specified
    place".  It is the identity of ``;``, ``>>`` and ``|||`` under the
    elimination laws of Section 4.2 and is removed from every derived
    specification by :mod:`repro.core.simplify`; it has no operational
    semantics of its own.
    """


@dataclass(frozen=True, eq=False)
class ActionPrefix(Behaviour):
    """``event ; continuation`` (Table 1 rules 16/17 and 94)."""

    event: Event
    continuation: Behaviour

    def children(self) -> Tuple[Behaviour, ...]:
        return (self.continuation,)

    def with_children(self, children: Tuple[Behaviour, ...]) -> "ActionPrefix":
        (continuation,) = children
        return ActionPrefix(self.event, continuation, nid=self.nid, loc=self.loc)


@dataclass(frozen=True, eq=False)
class Choice(Behaviour):
    """``left [] right`` (Table 1 rules 14 and 92)."""

    left: Behaviour
    right: Behaviour

    def children(self) -> Tuple[Behaviour, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Behaviour, ...]) -> "Choice":
        left, right = children
        return Choice(left, right, nid=self.nid, loc=self.loc)


@dataclass(frozen=True, eq=False)
class Parallel(Behaviour):
    """Parallel composition (Table 1 rules 11-13).

    ``sync`` is the ``event_subset`` of ``|[event_subset]|``; the empty
    set yields pure interleaving ``|||``.  ``sync_all=True`` encodes
    ``||`` (synchronization on every observable event), for which no
    explicit subset is stored.  ``delta`` always synchronizes.
    """

    left: Behaviour
    right: Behaviour
    sync: FrozenSet[Event] = frozenset()
    sync_all: bool = False

    def children(self) -> Tuple[Behaviour, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Behaviour, ...]) -> "Parallel":
        left, right = children
        return Parallel(
            left, right, self.sync, self.sync_all, nid=self.nid, loc=self.loc
        )

    def is_interleaving(self) -> bool:
        return not self.sync_all and not self.sync

    def synchronizes(self, event: Event) -> bool:
        """Whether ``event`` requires a rendezvous of both sides."""
        if not event.is_observable():
            return False
        return self.sync_all or event in self.sync


@dataclass(frozen=True, eq=False)
class Enable(Behaviour):
    """Sequential composition ``left >> right`` (Table 1 rule 7)."""

    left: Behaviour
    right: Behaviour

    def children(self) -> Tuple[Behaviour, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Behaviour, ...]) -> "Enable":
        left, right = children
        return Enable(left, right, nid=self.nid, loc=self.loc)


@dataclass(frozen=True, eq=False)
class Disable(Behaviour):
    """Disabling ``left [> right`` (Table 1 rules 9/91)."""

    left: Behaviour
    right: Behaviour

    def children(self) -> Tuple[Behaviour, ...]:
        return (self.left, self.right)

    def with_children(self, children: Tuple[Behaviour, ...]) -> "Disable":
        left, right = children
        return Disable(left, right, nid=self.nid, loc=self.loc)


@dataclass(frozen=True, eq=False)
class Hide(Behaviour):
    """``hide gates in body``.

    The service language of the paper does not support hiding (Section 2),
    but the correctness statement of Section 5 needs it — the theorem
    hides the set ``G`` of synchronization interactions.  The semantics
    module therefore supports it; the restriction checker rejects it in
    service specifications handed to the Protocol Generator.

    ``gates`` may contain concrete events; additionally, when
    ``hide_messages=True`` every send/receive interaction is hidden
    regardless of ``gates``, which is how the verification harness
    expresses "hide G" without enumerating the (occurrence-parameterized,
    potentially unbounded) message alphabet.
    """

    body: Behaviour
    gates: FrozenSet[Event] = frozenset()
    hide_messages: bool = False

    def children(self) -> Tuple[Behaviour, ...]:
        return (self.body,)

    def with_children(self, children: Tuple[Behaviour, ...]) -> "Hide":
        (body,) = children
        return Hide(body, self.gates, self.hide_messages, nid=self.nid, loc=self.loc)


@dataclass(frozen=True, eq=False)
class ProcessRef(Behaviour):
    """Invocation of a named process (Table 1 rule 18).

    ``site`` is the node number of the invocation site in the *service*
    syntax tree; the derivation copies it into every derived entity so
    that all places extend occurrence paths identically (Section 3.5).
    ``occurrence`` is the concrete occurrence path of the instance this
    reference will create; it is ``None`` in static text and is bound by
    :func:`repro.lotos.scope.bind_occurrence` when the enclosing instance
    is itself instantiated.
    """

    name: str
    site: Optional[int] = None
    occurrence: Optional[OccurrencePath] = None

    def child_occurrence(self, parent: OccurrencePath) -> OccurrencePath:
        """Occurrence path for the instance created by this reference."""
        hop = self.site if self.site is not None else (self.nid or 0)
        return parent + (hop,)


@dataclass(frozen=True)
class ProcessDefinition:
    """``PROC name = body END`` (Table 1 rule 6).

    ``body`` is a :class:`DefBlock`: process definitions nest, and inner
    definitions shadow outer ones (block structure).  ``loc`` is the
    source span of the defined name, for diagnostics; like behaviour
    locations it is metadata and excluded from equality.
    """

    name: str
    body: "DefBlock"
    loc: Optional[Span] = field(default=None, compare=False)


@dataclass(frozen=True)
class DefBlock:
    """``e WHERE process_defs`` or a bare ``e`` (Table 1 rules 2/3)."""

    behaviour: Behaviour
    definitions: Tuple[ProcessDefinition, ...] = ()


@dataclass(frozen=True)
class Specification:
    """``SPEC def_block ENDSPEC`` (Table 1 rule 1)."""

    root: DefBlock

    @property
    def behaviour(self) -> Behaviour:
        return self.root.behaviour

    @property
    def definitions(self) -> Tuple[ProcessDefinition, ...]:
        return self.root.definitions

    def walk_behaviours(self) -> Iterator[Behaviour]:
        """Preorder traversal over every behaviour node in the spec.

        Order: the main behaviour first, then each process definition in
        textual order (recursively, for nested WHERE blocks).  This is the
        order the node-numbering pass uses.
        """

        def from_block(block: DefBlock) -> Iterator[Behaviour]:
            yield from block.behaviour.walk()
            for definition in block.definitions:
                yield from from_block(definition.body)

        yield from from_block(self.root)

"""Labelled transition systems with bounded construction.

Recursive specifications have infinite state spaces (e.g. the paper's
Example 2 generates ``(a)^n (b)^n``), so LTS construction takes an
explicit state budget and either raises or truncates — truncation is
recorded on the result and every analysis downstream reports it rather
than silently pretending completeness.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import StateSpaceLimitExceeded
from repro.lotos.events import Delta, InternalAction, Label
from repro.lotos.semantics import Semantics
from repro.lotos.syntax import Behaviour
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer

#: Default budget for exhaustive state exploration.
DEFAULT_MAX_STATES = 20_000


@dataclass
class LTS:
    """A finite (possibly truncated) labelled transition system.

    States are integers; ``state_terms[i]`` is the term the state stands
    for: a behaviour expression, or, for the LTS of a
    :class:`repro.runtime.system.DistributedSystem`, a coded int-tuple
    state that ``system.decode`` turns into behaviours and a medium.
    ``edges[i]`` lists ``(label, target)`` pairs in a deterministic order.
    ``truncated_states`` holds the indices whose outgoing transitions
    were *not* expanded because the state budget ran out; analyses must
    treat such states as having unknown behaviour.
    """

    state_terms: List[Behaviour] = field(default_factory=list)
    edges: List[Tuple[Tuple[Label, int], ...]] = field(default_factory=list)
    initial: int = 0
    truncated_states: Set[int] = field(default_factory=set)

    @property
    def num_states(self) -> int:
        return len(self.state_terms)

    @property
    def num_transitions(self) -> int:
        return sum(len(outgoing) for outgoing in self.edges)

    @property
    def complete(self) -> bool:
        """Whether the LTS is the full (untruncated) state graph."""
        return not self.truncated_states

    def labels(self) -> Set[Label]:
        """All labels occurring on any transition."""
        return {label for outgoing in self.edges for label, _ in outgoing}

    def observable_labels(self) -> Set[Label]:
        return {label for label in self.labels() if label.is_observable()}

    def successors(self, state: int, label: Label) -> List[int]:
        return [target for lab, target in self.edges[state] if lab == label]

    def deadlock_states(self) -> List[int]:
        """Fully-expanded states with no outgoing transition.

        Note that the LOTOS ``stop`` after a ``delta`` is a *successful*
        end, so callers usually exclude states only reachable via
        ``delta`` when hunting for genuine deadlocks; see
        :func:`genuine_deadlocks`.
        """
        return [
            index
            for index, outgoing in enumerate(self.edges)
            if not outgoing and index not in self.truncated_states
        ]

    def genuine_deadlocks(self) -> List[int]:
        """Deadlocked states that are not the residue of termination."""
        terminal_ok: Set[int] = set()
        for outgoing in self.edges:
            for label, target in outgoing:
                if isinstance(label, Delta):
                    terminal_ok.add(target)
        return [state for state in self.deadlock_states() if state not in terminal_ok]

    def tau_closure(self, state: int) -> Set[int]:
        """States reachable from ``state`` via internal actions only."""
        seen = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for label, target in self.edges[current]:
                if isinstance(label, InternalAction) and target not in seen:
                    seen.add(target)
                    stack.append(target)
        return seen


def build_lts(
    root: Behaviour,
    semantics: Semantics,
    max_states: int = DEFAULT_MAX_STATES,
    on_limit: str = "raise",
) -> LTS:
    """Breadth-first construction of the LTS reachable from ``root``.

    ``on_limit`` is ``"raise"`` (default) or ``"truncate"``; in the latter
    case unexpanded frontier states are recorded in ``truncated_states``.
    """
    if on_limit not in ("raise", "truncate"):
        raise ValueError(f"unknown on_limit policy {on_limit!r}")

    index: Dict[Behaviour, int] = {root: 0}
    terms: List[Behaviour] = [root]
    edges: List[Optional[Tuple[Tuple[Label, int], ...]]] = [None]
    queue: deque[int] = deque([0])
    truncated: Set[int] = set()

    def intern(term: Behaviour) -> Optional[int]:
        state = index.get(term)
        if state is not None:
            return state
        if len(terms) >= max_states:
            return None
        state = len(terms)
        index[term] = state
        terms.append(term)
        edges.append(None)
        queue.append(state)
        return state

    # States/transitions are tallied in the locals above and published
    # once on the way out (even when the budget overflow raises), so the
    # inner loop carries no instrumentation cost.
    with get_tracer().span("lts.build", max_states=max_states) as span:
        try:
            while queue:
                state = queue.popleft()
                outgoing: List[Tuple[Label, int]] = []
                hit_limit = False
                for label, residual in semantics.transitions(terms[state]):
                    target = intern(residual)
                    if target is None:
                        hit_limit = True
                        continue
                    outgoing.append((label, target))
                if hit_limit:
                    if on_limit == "raise":
                        raise StateSpaceLimitExceeded(max_states)
                    truncated.add(state)
                edges[state] = tuple(outgoing)
        finally:
            transitions = sum(len(out) for out in edges if out is not None)
            span.set(
                states=len(terms),
                transitions=transitions,
                truncated=len(truncated),
            )
            registry = get_registry()
            registry.counter(
                "lts.states_expanded", help="states interned by build_lts"
            ).inc(len(terms))
            registry.counter(
                "lts.transitions", help="transitions recorded by build_lts"
            ).inc(transitions)
            if truncated:
                registry.counter(
                    "lts.truncated_states",
                    help="frontier states left unexpanded at the budget",
                ).inc(len(truncated))

    final_edges = [outgoing if outgoing is not None else () for outgoing in edges]
    return LTS(terms, final_edges, 0, truncated)

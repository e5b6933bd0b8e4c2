"""Observable-trace machinery.

Weak (observable) traces abstract from the internal action: the weak
trace of an execution is the sequence of its observable labels (service
primitives, send/receive interactions that are not hidden, and the
termination event ``delta``).

Everything here works *on the fly* from a :class:`Semantics` — no LTS is
materialized — so recursive (infinite-state) specifications can be
compared up to a depth bound without worrying about truncation artifacts:
a bounded comparison explores exactly the behaviours of the first
``depth`` observable steps.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lotos.events import Label
from repro.lotos.semantics import Semantics
from repro.lotos.syntax import Behaviour

StateSet = FrozenSet[Behaviour]
Trace = Tuple[Label, ...]


def tau_closure(states: StateSet, semantics: Semantics) -> StateSet:
    """All behaviours reachable via internal actions (reflexive)."""
    seen: Set[Behaviour] = set(states)
    stack: List[Behaviour] = list(states)
    while stack:
        term = stack.pop()
        for label, residual in semantics.transitions(term):
            if not label.is_observable() and residual not in seen:
                seen.add(residual)
                stack.append(residual)
    return frozenset(seen)


def initial_class(root: Behaviour, semantics: Semantics) -> StateSet:
    return tau_closure(frozenset([root]), semantics)


def observable_moves(
    states: StateSet, semantics: Semantics
) -> Dict[Label, StateSet]:
    """Weak successor classes: label -> tau-closed set of successors."""
    raw: Dict[Label, Set[Behaviour]] = {}
    for term in states:
        for label, residual in semantics.transitions(term):
            if label.is_observable():
                raw.setdefault(label, set()).add(residual)
    return {
        label: tau_closure(frozenset(targets), semantics)
        for label, targets in raw.items()
    }


def accepts(
    root: Behaviour, semantics: Semantics, trace: Sequence[Label]
) -> bool:
    """Whether ``trace`` is a weak trace of ``root``."""
    current = initial_class(root, semantics)
    for label in trace:
        moves = observable_moves(current, semantics)
        if label not in moves:
            return False
        current = moves[label]
    return True


def enumerate_weak_traces(
    root: Behaviour,
    semantics: Semantics,
    max_length: int,
    max_traces: int = 100_000,
) -> Set[Trace]:
    """All weak traces of length at most ``max_length``.

    The empty trace is always included.  Enumeration stops (raising
    ``RuntimeError``) if more than ``max_traces`` traces accumulate —
    callers comparing trace *sets* should prefer
    :func:`weak_trace_equivalent`, which never enumerates.
    """
    traces: Set[Trace] = {()}
    # Work on (trace, class) pairs; the same class reached through two
    # different prefixes must be expanded for both, because the *full*
    # traces differ, so only identical (trace, class) pairs are merged —
    # which the `pending` set takes care of.
    start = ((), initial_class(root, semantics))
    queue: deque[Tuple[Trace, StateSet]] = deque([start])
    pending: Set[Tuple[Trace, StateSet]] = {start}
    while queue:
        trace, states = queue.popleft()
        if len(trace) >= max_length:
            continue
        for label, targets in observable_moves(states, semantics).items():
            extended = trace + (label,)
            traces.add(extended)
            if len(traces) > max_traces:
                raise RuntimeError(
                    f"more than {max_traces} traces of length <= {max_length}"
                )
            item = (extended, targets)
            if item not in pending:
                pending.add(item)
                queue.append(item)
    return traces


def weak_trace_equivalent(
    root1: Behaviour,
    semantics1: Semantics,
    root2: Behaviour,
    semantics2: Semantics,
    depth: int,
) -> Tuple[bool, Optional[Trace]]:
    """Bounded weak-trace equivalence with counterexample.

    Returns ``(True, None)`` when the two behaviours have the same weak
    traces of length up to ``depth``; otherwise ``(False, witness)``
    where ``witness`` is a shortest trace possessed by exactly one side.
    Labels are expanded in the order of their text, so the witness does
    not depend on the process's hash seed.
    """
    start = (initial_class(root1, semantics1), initial_class(root2, semantics2))
    queue: deque[Tuple[Trace, StateSet, StateSet]] = deque([((), *start)])
    visited: Set[Tuple[StateSet, StateSet]] = {start}
    while queue:
        trace, class1, class2 = queue.popleft()
        if len(trace) >= depth:
            continue
        moves1 = observable_moves(class1, semantics1)
        moves2 = observable_moves(class2, semantics2)
        for label in sorted(moves1.keys() | moves2.keys(), key=str):
            extended = trace + (label,)
            if label not in moves1 or label not in moves2:
                return False, extended
            pair = (moves1[label], moves2[label])
            if pair not in visited:
                visited.add(pair)
                queue.append((extended, *pair))
    return True, None


def weak_trace_included(
    root1: Behaviour,
    semantics1: Semantics,
    root2: Behaviour,
    semantics2: Semantics,
    depth: int,
) -> Tuple[bool, Optional[Trace]]:
    """Bounded weak-trace inclusion: traces(root1) ⊆ traces(root2).

    Returns ``(False, witness)`` with a shortest trace of ``root1`` that
    ``root2`` cannot perform, or ``(True, None)``; like
    :func:`weak_trace_equivalent`, independent of the hash seed.
    """
    start = (initial_class(root1, semantics1), initial_class(root2, semantics2))
    queue: deque[Tuple[Trace, StateSet, StateSet]] = deque([((), *start)])
    visited: Set[Tuple[StateSet, StateSet]] = {start}
    while queue:
        trace, class1, class2 = queue.popleft()
        if len(trace) >= depth:
            continue
        moves1 = observable_moves(class1, semantics1)
        moves2 = observable_moves(class2, semantics2)
        for label in sorted(moves1, key=str):
            extended = trace + (label,)
            if label not in moves2:
                return False, extended
            pair = (moves1[label], moves2[label])
            if pair not in visited:
                visited.add(pair)
                queue.append((extended, *pair))
    return True, None


def format_trace(trace: Sequence[Label]) -> str:
    """Human-readable rendering, e.g. ``a1 . b2 . delta``."""
    if not trace:
        return "<empty>"
    return " . ".join(str(label) for label in trace)

"""The coded composed system against an object-state reference explorer.

``DistributedSystem`` numbers entity terms and media and expands a state
from precomputed tables.  ``reference_transitions`` below is the
object-state composition it replaced: it recomputes every move from
``Semantics.transitions`` and the medium's own methods on a
:class:`SystemState`.  Both sides are explored breadth first; after
``decode`` the states must come out in the same order with the same
labelled edges, in the same order (seeded schedules and replays index
into that order).
"""

import json
import pathlib
from collections import deque

import pytest

from repro import workloads
from repro.core.generator import derive_protocol
from repro.errors import ExecutionError
from repro.lotos.events import (
    DELTA,
    INTERNAL,
    Delta,
    InternalAction,
    ReceiveAction,
    SendAction,
    ServicePrimitive,
)
from repro.lotos.semantics import Semantics
from repro.lotos.syntax import Exit, Stop
from repro.lotos.unparse import unparse
from repro.medium.lossy import ArqMedium, LossyMedium
from repro.medium.state import make_medium
from repro.runtime.system import DistributedSystem, SystemState, build_system

GOLDEN_DIR = pathlib.Path(__file__).resolve().parents[1] / "goldens"
MANIFEST = json.loads((GOLDEN_DIR / "manifest.json").read_text())

#: States compared per exploration; recursive services are infinite, so
#: they are compared on this breadth-first prefix.
BUDGET = 1_500


def _with_entity(state, index, behaviour, medium=None):
    entities = state.entities[:index] + (behaviour,) + state.entities[index + 1 :]
    return SystemState(entities, state.medium if medium is None else medium)


def _entity_move(system, state, index, place, label, residual):
    if isinstance(label, ServicePrimitive):
        return label, _with_entity(state, index, residual)
    if isinstance(label, InternalAction):
        return INTERNAL, _with_entity(state, index, residual)
    if isinstance(label, SendAction):
        if not state.medium.can_send(place, label.dest):
            return None
        medium = state.medium.send(place, label.dest, label.message)
        visible = INTERNAL if system.hide else label.with_src(place)
        return visible, _with_entity(state, index, residual, medium)
    if isinstance(label, ReceiveAction):
        if not state.medium.receivable(label.src, place, label.message):
            return None
        medium = state.medium.receive(label.src, place, label.message)
        visible = INTERNAL if system.hide else label.with_dest(place)
        return visible, _with_entity(state, index, residual, medium)
    raise ExecutionError(f"entity at place {place} offered unexpected {label}")


def reference_transitions(system, state):
    """The object-state composition, recomputed from scratch."""
    result = []
    delta_residuals = []
    for index, behaviour in enumerate(state.entities):
        place = system.places[index]
        delta_residual = None
        for label, residual in system._semantics[index].transitions(behaviour):
            if isinstance(label, Delta):
                delta_residual = residual
                continue
            move = _entity_move(system, state, index, place, label, residual)
            if move is not None:
                result.append(move)
        delta_residuals.append(delta_residual)
    if all(residual is not None for residual in delta_residuals):
        if not system.require_empty_at_exit or state.medium.is_empty:
            stops = tuple(Stop() for _ in delta_residuals)
            result.append((DELTA, SystemState(stops, state.medium)))
    internal = getattr(state.medium, "internal_transitions", None)
    if internal is not None:
        for _description, medium in internal():
            result.append((INTERNAL, SystemState(state.entities, medium)))
    return result


def explore(initial, transitions, budget=BUDGET):
    """Breadth-first states and ``(label, target index)`` edges."""
    index = {initial: 0}
    states = [initial]
    edges = []
    queue = deque([initial])
    while queue and len(edges) < budget:
        outgoing = []
        for label, target in transitions(queue.popleft()):
            if target not in index:
                index[target] = len(states)
                states.append(target)
                queue.append(target)
            outgoing.append((label, index[target]))
        edges.append(outgoing)
    return states, edges


def assert_same_exploration(system):
    coded_states, coded_edges = explore(system.initial, system.transitions)
    reference_states, reference_edges = explore(
        system.decode(system.initial),
        lambda state: reference_transitions(system, state),
    )
    assert len(coded_states) == len(reference_states)
    assert coded_edges == reference_edges
    assert [system.decode(state) for state in coded_states] == reference_states
    for state, decoded in zip(coded_states, reference_states):
        assert system.is_terminated(state) == all(
            isinstance(entity, Stop) for entity in decoded.entities
        )


def _golden(name):
    text = (GOLDEN_DIR / f"{name}.lotos").read_text()
    return text, derive_protocol(text, **MANIFEST[name])


def _composed(text, result, hide, medium=None):
    has_disable = "[>" in text
    return build_system(
        result.entities,
        discipline="selective" if has_disable else "fifo",
        require_empty_at_exit=not has_disable,
        hide=hide,
        medium=medium,
    )


WORKLOAD_SAMPLE = {
    "pipeline_3x2": workloads.pipeline(3, 2),
    "fan_out_join_4": workloads.fan_out_join(4),
    "choice_ladder_3": workloads.choice_ladder(3),
    "recursion_tower_2": workloads.recursion_tower(2),
    "interrupt_stack_3": workloads.interrupt_stack(3),
    "process_chain_3": workloads.process_chain(3),
}


@pytest.mark.parametrize("hide", [True, False], ids=["hidden", "long-form"])
@pytest.mark.parametrize("name", sorted(MANIFEST))
def test_goldens(name, hide):
    text, result = _golden(name)
    assert_same_exploration(_composed(text, result, hide))


@pytest.mark.parametrize("hide", [True, False], ids=["hidden", "long-form"])
@pytest.mark.parametrize("member", sorted(WORKLOAD_SAMPLE))
def test_workload_members(member, hide):
    text = unparse(WORKLOAD_SAMPLE[member])
    assert_same_exploration(_composed(text, derive_protocol(text), hide))


@pytest.mark.parametrize("hide", [True, False], ids=["hidden", "long-form"])
@pytest.mark.parametrize(
    "medium",
    [LossyMedium(loss_budget=2), ArqMedium(loss_budget=2)],
    ids=["lossy", "arq"],
)
@pytest.mark.parametrize("name", ["example4_sequence", "two_phase_commit"])
def test_unreliable_media(name, medium, hide):
    text, result = _golden(name)
    assert_same_exploration(_composed(text, result, hide, medium))


def test_decode_returns_the_initial_system_state():
    initial = SystemState((Exit(), Exit()), make_medium())
    system = DistributedSystem([1, 2], [Semantics(), Semantics()], initial)
    assert all(isinstance(code, int) for code in system.initial)
    assert system.decode(system.initial) == initial
    ((label, final),) = system.transitions(system.initial)
    assert label == DELTA and system.is_terminated(final)
    assert system.decode(final) == SystemState((Stop(), Stop()), make_medium())

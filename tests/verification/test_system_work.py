"""Work done by the composed system during one exact Section 5 check.

Entity moves are computed once per distinct entity term (the system's
term tables), however many global states hold that term; the number of
global states expanded does not change with the state encoding.
"""

from collections import Counter

from repro import workloads
from repro.lotos.semantics import Semantics
from repro.lotos.unparse import unparse
from repro.runtime.system import DistributedSystem
from repro.verification import checker
from repro.verification.checker import verify_derivation

#: ``DistributedSystem.transitions`` calls of the check below: one per
#: state of the composed-system LTS, as measured with object states.
SYSTEM_TRANSITIONS_CALLS = 517


def test_one_semantics_call_per_entity_term(monkeypatch):
    systems, built = [], []
    semantics_calls = Counter()
    system_calls = Counter()

    def capture_system(*args, **kwargs):
        systems.append(checker_build_system(*args, **kwargs))
        return systems[-1]

    def capture_lts(*args, **kwargs):
        built.append(checker_build_lts(*args, **kwargs))
        return built[-1]

    def counted_semantics(self, node):
        semantics_calls[self, node] += 1
        return semantics_transitions(self, node)

    def counted_system(self, state):
        system_calls[self] += 1
        return system_transitions(self, state)

    checker_build_system = checker.build_system
    checker_build_lts = checker.build_lts
    semantics_transitions = Semantics.transitions
    system_transitions = DistributedSystem.transitions
    monkeypatch.setattr(checker, "build_system", capture_system)
    monkeypatch.setattr(checker, "build_lts", capture_lts)
    monkeypatch.setattr(Semantics, "transitions", counted_semantics)
    monkeypatch.setattr(DistributedSystem, "transitions", counted_system)

    report = verify_derivation(unparse(workloads.fan_out_join(5)))
    assert report.method == "weak-bisimulation" and report.equivalent

    (system,) = systems
    (system_lts,) = [lts for lts in built if lts.state_terms[0] == system.initial]
    decoded = [system.decode(state) for state in system_lts.state_terms]
    for index, semantics in enumerate(system._semantics):
        terms = {state.entities[index] for state in decoded}
        calls = {
            node: count
            for (owner, node), count in semantics_calls.items()
            if owner is semantics
        }
        assert set(calls) == terms
        assert set(calls.values()) == {1}
    assert system_calls[system] == system_lts.num_states == SYSTEM_TRANSITIONS_CALLS

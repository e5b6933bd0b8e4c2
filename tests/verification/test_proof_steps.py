"""The Section 5.3 proof, replayed mechanically on concrete instances.

The paper proves its theorem by induction on the service syntax tree;
this module checks every step of the published calculation on concrete
services, using the LTS machinery as the "congruence laws engine":

* 5.3.2 — the base case: for elementary ``S = a_i; exit`` the projection
  yields the event at place i and ``exit`` elsewhere, with no messages,
  and the composition is congruent to S;
* 5.3.3 — the induction step for ``>>``: the composed system of
  ``S1 >> S2`` is congruent to the *proof's middle term*

      composed(S1) >> ( s_j(m); r_i(m); exit ) >> composed(S2)

  — i.e. the medium really does factor along the enable structure, which
  is the load-bearing manipulation of the published proof.
"""

import pytest

from repro.core.generator import derive_protocol
from repro.lotos.equivalence import observationally_congruent, weak_bisimilar
from repro.lotos.events import ReceiveAction, SendAction
from repro.lotos.lts import build_lts
from repro.lotos.parser import parse
from repro.lotos.semantics import Semantics
from repro.lotos.syntax import (
    ActionPrefix,
    Behaviour,
    Enable,
    Exit,
    Hide,
)
from repro.runtime.system import build_system
from repro.verification.composition import compose_term


def service_lts(text):
    spec = parse(text)
    semantics, root = Semantics.of_specification(spec, bind_occurrences=False)
    return build_lts(root, semantics)


def composed_lts(text):
    result = derive_protocol(text)
    term, environment, _gates = compose_term(result.entities)
    return build_lts(
        term, Semantics(environment, bind_occurrences=False), max_states=60_000
    ), result


class TestBaseCase:
    """5.3.2: S = a_i; exit."""

    @pytest.mark.parametrize("place", [1, 2, 3])
    def test_projection_shape(self, place):
        # A three-place context forces derivation for all of {1,2,3}:
        # embed the elementary expression in an interleaving so each
        # place exists, then inspect the elementary fragment alone.
        result = derive_protocol(f"SPEC a{place}; exit ENDSPEC")
        # Only one place participates; T_p for p = i is the event itself.
        assert result.places == [place]
        entity = result.entity(place).behaviour
        assert isinstance(entity, ActionPrefix)
        assert str(entity.event) == f"a{place}"
        assert isinstance(entity.continuation, Exit)

    def test_no_messages_generated(self):
        from repro.core.complexity import analyze

        result = derive_protocol("SPEC a2; exit ENDSPEC")
        assert analyze(result).total_messages == 0

    def test_composition_congruent_to_service(self):
        lts, _ = composed_lts("SPEC a1; exit ENDSPEC")
        assert observationally_congruent(service_lts("SPEC a1; exit ENDSPEC"), lts)


class TestEnableInductionStep:
    """5.3.3: S = S1 >> S2 with EP(S1) = {i}, SP(S2) = {j}."""

    S1 = "a1; b1; exit"
    S2 = "c2; exit"
    SERVICE = f"SPEC ({S1}) >> ({S2}) ENDSPEC"

    def test_composed_congruent_to_service(self):
        lts, _ = composed_lts(self.SERVICE)
        assert observationally_congruent(service_lts(self.SERVICE), lts)

    def test_middle_term_of_the_proof(self):
        """The decomposition the proof derives by expansion (T1, H8, H5):

            hide G in ((T1(S) ||| T2(S)) |[G]| Medium)
              ≈ composed(S1) >> (s_j(m); r_i(m); exit) >> composed(S2)

        where composed(Sk) abbreviates the fully composed-and-hidden
        subsystem for Sk alone.
        """
        # left side: the composed system for the full service
        full_lts, full_result = composed_lts(self.SERVICE)

        # right side: build the proof's middle term.  composed(S1) and
        # composed(S2) come from deriving each part separately;
        # the bridging message (s_j(m); r_i(m); exit) is hidden like G.
        part1 = derive_protocol(f"SPEC {self.S1} ENDSPEC")
        part2 = derive_protocol(f"SPEC {self.S2} ENDSPEC")

        def hidden_composition(result) -> Behaviour:
            if len(result.places) == 1:
                # single-place part: the entity is the behaviour itself.
                (only,) = result.places
                root, env = _closed_term(result, only)
                return root
            term, environment, _ = compose_term(result.entities)
            assert not environment  # non-recursive, channels inlined below
            return term

        from repro.lotos.scope import bind_occurrence, flatten

        def _closed_term(result, place):
            root, env = flatten(result.entity(place))
            return bind_occurrence(root, ()), env

        sub1 = hidden_composition(part1)
        sub2 = hidden_composition(part2)

        from repro.lotos.events import SyncMessage

        bridge_message = SyncMessage(0, ())
        bridge = Hide(
            ActionPrefix(
                SendAction(dest=2, message=bridge_message, src=1),
                ActionPrefix(
                    ReceiveAction(src=1, message=bridge_message, dest=2), Exit()
                ),
            ),
            hide_messages=True,
        )
        middle = Enable(sub1, Enable(bridge, sub2))

        middle_lts = build_lts(middle, Semantics(), max_states=60_000)
        assert weak_bisimilar(full_lts, middle_lts)
        assert observationally_congruent(full_lts, middle_lts)

    def test_medium_factors_along_enable(self):
        """No message of S1's region remains once S2's region starts.

        Operationally: in every reachable composed state where a service
        primitive of S2 has occurred, the channels carry no message
        generated by S1's syntax region — the separation the proof's
        Medium = Med1 ||| Med2 split relies on.
        """
        result = derive_protocol(self.SERVICE)
        system = build_system(result.entities, hide=False)
        lts = build_lts(system.initial, system, max_states=20_000)
        # S1's region: the a1/b1 prefixes; identify its message nodes as
        # those numbered before the enable's right operand.
        enable = result.prepared.root.behaviour
        boundary = enable.right.nid
        paths = {lts.initial: frozenset()}
        frontier = [lts.initial]
        while frontier:
            state = frontier.pop()
            for label, target in lts.edges[state]:
                seen = paths[state]
                if str(label) == "c2":
                    seen = seen | {"s2-started"}
                if target not in paths:
                    paths[target] = seen
                    frontier.append(target)
                    if "s2-started" in seen:
                        term = system.decode(lts.state_terms[target])
                        for _src, _dest, message in term.medium.iter_messages():
                            assert message.node >= boundary - 2, (
                                "an S1-region message survived into S2"
                            )

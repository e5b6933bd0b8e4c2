"""Centralized "trivial solution" baseline tests (E10)."""

import pytest

from repro import workloads
from repro.core.centralized import (
    derive_centralized,
    static_message_count,
)
from repro.core.generator import derive_protocol
from repro.errors import DerivationError
from repro.runtime import build_system, check_run, random_run

SERVICE = "SPEC a1; b2; c3; a1; b2; exit ENDSPEC"


class TestConstruction:
    def test_default_server_is_smallest_place(self):
        result = derive_centralized(SERVICE)
        assert result.server == 1
        assert set(result.entities) == {1, 2, 3}

    def test_explicit_server(self):
        result = derive_centralized(SERVICE, server=2)
        assert result.server == 2

    def test_invalid_server_rejected(self):
        with pytest.raises(DerivationError):
            derive_centralized(SERVICE, server=9)

    def test_server_keeps_local_events_inline(self):
        from repro.lotos.events import ServicePrimitive
        from repro.lotos.syntax import ActionPrefix

        result = derive_centralized(SERVICE)
        events = [
            node.event
            for node in result.entities[1].root.behaviour.walk()
            if isinstance(node, ActionPrefix)
            and isinstance(node.event, ServicePrimitive)
        ]
        assert all(event.place == 1 for event in events)

    def test_clients_loop_over_their_primitives(self):
        result = derive_centralized(SERVICE)
        client = result.entities[2]
        assert [d.name for d in client.definitions] == ["Client"]

    def test_rendezvous_sync_rejected(self):
        with pytest.raises(DerivationError, match="rendezvous"):
            derive_centralized("SPEC a1; m2; exit |[m2]| m2; c3; exit ENDSPEC")


class TestExecution:
    def test_produces_the_service_trace(self):
        central = derive_centralized(SERVICE)
        system = build_system(central.entities)
        for seed in range(10):
            run = random_run(system, seed=seed, max_steps=1_000)
            verdict = check_run(SERVICE, run)
            assert run.terminated and verdict.ok, f"seed {seed}: {run}"

    def test_two_messages_per_remote_event_plus_halt(self):
        central = derive_centralized(SERVICE)
        system = build_system(central.entities)
        run = random_run(system, seed=0, max_steps=1_000)
        # 4 remote primitives (b2, c3, b2... wait: b2, c3, b2) -> the
        # service has b2, c3, b2: 3 remote occurrences? a1 twice local.
        # messages = 2 * remote + halts
        prepared = derive_protocol(SERVICE).prepared
        assert run.messages_sent == static_message_count(central, prepared)

    def test_costs_more_than_distributed_on_pipelines(self):
        # A pipeline visiting every place repeatedly: the distributed
        # derivation needs 1 message per hop, the centralized one 2 per
        # remote event (plus halt broadcast).  This is the paper's
        # motivating comparison measured; the pipeline rows are the E10
        # table of EXPERIMENTS.md.
        for service, dist_sent, cent_sent in [
            ("SPEC a1; b2; c3; b2; c3; b2; exit ENDSPEC", 5, 12),
            (workloads.pipeline(3, rounds=2), 5, 10),
            (workloads.pipeline(4, rounds=3), 11, 21),
            (workloads.pipeline(5, rounds=4), 19, 36),
        ]:
            distributed = derive_protocol(service)
            central = derive_centralized(service)
            dist_run = random_run(build_system(distributed.entities), seed=3)
            cent_run = random_run(build_system(central.entities), seed=3)
            assert dist_run.terminated and cent_run.terminated
            assert len(dist_run.trace) == len(cent_run.trace)
            assert (dist_run.messages_sent, cent_run.messages_sent) == (
                dist_sent, cent_sent
            )

    def test_server_load_dominates(self):
        # Every message involves the server in the centralized scheme;
        # the distributed derivation of the same service spreads it.
        import random

        from repro.lotos.events import ReceiveAction, SendAction

        def touches(entities):
            system = build_system(entities, hide=False)
            state = system.initial
            per_place = {}
            total = 0
            rng = random.Random(1)
            for _ in range(500):
                transitions = system.transitions(state)
                if not transitions:
                    break
                label, state = transitions[rng.randrange(len(transitions))]
                if isinstance(label, (SendAction, ReceiveAction)):
                    total += 1
                    for place in {label.src, label.dest}:
                        per_place[place] = per_place.get(place, 0) + 1
            assert total > 0
            return per_place, total

        central = derive_centralized(SERVICE)
        per_place, total = touches(central.entities)
        assert per_place[central.server] == total  # all traffic via the server
        per_place, total = touches(derive_protocol(SERVICE).entities)
        assert max(per_place.values()) < total

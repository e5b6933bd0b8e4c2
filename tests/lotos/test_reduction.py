"""Tau-chain compression tests."""

import pytest

from repro.core.generator import derive_protocol
from repro.lotos.equivalence import (
    observationally_congruent,
    weak_bisimilar,
)
from repro.lotos.lts import build_lts
from repro.lotos.parser import parse_behaviour
from repro.lotos.reduction import compress_tau_chains
from repro.lotos.semantics import Semantics
from repro.runtime import build_system

SEM = Semantics()


class TestCompression:
    def test_internal_chain_collapses(self):
        lts = build_lts(parse_behaviour("i; i; i; a1; exit"), SEM)
        reduced = compress_tau_chains(lts)
        # initial state is kept; the chain behind it collapses
        assert reduced.num_states < lts.num_states
        assert weak_bisimilar(lts, reduced)

    def test_initial_state_never_merged(self):
        lts = build_lts(parse_behaviour("i; a1; exit"), SEM)
        reduced = compress_tau_chains(lts)
        assert reduced.initial == 0
        # rooted condition preserved: an initial tau remains
        assert observationally_congruent(lts, reduced)

    def test_observable_steps_untouched(self):
        lts = build_lts(parse_behaviour("a1; b2; exit"), SEM)
        reduced = compress_tau_chains(lts)
        assert reduced.num_states == lts.num_states

    def test_divergent_self_loop_kept(self):
        from repro.lotos.parser import parse

        spec = parse("SPEC L WHERE PROC L = i; L END ENDSPEC")
        semantics, root = Semantics.of_specification(spec, bind_occurrences=False)
        lts = build_lts(root, semantics)
        reduced = compress_tau_chains(lts)
        assert reduced.num_transitions >= 1  # loop not erased

    def test_branching_internal_states_kept(self):
        # a state with TWO internal successors is not deterministic
        lts = build_lts(parse_behaviour("i; a1; exit [] i; b2; exit"), SEM)
        reduced = compress_tau_chains(lts)
        assert weak_bisimilar(lts, reduced)
        assert not observationally_congruent(
            build_lts(parse_behaviour("a1; exit [] b2; exit"), SEM), reduced
        )

    @pytest.mark.parametrize(
        "service",
        [
            "SPEC a1; b2; c3; exit ENDSPEC",
            "SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC",
            "SPEC (a1; b2; B) >> d3; exit WHERE PROC B = e2; exit END ENDSPEC",
            "SPEC begin1; ready2; ready3; ((commit1; apply2; apply3; done1; exit)"
            " [] (abort1; undo2; undo3; done1; exit)) ENDSPEC",
        ],
    )
    def test_composed_systems_preserve_equivalences(self, service):
        result = derive_protocol(service)
        system = build_system(result.entities)
        lts = build_lts(system.initial, system, max_states=30_000)
        reduced = compress_tau_chains(lts)
        assert reduced.num_states < lts.num_states
        semantics, root = Semantics.of_specification(
            result.prepared, bind_occurrences=False
        )
        service_lts = build_lts(root, semantics)
        assert weak_bisimilar(service_lts, reduced)
        assert observationally_congruent(service_lts, reduced)

    def test_truncated_states_not_merged(self):
        from repro.lotos.parser import parse

        spec = parse("SPEC A WHERE PROC A = a1; A END ENDSPEC")
        semantics, root = Semantics.of_specification(spec, bind_occurrences=True)
        lts = build_lts(root, semantics, max_states=10, on_limit="truncate")
        reduced = compress_tau_chains(lts)
        assert reduced.truncated_states

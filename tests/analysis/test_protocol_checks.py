"""Protocol-analysis tests: deadlocks, blocked receptions, dead code."""

import pytest

from repro import workloads
from repro.analysis import analyze_protocol, analyze_system
from repro.core.generator import derive_protocol
from repro.lotos.parser import parse
from repro.runtime.system import build_system


class TestCleanProtocols:
    @pytest.mark.parametrize(
        "service",
        [
            "SPEC a1; b2; c3; exit ENDSPEC",
            "SPEC a1; exit >> b2; exit ENDSPEC",
            "SPEC (a1; b2; exit) [] (c1; d2; exit) ENDSPEC",
            "SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC",
            workloads.pipeline(5, rounds=2),
        ],
    )
    def test_derived_protocols_are_clean(self, service):
        result = derive_protocol(service)
        report = analyze_protocol(result.entities)
        assert report.complete
        assert report.clean, report.render()

    def test_recursive_protocol_occurrence_free(self):
        result = derive_protocol(
            "SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC"
        )
        report = analyze_protocol(result.entities, use_occurrences=False)
        assert report.complete
        assert not report.deadlocks
        assert not report.non_executable


class TestBrokenProtocols:
    def test_hand_made_cross_wait_deadlock(self):
        entities = {
            1: parse("SPEC a1; r2(9); exit ENDSPEC"),
            2: parse("SPEC b2; r1(7); exit ENDSPEC"),
        }
        report = analyze_protocol(entities)
        assert report.deadlocks
        assert len(report.blocked_receptions) == 2
        assert {blocked.place for blocked in report.blocked_receptions} == {1, 2}
        assert len(report.non_executable) == 2

    def test_witness_path_is_shortest(self):
        entities = {
            1: parse("SPEC a1; r2(9); exit ENDSPEC"),
            2: parse("SPEC b2; r1(7); exit ENDSPEC"),
        }
        report = analyze_protocol(entities)
        (deadlock,) = report.deadlocks
        assert len(deadlock.witness) == 2  # a1 and b2 in either order

    def test_pending_message_reported(self):
        # place 1 sends a message nobody ever receives, then both exit.
        entities = {
            1: parse("SPEC a1; s2(9); exit ENDSPEC"),
            2: parse("SPEC b2; exit ENDSPEC"),
        }
        report = analyze_protocol(entities, require_empty_at_exit=False)
        assert report.stale_at_termination
        (src, dest, message) = report.stale_at_termination[0]
        assert (src, dest, message.node) == (1, 2, 9)

    def test_dead_code_detected(self):
        # the r3(5) branch can never fire: there is no place 3 at all.
        entities = {
            1: parse("SPEC a1; exit [] r3(5); a1; exit ENDSPEC"),
        }
        report = analyze_protocol(entities)
        assert any(
            str(event) == "r3(5)" for _place, event in report.non_executable
        )

    def test_disable_residue_is_stale_not_deadlock(self):
        for service in (workloads.EXAMPLE3_FILE_TRANSFER, workloads.TRANSPORT_SESSION):
            result = derive_protocol(service)
            report = analyze_protocol(
                result.entities,
                discipline="selective",
                max_states=6_000,
                use_occurrences=False,
            )
            assert not report.deadlocks
            assert report.stale_at_termination  # Section 3.3 shortcoming residue


class TestReportRendering:
    def test_render_mentions_counts(self):
        result = derive_protocol("SPEC a1; b2; exit ENDSPEC")
        text = analyze_protocol(result.entities).render()
        assert "deadlocks" in text and "states explored" in text

    def test_analyze_system_requires_visible_messages_for_attribution(self):
        result = derive_protocol("SPEC a1; b2; exit ENDSPEC")
        system = build_system(result.entities, hide=True)
        # Works, but dead-code attribution needs the entities argument.
        report = analyze_system(system)
        assert report.non_executable == []


class TestDivergence:
    def test_clean_protocols_have_no_divergence(self):
        result = derive_protocol("SPEC a1; b2; c3; exit ENDSPEC")
        report = analyze_protocol(result.entities)
        assert report.divergences == []

    def test_internal_livelock_detected(self):
        # Entity 1 can slide into a silent message ping-pong with itself
        # via an internal loop: a1 then i-loop forever (hand-written).
        entities = {
            1: parse(
                "SPEC a1; L WHERE PROC L = i; L END ENDSPEC"
            ),
        }
        from repro.runtime.system import build_system
        from repro.analysis import analyze_system

        system = build_system(entities, hide=False, use_occurrences=False)
        report = analyze_system(system, entities=entities, max_states=100)
        assert report.divergences
        assert not report.clean

    def test_divergence_skipped_on_truncation(self):
        result = derive_protocol(
            "SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC"
        )
        report = analyze_protocol(result.entities, max_states=40)
        assert not report.complete
        assert report.divergences == []  # honestly not computed

"""The lint framework: every rule triggered and not triggered.

Each shipped rule (L001-L011) gets at least one specification that
fires it and one nearby specification that stays quiet, so rule logic
regressions show up as a missing/extra rule id rather than a diff in
prose.  The engine-level behaviours — parse failures as E001,
preparation failures as E002, restriction passthrough, span threading,
sorting, the JSON schema — are covered alongside.
"""

import json

import pytest

from repro import workloads
from repro.analysis.lint import (
    ERROR,
    INFO,
    JSON_SCHEMA_VERSION,
    RULES,
    SEVERITIES,
    WARNING,
    Diagnostic,
    lint_spec,
    lint_text,
)
from repro.lotos.location import Span
from repro.lotos.parser import parse
from repro.lotos.unparse import unparse

#: Paper Example 3 — the reference "clean" specification.
CLEAN = """SPEC S [> interrupt3; exit WHERE
  PROC S = (read1; push2; S >> pop2; write3; exit)
        [] (eof1; make3; exit) END
ENDSPEC
"""


def fired(text):
    """Set of rule ids reported for ``text``."""
    return {d.rule for d in lint_text(text)}


def only(text, rule_id):
    """The diagnostics of one rule, asserting there is at least one."""
    found = [d for d in lint_text(text) if d.rule == rule_id]
    assert found, f"expected {rule_id} to fire"
    return found


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        expected = {f"L{n:03d}" for n in range(1, 12)}
        assert set(RULES) == expected

    def test_rule_metadata_complete(self):
        for rule_id, rule in RULES.items():
            assert rule.id == rule_id
            assert rule.severity in SEVERITIES
            assert rule.name and rule.summary

    def test_clean_spec_is_clean(self):
        result = lint_text(CLEAN)
        assert result.ok
        assert not result.diagnostics
        # The largest generated services have no error findings either.
        assert lint_spec(workloads.pipeline(8, rounds=4)).ok
        assert lint_text(unparse(workloads.process_chain(12, places=3))).ok


class TestUnusedProcess:
    def test_triggers(self):
        [diag] = only(
            "SPEC a1; b2; exit WHERE\n  PROC Helper = c2; exit END\nENDSPEC",
            "L001",
        )
        assert "'Helper'" in diag.message
        assert (diag.span.line, diag.span.column) == (2, 8)

    def test_transitively_used_does_not_trigger(self):
        text = (
            "SPEC A WHERE\n"
            "  PROC A = a1; B END\n"
            "  PROC B = b2; exit END\n"
            "ENDSPEC"
        )
        assert "L001" not in fired(text)

    def test_only_cyclically_used_triggers(self):
        # A and B invoke each other but nothing reaches them from the root.
        text = (
            "SPEC x1; exit WHERE\n"
            "  PROC A = a1; B END\n"
            "  PROC B = b2; A END\n"
            "ENDSPEC"
        )
        assert len(only(text, "L001")) == 2


class TestShadowedProcess:
    def test_sibling_duplicate_triggers(self):
        text = (
            "SPEC P WHERE\n"
            "  PROC P = a1; exit END\n"
            "  PROC P = b2; exit END\n"
            "ENDSPEC"
        )
        [diag] = only(text, "L002")
        assert (diag.span.line, diag.span.column) == (3, 8)
        assert "(defined at 2:8)" in diag.message

    def test_nested_shadow_triggers(self):
        text = (
            "SPEC P WHERE\n"
            "  PROC P = a1; Inner\n"
            "    WHERE PROC Inner = b2; exit END\n"
            "  END\n"
            "  PROC Inner = c2; exit END\n"
            "ENDSPEC"
        )
        assert "L002" in fired(text)

    def test_distinct_names_do_not_trigger(self):
        assert "L002" not in fired(CLEAN)


class TestUnreachableCode:
    def test_never_exiting_left_triggers(self):
        text = (
            "SPEC Loop >> b2; exit WHERE\n"
            "  PROC Loop = a1; Loop END\n"
            "ENDSPEC"
        )
        [diag] = only(text, "L003")
        assert diag.span is not None
        assert "never terminate" in diag.message

    def test_exiting_left_does_not_trigger(self):
        assert "L003" not in fired("SPEC a1; exit >> b2; exit ENDSPEC")

    def test_recursion_with_exit_branch_does_not_trigger(self):
        # Paper Example 2: the recursion CAN exit via the base case.
        text = (
            "SPEC A WHERE\n"
            "  PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END\n"
            "ENDSPEC"
        )
        assert "L003" not in fired(text)


class TestSyncGates:
    def test_unused_sync_event_triggers(self):
        [diag] = only("SPEC (a1; exit) |[b1]| (b1; exit) ENDSPEC", "L004")
        assert "'b1'" in diag.message and "left operand" in diag.message

    def test_offered_by_neither_side(self):
        [diag] = only("SPEC (a1; exit) |[c1]| (b1; exit) ENDSPEC", "L004")
        assert "neither operand" in diag.message

    def test_offered_through_reference_does_not_trigger(self):
        text = (
            "SPEC (a1; P) |[b1]| (b1; exit) WHERE\n"
            "  PROC P = b1; exit END\n"
            "ENDSPEC"
        )
        assert "L004" not in fired(text)

    def test_common_event_outside_set_is_info(self):
        [diag] = only(
            "SPEC (a1; b2; exit) |[a1]| (a1; b2; exit) ENDSPEC", "L005"
        )
        assert diag.severity == INFO
        assert "'b2'" in diag.message

    def test_fully_synchronized_does_not_trigger(self):
        text = "SPEC (a1; b2; exit) |[a1, b2]| (a1; b2; exit) ENDSPEC"
        assert "L005" not in fired(text)

    def test_interleaving_never_triggers_sync_rules(self):
        text = "SPEC (a1; exit) ||| (a1; exit) ENDSPEC"
        assert {"L004", "L005"} & fired(text) == set()


class TestHideUnusedGate:
    def test_triggers(self):
        [diag] = only("SPEC hide h2 in a1; exit ENDSPEC", "L006")
        assert "'h2'" in diag.message

    def test_hidden_event_present_does_not_trigger(self):
        assert "L006" not in fired("SPEC hide a1 in a1; exit ENDSPEC")


class TestUnguardedRecursion:
    def test_direct_triggers(self):
        text = "SPEC A WHERE\n  PROC A = A [] a1; exit END\nENDSPEC"
        [diag] = only(text, "L007")
        assert diag.severity == ERROR
        assert (diag.span.line, diag.span.column) == (2, 8)

    def test_mutual_triggers(self):
        text = (
            "SPEC A WHERE\n"
            "  PROC A = B END\n"
            "  PROC B = A END\n"
            "ENDSPEC"
        )
        assert len(only(text, "L007")) == 2

    def test_guarded_recursion_does_not_trigger(self):
        assert "L007" not in fired(CLEAN)


class TestInertOperand:
    def test_stop_choice_operand_triggers(self):
        [diag] = only("SPEC a1; exit [] stop ENDSPEC", "L008")
        assert "right alternative" in diag.message

    def test_stop_parallel_operand_triggers(self):
        [diag] = only("SPEC stop ||| a1; exit ENDSPEC", "L008")
        assert "left operand" in diag.message

    def test_stop_interrupt_operand_triggers(self):
        [diag] = only("SPEC (a1; exit) [> stop ENDSPEC", "L008")
        assert "interrupt operand" in diag.message

    def test_live_operands_do_not_trigger(self):
        assert "L008" not in fired("SPEC a1; exit [] b1; exit ENDSPEC")


class TestMixedChoice:
    def test_two_starter_choice_triggers(self):
        [diag] = only("SPEC a1; exit [] b2; exit ENDSPEC", "L009")
        assert "(1 and 2)" in diag.message
        assert "--mixed-choice" in diag.hint

    def test_single_starter_choice_does_not_trigger(self):
        assert "L009" not in fired(CLEAN)

    def test_mixed_choice_mode_forgives_arbiter_choices(self):
        # Same R2-clean two-starter choice as the two_phase_commit example.
        text = "SPEC a1; c3; exit [] b2; c3; exit ENDSPEC"
        plain = {d.rule for d in lint_text(text)}
        assert {"L009", "R1"} <= plain
        forgiven = lint_text(text, mixed_choice=True)
        assert {d.rule for d in forgiven} & {"L009", "R1"} == set()
        assert forgiven.ok

    def test_mixed_choice_mode_keeps_unresolvable_r1(self):
        # SP(left) is not a singleton: the arbiter cannot help; R1 stays.
        text = "SPEC (a1; c3; exit ||| b2; c3; exit) [] d3; c3; exit ENDSPEC"
        result = lint_text(text, mixed_choice=True)
        assert "R1" in {d.rule for d in result}


class TestNeedlessSync:
    def test_narrow_disable_triggers(self):
        text = "SPEC ((a1; b2; exit) [> (c2; exit)) >> d3; exit ENDSPEC"
        [diag] = only(text, "L010")
        assert diag.severity == INFO
        assert "{1,2}" in diag.message and "{1,2,3}" in diag.message

    def test_narrow_invocation_triggers(self):
        text = (
            "SPEC P >> c3; exit WHERE\n"
            "  PROC P = a1; b2; exit END\n"
            "ENDSPEC"
        )
        [diag] = only(text, "L010")
        assert "'P'" in diag.message

    def test_spec_wide_disable_does_not_trigger(self):
        # Paper Example 6: the disable spans all places of the spec.
        assert "L010" not in fired(
            "SPEC (a1; b2; c3; exit) [> (d3; exit) ENDSPEC"
        )

    def test_single_place_spec_does_not_trigger(self):
        text = "SPEC P WHERE\n  PROC P = a1; exit END\nENDSPEC"
        assert "L010" not in fired(text)


class TestDisableNotActionPrefix:
    def test_reference_operand_triggers(self):
        text = (
            "SPEC (a1; b2; exit) [> Handler WHERE\n"
            "  PROC Handler = d2; exit END\n"
            "ENDSPEC"
        )
        [diag] = only(text, "L011")
        assert "action prefix form" in diag.message

    def test_prefix_operand_does_not_trigger(self):
        assert "L011" not in fired(CLEAN)


class TestEngine:
    def test_parse_error_is_e001(self):
        result = lint_text("SPEC a1; ENDSPEC")
        [diag] = result.diagnostics
        assert diag.rule == "E001" and diag.severity == ERROR
        assert (diag.span.line, diag.span.column) == (1, 10)
        assert not result.ok

    def test_lexer_garbage_is_e001(self):
        assert fired("SPEC @!? ENDSPEC") == {"E001"}

    def test_unbound_reference_is_e002(self):
        result = lint_text("SPEC Ghost ENDSPEC")
        assert [d.rule for d in result.diagnostics] == ["E002"]
        assert "Ghost" in result.diagnostics[0].message

    def test_syntactic_rules_survive_preparation_failure(self):
        # Ghost breaks attribute evaluation; the purely syntactic L008
        # must still report the inert choice operand.
        found = fired("SPEC (a1; exit [] stop) >> Ghost ENDSPEC")
        assert "E002" in found and "L008" in found

    def test_restrictions_reported_as_errors(self):
        result = lint_text("SPEC a1; exit [] b2; exit ENDSPEC")
        by_rule = {d.rule: d for d in result.diagnostics}
        assert by_rule["R1"].severity == ERROR
        assert by_rule["R1"].name == "restriction-r1"
        assert by_rule["R1"].span is not None
        assert not result.ok

    def test_grammar_violations_located(self):
        [diag] = [d for d in lint_text("SPEC a1; stop ENDSPEC") if d.rule == "GRAMMAR"]
        assert (diag.span.line, diag.span.column) == (1, 10)

    def test_guard_and_apf_passthrough_superseded(self):
        # Unguarded recursion and non-APF disables surface as L007/L011,
        # never as the raw GUARD/APF restriction rules.
        unguarded = "SPEC A WHERE\n  PROC A = A [] a1; exit END\nENDSPEC"
        assert "GUARD" not in fired(unguarded)
        non_apf = (
            "SPEC (a1; b2; exit) [> Handler WHERE\n"
            "  PROC Handler = d2; exit END\n"
            "ENDSPEC"
        )
        assert "APF" not in fired(non_apf)

    def test_diagnostics_sorted_by_position(self):
        result = lint_text(
            "SPEC x1; exit WHERE\n"
            "  PROC A = a1; exit END\n"
            "  PROC B = b2; exit END\n"
            "ENDSPEC"
        )
        positions = [(d.span.line, d.span.column) for d in result.diagnostics]
        assert positions == sorted(positions)

    def test_lint_spec_accepts_parsed_specification(self):
        result = lint_spec(parse(CLEAN), source="clean.lotos")
        assert result.ok and result.source == "clean.lotos"


class TestDiagnosticModel:
    def test_format_is_gcc_style(self):
        diag = Diagnostic(
            rule="L001",
            name="unused-process",
            severity=WARNING,
            message="boom",
            span=Span(3, 8),
            hint="fix it",
        )
        assert diag.format("s.lotos") == (
            "s.lotos:3:8: warning: boom [L001]\n    hint: fix it"
        )

    def test_format_without_span(self):
        diag = Diagnostic("E002", "analysis-error", ERROR, "boom")
        assert diag.format("s.lotos") == "s.lotos: error: boom [E002]"

    def test_spans_are_one_based_and_cover_the_construct(self):
        [diag] = only(
            "SPEC a1; b2; exit WHERE\n  PROC Helper = c2; exit END\nENDSPEC",
            "L001",
        )
        assert diag.span.line >= 1 and diag.span.column >= 1

    def test_result_counts(self):
        result = lint_text("SPEC a1; exit [] b2; exit ENDSPEC")
        counts = result.summary()
        assert counts["errors"] == len(result.errors)
        assert counts["warnings"] == len(result.warnings)
        assert len(result) == sum(counts.values())


class TestJsonSchema:
    def test_round_trips_through_json_loads(self):
        result = lint_text(
            "SPEC a1; exit [] b2; exit ENDSPEC", source="mixed.lotos"
        )
        document = json.loads(result.render_json())
        assert document == result.to_dict()

    def test_document_shape(self):
        document = json.loads(
            lint_text(
                "SPEC a1; exit [] b2; exit ENDSPEC", source="mixed.lotos"
            ).render_json()
        )
        assert document["version"] == JSON_SCHEMA_VERSION
        assert document["source"] == "mixed.lotos"
        assert set(document["summary"]) == {"errors", "warnings", "infos"}
        for entry in document["diagnostics"]:
            assert set(entry) == {
                "rule",
                "name",
                "severity",
                "message",
                "line",
                "column",
                "end_line",
                "end_column",
                "hint",
            }
            assert entry["severity"] in SEVERITIES
            assert entry["line"] is None or entry["line"] >= 1

    def test_clean_document(self):
        document = json.loads(lint_text(CLEAN, source="ok.lotos").render_json())
        assert document["diagnostics"] == []
        assert document["summary"] == {"errors": 0, "warnings": 0, "infos": 0}


@pytest.mark.parametrize("rule_id", sorted(RULES))
def test_every_rule_has_trigger_coverage(rule_id):
    """Every registered rule is exercised by at least one trigger above."""
    triggers = {
        "L001": "SPEC a1; exit WHERE\n  PROC Helper = c2; exit END\nENDSPEC",
        "L002": (
            "SPEC P WHERE\n  PROC P = a1; exit END\n"
            "  PROC P = b2; exit END\nENDSPEC"
        ),
        "L003": (
            "SPEC Loop >> b2; exit WHERE\n  PROC Loop = a1; Loop END\nENDSPEC"
        ),
        "L004": "SPEC (a1; exit) |[b1]| (b1; exit) ENDSPEC",
        "L005": "SPEC (a1; b2; exit) |[a1]| (a1; b2; exit) ENDSPEC",
        "L006": "SPEC hide h2 in a1; exit ENDSPEC",
        "L007": "SPEC A WHERE\n  PROC A = A [] a1; exit END\nENDSPEC",
        "L008": "SPEC a1; exit [] stop ENDSPEC",
        "L009": "SPEC a1; exit [] b2; exit ENDSPEC",
        "L010": "SPEC ((a1; b2; exit) [> (c2; exit)) >> d3; exit ENDSPEC",
        "L011": (
            "SPEC (a1; b2; exit) [> Handler WHERE\n"
            "  PROC Handler = d2; exit END\nENDSPEC"
        ),
    }
    assert rule_id in fired(triggers[rule_id])

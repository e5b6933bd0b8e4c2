"""Message-complexity tests: the Section 4.3 bounds (E8).

Each bound is checked on a hand-written service and on the largest
``repro.workloads`` member of its construct family.
"""

import pytest

from repro import workloads
from repro.core.complexity import analyze, analyze_ledger, bound_for
from repro.core.derivation import Deriver
from repro.core.generator import derive_protocol


class TestBounds:
    def test_bound_table(self):
        assert bound_for("seq", 5) == 1
        assert bound_for("enable", 5) == 1
        assert bound_for("choice", 5) == 5
        assert bound_for("rel", 5) == 4
        assert bound_for("interr", 5) == 4
        assert bound_for("proc", 5) == 4

    def test_unknown_rule(self):
        with pytest.raises(ValueError):
            bound_for("mystery", 3)


class TestSequenceCounts:
    def test_one_message_per_cross_place_hop(self):
        for service, hops in [
            ("SPEC a1; b2; c3; d1; exit ENDSPEC", 3),
            (workloads.pipeline(8, rounds=1), 7),
        ]:
            report = analyze(derive_protocol(service))
            assert report.total_messages == hops
            assert report.per_rule() == {"seq": hops}
            assert report.violations() == []

    def test_local_hops_are_free(self):
        result = derive_protocol("SPEC a1; b1; c1; exit ENDSPEC")
        report = analyze(result)
        assert report.total_messages == 0

    def test_enable_counts(self):
        result = derive_protocol("SPEC a1; exit >> b2; exit ENDSPEC")
        report = analyze(result)
        assert report.per_rule() == {"enable": 1}


class TestParallelMultiplication:
    def test_fan_out_to_parallel_starts(self):
        for service, messages in [
            # e1 >> (e2 ||| e3): 2 messages instead of 1 (paper Section 4.3).
            ("SPEC a1; exit >> (b2; exit ||| c3; exit) ENDSPEC", 2),
            # start >> (n-2 branches) >> join: each enable fans out.
            (workloads.fan_out_join(3), 2 * (3 - 2)),
            (workloads.fan_out_join(7), 2 * (7 - 2)),
        ]:
            report = analyze(derive_protocol(service))
            assert report.per_rule()["enable"] == messages

    def test_fan_in_from_parallel_ends(self):
        result = derive_protocol(
            "SPEC (b2; exit ||| c3; exit) >> a1; exit ENDSPEC"
        )
        report = analyze(result)
        assert report.per_rule()["enable"] == 2

    def test_parallel_context_flagged_as_exceeding_bound(self):
        result = derive_protocol(
            "SPEC a1; exit >> (b2; exit ||| c3; exit) ENDSPEC"
        )
        report = analyze(result)
        # The per-construct bound of 1 is legitimately exceeded — the
        # paper: "each parallel expression may be a multiplication factor".
        assert report.violations()


class TestChoiceCounts:
    def test_non_participating_places_cost_messages(self):
        for service, messages in [
            # left involves {1,2}, right involves {1,3}: choosing either
            # side notifies the one excluded place.
            ("SPEC (a1; b2; c1; exit) [] (d1; e3; f1; exit) ENDSPEC", 2),
            # 8 alternatives routed through places 2-4 of 5.
            (workloads.choice_ladder(8, places=5), 15),
        ]:
            report = analyze(derive_protocol(service))
            assert report.per_rule()["choice"] == messages
            assert report.violations() == []

    def test_identical_alternative_places_cost_nothing(self):
        for service in [
            "SPEC (a1; b2; exit) [] (c1; d2; exit) ENDSPEC",
            workloads.choice_ladder(8),
        ]:
            report = analyze(derive_protocol(service))
            assert "choice" not in report.per_rule()


class TestDisableCounts:
    def test_rel_and_interr(self):
        result = derive_protocol("SPEC a1; b2; c3; exit [> d3; exit ENDSPEC")
        report = analyze(result)
        n = 3
        per_rule = report.per_rule()
        assert per_rule["rel"] == n - 1  # place 3 broadcasts termination
        assert per_rule["interr"] == n - 1  # d3 broadcast (continuation exits)
        assert report.violations() == []

    def test_total_disable_budget(self):
        for service in [
            "SPEC a1; b2; c3; exit [> d3; exit ENDSPEC",
            workloads.interrupt_stack(2),
            workloads.interrupt_stack(5),
        ]:
            result = derive_protocol(service)
            per_rule = analyze(result).per_rule()
            n = len(result.attrs.all_places)
            assert per_rule["rel"] <= n - 1 and per_rule["interr"] <= n - 1
            # 2n-3 under the paper's assumptions; 2n-2 with an
            # exit-continuation interrupt.
            assert per_rule["rel"] + per_rule["interr"] <= 2 * n - 2


class TestProcessCounts:
    def test_invocation_broadcast(self):
        for service, invocations in [
            ("SPEC B >> c3; exit WHERE PROC B = a1; b2; exit END ENDSPEC", 1),
            (workloads.process_chain(8), 8),
        ]:
            result = derive_protocol(service)
            report = analyze(result)
            n = len(result.attrs.all_places)
            assert report.per_rule()["proc"] == invocations * (n - 1)
            assert report.violations() == []

    def test_recursion_counts_static_occurrences(self):
        result = derive_protocol(
            "SPEC A WHERE PROC A = (a1; A >> b2; exit) [] (a1; b2; exit) END ENDSPEC"
        )
        report = analyze(result)
        # two textual invocation sites (root + recursive), n-1 = 1 each
        assert report.per_rule()["proc"] == 2


class TestLedger:
    def test_ledger_alignment_with_entities(self):
        result = derive_protocol("SPEC a1; b2; exit ENDSPEC")
        deriver = Deriver(result.prepared, result.attrs)
        for place in result.places:
            deriver.derive(place)
        sends = [e for e in deriver.ledger if e.role == "send"]
        receives = [e for e in deriver.ledger if e.role == "receive"]
        assert len(sends) == 1 and len(receives) == 1
        assert sends[0].node == receives[0].node

    def test_analyze_ledger_counts_sends_only(self):
        result = derive_protocol("SPEC a1; b2; exit ENDSPEC")
        deriver = Deriver(result.prepared, result.attrs)
        for place in result.places:
            deriver.derive(place)
        report = analyze_ledger(deriver.ledger, 2)
        assert report.total_messages == 1

    def test_naive_derivation_has_empty_ledger(self):
        result = derive_protocol("SPEC a1; b2; exit ENDSPEC", emit_sync=False)
        deriver = Deriver(result.prepared, result.attrs, emit_sync=False)
        for place in result.places:
            deriver.derive(place)
        assert deriver.ledger == []

    def test_table_rendering(self):
        result = derive_protocol("SPEC a1; b2; c3; exit [> d3; exit ENDSPEC")
        table = analyze(result).table()
        assert "places (n)" in table and "rel" in table and "interr" in table

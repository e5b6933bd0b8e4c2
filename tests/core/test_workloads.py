"""Workload-generator tests: every family derives and verifies."""

import pytest

from repro import workloads
from repro.core.complexity import analyze
from repro.core.generator import derive_protocol
from repro.runtime import build_system, check_run, random_run


class TestPipeline:
    def test_place_count(self):
        result = derive_protocol(workloads.pipeline(5))
        assert len(result.places) == 5

    def test_rounds_multiply_events(self):
        spec = workloads.pipeline(3, rounds=4)
        result = derive_protocol(spec)
        system = build_system(result.entities)
        run = random_run(system, seed=0, max_steps=4_000)
        assert run.terminated
        assert len(run.trace) == 12

    def test_message_count_formula(self):
        for places in (2, 3, 6):
            report = analyze(derive_protocol(workloads.pipeline(places)))
            assert report.total_messages == places - 1

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            workloads.pipeline(0)
        with pytest.raises(ValueError):
            workloads.pipeline(3, rounds=0)


class TestFanOutJoin:
    def test_structure(self):
        result = derive_protocol(workloads.fan_out_join(5))
        assert result.places == [1, 2, 3, 4, 5]

    def test_branches_run_in_parallel(self):
        result = derive_protocol(workloads.fan_out_join(4))
        system = build_system(result.entities)
        traces = set()
        for seed in range(12):
            run = random_run(system, seed=seed, max_steps=500)
            assert run.terminated
            traces.add(tuple(str(event) for event in run.trace))
        assert len(traces) > 1  # interleavings differ

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            workloads.fan_out_join(2)


class TestChoiceLadder:
    def test_alternatives_all_reachable(self):
        result = derive_protocol(workloads.choice_ladder(3))
        system = build_system(result.entities)
        first_events = set()
        for seed in range(30):
            run = random_run(system, seed=seed, max_steps=500)
            assert run.terminated and check_run(result.service, run)
            first_events.add(str(run.trace[0]))
        assert len(first_events) == 3

    def test_minimum(self):
        with pytest.raises(ValueError):
            workloads.choice_ladder(1)


class TestRecursionTower:
    def test_balanced_unwinding(self):
        result = derive_protocol(workloads.recursion_tower(3))
        for use_occurrences in (True, False):
            system = build_system(result.entities, use_occurrences=use_occurrences)
            for seed in range(15):
                run = random_run(system, seed=seed, max_steps=2_000)
                assert run.terminated
                names = [event.name for event in run.trace]
                assert names.count("a") == names.count("u") // 2 >= 1


class TestInterruptStack:
    def test_derives_with_disable(self):
        result = derive_protocol(workloads.interrupt_stack(4))
        assert result.violations == []

    def test_interrupt_event_at_last_place(self):
        result = derive_protocol(workloads.interrupt_stack(3))
        system = build_system(
            result.entities, discipline="selective", require_empty_at_exit=False
        )
        interrupted = sum(
            1
            for seed in range(30)
            if any(
                event.name == "k"
                for event in random_run(system, seed=seed, max_steps=400).trace
            )
        )
        assert 0 < interrupted


class TestProcessChain:
    def test_every_process_invoked(self):
        result = derive_protocol(workloads.process_chain(4))
        system = build_system(result.entities)
        run = random_run(system, seed=1, max_steps=4_000)
        assert run.terminated
        names = {event.name for event in run.trace}
        assert {f"h{index}x" for index in range(4)} <= {
            name[: len(name)] for name in names
        } or all(f"h{index}x" in "".join(sorted(names)) for index in range(4))

    def test_conformance(self):
        result = derive_protocol(workloads.process_chain(3))
        system = build_system(result.entities)
        for seed in range(10):
            run = random_run(system, seed=seed, max_steps=4_000)
            assert check_run(result.service, run)

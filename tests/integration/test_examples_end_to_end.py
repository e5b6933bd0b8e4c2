"""End-to-end executions of the paper's examples (E2, E5, E6, E11)."""

import random

from repro.runtime import build_system, check_run, random_run
from repro.runtime.conformance import check_trace
from repro.runtime.executor import run_many


class TestExample2CountingProtocol:
    def test_all_schedules_conform(self, example2):
        system = build_system(example2.entities)
        for run in run_many(system, runs=50, max_steps=600):
            verdict = check_run(example2.service, run)
            assert verdict.ok, str(verdict)

    def test_traces_are_a_power_n_b_power_n(self, example2):
        system = build_system(example2.entities)
        seen_n = set()
        for run in run_many(system, runs=60, max_steps=600):
            assert run.terminated
            names = [event.name for event in run.trace]
            n = names.count("a")
            assert names == ["a"] * n + ["b"] * n
            assert n >= 1
            seen_n.add(n)
        assert len(seen_n) > 2  # genuinely varying depth

    def test_nonregular_depth_reachable(self, example2):
        # Drive the recursion to a fixed depth and confirm balance.  At
        # place 1 the choice offers two a1 transitions: the first (left
        # alternative) recurses, the last (right alternative) terminates
        # the descent.
        system = build_system(example2.entities)
        rng = random.Random(7)
        target = 12
        done = [0]

        def steer(state, transitions):
            a1_indices = [
                index
                for index, (label, _) in enumerate(transitions)
                if str(label) == "a1"
            ]
            others = [
                index
                for index, (label, _) in enumerate(transitions)
                if str(label) != "a1"
            ]
            if a1_indices and done[0] < target:
                done[0] += 1
                return a1_indices[0]  # recursive alternative
            if others:
                return rng.choice(others)
            done[0] += 1
            return a1_indices[-1]  # terminating alternative

        run = random_run(system, seed=1, max_steps=4_000, chooser=steer)
        names = [event.name for event in run.trace]
        assert run.terminated, run
        assert names.count("a") == names.count("b")
        assert names.count("a") >= target


class TestExample5ChoiceSynchronization:
    def test_place2_always_learns_the_choice(self, example5):
        # The motivating bug of Section 3.2: place 2 must not hang when
        # place 1 ends the recursion via the right alternative.
        system = build_system(example5.entities)
        for run in run_many(system, runs=40, max_steps=1_000):
            assert not run.deadlocked, str(run)
            verdict = check_run(example5.service, run)
            assert verdict.ok, str(verdict)

    def test_recursive_descent_then_exit(self, example5):
        system = build_system(example5.entities)
        depth = [0]

        def steer(state, transitions):
            for index, (label, _) in enumerate(transitions):
                if str(label) == "a1" and depth[0] < 3:
                    depth[0] += 1
                    return index
            for index, (label, _) in enumerate(transitions):
                if str(label) != "a1":
                    return index
            return 0

        run = random_run(system, seed=2, max_steps=2_000, chooser=steer)
        names = [str(event) for event in run.trace]
        assert run.terminated, run
        # every recursive descent must be unwound with a c2 before d3:
        assert names.count("a1") == names.count("c2")
        assert names[-1] == "d3" or names[-1] == "f3"


class TestExample6Disable:
    def test_no_deadlock_under_any_schedule(self, example6, example3):
        # Example 3 is the paper's other [>-service; it also stays
        # deadlock-free under both queue disciplines.
        for result, discipline in [
            (example6, "selective"),
            (example3, "fifo"),
            (example3, "selective"),
        ]:
            system = build_system(
                result.entities, discipline=discipline, require_empty_at_exit=False
            )
            for run in run_many(system, runs=50, max_steps=400):
                assert not run.deadlocked, str(run)
                assert run.terminated, str(run)

    def test_interrupt_can_preempt(self, example6):
        system = build_system(
            example6.entities, discipline="selective", require_empty_at_exit=False
        )
        preempted = False
        for seed in range(50):
            run = random_run(system, seed=seed, max_steps=400)
            names = [str(event) for event in run.trace]
            if "d3" in names and "c3" not in names:
                preempted = True
        assert preempted

    def test_normal_completion_suppresses_interrupt(self, example6):
        system = build_system(
            example6.entities, discipline="selective", require_empty_at_exit=False
        )

        def never_d3(state, transitions):
            for index, (label, _) in enumerate(transitions):
                if str(label) != "d3":
                    return index
            return 0

        run = random_run(system, seed=0, max_steps=400, chooser=never_d3)
        names = [str(event) for event in run.trace]
        assert names == ["a1", "b2", "c3"]
        assert run.terminated

    def test_abnormal_orderings_are_the_documented_shortcomings(self, example6):
        # Any non-service trace must be explainable by Section 3.3's
        # shortcoming (ii): a normal event sliding past d3 while the
        # broadcast is in flight.
        system = build_system(
            example6.entities, discipline="selective", require_empty_at_exit=False
        )
        for seed in range(60):
            run = random_run(system, seed=seed, max_steps=400)
            if check_trace(example6.service, run.trace, terminated=run.terminated):
                continue
            names = [str(event) for event in run.trace]
            assert "d3" in names, names
            # moving the post-d3 normal events back before d3 must yield
            # a legal service trace:
            cut = names.index("d3")
            normal = [e for e in run.trace if str(e) != "d3"]
            reordered = normal[:]
            reordered.insert(len(normal), run.trace[cut])
            # normal-prefix check: the pre-d3 part plus slid events is a
            # prefix of a1.b2.c3
            prefix = [str(e) for e in normal]
            assert prefix == ["a1", "b2", "c3"][: len(prefix)], names

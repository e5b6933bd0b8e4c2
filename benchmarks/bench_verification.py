"""E9 — cost of checking the Section 5 theorem.

Times the full verification stack: LTS construction for both sides,
weak-bisimulation saturation + refinement (finite case), bounded
weak-trace comparison (recursive case), and the independent term-level
Section 5.2 composition.
"""

import pytest

from repro import workloads
from repro.core.generator import derive_protocol
from repro.lotos.equivalence import observationally_congruent, weak_bisimilar
from repro.lotos.lts import build_lts
from repro.lotos.reduction import compress_tau_chains
from repro.lotos.semantics import Semantics
from repro.runtime.system import build_system
from repro.verification.checker import verify_derivation
from repro.verification.composition import compose_term

FINITE = "SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC"


def test_verify_finite_service(benchmark):
    result = derive_protocol(FINITE)

    def run():
        report = verify_derivation(result)
        assert report.equivalent and report.congruent
        return report

    benchmark(run)


@pytest.mark.parametrize("depth", [4, 6, 8])
def test_verify_recursive_bounded(benchmark, example2_result, depth):
    def run():
        report = verify_derivation(example2_result, trace_depth=depth)
        assert report.equivalent
        return report

    benchmark(run)


@pytest.mark.parametrize("places", [2, 3, 4])
def test_verify_pipeline(benchmark, places):
    result = derive_protocol(workloads.pipeline(places, rounds=1))

    def run():
        report = verify_derivation(result)
        assert report.equivalent
        return report

    benchmark(run)


def test_system_lts_construction(benchmark, example3_result):
    def run():
        system = build_system(
            example3_result.entities,
            discipline="selective",
            require_empty_at_exit=False,
        )
        return build_lts(system.initial, system, max_states=30_000, on_limit="truncate")

    lts = benchmark(run)
    assert lts.num_states > 10


def test_weak_bisimulation_check(benchmark):
    """The exact check as ``verify_derivation`` makes it: the rooted
    condition reuses the weak check's saturated relation."""
    result = derive_protocol(FINITE)
    system = build_system(result.entities)
    system_lts = compress_tau_chains(build_lts(system.initial, system, max_states=10_000))
    semantics, root = Semantics.of_specification(result.prepared, bind_occurrences=False)
    service_lts = build_lts(root, semantics)

    def run():
        weak = weak_bisimilar(service_lts, system_lts)
        assert weak
        assert observationally_congruent(service_lts, system_lts, weak)

    benchmark(run)


def test_term_level_composition(benchmark):
    result = derive_protocol(FINITE)

    def run():
        term, environment, gates = compose_term(result.entities)
        lts = build_lts(
            term, Semantics(environment, bind_occurrences=False), max_states=60_000
        )
        return lts

    lts = benchmark(run)
    assert lts.complete


def test_tau_chain_compression(benchmark):
    """LTS reduction cost and effect (repro.lotos.reduction)."""
    result = derive_protocol(
        "SPEC begin1; ready2; ready3; ((commit1; apply2; apply3; done1; exit)"
        " [] (abort1; undo2; undo3; done1; exit)) ENDSPEC"
    )
    system = build_system(result.entities)
    lts = build_lts(system.initial, system, max_states=30_000)

    def run():
        return compress_tau_chains(lts)

    reduced = benchmark(run)
    assert reduced.num_states < lts.num_states
    print(f"\n[compression] {lts.num_states} -> {reduced.num_states} states")

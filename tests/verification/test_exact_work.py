"""Work done by one exact Section 5 check.

The weak check and the rooted (congruence) check share one saturation
and one refinement of the disjoint union: the rooted condition reuses
the relation the weak check built, whatever the verdict.
"""

import pytest

from repro.core.generator import derive_protocol
from repro.lotos.equivalence import weak_bisimilar
from repro.obs import observe
from repro.verification import checker
from repro.verification.checker import verify_derivation

SERVICE = "SPEC a1; b2; c3; d1; exit ENDSPEC"


def span_names(spans):
    for span in spans:
        yield span.name
        yield from span_names(span.children)


def checked(emit_sync):
    result = derive_protocol(SERVICE, emit_sync=emit_sync)
    with observe() as obs:
        report = verify_derivation(result)
    assert report.method == "weak-bisimulation"
    return report, list(span_names(obs.tracer.roots))


@pytest.mark.parametrize("emit_sync", [True, False], ids=["derived", "naive"])
def test_one_saturation_and_one_refinement_per_check(emit_sync):
    report, names = checked(emit_sync)
    assert report.equivalent is emit_sync and report.congruent is emit_sync
    assert names.count("equivalence.saturate") == 1
    assert names.count("equivalence.refine") == 1


def counters(registry):
    return {
        metric["name"]: sum(series["value"] for series in metric["series"])
        for metric in registry.snapshot()["metrics"]
        if metric["type"] == "counter"
    }


def test_counters_equal_one_weak_check(monkeypatch):
    """A whole positive check costs what the weak check alone costs."""
    compared = []

    def capture(lts1, lts2):
        compared.append((lts1, lts2))
        return weak_bisimilar(lts1, lts2)

    monkeypatch.setattr(checker, "weak_bisimilar", capture)
    with observe() as whole:
        report = verify_derivation(derive_protocol(SERVICE))
    assert report.equivalent and report.congruent
    with observe() as alone:
        assert weak_bisimilar(*compared[0])
    for name in ("equivalence.saturated_edges", "equivalence.refine_iterations"):
        assert counters(whole.metrics)[name] == counters(alone.metrics)[name] > 0

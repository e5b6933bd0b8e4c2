"""Per-layer attribution for traced runs.

Spans are recorded from the benchmark's own files: each layer's public
entry point is wrapped where its caller looks it up (the module or class
attribute read at call time), so no file under ``src/`` changes.  Every
span keeps a link to the span that was open when it started; a layer's
self time is its span's duration minus the durations of its child spans
(spans are strictly nested, because the benchmark runs in one thread).

Work counts come from two places: the counters the library already
publishes through ``repro.obs.metrics`` (a fresh registry per traced
pass), and counts taken here at the same seams (characters parsed,
``transitions`` calls, states of completed LTS builds, ...).
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.errors import StateSpaceLimitExceeded

#: ``after(counts, args, result, error)`` runs once a wrapped call returns.
After = Callable[[Counter, tuple, object, Optional[BaseException]], None]


def _add(key: str, measure: Callable) -> After:
    def after(counts, args, result, error):
        if error is None:
            counts[key] += measure(args, result)

    return after


def _lts_after(counts, args, result, error):
    if error is None:
        counts["lts.complete_states"] += result.num_states
    elif isinstance(error, StateSpaceLimitExceeded):
        counts["lotos.lts.budget_exceeded"] += 1


def _reduction_after(counts, args, result, error):
    if error is None:
        counts["reduction.states_in"] += args[0].num_states
        counts["reduction.states_out"] += result.num_states


#: layer -> the attributes wrapped for it: (module, attribute, after).
SEAMS: Dict[str, Sequence[Tuple[str, str, Optional[After]]]] = {
    "lotos.parser": [
        ("repro.core.generator", "parse",
         _add("lotos.parser.chars", lambda args, _: len(args[0]))),
    ],
    "core.generator": [("repro", "derive_protocol", None)],
    "core.generator.prepare": [
        ("repro.core.generator", "ProtocolGenerator.prepare", None),
    ],
    "core.attributes": [
        ("repro.core.generator", "evaluate_attributes",
         _add("core.attributes.nodes", lambda _, table: len(table.by_node))),
    ],
    "core.restrictions": [("repro.core.generator", "check_service", None)],
    "core.derivation": [
        ("repro.core.derivation", "Deriver.derive",
         _add("core.derivation.places", lambda *_: 1)),
    ],
    "lotos.unparse": [
        ("repro.core.generator", "unparse",
         _add("lotos.unparse.chars", lambda _, text: len(text))),
    ],
    "runtime.system": [
        ("repro", "build_system", None),
        ("repro.verification.checker", "build_system", None),
    ],
    "runtime.executor": [("repro", "random_run", None)],
    "runtime.conformance": [
        ("repro", "check_run",
         _add("runtime.conformance.events", lambda args, _: len(args[1].trace))),
    ],
    "lotos.lts": [("repro.verification.checker", "build_lts", _lts_after)],
    "lotos.reduction": [
        ("repro.lotos.reduction", "compress_tau_chains", _reduction_after),
    ],
    "lotos.equivalence.weak": [
        ("repro.verification.checker", "weak_bisimilar", None),
    ],
    "lotos.equivalence.congruence": [
        ("repro.verification.checker", "observationally_congruent", None),
    ],
    "lotos.traces": [
        ("repro.verification.checker", "weak_trace_equivalent",
         _add("lotos.traces.calls", lambda *_: 1)),
        ("repro.runtime.conformance", "accepts",
         _add("lotos.traces.accepts_calls", lambda *_: 1)),
    ],
    "verification.checker": [("repro", "verify_derivation", None)],
}

#: Hot methods whose calls are counted (not timed: a span per call
#: would cost more than the call).
COUNTED = {
    "lotos.semantics.transitions_calls": ("repro.lotos.semantics", "Semantics.transitions"),
    "runtime.system.transitions_calls": ("repro.runtime.system", "DistributedSystem.transitions"),
}

#: The entry points the sensitivity self-test slows down, by public name.
SLOWDOWN_SEAMS = {
    "build_lts": ("repro.verification.checker", "build_lts"),
    "weak_bisimilar": ("repro.verification.checker", "weak_bisimilar"),
    "weak_trace_equivalent": ("repro.verification.checker", "weak_trace_equivalent"),
    "Deriver.derive": ("repro.core.derivation", "Deriver.derive"),
}

#: Root span of one op; its self time is the benchmark's own glue.
OP = "op"


def _resolve(module: str, dotted: str):
    owner = importlib.import_module(module)
    *path, attribute = dotted.split(".")
    for name in path:
        owner = getattr(owner, name)
    return owner, attribute


@contextmanager
def patched(replacements: Sequence[Tuple[str, str, Callable]]) -> Iterator[None]:
    """Replace each ``module.attribute`` by ``make(original)``, then restore."""
    saved = []
    try:
        for module, dotted, make in replacements:
            owner, attribute = _resolve(module, dotted)
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, make(original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def slowed(function: Callable) -> Callable:
    """``function`` made twice as slow: it spins as long as the call took."""

    @wraps(function)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            end = perf_counter()
            deadline = end + (end - start)
            while perf_counter() < deadline:
                pass

    return wrapper


def slowdown(layer: str):
    """Context manager injecting a 2x slowdown into one listed layer."""
    module, dotted = SLOWDOWN_SEAMS[layer]
    return patched([(module, dotted, slowed)])


class Recorder:
    """Spans and counts of one traced pass.

    A span is ``[layer, parent index, start, end, child seconds]``; the
    parent index is -1 for a root.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._open: List[int] = []

    def clear(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def timed(self, layer: str, function: Callable, after: Optional[After] = None):
        spans, open_spans, counts = self.spans, self._open, self.counts

        def close(span):
            span[3] = perf_counter()
            open_spans.pop()
            if span[1] >= 0:
                spans[span[1]][4] += span[3] - span[2]

        @wraps(function)
        def wrapper(*args, **kwargs):
            span = [layer, open_spans[-1] if open_spans else -1, 0.0, 0.0, 0.0]
            open_spans.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException as error:
                close(span)
                if after is not None:
                    after(counts, args, None, error)
                raise
            close(span)
            if after is not None:
                after(counts, args, result, None)
            return result

        return wrapper

    def counted(self, key: str, function: Callable) -> Callable:
        counts = self.counts

        @wraps(function)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every seam for the duration of the block."""
        replacements = [
            (module, dotted, lambda f, layer=layer, after=after: self.timed(layer, f, after))
            for layer, seams in SEAMS.items()
            for module, dotted, after in seams
        ]
        replacements += [
            (module, dotted, lambda f, key=key: self.counted(key, f))
            for key, (module, dotted) in COUNTED.items()
        ]
        with patched(replacements):
            yield

    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for layer, _, start, end, child in self.spans:
            totals[layer] = totals.get(layer, 0.0) + (end - start - child)
        return totals

    def inclusive_seconds(self, layer: str) -> float:
        return sum(end - start for name, _, start, end, _ in self.spans if name == layer)


def flatten_counters(snapshot: Dict) -> Dict[str, float]:
    """Counter series of a ``repro.obs.metrics/v1`` snapshot, one key each."""
    flat: Dict[str, float] = {}
    for metric in snapshot["metrics"]:
        if metric["type"] != "counter":
            continue
        for series in metric["series"]:
            labels = ",".join(f"{k}={v}" for k, v in sorted(series["labels"].items()))
            key = f"{metric['name']}{{{labels}}}" if labels else metric["name"]
            flat[key] = series["value"]
    return flat


def pass_work(recorder: Recorder, registry_counters: Dict[str, float]) -> Dict[str, float]:
    """The deterministic work counts of one traced pass."""
    work = dict(recorder.counts)
    work.update({f"registry.{key}": value for key, value in registry_counters.items()})
    return dict(sorted(work.items()))


def layer_metrics(self_s: Dict[str, float], checker_s: float, work: Dict[str, float],
                  op_s: float) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of one traced pass: ``name -> (value, unit)``."""

    def ms(layer):
        return 1000.0 * self_s.get(layer, 0.0)

    def count(key):
        return work.get(key, 0)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    lts_states = count("registry.lts.states_expanded")
    exact = count("registry.verify.checks{method=weak-bisimulation}")
    bounded = count("registry.verify.checks{method=bounded-traces}")
    steps = count("registry.executor.steps")
    covered = sum(seconds for layer, seconds in self_s.items() if layer != OP)
    return {
        "lotos.parser.ms": (ms("lotos.parser"), "ms"),
        "lotos.parser.chars": (count("lotos.parser.chars"), "count"),
        "core.generator.prepare_ms": (ms("core.generator.prepare"), "ms"),
        "core.generator.other_ms": (ms("core.generator"), "ms"),
        "core.attributes.ms": (ms("core.attributes"), "ms"),
        "core.attributes.nodes": (count("core.attributes.nodes"), "count"),
        "core.restrictions.ms": (ms("core.restrictions"), "ms"),
        "core.derivation.ms": (ms("core.derivation"), "ms"),
        "core.derivation.places": (count("core.derivation.places"), "count"),
        "core.derivation.sync_fragments": (count("registry.derive.sync_fragments"), "count"),
        "lotos.unparse.ms": (ms("lotos.unparse"), "ms"),
        "lotos.unparse.chars": (count("lotos.unparse.chars"), "count"),
        "runtime.system.build_ms": (ms("runtime.system"), "ms"),
        "runtime.system.transitions_calls": (count("runtime.system.transitions_calls"), "count"),
        "runtime.executor.ms": (ms("runtime.executor"), "ms"),
        "runtime.executor.steps": (steps, "count"),
        "runtime.executor.us_per_step": (1000.0 * ratio(ms("runtime.executor"), steps), "us"),
        "runtime.conformance.ms": (ms("runtime.conformance"), "ms"),
        "runtime.conformance.events": (count("runtime.conformance.events"), "count"),
        "lotos.semantics.transitions_calls": (count("lotos.semantics.transitions_calls"), "count"),
        "lotos.lts.ms": (ms("lotos.lts"), "ms"),
        "lotos.lts.states": (lts_states, "count"),
        "lotos.lts.transitions": (count("registry.lts.transitions"), "count"),
        "lotos.lts.us_per_state": (1000.0 * ratio(ms("lotos.lts"), lts_states), "us"),
        "lotos.lts.budget_exceeded": (count("lotos.lts.budget_exceeded"), "count"),
        "lotos.lts.useful_share": (ratio(count("lts.complete_states"), lts_states), "share"),
        "lotos.reduction.ms": (ms("lotos.reduction"), "ms"),
        "lotos.reduction.kept_share": (
            ratio(count("reduction.states_out"), count("reduction.states_in")), "share"),
        "lotos.equivalence.weak_ms": (ms("lotos.equivalence.weak"), "ms"),
        "lotos.equivalence.congruence_ms": (ms("lotos.equivalence.congruence"), "ms"),
        "lotos.equivalence.saturated_edges": (
            count("registry.equivalence.saturated_edges"), "count"),
        "lotos.equivalence.refine_iterations": (
            count("registry.equivalence.refine_iterations"), "count"),
        "lotos.traces.ms": (ms("lotos.traces"), "ms"),
        "lotos.traces.calls": (count("lotos.traces.calls"), "count"),
        "lotos.traces.accepts_calls": (count("lotos.traces.accepts_calls"), "count"),
        "verification.checker.ms": (1000.0 * checker_s, "ms"),
        "verification.checker.other_ms": (ms("verification.checker"), "ms"),
        "verification.checker.exact_checks": (exact, "count"),
        "verification.checker.bounded_checks": (bounded, "count"),
        "verification.checker.exact_share": (ratio(exact, exact + bounded), "share"),
        "trace.coverage": (ratio(covered, op_s), "share"),
    }

"""The theorem checker: service vs. composed protocol system.

For finite-state systems the check is exact: weak bisimulation and the
rooted (observation congruence) condition between the service LTS and
the composed-system LTS.  Recursive services generally yield infinite
composed state spaces (occurrence paths grow); there the checker falls
back to bounded weak-trace equivalence, reporting the bound it used.

The theorem holds under the paper's stated assumption that the service
contains no disable operator; for services *with* ``[>`` the checker can
still run, but only the weaker guarantees of Section 3.3 apply — use
``expect_exact=False`` and interpret trace *inclusion* results instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from repro.core.generator import DerivationResult, derive_protocol
from repro.errors import StateSpaceLimitExceeded
from repro.lotos.events import Label
from repro.lotos.lts import LTS, build_lts
from repro.lotos.equivalence import observationally_congruent, weak_bisimilar
from repro.lotos.semantics import Semantics
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer
from repro.lotos.syntax import Disable, Specification
from repro.lotos.traces import (
    format_trace,
    weak_trace_equivalent,
    weak_trace_included,
)
from repro.runtime.system import build_system

ServiceInput = Union[str, Specification, DerivationResult]

DEFAULT_TRACE_DEPTH = 8

#: Largest composed-system LTS on which the exact (weak bisimulation)
#: method is attempted; saturation is quadratic in the state count, so
#: beyond this the checker answers with bounded traces instead.  Raise it
#: explicitly for a stronger (slower) verdict.
DEFAULT_EXACT_STATE_LIMIT = 5_000


@dataclass
class VerificationReport:
    """Result of one theorem check.

    ``method`` is ``"weak-bisimulation"`` (exact, finite case) or
    ``"bounded-traces"``; ``equivalent`` is the primary verdict;
    ``congruent`` additionally reports the rooted condition when the
    exact method ran.  ``counterexample`` is a distinguishing trace when
    the verdict is negative.
    """

    method: str
    equivalent: bool
    congruent: Optional[bool] = None
    counterexample: Optional[Tuple[Label, ...]] = None
    service_states: Optional[int] = None
    system_states: Optional[int] = None
    trace_depth: Optional[int] = None
    has_disable: bool = False
    notes: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.equivalent

    def __str__(self) -> str:
        verdict = "EQUIVALENT" if self.equivalent else "NOT EQUIVALENT"
        parts = [f"{verdict} ({self.method})"]
        if self.congruent is not None:
            parts.append(f"observation congruent: {self.congruent}")
        if self.counterexample is not None:
            parts.append(f"counterexample: {format_trace(self.counterexample)}")
        if self.service_states is not None:
            parts.append(
                f"states: service={self.service_states}, system={self.system_states}"
            )
        if self.trace_depth is not None:
            parts.append(f"trace depth: {self.trace_depth}")
        for note in self.notes:
            parts.append(note)
        return "; ".join(parts)


def _service_has_disable(spec: Specification) -> bool:
    return any(isinstance(node, Disable) for node in spec.walk_behaviours())


def _is_recursive(spec: Specification) -> bool:
    """Whether any process of ``spec`` can (transitively) invoke itself."""
    from repro.lotos.syntax import ProcessRef

    calls = {}
    for definition in spec.definitions:
        calls[definition.name] = {
            node.name
            for node in definition.body.behaviour.walk()
            if isinstance(node, ProcessRef)
        }
    for start in calls:
        seen, frontier = set(), set(calls[start])
        while frontier:
            name = frontier.pop()
            if name == start:
                return True
            if name not in seen:
                seen.add(name)
                frontier |= calls.get(name, set())
    return False


def verify_derivation(
    service: ServiceInput,
    trace_depth: int = DEFAULT_TRACE_DEPTH,
    capacity: Optional[int] = None,
    discipline: str = "fifo",
    use_occurrences: bool = True,
    exact_state_limit: int = DEFAULT_EXACT_STATE_LIMIT,
) -> VerificationReport:
    """Check ``S ≈ hide G in ((T1 ||| ... ||| Tn) |[G]| Medium)``.

    Accepts the service text, a parsed specification, or an existing
    :class:`DerivationResult` (so callers can verify exactly what they
    derived).  Strategy:

    1. attempt full LTS construction of both sides within three times
       ``exact_state_limit`` states;
    2. if both are finite, decide weak bisimulation and observation
       congruence exactly;
    3. otherwise compare weak traces up to ``trace_depth``.
    """
    tracer = get_tracer()
    result = service if isinstance(service, DerivationResult) else derive_protocol(service)
    has_disable = _service_has_disable(result.prepared)

    service_semantics, service_root = Semantics.of_specification(
        result.prepared, bind_occurrences=False
    )
    system = build_system(
        result.entities,
        capacity=capacity,
        discipline=discipline,
        hide=True,
        use_occurrences=use_occurrences,
        require_empty_at_exit=not has_disable,
    )

    # There is no point materializing more states than the exact method
    # is willing to saturate: if either side exceeds the exact limit the
    # verdict comes from bounded traces anyway, and unbounded (recursive)
    # services would otherwise burn the whole budget on ever-deeper terms.
    # Deterministic internal chains compress away without affecting weak
    # bisimilarity (repro.lotos.reduction), so the raw build budget
    # exceeds the saturation limit.  Compression keeps 94-99% of the
    # states of systems near the limit, though, so a raw system larger
    # than the exact gate almost never fits after it.
    budget = exact_state_limit * 3
    recursive = _is_recursive(result.prepared)
    if recursive:
        # Recursive services are infinite-state by construction here (the
        # service stacks >> contexts; the entities grow occurrence
        # paths): attempting the exact method would only burn the budget
        # on ever-deeper terms before falling back anyway.
        service_lts = system_lts = None
    else:
        with tracer.span("verify.service_lts"):
            service_lts = _try_build(service_root, service_semantics, budget)
        with tracer.span("verify.system_lts"):
            system_lts = _try_build(system.initial, system, budget)
            if system_lts is not None:
                from repro.lotos.reduction import compress_tau_chains

                system_lts = compress_tau_chains(system_lts)
        if (
            service_lts is not None
            and system_lts is not None
            and max(service_lts.num_states, system_lts.num_states)
            > exact_state_limit
        ):
            service_lts = system_lts = None  # still too large to saturate

    registry = get_registry()
    if service_lts is not None and system_lts is not None:
        with tracer.span(
            "verify.compare",
            method="weak-bisimulation",
            service_states=service_lts.num_states,
            system_states=system_lts.num_states,
        ):
            weak = weak_bisimilar(service_lts, system_lts)
            equivalent = bool(weak)
            congruent = (
                observationally_congruent(service_lts, system_lts, weak)
                if equivalent
                else False
            )
            del weak  # the saturated relation is not kept past the check
        registry.gauge(
            "verify.service_states", help="service LTS size at the check"
        ).set(service_lts.num_states)
        registry.gauge(
            "verify.system_states",
            help="composed-system LTS size (tau-compressed)",
        ).set(system_lts.num_states)
        registry.counter(
            "verify.checks", help="theorem checks by method"
        ).inc(method="weak-bisimulation")
        report = VerificationReport(
            method="weak-bisimulation",
            equivalent=equivalent,
            congruent=congruent,
            service_states=service_lts.num_states,
            system_states=system_lts.num_states,
            has_disable=has_disable,
        )
        if not equivalent:
            _, witness = weak_trace_equivalent(
                service_root, service_semantics, system.initial, system, trace_depth
            )
            report.counterexample = witness
        if has_disable:
            report.notes.append(
                "service uses [>: the theorem's exactness assumption does "
                "not hold (paper Section 5 excludes the disable operator)"
            )
        return report

    with tracer.span(
        "verify.compare", method="bounded-traces", depth=trace_depth
    ):
        equivalent, witness = weak_trace_equivalent(
            service_root, service_semantics, system.initial, system, trace_depth
        )
    registry.counter("verify.checks", help="theorem checks by method").inc(
        method="bounded-traces"
    )
    report = VerificationReport(
        method="bounded-traces",
        equivalent=equivalent,
        counterexample=witness,
        trace_depth=trace_depth,
        has_disable=has_disable,
        notes=[
            "recursive service: the state space is unbounded"
            if recursive
            else "state space exceeded budget",
            "verdict is depth-bounded",
        ],
    )
    return report


def safety_report(
    service: ServiceInput,
    trace_depth: int = DEFAULT_TRACE_DEPTH,
    capacity: Optional[int] = None,
    discipline: str = "selective",
    use_occurrences: bool = True,
) -> VerificationReport:
    """One-sided check: every system trace is a service trace.

    This is the meaningful property for services *with* the disable
    operator, modulo the two documented shortcomings of the distributed
    disable implementation (Section 3.3) — and the exact property for the
    naive-projection baseline comparisons.
    """
    result = service if isinstance(service, DerivationResult) else derive_protocol(service)
    has_disable = _service_has_disable(result.prepared)
    service_semantics, service_root = Semantics.of_specification(
        result.prepared, bind_occurrences=False
    )
    system = build_system(
        result.entities,
        capacity=capacity,
        discipline=discipline,
        hide=True,
        use_occurrences=use_occurrences,
        require_empty_at_exit=False,
    )
    included, witness = weak_trace_included(
        system.initial, system, service_root, service_semantics, trace_depth
    )
    return VerificationReport(
        method="bounded-trace-inclusion",
        equivalent=included,
        counterexample=witness,
        trace_depth=trace_depth,
        has_disable=has_disable,
    )


def _try_build(root, semantics, max_states: int) -> Optional[LTS]:
    try:
        return build_lts(root, semantics, max_states=max_states, on_limit="raise")
    except StateSpaceLimitExceeded:
        return None

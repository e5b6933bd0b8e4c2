"""The Protocol Generator: the end-to-end pipeline of paper Section 4.

    Step 1: construct the derivation tree of the service specification
            (and put disable operands in action prefix form);
    Step 2: synthesize the SP/EP/AP attributes at every node;
    Step 3: for each place p, apply T_p to the root.

plus the admissibility checks the paper's Prolog prototype performed and
the ``empty``-elimination of the derived texts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Union

from repro.core.attributes import AttributeTable, evaluate_attributes, number_nodes
from repro.core.derivation import Deriver
from repro.core.restrictions import Violation, check_service, raise_on_violations
from repro.errors import DerivationError
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer
from repro.lotos.events import ServicePrimitive
from repro.lotos.expansion import transform_disable_operands
from repro.lotos.parser import parse
from repro.lotos.scope import flatten_spec
from repro.lotos.syntax import (
    ActionPrefix,
    Behaviour,
    DefBlock,
    Parallel,
    ProcessDefinition,
    Specification,
)
from repro.lotos.unparse import unparse

ServiceInput = Union[str, Specification]

#: Version tag of the derivation algorithm itself.  It participates in
#: the content-addressed cache key of :mod:`repro.batch.cache`: bump it
#: whenever a change alters any derived entity text (simplification
#: laws, message numbering, operator handling, unparse formatting), so
#: stale cache entries can never shadow new output.  The golden corpus
#: (``tests/goldens``) failing is the usual tell that a bump is due.
ALGORITHM_VERSION = "1"

#: The complete option surface of :class:`ProtocolGenerator`, with the
#: paper-faithful defaults.  Corpus members and cache keys canonicalize
#: against this mapping so that every option — present or defaulted —
#: contributes to the cache key.
OPTION_DEFAULTS = {
    "strict": True,
    "emit_sync": True,
    "mixed_choice": False,
    "subset_1986": False,
}


def normalize_options(options=None) -> Dict[str, bool]:
    """Merge ``options`` over :data:`OPTION_DEFAULTS`; reject unknowns.

    The result is the canonical, fully-spelled form used both to build
    a :class:`ProtocolGenerator` and to derive cache keys.
    """
    merged = dict(OPTION_DEFAULTS)
    if options:
        unknown = sorted(set(options) - set(OPTION_DEFAULTS))
        if unknown:
            raise ValueError(
                f"unknown derivation option(s) {unknown}; "
                f"known: {sorted(OPTION_DEFAULTS)}"
            )
        for name, value in options.items():
            merged[name] = bool(value)
    return merged


@dataclass
class DerivationResult:
    """Everything the Protocol Generator produced for one service.

    ``service``
        the specification as given (parsed, unprepared);
    ``prepared``
        the flattened, disable-normalized, numbered service tree the
        algorithm actually ran on;
    ``attrs``
        its attribute table (``attrs.all_places`` is the paper's ALL);
    ``entities``
        one derived protocol entity specification per place;
    ``violations``
        the admissibility findings (empty in strict mode, by construction).
    """

    service: Specification
    prepared: Specification
    attrs: AttributeTable
    entities: Dict[int, Specification] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)

    @property
    def places(self) -> List[int]:
        return sorted(self.entities)

    def entity(self, place: int) -> Specification:
        try:
            return self.entities[place]
        except KeyError as exc:
            raise KeyError(
                f"no entity for place {place}; places are {self.places}"
            ) from exc

    def entity_text(self, place: int, compact: bool = True) -> str:
        """The paper-style text of one derived protocol entity."""
        return unparse(self.entity(place), compact=compact)

    def describe(self) -> str:
        """Multi-entity textual report (one SPEC per place)."""
        parts = []
        for place in self.places:
            parts.append(f"-- Protocol entity for place {place} " + "-" * 20)
            parts.append(self.entity_text(place).rstrip())
        return "\n".join(parts) + "\n"


class ProtocolGenerator:
    """Configurable front end for the derivation algorithm.

    ``strict``
        reject service specifications violating R1-R3 / the grammar
        (paper behaviour).  Non-strict mode records the violations and
        derives anyway — useful for studying *why* the restrictions
        exist (tests do exactly that).
    ``emit_sync``
        ``False`` produces the naive-projection baseline (no messages).
    """

    def __init__(
        self,
        strict: bool = True,
        emit_sync: bool = True,
        mixed_choice: bool = False,
        subset_1986: bool = False,
    ) -> None:
        self.strict = strict
        self.emit_sync = emit_sync
        self.mixed_choice = mixed_choice
        #: Accept only the original [Boch 86] language: ';', '[]', '|||'.
        self.subset_1986 = subset_1986

    # ------------------------------------------------------------------
    def prepare(self, service: ServiceInput) -> Specification:
        """Steps the paper performs before attribute evaluation."""
        tracer = get_tracer()
        if isinstance(service, str):
            with tracer.span("derive.parse"):
                spec = parse(service)
        else:
            spec = service
        with tracer.span("derive.flatten"):
            spec = flatten_spec(spec)
        with tracer.span("derive.expand_sync"):
            spec = _expand_full_sync(spec)
        with tracer.span("derive.normalize_disable"):
            spec = transform_disable_operands(spec)
        with tracer.span("derive.number"):
            return number_nodes(spec)

    def derive(self, service: ServiceInput) -> DerivationResult:
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span("derive") as derive_span:
            with tracer.span("derive.parse"):
                original = parse(service) if isinstance(service, str) else service
            prepared = self.prepare(original)
            with tracer.span("derive.attributes"):
                attrs = evaluate_attributes(prepared)
            with tracer.span("derive.restrictions"):
                violations = self.admissibility(prepared, attrs)
            deriver = Deriver(
                prepared,
                attrs,
                emit_sync=self.emit_sync,
                allow_mixed_choice=self.mixed_choice,
            )
            entities = {}
            for place in sorted(attrs.all_places):
                with tracer.span("derive.entity", place=place):
                    entities[place] = deriver.derive(place)
            derive_span.set(
                places=len(entities), sync_fragments=len(deriver.ledger)
            )
            registry.gauge(
                "derive.places", help="service access points in ALL"
            ).set(len(entities))
            registry.gauge(
                "derive.nodes", help="numbered nodes in the prepared tree"
            ).set(sum(1 for _ in prepared.walk_behaviours()))
            registry.counter(
                "derive.sync_fragments",
                help="Table 4 synchronization fragments generated",
            ).inc(len(deriver.ledger))
            registry.counter(
                "derive.violations", help="R1-R3/grammar findings recorded"
            ).inc(len(violations))
        return DerivationResult(
            service=original,
            prepared=prepared,
            attrs=attrs,
            entities=entities,
            violations=violations,
        )


    def admissibility(
        self, prepared: Specification, attrs: AttributeTable
    ) -> List[Violation]:
        """The R1-R3/grammar findings for a prepared tree, filtered the
        way this generator is configured (1986 subset, mixed-choice
        forgiveness); raises in strict mode."""
        violations = check_service(prepared, attrs)
        if self.subset_1986:
            from repro.core.restrictions import check_1986_subset

            violations = check_1986_subset(prepared) + violations
        if self.mixed_choice:
            violations = [
                violation
                for violation in violations
                if not self._handled_by_mixed_choice(violation, prepared, attrs)
            ]
        if self.strict:
            raise_on_violations(violations)
        return violations

    @staticmethod
    def _handled_by_mixed_choice(violation, prepared, attrs) -> bool:
        """R1 violations the arbiter protocol resolves are forgiven."""
        if violation.rule != "R1":
            return False
        from repro.lotos.syntax import Choice

        for node in prepared.walk_behaviours():
            if isinstance(node, Choice) and node.nid == violation.node:
                sp_left = attrs.sp(node.left)
                sp_right = attrs.sp(node.right)
                return (
                    len(sp_left) == 1
                    and len(sp_right) == 1
                    and sp_left != sp_right
                )
        return False


def derive_protocol(
    service: ServiceInput,
    strict: bool = True,
    emit_sync: bool = True,
    mixed_choice: bool = False,
) -> DerivationResult:
    """One-call convenience wrapper around :class:`ProtocolGenerator`."""
    return ProtocolGenerator(
        strict=strict, emit_sync=emit_sync, mixed_choice=mixed_choice
    ).derive(service)


def _expand_full_sync(spec: Specification) -> Specification:
    """Rewrite every ``||`` into ``|[explicit event set]|``.

    ``B1 || B2`` synchronizes on every observable event; for the concrete
    events present, that equals ``|[events of B1 and B2]|`` (law P4).
    The derivation rule (Table 3 rule 11) needs the explicit subset so
    that ``select_p`` can project it.
    """

    def primitives(node: Behaviour) -> frozenset:
        found = set()
        for sub in node.walk():
            if isinstance(sub, ActionPrefix) and isinstance(
                sub.event, ServicePrimitive
            ):
                found.add(sub.event)
        return frozenset(found)

    def rewrite(node: Behaviour) -> Behaviour:
        children = node.children()
        if children:
            new_children = tuple(rewrite(child) for child in children)
            if any(new is not old for new, old in zip(new_children, children)):
                node = node.with_children(new_children)
        if isinstance(node, Parallel) and node.sync_all:
            from repro.lotos.syntax import ProcessRef

            if any(isinstance(sub, ProcessRef) for sub in node.walk()):
                raise DerivationError(
                    "cannot expand '||' over process invocations; write an "
                    "explicit |[event set]| instead"
                )
            events = primitives(node.left) | primitives(node.right)
            return Parallel(node.left, node.right, sync=events, nid=node.nid)
        return node

    root = rewrite(spec.root.behaviour)
    definitions = tuple(
        ProcessDefinition(d.name, DefBlock(rewrite(d.body.behaviour)))
        for d in spec.definitions
    )
    if root is spec.root.behaviour and all(
        new.body.behaviour is old.body.behaviour
        for new, old in zip(definitions, spec.definitions)
    ):
        return spec
    return Specification(DefBlock(root, definitions))

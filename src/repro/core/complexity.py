"""Message-complexity analysis (paper Section 4.3).

"The factor which directly determines the number of synchronization
messages is the number of places in the service specification."  With
``n = |ALL|`` the paper bounds the messages generated per construct:

=====================  ==========================================
construct              messages (upper bound)
=====================  ==========================================
``;`` or ``>>``        1  (|EP(e1)| = |SP(e2)| = 1; in general
                       |EP| x |SP| minus local pairs — each
                       parallel branch multiplies, as the paper
                       notes)
``[]``                 n   (choice synchronization)
``[>``                 2n - 3   (Rel: n-1, Interr: n-2)
process instantiation  n - 1
=====================  ==========================================

:func:`analyze` computes the actual per-construct counts from the
derivation ledger and checks them against the bounds;
``tests/core/test_complexity.py`` checks them over growing place counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.derivation import Deriver, LedgerEntry
from repro.core.generator import DerivationResult


#: Static per-construct upper bounds in terms of n = |ALL| (singleton
#: EP/SP, non-parallel context — the setting of the paper's Section 4.3).
def bound_for(rule: str, n: int) -> int:
    if rule in ("seq", "enable", "disable-seq"):
        return 1
    if rule == "choice":
        return n
    if rule == "rel":
        return n - 1
    if rule == "interr":
        # The paper states n-2, implicitly assuming the interrupt prefix
        # has a continuation with a starting place distinct from the
        # interrupt's (those places are notified via Synch_Left instead).
        # Its own Example 6 output sends n-1 interrupt messages
        # (``d3; (s1(y);exit ||| s2(y);exit)``) because the continuation
        # is a bare exit; n-1 is the bound the algorithm actually obeys.
        return max(n - 1, 0)
    if rule == "proc":
        return n - 1
    raise ValueError(f"unknown rule {rule!r}")


#: Rules that together make up one ``[>`` operator's budget (2n - 3).
DISABLE_RULES = ("rel", "interr")


@dataclass
class ConstructCount:
    """Messages attributable to one construct instance (one node)."""

    rule: str
    node: int
    sends: int = 0
    senders: Dict[int, int] = field(default_factory=dict)

    def record(self, place: int, fanout: int) -> None:
        self.sends += fanout
        self.senders[place] = self.senders.get(place, 0) + fanout


@dataclass
class ComplexityReport:
    """Per-construct message counts for one derivation."""

    places: int
    by_construct: Dict[Tuple[str, int], ConstructCount] = field(default_factory=dict)

    @property
    def total_messages(self) -> int:
        return sum(count.sends for count in self.by_construct.values())

    def per_rule(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for (rule, _), count in self.by_construct.items():
            totals[rule] = totals.get(rule, 0) + count.sends
        return totals

    def violations(self) -> List[str]:
        """Constructs exceeding the Section 4.3 bounds.

        Parallel contexts legitimately multiply the per-construct counts
        (the paper: "each parallel expression may be a multiplication
        factor"); a non-empty result therefore flags either a parallel
        multiplication or a non-singleton EP/SP — callers interpret.
        """
        found = []
        for (rule, node), count in sorted(self.by_construct.items()):
            limit = bound_for(rule, self.places)
            if count.sends > limit:
                found.append(
                    f"{rule} at node {node}: {count.sends} messages > bound {limit}"
                )
        return found

    def table(self) -> str:
        """Section 4.3-style summary table."""
        lines = [
            f"places (n)          : {self.places}",
            f"total messages      : {self.total_messages}",
        ]
        for rule, total in sorted(self.per_rule().items()):
            instances = sum(1 for (r, _) in self.by_construct if r == rule)
            lines.append(
                f"{rule:<20}: {total} messages over {instances} construct(s) "
                f"(bound {bound_for(rule, self.places)} each)"
            )
        return "\n".join(lines)


def analyze_ledger(
    ledger: List[LedgerEntry], places: int
) -> ComplexityReport:
    """Aggregate a derivation ledger into a complexity report.

    Only ``send`` entries are counted (each message is sent once and
    received once; counting sends counts messages).
    """
    report = ComplexityReport(places=places)
    for entry in ledger:
        if entry.role != "send":
            continue
        key = (entry.rule, entry.node)
        count = report.by_construct.get(key)
        if count is None:
            count = ConstructCount(entry.rule, entry.node)
            report.by_construct[key] = count
        count.record(entry.place, len(entry.peers))
    return report


def analyze(result: DerivationResult) -> ComplexityReport:
    """Re-derive with instrumentation and report message complexity.

    The entities of ``result`` are *not* re-used: a fresh
    :class:`Deriver` runs over the prepared tree so the ledger reflects
    exactly the derivation that produced them (the derivation is
    deterministic, so the counts match the stored entities).
    """
    deriver = Deriver(result.prepared, result.attrs)
    for place in sorted(result.attrs.all_places):
        deriver.derive(place)
    return analyze_ledger(deriver.ledger, len(result.attrs.all_places))

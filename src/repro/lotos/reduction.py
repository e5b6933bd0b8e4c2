"""Weak-bisimulation-preserving LTS reduction.

Composed protocol systems are dominated by *deterministic internal
chains*: a state whose only move is a single internal step (a message
being laid into or taken out of a channel with nothing else enabled) is
weakly bisimilar to its successor.  :func:`compress_tau_chains` merges
every such state into its successor.  The saving is a constant factor,
and it shrinks as systems grow.  Measured as the share of states kept
(after / before) on the composed systems that ``verify_derivation``
builds: 0.46-0.93 on the finite goldens; 0.961 and 0.994 on
``fan_out_join(5)`` and ``(6)``; 0.942 on ``process_chain(8, 3)``; and a
``lotos.reduction.kept_share`` of 0.947 on perfbench's verify-exact
workload and 0.996 on verify-bounded.  So it seldom brings a system
that is over the exact limit under it.

Soundness: if ``s`` has exactly one outgoing transition and it is
internal to ``t``, then ``s ≈ t`` (weak bisimulation), so redirecting
every edge into ``s`` to ``t`` preserves weak bisimilarity of the whole
system.  The initial state is never merged away, so the rooted condition
(observation congruence) is preserved as well: an initial ``i``-move
remains an ``i``-move (possibly to a compressed representative).
"""

from __future__ import annotations

from typing import Dict, List

from repro.lotos.lts import LTS


def compress_tau_chains(lts: LTS) -> LTS:
    """Merge non-initial states whose only move is one internal step.

    Truncated states are never merged (their outgoing behaviour is
    unknown).  Internal self-loop-only states (divergence) are kept —
    they are *not* equivalent to "skip ahead".
    """
    representative: List[int] = list(range(lts.num_states))

    def resolve(state: int) -> int:
        seen = []
        current = state
        while representative[current] != current:
            seen.append(current)
            current = representative[current]
        for passed in seen:
            representative[passed] = current
        return current

    for state in range(lts.num_states):
        if state == lts.initial or state in lts.truncated_states:
            continue
        outgoing = lts.edges[state]
        if len(outgoing) != 1:
            continue
        label, target = outgoing[0]
        if label.is_observable() or target == state:
            continue
        representative[state] = target

    # Resolve chains (and break any accidental cycles a->b->a of pure
    # internal steps: resolve() terminates because representative forms
    # a forest after the cycle guard below).
    for state in range(lts.num_states):
        # cycle guard: walk with two pointers; if a cycle is found, pin
        # the smallest member as its own representative.
        slow = fast = state
        while True:
            if representative[slow] == slow:
                break
            slow = representative[slow]
            fast = representative[representative[fast]]
            if slow == fast and representative[slow] != slow:
                representative[slow] = slow
                break

    mapping: Dict[int, int] = {}
    new_terms = []
    new_truncated = set()
    order = [lts.initial] + [s for s in range(lts.num_states) if s != lts.initial]
    for state in order:
        root = resolve(state)
        if root not in mapping:
            mapping[root] = len(new_terms)
            new_terms.append(lts.state_terms[root])
            if root in lts.truncated_states:
                new_truncated.add(mapping[root])

    new_edges: List[tuple] = [()] * len(new_terms)
    for state in range(lts.num_states):
        root = resolve(state)
        if root != state:
            continue  # merged away; its edges are its representative's
        seen = set()
        collected = []
        for label, target in lts.edges[state]:
            edge = (label, mapping[resolve(target)])
            if edge not in seen:
                seen.add(edge)
                collected.append(edge)
        new_edges[mapping[root]] = tuple(collected)

    reachable_initial = mapping[resolve(lts.initial)]
    return LTS(new_terms, new_edges, reachable_initial, new_truncated)

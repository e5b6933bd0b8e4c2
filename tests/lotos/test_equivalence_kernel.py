"""The integer-coded equivalence kernel against a label-tuple oracle.

The oracle below is the straightforward formulation the kernel replaced:
saturated edges are ``(Label, target)`` tuples, refinement hashes
``(Label, block)`` pairs, and the rooted condition is re-derived from a
fresh saturation.  On random small LTSs (internal moves, internal
cycles, ``delta``, labels shared by both sides or only one) every public
check must give the oracle's verdict, and the kernel's partitions must
be the oracle's up to renaming the blocks.
"""

from typing import Dict, List, Set, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lotos.equivalence import (
    _code,
    _refine,
    _weak_blocks,
    minimize_weak,
    observationally_congruent,
    strong_bisimilar,
    weak_bisimilar,
)
from repro.lotos.events import DELTA, INTERNAL, Label, ServicePrimitive
from repro.lotos.lts import LTS

# ----------------------------------------------------------------------
# Oracle: saturation and refinement over (Label, int) edges.
# ----------------------------------------------------------------------
_EPSILON = object()
Edges = List[Tuple[Tuple[object, int], ...]]


def _is_tau(label: object) -> bool:
    return isinstance(label, Label) and not label.is_observable()


def oracle_union(lts1: LTS, lts2: LTS) -> Tuple[Edges, int, int]:
    offset = lts1.num_states
    edges: Edges = [tuple(outgoing) for outgoing in lts1.edges]
    edges.extend(
        tuple((label, target + offset) for label, target in outgoing)
        for outgoing in lts2.edges
    )
    return edges, lts1.initial, lts2.initial + offset


def oracle_refine(num_states: int, edges: Edges) -> List[int]:
    blocks = [0] * num_states
    while True:
        mapping: Dict[tuple, int] = {}
        new_blocks = [0] * num_states
        for state in range(num_states):
            signature = frozenset(
                (label, blocks[target]) for label, target in edges[state]
            )
            key = (blocks[state], signature)
            new_blocks[state] = mapping.setdefault(key, len(mapping))
        if new_blocks == blocks:
            return blocks
        blocks = new_blocks


def oracle_saturate(edges: Edges) -> Edges:
    closure: List[Set[int]] = []
    for state in range(len(edges)):
        seen = {state}
        stack = [state]
        while stack:
            current = stack.pop()
            for label, target in edges[current]:
                if _is_tau(label) and target not in seen:
                    seen.add(target)
                    stack.append(target)
        closure.append(seen)
    saturated: Edges = []
    for state in range(len(edges)):
        weak: Set[Tuple[object, int]] = set()
        for mid in closure[state]:
            weak.add((_EPSILON, mid))
            for label, target in edges[mid]:
                if _is_tau(label):
                    continue
                for final in closure[target]:
                    weak.add((label, final))
        saturated.append(tuple(weak))
    return saturated


def oracle_congruent(lts1: LTS, lts2: LTS) -> bool:
    edges, initial1, initial2 = oracle_union(lts1, lts2)
    saturated = oracle_saturate(edges)
    blocks = oracle_refine(len(edges), saturated)

    def rooted_match(source: int, other: int) -> bool:
        for label, target in edges[source]:
            if _is_tau(label):
                candidates: Set[int] = set()
                for lab2, mid in edges[other]:
                    if _is_tau(lab2):
                        candidates.add(mid)
                        candidates.update(
                            final for lab3, final in saturated[mid] if lab3 is _EPSILON
                        )
                if not any(blocks[c] == blocks[target] for c in candidates):
                    return False
            elif not any(
                lab == label and blocks[final] == blocks[target]
                for lab, final in saturated[other]
            ):
                return False
        return True

    if blocks[initial1] != blocks[initial2]:
        return False
    return rooted_match(initial1, initial2) and rooted_match(initial2, initial1)


def partition(blocks: List[int]) -> Set[frozenset]:
    """The blocks as a set of state sets: equal up to renaming block ids."""
    classes: Dict[int, Set[int]] = {}
    for state, block in enumerate(blocks):
        classes.setdefault(block, set()).add(state)
    return {frozenset(members) for members in classes.values()}


# ----------------------------------------------------------------------
# Random LTS pairs.
# ----------------------------------------------------------------------
A, B, C = ServicePrimitive("a", 1), ServicePrimitive("b", 2), ServicePrimitive("c", 3)
#: ``c`` appears only on the second side, the rest on both.
LABELS1 = (A, B, INTERNAL, INTERNAL, DELTA)
LABELS2 = (A, B, C, INTERNAL, INTERNAL, DELTA)


def make_lts(num_states: int, edges) -> LTS:
    outgoing: List[List[Tuple[Label, int]]] = [[] for _ in range(num_states)]
    for source, label, target in edges:
        outgoing[source].append((label, target))
    return LTS(state_terms=[None] * num_states, edges=[tuple(o) for o in outgoing])


@st.composite
def ltss(draw, labels=LABELS1, max_states=6):
    num_states = draw(st.integers(1, max_states))
    state = st.integers(0, num_states - 1)
    edges = draw(
        st.lists(
            st.tuples(state, st.sampled_from(labels), state), max_size=2 * num_states
        )
    )
    return make_lts(num_states, edges)


@st.composite
def variants(draw, lts: LTS):
    """``lts`` renumbered, optionally behind a new internal first move."""
    order = draw(st.permutations(range(lts.num_states)))
    edges = [
        (order[source], label, order[target])
        for source, outgoing in enumerate(lts.edges)
        for label, target in outgoing
    ]
    initial = order[lts.initial]
    num_states = lts.num_states
    if draw(st.booleans()):
        edges.append((num_states, INTERNAL, initial))
        initial = num_states
        num_states += 1
    variant = make_lts(num_states, edges)
    variant.initial = initial
    return variant


pairs = st.one_of(
    st.tuples(ltss(), ltss(LABELS2)),
    ltss().flatmap(lambda lts: st.tuples(st.just(lts), variants(lts))),
)


class TestKernelAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(pairs)
    def test_strong(self, pair):
        lts1, lts2 = pair
        edges, initial1, initial2 = oracle_union(lts1, lts2)
        expected = oracle_refine(len(edges), edges)
        coded = _code(lts1, lts2)
        blocks = _refine(coded.n, [v + t for v, t in zip(coded.visible, coded.tau)])
        assert partition(blocks) == partition(expected)
        assert strong_bisimilar(lts1, lts2) == (expected[initial1] == expected[initial2])

    @settings(max_examples=150, deadline=None)
    @given(pairs)
    def test_weak_and_congruent(self, pair):
        lts1, lts2 = pair
        edges, initial1, initial2 = oracle_union(lts1, lts2)
        expected = oracle_refine(len(edges), oracle_saturate(edges))
        blocks, _ = _weak_blocks(_code(lts1, lts2))
        assert partition(blocks) == partition(expected)
        weak = weak_bisimilar(lts1, lts2)
        assert bool(weak) == (expected[initial1] == expected[initial2])
        rooted = oracle_congruent(lts1, lts2)
        assert observationally_congruent(lts1, lts2) == rooted
        assert observationally_congruent(lts1, lts2, weak) == rooted

    @settings(max_examples=100, deadline=None)
    @given(ltss(LABELS2, max_states=12))
    def test_minimize_weak(self, lts):
        edges = [tuple(outgoing) for outgoing in lts.edges]
        expected = oracle_refine(len(edges), oracle_saturate(edges))
        classes, found = minimize_weak(lts)
        assert classes == len(set(expected))
        assert {frozenset(members) for members in found.values()} == partition(expected)

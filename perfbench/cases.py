"""Workload inputs and their known answers.

Every input is generated here from the workload seed; the library only
ever receives specification texts.  The expected outcomes are fixed by
the paper (the Section 5 theorem for derived entities), by the golden
``.expected`` files, or by the tables below: none is computed by the code
under test.

The seed changes the inputs without changing how much work they are:
event names get a seeded prefix, which leaves structure and state spaces
as they were.  The op order, derive-run's family sizes and its schedule
seeds stay fixed.  A shuffled order moved verify-exact's p50 by about 10%
from seed to seed: a sub-millisecond op's latency depends on the op that
ran before it.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import repro
from repro import workloads as families
from repro.lotos.unparse import unparse

#: Random schedules executed (and conformance-checked) per derive-run op.
RUNS_PER_OP = 2
#: Members drawn per repro.workloads family in derive-run.
MEMBERS_PER_FAMILY = 20

_KEYWORDS = frozenset({"exit", "stop", "hide", "in", "empty", "i"})
_IDENTIFIER = re.compile(r"\b[a-z][A-Za-z0-9_]*\b")


def rename_events(text: str, prefix: str) -> str:
    """Prefix every event identifier; the trailing place digits stay put."""
    return _IDENTIFIER.sub(
        lambda match: match.group(0)
        if match.group(0) in _KEYWORDS
        else prefix + match.group(0),
        text,
    )


@dataclass(frozen=True)
class Outcome:
    """What one op produced: problems against the known answer, a
    fingerprint that must repeat on every pass, and, for verification
    ops, whether the verdict was exact (weak bisimulation)."""

    problems: Tuple[str, ...]
    fingerprint: Tuple
    exact: Optional[bool] = None


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], Outcome]


# ----------------------------------------------------------------------
# derive-run: derive, compose, execute random schedules, check them.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeriveCase:
    name: str
    text: str
    #: ``describe()`` must equal these bytes (goldens only).
    expected: Optional[str] = None
    mixed_choice: bool = False
    #: Services with ``[>`` only get the weaker Section 3.3 guarantees,
    #: so their schedules are executed but not held to conformance.
    has_disable: bool = False
    #: Schedules of a recursive service may stop while still unwinding;
    #: every other disable-free service must terminate.
    recursive: bool = False


def run_derive(case: DeriveCase) -> Outcome:
    """Derive, compose and check ``RUNS_PER_OP`` schedules.

    The schedule seeds are the same for every workload seed: a schedule
    of a recursive service unwinds a random depth, and drawing them would
    make the amount of work depend on the workload seed.
    """
    problems: List[str] = []
    result = repro.derive_protocol(case.text, mixed_choice=case.mixed_choice)
    description = result.describe()
    if case.expected is not None and description != case.expected:
        problems.append("describe() differs from the golden .expected bytes")
    system = repro.build_system(
        result.entities, require_empty_at_exit=not case.has_disable
    )
    steps = []
    for seed in range(RUNS_PER_OP):
        run = repro.random_run(system, seed=seed)
        verdict = repro.check_run(result.service, run, require_progress=False)
        steps.append(run.steps)
        if case.has_disable:
            continue
        if run.deadlocked:
            problems.append(f"schedule {seed} deadlocked")
        elif not verdict.ok:
            problems.append(f"schedule {seed} not conformant: {verdict}")
        elif not case.recursive and not run.terminated:
            problems.append(f"schedule {seed} did not terminate")
    return Outcome(tuple(problems), (description, tuple(steps)))


#: Goldens whose service invokes itself.
_RECURSIVE_GOLDENS = frozenset(
    {"example2_counting", "example3_file_transfer",
     "example5_choice_recursion", "transport_session"}
)


def _family_members() -> List[Tuple[str, str, object]]:
    """``MEMBERS_PER_FAMILY`` members of each of the six families.

    Member ``k``'s sizes walk a fixed grid over the family's range, so
    every seed gets the same size mix (the seed only renames them).
    Fan-out stays at or below 10 places: checking schedules grows
    steeply with width (20 checked runs of fan_out_join(40) take 46 s).
    """
    grid: Dict[str, Callable[[int], object]] = {
        "pipeline": lambda k: families.pipeline(2 + k % 6, 1 + k % 3),
        "fan_out_join": lambda k: families.fan_out_join(3 + k % 8),
        "choice_ladder": lambda k: families.choice_ladder(2 + k % 7, 3 + k % 3),
        "recursion_tower": lambda k: families.recursion_tower(2 + k % 4),
        "interrupt_stack": lambda k: families.interrupt_stack(2 + k % 7),
        "process_chain": lambda k: families.process_chain(1 + k % 10, 2 + k % 3),
    }
    return [
        (family, f"{family}_{k:02d}", build(k))
        for family, build in grid.items()
        for k in range(MEMBERS_PER_FAMILY)
    ]


def _derive_run_ops(seed: int, root: Path) -> List[Op]:
    prefix = _prefix(seed)
    cases = [
        DeriveCase(
            name=name,
            text=text,
            expected=expected,
            mixed_choice=options.get("mixed_choice", False),
            has_disable="[>" in text,
            recursive=name in _RECURSIVE_GOLDENS,
        )
        for name, text, expected, options in load_goldens(root)
    ]
    cases += [
        DeriveCase(
            name=name,
            text=rename_events(unparse(spec), prefix),
            has_disable=family == "interrupt_stack",
            recursive=family == "recursion_tower",
        )
        for family, name, spec in _family_members()
    ]
    return [Op(case.name, _bind(run_derive, case)) for case in cases]


# ----------------------------------------------------------------------
# verify-exact / verify-bounded: the Section 5 theorem and its controls.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class VerifyCase:
    name: str
    text: str
    #: ``None`` verifies the derived entities (known answer: EQUIVALENT);
    #: ``"naive"`` the projection without synchronization messages and
    #: ``"swap"`` the derived entities of the two lowest places exchanged
    #: (known answer for both controls: NOT EQUIVALENT with a witness).
    control: Optional[str] = None
    #: Known rooted-condition answer when the verdict is exact; ``None``
    #: where the paper gives none (recursive services).
    congruent: Optional[bool] = True
    options: Mapping[str, object] = field(default_factory=dict)


def run_verify(case: VerifyCase) -> Outcome:
    result = repro.derive_protocol(case.text, emit_sync=case.control != "naive")
    if case.control == "swap":
        low, high = result.places[:2]
        result.entities[low], result.entities[high] = (
            result.entities[high],
            result.entities[low],
        )
    report = repro.verify_derivation(result, **case.options)
    exact = report.method == "weak-bisimulation"
    problems = []
    if case.control is None:
        if not report.equivalent:
            problems.append(f"derived entities not equivalent: {report}")
        elif exact and case.congruent is not None and report.congruent != case.congruent:
            problems.append(f"congruent={report.congruent}, expected {case.congruent}")
    elif report.equivalent:
        problems.append(f"{case.control} control judged EQUIVALENT")
    elif not report.counterexample:
        problems.append(f"{case.control} control NOT EQUIVALENT without a witness")
    fingerprint = (
        report.method,
        report.equivalent,
        report.congruent,
        tuple(str(label) for label in report.counterexample or ()),
    )
    return Outcome(tuple(problems), fingerprint, exact)


#: The exact cases of tests/verification/test_theorem.py with the control
#: each gets.  Three have none: one place leaves nothing to swap and no
#: message to drop, and plain interleaving of three places needs no
#: message, so both controls stay equivalent there.
_THEOREM_EXACT = [
    ("SPEC a1; exit ENDSPEC", None),
    ("SPEC a1; b2; exit ENDSPEC", "naive"),
    ("SPEC a1; b2; c3; d1; exit ENDSPEC", "naive"),
    ("SPEC a1; exit >> b2; exit ENDSPEC", "naive"),
    ("SPEC a1; exit >> b2; exit >> c3; exit ENDSPEC", "naive"),
    ("SPEC (a1; b2; exit) [] (c1; d2; exit) ENDSPEC", "naive"),
    ("SPEC a1; (b2; exit [] c2; exit) ENDSPEC", "naive"),
    ("SPEC (a1; exit ||| b2; exit) >> c3; exit ENDSPEC", "naive"),
    ("SPEC a1; exit ||| b2; exit ||| c3; exit ENDSPEC", None),
    ("SPEC (a1; m2; exit) |[m2]| (m2; c3; exit) ENDSPEC", "naive"),
    ("SPEC a1; exit || a1; b1; exit ENDSPEC", None),
    ("SPEC (a1; b2; B) >> d3; exit WHERE PROC B = e2; exit END ENDSPEC", "naive"),
    ("SPEC (a1; b2; exit) [] (c1; b2; exit) >> d3; exit ENDSPEC", "naive"),
]

_EXACT_GOLDENS = ("example4_sequence", "two_phase_commit",
                  "parameterized_copy", "fan_out_join_4")

#: (name, text, control, congruent) for each verified service.
Service = Tuple[str, str, Optional[str], Optional[bool]]


def _verify_exact_services(goldens: Mapping[str, str]) -> List[Service]:
    services: List[Service] = [
        (f"theorem_{index:02d}", text, control, True)
        for index, (text, control) in enumerate(_THEOREM_EXACT)
    ]
    services += [(name, goldens[name], "naive", True) for name in _EXACT_GOLDENS]
    services += [
        (f"fan_out_join({n})", unparse(families.fan_out_join(n)), "naive", True)
        for n in (4, 5)
    ]
    # These services start with a process invocation, whose Proc_Synch
    # messages are an initial internal step: weakly bisimilar but not
    # rooted (the reproduction finding recorded in EXPERIMENTS.md).
    services += [
        (f"process_chain_{n}x3", unparse(families.process_chain(n, 3)), "naive", False)
        for n in range(2, 9)
    ]
    services += [
        (f"pipeline_{n}x2", unparse(families.pipeline(n, 2)), "naive", True)
        for n in range(3, 7)
    ]
    services += [
        (f"choice_ladder_{n}", unparse(families.choice_ladder(n, 3)), "naive", True)
        for n in range(2, 6)
    ]
    return services


_TAIL = "SPEC A WHERE PROC A = a1; b2; A [] c1; exit END ENDSPEC"
_MUTUAL = ("SPEC A WHERE PROC A = a1; B [] c1; exit END "
           "PROC B = b2; A END ENDSPEC")


def _verify_bounded_services(goldens: Mapping[str, str]) -> List[Service]:
    """Recursive services, and finite ones over the LTS build budget.

    Left-recursive services get the entity swap as control: their naive
    projection is unguarded and raises UnguardedRecursionError.  Example 7
    stays out (one check takes 33.8 s and 825 MB); fan_out_join(7) runs
    the same budget-exceeded-then-bounded path in about 2.6 s.
    """
    services: List[Service] = [
        ("example2_counting", goldens["example2_counting"], "swap", None),
        ("example5_choice_recursion", goldens["example5_choice_recursion"],
         "swap", None),
        ("recursion_tower_2", unparse(families.recursion_tower(2)), "swap", None),
        ("recursion_tower_3", unparse(families.recursion_tower(3)), "swap", None),
        ("tail_recursion", _TAIL, "naive", None),
        ("mutual_recursion", _MUTUAL, "naive", None),
        ("fan_out_join_7", unparse(families.fan_out_join(7)), "naive", True),
    ]
    services += [
        (f"process_chain_{n}x4", unparse(families.process_chain(n, 4)), "naive", False)
        for n in (6, 7, 8)
    ]
    return services


def _verify_cases(workload: str, root: Path) -> List[VerifyCase]:
    goldens = {name: text for name, text, _, _ in load_goldens(root)}
    if workload == "verify-exact":
        services = _verify_exact_services(goldens)
    else:
        services = _verify_bounded_services(goldens)
    cases = []
    for name, text, control, congruent in services:
        cases.append(VerifyCase(name, text, None, congruent))
        if control is not None:
            cases.append(VerifyCase(name, text, control))
    if workload == "verify-bounded":
        # The occurrence-free realization keeps tail recursion finite in
        # the entities but not in the service, so it is bounded as well.
        options = {"use_occurrences": False}
        cases.append(VerifyCase("tail_recursion_no_occurrences", _TAIL, None, None, options))
        cases.append(VerifyCase("tail_recursion_no_occurrences", _TAIL, "naive", None, options))
    return cases


def _verify_ops(workload: str, seed: int, root: Path) -> List[Op]:
    prefix = _prefix(seed)
    cases = [
        VerifyCase(case.name, rename_events(case.text, prefix), case.control,
                   case.congruent, case.options)
        for case in _verify_cases(workload, root)
    ]
    return [
        Op(f"{case.name}/{case.control or 'derived'}", _bind(run_verify, case))
        for case in cases
    ]


# ----------------------------------------------------------------------
def build_ops(workload: str, seed: int, root: Path) -> List[Op]:
    """The ops of one pass over ``workload``'s inputs for ``seed``."""
    if workload == "derive-run":
        return _derive_run_ops(seed, root)
    if workload in ("verify-exact", "verify-bounded"):
        return _verify_ops(workload, seed, root)
    raise ValueError(f"unknown workload {workload!r}")


def load_goldens(root: Path) -> List[Tuple[str, str, str, Mapping]]:
    """``(name, service text, expected describe() bytes, derive options)``."""
    directory = root / "tests" / "goldens"
    manifest = json.loads((directory / "manifest.json").read_text())
    return [
        (
            name,
            (directory / f"{name}.lotos").read_text(),
            (directory / f"{name}.expected").read_text(),
            options,
        )
        for name, options in sorted(manifest.items())
    ]


def _prefix(seed: int) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice("abcdefghjkmnpqtuvwxyz") for _ in range(2))


def _bind(function, case) -> Callable[[], Outcome]:
    return functools.partial(function, case)

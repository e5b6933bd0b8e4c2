"""Single-schedule execution of a distributed system.

The medium delivers "after an arbitrary delay"; operationally every
interleaving of entity steps and delivery moments is a schedule.  The
executor walks one schedule at a time — seeded-random by default — and
records what an observer of the service access points would see.  The
exhaustive counterpart (all schedules at once) is the LTS/trace machinery
applied to the same :class:`DistributedSystem`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.lotos.events import (
    Delta,
    InternalAction,
    Label,
    ReceiveAction,
    SendAction,
    ServicePrimitive,
)
from repro.obs.metrics import get_registry
from repro.obs.spans import get_tracer
from repro.runtime.system import DistributedSystem, State, SystemState

ChannelKey = Tuple[int, int]


@dataclass
class Run:
    """Outcome of one schedule.

    ``trace`` holds the observable service primitives in order;
    ``terminated`` reports a clean global ``delta``; ``deadlocked`` means
    the system stopped with no enabled transition *and* without
    termination — for a correct derivation this must never happen.
    """

    trace: List[ServicePrimitive] = field(default_factory=list)
    terminated: bool = False
    deadlocked: bool = False
    steps: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    internal_steps: int = 0
    final_state: Optional[SystemState] = None
    truncated: bool = False
    #: The transition index chosen at every step — replayable with
    #: :func:`replay` for deterministic debugging of a schedule.
    schedule: List[int] = field(default_factory=list)
    #: Deepest queue observed per channel over the run (media exposing
    #: ``channel_depths``; empty otherwise).
    queue_high_water: Dict[ChannelKey, int] = field(default_factory=dict)
    #: Steps each delivered message spent in flight, in delivery order
    #: (FIFO accounting per channel; drops count as deliveries, matching
    #: how ``messages_received`` treats them).
    delivery_delays: List[int] = field(default_factory=list)

    @property
    def observable(self) -> Tuple[Label, ...]:
        return tuple(self.trace)

    def __str__(self) -> str:
        status = (
            "terminated"
            if self.terminated
            else "DEADLOCK" if self.deadlocked else "truncated" if self.truncated else "running"
        )
        shown = " . ".join(str(event) for event in self.trace) or "<empty>"
        return f"[{status} after {self.steps} steps] {shown}"


#: ``chooser(state, transitions) -> index``; ``state`` is the system's
#: coded state (:meth:`DistributedSystem.decode` gives its terms).
Chooser = Callable[[State, Tuple], int]


def random_run(
    system: DistributedSystem,
    seed: int = 0,
    max_steps: int = 10_000,
    chooser: Optional[Chooser] = None,
) -> Run:
    """Execute one schedule from the system's initial state.

    ``chooser(state, transitions) -> index`` overrides the seeded-random
    scheduling policy (used by tests to force adversarial schedules).
    """
    rng = random.Random(seed)
    run = Run()
    state = system.initial
    # The executor wants to see message traffic even when the system was
    # built for verification (hide=True): inspect labels before hiding by
    # classifying the *unhidden* variant.  DistributedSystem with
    # hide=False exposes them; with hide=True we count via medium deltas.
    medium = system.decode(state).medium
    previous_in_flight = medium.in_flight
    # Per-channel accounting (queue high-water marks, in-flight delays)
    # works off the medium's channel_depths hook; custom media without it
    # keep the global tallies only.
    depths_of = getattr(medium, "channel_depths", None)
    previous_depths: Dict[ChannelKey, int] = depths_of() if depths_of else {}
    pending_sends: Dict[ChannelKey, List[int]] = {}
    with get_tracer().span("executor.run", seed=seed) as span:
        for _ in range(max_steps):
            transitions = system.transitions(state)
            if not transitions:
                run.deadlocked = not system.is_terminated(state)
                break
            if chooser is not None:
                index = chooser(state, transitions)
            else:
                index = rng.randrange(len(transitions))
            run.schedule.append(index)
            label, state = transitions[index]
            run.steps += 1
            medium = system.decode(state).medium
            in_flight = medium.in_flight
            if in_flight > previous_in_flight:
                run.messages_sent += in_flight - previous_in_flight
            elif in_flight < previous_in_flight:
                run.messages_received += previous_in_flight - in_flight
            if depths_of is not None and in_flight != previous_in_flight:
                depths = medium.channel_depths()
                _account_channels(
                    run, previous_depths, depths, pending_sends, run.steps
                )
                previous_depths = depths
            previous_in_flight = in_flight
            if isinstance(label, ServicePrimitive):
                run.trace.append(label)
            elif isinstance(label, Delta):
                run.terminated = True
                break
            elif isinstance(label, (SendAction, ReceiveAction, InternalAction)):
                run.internal_steps += 1
        else:
            run.truncated = True
        span.set(steps=run.steps, messages=run.messages_sent)
    run.final_state = system.decode(state)
    _publish_run_metrics(run)
    return run


def _account_channels(
    run: Run,
    previous: Dict[ChannelKey, int],
    current: Dict[ChannelKey, int],
    pending_sends: Dict[ChannelKey, List[int]],
    step: int,
) -> None:
    """Fold one step's per-channel depth changes into the run record."""
    for key in current.keys() | previous.keys():
        depth = current.get(key, 0)
        delta = depth - previous.get(key, 0)
        if delta > 0:
            if depth > run.queue_high_water.get(key, 0):
                run.queue_high_water[key] = depth
            pending_sends.setdefault(key, []).extend([step] * delta)
        elif delta < 0:
            queue = pending_sends.get(key)
            for _ in range(-delta):
                if queue:
                    run.delivery_delays.append(step - queue.pop(0))


def _publish_run_metrics(run: Run) -> None:
    """One-shot export of a finished run into the active registry."""
    registry = get_registry()
    if not registry.enabled:
        return
    queue_gauge = registry.gauge(
        "medium.queue_depth", help="per-channel queue high-water mark"
    )
    for (src, dest), depth in run.queue_high_water.items():
        queue_gauge.set_max(depth, channel=f"{src}->{dest}")
    delay_hist = registry.histogram(
        "medium.delay_steps", help="steps each message spent in flight"
    )
    for delay in run.delivery_delays:
        delay_hist.observe(delay)
    registry.counter("executor.runs", help="schedules executed").inc()
    registry.counter("executor.steps", help="transitions taken").inc(run.steps)
    registry.counter(
        "executor.messages_sent", help="messages entering the medium"
    ).inc(run.messages_sent)
    registry.counter(
        "executor.messages_received", help="messages leaving the medium"
    ).inc(run.messages_received)


def replay(
    system: DistributedSystem,
    schedule: List[int],
) -> Run:
    """Re-execute a recorded schedule step for step.

    Replaying a :class:`Run`'s ``schedule`` on an identically-built
    system reproduces the run exactly (the transition enumeration is
    deterministic).  Raises ``IndexError`` if the schedule does not fit
    the system — the symptom of replaying against different entities or
    a different medium configuration.
    """

    def scripted(state, transitions, _position=[0]):
        index = schedule[_position[0]]
        _position[0] += 1
        if index >= len(transitions):
            raise IndexError(
                f"schedule step {_position[0] - 1} chose transition {index} "
                f"but only {len(transitions)} are enabled"
            )
        return index

    return random_run(
        system, seed=0, max_steps=len(schedule), chooser=scripted
    )


def run_many(
    system: DistributedSystem,
    runs: int,
    max_steps: int = 10_000,
    base_seed: int = 0,
) -> List[Run]:
    """A batch of independent seeded schedules."""
    return [
        random_run(system, seed=base_seed + offset, max_steps=max_steps)
        for offset in range(runs)
    ]

"""One benchmark run: a closed loop of one caller over whole passes.

A pass is every op of the workload once, in a fixed order.  A first pass
is run and checked but not recorded: lazy imports and the allocator's
arenas settle in it, and at verify-exact it runs 5-10% slower than the
passes after it.  The loop then runs whole passes, so every run sees the
same op mix whatever its length, and stops at the pass boundary nearest
to the requested duration once at least ``MIN_OPS`` ops are recorded (so
that p90 has at least ten samples beyond it).  Each op starts when the
previous one returns.

A traced run alternates traced and untraced passes: the traced ones give
the per-layer numbers, and the ratio of their op time to the untraced
ones is the tracing overhead.  Every pass must reproduce the first pass's
outcome fingerprints, and every traced pass the first traced pass's work
counts; a difference fails the run.
"""

from __future__ import annotations

import gc
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry, use_registry

from perfbench import cases, tracing

MIN_OPS = 100


@dataclass
class RunResult:
    workload: str
    seed: int
    #: Recorded passes (the unrecorded first pass is not counted).
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Seconds per op of each untraced pass.
    pass_latencies: List[List[float]] = field(default_factory=list)
    verify_ops: int = 0
    exact_ops: int = 0
    #: Per-layer metrics averaged over traced passes (traced runs only).
    layers: Optional[Dict[str, Tuple[float, str]]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def end_to_end(self) -> Dict[str, Tuple[float, str]]:
        """Throughput and latency percentiles of the untraced passes.

        Every pass runs the same ops in the same order, so each op's
        latency is taken as its median over the passes, and the
        percentiles are taken over ops.  A tens-of-milliseconds op is
        sometimes 20-40% slower for one pass, when the shared host is
        busy: the median ignores such a pass, where a mean moves with it.
        A percentile of pooled samples would move the rank across
        services as the number of passes changes.
        """
        passes = self.pass_latencies
        per_op = sorted(statistics.median(column) for column in zip(*passes))
        return {
            "ops_per_s": (sum(map(len, passes)) / sum(map(sum, passes)), "1/s"),
            "op_ms.p50": (1000.0 * nearest_rank(per_op, 0.50), "ms"),
            "op_ms.p90": (1000.0 * nearest_rank(per_op, 0.90), "ms"),
        }


def nearest_rank(ordered: List[float], q: float) -> float:
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(
    workload: str,
    seed: int,
    root: Path,
    seconds: float,
    trace: bool = False,
    passes: Optional[int] = None,
) -> RunResult:
    """Record whole passes for about ``seconds`` (or exactly ``passes``)."""
    ops = cases.build_ops(workload, seed, root)
    result = RunResult(workload, seed)
    # Each op starts from the same collector state: the set-up heap is
    # frozen out of collection and the op's leftovers are collected,
    # outside the timed region, before the next op.  Otherwise whether a
    # full collection lands inside an op would depend on the ops before it.
    gc.collect()
    gc.freeze()
    try:
        _loop(ops, result, trace, seconds, passes)
    finally:
        gc.unfreeze()
    return result


def _loop(ops, result: RunResult, trace: bool, seconds: float,
          passes: Optional[int]) -> None:
    recorder = tracing.Recorder()
    first_fingerprints, _ = _one_pass(ops, result, None)
    first_work = None
    traced_s = 0.0
    traced_layers: List[Dict[str, Tuple[float, str]]] = []
    start = perf_counter()
    while True:
        traced = trace and result.passes % 2 == 0
        if traced:
            recorder.clear()
            registry = MetricsRegistry()
            with recorder.installed(), use_registry(registry):
                fingerprints, latencies = _one_pass(ops, result, recorder)
        else:
            fingerprints, latencies = _one_pass(ops, result, None)
        result.passes += 1
        if fingerprints != first_fingerprints:
            result.problems.append(f"pass {result.passes} outcomes differ from the first")
        if traced:
            traced_s += sum(latencies)
            work = tracing.pass_work(
                recorder, tracing.flatten_counters(registry.snapshot())
            )
            if first_work is None:
                first_work = work
            elif work != first_work:
                changed = sorted(
                    key for key in work.keys() | first_work.keys()
                    if work.get(key) != first_work.get(key)
                )
                result.problems.append(
                    f"pass {result.passes} work counts differ: {changed[:5]}"
                )
            traced_layers.append(
                tracing.layer_metrics(
                    recorder.self_seconds(),
                    recorder.inclusive_seconds("verification.checker"),
                    work,
                    recorder.inclusive_seconds(tracing.OP),
                )
            )
        else:
            result.pass_latencies.append(latencies)
        if passes is not None:
            if result.passes >= passes:
                break
            continue
        elapsed = perf_counter() - start
        recorded = result.passes * len(ops)
        enough = recorded >= MIN_OPS and (not trace or len(traced_layers) >= 2)
        if enough and elapsed + elapsed / result.passes / 2 >= seconds:
            break
    if trace and traced_layers:
        result.layers = _mean_layers(traced_layers)
        untraced = result.pass_latencies
        if untraced:
            overhead = (traced_s / len(traced_layers)) / (
                sum(map(sum, untraced)) / len(untraced)
            )
            result.layers["trace.overhead"] = (overhead, "x")


def _one_pass(ops, result: RunResult, recorder) -> Tuple[list, List[float]]:
    fingerprints = []
    latencies = []
    for op in ops:
        run = op.run if recorder is None else recorder.timed(tracing.OP, op.run)
        gc.collect()
        began = perf_counter()
        try:
            outcome = run()
        except Exception as error:  # a failed op is counted, not fatal
            latencies.append(perf_counter() - began)
            result.attempted += 1
            result.failed += 1
            _note(result, f"{op.name}: {type(error).__name__}: {error}")
            fingerprints.append(None)
            continue
        latencies.append(perf_counter() - began)
        result.attempted += 1
        fingerprints.append(outcome.fingerprint)
        if outcome.problems:
            result.failed += 1
            _note(result, f"{op.name}: {'; '.join(outcome.problems)}")
        if outcome.exact is not None:
            result.verify_ops += 1
            result.exact_ops += outcome.exact
    return fingerprints, latencies


def _note(result: RunResult, message: str) -> None:
    if len(result.problems) < 20:
        result.problems.append(message)


def _mean_layers(samples: List[Dict[str, Tuple[float, str]]]) -> Dict[str, Tuple[float, str]]:
    return {
        name: (sum(sample[name][0] for sample in samples) / len(samples), unit)
        for name, (_, unit) in samples[0].items()
    }

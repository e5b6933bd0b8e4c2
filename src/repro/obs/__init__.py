"""repro.obs — structured tracing, metrics and profiling.

Three pillars, all standard-library only:

* **spans** (:mod:`repro.obs.spans`) — nested wall-clock spans with a
  context-manager/decorator API, text-tree and JSON exporters, and a
  process-wide no-op default so instrumentation is free when disabled;
* **metrics** (:mod:`repro.obs.metrics`) — counters, gauges and
  fixed-bucket histograms with labeled series and a JSON snapshot;
* **profiling** (:mod:`repro.obs.profile`) — the consolidated
  derive + verify + execute report behind ``repro profile``.

Typical use::

    from repro import derive_protocol
    from repro.obs import observe

    with observe() as obs:
        derive_protocol("SPEC a1; exit >> b2; exit ENDSPEC")
    print(obs.tracer.render())     # the span tree
    print(obs.metrics.render())    # the metrics snapshot

The JSON document shapes are validated by :mod:`repro.obs.schema`; see
``docs/observability.md`` for the span/metric catalogue.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.profile import (
    profile_spec,
    render_report,
    render_report_json,
    spec_display_name,
)
from repro.obs.schema import (
    PROFILE_SCHEMA,
    validate_metrics,
    validate_report,
    validate_trace,
)
from repro.obs.spans import (
    NULL_TRACER,
    TRACE_SCHEMA,
    NullTracer,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
    traced,
    use_tracer,
)


@dataclass
class Observation:
    """A live tracer + registry pair installed by :func:`observe`."""

    tracer: Tracer
    metrics: MetricsRegistry


@contextmanager
def observe() -> Iterator[Observation]:
    """Enable tracing and metrics for the dynamic extent of the block."""
    observation = Observation(Tracer(), MetricsRegistry())
    with use_tracer(observation.tracer), use_registry(observation.metrics):
        yield observation


__all__ = [
    "Observation",
    "observe",
    # spans
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TRACE_SCHEMA",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "traced",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "METRICS_SCHEMA",
    "DEFAULT_BUCKETS",
    "get_registry",
    "set_registry",
    "use_registry",
    # profiling + schemas
    "profile_spec",
    "render_report",
    "render_report_json",
    "spec_display_name",
    "PROFILE_SCHEMA",
    "validate_report",
    "validate_trace",
    "validate_metrics",
]

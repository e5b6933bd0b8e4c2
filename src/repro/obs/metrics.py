"""Counters, gauges and fixed-bucket histograms with labeled series.

A :class:`MetricsRegistry` owns named instruments; each instrument keeps
one series per label combination (``medium.queue_depth{channel=1->2}``).
Everything is standard-library only and synchronous — the hot paths
record into plain dict slots, and expensive summarization happens only
in :meth:`MetricsRegistry.snapshot`.

Like the tracer (:mod:`repro.obs.spans`), the process-wide default is a
no-op: :data:`NULL_REGISTRY` hands out shared instruments whose record
methods do nothing, so instrumented code costs a method call and nothing
else while observability is disabled.  Hot loops (LTS expansion, the
executor's step loop) additionally follow the convention of tallying in
local variables and publishing **once** at the end of the operation, so
even enabled-mode overhead stays out of the inner loop.

The snapshot document (schema ``repro.obs.metrics/v1``)::

    {
      "schema": "repro.obs.metrics/v1",
      "metrics": [
        {"name": "lts.states_expanded", "type": "counter",
         "series": [{"labels": {}, "value": 212}]},
        {"name": "medium.queue_depth", "type": "gauge",
         "series": [{"labels": {"channel": "1->2"}, "value": 2}, ...]},
        {"name": "medium.delay_steps", "type": "histogram",
         "series": [{"labels": {}, "count": 9, "sum": 31,
                     "buckets": [[1, 2], [2, 4], ...], "overflow": 0}]}
      ]
    }
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

METRICS_SCHEMA = "repro.obs.metrics/v1"

LabelItems = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (values <= bound land in the
#: bucket); chosen to resolve both step delays and state-space sizes.
DEFAULT_BUCKETS: Tuple[float, ...] = (1, 2, 5, 10, 25, 50, 100, 250, 1000)


def _label_key(labels: Dict[str, Any]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing tally, one slot per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelItems, float] = {}

    def inc(self, amount: float = 1, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount

    def value(self, **labels: Any) -> float:
        return self._series.get(_label_key(labels), 0)

    def series(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Gauge:
    """Point-in-time value; ``set_max`` keeps high-water marks."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._series: Dict[LabelItems, float] = {}

    def set(self, value: float, **labels: Any) -> None:
        self._series[_label_key(labels)] = value

    def set_max(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        current = self._series.get(key)
        if current is None or value > current:
            self._series[key] = value

    def value(self, **labels: Any) -> Optional[float]:
        return self._series.get(_label_key(labels))

    def series(self) -> List[Dict[str, Any]]:
        return [
            {"labels": dict(key), "value": value}
            for key, value in sorted(self._series.items())
        ]


class Histogram:
    """Fixed-bucket distribution (upper-bound inclusive, plus overflow)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValueError("histogram buckets must be sorted and nonempty")
        self.name = name
        self.help = help
        self.buckets = tuple(buckets)
        self._series: Dict[LabelItems, List[int]] = {}
        self._sums: Dict[LabelItems, float] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = _label_key(labels)
        counts = self._series.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)  # last slot = overflow
            self._series[key] = counts
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[-1] += 1
        self._sums[key] = self._sums.get(key, 0) + value

    def count(self, **labels: Any) -> int:
        counts = self._series.get(_label_key(labels))
        return sum(counts) if counts else 0

    def series(self) -> List[Dict[str, Any]]:
        out = []
        for key, counts in sorted(self._series.items()):
            out.append(
                {
                    "labels": dict(key),
                    "count": sum(counts),
                    "sum": self._sums.get(key, 0),
                    "buckets": [
                        [bound, count]
                        for bound, count in zip(self.buckets, counts)
                    ],
                    "overflow": counts[-1],
                }
            )
        return out


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    kind = "null"
    name = "null"

    def inc(self, amount: float = 1, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def set_max(self, value: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0

    def count(self, **labels: Any) -> int:
        return 0

    def series(self) -> List[Dict[str, Any]]:
        return []


NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Named instruments, created lazily and snapshotted as one document."""

    enabled = True

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, name: str, factory, **kwargs: Any):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory(name, **kwargs)
            self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(name, Counter, help=help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(name, Gauge, help=help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(name, Histogram, help=help, buckets=buckets)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Stable JSON document (schema ``repro.obs.metrics/v1``)."""
        return {
            "schema": METRICS_SCHEMA,
            "metrics": [
                {
                    "name": name,
                    "type": instrument.kind,
                    "help": instrument.help,
                    "series": instrument.series(),
                }
                for name, instrument in sorted(self._instruments.items())
            ],
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Flat ``name{labels} value`` listing, Prometheus-exposition-ish."""
        lines: List[str] = []
        for entry in self.snapshot()["metrics"]:
            for series in entry["series"]:
                labels = series["labels"]
                suffix = (
                    "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels
                    else ""
                )
                if entry["type"] == "histogram":
                    lines.append(
                        f"{entry['name']}{suffix} count={series['count']} "
                        f"sum={series['sum']}"
                    )
                else:
                    lines.append(f"{entry['name']}{suffix} {series['value']}")
        return "\n".join(lines) if lines else "(no metrics recorded)"

    def reset(self) -> None:
        self._instruments.clear()


class NullRegistry:
    """Disabled metrics: every instrument is the shared no-op."""

    enabled = False

    def counter(self, name: str, help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str, help: str = "") -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str, help: str = "", buckets=DEFAULT_BUCKETS):
        return NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Any]:
        return {"schema": METRICS_SCHEMA, "metrics": []}

    def render(self) -> str:
        return "(metrics disabled)"

    def reset(self) -> None:
        pass


NULL_REGISTRY = NullRegistry()

_active_registry: "MetricsRegistry | NullRegistry" = NULL_REGISTRY


def get_registry() -> "MetricsRegistry | NullRegistry":
    """The active registry (the no-op :data:`NULL_REGISTRY` by default)."""
    return _active_registry


def set_registry(
    registry: "MetricsRegistry | NullRegistry",
) -> "MetricsRegistry | NullRegistry":
    """Install ``registry`` process-wide; returns the previous one."""
    global _active_registry
    previous = _active_registry
    _active_registry = registry
    return previous


@contextmanager
def use_registry(
    registry: "MetricsRegistry | NullRegistry",
) -> Iterator["MetricsRegistry | NullRegistry"]:
    """Scoped :func:`set_registry`: restores the previous one on exit."""
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)

"""Nested wall-clock spans over the derivation/verification/runtime paths.

A *span* is one timed region of work; spans nest, forming the trace tree
of an operation (``derive`` > ``derive.prepare`` > ``prepare.flatten``
...).  Two tracer implementations share one interface:

:class:`Tracer`
    records spans with ``time.perf_counter`` timestamps and free-form
    attributes, and exports them as a text tree (:meth:`Tracer.render`)
    or a stable JSON document (:meth:`Tracer.to_dict`, schema
    ``repro.obs.trace/v1``);

:class:`NullTracer`
    the process-wide default.  Its :meth:`~NullTracer.span` hands back a
    shared singleton context manager that does **nothing** — no clock
    read, no string formatting, no allocation — so instrumented code
    paths cost one method call when observability is off
    (``tests/obs/test_noop.py`` keeps this honest).

Instrumentation sites therefore always go through the *active* tracer::

    from repro.obs import get_tracer

    with get_tracer().span("lts.build") as span:
        ...
        span.set(states=lts.num_states)

and enabling observability is a scoped swap::

    from repro.obs import Tracer, use_tracer

    tracer = Tracer()
    with use_tracer(tracer):
        derive_protocol(text)
    print(tracer.render())
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter as _perf_counter
from typing import Any, Dict, Iterator, List, Optional

#: Version tag of the JSON export; bump only on breaking shape changes.
TRACE_SCHEMA = "repro.obs.trace/v1"


@dataclass
class Span:
    """One timed region: name, perf_counter interval, attributes, children."""

    name: str
    start: float
    end: Optional[float] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Seconds, measured to the still-running moment if unfinished."""
        return (self.end if self.end is not None else _perf_counter()) - self.start

    def set(self, **attrs: Any) -> None:
        """Attach result attributes (state counts, verdicts, sizes)."""
        self.attrs.update(attrs)

    def to_dict(self, origin: float) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start_s": round(self.start - origin, 9),
            "duration_s": round(self.duration, 9),
            "attrs": _jsonable(self.attrs),
            "children": [child.to_dict(origin) for child in self.children],
        }

    # Context-manager protocol: entered/exited by the owning tracer.
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass


class _NullSpan:
    """The do-nothing span; one shared instance serves every call site."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass

    def set(self, **attrs: Any) -> None:
        pass


NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracing: every span is the shared no-op singleton."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return NULL_SPAN

    def to_dict(self) -> Dict[str, Any]:
        return {"schema": TRACE_SCHEMA, "enabled": False, "spans": []}

    def render(self) -> str:
        return "(tracing disabled)"


NULL_TRACER = NullTracer()


class Tracer:
    """Recording tracer: a stack of open spans over a forest of roots."""

    enabled = True

    def __init__(self) -> None:
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        self._origin = _perf_counter()

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> "_OpenSpan":
        return _OpenSpan(self, name, attrs)

    def _push(self, name: str, attrs: Dict[str, Any]) -> Span:
        span = Span(name=name, start=_perf_counter(), attrs=dict(attrs))
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        return span

    def _pop(self, span: Span) -> None:
        span.end = _perf_counter()
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - misnested exit
            while self._stack and self._stack[-1] is not span:
                self._stack.pop()
            self._stack.pop()

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Stable JSON document (schema ``repro.obs.trace/v1``)."""
        return {
            "schema": TRACE_SCHEMA,
            "enabled": True,
            "spans": [root.to_dict(self._origin) for root in self.roots],
        }

    def render_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def render(self) -> str:
        """Human-oriented text tree with durations and attributes."""
        lines: List[str] = []
        for root in self.roots:
            _render_span(root, "", lines)
        return "\n".join(lines) if lines else "(no spans recorded)"


class _OpenSpan:
    """Context manager binding one ``with tracer.span(...)`` region."""

    __slots__ = ("_tracer", "_name", "_attrs", "_span")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._span: Optional[Span] = None

    def __enter__(self) -> Span:
        self._span = self._tracer._push(self._name, self._attrs)
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        assert self._span is not None
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)


def _render_span(span: Span, prefix: str, lines: List[str]) -> None:
    attrs = ""
    if span.attrs:
        rendered = ", ".join(
            f"{key}={span.attrs[key]}" for key in sorted(span.attrs)
        )
        attrs = f"  [{rendered}]"
    lines.append(f"{prefix}{span.name}  {span.duration * 1000:.3f} ms{attrs}")
    for child in span.children:
        _render_span(child, prefix + "  ", lines)


def _jsonable(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values into JSON-safe primitives."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, (list, tuple, set, frozenset)):
            out[key] = sorted(str(item) for item in value)
        else:
            out[key] = str(value)
    return out


# ----------------------------------------------------------------------
# The process-wide active tracer.
# ----------------------------------------------------------------------
_active_tracer: "Tracer | NullTracer" = NULL_TRACER


def get_tracer() -> "Tracer | NullTracer":
    """The active tracer (the no-op :data:`NULL_TRACER` by default)."""
    return _active_tracer


def set_tracer(tracer: "Tracer | NullTracer") -> "Tracer | NullTracer":
    """Install ``tracer`` process-wide; returns the previous one."""
    global _active_tracer
    previous = _active_tracer
    _active_tracer = tracer
    return previous


@contextmanager
def use_tracer(tracer: "Tracer | NullTracer") -> Iterator["Tracer | NullTracer"]:
    """Scoped :func:`set_tracer`: restores the previous tracer on exit."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def traced(name: Optional[str] = None):
    """Decorator form: run the function body inside one span.

    The span name defaults to the function's qualified name; the active
    tracer is looked up per call, so decorated functions stay no-op-cheap
    while observability is disabled.
    """

    def decorate(function):
        span_name = name or function.__qualname__

        @functools.wraps(function)
        def wrapper(*args: Any, **kwargs: Any):
            with _active_tracer.span(span_name):
                return function(*args, **kwargs)

        return wrapper

    return decorate

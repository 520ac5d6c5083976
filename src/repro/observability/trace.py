"""Hierarchical span tracing on the virtual clock.

The paper's whole argument is a phase-level cost breakdown (Fig. 5/6),
and the repo's runtimes are virtual-clock readings — so the tracer
records *modeled* time, never wall time.  A :class:`Span` is a named
interval ``[start_s, end_s)`` on that clock, carrying an optional
canonical phase, free-form attributes (device id, batch size, byte
counts) and tags (``cache_hit``, ``fallback``, ``retry``, ``dropped``),
plus a parent link that makes the trace a forest::

    pipeline.train
      submodel[3]
        encode
          device.invoke   device=0 batch=256

Determinism contracts (the load-bearing part):

- **Tracing never touches the modeled clock.**  Recording a span does
  not charge time; phase totals come only from :meth:`Tracer.charge`,
  whose float accumulation order is identical whether the tracer is
  enabled or disabled.  Enabling tracing therefore cannot change a
  single modeled second or prediction.
- **Disabled is (near) zero-overhead.**  A disabled tracer skips all
  span bookkeeping; only the phase clock is maintained, exactly as the
  pre-tracer :class:`~repro.runtime.profiler.PhaseProfiler` did.
- **Worker-order invariance.**  Concurrent tasks record into private
  tracers which :meth:`Tracer.splice` merges *in task order*, the
  same convention the PR 2 parallel layer uses for phase totals — so a
  trace is bit-identical for any worker count or backend.

Two time conventions coexist:

- *Cursor-timed* spans (:meth:`Tracer.charge`, :meth:`Tracer.span`) lay
  work out sequentially on a per-tracer cursor — the natural layout for
  pipeline code that only knows durations.  Concurrent sub-models
  appear serialized in task order (document-stable, not overlapped).
- *Explicitly-timed* spans (:meth:`Tracer.add`) carry real virtual
  event times — the serving event loop and the micro-batch dispatcher
  know exactly when each device started and finished.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.platforms.base import VirtualClock

__all__ = ["Span", "Tracer", "format_seconds"]


def format_seconds(seconds: float) -> str:
    """Render a duration with adaptive units (µs / ms / s).

    Sub-microsecond device spans used to print as ``0.000 ms``; the
    unit now follows the magnitude so every span is legible.
    """
    magnitude = abs(seconds)
    if magnitude == 0.0:
        return "0.000 s"
    if magnitude < 1e-3:
        return f"{seconds * 1e6:.3f} µs"
    if magnitude < 1.0:
        return f"{seconds * 1e3:.3f} ms"
    return f"{seconds:.3f} s"


@dataclass
class Span:
    """One named interval of modeled time.

    Attributes:
        span_id: Tracer-local id, assigned in open order (parents open
            before their children, so ``parent_id < span_id``).
        parent_id: Enclosing span's id, ``None`` for roots.
        name: What ran (``device.invoke``, ``host.tail``, ``request``).
        start_s: Virtual start time.
        end_s: Virtual end time (``>= start_s``).
        phase: Canonical phase label when the span was charged against
            the phase clock (``encode``/``update``/``modelgen``/
            ``inference``), else ``None``.
        attrs: Free-form structured context (``device``, ``batch``,
            ``bytes_in``, ``request_id``, ...).
        tags: Markers (``cache_hit``, ``fallback``, ``retry``,
            ``dropped``, ``deadline_miss``, ``failure``).
    """

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    end_s: float
    phase: str | None = None
    attrs: dict = field(default_factory=dict)
    tags: tuple = ()

    @property
    def duration_s(self) -> float:
        """Span length in modeled seconds."""
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        """JSON-ready representation (the JSONL exporter's row)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "phase": self.phase,
            "attrs": dict(self.attrs),
            "tags": list(self.tags),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Inverse of :meth:`to_dict` (exporter round-trip)."""
        return cls(
            span_id=int(payload["span_id"]),
            parent_id=(None if payload["parent_id"] is None
                       else int(payload["parent_id"])),
            name=str(payload["name"]),
            start_s=float(payload["start_s"]),
            end_s=float(payload["end_s"]),
            phase=payload.get("phase"),
            attrs=dict(payload.get("attrs", {})),
            tags=tuple(payload.get("tags", ())),
        )


class _NullSpan:
    """No-op handle returned by a disabled tracer's :meth:`Tracer.span`."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> None:
        pass

    def tag(self, *tags) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _SpanHandle:
    """Context-manager handle over one open cursor-timed span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def set(self, **attrs) -> None:
        """Attach attributes to the open span."""
        self._span.attrs.update(attrs)

    def tag(self, *tags: str) -> None:
        """Append tags to the open span."""
        self._span.tags = self._span.tags + tags

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc) -> bool:
        self._tracer._close(self._span)
        return False


class Tracer:
    """Records hierarchical spans and the per-phase modeled-time totals.

    Args:
        enabled: When ``False``, span recording is skipped entirely and
            only the phase clock accumulates — the zero-overhead mode
            every pipeline uses by default.

    Not thread-safe by design: concurrent tasks each record into their
    own tracer and the owner merges them in task order with
    :meth:`splice` (the repo's worker-order-invariance convention).
    """

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self.spans: list[Span] = []
        self._clock = VirtualClock()
        self._stack: list[Span] = []
        self._cursor = 0.0
        self._next_id = 0

    def __bool__(self) -> bool:
        return self.enabled

    def __len__(self) -> int:
        return len(self.spans)

    # ------------------------------------------------------------------
    # Phase clock (what PhaseProfiler views)
    # ------------------------------------------------------------------

    @property
    def total_charged(self) -> float:
        """Total modeled seconds charged across phases."""
        return self._clock.elapsed()

    def phase_seconds(self, phase: str) -> float:
        """Seconds charged under ``phase`` (0.0 if never charged)."""
        return self._clock.phase(phase)

    def phase_totals(self) -> dict:
        """A copy of the per-phase totals."""
        return self._clock.phases()

    def charge(self, phase: str, seconds: float, *, name: str | None = None,
               tags: tuple = (), record: bool = True, **attrs) -> None:
        """Charge ``seconds`` to ``phase`` and record a leaf span.

        The clock charge happens unconditionally and in call order, so
        phase totals are bit-identical whether tracing is on or off.
        When enabled (and ``record``), a leaf span named ``name`` (the
        phase name by default) occupies ``[cursor, cursor + seconds)``
        and advances the cursor.  ``record=False`` charges the clock
        only — used when merging a child tracer whose spans are spliced
        separately (a replayed leaf would double-report).
        """
        self._clock.charge(phase, seconds)
        if self.enabled and record:
            span = self._open(name if name is not None else phase,
                              self._cursor, phase=phase, tags=tuple(tags),
                              attrs=attrs)
            self._cursor += seconds
            span.end_s = self._cursor
            self._stack.pop()

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------

    @property
    def cursor_s(self) -> float:
        """Current position on the cursor timeline."""
        return self._cursor

    def advance(self, seconds: float) -> None:
        """Move the cursor past an explicitly-timed window."""
        if seconds < 0:
            raise ValueError(f"cannot advance by {seconds}")
        self._cursor += seconds

    def span(self, name: str, *, phase: str | None = None, tags: tuple = (),
             **attrs):
        """Open a cursor-timed structural span (context manager).

        The span starts at the cursor and ends wherever nested
        :meth:`charge` calls push it.  ``phase`` is a pure label here —
        structural spans never charge the clock (their children do).
        """
        if not self.enabled:
            return _NULL_SPAN
        span = self._open(name, self._cursor, phase=phase,
                          tags=tuple(tags), attrs=attrs)
        return _SpanHandle(self, span)

    def add(self, name: str, start_s: float, end_s: float, *,
            parent_id: int | None = None, phase: str | None = None,
            tags: tuple = (), **attrs) -> int | None:
        """Record an explicitly-timed span; returns its id (or ``None``).

        Used where real virtual event times are known (the serving
        event loop, the micro-batch dispatcher).  Neither charges the
        clock nor moves the cursor.  ``parent_id`` links the span into
        the forest; ``None`` attaches to the currently open structural
        span, if any.
        """
        if not self.enabled:
            return None
        if end_s < start_s:
            raise ValueError(f"span ends ({end_s}) before it starts "
                             f"({start_s})")
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        span = Span(
            span_id=self._next_id, parent_id=parent_id, name=name,
            start_s=start_s, end_s=end_s, phase=phase,
            attrs=attrs, tags=tuple(tags),
        )
        self._next_id += 1
        self.spans.append(span)
        return span.span_id

    def finish(self, span_id: int | None, end_s: float) -> None:
        """Set the end time of a previously :meth:`add`-ed span."""
        if not self.enabled or span_id is None:
            return
        for span in reversed(self.spans):
            if span.span_id == span_id:
                if end_s < span.start_s:
                    raise ValueError(
                        f"span ends ({end_s}) before it starts "
                        f"({span.start_s})"
                    )
                span.end_s = end_s
                return
        raise KeyError(f"no span with id {span_id}")

    def splice(self, child: "Tracer", name: str, *, tags: tuple = (),
               **attrs) -> None:
        """Graft a child tracer's spans under a new wrapper span.

        The child's cursor timeline is shifted to start at this
        tracer's cursor, ids are remapped to stay unique, and the
        wrapper (named ``name``) covers the child's whole extent.
        Splicing children in task order makes the merged trace
        worker-order-invariant.  Phase totals are *not* merged here —
        the profiler replays them with ``charge(record=False)`` so the
        float accumulation order matches the pre-tracer merge exactly.
        """
        if not (self.enabled and child.enabled):
            return
        base = self._cursor
        extent = child._cursor
        if child.spans:
            extent = max(extent, max(s.end_s for s in child.spans))
        parent = self._stack[-1].span_id if self._stack else None
        wrapper = Span(
            span_id=self._next_id, parent_id=parent, name=name,
            start_s=base, end_s=base + extent, attrs=attrs,
            tags=tuple(tags),
        )
        self._next_id += 1
        self.spans.append(wrapper)
        id_map: dict[int, int] = {}
        for span in child.spans:
            new_id = self._next_id
            self._next_id += 1
            id_map[span.span_id] = new_id
            self.spans.append(Span(
                span_id=new_id,
                parent_id=(wrapper.span_id if span.parent_id is None
                           else id_map[span.parent_id]),
                name=span.name,
                start_s=base + span.start_s,
                end_s=base + span.end_s,
                phase=span.phase,
                attrs=dict(span.attrs),
                tags=span.tags,
            ))
        self._cursor = base + extent

    # ------------------------------------------------------------------

    def _open(self, name: str, start_s: float, *, phase: str | None,
              tags: tuple, attrs: dict) -> Span:
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(
            span_id=self._next_id, parent_id=parent, name=name,
            start_s=start_s, end_s=start_s, phase=phase, attrs=attrs,
            tags=tags,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} closed out of order"
            )
        span.end_s = max(span.end_s, self._cursor)
        self._stack.pop()

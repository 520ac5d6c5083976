"""Heap-scheduled discrete-event core on the virtual clock.

The serving loop used to materialize every arrival, sort them, and
scan — fine at 10³ requests, hopeless at 10⁶.  :class:`EventEngine`
replaces that structure with the classic discrete-event simulation
core: a binary heap of ``(time, seq, event)`` entries popped in time
order, with ties broken **deterministically by insertion sequence** —
two events at the same virtual instant always fire in the order they
were scheduled, so a simulation is bit-reproducible regardless of heap
internals.

Design points that keep a 10⁶-event run in bounded wall time and
memory:

- **Lazy generation composes naturally.**  An event callback may
  schedule further events (the next arrival, the batch dispatch, the
  autoscaler's next tick), so arrivals stream through the engine one
  at a time and a request trace never has to exist as a list.
- **O(log n) everything.**  ``at`` and ``run`` are plain ``heapq``
  push/pop over ``(time_s, seq, event)`` tuples — the comparisons stay
  in C (two floats, then two ints; the :class:`Event` object itself is
  never compared because ``seq`` is unique).
- **Cancellation is lazy, but tombstones are bounded.**  ``cancel``
  tombstones the event in O(1) and immediately drops its callback and
  arguments (a cancelled dispatch closure would otherwise pin its
  requests until popped).  When tombstones outnumber live events the
  heap is compacted in one O(n) filter-and-heapify pass, so a
  cancel-heavy run — the serving loop cancels the pending batch
  dispatch after *every* arrival — keeps the heap O(live) instead of
  O(total arrivals).
- **Event objects are pooled.**  The arrival→dispatch cycle allocates
  one :class:`Event` per event; fired and compacted-away events return
  to a bounded free list and are reused by the next ``at``.  The
  corollary is the handle contract below.
- **The clock never goes backwards.**  Scheduling strictly in the past
  raises; scheduling *at* the current instant is allowed (the serving
  loop's "flush now" rule) and fires after the current callback
  returns.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable

__all__ = ["Event", "EventEngine"]

# Recycled Event objects kept for reuse.  Bounded: a burst that
# schedules far ahead should not pin its peak event count forever.
_POOL_MAX = 256

# Compaction floor: below this many tombstones the O(n) rebuild costs
# more than lazily popping them ever would.
_COMPACT_MIN = 64


class Event:
    """One scheduled callback; returned by :meth:`EventEngine.at`.

    Events order by ``(time_s, seq)`` — virtual time first, insertion
    sequence as the deterministic tie-break.  Treat instances as opaque
    handles: the only supported operation is passing one to
    :meth:`EventEngine.cancel`, and only **while the event is still
    pending**.  Once an event has fired (or been cancelled) its handle
    is dead — the engine recycles the object for a future ``at``, so a
    stale handle may alias a different pending event.
    """

    __slots__ = ("time_s", "seq", "callback", "args", "cancelled")

    def __init__(self, time_s: float, seq: int,
                 callback: Callable, args: tuple):
        self.time_s = time_s
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def __lt__(self, other: "Event") -> bool:
        if self.time_s != other.time_s:
            return self.time_s < other.time_s
        return self.seq < other.seq

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"<Event t={self.time_s:.6f} seq={self.seq}{state}>"


class EventEngine:
    """A deterministic discrete-event scheduler on the virtual clock.

    Example::

        engine = EventEngine()
        engine.at(1.0, lambda: engine.at(2.0, done))
        engine.run()          # fires both; engine.now == 2.0

    Attributes:
        now: Current virtual time — the time of the event being (or
            last) processed.  Starts at 0.0.
        events_processed: Events fired so far (cancelled events are
            skipped, not counted).
    """

    def __init__(self):
        self.now = 0.0
        self.events_processed = 0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._live = 0
        self._cancelled = 0
        self._pool: list[Event] = []

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def at(self, time_s: float, callback: Callable, *args) -> Event:
        """Schedule ``callback(*args)`` at virtual time ``time_s``.

        ``time_s`` may equal :attr:`now` (the event fires after the
        current callback returns, in insertion order among its ties);
        a strictly-past time raises.
        """
        time_s = float(time_s)
        if not time_s >= self.now:  # also catches NaN
            raise ValueError(
                f"cannot schedule at {time_s} (now is {self.now})"
            )
        if time_s == math.inf:
            raise ValueError("cannot schedule at infinity")
        seq = self._seq
        self._seq = seq + 1
        pool = self._pool
        if pool:
            event = pool.pop()
            event.time_s = time_s
            event.seq = seq
            event.callback = callback
            event.args = args
            event.cancelled = False
        else:
            event = Event(time_s, seq, callback, args)
        self._live += 1
        heapq.heappush(self._heap, (time_s, seq, event))
        return event

    def draw_seq(self) -> int:
        """Take the next insertion sequence number without scheduling.

        A caller that keeps its own pending ``(time, seq)`` key off the
        heap draws its ``seq`` here, from the counter :meth:`at` uses,
        so the key orders against scheduled events exactly as a
        scheduled event would.
        """
        seq = self._seq
        self._seq = seq + 1
        return seq

    def after(self, delay_s: float, callback: Callable, *args) -> Event:
        """Schedule ``callback(*args)`` ``delay_s`` seconds from now."""
        if delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {delay_s}")
        return self.at(self.now + delay_s, callback, *args)

    def cancel(self, event: Event) -> None:
        """Tombstone a scheduled event (idempotent).

        The entry stays in the heap and is discarded when popped —
        O(1) now, amortized against the pop it would have cost anyway.
        The callback and its arguments are dropped immediately (a
        tombstone must not pin the requests a cancelled dispatch
        closure captured), and once tombstones outnumber live events
        the heap is compacted in one pass.
        """
        if not event.cancelled:
            event.cancelled = True
            event.callback = None
            event.args = ()
            self._live -= 1
            self._cancelled += 1
            if (self._cancelled > self._live
                    and self._cancelled >= _COMPACT_MIN):
                self._compact()

    def _compact(self) -> None:
        """Drop every tombstone from the heap in one filter+heapify.

        The surviving entries keep their ``(time_s, seq)`` keys, so the
        rebuilt heap pops in exactly the order the lazy path would
        have — compaction is invisible to the simulation.  The heap
        list is mutated in place: ``run``/``step`` hold a local alias
        across callbacks (which may cancel and trigger compaction
        mid-run), and rebinding would strand them on a stale list.
        """
        pool = self._pool
        heap = self._heap
        live: list[tuple[float, int, Event]] = []
        for entry in heap:
            event = entry[2]
            if event.cancelled:
                if len(pool) < _POOL_MAX:
                    pool.append(event)
            else:
                live.append(entry)
        heapq.heapify(live)
        heap[:] = live
        self._cancelled = 0

    def peek(self) -> tuple[float, int] | None:
        """The next live event's ``(time_s, seq)`` key, or ``None``.

        Tombstones encountered at the top of the heap are dropped (the
        same lazy sweep ``run`` performs), so the answer is exact.  The
        cluster pump uses this as the bound of each replica's run-ahead
        window: the next cluster-level event.
        """
        heap = self._heap
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                self._recycle(event)
                continue
            return entry[0], entry[1]
        return None

    @property
    def pending(self) -> int:
        """Live (non-cancelled, not-yet-fired) events.

        This counts *live* events only; cancelled entries awaiting
        removal are tracked separately in an internal tombstone counter
        and compacted away once they outnumber the live events, so the
        heap's physical size stays O(pending).
        """
        return self._live

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _recycle(self, event: Event) -> None:
        event.cancelled = True  # dead handle: cancel() becomes a no-op
        event.callback = None
        event.args = ()
        if len(self._pool) < _POOL_MAX:
            self._pool.append(event)

    def step(self) -> bool:
        """Fire the single earliest live event; ``False`` when empty."""
        heap = self._heap
        while heap:
            time_s, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._cancelled -= 1
                self._recycle(event)
                continue
            self._live -= 1
            self.now = time_s
            self.events_processed += 1
            callback = event.callback
            args = event.args
            self._recycle(event)
            callback(*args)
            return True
        return False

    def run(self, until_s: float | None = None,
            max_events: int | None = None) -> int:
        """Fire events in ``(time, seq)`` order; returns events fired.

        Args:
            until_s: Stop *before* any event strictly later than this
                time (the event stays scheduled and ``now`` does not
                pass ``until_s``).
            max_events: Safety bound on events fired by this call;
                raises :class:`RuntimeError` when exceeded (a runaway
                self-rescheduling loop, not a normal exit).
        """
        fired = 0
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heappop(heap)
                self._cancelled -= 1
                self._recycle(event)
                continue
            if until_s is not None and entry[0] > until_s:
                break
            if max_events is not None and fired >= max_events:
                raise RuntimeError(
                    f"event budget exhausted after {fired} events at "
                    f"t={self.now:.6f}"
                )
            heappop(heap)
            self._live -= 1
            self.now = entry[0]
            self.events_processed += 1
            callback = event.callback
            args = event.args
            self._recycle(event)
            callback(*args)
            fired += 1
        return fired

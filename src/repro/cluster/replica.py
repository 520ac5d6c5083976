"""The serving loop re-expressed as discrete events: one replica actor.

:class:`Replica` runs an :class:`~repro.serving.server.InferenceServer`
*on* an :class:`~repro.cluster.engine.EventEngine` instead of the old
materialize-sort-scan loop.  The translation is exact — the engine
fires the same admits and dispatches at the same virtual times in the
same order, so a single-replica run reproduces the old loop's
:class:`~repro.serving.server.ServeReport` byte for byte (asserted
against the frozen :func:`repro.serving._reference.serve_reference`
oracle in ``tests/cluster/test_equivalence.py``).

Two details carry the equivalence:

- **Arrivals win ties.**  The old loop admitted whenever
  ``next_arrival <= ready``.  Here, every event handler schedules the
  next arrival *before* rescheduling the batch dispatch, and the
  dispatch is always cancel-and-reinsert (never reused), so its
  insertion sequence is always the newest — at equal times the engine's
  deterministic ``(time, seq)`` order fires the arrival first.
- **The batch trigger is re-evaluated after every event.**  The old
  loop called ``batcher.ready_at`` once per iteration with the time of
  the last event; :meth:`Replica._reschedule` does the same after each
  admit and each dispatch, so a pure policy sees identical inputs.

The actor serves either mode the cluster needs:

- **Standalone** (:meth:`bind`): the replica owns the trace — a list
  (the exact, byte-identical path) or any iterator (the streamed path:
  requests are pulled lazily, report rows live in growable arrays, and
  a 10⁶-request trace never exists in memory).
- **Routed** (:meth:`open` / :meth:`end_of_trace`): the cluster pump
  lands routed rows as columns with replica-local ids and keeps the
  pending dispatch as a key the replica owns (:meth:`enable_fast`); the
  rows' arrival/deadline/tenant columns feed the cluster report's
  per-tenant SLA accounting.  :meth:`submit` admits one
  :class:`~repro.serving.arrivals.Request` instead: standalone
  arrivals call it, and so does the scalar cluster intake that tests
  keep as the pump's oracle.

Elastic capacity (:meth:`add_device` / :meth:`retire_device`) extends
the per-device accounting arrays in step with the pool and keeps
device online spans, so the autoscaler's device-seconds bill is exact.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from typing import Iterable, Iterator

import numpy as np

from repro.cluster.engine import Event, EventEngine
from repro.runtime.profiler import LatencyTracker
from repro.serving.arrivals import Request
from repro.serving.server import InferenceServer, ServeReport

__all__ = ["Replica"]


class _Rows:
    """Growable request-order columns backing a streamed ServeReport.

    The exact (list-input) path preallocates the report arrays to the
    trace length, exactly as the old loop did.  The streamed path does
    not know the length, so the per-request columns live here in
    doubling arrays; the report's ``predictions``/``latencies`` (and
    ``request_tiers`` when tiered) *are* these arrays — regrown copies
    are written back so the dispatch path always indexes live storage.
    ``trim`` slices everything to the final count.

    Beyond the report's own columns this keeps ``arrivals``,
    ``deadlines`` and ``tenants``: the cluster report needs them for
    per-tenant latency splits and SLA attainment, and the makespan
    needs arrivals (the old loop re-read them from the request list,
    which no longer exists).
    """

    __slots__ = ("count", "capacity", "report", "tiered", "has_labels",
                 "arrivals", "deadlines", "tenants", "labels", "predicted")

    _INITIAL = 1024

    def __init__(self, report: ServeReport, tiered: bool):
        capacity = self._INITIAL
        self.count = 0
        self.capacity = capacity
        self.report = report
        self.tiered = tiered
        self.has_labels: bool | None = None
        self.arrivals = np.zeros(capacity)
        self.deadlines = np.zeros(capacity)
        self.tenants = np.full(capacity, -1, dtype=np.int64)
        self.labels: np.ndarray | None = None
        # Fast-path only: each row's prediction under every tier its
        # replica serves (one column per tier), made when the row was
        # routed; resolve picks the serving tier's.
        self.predicted: np.ndarray | None = None
        report.predictions = np.full(capacity, -1, dtype=np.int64)
        report.latencies = np.full(capacity, np.nan)
        if tiered:
            report.request_tiers = np.full(capacity, -1, dtype=np.int64)

    @staticmethod
    def _extend(array: np.ndarray, capacity: int, fill) -> np.ndarray:
        grown = np.full(capacity, fill, dtype=array.dtype)
        grown[:len(array)] = array
        return grown

    def _grow(self) -> None:
        capacity = self.capacity * 2
        report = self.report
        self.arrivals = self._extend(self.arrivals, capacity, 0.0)
        self.deadlines = self._extend(self.deadlines, capacity, 0.0)
        self.tenants = self._extend(self.tenants, capacity, -1)
        if self.labels is not None:
            self.labels = self._extend(self.labels, capacity, -1)
        if self.predicted is not None:
            grown = np.empty((capacity, self.predicted.shape[1]),
                             dtype=np.int64)
            grown[:len(self.predicted)] = self.predicted
            self.predicted = grown
        report.predictions = self._extend(report.predictions, capacity, -1)
        report.latencies = self._extend(report.latencies, capacity, np.nan)
        if self.tiered:
            report.request_tiers = self._extend(
                report.request_tiers, capacity, -1
            )
        self.capacity = capacity

    def append(self, request: Request) -> Request:
        """Record one request's columns; returns it renumbered to the
        replica-local id (a no-op for an already-local trace)."""
        count = self.count
        if count == self.capacity:
            self._grow()
        if self.has_labels is None:
            self.has_labels = request.label is not None
            if self.has_labels:
                self.labels = np.full(self.capacity, -1, dtype=np.int64)
        self.arrivals[count] = request.arrival_s
        self.deadlines[count] = request.deadline_s
        if request.tenant is not None:
            self.tenants[count] = request.tenant
        if self.has_labels:
            self.labels[count] = request.label
        if request.request_id != count:
            request = replace(request, request_id=count)
        self.count = count + 1
        return request

    def bulk_append(self, arrivals: np.ndarray, deadlines: np.ndarray,
                    tenants: np.ndarray, labels: np.ndarray,
                    predicted: np.ndarray) -> int:
        """Append one routed block of rows in one slice write per
        column; returns the base replica-local id of the block.

        The cluster fast path calls this once per ``(chunk, replica)``
        with the chunk rows routed here, *before* their arrival events
        fire — the columns end up byte-identical to ``len(arrivals)``
        in-order :meth:`append` calls because routing never feeds back
        into generation and nothing reads a row before its arrival.
        """
        count = self.count
        total = count + len(arrivals)
        while total > self.capacity:
            self._grow()
        if self.predicted is None:
            self._open_pump_columns(predicted.shape[1])
        self.arrivals[count:total] = arrivals
        self.deadlines[count:total] = deadlines
        self.tenants[count:total] = tenants
        self.labels[count:total] = labels
        self.predicted[count:total] = predicted
        self.count = total
        return count

    def append_row(self, arrival: float, deadline: float, tenant: int,
                   label: int, predicted: np.ndarray) -> int:
        """Append one routed row; returns its replica-local id.

        The cluster pump's ``least_queue`` intake: the row's replica is
        picked at its arrival, so it lands here one row at a time,
        with its ``(tiers,)`` predictions already made.
        """
        count = self.count
        if count == self.capacity:
            self._grow()
        if self.predicted is None:
            self._open_pump_columns(len(predicted))
        self.arrivals[count] = arrival
        self.deadlines[count] = deadline
        self.tenants[count] = tenant
        self.labels[count] = label
        self.predicted[count] = predicted
        self.count = count + 1
        return count

    def _open_pump_columns(self, tiers: int) -> None:
        """First pump row: every traffic row carries a label, and keeps
        one prediction per tier."""
        self.has_labels = True
        self.labels = np.full(self.capacity, -1, dtype=np.int64)
        self.predicted = np.empty((self.capacity, tiers), dtype=np.int64)

    def trim(self) -> None:
        count = self.count
        report = self.report
        report.num_requests = count
        report.predictions = report.predictions[:count]
        report.latencies = report.latencies[:count]
        if self.has_labels:
            report.labels = self.labels[:count]
        if self.tiered:
            report.request_tiers = report.request_tiers[:count]
        self.arrivals = self.arrivals[:count]
        self.deadlines = self.deadlines[:count]
        self.tenants = self.tenants[:count]


class Replica:
    """One inference server as an actor on the event engine.

    Args:
        server: The :class:`~repro.serving.server.InferenceServer` to
            run.  The replica owns the simulation state the old loop
            kept in locals (queue, per-device free/busy/swap times,
            host-free time) — the server contributes policies, cost
            models and the dispatch path.
        engine: The shared :class:`EventEngine`.
        replica_id: Identity in a cluster (0 for standalone serving).
    """

    def __init__(self, server: InferenceServer, engine: EventEngine,
                 replica_id: int = 0):
        self.server = server
        self.engine = engine
        self.replica_id = replica_id
        self.queue: deque[Request] = deque()
        num_devices = server.pool.num_devices
        self.device_free = [0.0] * num_devices
        self.device_busy = [0.0] * num_devices
        self.device_swap = [0.0] * num_devices
        self.host_free = 0.0
        # Every pre-existing device has been online since t=0; entries
        # are [start, end] with end None while the device is in service.
        self.online_spans: list[list] = [[0.0, None]
                                         for _ in range(num_devices)]
        self.report: ServeReport | None = None
        self._root = None
        self._dispatch_event: Event | None = None
        self._source: Iterator[Request] | None = None
        self._source_done = False
        self._prev_arrival = -math.inf
        self._exact_requests: list[Request] | None = None
        self._first_request: Request | None = None
        self._rows: _Rows | None = None
        self._finalized = False
        # Pump state (see enable_fast); inert in scalar mode.
        self._fast = False
        self._defer = None
        self._fast_max_batch = 0
        self._fast_est: list[float | None] = []
        self._head_column = "deadlines"
        self._head_shift = self._head_base = 0.0
        # The pending dispatch as a key the replica owns: time (inf for
        # none), seq and origin (see _reached); and the last event time.
        self._due = math.inf
        self._due_seq = 0
        self._due_origin = None
        self._clock = 0.0
        # Run-ahead only: the window's seq stamp, the global arrival
        # times, and the routed rows not yet admitted (see _advance).
        self._stamp: int | None = None
        self._time_of = None
        self._pend_t: list[float] = []
        self._pend_g: list[int] = []
        self._pend_k = 0

    # ------------------------------------------------------------------
    # Trace binding
    # ------------------------------------------------------------------

    def bind(self, requests: Iterable[Request]) -> None:
        """Attach a standalone trace; the replica schedules its own
        arrival events.

        A list (or tuple) takes the exact path — report arrays
        preallocated to the trace length, arrival order validated up
        front, byte-identical to the old loop.  Any other iterable is
        streamed: requests are pulled one at a time as their arrival
        events fire, so the trace never has to exist in memory.
        """
        if self.report is not None:
            raise RuntimeError("replica already has a trace bound")
        if isinstance(requests, (list, tuple)):
            self._bind_list(list(requests))
        else:
            self._bind_stream(iter(requests))

    def _bind_list(self, requests: list[Request]) -> None:
        num_requests = len(requests)
        for left, right in zip(requests, requests[1:]):
            if right.arrival_s < left.arrival_s:
                raise ValueError("requests must be in arrival order")
        for request in requests:
            self._check_width(request)
            self._check_label(request)
        report = ServeReport(num_requests=num_requests)
        report.predictions = np.full(num_requests, -1, dtype=np.int64)
        report.latencies = np.full(num_requests, np.nan)
        if num_requests and requests[0].label is not None:
            report.labels = np.array(
                [r.label for r in requests], dtype=np.int64
            )
        self.report = report
        self._exact_requests = requests
        self._begin(trace_requests=num_requests)
        self._source = iter(requests)
        self._schedule_next_arrival()

    def _bind_stream(self, requests: Iterator[Request]) -> None:
        self.report = ServeReport(num_requests=0)
        self._rows = _Rows(self.report,
                           tiered=self.server._tiers is not None)
        self._begin(trace_requests=None)
        self._source = requests
        self._schedule_next_arrival()

    def _check_label(self, request: Request) -> None:
        """Reject a trace that labels some requests but not all: the
        report keeps one label column or none."""
        first = self._first_request
        if first is None:
            self._first_request = request
        elif (request.label is None) != (first.label is None):
            raise ValueError(
                f"request {request.request_id} is "
                f"{'un' if request.label is None else ''}labelled but "
                f"request {first.request_id} is not; label every "
                f"request of a trace or none"
            )

    def _check_width(self, request: Request) -> None:
        """Reject a request the served model cannot take before it is
        queued (its batch would otherwise fail mid-run)."""
        width = np.size(request.features)
        expected = self.server._compiled.model.input_spec.size
        if width != expected:
            raise ValueError(
                f"request {request.request_id} has {width} features but "
                f"the model takes {expected}"
            )

    def open(self) -> None:
        """Prepare for routed traffic: requests arrive via
        :meth:`submit` and the router signals :meth:`end_of_trace`."""
        if self.report is not None:
            raise RuntimeError("replica already has a trace bound")
        self.report = ServeReport(num_requests=0)
        self._rows = _Rows(self.report,
                           tiered=self.server._tiers is not None)
        self._begin(trace_requests=None)

    def _begin(self, trace_requests: int | None) -> None:
        """The old loop's preamble: root span, tier accounting reset."""
        server = self.server
        report = self.report
        tracer = server.tracer
        metrics = server.metrics
        self._root = (tracer.add("serve", 0.0, 0.0,
                                 requests=trace_requests,
                                 devices=server.pool.num_devices)
                      if tracer is not None else None)
        server._active_tier = 0
        if server._tiers is not None:
            report.tier_names = [t.name for t in server._tiers]
            report.tier_batches = [0] * len(server._tiers)
            report.tier_served = [0] * len(server._tiers)
            report.tier_build_accuracy = [t.build_accuracy
                                          for t in server._tiers]
            if self._rows is None:
                report.request_tiers = np.full(report.num_requests, -1,
                                               dtype=np.int64)
            report.tier_latency = [LatencyTracker()
                                   for _ in server._tiers]
            if metrics is not None:
                metrics.gauge("serve.tier_active").set(0)

    # ------------------------------------------------------------------
    # Event handlers
    # ------------------------------------------------------------------

    def _schedule_next_arrival(self) -> None:
        try:
            request = next(self._source)
        except StopIteration:
            self._source = None
            self._source_done = True
            return
        if self._rows is not None:
            # The exact path validated the whole list up front; the
            # streamed path validates as it pulls.
            if request.arrival_s < self._prev_arrival:
                raise ValueError("requests must be in arrival order")
            self._check_width(request)
            self._check_label(request)
            self._prev_arrival = request.arrival_s
        self.engine.at(max(self.engine.now, request.arrival_s),
                       self._on_arrival, request)

    def _on_arrival(self, request: Request) -> None:
        # Next arrival first, then the dispatch reschedule: at equal
        # times the arrival's older sequence number fires first, which
        # is exactly the old loop's ``next_arrival <= ready`` tie.
        self._schedule_next_arrival()
        self.submit(request)

    def submit(self, request: Request) -> None:
        """Admit (or drop) one request at the current virtual time.

        This is the old loop's admission block verbatim; in routed mode
        the router calls it directly at the request's arrival event.
        """
        server = self.server
        report = self.report
        metrics = server.metrics
        tracer = server.tracer
        queue = self.queue
        if self._rows is not None:
            request = self._rows.append(request)
        if metrics is not None:
            metrics.counter("serve.requests").inc()
        if len(queue) >= server.max_queue:
            report.dropped += 1
            if tracer is not None:
                # Zero-duration marker: the request arrived and was
                # rejected at the same virtual instant.
                tracer.add("request", request.arrival_s,
                           request.arrival_s, parent_id=self._root,
                           tags=("dropped",),
                           request_id=request.request_id)
            if metrics is not None:
                metrics.counter("serve.dropped").inc()
        else:
            queue.append(request)
        if metrics is not None:
            metrics.gauge("serve.queue_depth").set(len(queue))
        self._reschedule()

    def end_of_trace(self, now: float = 0.0, index: int = -1) -> None:
        """Routed mode: no more submits are coming — arm the flush rule
        so a queue the policy would hold forever dispatches now.

        The pump passes the last arrival's time and global index (the
        scalar intake is at that event already)."""
        self._source_done = True
        if self._fast:
            self._clock = now
            self._reschedule_fast(now, index)
        else:
            self._reschedule()

    def _reschedule(self) -> None:
        """Re-evaluate the batch trigger (the old loop's per-iteration
        ``ready_at`` call) and move the pending dispatch event.

        Always cancel-and-reinsert: the dispatch event's sequence
        number must be newer than any pending arrival's so arrivals win
        ties.
        """
        engine = self.engine
        if self._dispatch_event is not None:
            engine.cancel(self._dispatch_event)
            self._dispatch_event = None
        server = self.server
        queue = self.queue
        ready = server.batcher.ready_at(queue, engine.now,
                                        server.service_estimate)
        if math.isinf(ready):
            if not (self._source_done and queue):
                return
            # Trace over, policy would wait forever: flush.
            ready = engine.now
        self._dispatch_event = engine.at(max(engine.now, ready),
                                         self._on_dispatch)

    def _on_dispatch(self) -> None:
        self._dispatch_event = None
        server = self.server
        queue = self.queue
        batch = [queue.popleft()
                 for _ in range(min(server.batcher.max_batch,
                                    len(queue)))]
        if server.metrics is not None:
            server.metrics.gauge("serve.queue_depth").set(len(queue))
        self.host_free = server._dispatch_batch(
            batch, self.engine.now, self.device_free, self.device_busy,
            self.device_swap, self.host_free, self.report,
            server.tracer, self._root, queue_depth=len(queue),
        )
        self._reschedule()

    # ------------------------------------------------------------------
    # The pump path (cluster intake without Request objects)
    # ------------------------------------------------------------------

    def enable_fast(self, defer) -> None:
        """Switch the routed intake to the cluster pump.

        The queue then holds replica-local row ids, the pending
        dispatch is a key the replica owns instead of an engine event,
        and predictions resolve through ``defer`` (a
        :class:`~repro.cluster.fastpath.DeferredPredictions` sink).  The
        stock batchers' triggers run inline as ``(head column + shift)
        - estimate[size]``: ``(deadline - slack) - service estimate``,
        or ``(arrival + timeout) - 0``.
        """
        from repro.serving.batcher import DynamicBatcher
        if self._rows is None or self._source is not None:
            raise RuntimeError("fast mode requires an open() replica")
        server = self.server
        if server.swapper is not None:
            # A hot swap would invalidate the inline estimate cache.
            raise ValueError("fast mode does not support a swapper")
        batcher = server.batcher
        if isinstance(batcher, DynamicBatcher):
            self._head_column, self._head_shift = "deadlines", -batcher.slack_s
            self._fast_est = [None] * batcher.max_batch
        else:
            self._head_column, self._head_shift = "arrivals", batcher.timeout_s
            self._fast_est = [0.0] * batcher.max_batch
        self._fast_max_batch = batcher.max_batch
        self._defer = defer
        self._fast = True

    def _set_head(self, local_id: int) -> None:
        """Cache the trigger base of a new queue head."""
        column = getattr(self._rows, self._head_column)
        self._head_base = float(column[local_id]) + self._head_shift

    def _reschedule_fast(self, now: float, origin) -> None:
        """Re-key the pending dispatch at ``now`` — :meth:`_reschedule`
        with the batch trigger inline.

        A key takes a fresh ``seq`` where :meth:`_reschedule` calls
        ``engine.at``: from the engine in merged order, else the
        run-ahead window's stamp.  ``origin`` is the event re-keying it,
        for the run-ahead tie rule (:meth:`_reached`).
        """
        size = len(self.queue)
        if not size:
            self._due = math.inf
            return
        if size >= self._fast_max_batch:
            ready = now
        else:
            estimate = self._fast_est[size]
            if estimate is None:
                estimate = self.server.service_estimate(size)
                self._fast_est[size] = estimate
            ready = self._head_base - estimate
            if ready < now:
                ready = now
            elif ready == math.inf:
                # The policy would wait forever: flush once the trace
                # is over, until then schedule nothing.
                if not self._source_done:
                    self._due = math.inf
                    return
                ready = now
        self._due = ready
        self._due_origin = origin
        stamp = self._stamp
        self._due_seq = self.engine.draw_seq() if stamp is None else stamp

    def _submit_fast(self, local_id: int, now: float, index: int) -> None:
        """Merged order: admit (or drop) routed row ``local_id``, global
        arrival ``index``, at its arrival time ``now`` — the fast twin
        of :meth:`submit`."""
        server = self.server
        metrics = server.metrics
        queue = self.queue
        if metrics is not None:
            metrics.counter("serve.requests").inc()
        if len(queue) >= server.max_queue:
            self.report.dropped += 1
            if server.tracer is not None:
                server.tracer.add("request", now, now, parent_id=self._root,
                                  tags=("dropped",), request_id=local_id)
            if metrics is not None:
                metrics.counter("serve.dropped").inc()
        else:
            if not queue:
                self._set_head(local_id)
            queue.append(local_id)
        if metrics is not None:
            metrics.gauge("serve.queue_depth").set(len(queue))
        self._clock = now
        self._reschedule_fast(now, index)

    def _on_dispatch_fast(self) -> None:
        """Close and serve one batch of queued row ids at the pending
        dispatch's time — the fast twin of :meth:`_on_dispatch`
        (columns in, no predictions out)."""
        now = self._due
        server = self.server
        queue = self.queue
        popleft = queue.popleft
        count = min(self._fast_max_batch, len(queue))
        ids = np.fromiter([popleft() for _ in range(count)], np.int64,
                          count)
        depth = len(queue)
        if server.metrics is not None:
            server.metrics.gauge("serve.queue_depth").set(depth)
        rows = self._rows
        if self._defer.full:
            # Fully deferred bookkeeping: the dispatch core never
            # touches per-request columns, so skip the gathers too.
            arrivals = deadlines = None
        else:
            arrivals = rows.arrivals[ids]
            deadlines = rows.deadlines[ids]
        self.host_free = server._dispatch_columns(
            ids, arrivals, deadlines, None,
            now, self.device_free, self.device_busy,
            self.device_swap, self.host_free, self.report,
            server.tracer, self._root, queue_depth=depth,
            defer=self._defer,
        )
        self._clock = now
        if not depth:
            self._due = math.inf
            return
        self._set_head(queue[0])
        self._reschedule_fast(
            now, (now, self._due_origin) if self._stamp is not None else None
        )

    # Run-ahead: no shared registry, routing blind to replica state ----

    def _reached(self, origin, index: int) -> bool:
        """Whether global arrival ``index`` began processing at or
        before ``origin``, the event that last re-keyed the dispatch.

        The scalar intake draws arrival *m*'s seq while arrival *m - 1*
        runs, so an arrival beats the dispatch at the same instant
        exactly when ``_reached(origin, m - 1)``.  An origin is an own
        arrival's (or the trace end's) global index, or ``(fired_s,
        parent)`` for a dispatch fired at ``fired_s``: an arrival
        precedes that firing if earlier, or as early with an older seq,
        which recurses one arrival back.
        """
        time_of = self._time_of
        while origin.__class__ is tuple:
            fired, origin = origin
            arrival = time_of(index)
            if arrival != fired:
                return arrival < fired
            index -= 1
        return index <= origin

    def _advance(self, limit: int, bound_s: float, bound_seq: int,
                 bound_index: int) -> None:
        """Run ahead to a window bound, with no engine traffic.

        Admits each routed row (``_pend_t``/``_pend_g``: arrival times
        and global indices) below global index ``limit``, inline, after
        the dispatches due before it; then fires the dispatches ordered
        before the bound — global arrival ``bound_index`` at
        ``bound_s``, or (``bound_index < 0``) the cluster-level event
        ``(bound_s, bound_seq)``, whose seq orders against the stamps.
        """
        pend_t = self._pend_t
        pend_g = self._pend_g
        k = self._pend_k
        count = len(pend_g)
        queue = self.queue
        append = queue.append
        server = self.server
        max_queue = server.max_queue
        max_batch = self._fast_max_batch
        estimates = self._fast_est
        tracer = server.tracer
        stamp = self._stamp
        inf = math.inf
        local = self._rows.count - (count - k)
        due = self._due
        seq = self._due_seq
        origin = self._due_origin
        head = self._head_base
        size = len(queue)
        last = -inf
        while k < count:
            index = pend_g[k]
            if index >= limit:
                break
            now = pend_t[k]
            if due <= now and (due < now
                               or not self._reached(origin, index - 1)):
                self._due, self._due_seq, self._due_origin = due, seq, origin
                self._on_dispatch_fast()
                due, seq, origin = self._due, self._due_seq, self._due_origin
                head = self._head_base
                size = len(queue)
                continue
            if size >= max_queue:
                self.report.dropped += 1
                if tracer is not None:
                    tracer.add("request", now, now, parent_id=self._root,
                               tags=("dropped",), request_id=local)
            else:
                if not size:
                    self._set_head(local)
                    head = self._head_base
                append(local)
                size += 1
            local += 1
            k += 1
            last = now
            # _reschedule_fast(now, index), inline.
            origin = index
            seq = stamp
            if size >= max_batch:
                due = now
            elif size:
                estimate = estimates[size]
                if estimate is None:
                    estimate = server.service_estimate(size)
                    estimates[size] = estimate
                due = head - estimate
                if due < now or (due == inf and self._source_done):
                    due = now
        self._pend_k = k
        self._due, self._due_seq, self._due_origin = due, seq, origin
        if last > self._clock:
            self._clock = last
        while due < bound_s or (due == bound_s and due != inf and (
                not self._reached(self._due_origin, bound_index - 1)
                if bound_index >= 0 else self._due_seq < bound_seq)):
            self._on_dispatch_fast()
            due = self._due

    def resolve_deferred(self) -> None:
        """Replay every deferred computation — the prediction gather
        and (in full mode) the latency bookkeeping — in one vectorized
        pass.  Call after the engine drains, before :meth:`finalize`
        (the makespan reads the latency column); a no-op in scalar
        mode."""
        if self._defer is not None:
            self._defer.resolve(self._rows, self.report)

    # ------------------------------------------------------------------
    # Elastic capacity (the autoscaler's knobs)
    # ------------------------------------------------------------------

    def add_device(self) -> int:
        """Attach one device, load the current model set onto it, and
        extend the accounting arrays; returns the pool index.

        The device becomes dispatchable once its model load completes
        (``device_free`` starts at now + load), mirroring a real
        attach-then-deploy.  Provisioning lead time is the autoscaler's
        to charge — it schedules the add event in the future.
        """
        server = self.server
        pool = server.pool
        index = pool.add_device()
        load = pool.reload(index, server._compiled)
        if server._tiers is not None:
            for tier in server._tiers[1:]:
                load = max(load,
                           pool.devices[index].load_resident(tier.compiled))
        now = self.engine.now
        self.device_free.append(now + load)
        self.device_busy.append(0.0)
        self.device_swap.append(0.0)
        self.online_spans.append([now, None])
        return index

    def retire_device(self, index: int) -> None:
        """Take device ``index`` out of service and close its online
        span.  In-flight work finishes; no new batches land on it."""
        self.server.pool.retire(index)
        span = self.online_spans[index]
        if span[1] is None:
            span[1] = self.engine.now

    def device_seconds(self, until_s: float) -> float:
        """Total device-online seconds through ``until_s`` — the
        provisioning bill the autoscaler benchmark compares against
        static fleets."""
        total = 0.0
        for start, end in self.online_spans:
            total += (until_s if end is None else end) - start
        return total

    @property
    def queue_depth(self) -> int:
        """Current admission-queue depth (an autoscaler signal)."""
        return len(self.queue)

    # ------------------------------------------------------------------
    # Finalization
    # ------------------------------------------------------------------

    def finalize(self) -> ServeReport:
        """The old loop's epilogue; call once, after the engine drains."""
        if self._finalized:
            raise RuntimeError("replica already finalized")
        self._finalized = True
        server = self.server
        report = self.report
        now = self.engine.now
        if self._rows is not None:
            self._rows.trim()
            arrivals = self._rows.arrivals
        else:
            arrivals = np.array(
                [r.arrival_s for r in self._exact_requests]
            )
        report.served = report.num_requests - report.dropped
        if report.served:
            report.makespan_s = float(
                np.nanmax(report.latencies + arrivals)
            )
        else:
            # Every request dropped (e.g. ``max_queue=0``) or an empty
            # trace: the latency vector is all-NaN, so nanmax would
            # warn and return NaN — the makespan is just the virtual
            # clock at the last event.
            report.makespan_s = float(now)
        report.device_busy_seconds = [float(b) for b in self.device_busy]
        report.device_swap_seconds = [float(s) for s in self.device_swap]
        report.device_idle_seconds = [
            max(0.0, report.makespan_s - b - s)
            for b, s in zip(self.device_busy, self.device_swap)
        ]
        report.device_energy_j = [
            device.energy_joules() for device in server.pool.devices
        ]
        report.failed_devices = sorted(server.pool.failed)
        if server.swapper is not None:
            report.swap_records = list(server.swapper.records)
        tracer = server.tracer
        if tracer is not None:
            tracer.finish(self._root, report.makespan_s)
            tracer.advance(report.makespan_s)
            report.trace = tracer if tracer.enabled else None
        metrics = server.metrics
        if metrics is not None:
            metrics.counter("serve.batches").inc(report.num_batches)
            metrics.counter("serve.retries").inc(report.retried_batches)
            metrics.counter("serve.fallbacks").inc(
                report.fallback_batches
            )
            metrics.counter("serve.deadline_misses").inc(
                report.deadline_misses
            )
        if server.profiler is not None:
            server.profiler.charge("inference", report.makespan_s)
        return report

    # Cluster-report accessors (valid after finalize) -------------------

    @property
    def arrivals(self) -> np.ndarray:
        """Per-request arrival times (streamed/routed traces only)."""
        if self._rows is None:
            raise RuntimeError("exact traces keep arrivals on the list")
        return self._rows.arrivals

    @property
    def deadlines(self) -> np.ndarray:
        """Per-request absolute deadlines (streamed/routed only)."""
        if self._rows is None:
            raise RuntimeError("exact traces keep deadlines on the list")
        return self._rows.deadlines

    @property
    def tenants(self) -> np.ndarray:
        """Per-request tenant ids, ``-1`` for none (streamed/routed)."""
        if self._rows is None:
            raise RuntimeError("exact traces carry no tenant column")
        return self._rows.tenants

"""The cluster simulation fast path: chunked intake, replica-local time.

Per-request Python, not the modeled kernels, bounds a 10⁶-request
cluster run.  This module amortizes it into per-chunk numpy work and
per-replica loops, leaving every modeled time, report column and
prediction byte-identical to the scalar event-per-arrival intake (the
contract ``tests/cluster/test_equivalence.py`` pins):

- :class:`FastArrivalPump` pulls merged
  :class:`~repro.cluster.traffic.TrafficChunk` columns, routes each
  chunk in one :meth:`~repro.cluster.router.Router.route_chunk` call
  and lands every replica's rows as columns, predicted on arrival once
  per tier model (:meth:`FastArrivalPump._predict`): modeled latency
  depends only on row counts, and the int8 chain is exact per row.
- Each replica owns its pending dispatch as a ``(time, seq)`` key,
  re-keyed where the scalar intake cancels and reinserts its dispatch
  event, so the engine heap carries only cluster-level events
  (autoscaler ticks, device-online commits).
- **Run-ahead**, with no shared metrics registry and routing blind to
  replica state (every policy but ``least_queue``): replicas are
  independent between cluster-level events, so each advances through
  its routed rows to the next one in one loop (``Replica._advance``):
  admissions inline, the dispatch core once per batch, no engine
  traffic.  Only a replica's own events can tie inside a window, and
  ``Replica._reached`` orders them as the scalar intake's seqs do.
- **Merged order**, for ``least_queue`` (each row picks its replica at
  its arrival) or a registry (which sees writes in global order): one
  loop takes the earliest key among the next arrival, the replicas'
  dispatches and the next cluster-level event, every seq drawn where
  the scalar intake draws it.
- :class:`DeferredPredictions` gathers each served row's prediction by
  its serving tier after the simulation and, when nothing observes
  per-request state mid-run, replays the latency bookkeeping there.

Every policy runs this pump, traced replicas included; the scalar
intake survives as the oracle tests force through
:meth:`Cluster._takes_pump <repro.cluster.cluster.Cluster._takes_pump>`.
"""
from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING

import numpy as np

from repro.runtime.plan import ModelPlan, fit_plan

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import Cluster
    from repro.cluster.replica import Replica, _Rows
    from repro.cluster.traffic import MultiTenantTraffic
    from repro.serving.server import ServeReport

__all__ = ["DeferredPredictions", "FastArrivalPump"]

# Rows per prediction slice: every plan's arena is built at this size
# once and reused for every routed block (larger blocks run in slices).
_PREDICT_ROWS = 4096


class DeferredPredictions:
    """Per-replica sink for the fast path's post-simulation epilogue.

    Args:
        full: Also defer the per-batch latency bookkeeping (scatter,
            histogram ingest, deadline misses).  Only sound when
            nothing reads per-request report state mid-run — the
            cluster enables it exactly when there is no autoscaler, no
            metrics registry, no tier ladder and no replica tracer.
    """

    def __init__(self, full: bool = False):
        self.full = full
        # Dispatch-order (ids, completion) pairs, full mode only.
        self._book_ids: list[np.ndarray] = []
        self._book_completions: list[float] = []

    def book(self, ids: np.ndarray, completion: float) -> None:
        """Full mode: record one batch's completion for the deferred
        latency bookkeeping (called once per dispatched batch, in
        dispatch order)."""
        self._book_ids.append(ids)
        self._book_completions.append(completion)

    def resolve(self, rows: "_Rows", report: "ServeReport") -> None:
        """Run every deferred computation against the report.

        In full mode the latency bookkeeping replays first, in dispatch
        order: one subtract, one scatter, one histogram extend and one
        miss count, elementwise-identical to the per-batch epilogue.
        Then every served row (finite latency) takes its serving tier's
        prediction in one gather; drops keep their ``-1``.
        """
        if self._book_ids:
            ids = (self._book_ids[0] if len(self._book_ids) == 1
                   else np.concatenate(self._book_ids))
            sizes = np.fromiter(
                (len(block) for block in self._book_ids),
                dtype=np.int64, count=len(self._book_ids),
            )
            completions = np.repeat(
                np.array(self._book_completions), sizes
            )
            latencies = completions - rows.arrivals[ids]
            report.latencies[ids] = latencies
            report.latency.record_many(latencies)
            report.deadline_misses += int(
                np.count_nonzero(rows.deadlines[ids] < completions)
            )
            self._book_ids.clear()
            self._book_completions.clear()
        if rows.predicted is None:  # no row was ever routed here
            return
        served = np.flatnonzero(~np.isnan(report.latencies[:rows.count]))
        tiers = (report.request_tiers[served]
                 if report.request_tiers is not None else 0)
        report.predictions[served] = rows.predicted[served, tiers]


class FastArrivalPump:
    """Chunked traffic → batched routing → replica-local time.

    Runs ahead (:meth:`_run_ahead`) or in merged order
    (:meth:`_run_merged`), see the module docstring; either way it
    counts the arrivals, batches and cluster-level events it processes
    against ``max_events``, as :meth:`EventEngine.run` counts events.
    """

    def __init__(self, cluster: "Cluster",
                 traffic: "MultiTenantTraffic"):
        self.cluster = cluster
        self.engine = cluster.engine
        self.router = cluster.router
        self.replicas = cluster.replicas
        self.total = traffic.total_requests
        # One arena per distinct model, shared by the replicas serving
        # it (keyed by identity; the plan pins the model).
        self._plans: dict[int, ModelPlan] = {}
        self._chunks = traffic.chunks()
        self._route_one = (self.router.route_least_queue
                           if self.router.policy == "least_queue" else None)
        self.merged = (self._route_one is not None
                       or cluster.metrics is not None)
        # Arrivals whose processing began, the next one's seq (drawn
        # while its predecessor ran; the first before the autoscaler's
        # first tick, as the scalar intake schedules it), and
        # cluster-level events fired.
        self._next = 0
        self._next_seq = self.engine.draw_seq()
        self._fired = 0
        # Run-ahead: the loaded chunks' first indices and arrival
        # times, kept while a tie walk may read them (see _load).
        self._bases: list[int] = []
        self._times: list[np.ndarray] = []
        self._exhausted = False
        if not self.merged:
            for replica in self.replicas:
                replica._time_of = self.time_of

    def run(self, max_events: int | None) -> None:
        """Serve the whole trace; the engine clock ends at the last
        event, as :meth:`EventEngine.run` leaves it."""
        if self.merged:
            self._run_merged(max_events)
        else:
            self._run_ahead(max_events)
        engine = self.engine
        engine.now = max(engine.now,
                         max(replica._clock for replica in self.replicas))
        self._check_budget(max_events)

    def _check_budget(self, max_events: int | None) -> None:
        if max_events is None:
            return
        events = (self._next + self._fired
                  + sum(r.report.num_batches for r in self.replicas))
        if events > max_events:
            raise RuntimeError(
                f"event budget exhausted: {events} events processed "
                f"(max_events={max_events})"
            )

    def _predict(self, replica: "Replica",
                 features: np.ndarray) -> np.ndarray:
        """``(rows, tiers)`` predictions of one routed block: column
        *k* is tier *k*'s model (the primary, then each shed-to tier)
        on every row, so whichever tier serves a row later, its
        prediction is already here."""
        server = replica.server
        models = [server._compiled]
        if server._tiers is not None:
            models += [tier.compiled for tier in server._tiers[1:]]
        predicted = np.empty((len(features), len(models)), dtype=np.int64)
        for column, compiled in enumerate(models):
            plan = fit_plan(self._plans, compiled, _PREDICT_ROWS)
            for start in range(0, len(features), _PREDICT_ROWS):
                part = slice(start, start + _PREDICT_ROWS)
                predicted[part, column] = plan.predict(features[part])
        return predicted

    def _route(self, chunk) -> tuple[np.ndarray, np.ndarray]:
        """Route one chunk and land each replica's predicted rows (and,
        running ahead, their times and global indices); returns each
        row's replica and replica-local id."""
        indices = self.router.route_chunk(chunk.tenants)
        local = np.empty(len(indices), dtype=np.int64)
        for index, replica in enumerate(self.replicas):
            positions = np.flatnonzero(indices == index)
            if not len(positions):
                continue
            times = chunk.times[positions]
            base = replica._rows.bulk_append(
                times, chunk.deadlines[positions],
                chunk.tenants[positions], chunk.labels[positions],
                self._predict(replica, chunk.features[positions]),
            )
            local[positions] = base + np.arange(len(positions))
            if not self.merged:
                admitted = replica._pend_k
                replica._pend_k = 0
                replica._pend_t = replica._pend_t[admitted:] + times.tolist()
                replica._pend_g = (replica._pend_g[admitted:]
                                   + (positions + chunk.base_id).tolist())
        return indices, local

    # ------------------------------------------------------------------
    # Run-ahead
    # ------------------------------------------------------------------

    def time_of(self, index: int) -> float:
        """Arrival time of global arrival ``index`` (``-inf`` before
        the first)."""
        if index < 0:
            return -math.inf
        chunk = bisect.bisect_right(self._bases, index) - 1
        return float(self._times[chunk][index - self._bases[chunk]])

    def _load(self) -> None:
        chunk = next(self._chunks, None)
        if chunk is None:
            self._exhausted = True
            return
        # Free the chunks no tie walk can reach (see Replica._reached):
        # a walk reads arrival i >= _next - 1, or an older i only when
        # arrival i + 1 ties a firing after its chain's root, an own
        # arrival no older than that replica's queue head.
        keep_s = min((float(replica._rows.arrivals[replica.queue[0]])
                      for replica in self.replicas if replica.queue),
                     default=self.time_of(self._next - 1))
        bases, times = self._bases, self._times
        while len(bases) > 1 and times[1][0] < keep_s:
            del bases[0], times[0]
        bases.append(chunk.base_id)
        times.append(chunk.times)
        self._route(chunk)

    def _arrivals_before(self, time_s: float, seq: int) -> int:
        """Global arrivals ordered before the cluster event ``(time_s,
        seq)``: every earlier one, and the next one at ``time_s`` if its
        seq is older (a later one's is drawn in this window).  They lie
        in the next arrival's chunk: the window's arrival bound is the
        next chunk's first row, or the last arrival."""
        index = self._next
        if index == self.total:
            return index
        first = self.time_of(index)
        if first >= time_s:
            return index + (first == time_s and self._next_seq < seq)
        chunk = bisect.bisect_right(self._bases, index) - 1
        return self._bases[chunk] + int(np.searchsorted(
            self._times[chunk], time_s, side="left"))

    def _run_ahead(self, max_events: int | None) -> None:
        """Advance every replica window by window.

        A window ends at the earlier of the next cluster-level event and
        an arrival bound: the newest loaded chunk's first row (a later
        row may precede a dispatch), or the last arrival, whose
        processing arms every replica's flush rule.  Every re-key inside
        a window happens between the same two cluster-level events, so
        one stamp, drawn from the engine, orders them all against those.
        """
        engine = self.engine
        replicas = self.replicas
        last = self.total - 1
        self._load()
        while True:
            top = engine.peek()
            stamp = engine.draw_seq()
            for replica in replicas:
                replica._stamp = stamp
            start = self._next
            if start > last and top is None:
                for replica in replicas:
                    replica._advance(start, math.inf, 0, -1)
                return
            by_arrival = False
            if start <= last:
                while not self._exhausted and self._bases[-1] <= start:
                    self._load()
                bound = last if self._exhausted else self._bases[-1]
                bound_s = self.time_of(bound)
                # The last arrival, next up at a cluster-level event's
                # instant, goes first if its predecessor ran before
                # that event's seq was drawn.
                by_arrival = top is None or bound_s < top[0] or (
                    bound_s == top[0] and bound == start
                    and self._next_seq < top[1])
            if by_arrival:
                limit, window = bound, (bound_s, 0, bound)
            else:
                limit, window = self._arrivals_before(*top), (*top, -1)
            for replica in replicas:
                replica._advance(limit, *window)
            if limit > start:
                self._next_seq = stamp
            self._next = limit
            if not by_arrival:
                engine.step()
                self._fired += 1
            elif bound == last and self._exhausted:
                self.cluster._traffic_done = True
                for replica in replicas:
                    replica.end_of_trace(bound_s, last)
                self._next = last + 1
            self._check_budget(max_events)

    # ------------------------------------------------------------------
    # Merged order
    # ------------------------------------------------------------------

    def _columns(self, chunk) -> tuple:
        """One chunk's rows as lists: each row's replica and local id,
        or, under ``least_queue``, what :meth:`_Rows.append_row` takes
        when the row is routed at its arrival."""
        if self._route_one is None:
            return tuple(column.tolist() for column in self._route(chunk))
        # A least_queue cluster is never placed: every replica serves
        # the same model and tier ladder, so one prediction pass covers
        # the chunk wherever its rows land.
        return (chunk.deadlines.tolist(), chunk.tenants.tolist(),
                chunk.labels.tolist(),
                self._predict(self.replicas[0], chunk.features))

    def _run_merged(self, max_events: int | None) -> None:
        """One event at a time: the earliest ``(time, seq)`` key among
        the next arrival, the replicas' dispatches and the next
        cluster-level event."""
        engine = self.engine
        cluster = self.cluster
        replicas = self.replicas
        metrics = cluster.metrics
        route_one = self._route_one
        inf = math.inf
        top = engine.peek()
        chunk = next(self._chunks)
        columns = self._columns(chunk)
        times = chunk.times.tolist()
        row = 0
        arrival_s = times[0]
        arrival_seq = self._next_seq
        while True:
            first = None
            due, due_seq = arrival_s, arrival_seq
            for replica in replicas:
                when = replica._due
                if when < due or (when == due and when != inf
                                  and replica._due_seq < due_seq):
                    first = replica
                    due, due_seq = when, replica._due_seq
            if top is not None and (top[0] < due or (
                    top[0] == due and top[1] < due_seq)):
                engine.step()
                self._fired += 1
                top = engine.peek()
                self._check_budget(max_events)
            elif first is not None:
                first._on_dispatch_fast()
            elif arrival_s == inf:
                return
            else:
                # The scalar intake's arrival event: the next arrival's
                # seq (or the trace end), the route, the submit.
                index = self._next
                now = arrival_s
                if route_one is None:
                    target = columns[0][row]
                    local = columns[1][row]
                else:
                    target = route_one()
                    local = replicas[target]._rows.append_row(
                        now, columns[0][row], columns[1][row],
                        columns[2][row], columns[3][row])
                self._next = index + 1
                row += 1
                if self._next == self.total:
                    cluster._traffic_done = True
                    for replica in replicas:
                        replica.end_of_trace(now, index)
                    arrival_s = inf
                else:
                    arrival_seq = engine.draw_seq()
                    if row == len(times):
                        chunk = next(self._chunks)
                        columns = self._columns(chunk)
                        times = chunk.times.tolist()
                        row = 0
                        self._check_budget(max_events)
                    arrival_s = times[row]
                if metrics is not None:
                    metrics.counter("cluster.routed").inc()
                replicas[target]._submit_fast(local, now, index)

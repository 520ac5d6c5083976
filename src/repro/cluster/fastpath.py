"""The cluster simulation fast path: chunked intake, deferred math.

After PR 8 the 10⁶-request cluster bench was bound by per-request
Python, not by the modeled kernels: every arrival cost a traffic heap
pop, a `Request` allocation, a router pick, a per-field row append and
a cancel-and-reinsert of the batch dispatch.  This module amortizes
all of it into per-chunk numpy work while leaving every modeled time,
report column and prediction byte-identical to the scalar path (the
contract ``tests/cluster/test_equivalence.py`` pins):

- :class:`FastArrivalPump` pulls merged
  :class:`~repro.cluster.traffic.TrafficChunk` columns, routes each
  chunk in one :meth:`~repro.cluster.router.Router.route_chunk` call,
  bulk-appends every replica's rows
  (:meth:`~repro.cluster.replica._Rows.bulk_append`) and then
  *macro-steps* the engine: consecutive arrivals are processed inline
  — advancing the virtual clock directly — for as long as no other
  pending event would fire first, so the common steady state (arrival
  after arrival with the batch dispatch elided) costs no heap traffic
  at all.  The hand-off rules below make the fired-event order
  provably identical to the scalar one-event-per-arrival pump.
- ``least_queue`` routes on queue depths that every pick changes, so
  it has no chunk form: the pump predicts its chunk without routing
  it, and :meth:`FastArrivalPump._on_run` picks each row's replica
  (:meth:`~repro.cluster.router.Router.route_least_queue`) when the
  row's arrival is processed — after every earlier event, where the
  scalar intake routes — then appends the row
  (:meth:`~repro.cluster.replica._Rows.append_row`) and submits it
  with a ``nan`` lookahead.  The next arrival to that replica is not
  known yet, so its dispatch is never elided: every submit cancels and
  reinserts it, as the scalar intake does.
- The pump predicts each routed block on arrival at its replica, once
  per tier model (:meth:`FastArrivalPump._predict`), and the replica
  keeps those int64 predictions instead of the feature rows — sound
  because modeled latency depends only on row counts and the int8
  chain is exact per row.  :class:`DeferredPredictions` gathers each
  served row's prediction by its serving tier after the simulation
  and, when nothing observes per-request state mid-run
  (:attr:`~DeferredPredictions.full`), replays the per-batch latency
  bookkeeping there too.

Macro-stepping equivalence.  The scalar pump schedules exactly one
arrival event ahead; at arrival *k* it (1) schedules arrival *k+1*
(sequence number ``mark``), then (2) submits *k*, whose dispatch
reschedule allocates newer sequence numbers.  The pump therefore
processes arrival *k+1* inline — without scheduling it — exactly when
the earliest pending event either fires strictly after *k+1*'s
(clamped) time, or ties it with a sequence number ``>= mark`` (i.e. it
was inserted during submit *k*, and the arrival's older ``mark`` would
have beaten it anyway).  Otherwise it yields: arrival *k+1* becomes a
real event, and if submit *k*'s own dispatch landed on the same
instant it is cancel-and-reinserted after the arrival, restoring the
exact ``older-events < arrival < dispatch`` tie order the scalar pump
produces.

Every router policy runs this pump, traced replicas included; the
scalar pump survives only as the oracle tests force through
:meth:`Cluster._takes_pump <repro.cluster.cluster.Cluster._takes_pump>`.
"""

from __future__ import annotations

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
    """Chunked traffic → batched routing → macro-stepped arrivals.

    One chunk at a time: route the whole chunk, predict and
    bulk-append each replica's rows, precompute per-row scalars
    (arrival time, replica, local id, next-arrival-to-the-same-replica
    lookahead), then drive the clock through :meth:`_on_run` — inline
    while nothing else is due, one scheduled event whenever a dispatch
    or autoscaler tick must interleave (see the module docstring for
    the exact hand-off rules).
    """

    def __init__(self, cluster: "Cluster",
                 traffic: "MultiTenantTraffic"):
        self.cluster = cluster
        self.engine = cluster.engine
        self.router = cluster.router
        self.replicas = cluster.replicas
        # One arena per distinct model, shared by the replicas serving
        # it (keyed by identity; the plan pins the model).
        self._plans: dict[int, ModelPlan] = {}
        self._chunks = traffic.chunks()
        # least_queue routes on live queue depths, so each row picks
        # its replica when its arrival is processed, not when its chunk
        # lands.
        self._route_one = (self.router.route_least_queue
                           if self.router.policy == "least_queue" else None)
        self._times: list[float] = []
        # Routed at chunk time: each row's replica, local id and the
        # next arrival to the same replica.
        self._replica_of: list[int] = []
        self._local: list[int] = []
        self._next_same: list[float] = []
        # Routed per arrival: the chunk's own columns.
        self._deadlines: list[float] = []
        self._tenants: list[int] = []
        self._labels: list[int] = []
        self._predicted: np.ndarray | None = None
        self._row = 0
        self._size = 0

    def start(self) -> None:
        """Schedule the first arrival (or finish an empty trace)."""
        chunk = next(self._chunks, None)
        if chunk is None:  # pragma: no cover - total_requests >= 1
            self.cluster._traffic_done = True
            for replica in self.replicas:
                replica.end_of_trace()
            return
        self._prepare(chunk)
        engine = self.engine
        time_s = self._times[0]
        engine.at(time_s if time_s > engine.now else engine.now,
                  self._on_run)

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

    def _prepare(self, chunk) -> None:
        """Route one chunk and land its predicted rows on the
        replicas — or, under ``least_queue``, predict the chunk and
        keep its columns for :meth:`_on_run` to route row by row."""
        times = chunk.times
        count = len(times)
        self._times = times.tolist()
        self._row = 0
        self._size = count
        if self._route_one is not None:
            # A least_queue cluster is never placed: every replica
            # serves the same model and tier ladder, so one prediction
            # pass covers the chunk wherever its rows land.
            self._deadlines = chunk.deadlines.tolist()
            self._tenants = chunk.tenants.tolist()
            self._labels = chunk.labels.tolist()
            self._predicted = self._predict(self.replicas[0],
                                            chunk.features)
            return
        indices = self.router.route_chunk(chunk.tenants)
        local = np.empty(count, dtype=np.int64)
        # nan = "no known next arrival to this replica in the chunk":
        # any comparison is false, so elision stays off across chunk
        # boundaries (~1 conservative dispatch per replica per chunk).
        next_same = np.full(count, math.nan)
        for index, replica in enumerate(self.replicas):
            positions = np.nonzero(indices == index)[0]
            routed = len(positions)
            if routed == 0:
                continue
            base = replica._rows.bulk_append(
                times[positions], chunk.deadlines[positions],
                chunk.tenants[positions], chunk.labels[positions],
                self._predict(replica, chunk.features[positions]),
            )
            local[positions] = base + np.arange(routed)
            if routed > 1:
                next_same[positions[:-1]] = times[positions[1:]]
        self._replica_of = indices.tolist()
        self._local = local.tolist()
        self._next_same = next_same.tolist()

    def _on_run(self) -> None:
        """Process arrivals from ``self._row`` on, inline while safe.

        Invariant on entry (and on every loop iteration): the engine
        clock stands at the current arrival's clamped time — either
        because this event was scheduled there, or because the previous
        iteration advanced the clock inline.
        """
        engine = self.engine
        cluster = self.cluster
        replicas = self.replicas
        metrics = cluster.metrics
        peek = engine.peek
        route_one = self._route_one
        times = self._times
        replica_of = self._replica_of
        local = self._local
        next_same = self._next_same
        deadlines = self._deadlines
        tenants = self._tenants
        labels = self._labels
        predicted = self._predicted
        size = self._size
        while True:
            row = self._row
            if route_one is None:
                index = replica_of[row]
                local_id = local[row]
                lookahead = next_same[row]
            else:
                # Every earlier event has fired, as at the scalar
                # intake's route call; the replica's next arrival is
                # unknown, so its dispatch is never elided.
                index = route_one()
                local_id = replicas[index]._rows.append_row(
                    times[row], deadlines[row], tenants[row],
                    labels[row], predicted[row],
                )
                lookahead = math.nan
            # --- the scalar pump's _advance: establish the next
            # arrival (pulling a chunk as needed) or end the trace,
            # *before* submitting the current one ---
            nrow = row + 1
            if nrow == size:
                chunk = next(self._chunks, None)
                if chunk is None:
                    cluster._traffic_done = True
                    for replica in replicas:
                        replica.end_of_trace()
                    if metrics is not None:
                        metrics.counter("cluster.routed").inc()
                    replicas[index]._submit_fast(local_id, lookahead)
                    return
                self._prepare(chunk)
                times = self._times
                replica_of = self._replica_of
                local = self._local
                next_same = self._next_same
                deadlines = self._deadlines
                tenants = self._tenants
                labels = self._labels
                predicted = self._predicted
                size = self._size
                nrow = 0
            t_next = times[nrow]
            # The sequence number the scalar pump's arrival event would
            # carry: anything scheduled from here on (the submit's
            # dispatch reschedule) is newer and loses ties to it.
            mark = engine._seq
            # --- submit the current arrival ---
            if metrics is not None:
                metrics.counter("cluster.routed").inc()
            replica = replicas[index]
            replica._submit_fast(local_id, lookahead)
            # --- macro-step or yield ---
            now = engine.now
            t_eff = t_next if t_next > now else now
            bound = peek()
            if (bound is None or bound[0] > t_eff
                    or (bound[0] == t_eff and bound[1] >= mark)):
                # Nothing fires before the next arrival (ties only
                # against events this submit just scheduled, which the
                # arrival's older mark would beat): take it inline.
                engine.now = t_eff
                self._row = nrow
                continue
            # An event from before this submit is due first: yield.
            self._row = nrow
            engine.at(t_eff, self._on_run)
            dispatch = replica._dispatch_event
            if (dispatch is not None and dispatch.time_s == t_eff
                    and dispatch.seq > mark):
                # Submit's own dispatch tied the arrival instant; its
                # sequence is now older than the just-scheduled arrival
                # event, inverting the scalar order.  Reinsert it after.
                engine.cancel(dispatch)
                replica._dispatch_event = engine.at(
                    t_eff, replica._on_dispatch_fast
                )
            return

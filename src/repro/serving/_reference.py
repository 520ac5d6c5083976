"""The pre-engine serving loop, frozen verbatim as an equivalence oracle.

This is the ``InferenceServer.serve`` event loop exactly as it shipped
before the discrete-event refactor (PR 8): materialized arrival list,
alternate next-arrival vs. batch-ready, always take the earlier event
with arrivals winning ties.  It exists only so tests can assert that
single-server serving on the :class:`~repro.cluster.engine.EventEngine`
reproduces this loop's :class:`~repro.serving.server.ServeReport`
byte-for-byte — the same role the frozen ``run_reference`` kernels play
for the int8 fast path.

Do not "improve" this file: its value is that it does not change.  Its
one edit since: the dispatch path predicts in blocks, so the loop hands
it a :class:`~repro.serving.server.PredictionBlocks` sink and flushes
that at its end.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np

from repro.runtime.profiler import LatencyTracker
from repro.serving.arrivals import Request

__all__ = ["serve_reference"]


def serve_reference(server, requests: list[Request]):
    """Run ``server`` over ``requests`` with the pre-refactor loop.

    Mutates ``server`` exactly as ``InferenceServer.serve`` does (hot
    swaps commit, failures trip, caches fill), so comparisons must
    build a fresh server per run.
    """
    from repro.serving.server import PredictionBlocks, ServeReport

    num_requests = len(requests)
    report = ServeReport(num_requests=num_requests)
    report.predictions = np.full(num_requests, -1, dtype=np.int64)
    report.latencies = np.full(num_requests, np.nan)
    if num_requests and requests[0].label is not None:
        report.labels = np.array(
            [r.label for r in requests], dtype=np.int64
        )
    for left, right in zip(requests, requests[1:]):
        if right.arrival_s < left.arrival_s:
            raise ValueError("requests must be in arrival order")

    tracer = server.tracer
    metrics = server.metrics
    root = (tracer.add("serve", 0.0, 0.0, requests=num_requests,
                       devices=server.pool.num_devices)
            if tracer is not None else None)
    server._active_tier = 0
    if server._tiers is not None:
        report.tier_names = [t.name for t in server._tiers]
        report.tier_batches = [0] * len(server._tiers)
        report.tier_served = [0] * len(server._tiers)
        report.tier_build_accuracy = [t.build_accuracy
                                      for t in server._tiers]
        report.request_tiers = np.full(num_requests, -1,
                                       dtype=np.int64)
        report.tier_latency = [LatencyTracker()
                               for _ in server._tiers]
        if metrics is not None:
            metrics.gauge("serve.tier_active").set(0)
    blocks = PredictionBlocks(server, report)
    queue: deque[Request] = deque()
    device_free = [0.0] * server.pool.num_devices
    device_busy = [0.0] * server.pool.num_devices
    device_swap = [0.0] * server.pool.num_devices
    host_free = 0.0
    now = 0.0
    index = 0

    while index < num_requests or queue:
        next_arrival = (requests[index].arrival_s
                        if index < num_requests else math.inf)
        ready = server.batcher.ready_at(queue, now,
                                        server.service_estimate)
        if math.isinf(ready) and index >= num_requests and queue:
            # Trace over, policy would wait forever: flush.
            ready = now
        if next_arrival <= ready:
            now = max(now, next_arrival)
            request = requests[index]
            if metrics is not None:
                metrics.counter("serve.requests").inc()
            if len(queue) >= server.max_queue:
                report.dropped += 1
                if tracer is not None:
                    # Zero-duration marker: the request arrived and
                    # was rejected at the same virtual instant.
                    tracer.add("request", request.arrival_s,
                               request.arrival_s, parent_id=root,
                               tags=("dropped",),
                               request_id=request.request_id)
                if metrics is not None:
                    metrics.counter("serve.dropped").inc()
            else:
                queue.append(request)
            if metrics is not None:
                metrics.gauge("serve.queue_depth").set(len(queue))
            index += 1
            continue
        now = max(now, ready)
        batch = [queue.popleft()
                 for _ in range(min(server.batcher.max_batch,
                                    len(queue)))]
        if metrics is not None:
            metrics.gauge("serve.queue_depth").set(len(queue))
        host_free = server._dispatch_batch(
            batch, now, device_free, device_busy, device_swap,
            host_free, report, tracer, root,
            queue_depth=len(queue), defer=blocks,
        )

    blocks.flush()
    report.served = num_requests - report.dropped
    if report.served:
        report.makespan_s = float(
            np.nanmax(report.latencies
                      + np.array([r.arrival_s for r in requests]))
        )
    else:
        # Every request dropped (e.g. ``max_queue=0``) or an empty
        # trace: the latency vector is all-NaN, so nanmax would
        # warn and return NaN — the makespan is just the virtual
        # clock at the last event.
        report.makespan_s = float(now)
    report.device_busy_seconds = [float(b) for b in device_busy]
    report.device_swap_seconds = [float(s) for s in device_swap]
    report.device_idle_seconds = [
        max(0.0, report.makespan_s - b - s)
        for b, s in zip(device_busy, device_swap)
    ]
    report.device_energy_j = [
        device.energy_joules() for device in server.pool.devices
    ]
    report.failed_devices = sorted(server.pool.failed)
    if server.swapper is not None:
        report.swap_records = list(server.swapper.records)
    if tracer is not None:
        tracer.finish(root, report.makespan_s)
        tracer.advance(report.makespan_s)
        report.trace = tracer if tracer.enabled else None
    if metrics is not None:
        metrics.counter("serve.batches").inc(report.num_batches)
        metrics.counter("serve.retries").inc(report.retried_batches)
        metrics.counter("serve.fallbacks").inc(report.fallback_batches)
        metrics.counter("serve.deadline_misses").inc(
            report.deadline_misses
        )
    if server.profiler is not None:
        server.profiler.charge("inference", report.makespan_s)
    return report

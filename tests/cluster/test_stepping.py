"""Batch stepping against the per-row run-ahead loop.

Where a run-ahead replica's queue is empty, it admits and dispatches
the longest run of regular size-triggered groups in one step
(``Replica._step_groups``).  Each generated cluster below runs twice:
as built, and with the step finder patched to find nothing, so every
row takes the per-row loop.  The two runs must agree byte for byte:
predictions, latencies, batch splits, device seconds, latency-tracker
order, summary JSON, spans and the metrics summary.
"""

import json
import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AutoscalerConfig,
    Cluster,
    ClusterConfig,
    TenantSpec,
)
from repro.cluster import traffic
from repro.cluster.replica import Replica
from repro.config import BackendSpec, FleetSpec, ServeConfig
from repro.edgetpu.multidevice import FailurePlan
from repro.observability.metrics import MetricsRegistry
from repro.runtime.placement import PlacementOptimizer
from repro.serving import ArrivalProcess

from tests.cluster.conftest import TENANT_MIX, build_tier_ladder
from tests.cluster.test_equivalence import _assert_cluster_reports_identical

# Arrival gaps as drawn, or rounded to a 50 µs grid (839·2⁻²⁴ s, whose
# sums stay exact) or a 1 ms grid (2⁻¹⁰ s), where arrivals, dispatches
# and ticks tie.
GRIDS = (None, 839 / 2 ** 24, 2 ** -10)


@pytest.fixture(scope="module")
def tier_ladder():
    return build_tier_ladder()


def _tenants(load: float) -> tuple:
    return tuple(TenantSpec(spec.name, rate_hz=spec.rate_hz * load,
                            deadline_s=spec.deadline_s, kind=spec.kind)
                 for spec in TENANT_MIX)


@st.composite
def runs(draw):
    """One run-ahead cluster: its keyword arguments and the traffic's
    gap grid, chunk size and failure plans."""
    policy = draw(st.sampled_from(
        ["round_robin", "tenant_affinity", "placed"]))
    grid = draw(st.sampled_from(GRIDS))
    # 0.05x is low load (deadline triggers and timeouts close most
    # batches); 20x fills them by size.
    load = draw(st.sampled_from([0.05, 1.0, 5.0, 20.0]))
    max_batch = draw(st.integers(1, 8))
    # max_queue < max_batch included: stepping declines those replicas.
    max_queue = draw(st.sampled_from(
        [max(max_batch - 1, 0), max_batch, 4 * max_batch, 50_000]))
    if draw(st.booleans()):
        serve = ServeConfig(max_batch=max_batch, max_queue=max_queue,
                            slack_s=draw(st.sampled_from([0.0, 0.002])))
    else:
        # Timeouts on the gap grid expire exactly at later arrivals.
        timeouts = ([grid * steps for steps in (1, 2, 3, 8)]
                    if grid is not None else [0.004])
        serve = ServeConfig(batcher="fixed", max_batch=max_batch,
                            max_queue=max_queue,
                            timeout_s=draw(st.sampled_from(
                                timeouts + [math.inf])))
    tiered = policy != "placed" and draw(st.booleans())
    tracing = draw(st.booleans())
    kwargs = dict(
        policy=policy, tenants=_tenants(load),
        total_requests=draw(st.integers(50, 1200)),
        num_replicas=draw(st.integers(1, 3)),
        devices_per_replica=draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 3)),
        serve=replace(serve, tracing=tracing),
        max_events=1_000_000,
    )
    if draw(st.booleans()):
        grid = 2 ** -10
        kwargs["autoscaler"] = AutoscalerConfig(
            interval_s=grid * draw(st.sampled_from([8, 64])),
            queue_high=2, queue_low=1, miss_high=0.02, up_streak=1,
            cooldown_s=grid * 16, provision_s=grid * 8, max_devices=6)
    duration = kwargs["total_requests"] / (700.0 * load)
    failures = [
        FailurePlan(device_index=0,
                    at_s=draw(st.floats(0.0, duration)),
                    mode=draw(st.sampled_from(["usb_stall",
                                               "device_loss"])))
        for _ in range(draw(st.integers(0, 1)))]
    return dict(
        kwargs=kwargs, tiered=tiered, failures=failures,
        metrics=draw(st.booleans()), grid=grid,
        chunk=draw(st.sampled_from([4096, 64, 4])),
    )


def _build(compiled, case, tier_ladder):
    kwargs = dict(case["kwargs"])
    tiers = None
    if case["tiered"]:
        tiers = tier_ladder
        compiled = tier_ladder[0].compiled
    if kwargs["policy"] == "placed":
        fleet = FleetSpec((BackendSpec("edgetpu", count=4),
                           BackendSpec("pi-cpu", count=4)))
        kwargs["placement"] = PlacementOptimizer(fleet).place(
            compiled, kwargs["tenants"])
    metrics = MetricsRegistry() if case["metrics"] else None
    cluster = Cluster(compiled, ClusterConfig(**kwargs), tiers=tiers,
                      metrics=metrics)
    for plan in case["failures"]:
        cluster.replicas[0].server.pool.schedule_failure(plan)
    return cluster, metrics


def _run(compiled, case, tier_ladder, stepped):
    with pytest.MonkeyPatch.context() as patch:
        grid = case["grid"]
        if grid is not None:
            draw = ArrivalProcess.inter_arrivals

            def gridded(self, num_requests):
                return (draw(self, num_requests) / grid).round() * grid

            patch.setattr(ArrivalProcess, "inter_arrivals", gridded)
        patch.setattr(traffic, "_CHUNK", case["chunk"])
        if not stepped:
            patch.setattr(Replica, "_step_groups", lambda self, *args: 0)
        cluster, metrics = _build(compiled, case, tier_ladder)
        assert not cluster._pump.merged
        report = cluster.run()
    return report, metrics


def _case(policy="round_robin", load=1.0, total_requests=600,
          num_replicas=2, serve=ServeConfig(), grid=None, chunk=4096):
    """A plain generated-shape case: no tiers, failures or registry."""
    return dict(kwargs=dict(policy=policy, tenants=_tenants(load),
                            total_requests=total_requests,
                            num_replicas=num_replicas, serve=serve,
                            max_events=1_000_000),
                tiered=False, failures=[], metrics=False, grid=grid,
                chunk=chunk)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(case=runs())
# The regularity test's boundaries, always run: a fixed batcher's
# timeout expires exactly at a later row's arrival, and the row only
# follows the dispatch at that instant (its predecessor went to the
# other replica); a group's last row ties the next group's first; and
# windows of a few rows end on tied arrivals.
@example(case=_case(serve=ServeConfig(batcher="fixed", max_batch=2,
                                      timeout_s=2 * 2 ** -10),
                    grid=2 ** -10))
@example(case=_case(policy="tenant_affinity", load=20.0, num_replicas=3,
                    serve=ServeConfig(max_batch=4), grid=2 ** -10,
                    chunk=4))
def test_stepped_runs_match_the_per_row_loop(compiled_model, tier_ladder,
                                             case):
    stepped, stepped_metrics = _run(compiled_model, case, tier_ladder,
                                    stepped=True)
    per_row, per_row_metrics = _run(compiled_model, case, tier_ladder,
                                    stepped=False)
    _assert_cluster_reports_identical(stepped, per_row)
    if case["metrics"]:
        assert json.dumps(stepped_metrics.summary(), sort_keys=True) == \
            json.dumps(per_row_metrics.summary(), sort_keys=True)


def test_a_loaded_sweep_steps_nearly_every_batch(compiled_model,
                                                 monkeypatch):
    """At sweep load the queue fills by size long before any deadline,
    so nearly every batch is dispatched in a step of several."""
    stepped = []
    step = Replica._step_groups

    def counted(self, *args):
        taken = step(self, *args)
        stepped.append(taken // self._fast_max_batch)
        return taken

    monkeypatch.setattr(Replica, "_step_groups", counted)
    report = Cluster(compiled_model, ClusterConfig(
        tenants=_tenants(20.0), total_requests=20_000, num_replicas=4,
        serve=ServeConfig(max_batch=8, max_queue=50_000), seed=3)).run()
    batches = sum(r.num_batches for r in report.replica_reports)
    assert sum(stepped) >= 0.9 * batches
    assert sum(stepped) >= 20 * sum(1 for groups in stepped if groups)

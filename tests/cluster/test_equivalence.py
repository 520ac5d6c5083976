"""The refactor contract: engine-driven serve ≡ the frozen old loop.

``InferenceServer.serve`` now runs on the discrete-event engine via a
:class:`~repro.cluster.replica.Replica` actor.  These tests pin it
byte-for-byte against :func:`repro.serving._reference.serve_reference`
— the pre-refactor loop kept verbatim as an oracle — across batcher
policies, admission pressure, streamed input and tracing.

The second half pins the *cluster* vectorized fast pump (chunked
traffic + batched routing + columnar bookkeeping + replica-local
time, which every policy runs; ``least_queue`` routes inside it one
arrival at a time) byte-for-byte against the scalar
event-per-arrival pump, forced by patching ``Cluster._takes_pump``,
across router policies, placed fleets, tiered shedding, autoscaling,
metrics, failure injection and cluster and replica tracing.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.cluster import (
    AutoscalerConfig,
    Cluster,
    ClusterConfig,
    POLICIES,
    TenantSpec,
)
from repro.config import BackendSpec, FleetSpec, ServeConfig
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu.multidevice import DevicePool, FailurePlan
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer
from repro.runtime.placement import PlacementOptimizer
from repro.serving import ArrivalProcess, RequestStream
from repro.serving._reference import serve_reference
from repro.serving.arrivals import Request
from repro.serving.server import InferenceServer

from tests.cluster.conftest import (
    NUM_CLASSES,
    NUM_FEATURES,
    build_tier_ladder,
)


def _trace(num_requests=300, rate_hz=300.0, kind="bursty", seed=5,
           deadline_s=0.04):
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=0.0),
        seed=2,
    )
    arrivals = ArrivalProcess(rate_hz, kind, seed=seed)
    return list(RequestStream(stream, arrivals, deadline_s=deadline_s,
                              drift_every=1).generate(num_requests))


def _server(compiled_model, config, num_devices=2, tracer=None):
    pool = DevicePool(num_devices, compiled_model.arch)
    pool.load_replicated(compiled_model)
    return InferenceServer(pool, config=config, tracer=tracer)


def _assert_reports_identical(new, old):
    assert json.dumps(new.summary(), sort_keys=True) == \
        json.dumps(old.summary(), sort_keys=True)
    np.testing.assert_array_equal(new.predictions, old.predictions)
    np.testing.assert_array_equal(new.latencies, old.latencies)
    assert new.makespan_s == old.makespan_s
    assert new.batch_sizes == old.batch_sizes
    assert new.device_busy_seconds == old.device_busy_seconds
    assert new.dropped == old.dropped


CONFIGS = [
    pytest.param(ServeConfig(), id="dynamic"),
    pytest.param(ServeConfig(slack_s=0.002, max_batch=4), id="slack"),
    pytest.param(ServeConfig(batcher="fixed", max_batch=8,
                             timeout_s=0.01), id="fixed"),
    pytest.param(ServeConfig(max_queue=4), id="drops"),
]


@pytest.mark.parametrize("config", CONFIGS)
def test_serve_matches_reference_loop(compiled_model, config):
    requests = _trace()
    new = _server(compiled_model, config).serve(requests)
    old = serve_reference(_server(compiled_model, config), requests)
    _assert_reports_identical(new, old)


@pytest.mark.parametrize("request_id", [
    pytest.param(lambda i, n: i, id="ids-in-order"),
    pytest.param(lambda i, n: i + 1000, id="ids-shifted"),
    pytest.param(lambda i, n: n - 1 - i, id="ids-reversed"),
])
def test_streamed_input_matches_list_input(compiled_model, request_id):
    # Reports are in trace order whatever ids the requests carry: a
    # list serves exactly as the same requests streamed.
    config = ServeConfig()
    trace = _trace()
    requests = [dataclasses.replace(r, request_id=request_id(i, len(trace)))
                for i, r in enumerate(trace)]
    listed = _server(compiled_model, config).serve(requests)
    streamed = _server(compiled_model, config).serve(iter(requests))
    _assert_reports_identical(listed, streamed)
    assert listed.accuracy == streamed.accuracy


def test_traced_serve_matches_reference_spans(compiled_model):
    config = ServeConfig(max_queue=8)
    requests = _trace(num_requests=150)
    new_tracer, old_tracer = Tracer(enabled=True), Tracer(enabled=True)
    new = _server(compiled_model, config, tracer=new_tracer).serve(
        requests
    )
    old = serve_reference(
        _server(compiled_model, config, tracer=old_tracer), requests
    )
    _assert_reports_identical(new, old)
    new_spans = [span.to_dict() for span in new_tracer.spans]
    old_spans = [span.to_dict() for span in old_tracer.spans]
    assert new_spans == old_spans


def test_single_device_and_empty_trace(compiled_model):
    config = ServeConfig()
    requests = _trace(num_requests=80, kind="poisson")
    new = _server(compiled_model, config, num_devices=1).serve(requests)
    old = serve_reference(
        _server(compiled_model, config, num_devices=1), requests
    )
    _assert_reports_identical(new, old)
    empty_new = _server(compiled_model, config).serve([])
    empty_old = serve_reference(_server(compiled_model, config), [])
    assert json.dumps(empty_new.summary(), sort_keys=True) == \
        json.dumps(empty_old.summary(), sort_keys=True)


# ----------------------------------------------------------------------
# Cluster fast pump ≡ scalar pump
#
# Every comparison below runs the same ClusterConfig twice — once as
# built (every policy takes the vectorized FastArrivalPump) and once
# forced onto the scalar event-per-arrival pump, the oracle — and
# demands identity down to the last float: predictions, modeled
# latencies, batch splits, device busy time, the merged latency
# tracker's *value order*, the full summary JSON (which folds in
# per-tenant SLA rows and scaling events) and every replica tracer's
# spans.


def _cluster(compiled_model, tenant_mix, *, tiers=None, tracer=None,
             metrics=None, failures=(), **overrides):
    kwargs = dict(tenants=tenant_mix, total_requests=3000,
                  num_replicas=2, seed=7)
    kwargs.update(overrides)
    cluster = Cluster(compiled_model, ClusterConfig(**kwargs),
                      tiers=tiers, tracer=tracer, metrics=metrics)
    for replica_index, plan in failures:
        cluster.replicas[replica_index].server.pool.schedule_failure(
            plan
        )
    return cluster


def _scalar_cluster(compiled_model, tenant_mix, **kwargs):
    """The same cluster, forced onto the scalar pump (the oracle)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Cluster, "_takes_pump", lambda self: False)
        return _cluster(compiled_model, tenant_mix, **kwargs)


def _spans(tracer):
    return None if tracer is None else [s.to_dict() for s in tracer.spans]


def _assert_cluster_reports_identical(fast, scalar):
    assert json.dumps(fast.summary(), sort_keys=True) == \
        json.dumps(scalar.summary(), sort_keys=True)
    assert fast.makespan_s == scalar.makespan_s
    assert fast.device_seconds == scalar.device_seconds
    assert fast.routed_counts == scalar.routed_counts
    np.testing.assert_array_equal(fast.latency._values,
                                  scalar.latency._values)
    assert len(fast.replica_reports) == len(scalar.replica_reports)
    for new, old in zip(fast.replica_reports, scalar.replica_reports):
        assert json.dumps(new.summary(), sort_keys=True) == \
            json.dumps(old.summary(), sort_keys=True)
        np.testing.assert_array_equal(new.predictions, old.predictions)
        np.testing.assert_array_equal(new.labels, old.labels)
        np.testing.assert_array_equal(new.latencies, old.latencies)
        assert new.batch_sizes == old.batch_sizes
        assert new.device_busy_seconds == old.device_busy_seconds
        assert new.deadline_misses == old.deadline_misses
        assert new.dropped == old.dropped
        assert new.makespan_s == old.makespan_s
        np.testing.assert_array_equal(new.latency._values,
                                      old.latency._values)
        assert new.tier_batches == old.tier_batches
        assert new.tier_sheds == old.tier_sheds
        if old.request_tiers is None:
            assert new.request_tiers is None
        else:
            np.testing.assert_array_equal(new.request_tiers,
                                          old.request_tiers)
        assert _spans(new.trace) == _spans(old.trace)


def _compare(compiled_model, tenant_mix, **kwargs):
    fast = _cluster(compiled_model, tenant_mix, **kwargs)
    scalar = _scalar_cluster(compiled_model, tenant_mix, **kwargs)
    assert fast._pump is not None, "run did not take the fast pump"
    assert scalar._pump is None
    fast_report, scalar_report = fast.run(), scalar.run()
    _assert_cluster_reports_identical(fast_report, scalar_report)
    return fast_report, scalar_report


@pytest.mark.parametrize("policy,num_replicas", [
    ("round_robin", 3),
    ("round_robin", 1),
    ("tenant_affinity", 2),
    ("consistent_hash", 4),
    ("least_queue", 1),
    ("least_queue", 2),
    ("least_queue", 3),
])
def test_cluster_fast_path_matches_scalar_per_policy(
        compiled_model, tenant_mix, policy, num_replicas):
    _compare(compiled_model, tenant_mix, policy=policy,
             num_replicas=num_replicas)


@pytest.mark.parametrize("serve", [
    pytest.param(ServeConfig(batcher="fixed", max_batch=4,
                             timeout_s=0.01), id="fixed_batcher"),
    pytest.param(ServeConfig(max_queue=4), id="drops"),
])
def test_cluster_fast_path_matches_scalar_under_pressure(
        compiled_model, tenant_mix, serve):
    _compare(compiled_model, tenant_mix, serve=serve)


FAILURES = (
    (0, FailurePlan(device_index=0, at_s=1.0, mode="usb_stall")),
    (1, FailurePlan(device_index=0, at_s=2.0, mode="device_loss",
                    detect_seconds=0.01)),
)


@pytest.mark.parametrize("case", [
    pytest.param(dict(serve=ServeConfig(batcher="fixed", max_batch=4,
                                        timeout_s=0.01)),
                 id="fixed_batcher"),
    pytest.param(dict(serve=ServeConfig(max_queue=4)), id="drops"),
    pytest.param(dict(devices_per_replica=2, failures=FAILURES,
                      total_requests=6000), id="failures"),
    # The edges: the trace ends on its first arrival, every arrival is
    # dropped, and a fixed batcher that never times out flushes only
    # at end of trace.
    pytest.param(dict(total_requests=1, num_replicas=3),
                 id="single_request"),
    pytest.param(dict(serve=ServeConfig(max_queue=0)), id="drop_all"),
    pytest.param(dict(serve=ServeConfig(batcher="fixed", max_batch=4,
                                        timeout_s=math.inf)),
                 id="fixed_batcher_no_timeout"),
])
def test_least_queue_pump_matches_scalar(compiled_model, tenant_mix,
                                         case):
    """``least_queue`` routes each row at its arrival inside the pump;
    its picks, drops and dispatches must match the scalar intake's."""
    fast, _ = _compare(compiled_model, tenant_mix, policy="least_queue",
                       **case)
    assert fast.num_requests == case.get("total_requests", 3000)


@pytest.mark.parametrize("case", [
    pytest.param(dict(total_requests=1, num_replicas=3),
                 id="single_request"),
    pytest.param(dict(serve=ServeConfig(max_queue=0)), id="drop_all"),
    pytest.param(dict(serve=ServeConfig(batcher="fixed", max_batch=4,
                                        timeout_s=math.inf)),
                 id="fixed_batcher_no_timeout"),
])
def test_run_ahead_pump_matches_scalar_at_the_edges(compiled_model,
                                                    tenant_mix, case):
    """The edges the ``least_queue`` cases pin, on replicas that run
    ahead: a fully dropped replica's makespan is the engine's final
    clock, and a never-timing-out batcher flushes at the trace end."""
    fast, _ = _compare(compiled_model, tenant_mix, **case)
    assert fast.num_requests == case.get("total_requests", 3000)


@pytest.mark.parametrize("policy,num_replicas", [
    ("round_robin", 2),
    ("tenant_affinity", 2),
    ("consistent_hash", 3),
    ("least_queue", 2),
])
def test_traced_replicas_take_the_pump_and_match_scalar_spans(
        compiled_model, tenant_mix, policy, num_replicas):
    """A traced replica server runs on the fast pump (full deferral
    off) and records the scalar pump's request, queue-wait and
    dropped-request spans, span for span."""
    fast, _ = _compare(compiled_model, tenant_mix, policy=policy,
                       num_replicas=num_replicas,
                       serve=ServeConfig(tracing=True, max_queue=4))
    spans = [span for report in fast.replica_reports
             for span in report.trace.spans]
    names = {span.name for span in spans}
    assert {"serve", "serve.batch", "request", "queue.wait"} <= names
    assert any("dropped" in span.tags for span in spans), \
        "no request dropped; weak test"


def test_placed_fleet_matches_scalar(compiled_model, tenant_mix):
    """A placed heterogeneous fleet: per-decision compiled variants,
    buckets and pinned tenants, traced."""
    fleet = FleetSpec((BackendSpec("edgetpu", count=4),
                       BackendSpec("pi-cpu", count=4)))
    placement = PlacementOptimizer(fleet).place(compiled_model,
                                                tenant_mix)
    fast, _ = _compare(compiled_model, tenant_mix, policy="placed",
                       placement=placement,
                       serve=ServeConfig(tracing=True))
    assert all(report.trace is not None
               for report in fast.replica_reports)


def _compare_autoscaled(compiled_model, tenant_mix, policy):
    """The autoscaled comparison, with a metrics registry on each side
    whose summaries must match too."""
    autoscaler = AutoscalerConfig(interval_s=0.5, queue_high=8,
                                  queue_low=2, miss_high=0.02,
                                  cooldown_s=1.0)
    kwargs = dict(autoscaler=autoscaler, total_requests=6000,
                  policy=policy)
    fast_metrics, scalar_metrics = MetricsRegistry(), MetricsRegistry()
    fast = _cluster(compiled_model, tenant_mix, metrics=fast_metrics,
                    **kwargs)
    scalar = _scalar_cluster(compiled_model, tenant_mix,
                             metrics=scalar_metrics, **kwargs)
    assert fast._pump is not None and scalar._pump is None
    fast_report = fast.run()
    _assert_cluster_reports_identical(fast_report, scalar.run())
    assert json.dumps(fast_metrics.summary(), sort_keys=True) == \
        json.dumps(scalar_metrics.summary(), sort_keys=True)
    assert fast_report.scaling_events, "autoscaler never fired; weak test"


def test_cluster_fast_path_matches_scalar_with_autoscaler(
        compiled_model, tenant_mix):
    """Autoscaling reads mid-run report state, so bookkeeping cannot
    fully defer — this pins the partial-deferral path, including the
    periodic tick interleaving with macro-stepped arrivals, and the
    metrics both pumps write."""
    _compare_autoscaled(compiled_model, tenant_mix, "round_robin")


def test_least_queue_pump_matches_scalar_with_autoscaler(
        compiled_model, tenant_mix):
    _compare_autoscaled(compiled_model, tenant_mix, "least_queue")


def test_cluster_fast_path_matches_scalar_under_failures(
        compiled_model, tenant_mix):
    _compare(compiled_model, tenant_mix, devices_per_replica=2,
             failures=FAILURES, total_requests=6000)


@pytest.fixture(scope="module")
def tier_ladder():
    return build_tier_ladder()


def _compare_tiered(tenant_mix, tier_ladder, policy):
    """A hot mix forces degraded-tier batches; the fast path must shed
    the exact same batches to the exact same tiers."""
    hot = tuple(
        TenantSpec(spec.name, rate_hz=spec.rate_hz * 12.0,
                   deadline_s=spec.deadline_s / 10.0, kind=spec.kind)
        for spec in tenant_mix
    )
    fast, _ = _compare(tier_ladder[0].compiled, hot, tiers=tier_ladder,
                       total_requests=4000, policy=policy)
    sheds = sum(r.tier_sheds for r in fast.replica_reports)
    assert sheds > 0, "no batches shed; weak test"


def test_cluster_fast_path_matches_scalar_with_tiered_shedding(
        tenant_mix, tier_ladder):
    _compare_tiered(tenant_mix, tier_ladder, "round_robin")


def test_least_queue_pump_matches_scalar_with_tiered_shedding(
        tenant_mix, tier_ladder):
    _compare_tiered(tenant_mix, tier_ladder, "least_queue")


def _compare_cluster_traced(compiled_model, tenant_mix, policy):
    """A cluster tracer: same spans on both pumps, and tracing moves
    no modeled output."""
    fast_tracer = Tracer(enabled=True)
    scalar_tracer = Tracer(enabled=True)
    traced_fast = _cluster(compiled_model, tenant_mix, policy=policy,
                           tracer=fast_tracer).run()
    traced_scalar = _scalar_cluster(compiled_model, tenant_mix,
                                    policy=policy,
                                    tracer=scalar_tracer).run()
    _assert_cluster_reports_identical(traced_fast, traced_scalar)
    assert _spans(fast_tracer) == _spans(scalar_tracer)
    untraced = _cluster(compiled_model, tenant_mix, policy=policy).run()
    _assert_cluster_reports_identical(traced_fast, untraced)


def test_cluster_traced_run_matches_untraced_and_scalar_spans(
        compiled_model, tenant_mix):
    _compare_cluster_traced(compiled_model, tenant_mix, "round_robin")


def test_least_queue_traced_run_matches_untraced_and_scalar_spans(
        compiled_model, tenant_mix):
    _compare_cluster_traced(compiled_model, tenant_mix, "least_queue")


def test_every_policy_runs_the_pump(compiled_model, tenant_mix,
                                    monkeypatch):
    """Every policy takes the pump, and no cluster run builds a
    ``Request``."""

    def no_request(*args, **kwargs):
        raise AssertionError("a cluster run built a Request")

    monkeypatch.setattr(Request, "__init__", no_request)
    fleet = FleetSpec.single("edgetpu", count=4)
    placement = PlacementOptimizer(fleet).place(compiled_model,
                                                tenant_mix)
    for policy in POLICIES:
        extra = {"placement": placement} if policy == "placed" else {}
        cluster = _cluster(compiled_model, tenant_mix, policy=policy,
                           total_requests=500, **extra)
        assert cluster._takes_pump() and cluster._pump is not None
        assert cluster.run().num_requests == 500


# ----------------------------------------------------------------------
# Exact ties
#
# Exponential gaps never tie, so the runs above never ask who goes
# first at one instant.  Rounding every gap to a 50 µs grid (839·2⁻²⁴ s:
# sums of it stay exact in float64) makes arrivals tie within and
# across tenants, size-triggered dispatches (``max_batch=4``) tie the
# next arrival, and ticks and provisioning on the same grid tie both.
# The rule the pump must reproduce: an arrival beats a dispatch at the
# same instant exactly when that dispatch was last re-keyed while the
# preceding global arrival was processed, or later — the order the
# scalar intake's sequence numbers give.

_GRID_S = 839 / 2 ** 24


def _round_gaps(monkeypatch, grid_s):
    draw = ArrivalProcess.inter_arrivals

    def gridded(self, num_requests):
        return np.round(draw(self, num_requests) / grid_s) * grid_s

    monkeypatch.setattr(ArrivalProcess, "inter_arrivals", gridded)


@pytest.fixture()
def gridded_arrivals(monkeypatch):
    _round_gaps(monkeypatch, _GRID_S)


@pytest.fixture()
def hot_mix(tenant_mix):
    return tuple(TenantSpec(spec.name, rate_hz=spec.rate_hz * 4.0,
                            deadline_s=spec.deadline_s, kind=spec.kind)
                 for spec in tenant_mix)


def _arrival_times(tenants, total_requests, seed=7):
    from repro.cluster.traffic import MultiTenantTraffic
    return np.concatenate([
        chunk.times for chunk in
        MultiTenantTraffic(tenants, total_requests, seed=seed).chunks()
    ])


def _tied_pairs(tenants, total_requests=3000, seed=7):
    times = _arrival_times(tenants, total_requests, seed)
    return int(np.count_nonzero(np.diff(times) == 0.0))


_TIED_SERVE = ServeConfig(max_batch=4)


@pytest.mark.parametrize("policy", POLICIES)
def test_pump_matches_scalar_on_exact_ties(compiled_model, hot_mix,
                                           gridded_arrivals, policy):
    assert _tied_pairs(hot_mix) >= 100, "few tied arrivals; weak test"
    extra = {}
    if policy == "placed":
        fleet = FleetSpec.single("edgetpu", count=4)
        extra["placement"] = PlacementOptimizer(fleet).place(
            compiled_model, hot_mix)
    _compare(compiled_model, hot_mix, policy=policy, serve=_TIED_SERVE,
             **extra)


def test_pump_matches_scalar_on_exact_ties_with_drops(
        compiled_model, hot_mix, gridded_arrivals):
    """On one replica a tied arrival lands before the size-triggered
    dispatch at its instant, so it finds the queue full and drops."""
    fast, _ = _compare(compiled_model, hot_mix, num_replicas=1,
                       serve=ServeConfig(max_batch=4, max_queue=4))
    assert sum(r.dropped for r in fast.replica_reports) > 0, \
        "nothing dropped; weak test"


def _compare_observed(compiled_model, tenants, with_metrics, **kwargs):
    """:func:`_compare`, with a registry on each side whose summaries
    must match too; returns the pump's report.  A registry does not
    pick the loop: only ``least_queue`` advances in merged order."""
    fast_metrics = MetricsRegistry() if with_metrics else None
    scalar_metrics = MetricsRegistry() if with_metrics else None
    fast = _cluster(compiled_model, tenants, metrics=fast_metrics,
                    **kwargs)
    scalar = _scalar_cluster(compiled_model, tenants,
                             metrics=scalar_metrics, **kwargs)
    assert fast._pump.merged == (kwargs.get("policy") == "least_queue")
    fast_report = fast.run()
    _assert_cluster_reports_identical(fast_report, scalar.run())
    if with_metrics:
        assert json.dumps(fast_metrics.summary(), sort_keys=True) == \
            json.dumps(scalar_metrics.summary(), sort_keys=True)
    return fast_report


@pytest.mark.parametrize("policy,with_metrics", [
    ("round_robin", True),
    ("least_queue", True),
    ("round_robin", False),
])
def test_pump_matches_scalar_on_exact_ties_with_autoscaler(
        compiled_model, hot_mix, gridded_arrivals, policy, with_metrics):
    """Ticks and device-online commits on the arrival grid tie
    arrivals and dispatches; round_robin replicas run ahead to each of
    them, with or without a registry."""
    autoscaler = AutoscalerConfig(
        interval_s=_GRID_S * 1024, queue_high=2, queue_low=1,
        miss_high=0.02, up_streak=1, cooldown_s=_GRID_S * 1024,
        provision_s=_GRID_S * 512)
    report = _compare_observed(compiled_model, hot_mix, with_metrics,
                               autoscaler=autoscaler, policy=policy,
                               serve=_TIED_SERVE)
    actions = {event.action for event in report.scaling_events}
    assert {"scale_up", "device_online"} <= actions, \
        "autoscaler never scaled; weak test"


_COARSE_S = 2 ** -10


@pytest.fixture(params=[256, 4, 1], ids=["blocks256", "blocks4", "blocks1"])
def coarse_ties(monkeypatch, request):
    """A 1 ms grid (2⁻¹⁰ s) lands several arrivals on most instants,
    and small tenant blocks cut the trace into many chunks, so many
    run-ahead windows end on a tied arrival.  Blocks of 4 or 1 draws
    make chunks of a few rows, so tie walks read arrivals chunks back,
    where the pump frees what no walk can reach."""
    from repro.cluster import traffic
    _round_gaps(monkeypatch, _COARSE_S)
    monkeypatch.setattr(traffic, "_CHUNK", request.param)


@pytest.mark.parametrize("serve", [
    pytest.param(ServeConfig(max_batch=2), id="dynamic"),
    pytest.param(ServeConfig(batcher="fixed", max_batch=2,
                             timeout_s=2 * _COARSE_S), id="grid_timeout"),
    pytest.param(ServeConfig(batcher="fixed", max_batch=2), id="no_timeout"),
])
@pytest.mark.parametrize("policy,num_replicas", [
    ("round_robin", 1), ("tenant_affinity", 2), ("tenant_affinity", 3),
])
def test_pump_matches_scalar_on_tie_chains(compiled_model, hot_mix,
                                           coarse_ties, serve, policy,
                                           num_replicas):
    """Batches close between tied arrivals, and a backlog's batches
    re-key each other at one instant, so the rule recurses through
    them."""
    _compare(compiled_model, hot_mix, policy=policy,
             num_replicas=num_replicas, serve=serve)


@pytest.mark.parametrize("policy,with_metrics,total_requests", [
    ("tenant_affinity", False, 3000),
    # The trace ends on an instant where a dispatch ties the last
    # arrival, so the window that closes at it must order them.
    ("tenant_affinity", False, 3009),
    ("round_robin", True, 3000),
    ("least_queue", True, 3000),
])
def test_pump_matches_scalar_on_tie_chains_with_autoscaler(
        compiled_model, hot_mix, coarse_ties, policy, with_metrics,
        total_requests):
    """A tick at every grid instant: the first arrival of an instant
    after a quiet one, grid timeouts and size-triggered dispatches all
    tie it."""
    autoscaler = AutoscalerConfig(
        interval_s=_COARSE_S, queue_high=4, queue_low=2,
        miss_high=0.02, up_streak=1, cooldown_s=16 * _COARSE_S,
        provision_s=8 * _COARSE_S, max_devices=6)
    report = _compare_observed(
        compiled_model, hot_mix, with_metrics, autoscaler=autoscaler,
        policy=policy, total_requests=total_requests,
        serve=ServeConfig(batcher="fixed", max_batch=8,
                          timeout_s=4 * _COARSE_S))
    assert report.scaling_events, "autoscaler never scaled; weak test"


def test_pump_matches_scalar_when_the_last_arrival_ties_a_tick(
        compiled_model, tenant_mix, coarse_ties):
    """A quiet trace on the 1 ms grid, ticked every 1 ms: the last
    arrival lands on a tick instant at least two intervals after its
    predecessor, so its seq is older than that tick's and it goes
    first.  The window that reaches it must take it and end the
    traffic; otherwise the ticks never stop, which ``max_events`` turns
    into an error."""
    quiet = tuple(TenantSpec(spec.name, rate_hz=spec.rate_hz / 10,
                             deadline_s=spec.deadline_s, kind=spec.kind)
                  for spec in tenant_mix)
    times = _arrival_times(quiet, 300)
    assert times[-1] % _COARSE_S == 0.0 and times[-1] >= _COARSE_S
    assert times[-1] - times[-2] >= 2 * _COARSE_S, \
        "last arrival follows its predecessor closely; weak test"
    autoscaler = AutoscalerConfig(
        interval_s=_COARSE_S, queue_high=2, queue_low=1, miss_high=0.02,
        up_streak=1, cooldown_s=16 * _COARSE_S,
        provision_s=8 * _COARSE_S, max_devices=6)
    _compare_observed(compiled_model, quiet, False, autoscaler=autoscaler,
                      total_requests=300, max_events=50_000)

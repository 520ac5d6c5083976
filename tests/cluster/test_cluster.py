"""End-to-end cluster runs: determinism, policies, scaling, facade."""

import json

import numpy as np
import pytest

import repro
from repro.cluster import (
    AutoscalerConfig,
    Cluster,
    ClusterConfig,
    DiurnalCurve,
    POLICIES,
    TenantSpec,
)
from repro.config import BackendSpec, FleetSpec, ServeConfig
from repro.observability.metrics import MetricsRegistry
from repro.runtime.placement import PlacementOptimizer

from tests.cluster.conftest import NUM_FEATURES


def _summary(compiled, **overrides):
    config = ClusterConfig(**overrides)
    return repro.serve_cluster(compiled, config=config).summary()


@pytest.mark.parametrize("policy", POLICIES)
def test_every_policy_serves_the_whole_trace(compiled_model,
                                             tenant_mix, policy):
    overrides = {}
    if policy == "placed":
        optimizer = PlacementOptimizer(
            FleetSpec.single("edgetpu", count=8)
        )
        overrides["placement"] = optimizer.place(compiled_model,
                                                 tenant_mix)
    summary = _summary(compiled_model, tenants=tenant_mix,
                       total_requests=1200, num_replicas=2,
                       policy=policy, seed=7, **overrides)
    assert summary["policy"] == policy
    assert summary["num_requests"] == 1200
    assert summary["served"] + summary["dropped"] == 1200
    assert sum(summary["routed"]) == 1200


@pytest.mark.parametrize("policy", ["round_robin", "least_queue",
                                    "consistent_hash", "placed"])
def test_runs_are_bit_deterministic_per_seed(compiled_model,
                                             tenant_mix, policy):
    kwargs = dict(tenants=tenant_mix, total_requests=1000,
                  num_replicas=2, policy=policy, seed=13)
    if policy == "placed":
        # One Edge TPU takes the busiest tenant and the Pi CPUs the
        # rest, so replicas run per-backend variants of the model.
        fleet = FleetSpec((BackendSpec("edgetpu", count=1),
                           BackendSpec("pi-cpu", count=4)))
        kwargs["placement"] = PlacementOptimizer(fleet).place(
            compiled_model, tenant_mix)
    first = json.dumps(_summary(compiled_model, **kwargs),
                       sort_keys=True)
    second = json.dumps(_summary(compiled_model, **kwargs),
                        sort_keys=True)
    assert first == second
    other_seed = json.dumps(
        _summary(compiled_model, **{**kwargs, "seed": 14}),
        sort_keys=True,
    )
    assert first != other_seed


def test_traffic_is_identical_across_replica_counts(compiled_model,
                                                    tenant_mix):
    """Routing consumes the trace but never feeds back into it: the
    superposed arrival set is the same for 1, 2 or 4 replicas."""
    totals = []
    for num_replicas in (1, 2, 4):
        summary = _summary(compiled_model, tenants=tenant_mix,
                           total_requests=900,
                           num_replicas=num_replicas, seed=21)
        totals.append(
            tuple(sorted((row["name"], row["requests"])
                         for row in summary["tenants"]))
        )
    assert totals[0] == totals[1] == totals[2]


def test_tenant_affinity_applies_tenant_config_on_home_replica(
        compiled_model):
    tenants = (
        TenantSpec("strict", rate_hz=1500.0, deadline_s=0.02,
                   config=ServeConfig(max_queue=2)),
        TenantSpec("lax", rate_hz=300.0, deadline_s=0.5),
    )
    summary = _summary(compiled_model, tenants=tenants,
                       total_requests=1500, num_replicas=2,
                       policy="tenant_affinity", seed=5)
    by_name = {row["name"]: row for row in summary["tenants"]}
    # tenant 0's home replica runs max_queue=2, so the flood sheds
    assert by_name["strict"]["dropped"] > 0
    assert by_name["lax"]["dropped"] == 0


def test_autoscaler_reacts_to_spike_and_bills_device_seconds(
        compiled_model):
    spike = DiurnalCurve(spike_at_s=1.5, spike_duration_s=2.0,
                         spike_factor=8.0)
    tenants = (TenantSpec("spiky", rate_hz=400.0, deadline_s=0.05,
                          curve=spike),)
    metrics = MetricsRegistry()
    config = ClusterConfig(
        tenants=tenants, total_requests=4000, num_replicas=2,
        policy="least_queue", seed=3, tracing=True,
        autoscaler=AutoscalerConfig(interval_s=0.25, queue_high=16,
                                    queue_low=2, up_streak=1,
                                    cooldown_s=0.5, provision_s=0.5),
    )
    report = repro.serve_cluster(compiled_model, config=config,
                                 metrics=metrics)
    actions = [e.action for e in report.scaling_events]
    assert "scale_up" in actions
    assert "device_online" in actions
    # every scale-up decision commits provision_s later
    ups = [e for e in report.scaling_events if e.action == "scale_up"]
    commits = [e for e in report.scaling_events
               if e.action == "device_online"]
    assert len(commits) == len(ups)
    for up, commit in zip(ups, commits):
        assert commit.time_s == pytest.approx(up.time_s + 0.5)
    # the bill covers the base fleet plus the elastic additions
    base = 2 * report.makespan_s
    assert report.device_seconds > base
    assert metrics.counter("cluster.scale_ups").value == len(ups)
    # scaling actions land in the trace
    names = {span.name for span in report.trace.spans}
    assert "cluster.serve" in names
    assert "cluster.scale_up" in names


def test_autoscaled_run_is_deterministic(compiled_model, tenant_mix):
    config = dict(
        tenants=tenant_mix, total_requests=1500, num_replicas=2,
        seed=17,
        autoscaler=AutoscalerConfig(interval_s=0.5, queue_high=8,
                                    up_streak=1, cooldown_s=1.0,
                                    provision_s=0.5),
    )
    first = _summary(compiled_model, **config)
    second = _summary(compiled_model, **config)
    assert json.dumps(first, sort_keys=True) == \
        json.dumps(second, sort_keys=True)


@pytest.mark.parametrize("policy", ["round_robin", "tenant_affinity",
                                    "least_queue"])
def test_traced_serve_config_matches_untraced(compiled_model, policy):
    """A traced ``ServeConfig`` records spans on the pump whether the
    policy routes whole chunks or, like ``least_queue``, one arrival at
    a time, and tracing changes no modeled output."""

    def run(tracing):
        config = ClusterConfig(
            tenants=(TenantSpec("a", rate_hz=1000.0, deadline_s=0.01),),
            total_requests=200, policy=policy,
            serve=ServeConfig(tracing=tracing),
        )
        return repro.serve_cluster(compiled_model, config=config)

    off, on = run(False), run(True)
    assert on.summary() == off.summary()
    assert len(on.replica_reports) == len(off.replica_reports)
    for traced, untraced in zip(on.replica_reports, off.replica_reports):
        assert traced.trace is not None and untraced.trace is None
        np.testing.assert_array_equal(traced.predictions,
                                      untraced.predictions)
        np.testing.assert_array_equal(traced.latencies,
                                      untraced.latencies)


@pytest.mark.parametrize("policy", ["round_robin", "least_queue"])
def test_tenant_width_must_match_the_model(compiled_model, policy):
    """A width mismatch is a build-time error whether the pump routes
    whole chunks or one arrival at a time, not a numpy broadcast
    failure at the first dispatch or in the resolve."""
    tenants = (TenantSpec("wide", rate_hz=100.0, deadline_s=0.1,
                          num_features=NUM_FEATURES + 4),)
    config = ClusterConfig(tenants=tenants, total_requests=100,
                           policy=policy)
    with pytest.raises(ValueError,
                       match="tenant 'wide' sends 20 features but its "
                             "model takes 16"):
        Cluster(compiled_model, config)


def test_mixed_tenant_widths_are_rejected(compiled_model):
    tenants = (
        TenantSpec("full", rate_hz=100.0, deadline_s=0.1),
        TenantSpec("narrow", rate_hz=100.0, deadline_s=0.1,
                   num_features=8),
    )
    config = ClusterConfig(tenants=tenants, total_requests=100)
    with pytest.raises(ValueError,
                       match="tenant 'narrow' sends 8 features but "
                             "tenant 'full' sends 16"):
        Cluster(compiled_model, config)


def test_max_events_budget_guards_runaway_runs(compiled_model,
                                               tenant_mix):
    with pytest.raises(RuntimeError, match="budget"):
        _summary(compiled_model, tenants=tenant_mix,
                 total_requests=2000, max_events=50)


@pytest.mark.parametrize("autoscaled", [False, True])
def test_unobserved_run_fires_no_engine_event_per_arrival_or_batch(
        compiled_model, tenant_mix, monkeypatch, autoscaled):
    """Without a registry, round_robin replicas run ahead between
    cluster-level events: the engine fires those events and nothing
    for the 2000 arrivals and their batches."""
    from repro.cluster.autoscaler import Autoscaler
    fired = []
    for name in ("_tick", "_commit_add"):
        method = getattr(Autoscaler, name)

        def counted(self, *args, _method=method):
            fired.append(self.engine.now)
            return _method(self, *args)

        monkeypatch.setattr(Autoscaler, name, counted)
    autoscaler = (AutoscalerConfig(interval_s=0.5, queue_high=4,
                                   up_streak=1, cooldown_s=1.0,
                                   provision_s=0.5)
                  if autoscaled else None)
    cluster = Cluster(compiled_model, ClusterConfig(
        tenants=tenant_mix, total_requests=2000, num_replicas=2, seed=7,
        serve=ServeConfig(max_batch=4), autoscaler=autoscaler))
    report = cluster.run()
    assert not cluster._pump.merged
    assert sum(r.num_batches for r in report.replica_reports) > 100
    assert bool(fired) == autoscaled
    assert cluster.engine.events_processed <= len(fired) + 2


def test_serve_cluster_accepts_pipeline_results_and_rejects_junk(
        compiled_model, tenant_mix):
    config = ClusterConfig(tenants=tenant_mix, total_requests=200)

    class FakeTrained:
        compiled = compiled_model

    report = repro.serve_cluster(FakeTrained(), config=config)
    assert report.num_requests == 200
    with pytest.raises(TypeError):
        repro.serve_cluster(object(), config=config)


def test_cluster_runs_once(compiled_model, tenant_mix):
    cluster = Cluster(compiled_model,
                      ClusterConfig(tenants=tenant_mix,
                                    total_requests=200))
    cluster.run()
    with pytest.raises(RuntimeError):
        cluster.run()


def test_config_validation(tenant_mix):
    with pytest.raises(ValueError):
        ClusterConfig(tenants=())
    with pytest.raises(ValueError):
        ClusterConfig(tenants=tenant_mix, total_requests=0)
    with pytest.raises(ValueError):
        ClusterConfig(tenants=tenant_mix, num_replicas=0)
    with pytest.raises(ValueError):
        ClusterConfig(tenants=tenant_mix, devices_per_replica=0)
    with pytest.raises(ValueError):
        ClusterConfig(tenants=tenant_mix, policy="sticky")
    with pytest.raises(TypeError):
        ClusterConfig(tenants=tenant_mix, serve="dynamic")
    with pytest.raises(TypeError):
        ClusterConfig(tenants=tenant_mix, autoscaler="yes")

"""Golden ``MetricsRegistry.summary()`` data of registry-observed runs.

``registry_summaries.json`` holds, for each configuration below, the
whole summary a run leaves in its registry: every counter, every gauge
value and peak, and every histogram's count, mean and percentiles.
Any value a change moves fails here.  If a move is intended,
regenerate the file with

    PYTHONPATH=src python -m tests.cluster.test_registry_summaries

and explain each diff.

The cluster configurations cover round_robin on one and three
replicas, least_queue on two, each policy autoscaled, a least_queue
tier ladder that sheds and admission drops; two standalone ``serve()``
runs (one with drops) pin the single-server writes.
"""

import json
from pathlib import Path

import pytest

from repro.cluster import AutoscalerConfig, Cluster, ClusterConfig, TenantSpec
from repro.config import ServeConfig
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu.multidevice import DevicePool
from repro.observability.metrics import MetricsRegistry
from repro.serving import ArrivalProcess, InferenceServer, RequestStream
from tests.cluster.conftest import (
    NUM_CLASSES,
    NUM_FEATURES,
    TENANT_MIX,
    build_compiled_model,
    build_tier_ladder,
)

GOLDEN = Path(__file__).with_name("registry_summaries.json")

AUTOSCALER = AutoscalerConfig(interval_s=0.5, queue_high=8, queue_low=2,
                              miss_high=0.02, cooldown_s=1.0)

# Rates x12 and deadlines / 10: the ladder sheds batches.
HOT_MIX = tuple(TenantSpec(spec.name, rate_hz=spec.rate_hz * 12.0,
                           deadline_s=spec.deadline_s / 10.0,
                           kind=spec.kind)
                for spec in TENANT_MIX)


def _inputs() -> dict:
    """The model, the tier ladder and a standalone trace, built once
    from fixed seeds."""
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=0.0),
        seed=2,
    )
    arrivals = ArrivalProcess(300.0, "bursty", seed=5)
    trace = list(RequestStream(stream, arrivals, deadline_s=0.04,
                               drift_every=1).generate(300))
    return {"compiled": build_compiled_model(),
            "ladder": build_tier_ladder(), "trace": trace}


def _cluster(tenants=TENANT_MIX, ladder=False, **overrides):
    def run(inputs):
        kwargs = dict(tenants=tenants, total_requests=3000,
                      num_replicas=2, seed=7)
        kwargs.update(overrides)
        tiers = inputs["ladder"] if ladder else None
        compiled = tiers[0].compiled if ladder else inputs["compiled"]
        metrics = MetricsRegistry()
        report = Cluster(compiled, ClusterConfig(**kwargs), tiers=tiers,
                         metrics=metrics).run()
        return metrics, report.replica_reports, report.scaling_events

    return run


def _serve(config):
    def run(inputs):
        compiled = inputs["compiled"]
        pool = DevicePool(2, compiled.arch)
        pool.load_replicated(compiled)
        metrics = MetricsRegistry()
        report = InferenceServer(pool, config, metrics=metrics).serve(
            inputs["trace"])
        return metrics, [report], []

    return run


CONFIGS = {
    "cluster/round_robin_1": _cluster(num_replicas=1),
    "cluster/round_robin_3": _cluster(num_replicas=3),
    "cluster/least_queue_2": _cluster(policy="least_queue"),
    "cluster/round_robin_autoscaled": _cluster(
        autoscaler=AUTOSCALER, total_requests=6000),
    "cluster/least_queue_autoscaled": _cluster(
        policy="least_queue", autoscaler=AUTOSCALER, total_requests=6000),
    "cluster/least_queue_tiered": _cluster(
        tenants=HOT_MIX, ladder=True, policy="least_queue",
        total_requests=4000),
    "cluster/round_robin_drops": _cluster(serve=ServeConfig(max_queue=4)),
    "serve/dynamic": _serve(ServeConfig()),
    "serve/drops": _serve(ServeConfig(max_queue=4)),
}


def compute_all(inputs) -> dict:
    return {name: CONFIGS[name](inputs)[0].summary()
            for name in sorted(CONFIGS)}


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_registry_summary_matches_golden(inputs, name):
    golden = json.loads(GOLDEN.read_text())
    assert CONFIGS[name](inputs)[0].summary() == golden[name]


def test_configs_reach_what_they_are_named_for(inputs):
    """Each configuration exercises the writes its summary pins."""
    runs = {name: run(inputs) for name, run in CONFIGS.items()}
    for name in ("cluster/round_robin_autoscaled",
                 "cluster/least_queue_autoscaled"):
        assert runs[name][2], f"{name}: autoscaler never scaled"
    tiered = runs["cluster/least_queue_tiered"][1]
    assert sum(r.tier_sheds for r in tiered) > 0
    for name in ("cluster/round_robin_drops", "serve/drops"):
        assert sum(r.dropped for r in runs[name][1]) > 0
    assert sum(r.dropped for r in runs["serve/dynamic"][1]) == 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(_inputs()), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

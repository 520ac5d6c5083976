"""Serving memory: O(1) Python objects per in-flight request.

The streamed path keeps report rows in growable numpy columns and
pulls arrivals one at a time, so the marginal memory per request is a
few array slots — never a materialized ``Request``.  The tests measure
the tracemalloc peak at two trace lengths and bound the marginal
bytes/request: far below what a request list would cost (one frozen
``Request`` with a 16-float payload is ~400 bytes before the trace is
even sorted) for a single server, and, for the cluster pump, below
what keeping every routed payload row or every latency as a Python
float costs.
"""

import tracemalloc

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.config import ServeConfig
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu.multidevice import DevicePool
from repro.observability.metrics import MetricsRegistry
from repro.serving import ArrivalProcess, RequestStream
from repro.serving.arrivals import Request
from repro.serving.server import InferenceServer

from tests.cluster.conftest import NUM_CLASSES, NUM_FEATURES


def _stream(num_requests, seed=5):
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=0.0),
        seed=2,
    )
    arrivals = ArrivalProcess(500.0, "poisson", seed=seed)
    return RequestStream(stream, arrivals, deadline_s=0.05,
                         drift_every=0).generate(num_requests)


def _peak(compiled_model, num_requests):
    pool = DevicePool(2, compiled_model.arch)
    pool.load_replicated(compiled_model)
    server = InferenceServer(pool, config=ServeConfig())
    requests = _stream(num_requests)
    tracemalloc.start()
    try:
        report = server.serve(requests)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.num_requests == num_requests
    return peak


def test_request_dataclass_is_slotted():
    import numpy as np

    request = Request(request_id=0, arrival_s=0.0, deadline_s=1.0,
                      features=np.zeros(4))
    assert not hasattr(request, "__dict__")
    assert hasattr(Request, "__slots__")


def test_streamed_serve_memory_is_columnar_not_per_object(
        compiled_model):
    small = _peak(compiled_model, 2000)
    large = _peak(compiled_model, 8000)
    marginal = (large - small) / 6000.0
    # Report columns cost ~50 bytes/request (predictions, latencies,
    # arrivals, deadlines, tenants, labels at 8 bytes each) plus
    # doubling slack; a materialized Request alone is an order of
    # magnitude more.
    assert marginal < 400.0, f"marginal {marginal:.0f} bytes/request"


def _cluster_peak(compiled_model, tenant_mix, total_requests, policy,
                  with_metrics):
    config = ClusterConfig(tenants=tenant_mix,
                           total_requests=total_requests,
                           num_replicas=2, policy=policy, seed=7)
    tracemalloc.start()
    try:
        metrics = MetricsRegistry() if with_metrics else None
        cluster = Cluster(compiled_model, config, metrics=metrics)
        assert cluster._pump is not None
        report = cluster.run()
        summary = report.summary()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary["num_requests"] == total_requests
    return peak


# Each routed row keeps one int64 prediction per tier, not its 16-float
# payload row, and each latency is 8 bytes in a tracker buffer, not a
# boxed float.  Marginal bytes/request through ``report.summary()``:
# round_robin measured 115 (145 with latencies kept as Python floats);
# least_queue with a metrics registry, which also keeps every latency
# in the ``serve.latency_s`` histogram, measured 144 with its latency
# bookkeeping fully deferred (139 per batch, before a registry stopped
# turning deferral off; 170 with floats on the scalar per-request
# intake).  Each bound sits between the float figure and the rest.
@pytest.mark.parametrize("policy,with_metrics,bound", [
    pytest.param("round_robin", False, 125.0, id="round_robin"),
    pytest.param("least_queue", True, 146.0, id="least_queue_metrics"),
])
def test_cluster_fast_path_keeps_predictions_not_payloads(
        compiled_model, tenant_mix, policy, with_metrics, bound):
    small = _cluster_peak(compiled_model, tenant_mix, 30_000, policy,
                          with_metrics)
    large = _cluster_peak(compiled_model, tenant_mix, 90_000, policy,
                          with_metrics)
    marginal = (large - small) / 60_000.0
    assert marginal < bound, f"marginal {marginal:.0f} bytes/request"

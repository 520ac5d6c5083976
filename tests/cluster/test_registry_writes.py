"""A metrics registry is written once per run, not per request.

Every ``serve.*`` instrument is written at ``Replica.finalize`` from
the finished report, and ``cluster.routed`` at the end of
``Cluster.run``, so the number of registry writes of a run does not
grow with its trace.  These tests count every write (each counter,
gauge and histogram lookup, each ``Counter.inc`` and each
``Gauge.set``) of a standalone ``serve()`` and of cluster runs under
both pump loops at two trace lengths.  Drops happen at both lengths,
so the same instruments exist at both.  (The autoscaler writes once
per scaling event; these runs do not scale.)
"""

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.config import ServeConfig
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu.multidevice import DevicePool
from repro.observability.metrics import Counter, Gauge, MetricsRegistry
from repro.serving import ArrivalProcess, InferenceServer, RequestStream

from tests.cluster.conftest import NUM_CLASSES, NUM_FEATURES

SERVE = ServeConfig(max_batch=8, max_queue=4)


@pytest.fixture()
def writes(monkeypatch):
    """Every registry write of the test, by method name."""
    log = []
    for cls, name in ((MetricsRegistry, "counter"),
                      (MetricsRegistry, "gauge"),
                      (MetricsRegistry, "histogram"),
                      (Counter, "inc"), (Gauge, "set")):
        method = getattr(cls, name)

        def counted(self, *args, _method=method,
                    _name=f"{cls.__name__}.{name}"):
            log.append(_name)
            return _method(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return log


def _serve(compiled_model, num_requests):
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=0.0),
        seed=2,
    )
    arrivals = ArrivalProcess(2000.0, "bursty", seed=5)
    trace = RequestStream(stream, arrivals, deadline_s=0.02,
                          drift_every=0).generate(num_requests)
    pool = DevicePool(2, compiled_model.arch)
    pool.load_replicated(compiled_model)
    metrics = MetricsRegistry()
    report = InferenceServer(pool, SERVE, metrics=metrics).serve(trace)
    return metrics, report.dropped


def _cluster(compiled_model, tenant_mix, num_requests, policy):
    metrics = MetricsRegistry()
    config = ClusterConfig(tenants=tenant_mix, total_requests=num_requests,
                           num_replicas=2, policy=policy, seed=7,
                           serve=SERVE)
    return metrics, Cluster(compiled_model, config,
                            metrics=metrics).run().dropped


RUNS = {
    "serve": lambda model, mix, n: _serve(model, n),
    "round_robin": lambda model, mix, n: _cluster(model, mix, n,
                                                  "round_robin"),
    "least_queue": lambda model, mix, n: _cluster(model, mix, n,
                                                  "least_queue"),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_registry_writes_do_not_grow_with_the_trace(
        compiled_model, tenant_mix, writes, run):
    counts = []
    for num_requests in (500, 2000):
        del writes[:]
        metrics, dropped = RUNS[run](compiled_model, tenant_mix,
                                     num_requests)
        counts.append(len(writes))
        assert dropped > 0, "nothing dropped; weak test"
        assert metrics.counter("serve.requests").value == num_requests
    assert counts[0] == counts[1], \
        f"{counts[0]} registry writes at 500 requests, {counts[1]} at 2000"

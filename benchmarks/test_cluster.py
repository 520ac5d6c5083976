"""Fleet-scale cluster serving: replica scaling and elastic capacity.

Two claims that only show at fleet scale, both on the virtual clock:

- **Replica sweep** — the same 100k-request three-tenant superposition
  served by one replica and by eight: the single replica saturates
  (its device backlog grows without bound, so most deadlines miss),
  while the sharded fleet absorbs the load with a lower p99 and a
  higher throughput.
- **Autoscaler vs static fleets** — a 10× flash crowd hits a
  two-replica fleet over 400k requests.  A base-provisioned static
  fleet blows the deadline-miss SLA for the whole spike; a
  peak-provisioned one meets it but pays for peak capacity the whole
  run.  The autoscaler must beat *both at once*: fewer deadline misses
  than the base fleet AND a smaller device-seconds bill than the peak
  fleet, despite paying the modeled provisioning lead time on every
  scale-up, and it must shed capacity after the spike.

The sizes are fixed because the claims need them: over 30k or 100k
spike requests the autoscaler never scales down, and over 20k sweep
requests one replica's throughput is still above eight replicas'.
Run-to-run determinism of both configurations is asserted in
``tests/cluster/test_cluster.py``.
"""

import numpy as np
import pytest

import repro
from repro.cluster import AutoscalerConfig, ClusterConfig, DiurnalCurve, TenantSpec
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu import compile_model
from repro.hdc.encoder import NonlinearEncoder
from repro.hdc.model import HDCClassifier
from repro.nn import from_classifier
from repro.tflite import convert

NUM_FEATURES = 16
NUM_CLASSES = 3
DIMENSION = 256

SWEEP_REQUESTS = 100_000
SWEEP_SEED = 7
SPIKE_SEED = 11

# ~105k req/s against one device's ~87k req/s batch-8 service rate:
# one replica saturates, eight cruise.
TENANTS = (
    TenantSpec("interactive", rate_hz=60000.0, deadline_s=0.01),
    TenantSpec("bursty", rate_hz=30000.0, deadline_s=0.05,
               kind="bursty"),
    TenantSpec("background", rate_hz=15000.0, deadline_s=0.2),
)
SERVE = repro.ServeConfig(max_batch=8, max_queue=50_000)

# Flash-crowd section: 10x spike on the interactive tenant for one
# second against a two-replica fleet (~35k req/s base, ~260k spiked).
SPIKE_REQUESTS = 400_000
SPIKE_TENANTS = (
    TenantSpec("spiky", rate_hz=25000.0, deadline_s=0.01,
               curve=DiurnalCurve(spike_at_s=0.5, spike_duration_s=1.0,
                                  spike_factor=10.0)),
    TenantSpec("steady", rate_hz=10000.0, deadline_s=0.05),
)
PEAK_DEVICES_PER_REPLICA = 4  # provisioned for the 10x crowd
AUTOSCALER = AutoscalerConfig(
    interval_s=0.05, queue_high=1024, queue_low=64, miss_high=0.05,
    miss_low=0.01, up_streak=1, down_streak=4, cooldown_s=0.05,
    provision_s=0.1, max_devices=2 * PEAK_DEVICES_PER_REPLICA,
)


@pytest.fixture(scope="module")
def compiled():
    stream = DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=0.0),
        seed=2,
    )
    train_x, train_y = stream.next_batch(240)
    rng = np.random.default_rng(0)
    encoder = NonlinearEncoder(NUM_FEATURES, DIMENSION, seed=rng)
    classifier = HDCClassifier(dimension=DIMENSION, encoder=encoder,
                               seed=rng)
    classifier.fit(train_x, train_y, iterations=4,
                   num_classes=NUM_CLASSES)
    return compile_model(
        convert(from_classifier(classifier, include_argmax=True),
                train_x[:96])
    )


def _sweep_point(compiled, num_replicas):
    config = ClusterConfig(
        tenants=TENANTS, total_requests=SWEEP_REQUESTS,
        num_replicas=num_replicas, devices_per_replica=1,
        policy="round_robin", serve=SERVE, seed=SWEEP_SEED,
    )
    summary = repro.serve_cluster(compiled, config=config).summary()
    assert summary["num_requests"] >= SWEEP_REQUESTS
    return summary


def _spike_run(compiled, devices_per_replica, autoscaler=None):
    config = ClusterConfig(
        tenants=SPIKE_TENANTS, total_requests=SPIKE_REQUESTS,
        num_replicas=2, devices_per_replica=devices_per_replica,
        policy="round_robin", serve=SERVE, seed=SPIKE_SEED,
        autoscaler=autoscaler,
    )
    return repro.serve_cluster(compiled, config=config)


def test_replicas_absorb_a_saturating_load(compiled):
    one = _sweep_point(compiled, 1)
    eight = _sweep_point(compiled, 8)
    assert one["latency"]["p99_s"] > eight["latency"]["p99_s"]
    assert eight["throughput_rps"] > one["throughput_rps"]


def test_autoscaler_beats_both_static_fleets(compiled):
    base = _spike_run(compiled, devices_per_replica=1).summary()
    peak = _spike_run(compiled,
                      devices_per_replica=PEAK_DEVICES_PER_REPLICA).summary()
    report = _spike_run(compiled, devices_per_replica=1,
                        autoscaler=AUTOSCALER)
    actions = [event.action for event in report.scaling_events]
    assert "scale_up" in actions, "the spike never tripped scale-up"
    assert "scale_down" in actions, "capacity never shed after the spike"
    autoscaled = report.summary()
    assert (autoscaled["deadline_miss_rate"]
            < base["deadline_miss_rate"]), (
        "autoscaler did not reduce the miss rate over the "
        "base-provisioned static fleet"
    )
    assert autoscaled["device_seconds"] < peak["device_seconds"], (
        "autoscaler did not undercut the peak-provisioned fleet's "
        "device-seconds bill"
    )

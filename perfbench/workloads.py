"""The benchmark's workloads: inputs from a seed, then one measured pass.

Every pass runs the public flow ``repro.train`` → ``repro.deploy`` →
``repro.serve`` / ``repro.serve_cluster`` on inputs built by the
workload's ``setup``.  A pass returns its wall timings, the modeled
(virtual-clock) results, the request accounting the correctness gate
checks, and a digest of every modeled output.

Traffic is open loop at fixed virtual-clock rates; the benchmark feeds
the simulator as fast as it can, so wall time measures the program.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from repro import api
from repro.cluster import (
    AutoscalerConfig,
    ClusterConfig,
    DiurnalCurve,
    TenantSpec,
)
from repro.cluster.seeding import DOMAIN_PAYLOAD, child_seed
from repro.config import FleetSpec, PipelineConfig, ServeConfig
from repro.data.datasets import isolet
from repro.data.streams import DriftingStream, StreamConfig
from repro.hdc.bagging import BaggingConfig
from repro.observability.metrics import MetricsRegistry
from repro.serving.arrivals import ArrivalProcess, Request

@dataclass
class Outcome:
    """What one measured pass produced.

    Attributes:
        wall: Host seconds: ``wall_s`` (the whole pass), ``train_s``
            and ``serve_s``.
        offered: Requests the workload offered.
        accounted: Requests served or dropped, by the per-request
            columns (a served request has a prediction and a finite
            latency; a dropped one has neither).
        modeled: The ``modeled_*`` end-to-end metrics and
            ``accuracy``: virtual-clock values, exact per seed.
        serving: Modeled serving counts (``serving.batches``,
            ``serving.mean_batch``, ``serving.dropped``).
        digest: sha256 of predictions, latencies and summary JSON.
    """

    wall: dict
    offered: int
    accounted: int
    modeled: dict
    serving: dict
    digest: str


def _digest(predictions, latencies, summary: dict) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(predictions, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(latencies, dtype=np.float64).tobytes())
    digest.update(json.dumps(summary, sort_keys=True).encode())
    return digest.hexdigest()


def _accounted(reports, offered: int) -> int:
    """Requests whose columns say served or dropped, less any request
    the report counts differently from its own columns."""
    accounted = 0
    for report in reports:
        served = (report.predictions >= 0) & np.isfinite(report.latencies)
        dropped = (report.predictions == -1) & np.isnan(report.latencies)
        accounted += int(served.sum()) + int(dropped.sum())
        accounted -= abs(report.served - int(served.sum()))
        accounted -= abs(report.dropped - int(dropped.sum()))
    num_requests = sum(report.num_requests for report in reports)
    return accounted - abs(num_requests - offered)


def _outcome(trained, reports, summary, offered, device_s, wall) -> Outcome:
    """Fold the reports of one pass into an :class:`Outcome`."""
    predictions = np.concatenate([r.predictions for r in reports])
    latencies = np.concatenate([r.latencies for r in reports])
    labels = np.concatenate([r.labels for r in reports])
    served = predictions >= 0
    misses = sum(r.deadline_misses for r in reports)
    batches = sum(r.num_batches for r in reports)
    train_summary = trained.summary()
    # The worker-pool block holds measured host seconds, not model output.
    train_summary.pop("parallel", None)
    modeled = {
        "modeled_p99_s": summary["latency"]["p99_s"],
        "modeled_sla_attainment": (int(served.sum()) - misses) / offered,
        "modeled_device_s": device_s,
        "modeled_energy_j": summary["energy_j"],
        "modeled_train_s": train_summary["total_s"],
        "accuracy": float(np.mean(predictions[served] == labels[served])),
    }
    return Outcome(
        wall=wall,
        offered=offered,
        accounted=_accounted(reports, offered),
        modeled=modeled,
        serving={
            "serving.batches": batches,
            "serving.mean_batch": (sum(sum(r.batch_sizes) for r in reports)
                                   / batches),
            "serving.dropped": sum(r.dropped for r in reports),
        },
        digest=_digest(predictions, latencies,
                       {"train": train_summary, "serve": summary}),
    )


class IsoletPipeline:
    """The paper's configuration end to end.

    ISOLET surrogate (617 features, 26 classes) trained at d=10,000 with
    M=4 bagging, deployed on two Edge TPUs and served with the default
    ``ServeConfig`` as a labelled single-tenant Poisson trace below
    saturation.  Time goes into HDC training, compilation and the
    full-width int8 kernels; router and engine do little.
    """

    name = "isolet-pipeline"
    # Training is a large share of every pass; no extra samples needed.
    EXTRA_TRAINS = 0
    SIZES = {"full": {"samples": 2000, "requests": 3072},
             "tiny": {"samples": 260, "requests": 256}}
    RATE_HZ = 20_000.0
    DEADLINE_S = 0.01
    DEVICES = 2

    def __init__(self, size: str):
        self.samples = self.SIZES[size]["samples"]
        self.requests = self.SIZES[size]["requests"]

    def setup(self, seed: int) -> dict:
        data = isolet(max_samples=self.samples, seed=seed).normalized()
        arrival_seed, pick_seed = np.random.SeedSequence(seed).spawn(2)
        times = ArrivalProcess(self.RATE_HZ, seed=arrival_seed).times(
            self.requests)
        picks = np.random.default_rng(pick_seed).integers(
            0, len(data.test_x), size=self.requests)
        trace = [
            Request(index, arrival, arrival + self.DEADLINE_S,
                    data.test_x[pick], int(data.test_y[pick]))
            for index, (arrival, pick)
            in enumerate(zip(times.tolist(), picks.tolist()))
        ]
        config = PipelineConfig(
            dimension=10_000,
            bagging=BaggingConfig(num_models=4, dimension=10_000),
            seed=seed,
        )
        return {"x": data.train_x, "y": data.train_y, "config": config,
                "trace": trace, "classes": data.num_classes}

    def offered(self, inputs: dict) -> int:
        return len(inputs["trace"])

    def train(self, inputs: dict):
        return api.train(inputs["x"], inputs["y"], config=inputs["config"],
                         num_classes=inputs["classes"])

    def run(self, inputs: dict) -> Outcome:
        clock = time.perf_counter
        start = clock()
        trained = self.train(inputs)
        trained_at = clock()
        deployment = api.deploy(
            trained, fleet=FleetSpec.single("edgetpu", count=self.DEVICES))
        serve_start = clock()
        report = api.serve(deployment, inputs["trace"])
        serve_end = clock()
        summary = report.summary()
        end = clock()
        wall = {"wall_s": end - start, "train_s": trained_at - start,
                "serve_s": serve_end - serve_start}
        # A static pool is online for the whole run.
        device_s = self.DEVICES * summary["makespan_s"]
        return _outcome(trained, [report], summary, len(inputs["trace"]),
                        device_s, wall)


class _Fleet:
    """Shared flow of the cluster workloads: a tiny 16→256→3 model,
    trained per pass, serving multi-tenant traffic on a fleet.

    The model trains on samples of every tenant's own payload stream
    (the same seed derivation the traffic generator uses), so served
    accuracy measures the model rather than a distribution mismatch.
    """

    DIMENSION = 256
    # The tiny model trains in under 0.1 s, and a pass serves for
    # seconds: time this many extra trainings after each pass, so the
    # ``train_s`` median rests on more than a handful of samples.
    EXTRA_TRAINS = 8
    SERVE = ServeConfig(max_batch=8, max_queue=50_000)
    SIZES: dict
    TENANTS: tuple
    REPLICAS: int
    POLICY: str
    AUTOSCALER: AutoscalerConfig | None = None
    METRICS = False

    def __init__(self, size: str):
        self.requests = self.SIZES[size]["requests"]
        self.train_per_tenant = self.SIZES[size]["train_per_tenant"]

    def setup(self, seed: int) -> dict:
        xs, ys = [], []
        for index, spec in enumerate(self.TENANTS):
            stream = DriftingStream(
                StreamConfig(num_features=spec.num_features,
                             num_classes=spec.num_classes, drift_rate=0.0),
                seed=child_seed(seed, DOMAIN_PAYLOAD, index),
            )
            x, y = stream.next_batch(self.train_per_tenant)
            xs.append(x)
            ys.append(y)
        config = PipelineConfig(dimension=self.DIMENSION, iterations=4,
                                seed=seed)
        cluster = ClusterConfig(
            tenants=self.TENANTS, total_requests=self.requests,
            num_replicas=self.REPLICAS, devices_per_replica=1,
            policy=self.POLICY, serve=self.SERVE, seed=seed,
            autoscaler=self.AUTOSCALER,
        )
        return {"x": np.vstack(xs), "y": np.concatenate(ys),
                "config": config, "cluster": cluster}

    def offered(self, inputs: dict) -> int:
        return inputs["cluster"].total_requests

    def train(self, inputs: dict):
        return api.train(inputs["x"], inputs["y"], config=inputs["config"],
                         num_classes=self.TENANTS[0].num_classes)

    def run(self, inputs: dict) -> Outcome:
        clock = time.perf_counter
        start = clock()
        trained = self.train(inputs)
        trained_at = clock()
        deployment = api.deploy(trained)
        serve_start = clock()
        report = api.serve_cluster(
            deployment, config=inputs["cluster"],
            metrics=MetricsRegistry() if self.METRICS else None)
        serve_end = clock()
        summary = report.summary()
        end = clock()
        wall = {"wall_s": end - start, "train_s": trained_at - start,
                "serve_s": serve_end - serve_start}
        return _outcome(trained, report.replica_reports, summary,
                        inputs["cluster"].total_requests,
                        summary["device_seconds"], wall)


class FleetSweep(_Fleet):
    """The cluster sweep traffic on four round-robin replicas.

    Three tenants (interactive, bursty, background) at ~105k req/s
    offered, ``max_batch=8``, on the vectorized fast path with a fully
    deferred epilogue.  Event engine, traffic chunking, routing and the
    report epilogue dominate; int8 compute is negligible.
    """

    name = "fleet-sweep"
    SIZES = {"full": {"requests": 200_000, "train_per_tenant": 5000},
             "tiny": {"requests": 5_000, "train_per_tenant": 100}}
    TENANTS = (
        TenantSpec("interactive", rate_hz=60000.0, deadline_s=0.01),
        TenantSpec("bursty", rate_hz=30000.0, deadline_s=0.05,
                   kind="bursty"),
        TenantSpec("background", rate_hz=15000.0, deadline_s=0.2),
    )
    REPLICAS = 4
    POLICY = "round_robin"


class FleetElastic(_Fleet):
    """A 10x flash crowd on two ``least_queue`` replicas, autoscaled.

    Two tenants; the spiky one jumps to ten times its rate for 0.1
    virtual seconds, about a quarter of the requests.  ``least_queue``
    routing takes the scalar per-arrival pump, so int8 runs per batch;
    the autoscaler and the attached metrics registry keep the
    bookkeeping from being deferred.
    """

    name = "fleet-elastic"
    SIZES = {"full": {"requests": 100_000, "train_per_tenant": 5000},
             "tiny": {"requests": 5_000, "train_per_tenant": 100}}
    TENANTS = (
        TenantSpec("spiky", rate_hz=25000.0, deadline_s=0.01,
                   curve=DiurnalCurve(spike_at_s=0.1, spike_duration_s=0.1,
                                      spike_factor=10.0)),
        TenantSpec("steady", rate_hz=10000.0, deadline_s=0.05),
    )
    AUTOSCALER = AutoscalerConfig(
        interval_s=0.05, queue_high=1024, queue_low=64, miss_high=0.05,
        miss_low=0.01, up_streak=1, down_streak=4, cooldown_s=0.05,
        provision_s=0.1, max_devices=8,
    )
    REPLICAS = 2
    POLICY = "least_queue"
    METRICS = True


WORKLOADS = {cls.name: cls for cls in (IsoletPipeline, FleetSweep,
                                       FleetElastic)}

"""Golden digests of every standalone ``serve()`` configuration.

Each digest is the sha256 of one run's predictions, latencies, tier
column, summary JSON, metrics summary and, for traced runs, every span.
``serve_digests.json`` holds them as computed before the dispatch path
stopped predicting per batch; any byte a later change moves in a
standalone run fails here.  If a move is intended, regenerate the file
with

    PYTHONPATH=src python -m tests.serving.test_serve_digests

and explain each diff.

The configurations cover the dynamic and fixed batchers, admission
drops, list and streamed input, labelled and unlabelled traces, a hot
swap, a device retry, CPU fallback after the pool is lost, a closed
loop, and a tier ladder that sheds; each runs untraced and traced.
"""

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.compression.tiers import TierSpec, build_tiers
from repro.config import ServeConfig, TierPolicy
from repro.data.streams import DriftingStream, StreamConfig
from repro.edgetpu import DevicePool, FailurePlan
from repro.hdc.bagging import BaggingConfig, BaggingHDCTrainer
from repro.observability.metrics import MetricsRegistry
from repro.serving import (
    ArrivalProcess,
    InferenceServer,
    ModelSwapper,
    RequestStream,
)
from tests.serving.conftest import (
    NUM_CLASSES,
    NUM_FEATURES,
    train_compiled,
)

GOLDEN = Path(__file__).with_name("serve_digests.json")

DYNAMIC_16 = ServeConfig(max_batch=16, slack_s=0.001)


def _stream(seed, drift_rate=0.0):
    return DriftingStream(
        StreamConfig(num_features=NUM_FEATURES, num_classes=NUM_CLASSES,
                     drift_rate=drift_rate),
        seed=seed,
    )


def _trace(stream, rate_hz, kind, seed, num_requests, deadline_s=0.04,
           **arrival_kwargs):
    arrivals = ArrivalProcess(rate_hz, kind, seed=seed, **arrival_kwargs)
    return list(RequestStream(stream, arrivals, deadline_s=deadline_s,
                              drift_every=1).generate(num_requests))


def _inputs() -> dict:
    """Models and traces, built once from fixed seeds."""
    stream = _stream(2)
    train_x, train_y = stream.next_batch(300)
    compiled = train_compiled(train_x, train_y)
    replacement = train_compiled(*stream.next_batch(200), seed=17)
    trace = _trace(stream, 300.0, "poisson", 5, 300)
    bursty = _trace(stream, 3000.0, "bursty", 6, 400, deadline_s=0.004,
                    burst_factor=8.0, burst_length=32, calm_length=64)
    tier_stream = _stream(9)
    x, y = tier_stream.next_batch(300)
    trainer = BaggingHDCTrainer(
        BaggingConfig(num_models=2, dimension=1024, iterations=3), seed=7)
    trainer.fit(x, y)
    ladder = build_tiers(
        trainer.fuse(), x[:96],
        specs=(TierSpec("full"),
               TierSpec("compressed", "dpq", dimension=256)),
        evaluation=(x, y),
    )
    return {"compiled": compiled, "replacement": replacement,
            "trace": trace, "bursty": bursty, "ladder": ladder}


def _unlabelled(trace):
    return [dataclasses.replace(r, label=None) for r in trace]


def _closed_loop(trace):
    return [dataclasses.replace(r, arrival_s=0.0, deadline_s=np.inf)
            for r in trace]


def _pool(compiled, num_devices):
    pool = DevicePool(num_devices, compiled.arch)
    pool.load_replicated(compiled)
    return pool


def _plain(num_devices, config, trace_key="trace", transform=None,
           streamed=False, failure=None):
    def run(inputs, tracing):
        compiled = inputs["compiled"]
        pool = _pool(compiled, num_devices)
        if failure is not None:
            pool.schedule_failure(failure)
        trace = inputs[trace_key]
        if transform is not None:
            trace = transform(trace)
        server = InferenceServer(
            pool, dataclasses.replace(config, tracing=tracing))
        return server, server.serve(iter(trace) if streamed else trace)

    return run


def _swap(inputs, tracing):
    compiled, trace = inputs["compiled"], inputs["trace"]
    pool = _pool(compiled, 2)
    swapper = ModelSwapper(pool)
    swapper.schedule(inputs["replacement"], at_s=trace[150].arrival_s)
    server = InferenceServer(
        pool, dataclasses.replace(DYNAMIC_16, tracing=tracing),
        swapper=swapper)
    return server, server.serve(trace)


def _tiers(streamed):
    def run(inputs, tracing):
        ladder = inputs["ladder"]
        config = ServeConfig(
            max_batch=16, slack_s=0.001, tracing=tracing,
            tiers=TierPolicy(queue_high=4, headroom_s=0.002))
        server = InferenceServer(_pool(ladder[0].compiled, 1), config,
                                 tiers=ladder, metrics=MetricsRegistry())
        trace = inputs["bursty"]
        return server, server.serve(iter(trace) if streamed else trace)

    return run


CONFIGS = {
    "dynamic": _plain(2, DYNAMIC_16),
    "default": _plain(2, ServeConfig()),
    "fixed": _plain(2, ServeConfig(batcher="fixed", max_batch=8,
                                   timeout_s=0.01)),
    "drops": _plain(1, ServeConfig(batcher="fixed", max_batch=8,
                                   max_queue=4), trace_key="bursty"),
    "streamed": _plain(2, DYNAMIC_16, streamed=True),
    "unlabelled": _plain(2, DYNAMIC_16, transform=_unlabelled),
    "unlabelled_streamed": _plain(2, DYNAMIC_16, transform=_unlabelled,
                                  streamed=True),
    "retry": _plain(2, DYNAMIC_16,
                    failure=FailurePlan(0, at_s=0.2, mode="usb_stall")),
    "fallback": _plain(1, DYNAMIC_16,
                       failure=FailurePlan(0, at_s=0.2,
                                           mode="device_loss")),
    "fallback_streamed": _plain(1, DYNAMIC_16, streamed=True,
                                failure=FailurePlan(0, at_s=0.2,
                                                    mode="device_loss")),
    "closed_loop": _plain(2, ServeConfig(batcher="fixed", max_batch=32,
                                         max_queue=300),
                          transform=_closed_loop),
    "swap": _swap,
    "tiers": _tiers(streamed=False),
    "tiers_streamed": _tiers(streamed=True),
}


def digest(server, report) -> str:
    """sha256 over one run's per-request columns, summary, metrics and
    spans."""
    sha = hashlib.sha256()
    sha.update(np.ascontiguousarray(report.predictions,
                                    dtype=np.int64).tobytes())
    sha.update(np.ascontiguousarray(report.latencies,
                                    dtype=np.float64).tobytes())
    if report.request_tiers is not None:
        sha.update(np.ascontiguousarray(report.request_tiers,
                                        dtype=np.int64).tobytes())
    sha.update(json.dumps(report.summary(), sort_keys=True).encode())
    if server.metrics is not None:
        sha.update(json.dumps(server.metrics.summary(),
                              sort_keys=True).encode())
    if report.trace is not None:
        spans = [span.to_dict() for span in report.trace.spans]
        sha.update(json.dumps(spans, sort_keys=True).encode())
    return sha.hexdigest()


def compute_all(inputs) -> dict:
    return {f"{name}/{'traced' if tracing else 'untraced'}":
            digest(*CONFIGS[name](inputs, tracing))
            for name in sorted(CONFIGS) for tracing in (False, True)}


@pytest.fixture(scope="module")
def inputs():
    return _inputs()


@pytest.mark.parametrize("tracing", [False, True],
                         ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_standalone_serve_matches_golden_digest(inputs, name, tracing):
    golden = json.loads(GOLDEN.read_text())
    key = f"{name}/{'traced' if tracing else 'untraced'}"
    assert digest(*CONFIGS[name](inputs, tracing)) == golden[key]


def test_configs_reach_what_they_are_named_for(inputs):
    """Each configuration exercises the path its digest pins."""
    reports = {name: run(inputs, False)[1]
               for name, run in CONFIGS.items()}
    assert reports["drops"].dropped > 0
    assert reports["retry"].retried_batches > 0
    assert reports["fallback"].fallback_batches > 0
    assert reports["fallback_streamed"].fallback_batches > 0
    assert len(reports["swap"].swap_records) == 1
    assert reports["tiers"].tier_sheds > 0
    assert reports["tiers_streamed"].tier_sheds > 0
    assert reports["unlabelled"].labels is None
    assert reports["default"].labels is not None
    for report in reports.values():
        served = report.predictions >= 0
        assert int(served.sum()) == report.served


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute_all(_inputs()), indent=1,
                                 sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")

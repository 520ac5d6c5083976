"""Tracing must not change a single modeled second or prediction.

The tentpole contract of the observability subsystem: enabling the
tracer is purely additive.  These tests run the same work traced and
untraced — across worker counts, the thread pool, both inference paths
and the serving event loop — and assert bit-identical phase totals,
timings and predictions, plus the serving span invariants (one span per
request, device-span seconds summing to the report's busy seconds).
"""

import math

import numpy as np
import pytest

from repro.config import PipelineConfig, ServeConfig
from repro.edgetpu.multidevice import DevicePool, FailurePlan
from repro.observability.trace import Tracer
from repro.runtime.costs import generation_seconds
from repro.runtime.executor import ExecutorConfig, WorkerPool
from repro.runtime.pipeline import InferencePipeline, TrainingPipeline
from repro.serving.arrivals import Request
from repro.serving.server import InferenceServer
from repro.serving.swap import ModelSwapper
from repro.hdc.bagging import BaggingConfig


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(90, 18)).astype(np.float32)
    y = rng.integers(0, 3, size=90)
    return x, y


def _config(tracing, workers=1):
    return PipelineConfig(
        dimension=256, iterations=2, seed=5, tracing=tracing,
        bagging=BaggingConfig(num_models=4, dimension=256, iterations=2),
        executor=ExecutorConfig(workers=workers),
    )


class TestTrainingDeterminism:
    def test_traced_equals_untraced(self, data):
        x, y = data
        off = TrainingPipeline(_config(False)).run(x, y)
        on = TrainingPipeline(_config(True)).run(x, y)
        assert on.profiler.breakdown() == off.profiler.breakdown()
        assert on.profiler.total == off.profiler.total
        np.testing.assert_array_equal(
            on.fused.class_matrix, off.fused.class_matrix
        )
        assert off.trace is None
        assert on.trace is not None and len(on.trace.spans) > 0

    @pytest.mark.parametrize("workers", [1, 4])
    def test_worker_count_invariant(self, data, workers):
        x, y = data
        serial = TrainingPipeline(_config(True, workers=1)).run(x, y)
        result = TrainingPipeline(_config(True, workers=workers)).run(x, y)
        assert result.profiler.breakdown() == serial.profiler.breakdown()
        np.testing.assert_array_equal(
            result.fused.class_matrix, serial.fused.class_matrix
        )
        # The trace itself is worker-order-invariant (task-order splice).
        assert [s.to_dict() for s in result.trace.spans] == \
            [s.to_dict() for s in serial.trace.spans]

    def test_submodel_spans_present(self, data):
        x, y = data
        result = TrainingPipeline(_config(True, workers=2)).run(x, y)
        names = [s.name for s in result.trace.spans]
        assert names.count("submodel[0]") == 1
        assert names.count("submodel[3]") == 1
        assert "pipeline.train" in names
        assert "device.invoke" in names


def _traced_task(seconds):
    """One pool task: a private tracer charged ``seconds``."""
    tracer = Tracer()
    tracer.charge("encode", seconds, name="work")
    return tracer


class TestBackendInvariance:
    @pytest.mark.parametrize("backend", ["thread"])
    def test_task_order_merge_identical(self, backend):
        tasks = [0.25, 0.5, 0.125, 1.0]
        pool = WorkerPool(workers=2)
        locals_ = pool.map(_traced_task, tasks)
        assert pool.last_report.backend == backend
        merged = Tracer()
        for index, local in enumerate(locals_):
            merged.splice(local, f"task[{index}]")
        serial = Tracer()
        for index, seconds in enumerate(tasks):
            serial.splice(_traced_task(seconds), f"task[{index}]")
        assert [s.to_dict() for s in merged.spans] == \
            [s.to_dict() for s in serial.spans]


class TestInferenceDeterminism:
    @pytest.fixture(scope="class")
    def compiled(self, data):
        x, y = data
        return TrainingPipeline(
            PipelineConfig(dimension=256, iterations=2, seed=5)
        ).run(x, y).compiled

    def test_sequential_path(self, compiled, data):
        x, y = data
        off = InferencePipeline(compiled, batch=8).run(x, y)
        on = InferencePipeline(compiled, batch=8, tracing=True).run(x, y)
        assert on.seconds == off.seconds
        np.testing.assert_array_equal(on.predictions, off.predictions)
        assert off.trace is None
        assert sum(1 for s in on.trace.spans
                   if s.name == "device.invoke") == 12  # ceil(90 / 8)

    def test_dispatcher_path(self, compiled, data):
        # Multi-device offline inference: a closed-loop serve() on two
        # devices (every row at t=0, no deadline, fixed batches of 16).
        x, y = data
        trace = [Request(request_id=i, arrival_s=0.0, deadline_s=math.inf,
                         features=x[i], label=int(y[i]))
                 for i in range(len(x))]

        def run(tracing):
            pool = DevicePool(2, compiled.arch)
            pool.load_replicated(compiled)
            config = ServeConfig(batcher="fixed", max_batch=16,
                                 max_queue=len(trace), tracing=tracing)
            return InferenceServer(pool, config).serve(trace)

        off, on = run(False), run(True)
        assert on.summary() == off.summary()
        np.testing.assert_array_equal(on.predictions, off.predictions)
        np.testing.assert_array_equal(on.latencies, off.latencies)
        assert off.trace is None
        invokes = [s for s in on.trace.spans if s.name == "device.invoke"]
        assert len(invokes) == on.num_batches == 6  # ceil(90 / 16)
        assert {s.attrs["device"] for s in invokes} == {0, 1}


def _requests(x, y, rate_rps=1500.0, n=60, budget_s=0.01):
    rng = np.random.default_rng(3)
    times = np.cumsum(rng.exponential(1.0 / rate_rps, n))
    return [
        Request(request_id=i, arrival_s=float(t),
                deadline_s=float(t) + budget_s,
                features=x[i % len(x)], label=int(y[i % len(y)]))
        for i, t in enumerate(times)
    ]


class TestServingDeterminism:
    @pytest.fixture(scope="class")
    def compiled(self, data):
        x, y = data
        return TrainingPipeline(
            PipelineConfig(dimension=256, iterations=2, seed=5)
        ).run(x, y).compiled

    def _pool(self, compiled, fail=False):
        pool = DevicePool(2, compiled.arch)
        pool.load_replicated(compiled)
        if fail:
            pool.schedule_failure(FailurePlan(device_index=1, at_s=0.002))
        return pool

    def test_traced_equals_untraced(self, compiled, data):
        x, y = data
        requests = _requests(x, y)
        config_off = ServeConfig(max_batch=8, max_queue=4)
        config_on = ServeConfig(max_batch=8, max_queue=4, tracing=True)
        off = InferenceServer(self._pool(compiled, fail=True),
                              config_off).serve(requests)
        on = InferenceServer(self._pool(compiled, fail=True),
                             config_on).serve(requests)
        assert on.summary() == off.summary()
        np.testing.assert_array_equal(on.predictions, off.predictions)
        np.testing.assert_array_equal(on.latencies, off.latencies)
        assert off.trace is None

    def test_traced_equals_untraced_with_swap(self, compiled, data):
        # Hot swap commits mid-run (and now charges per-device
        # swap-load accounting); tracing must still be purely additive.
        x, y = data
        retrained = TrainingPipeline(
            PipelineConfig(dimension=256, iterations=2, seed=9)
        ).run(x, y).compiled
        gen_s = generation_seconds(retrained.weight_bytes)
        # Stretch the trace to ~3x the modelgen time so the swap
        # scheduled at t=0 commits well inside the run.
        requests = _requests(x, y, rate_rps=60 / (3 * gen_s), n=60,
                             budget_s=gen_s)

        def run(tracing):
            pool = self._pool(compiled)
            swapper = ModelSwapper(pool)
            swapper.schedule(retrained, at_s=0.0)
            server = InferenceServer(
                pool,
                ServeConfig(max_batch=8, max_queue=64, tracing=tracing),
                swapper=swapper,
            )
            return server.serve(requests)

        off, on = run(False), run(True)
        assert len(off.swap_records) == 1
        assert on.summary() == off.summary()
        assert on.device_swap_seconds == off.device_swap_seconds
        assert sum(on.device_swap_seconds) > 0
        np.testing.assert_array_equal(on.predictions, off.predictions)
        np.testing.assert_array_equal(on.latencies, off.latencies)
        assert off.trace is None
        swaps = [s for s in on.trace.spans if s.name == "model.swap"]
        assert len(swaps) == 1
        assert swaps[0].attrs["load_s"] > 0

    def test_span_per_request_including_drops(self, compiled, data):
        x, y = data
        requests = _requests(x, y)
        report = InferenceServer(
            self._pool(compiled),
            ServeConfig(max_batch=8, max_queue=4, tracing=True),
        ).serve(requests)
        assert report.dropped > 0
        request_spans = [s for s in report.trace.spans
                         if s.name == "request"]
        assert len(request_spans) == len(requests)
        dropped = [s for s in request_spans if "dropped" in s.tags]
        assert len(dropped) == report.dropped
        assert all(s.duration_s == 0.0 for s in dropped)
        ids = sorted(s.attrs["request_id"] for s in request_spans)
        assert ids == list(range(len(requests)))

    def test_device_span_seconds_equal_busy_seconds(self, compiled, data):
        x, y = data
        requests = _requests(x, y)
        report = InferenceServer(
            self._pool(compiled, fail=True),
            ServeConfig(max_batch=8, max_queue=64, tracing=True),
        ).serve(requests)
        assert report.retried_batches > 0
        per_device = [0.0] * 2
        for span in report.trace.spans:
            if span.name == "device.invoke":
                per_device[span.attrs["device"]] += span.attrs["elapsed_s"]
        assert per_device == report.device_busy_seconds

    def test_fallback_batches_traced(self, compiled, data):
        x, y = data
        requests = _requests(x, y, n=40)
        pool = DevicePool(1, compiled.arch)
        pool.load_replicated(compiled)
        pool.schedule_failure(FailurePlan(device_index=0, at_s=0.002))
        report = InferenceServer(
            pool, ServeConfig(max_batch=8, max_queue=64, tracing=True),
        ).serve(requests)
        assert report.fallback_batches > 0
        fallback = [s for s in report.trace.spans
                    if s.name == "host.fallback"]
        assert len(fallback) == report.fallback_batches
        assert all("fallback" in s.tags for s in fallback)
        detect = [s for s in report.trace.spans
                  if s.name == "device.detect"]
        assert detect and all("failure" in s.tags for s in detect)

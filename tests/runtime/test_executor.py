"""Tests for the parallel execution layer and offline multi-device
inference (worker pool, and closed-loop ``serve`` as the dispatcher)."""

import math

import numpy as np
import pytest

import repro
from repro.config import FleetSpec, ServeConfig
from repro.data import isolet
from repro.edgetpu import DevicePool, EdgeTpuDevice, compile_model
from repro.hdc import BaggingConfig, BaggingHDCTrainer
from repro.nn import from_classifier, from_fused
from repro.runtime import InferencePipeline, PhaseProfiler
from repro.runtime.executor import (
    ExecutorConfig,
    ParallelReport,
    WorkerPool,
    simulate_makespan,
    spawn_rngs,
)
from repro.serving import InferenceServer
from repro.serving.arrivals import Request
from repro.tflite import convert


def _square(value):
    return value * value


class TestExecutorConfig:
    def test_defaults_are_sequential_single_device(self):
        assert ExecutorConfig() == ExecutorConfig(workers=1)

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0),
        dict(workers=-1),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorConfig(**kwargs)

    def test_has_no_placement_knob(self):
        with pytest.raises(TypeError):
            ExecutorConfig(placement="shard")

    def test_coerce(self):
        assert ExecutorConfig.coerce(None) == ExecutorConfig()
        assert ExecutorConfig.coerce(4).workers == 4
        config = ExecutorConfig(workers=2)
        assert ExecutorConfig.coerce(config) is config
        with pytest.raises(TypeError):
            ExecutorConfig.coerce("four")


class TestSpawnRngs:
    def test_children_are_deterministic(self):
        a = [rng.standard_normal(4) for rng in spawn_rngs(7, 3)]
        b = [rng.standard_normal(4) for rng in spawn_rngs(7, 3)]
        for left, right in zip(a, b):
            np.testing.assert_array_equal(left, right)

    def test_children_are_independent(self):
        children = spawn_rngs(7, 2)
        assert not np.array_equal(children[0].standard_normal(8),
                                  children[1].standard_normal(8))

    def test_generator_root_advances(self):
        root = np.random.default_rng(3)
        first = [rng.standard_normal(2) for rng in spawn_rngs(root, 2)]
        second = [rng.standard_normal(2) for rng in spawn_rngs(root, 2)]
        assert not np.array_equal(first[0], second[0])

    def test_seed_sequence_root(self):
        seq = np.random.SeedSequence(5)
        a = [rng.standard_normal(2) for rng in spawn_rngs(seq, 2)]
        b = [rng.standard_normal(2) for rng in spawn_rngs(np.random.SeedSequence(5), 2)]
        np.testing.assert_array_equal(a[0], b[0])

    def test_rejects_zero_children(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, 0)


class TestSimulateMakespan:
    def test_one_worker_is_serial_sum(self):
        assert simulate_makespan([1.0, 2.0, 3.0], 1) == 6.0

    def test_equal_tasks_split_evenly(self):
        assert simulate_makespan([1.0] * 4, 4) == 1.0
        assert simulate_makespan([1.0] * 4, 2) == 2.0

    def test_greedy_assignment(self):
        # Tasks [3, 1, 1, 1] on 2 lanes: 3 | 1+1+1 -> makespan 3.
        assert simulate_makespan([3.0, 1.0, 1.0, 1.0], 2) == 3.0

    def test_empty(self):
        assert simulate_makespan([], 4) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            simulate_makespan([1.0], 0)
        with pytest.raises(ValueError):
            simulate_makespan([-1.0], 2)


class TestWorkerPool:
    @pytest.mark.parametrize("workers,backend", [
        (1, "thread"), (3, "thread"),
    ])
    def test_ordered_results(self, workers, backend):
        pool = WorkerPool(workers)
        assert pool.map(_square, range(10)) == [v * v for v in range(10)]
        # One worker runs a plain loop; more run on threads.
        assert pool.last_report.backend == \
            ("serial" if workers == 1 else backend)

    def test_report_accounting(self):
        pool = WorkerPool(2)
        pool.map(_square, range(4))
        report = pool.last_report
        assert isinstance(report, ParallelReport)
        assert len(report.task_seconds) == 4
        assert report.serial_seconds >= report.makespan_seconds
        assert report.speedup >= 1.0
        assert report.wall_seconds > 0

    def test_serial_backend_label(self):
        pool = WorkerPool(1)
        pool.map(_square, [2])
        assert pool.last_report.backend == "serial"

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            WorkerPool(0)
        with pytest.raises(TypeError):
            WorkerPool(2, "process")  # threads only: no backend argument


@pytest.fixture(scope="module")
def fused_setup():
    """A trained fused model + its compiled forms, on a small ISOLET."""
    ds = isolet(max_samples=600, seed=7).normalized()
    config = BaggingConfig(num_models=3, dimension=768, iterations=2)
    trainer = BaggingHDCTrainer(config, seed=0)
    trainer.fit(ds.train_x, ds.train_y, num_classes=ds.num_classes)
    fused = trainer.fuse()
    calibration = ds.train_x[:128]
    fused_compiled = compile_model(convert(from_fused(fused), calibration))
    shard_compiled = [
        compile_model(convert(from_classifier(model), calibration))
        for model in trainer.sub_models
    ]
    return ds, fused, fused_compiled, shard_compiled


def _trace(x, y=None):
    """A closed-loop trace: every row arrives at t=0, no deadline."""
    return [Request(i, 0.0, math.inf, row,
                    None if y is None else int(y[i]))
            for i, row in enumerate(x)]


def _offline_config(micro_batch, rows):
    return ServeConfig(batcher="fixed", max_batch=micro_batch,
                       max_queue=rows)


def _closed_loop(compiled, x, devices, micro_batch, y=None):
    """Offline inference of ``x`` on ``devices`` replicated devices."""
    deployment = repro.deploy(compiled,
                              fleet=FleetSpec.single(count=devices))
    return repro.serve(deployment, _trace(x, y),
                       config=_offline_config(micro_batch, len(x)))


# What MicroBatchDispatcher(placement="replicate") reported for
# fused_setup's model on test_x[:101], recorded before closed-loop
# serve() replaced it: (devices, micro_batch) -> (makespan, per-device
# busy seconds, host seconds, batches).  Timing depends only on the
# model's shape and the cost model, never on trained values.
DISPATCH_ORACLE = {
    (1, 1): ("0x1.23bd923611cefp-7", ("0x1.23938e2e7321fp-7",),
             "0x1.09397019a3f6bp-11", 101),
    (1, 8): ("0x1.62d5578ad65d4p-10", ("0x1.6182e3bc44302p-10",),
             "0x1.144d19bef3a12p-14", 13),
    (2, 8): ("0x1.7dac12c2fb3cdp-11",
             ("0x1.7b072b25d6e29p-11", "0x1.47fe9c52b17dcp-11"),
             "0x1.144d19bef3a12p-14", 13),
    (4, 16): ("0x1.11790a6920bc2p-12",
              ("0x1.01686e36cdaadp-12", "0x1.01686e36cdaadp-12",
               "0x1.cd8aa983633e0p-13", "0x1.01686e36cdaadp-13"),
              "0x1.2cf1b1133e56bp-15", 7),
    (3, 7): ("0x1.13376bbe00173p-11",
             ("0x1.0b466154f6433p-11", "0x1.0b466154f6433p-11",
              "0x1.066e8b3fab585p-11"),
             "0x1.3e3e84d0ba72dp-14", 15),
    (2, 200): ("0x1.54b2677969810p-12",
               ("0x1.4e8941a456d39p-12", "0x0.0p+0"),
               "0x1.8a497544ab5b7p-18", 1),
}


class TestOfflineDispatchOracle:
    @pytest.mark.parametrize("devices,micro_batch", list(DISPATCH_ORACLE))
    def test_closed_loop_serve_reproduces_dispatcher(
            self, fused_setup, devices, micro_batch):
        ds, _, fused_compiled, _ = fused_setup
        x = ds.test_x[:101]
        report = _closed_loop(fused_compiled, x, devices, micro_batch)
        makespan, busy, host, batches = \
            DISPATCH_ORACLE[(devices, micro_batch)]
        assert report.makespan_s == float.fromhex(makespan)
        assert report.device_busy_seconds == \
            [float.fromhex(value) for value in busy]
        assert report.host_seconds == float.fromhex(host)
        assert report.num_batches == batches
        assert report.served == len(x) and report.dropped == 0
        single = InferencePipeline(fused_compiled, batch=micro_batch).run(x)
        np.testing.assert_array_equal(report.predictions,
                                      single.predictions)


class TestMicroBatchDispatcherReplicated:
    """Replicated micro-batch dispatch over a device pool, served as a
    closed-loop trace (the behaviour ``MicroBatchDispatcher``'s
    ``replicate`` placement had before ``serve()`` replaced it)."""

    def test_predictions_match_single_device(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        x = ds.test_x[:64]
        device = EdgeTpuDevice()
        device.load_model(fused_compiled)
        quantized = fused_compiled.model.input_spec.qparams.quantize(x)
        out = device.invoke(quantized).outputs
        for op in fused_compiled.cpu_ops:
            out = op.run(out)
        expected = out[:, 0] if fused_compiled.model.output_is_index \
            else np.argmax(out, axis=-1)

        report = _closed_loop(fused_compiled, x, 3, 16)
        np.testing.assert_array_equal(report.predictions, expected)
        assert report.num_batches == 4
        assert report.served == 64

    def test_overlap_beats_serial(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        report = _closed_loop(fused_compiled, ds.test_x[:64], 3, 8)
        serial = sum(report.device_busy_seconds) + report.host_seconds
        assert report.makespan_s < serial
        assert report.throughput > 0

    def test_more_devices_more_throughput(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup

        def throughput(devices):
            return _closed_loop(fused_compiled, ds.test_x[:96], devices,
                                8).throughput

        assert throughput(4) > throughput(1)

    def test_accuracy_and_profiler(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        x, y = ds.test_x[:64], ds.test_y[:64]
        profiler = PhaseProfiler()
        pool = DevicePool(2)
        pool.load_replicated(fused_compiled)
        server = InferenceServer(pool, _offline_config(16, len(x)),
                                 profiler=profiler)
        report = server.serve(_trace(x, y))
        assert 0.0 <= report.accuracy <= 1.0
        assert profiler.seconds("inference") == report.makespan_s

    def test_rejects_mixed_models(self, fused_setup):
        _, _, fused_compiled, shard_compiled = fused_setup
        pool = DevicePool(2)
        pool.load_replicated(fused_compiled)
        pool.reload(1, shard_compiled[0])
        with pytest.raises(ValueError, match="replicated"):
            InferenceServer(pool)

    def test_input_validation(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        trace = _trace(ds.test_x[:8])
        trace[2], trace[5] = (
            Request(2, 0.5, math.inf, trace[2].features),
            Request(5, 0.1, math.inf, trace[5].features),
        )
        deployment = repro.deploy(fused_compiled)
        with pytest.raises(ValueError, match="arrival order"):
            repro.serve(deployment, trace,
                        config=_offline_config(4, len(trace)))

    def test_empty_stream_returns_zero_result(self, fused_setup):
        # An idle tick in a streaming pipeline: no samples is a valid
        # run, not an error.
        ds, _, fused_compiled, _ = fused_setup
        report = _closed_loop(
            fused_compiled,
            np.zeros((0, ds.test_x.shape[1]), dtype=ds.test_x.dtype), 2, 8,
        )
        assert report.served == 0
        assert report.num_batches == 0
        assert report.predictions.shape == (0,)
        assert report.predictions.dtype == np.int64
        assert report.makespan_s == 0.0
        assert report.device_busy_seconds == [0.0, 0.0]
        assert report.utilization == 0.0
        assert report.accuracy is None

    def test_remainder_batch(self, fused_setup):
        # 50 samples at micro_batch=16 -> 3 full batches + one of 2.
        ds, _, fused_compiled, _ = fused_setup
        report = _closed_loop(fused_compiled, ds.test_x[:50], 2, 16)
        assert report.batch_sizes == [16, 16, 16, 2]
        assert report.served == 50
        assert report.predictions.shape == (50,)

    def test_micro_batch_larger_than_stream(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        report = _closed_loop(fused_compiled, ds.test_x[:24], 3, 256)
        assert report.batch_sizes == [24]
        assert report.served == 24

    def test_micro_batch_one_matches_full_batch(self, fused_setup):
        # Bit-exactness under the finest slicing: per-sample dispatch
        # must agree with a single full-batch dispatch.
        ds, _, fused_compiled, _ = fused_setup
        x = ds.test_x[:32]
        fine = _closed_loop(fused_compiled, x, 2, 1)
        full = _closed_loop(fused_compiled, x, 2, len(x))
        assert fine.num_batches == 32
        assert full.num_batches == 1
        np.testing.assert_array_equal(fine.predictions, full.predictions)

    def test_utilization_accounting(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        report = _closed_loop(fused_compiled, ds.test_x[:64], 3, 8)
        assert len(report.device_busy_seconds) == 3
        assert len(report.device_idle_seconds) == 3
        assert all(idle >= 0.0 for idle in report.device_idle_seconds)
        assert 0.0 < report.utilization <= 1.0

    def test_unloaded_pool_rejected(self):
        with pytest.raises(RuntimeError, match="load"):
            InferenceServer(DevicePool(2))

    def test_bad_construction(self):
        with pytest.raises(ValueError, match="max_batch"):
            _offline_config(0, 8)
        with pytest.raises(ValueError, match="batcher"):
            ServeConfig(batcher="mirror")

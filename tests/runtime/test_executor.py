"""Tests for the parallel execution layer (worker pool + dispatcher)."""

import numpy as np
import pytest

from repro.data import isolet
from repro.edgetpu import DevicePool, EdgeTpuDevice, compile_model
from repro.hdc import BaggingConfig, BaggingHDCTrainer
from repro.nn import from_classifier, from_fused
from repro.platforms import MobileCpu
from repro.runtime import PhaseProfiler
from repro.runtime.executor import (
    ExecutorConfig,
    MicroBatchDispatcher,
    ParallelReport,
    WorkerPool,
    simulate_makespan,
    spawn_rngs,
)
from repro.tflite import convert


def _square(value):
    return value * value


class TestExecutorConfig:
    def test_defaults_are_sequential_single_device(self):
        config = ExecutorConfig()
        assert config.workers == 1
        assert config.micro_batch is None
        assert config.num_devices == 1

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0),
        dict(micro_batch=0),
        dict(num_devices=0),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            ExecutorConfig(**kwargs)

    def test_has_no_placement_knob(self):
        # InferencePipeline always replicates; a placement field would
        # be read by nothing.  MicroBatchDispatcher keeps its own.
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


class TestMicroBatchDispatcherReplicated:
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

        pool = DevicePool(3)
        pool.load_replicated(fused_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=16)
        result = dispatcher.dispatch(x)
        np.testing.assert_array_equal(result.predictions, expected)
        assert result.num_batches == 4
        assert result.samples == 64

    def test_overlap_beats_serial(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        pool = DevicePool(3)
        pool.load_replicated(fused_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=8)
        result = dispatcher.dispatch(ds.test_x[:64])
        assert result.makespan_seconds < result.serial_seconds
        assert result.speedup > 1.0
        assert result.throughput > 0

    def test_more_devices_more_throughput(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup

        def throughput(num_devices):
            pool = DevicePool(num_devices)
            pool.load_replicated(fused_compiled)
            dispatcher = MicroBatchDispatcher(pool, micro_batch=8)
            return dispatcher.dispatch(ds.test_x[:96]).throughput

        assert throughput(4) > throughput(1)

    def test_accuracy_and_profiler(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        profiler = PhaseProfiler()
        pool = DevicePool(2)
        pool.load_replicated(fused_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=16,
                                          profiler=profiler)
        result = dispatcher.dispatch(ds.test_x[:64], ds.test_y[:64])
        assert 0.0 <= result.accuracy <= 1.0
        assert profiler.seconds("inference") == result.makespan_seconds

    def test_rejects_mixed_models(self, fused_setup):
        ds, _, fused_compiled, shard_compiled = fused_setup
        pool = DevicePool(2)
        pool.load_models(shard_compiled[:2])
        dispatcher = MicroBatchDispatcher(pool, micro_batch=8)
        with pytest.raises(ValueError, match="replicated"):
            dispatcher.dispatch(ds.test_x[:8])

    def test_input_validation(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        pool = DevicePool(2)
        pool.load_replicated(fused_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=8)
        with pytest.raises(ValueError, match="2-D"):
            dispatcher.dispatch(np.zeros(5))
        with pytest.raises(ValueError, match="labels"):
            dispatcher.dispatch(ds.test_x[:8], ds.test_y[:5])

    def test_empty_stream_returns_zero_result(self, fused_setup):
        # An idle tick in a streaming pipeline: no samples is a valid
        # dispatch, not an error.
        ds, _, fused_compiled, _ = fused_setup
        pool = DevicePool(2)
        pool.load_replicated(fused_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=8)
        result = dispatcher.dispatch(
            np.zeros((0, ds.test_x.shape[1]), dtype=ds.test_x.dtype)
        )
        assert result.samples == 0
        assert result.num_batches == 0
        assert result.predictions.shape == (0,)
        assert result.predictions.dtype == np.int64
        assert result.makespan_seconds == 0.0
        assert result.device_seconds == [0.0, 0.0]
        assert result.utilization == 0.0
        assert result.accuracy is None

    def test_remainder_batch(self, fused_setup):
        # 50 samples at micro_batch=16 -> 3 full batches + one of 2.
        ds, _, fused_compiled, _ = fused_setup
        pool = DevicePool(2)
        pool.load_replicated(fused_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=16)
        result = dispatcher.dispatch(ds.test_x[:50])
        assert result.num_batches == 4
        assert result.samples == 50
        assert result.predictions.shape == (50,)

    def test_micro_batch_larger_than_stream(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        pool = DevicePool(3)
        pool.load_replicated(fused_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=256)
        result = dispatcher.dispatch(ds.test_x[:24])
        assert result.num_batches == 1
        assert result.samples == 24

    def test_micro_batch_one_matches_full_batch(self, fused_setup):
        # Bit-exactness under the finest slicing: per-sample dispatch
        # must agree with a single full-batch dispatch.
        ds, _, fused_compiled, _ = fused_setup
        x = ds.test_x[:32]
        pool = DevicePool(2)
        pool.load_replicated(fused_compiled)
        fine = MicroBatchDispatcher(pool, micro_batch=1).dispatch(x)
        full = MicroBatchDispatcher(pool, micro_batch=len(x)).dispatch(x)
        assert fine.num_batches == 32
        assert full.num_batches == 1
        np.testing.assert_array_equal(fine.predictions, full.predictions)

    def test_utilization_accounting(self, fused_setup):
        ds, _, fused_compiled, _ = fused_setup
        pool = DevicePool(3)
        pool.load_replicated(fused_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=8)
        result = dispatcher.dispatch(ds.test_x[:64])
        assert isinstance(result.device_seconds, list)
        assert len(result.device_idle_seconds) == 3
        assert all(idle >= 0.0 for idle in result.device_idle_seconds)
        assert 0.0 < result.utilization <= 1.0

    def test_unloaded_pool_rejected(self, fused_setup):
        ds, *_ = fused_setup
        dispatcher = MicroBatchDispatcher(DevicePool(2), micro_batch=8)
        with pytest.raises(RuntimeError, match="load"):
            dispatcher.dispatch(ds.test_x[:8])

    def test_bad_construction(self, fused_setup):
        with pytest.raises(ValueError, match="micro_batch"):
            MicroBatchDispatcher(DevicePool(1), micro_batch=0)
        with pytest.raises(ValueError, match="placement"):
            MicroBatchDispatcher(DevicePool(1), placement="mirror")


class TestMicroBatchDispatcherSharded:
    def test_sharded_scores_match_fused(self, fused_setup):
        # The determinism satellite: sharded device-pool scores must
        # agree with the single-device fused model within quantization
        # tolerance (both are int8 views of the same float ensemble).
        ds, fused, _, shard_compiled = fused_setup
        x = ds.test_x[:48]
        pool = DevicePool(3)
        pool.load_models(shard_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=16,
                                          placement="shard")
        result = dispatcher.dispatch(x)
        float_scores = fused.scores(x)
        # Quantization tolerance: per-shard int8 score grids.
        steps = [c.tpu_ops[-1].output_qparams.scale for c in shard_compiled]
        tolerance = sum(steps) + 0.05 * np.abs(float_scores).max()
        assert np.max(np.abs(result.scores - float_scores)) < tolerance

    def test_sharded_predictions_mostly_match_fused(self, fused_setup):
        ds, fused, _, shard_compiled = fused_setup
        x = ds.test_x[:64]
        pool = DevicePool(3)
        pool.load_models(shard_compiled)
        dispatcher = MicroBatchDispatcher(pool, micro_batch=16,
                                          placement="shard")
        result = dispatcher.dispatch(x)
        agreement = np.mean(result.predictions == fused.predict(x))
        assert agreement > 0.9

    def test_sharded_timing_accounting(self, fused_setup):
        ds, _, _, shard_compiled = fused_setup
        pool = DevicePool(3)
        pool.load_models(shard_compiled)
        dispatcher = MicroBatchDispatcher(pool, host=MobileCpu(),
                                          micro_batch=16, placement="shard")
        result = dispatcher.dispatch(ds.test_x[:48])
        assert len(result.device_seconds) == 3
        assert result.host_seconds > 0
        assert result.makespan_seconds <= result.serial_seconds
        assert result.breakdown["host_tail"] == pytest.approx(
            result.host_seconds
        )

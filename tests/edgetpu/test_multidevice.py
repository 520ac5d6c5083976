"""Tests for the multi-accelerator device pool."""

import numpy as np
import pytest

from repro.data import isolet
from repro.edgetpu import DevicePool, EdgeTpuDevice, compile_model
from repro.hdc import BaggingConfig, BaggingHDCTrainer
from repro.nn import from_classifier
from repro.tflite import convert


@pytest.fixture(scope="module")
def ensemble():
    ds = isolet(max_samples=800, seed=7).normalized()
    config = BaggingConfig(num_models=3, dimension=768, iterations=2,
                           dataset_ratio=0.6)
    trainer = BaggingHDCTrainer(config, seed=0)
    trainer.fit(ds.train_x, ds.train_y, num_classes=ds.num_classes)
    compiled = [
        compile_model(convert(from_classifier(model), ds.train_x[:128]))
        for model in trainer.sub_models
    ]
    return ds, trainer, compiled


class TestDevicePool:
    def test_construction(self):
        pool = DevicePool(4)
        assert pool.num_devices == 4
        with pytest.raises(ValueError):
            DevicePool(0)

    def test_load_models(self, ensemble):
        # One sub-model per device: each device holds, and was charged
        # for, its own model.
        _, _, compiled = ensemble
        pool = DevicePool(3)
        seconds = [pool.reload(i, model) for i, model in enumerate(compiled)]
        assert all(s > 0 for s in seconds)
        assert pool.load_seconds == seconds
        assert pool.models == compiled

    def test_too_many_models_rejected(self, ensemble):
        # A 2-device pool has no device for a third sub-model.
        _, _, compiled = ensemble
        pool = DevicePool(2)
        with pytest.raises(ValueError, match="out of range"):
            for index, model in enumerate(compiled):
                pool.reload(index, model)

    def test_invoke_before_load(self):
        pool = DevicePool(2)
        with pytest.raises(RuntimeError, match="no model loaded"):
            pool.try_invoke(0, np.zeros((1, 4), dtype=np.int8))

    def test_parallel_scores_match_serial_ensemble(self, ensemble):
        # The sub-model-per-device ensemble: each device scores the
        # batch with its own sub-model, and the host sums the
        # dequantized scores.
        ds, trainer, compiled = ensemble
        x = ds.test_x[:32]
        scores = 0.0
        for model in compiled:
            device = EdgeTpuDevice()
            device.load_model(model)
            out = device.invoke(model.model.input_spec.qparams.quantize(x))
            scores = scores + model.tpu_ops[-1].output_qparams.dequantize(
                out.outputs
            )
        # Predictions should agree with the float ensemble consensus on
        # the vast majority of samples (int8 grids differ slightly).
        float_pred = trainer.predict(x)
        pool_pred = np.argmax(scores, axis=1)
        assert np.mean(pool_pred == float_pred) > 0.85

    def test_load_replicated(self, ensemble):
        ds, _, compiled = ensemble
        pool = DevicePool(3)
        slowest = pool.load_replicated(compiled[0])
        assert slowest > 0
        assert slowest == max(pool.load_seconds)
        assert len(pool.models) == 3
        assert all(model is compiled[0] for model in pool.models)
        # Every device answers with the same outputs as a lone device.
        quantized = compiled[0].model.input_spec.qparams.quantize(
            ds.test_x[:4]
        )
        outputs = [d.invoke(quantized).outputs for d in pool.devices]
        for out in outputs[1:]:
            np.testing.assert_array_equal(out, outputs[0])

    def test_rejects_1d_batch(self, ensemble):
        _, _, compiled = ensemble
        pool = DevicePool(3)
        pool.load_replicated(compiled[0])
        with pytest.raises(ValueError, match="2-D"):
            pool.try_invoke(0, np.zeros(617, dtype=np.int8))


class TestFailureInjection:
    def _quantized(self, ds, compiled, n=4):
        return compiled.model.input_spec.qparams.quantize(ds.test_x[:n])

    def test_failure_plan_validation(self):
        from repro.edgetpu import FailurePlan
        with pytest.raises(ValueError, match="device_index"):
            FailurePlan(device_index=-1, at_s=1.0)
        with pytest.raises(ValueError, match="at_s"):
            FailurePlan(device_index=0, at_s=-0.5)
        with pytest.raises(ValueError, match="mode"):
            FailurePlan(device_index=0, at_s=1.0, mode="meteor_strike")
        with pytest.raises(ValueError, match="detect_seconds"):
            FailurePlan(device_index=0, at_s=1.0, detect_seconds=-1.0)

    def test_healthy_invoke_passes_through(self, ensemble):
        ds, _, compiled = ensemble
        pool = DevicePool(2)
        pool.load_replicated(compiled[0])
        quantized = self._quantized(ds, compiled[0])
        result = pool.try_invoke(0, quantized, at_s=0.0)
        np.testing.assert_array_equal(
            result.outputs, pool.devices[1].invoke(quantized).outputs
        )
        assert pool.healthy_indices() == [0, 1]

    def test_armed_plan_trips_at_time(self, ensemble):
        from repro.edgetpu import DeviceFailedError, FailurePlan
        ds, _, compiled = ensemble
        pool = DevicePool(2)
        pool.load_replicated(compiled[0])
        pool.schedule_failure(FailurePlan(0, at_s=1.0, mode="usb_stall"))
        quantized = self._quantized(ds, compiled[0])
        # Before the trip time the device still answers.
        pool.try_invoke(0, quantized, at_s=0.5)
        with pytest.raises(DeviceFailedError) as info:
            pool.try_invoke(0, quantized, at_s=1.2)
        assert info.value.device_index == 0
        assert info.value.mode == "usb_stall"
        assert info.value.detect_seconds == pytest.approx(0.05)
        assert pool.failed == {0}
        assert pool.healthy_indices() == [1]
        assert pool.models[0] is None  # tripped device is unloaded

    def test_already_failed_raises_without_detect_cost(self, ensemble):
        from repro.edgetpu import DeviceFailedError, FailurePlan
        ds, _, compiled = ensemble
        pool = DevicePool(1)
        pool.load_replicated(compiled[0])
        pool.schedule_failure(FailurePlan(0, at_s=0.0, mode="device_loss"))
        quantized = self._quantized(ds, compiled[0])
        with pytest.raises(DeviceFailedError) as first:
            pool.try_invoke(0, quantized, at_s=0.1)
        assert first.value.detect_seconds == 0.0
        with pytest.raises(DeviceFailedError) as again:
            pool.try_invoke(0, quantized, at_s=0.2)
        assert again.value.detect_seconds == 0.0

    def test_custom_detect_seconds(self, ensemble):
        from repro.edgetpu import DeviceFailedError, FailurePlan
        ds, _, compiled = ensemble
        pool = DevicePool(1)
        pool.load_replicated(compiled[0])
        pool.schedule_failure(
            FailurePlan(0, at_s=0.0, mode="usb_stall", detect_seconds=0.2)
        )
        with pytest.raises(DeviceFailedError) as info:
            pool.try_invoke(0, self._quantized(ds, compiled[0]), at_s=0.0)
        assert info.value.detect_seconds == pytest.approx(0.2)

    def test_unload_and_reload(self, ensemble):
        ds, _, compiled = ensemble
        pool = DevicePool(2)
        pool.load_replicated(compiled[0])
        pool.unload(0)
        assert pool.models[0] is None
        load_s = pool.reload(0, compiled[1])
        assert load_s > 0
        assert pool.models[0] is compiled[1]

    def test_reload_refuses_failed_device(self, ensemble):
        from repro.edgetpu import DeviceFailedError, FailurePlan
        ds, _, compiled = ensemble
        pool = DevicePool(2)
        pool.load_replicated(compiled[0])
        pool.schedule_failure(FailurePlan(1, at_s=0.0, mode="device_loss"))
        with pytest.raises(DeviceFailedError):
            pool.try_invoke(1, self._quantized(ds, compiled[0]), at_s=0.0)
        with pytest.raises(RuntimeError, match="failed"):
            pool.reload(1, compiled[0])

    def test_load_replicated_skips_failed(self, ensemble):
        from repro.edgetpu import DeviceFailedError, FailurePlan
        ds, _, compiled = ensemble
        pool = DevicePool(2)
        pool.load_replicated(compiled[0])
        pool.schedule_failure(FailurePlan(0, at_s=0.0, mode="device_loss"))
        with pytest.raises(DeviceFailedError):
            pool.try_invoke(0, self._quantized(ds, compiled[0]), at_s=0.0)
        pool.load_replicated(compiled[1])
        assert pool.models[0] is None
        assert pool.models[1] is compiled[1]

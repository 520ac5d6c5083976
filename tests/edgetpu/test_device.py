"""Tests for the Edge TPU device simulator and delegated execution."""

import numpy as np
import pytest

from repro.edgetpu import EdgeTpuArch, EdgeTpuDevice, compile_model
from repro.runtime import InferencePipeline
from repro.tflite import FlatModel, Interpreter, TensorSpec
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric


@pytest.fixture()
def hdc_model(rng):
    n, d, k = 40, 256, 5
    in_qp = qparams_asymmetric(-4.0, 4.0)
    hid_qp = qparams_asymmetric(-25.0, 25.0)
    out_qp = qparams_asymmetric(-20.0, 20.0)
    fc1 = FullyConnectedOp.from_float(
        rng.standard_normal((n, d)).astype(np.float32), in_qp, hid_qp,
        name="encode")
    tanh = TanhOp(hid_qp, name="tanh")
    fc2 = FullyConnectedOp.from_float(
        rng.standard_normal((d, k)).astype(np.float32) * 0.05,
        tanh.output_qparams, out_qp, name="classify")
    return FlatModel("hdc", TensorSpec("input", (n,), in_qp),
                     [fc1, tanh, fc2, ArgmaxOp(out_qp, name="argmax")])


class TestDevice:
    def test_invoke_without_model_raises(self):
        with pytest.raises(RuntimeError, match="load_model"):
            EdgeTpuDevice().invoke(np.zeros((1, 4), dtype=np.int8))

    def test_load_returns_positive_time(self, hdc_model):
        device = EdgeTpuDevice()
        seconds = device.load_model(compile_model(hdc_model))
        assert seconds > 0
        assert device.stats.models_loaded == 1

    def test_arch_mismatch_rejected(self, hdc_model):
        compiled = compile_model(hdc_model, EdgeTpuArch(mxu_rows=32, mxu_cols=32))
        with pytest.raises(ValueError, match="different EdgeTpuArch"):
            EdgeTpuDevice().load_model(compiled)

    def test_outputs_match_reference_interpreter(self, hdc_model, rng):
        # Bit-identical execution: the device runs the TPU prefix ops;
        # compare to the reference interpreter's intermediate result.
        compiled = compile_model(hdc_model)
        device = EdgeTpuDevice()
        device.load_model(compiled)
        x = rng.uniform(-3, 3, (16, 40)).astype(np.float32)
        xq = hdc_model.input_spec.qparams.quantize(x)
        result = device.invoke(xq)
        expected = xq
        for op in compiled.tpu_ops:
            expected = op.run(expected)
        np.testing.assert_array_equal(result.outputs, expected)

    def test_invoke_timing_breakdown_sums(self, hdc_model, rng):
        device = EdgeTpuDevice()
        device.load_model(compile_model(hdc_model))
        xq = np.zeros((4, 40), dtype=np.int8)
        result = device.invoke(xq)
        assert result.elapsed_s == pytest.approx(sum(result.breakdown.values()))
        assert set(result.breakdown) == {
            "overhead", "input_transfer", "weight_streaming", "compute",
            "output_transfer",
        }

    def test_stats_accumulate(self, hdc_model):
        device = EdgeTpuDevice()
        device.load_model(compile_model(hdc_model))
        device.invoke(np.zeros((4, 40), dtype=np.int8))
        device.invoke(np.zeros((2, 40), dtype=np.int8))
        assert device.stats.invocations == 2
        assert device.stats.samples == 6
        assert device.stats.busy_seconds > 0
        assert device.stats.bytes_out == 6 * 5

    def test_input_validation(self, hdc_model):
        device = EdgeTpuDevice()
        device.load_model(compile_model(hdc_model))
        with pytest.raises(TypeError, match="int8"):
            device.invoke(np.zeros((1, 40), dtype=np.float32))
        with pytest.raises(ValueError, match="2-D"):
            device.invoke(np.zeros(40, dtype=np.int8))
        with pytest.raises(ValueError, match="width"):
            device.invoke(np.zeros((1, 41), dtype=np.int8))
        with pytest.raises(ValueError, match="empty"):
            device.invoke(np.zeros((0, 40), dtype=np.int8))

    def test_energy_scales_with_busy_time(self, hdc_model):
        device = EdgeTpuDevice()
        device.load_model(compile_model(hdc_model))
        e0 = device.energy_joules()
        device.invoke(np.zeros((64, 40), dtype=np.int8))
        assert device.energy_joules() > e0


class TestDelegatedExecutor:
    """Delegated execution: the compiled TPU prefix runs on the device,
    the CPU tail (the ARGMAX) on the host, through InferencePipeline."""

    def test_predictions_bit_identical_to_interpreter(self, hdc_model, rng):
        pipeline = InferencePipeline(compile_model(hdc_model), batch=32)
        x = rng.uniform(-3, 3, (32, 40)).astype(np.float32)
        np.testing.assert_array_equal(
            pipeline.run(x).predictions, Interpreter(hdc_model).predict(x)
        )

    def test_cpu_and_tpu_time_accounted(self, hdc_model, rng):
        pipeline = InferencePipeline(compile_model(hdc_model), batch=8)
        result = pipeline.run(rng.uniform(-3, 3, (8, 40)).astype(np.float32))
        host_tail = result.breakdown["host_tail"]
        assert host_tail > 0  # the argmax fallback
        assert result.seconds - host_tail > 0
        assert result.seconds == pytest.approx(
            sum(result.breakdown.values())
        )

    def test_custom_cpu_cost_hook(self, hdc_model, rng):
        # The host platform prices the fallback op, by its kind.
        calls = []

        class Host:
            def argmax_seconds(self, rows, width):
                calls.append(("ARGMAX", rows, width))
                return 1.0

        pipeline = InferencePipeline(compile_model(hdc_model), host=Host(),
                                     batch=8)
        result = pipeline.run(rng.uniform(-3, 3, (8, 40)).astype(np.float32))
        assert calls == [("ARGMAX", 8, 5)]
        assert result.breakdown["host_tail"] == 1.0

    def test_model_load_recorded(self, hdc_model):
        pipeline = InferencePipeline(compile_model(hdc_model))
        assert pipeline.model_load_seconds > 0

    def test_single_sample_roundtrip(self, hdc_model, rng):
        pipeline = InferencePipeline(compile_model(hdc_model))
        x = rng.uniform(-3, 3, (1, 40)).astype(np.float32)
        result = pipeline.run(x)
        assert result.predictions.shape == (1,)
        assert result.predictions[0] == Interpreter(hdc_model).predict(x)[0]


class TestPartitionHelper:
    def test_partition_shapes(self, hdc_model):
        compiled = compile_model(hdc_model)
        assert len(compiled.tpu_ops) == 3
        assert len(compiled.cpu_ops) == 1

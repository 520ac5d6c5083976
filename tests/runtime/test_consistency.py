"""Cross-validation: the analytic cost model vs the functional pipeline.

The runtime figures (5/6/10) come from the analytic ``CostModel``; the
functional ``TrainingPipeline``/``InferencePipeline`` charge time from
the same latency model while actually executing the simulated device.
``TestOneLatencyModel`` pins the device term exactly on every backend;
the phase tests pin their agreement at a reduced (fast) shape.
"""

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.data import isolet, specs
from repro.edgetpu import backend_names, compile_model, make_arch
from repro.runtime import (
    CostModel,
    HdcTrainingConfig,
    InferencePipeline,
    TrainingPipeline,
    Workload,
)
from repro.tflite import FlatModel, TensorSpec
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric, qparams_symmetric

# (n, d, k): the five Table-I shapes at d = 10,000, a narrower hidden
# layer, and one whose weights exceed the Edge TPU's 8 MiB buffer (on
# the 4 MiB `edgetpu-small`, every d = 10,000 shape but PAMAP2's does).
_SHAPES = [(spec.num_features, 10_000, spec.num_classes)
           for spec in specs()] + [(617, 2048, 26), (1024, 10_000, 26)]


@pytest.fixture(scope="module")
def hdc_models():
    """Encoder and inference flat models with real int8 weights, per
    shape (no bias, as the pipelines compile them)."""
    rng = np.random.default_rng(0)
    in_qp = qparams_asymmetric(-4.0, 4.0)
    hid_qp = qparams_asymmetric(-40.0, 40.0)
    out_qp = qparams_asymmetric(-30.0, 30.0)
    w_qp = qparams_symmetric(1.0)
    models = {}
    for n, d, k in _SHAPES:
        encode = FullyConnectedOp(
            rng.integers(-127, 128, (n, d), dtype=np.int8), in_qp, w_qp,
            hid_qp, name="encode")
        tanh = TanhOp(hid_qp)
        classify = FullyConnectedOp(
            rng.integers(-127, 128, (d, k), dtype=np.int8),
            tanh.output_qparams, w_qp, out_qp, name="classify")
        spec = TensorSpec("input", (n,), in_qp)
        models[n, d, k] = (
            FlatModel("encoder", spec, [encode, tanh]),
            FlatModel("hdc", spec, [encode, tanh, classify, ArgmaxOp(out_qp)]),
        )
    return models


class TestOneLatencyModel:
    """``CostModel`` prices the paper's figures with the very function
    every compiled model's device charge reads, on every backend."""

    @pytest.mark.parametrize(
        "shape", _SHAPES, ids=lambda shape: "x".join(map(str, shape)))
    @pytest.mark.parametrize("backend", backend_names())
    def test_cost_model_equals_compiled_invoke_seconds(
            self, hdc_models, backend, shape):
        n, d, k = shape
        arch = make_arch(backend)
        cm = CostModel(arch=arch)
        encoder, inference = (compile_model(model, arch)
                              for model in hdc_models[shape])
        for batch in (1, 8, 256):
            assert cm.invoke_seconds([(n, d)], batch) == \
                encoder.invoke_seconds(batch)
            assert cm.invoke_seconds([(n, d), (d, k)], batch) == \
                inference.invoke_seconds(batch)


@pytest.fixture(scope="module")
def setup():
    ds = isolet(max_samples=1200, seed=13).normalized()
    dimension = 1024
    pipeline = TrainingPipeline(
        PipelineConfig(dimension=dimension, iterations=5, seed=13),
    )
    result = pipeline.run(ds.train_x, ds.train_y,
                          num_classes=ds.num_classes)
    workload = Workload("isolet-small", ds.num_train, ds.num_test,
                        ds.num_features, ds.num_classes)
    config = HdcTrainingConfig(dimension=dimension, iterations=5)
    return ds, result, workload, config


class TestTrainingConsistency:
    def test_encode_phase_agrees(self, setup):
        ds, result, workload, config = setup
        cm = CostModel()
        analytic = cm.tpu_encode_seconds(
            workload.num_train, workload.num_features, config.dimension,
        )
        functional = result.profiler.seconds("encode")
        # The functional path adds the host dequantization of N x d
        # values; the device term is the same latency model.
        dequantize = cm.host.elementwise_seconds(
            workload.num_train * config.dimension
        )
        assert functional == pytest.approx(analytic + dequantize,
                                           rel=1e-12)

    def test_update_phase_agrees(self, setup):
        ds, result, workload, config = setup
        cm = CostModel()
        # The analytic model assumes mistake_fraction=0.2; the functional
        # pipeline charges the *actual* per-pass update counts.  They
        # should land within a small factor of each other.
        analytic = cm.update_seconds(
            workload.num_train, config.dimension, workload.num_classes,
            iterations=config.iterations, mistake_fraction=0.2,
            chunk_size=64,
        )
        functional = result.profiler.seconds("update")
        assert 0.2 * analytic < functional < 5 * analytic

    def test_modelgen_phase_agrees(self, setup):
        ds, result, workload, config = setup
        cm = CostModel()
        params = (
            2 * workload.num_features * config.dimension
            + config.dimension * workload.num_classes
        )
        analytic = cm.modelgen_seconds(params)
        functional = result.profiler.seconds("modelgen")
        assert 0.3 * analytic < functional < 3 * analytic


class TestInferenceConsistency:
    def test_per_sample_latency_agrees(self, setup):
        ds, result, workload, config = setup
        cm = CostModel()
        analytic = cm.tpu_inference(workload, config)
        inference = InferencePipeline(result.compiled, batch=1)
        functional = inference.run(ds.test_x).seconds
        # Same shapes, same arch, same latency model: equal up to the
        # order the per-batch charges are added in.
        assert functional == pytest.approx(analytic, rel=1e-12)

    def test_device_breakdown_dominated_by_overhead_at_batch1(self, setup):
        ds, result, _, _ = setup
        inference = InferencePipeline(result.compiled, batch=1)
        outcome = inference.run(ds.test_x[:64])
        breakdown = outcome.breakdown
        assert breakdown["overhead"] > breakdown["compute"]
        assert breakdown["overhead"] > breakdown["input_transfer"]

    def test_fig10_shape_holds_functionally(self, setup):
        # The analytic Fig. 10 ordering must also hold when measured on
        # the functional device: wider inputs -> better encode speedup.
        import numpy as np
        from repro.edgetpu import EdgeTpuDevice, compile_model
        from repro.hdc import NonlinearEncoder
        from repro.nn import encoder_network
        from repro.tflite import convert

        cm = CostModel()
        rng = np.random.default_rng(0)

        def functional_speedup(n):
            encoder = NonlinearEncoder(n, 1024, seed=0)
            data = rng.standard_normal((512, n)).astype(np.float32)
            flat = convert(encoder_network(encoder), data[:64])
            compiled = compile_model(flat)
            device = EdgeTpuDevice()
            device.load_model(compiled)
            quantized = flat.input_spec.qparams.quantize(data)
            seconds = 0.0
            for start in range(0, 512, 256):
                seconds += device.invoke(
                    quantized[start:start + 256]
                ).elapsed_s
            return cm.cpu_encode_seconds(512, n, 1024) / seconds

        assert functional_speedup(700) > functional_speedup(30)

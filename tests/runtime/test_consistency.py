"""Cross-validation: the analytic cost model vs the functional pipeline.

The runtime figures (5/6/10) come from the analytic ``CostModel``; the
functional ``TrainingPipeline``/``InferencePipeline`` charge time from
the same platform primitives while actually executing the simulated
device.  If the two ever disagree structurally, one of them is lying —
these tests pin their agreement at a reduced (fast) shape.
"""

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.data import isolet
from repro.runtime import (
    CostModel,
    HdcTrainingConfig,
    InferencePipeline,
    TrainingPipeline,
    Workload,
)


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
        # The functional path adds host dequantization; allow 2x band.
        assert analytic < functional < 2.5 * analytic

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
        # Same shapes, same arch: the two estimates must track closely.
        assert functional == pytest.approx(analytic, rel=0.25)

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

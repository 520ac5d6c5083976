"""End-to-end integration tests across the whole stack."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import FleetSpec, PipelineConfig, ServeConfig
from repro.data import isolet, load
from repro.edgetpu import compile_model, lower
from repro.hdc import BaggingConfig, HDCClassifier
from repro.nn import from_classifier
from repro.runtime import InferencePipeline, TrainingPipeline
from repro.serving.arrivals import Request
from repro.tflite import FlatModel, Interpreter, convert


class TestFullStack:
    """The complete paper workflow, end to end, on one dataset."""

    @pytest.fixture(scope="class")
    def artifacts(self, tmp_path_factory):
        ds = isolet(max_samples=1200, seed=21).normalized()
        pipeline = TrainingPipeline(
            PipelineConfig(
                dimension=1024,
                bagging=BaggingConfig(num_models=4, dimension=1024,
                                      iterations=3, dataset_ratio=0.6),
                seed=21,
            ),
        )
        result = pipeline.run(ds.train_x, ds.train_y,
                              num_classes=ds.num_classes)
        path = tmp_path_factory.mktemp("integration") / "model.rtfl"
        result.inference_model.save(path)
        return ds, result, path

    def test_trained_accuracy(self, artifacts):
        ds, result, _ = artifacts
        assert result.fused.score(ds.test_x, ds.test_y) > 0.75

    def test_saved_model_deploys_identically(self, artifacts):
        ds, result, path = artifacts
        restored = FlatModel.load(path)
        original = Interpreter(result.inference_model).predict(ds.test_x)
        reloaded = Interpreter(restored).predict(ds.test_x)
        np.testing.assert_array_equal(original, reloaded)

    def test_three_execution_paths_bit_identical(self, artifacts):
        # Reference interpreter, inference pipeline, and a closed-loop
        # serve() on two devices — all must produce the same predictions.
        ds, result, _ = artifacts
        reference = Interpreter(result.inference_model).predict(ds.test_x)
        piped = InferencePipeline(result.compiled, batch=16).run(
            ds.test_x
        ).predictions
        trace = [Request(i, 0.0, math.inf, row)
                 for i, row in enumerate(ds.test_x)]
        served = repro.serve(
            repro.deploy(result, fleet=FleetSpec.single(count=2)), trace,
            config=ServeConfig(batcher="fixed", max_batch=16,
                               max_queue=len(trace)),
        ).predictions
        np.testing.assert_array_equal(reference, piped)
        np.testing.assert_array_equal(reference, served)

    def test_quantized_close_to_float(self, artifacts):
        ds, result, _ = artifacts
        float_acc = result.fused.score(ds.test_x, ds.test_y)
        quant_acc = float(np.mean(
            Interpreter(result.inference_model).predict(ds.test_x)
            == ds.test_y
        ))
        assert quant_acc > float_acc - 0.06

    def test_disassembly_consistent_with_timing(self, artifacts):
        _, result, _ = artifacts
        program = lower(result.compiled, batch=4)
        assert program.seconds() == pytest.approx(
            result.compiled.invoke_seconds(4)
        )


class TestEveryDatasetEndToEnd:
    @pytest.mark.parametrize("name", ["face", "ucihar", "mnist", "pamap2"])
    def test_train_quantize_deploy(self, name):
        ds = load(name, max_samples=700, seed=5).normalized()
        model = HDCClassifier(dimension=512, seed=5)
        model.fit(ds.train_x, ds.train_y, iterations=4,
                  num_classes=ds.num_classes)
        flat = convert(from_classifier(model, include_argmax=True),
                       ds.train_x[:128])
        compiled = compile_model(flat)
        predictions = InferencePipeline(compiled, batch=32).run(
            ds.test_x
        ).predictions
        accuracy = float(np.mean(predictions == ds.test_y))
        assert accuracy > model.score(ds.test_x, ds.test_y) - 0.1
        assert accuracy > 1.5 / ds.num_classes  # far better than chance


class TestDeterminismAcrossTheStack:
    def test_identical_seeds_identical_artifacts(self):
        ds = isolet(max_samples=600, seed=2).normalized()

        def build():
            pipeline = TrainingPipeline(
                PipelineConfig(dimension=512, iterations=2, seed=99),
            )
            result = pipeline.run(ds.train_x, ds.train_y,
                                  num_classes=ds.num_classes)
            return result.inference_model.to_bytes()

        assert build() == build()

    def test_modeled_times_machine_independent(self):
        # Virtual-clock determinism: repeated runs charge identical time.
        ds = isolet(max_samples=600, seed=2).normalized()

        def run_seconds():
            pipeline = TrainingPipeline(
                PipelineConfig(dimension=512, iterations=2, seed=7),
            )
            result = pipeline.run(ds.train_x, ds.train_y,
                                  num_classes=ds.num_classes)
            return result.profiler.total

        assert run_seconds() == run_seconds()


@given(
    n=st.integers(2, 24),
    d=st.integers(8, 96),
    k=st.integers(2, 5),
    seed=st.integers(0, 100),
)
@settings(max_examples=10, deadline=None)
def test_property_random_models_roundtrip_and_execute(n, d, k, seed):
    """Any trained model survives convert → serialize → compile → run."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((k, n)) * 3.0
    y = np.arange(60) % k
    x = (centers[y] + rng.standard_normal((60, n))).astype(np.float32)
    model = HDCClassifier(dimension=d, seed=seed)
    model.fit(x, y, iterations=2, num_classes=k)
    flat = convert(from_classifier(model, include_argmax=True), x)
    restored = FlatModel.from_bytes(flat.to_bytes())
    compiled = compile_model(restored)
    predictions = InferencePipeline(compiled, batch=16).run(x).predictions
    assert predictions.shape == (60,)
    assert predictions.min() >= 0 and predictions.max() < k

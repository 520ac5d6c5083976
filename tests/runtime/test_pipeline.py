"""Tests for the functional co-design pipelines (Fig. 1 / Fig. 3 flows)."""

import tracemalloc
import warnings

import numpy as np
import pytest

import repro
from repro.config import PipelineConfig
from repro.hdc import BaggingConfig, HDCClassifier
from repro.runtime import InferencePipeline, TrainingPipeline
from repro.runtime.costs import CostModel
from repro.runtime.executor import ExecutorConfig, cpu_op_seconds
from repro.runtime.pipeline import CompileCache


@pytest.fixture(scope="module")
def ds(request):
    from repro.data import isolet
    return isolet(max_samples=900, seed=11).normalized()


class TestTrainingPipeline:
    def test_single_model_flow(self, ds):
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=1024, iterations=4, seed=0),
        )
        result = pipeline.run(ds.train_x, ds.train_y)
        assert len(result.classifiers) == 1
        assert result.fused.dimension == 1024
        assert result.inference_model.output_is_index
        assert result.compiled.fully_mapped is False  # argmax on CPU

    def test_phase_accounting(self, ds):
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=1024, iterations=3, seed=0),
        )
        result = pipeline.run(ds.train_x, ds.train_y)
        profiler = result.profiler
        assert profiler.seconds("encode") > 0
        assert profiler.seconds("update") > 0
        assert profiler.seconds("modelgen") > 0
        assert profiler.total == pytest.approx(
            sum(profiler.breakdown().values())
        )

    def test_bagged_flow(self, ds):
        config = BaggingConfig(num_models=4, dimension=1024, iterations=2)
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=1024, bagging=config, seed=0),
        )
        result = pipeline.run(ds.train_x, ds.train_y)
        assert len(result.classifiers) == 4
        assert all(c.dimension == 256 for c in result.classifiers)
        assert result.fused.dimension == 1024

    def test_bagged_update_cheaper_than_full(self, ds):
        full = TrainingPipeline(
            PipelineConfig(dimension=1024, iterations=10, seed=0),
        )
        full_result = full.run(ds.train_x, ds.train_y)
        config = BaggingConfig(num_models=4, dimension=1024, iterations=3,
                               dataset_ratio=0.6)
        bagged = TrainingPipeline(
            PipelineConfig(dimension=1024, bagging=config, seed=0),
        )
        bagged_result = bagged.run(ds.train_x, ds.train_y)
        assert bagged_result.profiler.seconds("update") < \
            full_result.profiler.seconds("update")

    def test_trained_model_accuracy(self, ds):
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=2048, iterations=6, seed=0),
        )
        result = pipeline.run(ds.train_x, ds.train_y)
        accuracy = result.fused.score(ds.test_x, ds.test_y)
        assert accuracy > 0.75

    def test_parallel_bagged_training_bit_identical(self, ds):
        # The executor determinism contract, through the whole pipeline:
        # same fused weights AND same phase accounting for any workers.
        config = BaggingConfig(num_models=4, dimension=512, iterations=2)
        serial = TrainingPipeline(
            PipelineConfig(dimension=512, bagging=config, seed=0),
        ).run(ds.train_x, ds.train_y)
        parallel = TrainingPipeline(
            PipelineConfig(dimension=512, bagging=config, seed=0,
                           executor=ExecutorConfig(workers=4)),
        ).run(ds.train_x, ds.train_y)
        np.testing.assert_array_equal(serial.fused.base_matrix,
                                      parallel.fused.base_matrix)
        np.testing.assert_array_equal(serial.fused.class_matrix,
                                      parallel.fused.class_matrix)
        assert serial.profiler.breakdown() == parallel.profiler.breakdown()
        assert parallel.parallel is not None
        assert parallel.parallel.workers == 4
        assert len(parallel.parallel.task_seconds) == 4
        assert serial.parallel.workers == 1

    def test_single_model_run_has_no_parallel_report(self, ds):
        result = TrainingPipeline(
            PipelineConfig(dimension=256, iterations=1, seed=0),
        ).run(
            ds.train_x[:100], ds.train_y[:100], num_classes=ds.num_classes,
        )
        assert result.parallel is None

    def test_histories_returned(self, ds):
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=512, iterations=3, seed=0),
        )
        result = pipeline.run(ds.train_x, ds.train_y)
        assert result.histories[0].iterations == 3

    def test_validation(self, ds):
        with pytest.raises(ValueError):
            TrainingPipeline(PipelineConfig(dimension=0))
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=256, iterations=1, seed=0),
        )
        with pytest.raises(ValueError, match="2-D"):
            pipeline.run(ds.train_x[0], ds.train_y[:1])
        with pytest.raises(ValueError, match="labels"):
            pipeline.run(ds.train_x, ds.train_y[:-1])

    def test_negative_label_rejected_before_any_work(self, ds,
                                                     monkeypatch):
        # Numpy indexing would train a -1 label into the last class.
        monkeypatch.setattr("repro.runtime.pipeline.convert", _no_compile)
        labels = ds.train_y.copy()
        labels[7] = -1
        with pytest.raises(ValueError, match=r"label -1 .* 26 classes"):
            repro.train(ds.train_x, labels,
                        config=PipelineConfig(dimension=256, iterations=1),
                        num_classes=ds.num_classes)

    def test_label_past_num_classes_rejected_before_any_work(
            self, ds, monkeypatch):
        monkeypatch.setattr("repro.runtime.pipeline.convert", _no_compile)
        labels = ds.train_y % 3
        with pytest.raises(ValueError, match=r"label 2 .* 2 classes"):
            repro.train(ds.train_x, labels,
                        config=PipelineConfig(dimension=256, iterations=1),
                        num_classes=2)

    def test_deterministic_given_seed(self, ds):
        a = TrainingPipeline(
            PipelineConfig(dimension=512, iterations=2, seed=42),
        )
        b = TrainingPipeline(
            PipelineConfig(dimension=512, iterations=2, seed=42),
        )
        ra = a.run(ds.train_x, ds.train_y)
        rb = b.run(ds.train_x, ds.train_y)
        np.testing.assert_array_equal(
            ra.fused.base_matrix, rb.fused.base_matrix
        )
        np.testing.assert_array_equal(
            ra.fused.class_matrix, rb.fused.class_matrix
        )


def _no_compile(*args, **kwargs):
    raise AssertionError("a model was compiled before the labels were checked")


class TestTrainingGlue:
    """Training pays for its paper work, not for the glue around it."""

    def test_bagged_pipeline_without_a_cache_never_hashes(self, ds,
                                                          monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("CompileCache.key called without a cache")

        monkeypatch.setattr(CompileCache, "key", staticmethod(refuse))
        config = BaggingConfig(num_models=3, dimension=768, iterations=1)
        result = TrainingPipeline(
            PipelineConfig(dimension=768, bagging=config, seed=0),
        ).run(ds.train_x, ds.train_y)
        assert len(result.classifiers) == 3

    def test_encode_matches_stacked_per_batch_invokes(self, ds):
        from repro.edgetpu import EdgeTpuDevice, compile_model
        from repro.hdc import NonlinearEncoder
        from repro.nn.builder import encoder_network
        from repro.runtime.profiler import PhaseProfiler
        from repro.tflite import convert

        pipeline = TrainingPipeline(
            PipelineConfig(dimension=640, train_batch=64, seed=3),
        )
        encoder = NonlinearEncoder(ds.num_features, 640, seed=3)
        samples = ds.train_x[:150]  # batches of 64, 64 and a ragged 22
        got = pipeline._encode_on_device(encoder, samples, ds.train_x,
                                         PhaseProfiler())
        # Oracle: the device's own per-batch output copies, stacked, then
        # one whole-matrix float64 dequantize.
        flat = convert(encoder_network(encoder), ds.train_x[:256],
                       name="encoder")
        compiled = compile_model(flat, pipeline.arch)
        device = EdgeTpuDevice(pipeline.arch)
        device.load_model(compiled)
        quantized = flat.input_spec.qparams.quantize(samples)
        stacked = np.vstack([
            device.invoke(quantized[start:start + 64]).outputs
            for start in range(0, len(samples), 64)
        ])
        qparams = compiled.tpu_ops[-1].output_qparams
        want = ((stacked.astype(np.float64) - qparams.zero_point)
                * qparams.scale).astype(np.float32)
        assert got.dtype == np.float32 and got.shape == (150, 640)
        assert got.tobytes() == want.tobytes()

    def test_training_transient_memory_is_bounded(self):
        from repro.data import isolet

        data = isolet(max_samples=600, seed=1).normalized()
        config = PipelineConfig(
            dimension=4096, seed=1,
            bagging=BaggingConfig(num_models=4, dimension=4096),
        )
        tracemalloc.start()
        try:
            result = repro.train(data.train_x, data.train_y, config=config,
                                 num_classes=data.num_classes)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(result.classifiers) == 4
        # Whole-tensor float64 (de)quantize temporaries, the stacked
        # int8 encodings and a full-size |W| put ~25 MB on top of the
        # ~24 MB the result holds; the blocked, in-place flow ~2.6 MB.
        transient = peak - held
        assert transient < 12e6, f"transient peak {transient / 1e6:.1f} MB"


class TestInferencePipeline:
    @pytest.fixture(scope="class")
    def trained(self, ds):
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=2048, iterations=6, seed=0),
        )
        return pipeline.run(ds.train_x, ds.train_y)

    def test_accuracy_close_to_float(self, ds, trained):
        inference = InferencePipeline(trained.compiled, batch=16)
        result = inference.run(ds.test_x, ds.test_y)
        float_acc = trained.fused.score(ds.test_x, ds.test_y)
        assert result.accuracy > float_acc - 0.06

    def test_predictions_match_quantized_reference(self, ds, trained):
        from repro.tflite import Interpreter
        inference = InferencePipeline(trained.compiled, batch=8)
        result = inference.run(ds.test_x)
        expected = Interpreter(trained.inference_model).predict(ds.test_x)
        np.testing.assert_array_equal(result.predictions, expected)

    def test_batch1_slower_than_batched(self, ds, trained):
        single = InferencePipeline(trained.compiled, batch=1)
        batched = InferencePipeline(trained.compiled, batch=64)
        t_single = single.run(ds.test_x[:64]).seconds
        t_batched = batched.run(ds.test_x[:64]).seconds
        assert t_single > t_batched

    def test_timing_positive_and_linear_ish(self, ds, trained):
        inference = InferencePipeline(trained.compiled, batch=1)
        t10 = inference.run(ds.test_x[:10]).seconds
        t20 = InferencePipeline(trained.compiled, batch=1).run(
            ds.test_x[:20]
        ).seconds
        assert 0 < t10 < t20

    def test_accuracy_none_without_labels(self, ds, trained):
        inference = InferencePipeline(trained.compiled, batch=16)
        assert inference.run(ds.test_x[:8]).accuracy is None

    def test_label_length_checked(self, ds, trained):
        inference = InferencePipeline(trained.compiled, batch=16)
        with pytest.raises(ValueError, match="labels"):
            inference.run(ds.test_x[:8], ds.test_y[:7])

    def test_model_load_recorded(self, trained):
        inference = InferencePipeline(trained.compiled)
        assert inference.model_load_seconds > 0

    def test_bagged_inference_same_cost_model(self, ds):
        # Paper claim: the fused bagged model adds no inference overhead
        # versus a non-bagged model of the same width.
        full = TrainingPipeline(
            PipelineConfig(dimension=1024, iterations=3, seed=0),
        ).run(
            ds.train_x, ds.train_y
        )
        bagged = TrainingPipeline(
            PipelineConfig(
                dimension=1024,
                bagging=BaggingConfig(num_models=4, dimension=1024,
                                      iterations=2),
                seed=0,
            ),
        ).run(ds.train_x, ds.train_y)
        t_full = InferencePipeline(full.compiled, batch=1).run(
            ds.test_x[:32]
        ).seconds
        t_bagged = InferencePipeline(bagged.compiled, batch=1).run(
            ds.test_x[:32]
        ).seconds
        assert t_bagged == pytest.approx(t_full, rel=0.01)


class TestAgainstCpuBaseline:
    def test_pipeline_vs_pure_cpu_accuracy(self, ds):
        # The framework's model should be about as accurate as plain
        # host-only float HDC (paper Fig. 7).
        cpu_model = HDCClassifier(dimension=1024, seed=5)
        cpu_model.fit(ds.train_x, ds.train_y, iterations=6)
        cpu_acc = cpu_model.score(ds.test_x, ds.test_y)
        result = TrainingPipeline(
            PipelineConfig(dimension=1024, iterations=6, seed=5),
        ).run(
            ds.train_x, ds.train_y
        )
        tpu_acc = InferencePipeline(result.compiled, batch=32).run(
            ds.test_x, ds.test_y
        ).accuracy
        assert tpu_acc > cpu_acc - 0.08


class TestBaggedFeatureSampling:
    def test_feature_sampling_path(self, ds):
        config = BaggingConfig(num_models=2, dimension=512, iterations=2,
                               feature_ratio=0.5)
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=512, bagging=config, seed=3),
        )
        result = pipeline.run(ds.train_x, ds.train_y)
        # Each sub-encoder must have zeroed rows for unsampled features.
        for classifier in result.classifiers:
            base = classifier.encoder.base_hypervectors
            zero_rows = int(np.sum(~base.any(axis=1)))
            assert zero_rows == ds.num_features - round(0.5 * ds.num_features)
        # The fused model still predicts sensibly.
        assert result.fused.score(ds.test_x, ds.test_y) > 0.5


class TestCompileCache:
    def test_second_run_with_identical_weights_hits_cache(self, ds):
        cache = CompileCache()
        first = TrainingPipeline(
            PipelineConfig(dimension=512, iterations=2, seed=42),
            compile_cache=cache,
        )
        result_a = first.run(ds.train_x, ds.train_y)
        # One encoder + one inference compilation, nothing to reuse yet.
        assert cache.hits == 0
        assert cache.misses == 2
        # A fresh same-seed pipeline produces identical encoder weights
        # and (deterministically) identical inference weights -- both
        # compilations must be served from the cache.
        second = TrainingPipeline(
            PipelineConfig(dimension=512, iterations=2, seed=42),
            compile_cache=cache,
        )
        result_b = second.run(ds.train_x, ds.train_y)
        assert cache.hits == 2
        assert cache.misses == 2
        np.testing.assert_array_equal(
            result_a.fused.class_matrix, result_b.fused.class_matrix
        )
        # The cached run skips generation cost but still pays the device
        # model load, so modelgen stays positive and strictly cheaper.
        assert 0 < result_b.profiler.seconds("modelgen") < \
            result_a.profiler.seconds("modelgen")

    def test_different_weights_miss(self, ds):
        cache = CompileCache()
        TrainingPipeline(
            PipelineConfig(dimension=512, iterations=1, seed=1),
            compile_cache=cache,
        ).run(ds.train_x, ds.train_y)
        TrainingPipeline(
            PipelineConfig(dimension=512, iterations=1, seed=2),
            compile_cache=cache,
        ).run(ds.train_x, ds.train_y)
        assert cache.hits == 0
        assert cache.misses == 4

    def test_key_sensitive_to_content(self, ds):
        from repro.edgetpu import EdgeTpuArch
        from repro.nn import Network
        from repro.nn.layers import Dense
        rng = np.random.default_rng(0)
        weights = rng.standard_normal((8, 16)).astype(np.float32)
        calibration = rng.standard_normal((4, 8)).astype(np.float32)
        arch = EdgeTpuArch()
        base = CompileCache.key(
            Network(8, [Dense(weights)]), calibration, arch, "m",
        )
        bumped = weights.copy()
        bumped[0, 0] += 1.0
        assert CompileCache.key(
            Network(8, [Dense(bumped)]), calibration, arch, "m",
        ) != base
        assert CompileCache.key(
            Network(8, [Dense(weights)]), calibration * 2.0, arch, "m",
        ) != base
        assert CompileCache.key(
            Network(8, [Dense(weights)]), calibration,
            EdgeTpuArch(clock_hz=240e6), "m",
        ) != base
        assert CompileCache.key(
            Network(8, [Dense(weights)]), calibration, arch, "m",
        ) == base


class TestCostAccountingFixes:
    def test_bagged_update_charged_at_the_submodel_chunk_size(self, ds):
        # chunk_size=1 is the paper's strictly online rule: one kernel
        # dispatch per sample, which the update phase must be charged.
        config = BaggingConfig(num_models=2, dimension=512, iterations=2,
                               chunk_size=1)
        pipeline = TrainingPipeline(
            PipelineConfig(dimension=512, bagging=config, seed=0),
        )
        result = pipeline.run(ds.train_x[:300], ds.train_y[:300],
                              num_classes=ds.num_classes)
        costs = CostModel(host=pipeline.host,
                          train_batch=pipeline.train_batch)
        expected = 0.0
        for history in result.histories:
            for samples, updates in zip(history.samples_seen,
                                        history.updates):
                expected += costs.update_seconds(
                    samples, config.effective_sub_dimension,
                    ds.num_classes, iterations=1,
                    mistake_fraction=updates / samples, chunk_size=1,
                    platform=pipeline.host,
                )
        assert result.profiler.seconds("update") == pytest.approx(expected)

    def test_cpu_ops_charged_by_kind(self):
        from repro.platforms import MobileCpu
        from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
        from repro.tflite.quantization import QuantParams
        host = MobileCpu()
        qp = QuantParams(scale=0.05, zero_point=0, dtype="int8")
        argmax = ArgmaxOp(qp)
        tanh = TanhOp(qp)
        rng = np.random.default_rng(0)
        fc = FullyConnectedOp.from_float(
            rng.standard_normal((12, 5)).astype(np.float32), qp, qp,
        )
        assert cpu_op_seconds(host, argmax, 8, 12) == \
            host.argmax_seconds(8, 12)
        assert cpu_op_seconds(host, tanh, 8, 12) == \
            host.tanh_seconds(8 * 12)
        assert cpu_op_seconds(host, fc, 8, 12) == \
            host.matmul_seconds(8, 12, 5)
        # An op kind without a dedicated model falls back to elementwise
        # traffic -- not to argmax, which was the original bug.
        class DequantizeOp:
            kind = "DEQUANTIZE"
        assert cpu_op_seconds(host, DequantizeOp(), 8, 12) == \
            host.elementwise_seconds(8 * 12)
        assert cpu_op_seconds(host, DequantizeOp(), 8, 12) != \
            host.argmax_seconds(8, 12)

    def test_argmax_tail_charge_unchanged(self, ds, trained_small):
        # The standard inference model's only CPU op *is* the argmax, so
        # the per-kind dispatch must reproduce the original charge.
        compiled = trained_small.compiled
        assert [op.kind for op in compiled.cpu_ops] == ["ARGMAX"]
        inference = InferencePipeline(compiled, batch=4)
        samples = ds.test_x[:12]
        seconds = inference.run(samples).seconds
        expected_tail = 0.0
        width = compiled.plans[-1].output_dim
        for start in range(0, len(samples), 4):
            rows = len(samples[start:start + 4])
            expected_tail += inference.host.argmax_seconds(rows, width)
        assert seconds > expected_tail

    def test_breakdown_covers_one_run(self, ds, trained_small):
        # The breakdown is this run's, not the device's lifetime total:
        # a second run reports the same terms, and they add up to the
        # run's seconds (device terms plus the host tail).
        inference = InferencePipeline(trained_small.compiled, batch=8)
        first = inference.run(ds.test_x[:40])
        second = inference.run(ds.test_x[:40])
        assert second.breakdown == first.breakdown
        assert first.breakdown["host_tail"] > 0
        assert sum(first.breakdown.values()) == pytest.approx(first.seconds)
        assert second.seconds == first.seconds

    def test_empty_input(self, ds, trained_small):
        inference = InferencePipeline(trained_small.compiled, batch=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = inference.run(ds.test_x[:0], ds.test_y[:0])
        assert result.accuracy is None
        assert result.predictions.shape == (0,)
        assert result.seconds == 0.0
        assert "accuracy" not in result.summary()


@pytest.fixture(scope="module")
def trained_small(ds):
    pipeline = TrainingPipeline(
        PipelineConfig(dimension=512, iterations=2, seed=9),
    )
    return pipeline.run(ds.train_x, ds.train_y)


class TestScoresOnlyInference:
    def test_pipeline_handles_model_without_argmax(self, ds):
        from repro.edgetpu import compile_model
        from repro.nn import from_classifier
        from repro.tflite import convert
        model = HDCClassifier(dimension=512, seed=4)
        model.fit(ds.train_x, ds.train_y, iterations=3,
                  num_classes=ds.num_classes)
        flat = convert(from_classifier(model, include_argmax=False),
                       ds.train_x[:128])
        compiled = compile_model(flat)
        assert compiled.fully_mapped
        inference = InferencePipeline(compiled, batch=8)
        result = inference.run(ds.test_x, ds.test_y)
        assert result.accuracy > model.score(ds.test_x, ds.test_y) - 0.1

    def test_host_argmax_charged(self, ds):
        # Without an ARGMAX op the host takes the argmax over the class
        # scores, and pays for it: every batch costs its invoke plus
        # the argmax over that batch's scores.
        from repro.edgetpu import compile_model
        from repro.nn import from_classifier
        from repro.tflite import convert
        model = HDCClassifier(dimension=512, seed=4)
        model.fit(ds.train_x, ds.train_y, iterations=1,
                  num_classes=ds.num_classes)
        compiled = compile_model(convert(
            from_classifier(model, include_argmax=False), ds.train_x[:128],
        ))
        assert not compiled.cpu_ops
        assert not compiled.model.output_is_index
        inference = InferencePipeline(compiled, batch=8)
        result = inference.run(ds.test_x[:44])
        expected = 0.0
        tail = 0.0
        for rows in (8, 8, 8, 8, 8, 4):
            expected += compiled.invoke_seconds(rows)
            argmax = inference.host.argmax_seconds(rows, ds.num_classes)
            expected += argmax
            tail += argmax
        assert result.seconds == expected
        assert result.breakdown["host_tail"] == tail

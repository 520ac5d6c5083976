"""Tests for bagging-accelerated training and model fusion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import isolet
from repro.hdc import BaggingConfig, BaggingHDCTrainer, FusedHDCModel
from repro.runtime.executor import ExecutorConfig


def _blobs(num_samples=400, num_features=10, num_classes=3, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, num_features)) * 4.0
    y = np.arange(num_samples) % num_classes
    rng.shuffle(y)
    x = centers[y] + rng.standard_normal((num_samples, num_features))
    return x.astype(np.float32), y.astype(np.int64)


class TestBaggingConfig:
    def test_paper_defaults(self):
        cfg = BaggingConfig()
        assert cfg.num_models == 4
        assert cfg.dimension == 10_000
        assert cfg.effective_sub_dimension == 2500
        assert cfg.iterations == 6
        assert cfg.dataset_ratio == 0.6
        assert cfg.feature_ratio == 1.0

    def test_fused_dimension(self):
        cfg = BaggingConfig(num_models=4, dimension=10_000)
        assert cfg.fused_dimension == 10_000

    def test_explicit_sub_dimension(self):
        cfg = BaggingConfig(num_models=2, dimension=1000, sub_dimension=300)
        assert cfg.effective_sub_dimension == 300
        assert cfg.fused_dimension == 600

    @pytest.mark.parametrize("kwargs", [
        dict(num_models=0),
        dict(dataset_ratio=0.0),
        dict(dataset_ratio=1.5),
        dict(feature_ratio=0.0),
        dict(iterations=0),
        dict(sub_dimension=0),
        dict(num_models=100, dimension=50),
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ValueError):
            BaggingConfig(**kwargs)


class TestTraining:
    def test_trains_m_sub_models(self):
        x, y = _blobs()
        cfg = BaggingConfig(num_models=3, dimension=768, iterations=2)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        assert len(trainer.sub_models) == 3
        assert all(m.dimension == 256 for m in trainer.sub_models)

    def test_bootstrap_subset_size(self):
        x, y = _blobs(num_samples=500)
        cfg = BaggingConfig(num_models=2, dimension=512, iterations=1,
                            dataset_ratio=0.6)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        for indices in trainer.sample_indices:
            assert len(indices) == 300

    def test_without_replacement_indices_unique(self):
        x, y = _blobs(num_samples=500)
        cfg = BaggingConfig(num_models=2, dimension=512, iterations=1,
                            dataset_ratio=0.5, replace=False)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        for indices in trainer.sample_indices:
            assert len(np.unique(indices)) == len(indices)

    def test_with_replacement_can_repeat(self):
        x, y = _blobs(num_samples=100)
        cfg = BaggingConfig(num_models=1, dimension=256, iterations=1,
                            dataset_ratio=1.0, replace=True)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        assert len(np.unique(trainer.sample_indices[0])) < 100

    def test_sub_models_see_different_subsets(self):
        x, y = _blobs(num_samples=500)
        cfg = BaggingConfig(num_models=2, dimension=512, iterations=1)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        assert not np.array_equal(trainer.sample_indices[0],
                                  trainer.sample_indices[1])

    def test_feature_sampling_masks(self):
        x, y = _blobs(num_features=20)
        cfg = BaggingConfig(num_models=2, dimension=512, iterations=1,
                            feature_ratio=0.5)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        for mask in trainer.feature_masks:
            assert mask.sum() == 10
        for model, mask in zip(trainer.sub_models, trainer.feature_masks):
            np.testing.assert_array_equal(
                model.encoder.base_hypervectors[~mask], 0.0
            )

    def test_feature_ratio_one_keeps_all(self):
        x, y = _blobs(num_features=8)
        cfg = BaggingConfig(num_models=1, dimension=256, iterations=1)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        assert trainer.feature_masks[0].all()

    def test_rejects_mismatched_labels(self):
        x, y = _blobs()
        with pytest.raises(ValueError, match="labels"):
            BaggingHDCTrainer(BaggingConfig(dimension=256), seed=0).fit(x, y[:-1])

    def test_rejects_1d_samples(self):
        with pytest.raises(ValueError, match="2-D"):
            BaggingHDCTrainer(BaggingConfig(dimension=256), seed=0).fit(
                np.zeros(10), np.zeros(10, dtype=int)
            )

    def test_fuse_before_fit_raises(self):
        with pytest.raises(RuntimeError, match="fit"):
            BaggingHDCTrainer(BaggingConfig(dimension=256), seed=0).fuse()


class TestFusion:
    def test_fused_shapes(self):
        x, y = _blobs(num_features=10, num_classes=3)
        cfg = BaggingConfig(num_models=4, dimension=1024, iterations=2)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        fused = trainer.fuse()
        assert fused.base_matrix.shape == (10, 1024)
        assert fused.class_matrix.shape == (1024, 3)
        assert fused.sub_widths == [256] * 4

    def test_fused_scores_equal_ensemble_sum(self):
        # The paper's key fusion identity: one matmul pair computes the
        # sum of the sub-models' similarity scores exactly.
        x, y = _blobs()
        cfg = BaggingConfig(num_models=3, dimension=768, iterations=3)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        fused = trainer.fuse()
        np.testing.assert_allclose(
            fused.scores(x[:50]), trainer.ensemble_scores(x[:50]),
            rtol=1e-4, atol=1e-3,
        )

    def test_fused_scores_equal_ensemble_with_feature_sampling(self):
        # feature_ratio < 1 exercises the zeroed-row path: unsampled
        # features have zero rows in each sub-encoder, and fusion must
        # still reproduce the ensemble's summed scores.
        x, y = _blobs(num_features=16)
        cfg = BaggingConfig(num_models=3, dimension=768, iterations=3,
                            feature_ratio=0.5)
        trainer = BaggingHDCTrainer(cfg, seed=4).fit(x, y)
        fused = trainer.fuse()
        for mask, model in zip(trainer.feature_masks, trainer.sub_models):
            assert 0 < mask.sum() < x.shape[1]
            zero_rows = ~model.encoder.base_hypervectors.any(axis=1)
            np.testing.assert_array_equal(zero_rows, ~mask)
        np.testing.assert_allclose(
            fused.scores(x[:60]), trainer.ensemble_scores(x[:60]),
            rtol=1e-4, atol=1e-3,
        )

    def test_fused_predictions_equal_ensemble(self):
        x, y = _blobs()
        cfg = BaggingConfig(num_models=3, dimension=768, iterations=3)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        fused = trainer.fuse()
        np.testing.assert_array_equal(fused.predict(x), trainer.predict(x))

    def test_fused_encoding_is_concatenation(self):
        x, y = _blobs()
        cfg = BaggingConfig(num_models=2, dimension=512, iterations=1)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x, y)
        fused = trainer.fuse()
        pieces = np.hstack([m.encoder.encode(x[:5]) for m in trainer.sub_models])
        np.testing.assert_allclose(fused.encode(x[:5]), pieces, rtol=1e-5,
                                   atol=1e-6)

    def test_fused_model_accuracy(self):
        x, y = _blobs(num_samples=600)
        cfg = BaggingConfig(num_models=4, dimension=1024, iterations=3)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(x[:450], y[:450])
        fused = trainer.fuse()
        assert fused.score(x[450:], y[450:]) > 0.9

    def test_bagging_accuracy_close_to_full_model(self, small_isolet):
        # The paper's Fig. 7 claim: bagged training at d'=d/M with fewer
        # iterations reaches accuracy similar to the fully-trained model.
        from repro.hdc import HDCClassifier
        ds = small_isolet
        full = HDCClassifier(dimension=2048, seed=0)
        full.fit(ds.train_x, ds.train_y, iterations=10)
        cfg = BaggingConfig(num_models=4, dimension=2048, iterations=4)
        trainer = BaggingHDCTrainer(cfg, seed=0).fit(ds.train_x, ds.train_y)
        fused = trainer.fuse()
        full_acc = full.score(ds.test_x, ds.test_y)
        bag_acc = fused.score(ds.test_x, ds.test_y)
        assert bag_acc > full_acc - 0.08

    def test_fused_model_validation(self):
        with pytest.raises(ValueError, match="width mismatch"):
            FusedHDCModel(np.zeros((3, 8)), np.zeros((9, 2)), 2)
        with pytest.raises(ValueError, match="num_classes"):
            FusedHDCModel(np.zeros((3, 8)), np.zeros((8, 2)), 3)
        with pytest.raises(ValueError, match="2-D"):
            FusedHDCModel(np.zeros(8), np.zeros((8, 2)), 2)

    def test_fused_rejects_wrong_feature_count(self):
        x, y = _blobs(num_features=10)
        cfg = BaggingConfig(num_models=2, dimension=512, iterations=1)
        fused = BaggingHDCTrainer(cfg, seed=0).fit(x, y).fuse()
        with pytest.raises(ValueError, match="features"):
            fused.predict(np.zeros((2, 7)))


class TestParallelTraining:
    """The worker-pool determinism contract: bit-identical any-N."""

    def _fused(self, executor, seed=7):
        x, y = _blobs(num_samples=300)
        cfg = BaggingConfig(num_models=4, dimension=512, iterations=2)
        trainer = BaggingHDCTrainer(cfg, seed=seed, executor=executor)
        trainer.fit(x, y)
        return trainer, trainer.fuse()

    def test_workers_1_vs_4_bit_identical(self):
        _, serial = self._fused(None)
        _, parallel = self._fused(ExecutorConfig(workers=4))
        np.testing.assert_array_equal(serial.base_matrix,
                                      parallel.base_matrix)
        np.testing.assert_array_equal(serial.class_matrix,
                                      parallel.class_matrix)

    def test_bookkeeping_identical(self):
        serial_trainer, _ = self._fused(None)
        parallel_trainer, _ = self._fused(ExecutorConfig(workers=2))
        for a, b in zip(serial_trainer.sample_indices,
                        parallel_trainer.sample_indices):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(serial_trainer.histories,
                        parallel_trainer.histories):
            assert a.train_accuracy == b.train_accuracy
            assert a.updates == b.updates

    def test_more_workers_than_models(self):
        _, serial = self._fused(None)
        _, parallel = self._fused(ExecutorConfig(workers=16))
        np.testing.assert_array_equal(serial.class_matrix,
                                      parallel.class_matrix)

    def test_workers_as_plain_int(self):
        trainer, _ = self._fused(2)
        assert trainer.executor.workers == 2

    def test_parallel_report_populated(self):
        trainer, _ = self._fused(ExecutorConfig(workers=4))
        report = trainer.last_parallel_report
        assert report.workers == 4
        assert len(report.task_seconds) == 4
        assert report.speedup > 1.0
        # Four sub-models of an ISOLET-sized training on four workers:
        # their measured task seconds list-schedule to at least twice
        # the serial speed.
        ds = isolet(max_samples=800, seed=7).normalized()
        cfg = BaggingConfig(num_models=4, dimension=1024, iterations=3,
                            dataset_ratio=0.7)
        trainer = BaggingHDCTrainer(cfg, seed=0,
                                    executor=ExecutorConfig(workers=4))
        trainer.fit(ds.train_x, ds.train_y, num_classes=ds.num_classes)
        assert trainer.last_parallel_report.speedup >= 2.0

    def test_different_seeds_still_differ(self):
        _, a = self._fused(ExecutorConfig(workers=4), seed=7)
        _, b = self._fused(ExecutorConfig(workers=4), seed=8)
        assert not np.array_equal(a.class_matrix, b.class_matrix)


@given(
    num_models=st.integers(1, 5),
    sub_dim=st.integers(8, 64),
    seed=st.integers(0, 100),
)
@settings(max_examples=10, deadline=None)
def test_property_fusion_identity(num_models, sub_dim, seed):
    """Fused scores == sum of sub-model scores for any M and d'."""
    x, y = _blobs(num_samples=60, seed=seed)
    cfg = BaggingConfig(num_models=num_models, dimension=num_models * sub_dim,
                        sub_dimension=sub_dim, iterations=1)
    trainer = BaggingHDCTrainer(cfg, seed=seed).fit(x, y)
    fused = trainer.fuse()
    np.testing.assert_allclose(
        fused.scores(x[:10]), trainer.ensemble_scores(x[:10]),
        rtol=1e-3, atol=1e-3,
    )

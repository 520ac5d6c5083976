"""Tests for the HDC classifier and its training dynamics."""

import tracemalloc

import numpy as np
import pytest

from repro.hdc import HDCClassifier, LinearEncoder, NonlinearEncoder


def _blobs(num_samples=300, num_features=12, num_classes=3, seed=0, spread=4.0):
    """Well-separated Gaussian blobs: easy, fast sanity workload."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, num_features)) * spread
    y = np.arange(num_samples) % num_classes
    rng.shuffle(y)
    x = centers[y] + rng.standard_normal((num_samples, num_features))
    return x.astype(np.float32), y.astype(np.int64)


class TestConstruction:
    def test_rejects_bad_similarity(self):
        with pytest.raises(ValueError, match="similarity"):
            HDCClassifier(similarity="euclidean")

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError, match="chunk_size"):
            HDCClassifier(chunk_size=0)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError, match="learning_rate"):
            HDCClassifier(learning_rate=0.0)

    def test_rejects_encoder_dimension_mismatch(self):
        enc = NonlinearEncoder(4, 128, seed=0)
        with pytest.raises(ValueError, match="dimension"):
            HDCClassifier(dimension=64, encoder=enc)

    def test_predict_before_fit_raises(self):
        model = HDCClassifier(dimension=32)
        with pytest.raises(RuntimeError, match="fit"):
            model.predict(np.zeros((1, 4)))


class TestTraining:
    def test_fit_gathers_chunks_instead_of_copying_the_set(self):
        # Each pass visits a fresh permutation; gathering it chunk by
        # chunk keeps a permuted copy of every hypervector out of memory.
        rng = np.random.default_rng(0)
        hypervectors = rng.standard_normal((4000, 1024)).astype(np.float32)
        labels = rng.integers(0, 4, len(hypervectors))
        model = HDCClassifier(dimension=1024, seed=0)
        tracemalloc.start()
        try:
            model.fit(hypervectors, labels, iterations=2, encoded=True)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held < hypervectors.nbytes / 8

    def test_learns_blobs(self):
        x, y = _blobs()
        model = HDCClassifier(dimension=1024, seed=0)
        model.fit(x, y, iterations=5)
        assert model.score(x, y) > 0.95

    def test_history_records_every_pass(self):
        x, y = _blobs()
        model = HDCClassifier(dimension=512, seed=0)
        history = model.fit(x, y, iterations=4)
        assert history.iterations == 4
        assert len(history.updates) == 4
        assert history.samples_seen == [len(y)] * 4

    def test_train_accuracy_improves(self):
        x, y = _blobs(num_samples=600)
        model = HDCClassifier(dimension=2048, seed=0)
        history = model.fit(x, y, iterations=6)
        assert history.train_accuracy[-1] > history.train_accuracy[0]

    def test_validation_curve_recorded(self):
        x, y = _blobs(num_samples=400)
        model = HDCClassifier(dimension=512, seed=0)
        history = model.fit(x[:300], y[:300], iterations=3,
                            validation=(x[300:], y[300:]))
        assert len(history.validation_accuracy) == 3
        assert all(0.0 <= a <= 1.0 for a in history.validation_accuracy)

    def test_updates_decrease_as_model_converges(self):
        x, y = _blobs(num_samples=600)
        model = HDCClassifier(dimension=2048, seed=0)
        history = model.fit(x, y, iterations=8)
        assert history.updates[-1] < history.updates[0]

    def test_chunk_size_one_matches_paper_semantics(self):
        # With chunk_size=1 every sample is scored against fully-updated
        # class hypervectors: the strictly-online rule.  The result must
        # still learn; and on an easy task both settings should agree.
        x, y = _blobs(num_samples=200)
        online = HDCClassifier(dimension=512, chunk_size=1, seed=0)
        online.fit(x, y, iterations=3)
        assert online.score(x, y) > 0.9

    def test_mistake_driven_updates_only(self):
        # On a trivially separable 2-sample problem the first pass makes
        # exactly 2 updates (both initial misclassifications from zero HVs)
        # and later passes make none.
        x = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        y = np.array([0, 1])
        model = HDCClassifier(dimension=256, chunk_size=1, seed=1)
        history = model.fit(x, y, iterations=3, shuffle=False)
        assert history.updates[0] >= 1
        assert history.updates[-1] == 0

    def test_class_hypervector_shape(self):
        x, y = _blobs(num_classes=4)
        model = HDCClassifier(dimension=128, seed=0)
        model.fit(x, y, iterations=2)
        assert model.class_hypervectors.shape == (4, 128)

    def test_explicit_num_classes(self):
        x, y = _blobs(num_classes=3)
        model = HDCClassifier(dimension=128, seed=0)
        model.fit(x, y, iterations=1, num_classes=5)
        assert model.class_hypervectors.shape == (5, 128)

    def test_cannot_grow_classes(self):
        x, y = _blobs(num_classes=3)
        model = HDCClassifier(dimension=128, seed=0)
        model.fit(x, y, iterations=1, num_classes=3)
        with pytest.raises(ValueError, match="grow"):
            model.fit(x, np.full_like(y, 4), iterations=1, num_classes=5)

    def test_rejects_zero_iterations(self):
        x, y = _blobs()
        with pytest.raises(ValueError, match="iterations"):
            HDCClassifier(dimension=64).fit(x, y, iterations=0)

    def test_rejects_label_mismatch(self):
        x, y = _blobs()
        with pytest.raises(ValueError, match="labels"):
            HDCClassifier(dimension=64).fit(x, y[:-1])

    def test_learning_rate_scale_invariance_for_dot(self):
        # From zero-initialized class HVs with fixed lr, the dot-product
        # argmax is invariant to the lr value (all updates scale equally).
        x, y = _blobs(num_samples=200)
        a = HDCClassifier(dimension=512, learning_rate=0.01, seed=0)
        b = HDCClassifier(dimension=512, learning_rate=10.0, seed=0)
        a.fit(x, y, iterations=3, shuffle=False)
        b.fit(x, y, iterations=3, shuffle=False)
        np.testing.assert_array_equal(a.predict(x), b.predict(x))


class TestPartialFit:
    def test_streaming_equivalent_to_one_pass(self):
        x, y = _blobs(num_samples=200)
        stream = HDCClassifier(dimension=512, seed=0)
        stream.partial_fit(x, y)
        assert stream.history.iterations == 1
        assert stream.class_hypervectors is not None

    def test_two_partial_fits_accumulate(self):
        x, y = _blobs(num_samples=200)
        model = HDCClassifier(dimension=512, seed=0)
        model.partial_fit(x[:100], y[:100])
        model.partial_fit(x[100:], y[100:])
        assert model.history.iterations == 2


class TestLabelRange:
    """Out-of-range labels fail up front with a ValueError, not through
    numpy indexing (a -1 trains the last class; a label past the class
    count fails deep in the update kernels)."""

    @pytest.mark.parametrize("bad, num_classes", [(-1, None), (-1, 3),
                                                  (3, 3), (7, 3)])
    def test_fit_rejects(self, bad, num_classes):
        x, y = _blobs(num_samples=60)
        y[5] = bad
        model = HDCClassifier(dimension=256, seed=0)
        with pytest.raises(ValueError, match=rf"label {bad} .* classes"):
            model.fit(x, y, iterations=1, num_classes=num_classes)
        assert model.class_hypervectors is None

    def test_partial_fit_rejects_a_label_past_the_model(self):
        x, y = _blobs(num_samples=60)
        model = HDCClassifier(dimension=256, seed=0)
        model.partial_fit(x, y, num_classes=3)
        before = model.class_hypervectors.copy()
        y[0] = 3
        with pytest.raises(ValueError, match=r"label 3 .* 3 classes"):
            model.partial_fit(x, y, num_classes=3)
        np.testing.assert_array_equal(model.class_hypervectors, before)


class TestInference:
    def test_scores_shape(self):
        x, y = _blobs(num_classes=4)
        model = HDCClassifier(dimension=128, seed=0)
        model.fit(x, y, iterations=2)
        assert model.scores(x[:7]).shape == (7, 4)

    def test_cosine_similarity_mode(self):
        x, y = _blobs()
        model = HDCClassifier(dimension=1024, similarity="cosine", seed=0)
        model.fit(x, y, iterations=4)
        assert model.score(x, y) > 0.9

    def test_encoded_roundtrip(self):
        # Feeding pre-encoded hypervectors must match feeding raw features.
        x, y = _blobs()
        model = HDCClassifier(dimension=512, seed=0)
        model.fit(x, y, iterations=3)
        encoded = model.encoder.encode(x)
        np.testing.assert_array_equal(
            model.predict(x), model.predict(encoded, encoded=True)
        )

    def test_encoded_width_validated(self):
        x, y = _blobs()
        model = HDCClassifier(dimension=512, seed=0)
        model.fit(x, y, iterations=1)
        with pytest.raises(ValueError, match="width"):
            model.predict(np.zeros((2, 100)), encoded=True)

    def test_score_validates_lengths(self):
        x, y = _blobs()
        model = HDCClassifier(dimension=128, seed=0)
        model.fit(x, y, iterations=1)
        with pytest.raises(ValueError, match="labels"):
            model.score(x, y[:-1])


class TestEncoderVariants:
    def test_linear_encoder_supported(self):
        x, y = _blobs()
        enc = LinearEncoder(num_features=x.shape[1], dimension=1024, seed=0)
        model = HDCClassifier(dimension=1024, encoder=enc, seed=0)
        model.fit(x, y, iterations=4)
        assert model.score(x, y) > 0.9

    def test_nonlinear_beats_linear_on_warped_data(self, small_isolet):
        # The paper's claim for choosing tanh encoding: higher accuracy on
        # linearly inseparable data.
        ds = small_isolet
        nonlinear = HDCClassifier(dimension=2048, seed=0)
        nonlinear.fit(ds.train_x, ds.train_y, iterations=6)
        linear_enc = LinearEncoder(ds.num_features, 2048, seed=0)
        linear = HDCClassifier(dimension=2048, encoder=linear_enc, seed=0)
        linear.fit(ds.train_x, ds.train_y, iterations=6)
        assert nonlinear.score(ds.test_x, ds.test_y) >= \
            linear.score(ds.test_x, ds.test_y) - 0.02

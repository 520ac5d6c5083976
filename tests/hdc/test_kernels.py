"""Equivalence tests for the vectorized update/encode kernels.

The contract (see ``repro.hdc.kernels``): the matmul kernel is
bit-identical to the reference loop on exact-arithmetic inputs (bipolar
hypervectors with a power-of-two learning rate, or at most one mistake
per chunk) and association-order close otherwise.  Training runs
``kernels.class_update``; the fit tests pin one kernel by patching it.
"""

import numpy as np

from repro.hdc import kernels
from repro.hdc.model import HDCClassifier


# The update kernels training can run, by name: ``auto`` is the
# production selector itself.
_KERNELS = {
    "loop": kernels.loop_class_update,
    "matmul": kernels.matmul_class_update,
    "auto": kernels.class_update,
}


def _random_updates(rng, wrong=64, dimension=512, num_classes=10):
    hypervectors = rng.standard_normal((wrong, dimension)).astype(np.float32)
    true_labels = rng.integers(0, num_classes, size=wrong)
    predicted = (true_labels + rng.integers(1, num_classes, size=wrong)) \
        % num_classes
    return hypervectors, true_labels, predicted


def _apply(kernel, hypervectors, true_labels, predicted, lr=0.035,
           num_classes=10, zero_base=False, **kwargs):
    if zero_base:
        # Real training starts from zeros; with exact-grid updates the
        # accumulated values stay exactly representable.
        classes = np.zeros(
            (num_classes, hypervectors.shape[1]), dtype=np.float32
        )
    else:
        classes = np.asarray(
            np.linspace(-1.0, 1.0, num_classes * hypervectors.shape[1]),
            dtype=np.float32,
        ).reshape(num_classes, -1).copy()
    kernel(classes, hypervectors, true_labels, predicted, lr, **kwargs)
    return classes


class TestClassUpdateKernels:
    def test_matmul_bit_identical_on_exact_arithmetic(self):
        # Bipolar +/-1 hypervectors with a power-of-two learning rate
        # keep every partial sum exactly representable, so any summation
        # order gives the same bits.
        rng = np.random.default_rng(2)
        hypervectors = np.where(
            rng.random((64, 512)) < 0.5, -1.0, 1.0
        ).astype(np.float32)
        true_labels = rng.integers(0, 10, size=64)
        predicted = (true_labels + 1) % 10
        expected = _apply(kernels.loop_class_update, hypervectors,
                          true_labels, predicted, lr=0.03125,
                          zero_base=True)
        actual = _apply(kernels.matmul_class_update, hypervectors,
                        true_labels, predicted, lr=0.03125, zero_base=True)
        np.testing.assert_array_equal(actual, expected)

    def test_matmul_close_on_float_data(self):
        rng = np.random.default_rng(3)
        args = _random_updates(rng)
        expected = _apply(kernels.loop_class_update, *args)
        actual = _apply(kernels.matmul_class_update, *args)
        np.testing.assert_allclose(actual, expected, rtol=1e-5, atol=1e-5)

    def test_matmul_column_blocking_bit_identical(self):
        # Blocking splits output columns, not the reduction axis, so a
        # blocked matmul must match the one-shot matmul exactly.
        rng = np.random.default_rng(4)
        args = _random_updates(rng, dimension=1337)
        one_shot = _apply(kernels.matmul_class_update, *args,
                          col_block=10_000)
        blocked = _apply(kernels.matmul_class_update, *args, col_block=256)
        np.testing.assert_array_equal(blocked, one_shot)

    def test_matmul_single_mistake_exact(self):
        # One mistake per chunk (the paper's strictly-online rule) has a
        # single product per output element -- exact for any input.
        rng = np.random.default_rng(5)
        args = _random_updates(rng, wrong=1)
        expected = _apply(kernels.loop_class_update, *args)
        actual = _apply(kernels.matmul_class_update, *args)
        np.testing.assert_array_equal(actual, expected)

    def test_empty_chunk_is_noop(self):
        classes = np.ones((4, 16), dtype=np.float32)
        empty_hv = np.empty((0, 16), dtype=np.float32)
        empty_idx = np.empty(0, dtype=np.int64)
        for kernel in _KERNELS.values():
            kernel(classes, empty_hv, empty_idx, empty_idx, 0.035)
        np.testing.assert_array_equal(classes, np.ones((4, 16)))


class TestTrainPassEquivalence:
    """The vectorized ``_train_pass`` against the reference loop."""

    @staticmethod
    def _bipolar_dataset(seed=0, samples=400, dimension=256, num_classes=5):
        rng = np.random.default_rng(seed)
        prototypes = np.where(
            rng.random((num_classes, dimension)) < 0.5, -1.0, 1.0
        )
        labels = rng.integers(0, num_classes, size=samples)
        flip = rng.random((samples, dimension)) < 0.2
        hypervectors = np.where(
            flip, -prototypes[labels], prototypes[labels]
        ).astype(np.float32)
        return hypervectors, labels

    @staticmethod
    def _fit(monkeypatch, kernel, hypervectors, labels, lr):
        monkeypatch.setattr(kernels, "class_update", _KERNELS[kernel])
        model = HDCClassifier(
            dimension=hypervectors.shape[1], learning_rate=lr, seed=7,
        )
        model.fit(hypervectors, labels, iterations=5, num_classes=5,
                  encoded=True)
        return model

    def test_full_fit_identical_across_kernels(self, monkeypatch):
        # On exact-arithmetic data every kernel must reproduce the loop's
        # class_hypervectors, train_accuracy and updates bit for bit.
        hypervectors, labels = self._bipolar_dataset()
        reference = self._fit(monkeypatch, "loop", hypervectors, labels,
                              lr=0.03125)
        for kernel in ("matmul", "auto"):
            model = self._fit(monkeypatch, kernel, hypervectors, labels,
                              lr=0.03125)
            np.testing.assert_array_equal(
                model.class_hypervectors, reference.class_hypervectors
            )
            assert model.history.train_accuracy == \
                reference.history.train_accuracy
            assert model.history.updates == reference.history.updates

    def test_chunk_size_one_identical_for_all_kernels(self, monkeypatch):
        # chunk_size=1 chunks carry at most one mistake, where even the
        # matmul kernel is exact -- the strictly-online rule is preserved
        # bit for bit on arbitrary float data.
        rng = np.random.default_rng(9)
        hypervectors = rng.standard_normal((120, 128)).astype(np.float32)
        labels = rng.integers(0, 4, size=120)
        results = []
        for update in _KERNELS.values():
            monkeypatch.setattr(kernels, "class_update", update)
            model = HDCClassifier(dimension=128, chunk_size=1, seed=3)
            model.fit(hypervectors, labels, iterations=3, num_classes=4,
                      encoded=True)
            results.append(model.class_hypervectors)
        for other in results[1:]:
            np.testing.assert_array_equal(other, results[0])


class TestIdLevelEncodeKernel:
    @staticmethod
    def _reference(id_hvs, level_hvs, level_idx):
        encoded = np.empty((len(level_idx), id_hvs.shape[1]),
                           dtype=np.float32)
        for row, idx in enumerate(level_idx):
            encoded[row] = (id_hvs * level_hvs[idx]).sum(axis=0)
        return encoded

    def test_bit_identical_to_row_loop(self):
        rng = np.random.default_rng(10)
        id_hvs = np.where(rng.random((7, 96)) < 0.5, -1.0, 1.0) \
            .astype(np.float32)
        level_hvs = np.where(rng.random((16, 96)) < 0.5, -1.0, 1.0) \
            .astype(np.float32)
        level_idx = rng.integers(0, 16, size=(53, 7))
        expected = self._reference(id_hvs, level_hvs, level_idx)
        for budget in (1, 4096, 1 << 20, 1 << 30):
            actual = kernels.id_level_encode(
                id_hvs, level_hvs, level_idx, max_chunk_bytes=budget,
            )
            np.testing.assert_array_equal(actual, expected)

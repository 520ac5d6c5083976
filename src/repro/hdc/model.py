"""The HDC classifier: class-hypervector training and associative search.

Training follows the paper's mistake-driven rule (Sec. III-A).  Class
hypervectors start at zero; for every training sample whose encoded
hypervector ``E`` (true class ``a``) is misclassified as ``b``:

    bundling:  ``C_a = C_a + lr * E``
    detaching: ``C_b = C_b - lr * E``

Classification is the associative search ``argmax_k delta(E, C_k)``,
where ``delta`` is the dot product (the paper's accelerator-friendly
approximation) or exact cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hdc import kernels
from repro.hdc.encoder import Encoder, NonlinearEncoder
from repro.hdc.hypervector import cosine_similarity, dot_similarity

__all__ = ["HDCClassifier", "TrainingHistory", "check_labels"]


def check_labels(y: np.ndarray, num_classes: int) -> None:
    """Reject any label outside ``[0, num_classes)``.

    Numpy indexing would otherwise let a label of ``-1`` train the last
    class and a label ``>= num_classes`` fail deep inside the update
    kernels.

    Raises:
        ValueError: Naming an out-of-range label (the smallest if one
            is negative, else the largest) and the class count.
    """
    if len(y) == 0:
        return
    low, high = int(y.min()), int(y.max())
    if low < 0 or high >= num_classes:
        bad = low if low < 0 else high
        raise ValueError(
            f"label {bad} is out of range for {num_classes} classes "
            f"(labels must lie in [0, {num_classes}))"
        )


@dataclass
class TrainingHistory:
    """Per-iteration training statistics.

    Attributes:
        train_accuracy: Accuracy on the training set, measured *during*
            each pass (fraction of samples classified correctly before
            their update) — the quantity plotted in the paper's Fig. 4.
        validation_accuracy: Accuracy on the held-out set after each
            pass; empty if no validation data was supplied.
        updates: Number of mistake-driven updates per pass.  Each update
            touches two class hypervectors (bundle + detach); the count
            feeds the CPU cost model for the update phase.
        samples_seen: Number of training samples processed per pass.
    """

    train_accuracy: list[float] = field(default_factory=list)
    validation_accuracy: list[float] = field(default_factory=list)
    updates: list[int] = field(default_factory=list)
    samples_seen: list[int] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of completed training passes."""
        return len(self.train_accuracy)


class HDCClassifier:
    """Hyperdimensional classifier with mistake-driven training.

    Args:
        dimension: Hypervector width ``d`` (paper default 10,000).
        encoder: An :class:`~repro.hdc.encoder.Encoder`, or ``None`` to
            build the paper's :class:`NonlinearEncoder` lazily on the
            first :meth:`fit` call (when the feature count is known).
        learning_rate: The update scale ``lr`` (the paper's lambda).
        similarity: ``"dot"`` (paper's accelerated metric) or ``"cosine"``.
        chunk_size: Samples per update mini-batch.  ``1`` reproduces the
            paper's strictly-online rule; larger values score a chunk
            against momentarily-stale class hypervectors and then apply
            the per-sample updates, which is dramatically faster and
            converges indistinguishably in practice.
        seed: Seed for the lazily-built encoder and per-epoch shuffling.

    Attributes:
        class_hypervectors: ``(num_classes, dimension)`` trained weights,
            available after :meth:`fit` / :meth:`partial_fit`.
    """

    def __init__(self, dimension: int = 10_000, encoder: Encoder | None = None,
                 learning_rate: float = 0.035, similarity: str = "dot",
                 chunk_size: int = 64,
                 seed: np.random.Generator | int | None = None):
        if similarity not in ("dot", "cosine"):
            raise ValueError(f"similarity must be 'dot' or 'cosine', got {similarity!r}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be > 0, got {learning_rate}")
        if encoder is not None and encoder.dimension != dimension:
            raise ValueError(
                f"encoder dimension {encoder.dimension} does not match "
                f"classifier dimension {dimension}"
            )
        self.dimension = int(dimension)
        self.encoder = encoder
        self.learning_rate = float(learning_rate)
        self.similarity = similarity
        self.chunk_size = int(chunk_size)
        self._rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)
        self.class_hypervectors: np.ndarray | None = None
        self.num_classes: int | None = None
        self.history = TrainingHistory()

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------

    def fit(self, x: np.ndarray, y: np.ndarray, iterations: int = 20,
            num_classes: int | None = None,
            validation: tuple[np.ndarray, np.ndarray] | None = None,
            shuffle: bool = True, encoded: bool = False) -> TrainingHistory:
        """Train class hypervectors for ``iterations`` passes.

        Args:
            x: Samples ``(num_samples, num_features)`` — or already
                encoded hypervectors ``(num_samples, dimension)`` when
                ``encoded=True`` (the co-design pipeline encodes on the
                accelerator and hands hypervectors to the host trainer).
            y: Integer labels in ``[0, num_classes)``.
            iterations: Training passes (the paper uses 20 for the fully
                trained baseline, 6 for bagging sub-models).
            num_classes: Class count; inferred as ``max(y) + 1`` when
                omitted.
            validation: Optional ``(val_x, val_y)`` measured after every
                pass (raw features, or hypervectors when ``encoded``).
            shuffle: Reshuffle sample order every pass.
            encoded: Treat ``x`` (and validation samples) as hypervectors.

        Returns:
            The accumulated :class:`TrainingHistory`.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        hypervectors = self._ensure_encoded(x, encoded)
        y = np.asarray(y, dtype=np.int64)
        if len(hypervectors) != len(y):
            raise ValueError(f"{len(hypervectors)} samples but {len(y)} labels")
        self._init_classes(y, num_classes)

        val_hv = val_y = None
        if validation is not None:
            val_hv = self._ensure_encoded(validation[0], encoded)
            val_y = np.asarray(validation[1], dtype=np.int64)

        for _ in range(iterations):
            order = self._rng.permutation(len(y)) if shuffle else np.arange(len(y))
            correct, updates = self._train_pass(hypervectors, y, order)
            self.history.train_accuracy.append(correct / max(1, len(y)))
            self.history.updates.append(updates)
            self.history.samples_seen.append(len(y))
            if val_hv is not None:
                predictions = self._classify(val_hv)
                self.history.validation_accuracy.append(
                    float(np.mean(predictions == val_y))
                )
        return self.history

    def partial_fit(self, x: np.ndarray, y: np.ndarray,
                    num_classes: int | None = None,
                    encoded: bool = False) -> "HDCClassifier":
        """Run a single training pass (no shuffle) — streaming updates."""
        hypervectors = self._ensure_encoded(x, encoded)
        y = np.asarray(y, dtype=np.int64)
        self._init_classes(y, num_classes)
        correct, updates = self._train_pass(hypervectors, y,
                                            np.arange(len(y)))
        self.history.train_accuracy.append(correct / max(1, len(y)))
        self.history.updates.append(updates)
        self.history.samples_seen.append(len(y))
        return self

    def _init_classes(self, y: np.ndarray, num_classes: int | None) -> None:
        if num_classes is None:
            num_classes = int(y.max()) + 1 if len(y) else 0
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        check_labels(y, num_classes)
        if self.class_hypervectors is None:
            self.num_classes = num_classes
            self.class_hypervectors = np.zeros(
                (num_classes, self.dimension), dtype=np.float32
            )
        elif num_classes > self.num_classes:
            raise ValueError(
                f"model was initialized with {self.num_classes} classes; "
                f"cannot grow to {num_classes}"
            )

    def _train_pass(self, hypervectors: np.ndarray, y: np.ndarray,
                    order: np.ndarray) -> tuple[int, int]:
        """One pass of mistake-driven updates.  Returns (correct, updates).

        Samples are visited in ``order``, gathered one chunk at a time
        rather than as a permuted copy of the whole set.
        """
        classes = self.class_hypervectors
        lr = self.learning_rate
        correct = 0
        updates = 0
        for start in range(0, len(y), self.chunk_size):
            rows = order[start:start + self.chunk_size]
            chunk = hypervectors[rows]
            labels = y[rows]
            predictions = self._classify(chunk)
            wrong = np.nonzero(predictions != labels)[0]
            correct += int(len(labels) - len(wrong))
            # Apply the paper's bundling/detaching for each misclassified
            # sample in the chunk (vectorized; see repro.hdc.kernels).
            if len(wrong):
                kernels.class_update(classes, chunk[wrong], labels[wrong],
                                     predictions[wrong], lr)
                updates += len(wrong)
        return correct, updates

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------

    def scores(self, x: np.ndarray, encoded: bool = False) -> np.ndarray:
        """Similarity of each sample to each class, ``(num_samples, k)``."""
        self._check_trained()
        hypervectors = self._ensure_encoded(x, encoded)
        return self._similarity(hypervectors)

    def predict(self, x: np.ndarray, encoded: bool = False) -> np.ndarray:
        """Predicted class labels, shape ``(num_samples,)``."""
        self._check_trained()
        hypervectors = self._ensure_encoded(x, encoded)
        return self._classify(hypervectors)

    def score(self, x: np.ndarray, y: np.ndarray, encoded: bool = False) -> float:
        """Mean accuracy of :meth:`predict` against labels ``y``."""
        predictions = self.predict(x, encoded=encoded)
        y = np.asarray(y, dtype=np.int64)
        if len(predictions) != len(y):
            raise ValueError(f"{len(predictions)} predictions but {len(y)} labels")
        return float(np.mean(predictions == y))

    def _similarity(self, hypervectors: np.ndarray) -> np.ndarray:
        if self.similarity == "dot":
            return dot_similarity(hypervectors, self.class_hypervectors)
        return np.atleast_2d(
            cosine_similarity(hypervectors, self.class_hypervectors)
        )

    def _classify(self, hypervectors: np.ndarray) -> np.ndarray:
        return np.argmax(self._similarity(hypervectors), axis=-1)

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------

    def _ensure_encoded(self, x: np.ndarray, encoded: bool) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 1:
            x = x[None, :]
        if encoded:
            if x.shape[1] != self.dimension:
                raise ValueError(
                    f"encoded input width {x.shape[1]} does not match "
                    f"dimension {self.dimension}"
                )
            return x
        if self.encoder is None:
            self.encoder = NonlinearEncoder(
                num_features=x.shape[1], dimension=self.dimension, seed=self._rng
            )
        return self.encoder.encode(x)

    def _check_trained(self) -> None:
        if self.class_hypervectors is None:
            raise RuntimeError("model has not been trained; call fit() first")

"""Bagging-accelerated HDC training and fused-model generation.

This is the paper's second contribution (Sec. III-B).  Instead of one
full-width model trained for many iterations, train ``M`` *narrow*
sub-models (width ``d' = d / M``) for fewer iterations on bootstrap
subsets of the training data, then **fuse** them into a single full-width
inference model:

- encoding matrices stacked horizontally:
  ``B = [B^1  B^2 ... B^M]`` (shape ``n x d``), with rows zeroed for
  features a sub-model did not sample;
- class matrices stacked vertically:
  ``C = [C^1; C^2; ...; C^M]`` (shape ``d x k``).

Because tanh is elementwise, ``tanh(F @ B)`` equals the concatenation of
the sub-model encodings, and ``E @ C`` equals the *sum* of the
sub-models' similarity scores — so the fused model computes exactly the
ensemble's consensus in one matmul pair, with zero inference overhead
relative to a non-bagged model of the same width.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hdc.encoder import NonlinearEncoder
from repro.hdc.model import HDCClassifier, TrainingHistory
from repro.runtime.executor import ExecutorConfig, WorkerPool, spawn_rngs

__all__ = ["BaggingConfig", "BaggingHDCTrainer", "FusedHDCModel"]


@dataclass(frozen=True)
class BaggingConfig:
    """Hyper-parameters for bagging-accelerated training.

    Defaults are the paper's Sec. IV-A choices: 4 sub-models of width
    2500 (fused width 10,000), 6 training iterations, dataset sampling
    ratio 0.6, feature sampling disabled.

    Attributes:
        num_models: Ensemble size ``M``.
        dimension: Fused inference-model width ``d``.
        sub_dimension: Per-sub-model width ``d'``; defaults to ``d / M``
            (the paper's choice, so the fused model matches the
            non-bagged model's size).
        iterations: Sub-model training passes ``I'``.
        dataset_ratio: Fraction ``alpha`` of training samples drawn for
            each sub-model's bootstrap subset.
        feature_ratio: Fraction ``beta`` of features each sub-model keeps
            (1.0 disables feature sampling, as the paper concludes).
        replace: Draw bootstrap samples with replacement (classical
            bagging) or without (the paper's "using 60% of the training
            dataset" reading).  Default False.
        learning_rate: Update scale for each sub-model.
        chunk_size: Update mini-batch size (see :class:`HDCClassifier`).
    """

    num_models: int = 4
    dimension: int = 10_000
    sub_dimension: int | None = None
    iterations: int = 6
    dataset_ratio: float = 0.6
    feature_ratio: float = 1.0
    replace: bool = False
    learning_rate: float = 0.035
    chunk_size: int = 64

    def __post_init__(self) -> None:
        if self.num_models < 1:
            raise ValueError(f"num_models must be >= 1, got {self.num_models}")
        if self.dimension < self.num_models:
            raise ValueError(
                f"dimension {self.dimension} smaller than num_models "
                f"{self.num_models}"
            )
        if not 0.0 < self.dataset_ratio <= 1.0:
            raise ValueError(
                f"dataset_ratio must be in (0, 1], got {self.dataset_ratio}"
            )
        if not 0.0 < self.feature_ratio <= 1.0:
            raise ValueError(
                f"feature_ratio must be in (0, 1], got {self.feature_ratio}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.sub_dimension is not None and self.sub_dimension < 1:
            raise ValueError(
                f"sub_dimension must be >= 1, got {self.sub_dimension}"
            )

    @property
    def effective_sub_dimension(self) -> int:
        """``d'`` after applying the default ``d / M`` rule."""
        if self.sub_dimension is not None:
            return self.sub_dimension
        return self.dimension // self.num_models

    @property
    def fused_dimension(self) -> int:
        """Width of the fused inference model, ``M * d'``."""
        return self.num_models * self.effective_sub_dimension


@dataclass
class FusedHDCModel:
    """The single full-width inference model produced by fusion.

    Attributes:
        base_matrix: ``(num_features, fused_dimension)`` encoding weights
            (horizontally stacked sub-model base hypervectors).
        class_matrix: ``(fused_dimension, num_classes)`` classification
            weights (vertically stacked sub-model class hypervectors).
        num_classes: Class count ``k``.
        sub_widths: Width of each sub-model's slice, for bookkeeping.
    """

    base_matrix: np.ndarray
    class_matrix: np.ndarray
    num_classes: int
    sub_widths: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.base_matrix.ndim != 2 or self.class_matrix.ndim != 2:
            raise ValueError("base_matrix and class_matrix must be 2-D")
        if self.base_matrix.shape[1] != self.class_matrix.shape[0]:
            raise ValueError(
                f"width mismatch: base {self.base_matrix.shape} vs "
                f"class {self.class_matrix.shape}"
            )
        if self.class_matrix.shape[1] != self.num_classes:
            raise ValueError(
                f"class_matrix has {self.class_matrix.shape[1]} columns but "
                f"num_classes={self.num_classes}"
            )

    @property
    def num_features(self) -> int:
        """Input feature count ``n``."""
        return self.base_matrix.shape[0]

    @property
    def dimension(self) -> int:
        """Fused hypervector width ``d``."""
        return self.base_matrix.shape[1]

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Fused encoding ``tanh(F @ B)`` — concatenated sub-encodings."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features, got {x.shape[1]}"
            )
        return np.tanh(x @ self.base_matrix)

    def scores(self, x: np.ndarray) -> np.ndarray:
        """Ensemble similarity scores ``tanh(F @ B) @ C``."""
        return self.encode(x) @ self.class_matrix

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Consensus class prediction ``argmax_i O_i``."""
        return np.argmax(self.scores(x), axis=-1)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Mean accuracy against labels ``y``."""
        y = np.asarray(y, dtype=np.int64)
        predictions = self.predict(x)
        if len(predictions) != len(y):
            raise ValueError(f"{len(predictions)} predictions but {len(y)} labels")
        return float(np.mean(predictions == y))


def draw_bootstrap_subset(rng: np.random.Generator, population: int,
                          size: int, replace: bool) -> np.ndarray:
    """Draw one sub-model's bootstrap sample indices."""
    if replace:
        return rng.integers(0, population, size=size)
    return rng.choice(population, size=min(size, population), replace=False)


def draw_feature_mask(rng: np.random.Generator, num_features: int,
                      kept: int) -> np.ndarray:
    """Draw one sub-model's boolean feature-sampling mask."""
    mask = np.zeros(num_features, dtype=bool)
    if kept >= num_features:
        mask[:] = True
        return mask
    chosen = rng.choice(num_features, size=kept, replace=False)
    mask[chosen] = True
    return mask


class BaggingHDCTrainer:
    """Trains ``M`` narrow HDC sub-models and fuses them for inference.

    Usage::

        trainer = BaggingHDCTrainer(BaggingConfig(), seed=7)
        trainer.fit(train_x, train_y)
        fused = trainer.fuse()
        predictions = fused.predict(test_x)

    Sub-models are independent learners (bootstrap subsets, separate
    hypervector spaces), so :meth:`fit` trains them on a
    :class:`~repro.runtime.executor.WorkerPool`.  Each sub-model draws
    all of its randomness from a child generator spawned from the
    trainer's seed, so the trained weights are **bit-identical for any
    worker count** — ``executor=ExecutorConfig(workers=4)`` produces
    exactly the fused model that the default sequential run does.

    Args:
        config: Bagging hyper-parameters.
        seed: Root seed (int, Generator or None) for all sub-model
            randomness, via seed spawning.
        executor: Parallelism knobs — an
            :class:`~repro.runtime.executor.ExecutorConfig`, a plain
            worker count, or ``None`` for sequential training.

    Attributes:
        sub_models: The trained :class:`HDCClassifier` instances.
        histories: One :class:`TrainingHistory` per sub-model.
        sample_indices: The bootstrap index arrays actually drawn, for
            profiling (their sizes drive the encoding cost model).
        feature_masks: The boolean feature masks per sub-model (all-true
            when feature sampling is disabled).
        last_parallel_report: The
            :class:`~repro.runtime.executor.ParallelReport` of the most
            recent :meth:`fit` (per-task seconds, modeled makespan).
    """

    def __init__(self, config: BaggingConfig | None = None,
                 seed: np.random.Generator | int | None = None,
                 executor: ExecutorConfig | int | None = None):
        self.config = config if config is not None else BaggingConfig()
        self._rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)
        self.executor = ExecutorConfig.coerce(executor)
        self.sub_models: list[HDCClassifier] = []
        self.histories: list[TrainingHistory] = []
        self.sample_indices: list[np.ndarray] = []
        self.feature_masks: list[np.ndarray] = []
        self.num_classes: int | None = None
        self.last_parallel_report = None

    def fit(self, x: np.ndarray, y: np.ndarray,
            num_classes: int | None = None,
            validation: tuple[np.ndarray, np.ndarray] | None = None
            ) -> "BaggingHDCTrainer":
        """Train all sub-models on bootstrap subsets of ``(x, y)``.

        Sub-models train concurrently when ``executor.workers > 1``;
        results are identical to sequential training either way (the
        child-seed spawning contract).

        Args:
            x: Training samples ``(num_samples, num_features)``.
            y: Integer labels.
            num_classes: Class count; inferred when omitted.
            validation: Optional held-out split recorded per sub-model.
        """
        x = np.asarray(x, dtype=np.float32)
        y = np.asarray(y, dtype=np.int64)
        if x.ndim != 2:
            raise ValueError(f"expected 2-D samples, got shape {x.shape}")
        if len(x) != len(y):
            raise ValueError(f"{len(x)} samples but {len(y)} labels")
        if num_classes is None:
            num_classes = int(y.max()) + 1
        self.num_classes = num_classes
        config = self.config
        num_features = x.shape[1]
        subset_size = max(1, int(round(config.dataset_ratio * len(x))))
        kept_features = max(1, int(round(config.feature_ratio * num_features)))

        def train_one(rng):
            # Every random quantity the sub-model needs (bootstrap
            # indices, feature mask, base hypervectors, epoch shuffles)
            # comes from its own spawned child generator, so the task
            # is independent of which worker runs it and when.
            indices = draw_bootstrap_subset(
                rng, len(x), subset_size, config.replace,
            )
            mask = draw_feature_mask(rng, num_features, kept_features)
            encoder = NonlinearEncoder(
                num_features=num_features,
                dimension=config.effective_sub_dimension,
                seed=rng,
                feature_mask=None if mask.all() else mask,
            )
            model = HDCClassifier(
                dimension=config.effective_sub_dimension,
                encoder=encoder,
                learning_rate=config.learning_rate,
                chunk_size=config.chunk_size,
                seed=rng,
            )
            history = model.fit(
                x[indices], y[indices],
                iterations=config.iterations,
                num_classes=num_classes,
                validation=validation,
            )
            return model, history, indices, mask

        pool = WorkerPool(self.executor.workers)
        results = pool.map(train_one,
                           spawn_rngs(self._rng, config.num_models))
        self.last_parallel_report = pool.last_report

        self.sub_models = [model for model, _, _, _ in results]
        self.histories = [history for _, history, _, _ in results]
        self.sample_indices = [indices for _, _, indices, _ in results]
        self.feature_masks = [mask for _, _, _, mask in results]
        return self

    def fuse(self) -> FusedHDCModel:
        """Stack sub-model weights into the single inference model.

        Raises:
            RuntimeError: If :meth:`fit` has not been called.
        """
        if not self.sub_models:
            raise RuntimeError("no trained sub-models; call fit() first")
        base = np.hstack([m.encoder.base_hypervectors for m in self.sub_models])
        classes = np.vstack([m.class_hypervectors.T for m in self.sub_models])
        return FusedHDCModel(
            base_matrix=base.astype(np.float32, copy=False),
            class_matrix=classes.astype(np.float32, copy=False),
            num_classes=self.num_classes,
            sub_widths=[m.dimension for m in self.sub_models],
        )

    def ensemble_scores(self, x: np.ndarray) -> np.ndarray:
        """Sum of per-sub-model similarity scores (the fused semantics).

        Provided for verification: equals :meth:`FusedHDCModel.scores`
        up to floating-point association order.
        """
        if not self.sub_models:
            raise RuntimeError("no trained sub-models; call fit() first")
        total = None
        for model in self.sub_models:
            scores = model.scores(x)
            if total is None:
                total = scores
            else:
                total += scores
        return total

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Consensus prediction via summed sub-model scores."""
        return np.argmax(self.ensemble_scores(x), axis=-1)

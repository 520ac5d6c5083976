"""Vectorized host-side kernels for the HDC training hot path.

The paper's point (Sec. III-B) is that the host-CPU update phase
dominates HDC training cost, so the reproduction's own update loop
should not be an interpreter-bound Python loop.  This module collects
the update-phase kernels in one place with explicit numerical contracts:

- :func:`loop_class_update` — the seed per-sample loop.  Reference
  semantics: the matmul kernel is tested against it.
- :func:`matmul_class_update` — the fast path: scatter the signed
  per-sample learning rates into a ``(num_classes, wrong)`` one-hot
  matrix and apply all updates as one BLAS matmul,
  ``classes += M @ hypervectors``, column-blocked to stay cache
  resident.  This regroups the per-row additions, so results match the
  loop up to float association order (~1 ulp per touched element) in
  general, and **exactly** when the arithmetic is exact — e.g. bipolar
  ``+/-1`` hypervectors with a power-of-two learning rate and classes
  accumulated from zero (training's actual start state), or chunks
  with at most one mistake (``chunk_size=1``, the paper's strictly-
  online rule).
- :func:`id_level_encode` — memory-bounded chunked gather/bind/bundle
  for :class:`~repro.hdc.encoder.IdLevelEncoder`; bit-identical to the
  per-row loop (each output row is the same ``sum`` over the feature
  axis, association order unchanged).

:func:`class_update` picks between them: tiny mistake counts go to the
loop (two row-ops beat a full ``(k, d)`` matmul), everything else to
the matmul kernel.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "class_update",
    "id_level_encode",
    "loop_class_update",
    "matmul_class_update",
]

# Columns per matmul block.  Small enough that the (wrong, block) operand
# slab and the (num_classes, block) delta stay cache-resident on modest
# cores; large enough to amortize BLAS dispatch.  1024 measured fastest
# across single-core and desktop-class hosts (see benchmarks/test_kernels).
MATMUL_COL_BLOCK = 1024

# Below this many misclassified samples the two-row loop update is
# cheaper than writing the full (num_classes, dimension) delta.
_LOOP_CUTOVER = 2

# Chunk budget (bytes) for the id/level gather; keeps the transient
# (rows, num_features, dimension) slab inside L2-sized working sets.
ID_LEVEL_CHUNK_BYTES = 1 << 20


def loop_class_update(classes: np.ndarray, hypervectors: np.ndarray,
                      true_labels: np.ndarray, predicted_labels: np.ndarray,
                      learning_rate: float) -> None:
    """Per-sample bundle/detach loop (the reference implementation).

    Args:
        classes: ``(num_classes, dimension)`` class hypervectors,
            updated in place.
        hypervectors: ``(wrong, dimension)`` misclassified encodings.
        true_labels: ``(wrong,)`` true class indices.
        predicted_labels: ``(wrong,)`` predicted (wrong) class indices.
        learning_rate: Update scale ``lr``.
    """
    for hv, true_label, predicted in zip(
        hypervectors, true_labels, predicted_labels
    ):
        classes[true_label] += learning_rate * hv
        classes[predicted] -= learning_rate * hv


def matmul_class_update(classes: np.ndarray, hypervectors: np.ndarray,
                        true_labels: np.ndarray,
                        predicted_labels: np.ndarray,
                        learning_rate: float,
                        col_block: int = MATMUL_COL_BLOCK) -> None:
    """Fast vectorized update: one signed one-hot matmul per chunk.

    ``M[c, s]`` holds ``+lr`` where sample ``s``'s true class is ``c``
    and ``-lr`` where its (distinct) predicted class is ``c``; then
    ``classes += M @ hypervectors`` applies every bundle and detach at
    once.  Column blocking keeps each BLAS call's working set small.

    Matches the loop up to float association order; exact when the
    per-sample products are exactly representable (see module docs).
    """
    wrong = len(true_labels)
    if wrong == 0:
        return
    num_classes, dimension = classes.shape
    signed = np.zeros((num_classes, wrong), dtype=classes.dtype)
    cols = np.arange(wrong)
    # Each column is one sample, so the (row, col) pairs are unique per
    # assignment; true != predicted for misclassified samples.
    signed[true_labels, cols] = learning_rate
    signed[predicted_labels, cols] = -learning_rate
    if dimension <= col_block:
        classes += signed @ hypervectors
        return
    for start in range(0, dimension, col_block):
        stop = min(start + col_block, dimension)
        classes[:, start:stop] += signed @ hypervectors[:, start:stop]


def class_update(classes: np.ndarray, hypervectors: np.ndarray,
                 true_labels: np.ndarray, predicted_labels: np.ndarray,
                 learning_rate: float) -> None:
    """Apply one chunk of mistake-driven updates: the loop for at most
    ``_LOOP_CUTOVER`` mistakes, the matmul kernel otherwise."""
    if len(true_labels) <= _LOOP_CUTOVER:
        loop_class_update(classes, hypervectors, true_labels,
                          predicted_labels, learning_rate)
    else:
        matmul_class_update(classes, hypervectors, true_labels,
                            predicted_labels, learning_rate)


def id_level_encode(id_hypervectors: np.ndarray,
                    level_hypervectors: np.ndarray,
                    level_indices: np.ndarray,
                    max_chunk_bytes: int = ID_LEVEL_CHUNK_BYTES
                    ) -> np.ndarray:
    """Chunked record-based encoding ``E_s = sum_i ID_i * L[idx_s_i]``.

    Gathers and binds a block of samples at a time so the transient
    ``(rows, num_features, dimension)`` slab never exceeds
    ``max_chunk_bytes``; a full-dataset gather would not fit in memory
    for hyper-wide ``d``, and an unbounded one thrashes the cache.
    Bit-identical to the per-row loop: every output row is the same
    left-to-right sum over the feature axis.

    Args:
        id_hypervectors: ``(num_features, dimension)`` bipolar IDs.
        level_hypervectors: ``(num_levels, dimension)`` level HVs.
        level_indices: ``(num_samples, num_features)`` quantized levels.
        max_chunk_bytes: Budget for the gathered slab.

    Returns:
        ``(num_samples, dimension)`` float32 encodings.
    """
    num_features, dimension = id_hypervectors.shape
    out = np.empty((len(level_indices), dimension), dtype=np.float32)
    slab_row_bytes = num_features * dimension * 4
    rows = max(1, int(max_chunk_bytes // max(1, slab_row_bytes)))
    for start in range(0, len(level_indices), rows):
        idx = level_indices[start:start + rows]
        bound = level_hypervectors[idx]          # (rows, n, d) gather
        np.multiply(bound, id_hypervectors, out=bound)
        np.sum(bound, axis=1, out=out[start:start + len(idx)])
    return out

"""OnlineHD-style adaptive training (extension beyond the paper).

The paper's update rule adds/subtracts a fixed ``lr * E``.  OnlineHD
(Hernandez-Cane et al., DAC 2021 — the paper's reference [17]) scales
each update by *how wrong* the model was, which converges in fewer
passes — attractive for exactly the host-CPU update phase this paper
optimizes.  We include it as the natural extension the paper's related
work points at:

    ``C_true += lr * (1 - delta_true) * E``
    ``C_pred -= lr * (1 - delta_pred) * E``

where ``delta`` is cosine similarity in ``[-1, 1]`` (so confident
mistakes produce large corrections and near-misses small ones).
"""

from __future__ import annotations

import numpy as np

from repro.hdc.model import HDCClassifier

__all__ = ["AdaptiveHDCClassifier"]


class AdaptiveHDCClassifier(HDCClassifier):
    """HDC classifier with similarity-scaled (OnlineHD-style) updates.

    Accepts the same constructor arguments as :class:`HDCClassifier`.
    Only the per-pass update rule differs; inference is identical.
    """

    def _train_pass(self, hypervectors: np.ndarray, y: np.ndarray,
                    order: np.ndarray) -> tuple[int, int]:
        classes = self.class_hypervectors
        lr = self.learning_rate
        correct = 0
        updates = 0
        eps = 1e-12
        for start in range(0, len(y), self.chunk_size):
            rows = order[start:start + self.chunk_size]
            chunk = hypervectors[rows]
            labels = y[rows]
            # Cosine similarities for the adaptive weights.
            class_norms = np.linalg.norm(classes, axis=1)
            chunk_norms = np.linalg.norm(chunk, axis=1)
            sims = (chunk @ classes.T) / np.maximum(
                np.outer(chunk_norms, class_norms), eps
            )
            predictions = np.argmax(sims, axis=1)
            wrong = predictions != labels
            correct += int(len(labels) - wrong.sum())
            rows = np.nonzero(wrong)[0]
            for row in rows:
                hv = chunk[row]
                true_label = labels[row]
                predicted = predictions[row]
                weight_true = 1.0 - sims[row, true_label]
                weight_pred = 1.0 - sims[row, predicted]
                classes[true_label] += lr * weight_true * hv
                classes[predicted] -= lr * weight_pred * hv
                updates += 1
        return correct, updates

"""Float layer specifications for the wide-NN interpretation.

Only the three layer kinds the paper's mapping needs: dense (fully
connected), elementwise activation, and argmax.  Each layer knows how to
run itself in float (the reference semantics the quantized pipeline is
validated against) and how to report its shape and arithmetic cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Activation", "Argmax", "Dense", "Layer"]

_ACTIVATIONS = {
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(x, 0.0),
    "identity": np.copy,
}


class Layer:
    """Interface shared by all layer specs."""

    name: str

    def output_dim(self, input_dim: int) -> int:
        """Output width given ``input_dim`` (raises on mismatch)."""
        raise NotImplementedError

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Run the layer on a ``(batch, input_dim)`` activation matrix."""
        raise NotImplementedError

    def flops(self, input_dim: int) -> int:
        """Floating-point operations per *sample*."""
        raise NotImplementedError

    def parameter_count(self) -> int:
        """Number of trainable parameters."""
        return 0


@dataclass
class Dense(Layer):
    """Fully connected layer ``y = x @ weights + bias``.

    Attributes:
        weights: Shape ``(input_dim, output_dim)``.
        bias: Optional shape ``(output_dim,)``; HDC layers have none.
        name: Layer name, used in compiled-model reports.
    """

    weights: np.ndarray
    bias: np.ndarray | None = None
    name: str = "dense"

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float32)
        if self.weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {self.weights.shape}")
        if self.bias is not None:
            self.bias = np.asarray(self.bias, dtype=np.float32)
            if self.bias.shape != (self.weights.shape[1],):
                raise ValueError(
                    f"bias shape {self.bias.shape} does not match output dim "
                    f"{self.weights.shape[1]}"
                )

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]

    def output_dim(self, input_dim: int) -> int:
        if input_dim != self.weights.shape[0]:
            raise ValueError(
                f"layer {self.name!r} expects input dim {self.weights.shape[0]}, "
                f"got {input_dim}"
            )
        return self.weights.shape[1]

    def apply(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weights
        if self.bias is not None:
            out = out + self.bias
        return out.astype(np.float32, copy=False)

    def flops(self, input_dim: int) -> int:
        # One multiply + one add per weight, plus the bias adds.
        out_dim = self.output_dim(input_dim)
        total = 2 * input_dim * out_dim
        if self.bias is not None:
            total += out_dim
        return total

    def parameter_count(self) -> int:
        count = self.weights.size
        if self.bias is not None:
            count += self.bias.size
        return count


@dataclass
class Activation(Layer):
    """Elementwise activation: ``tanh``, ``relu`` or ``identity``."""

    kind: str = "tanh"
    name: str = "activation"

    def __post_init__(self) -> None:
        if self.kind not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation {self.kind!r}; choose from "
                f"{sorted(_ACTIVATIONS)}"
            )

    def output_dim(self, input_dim: int) -> int:
        return input_dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        # Every activation returns a fresh array, so skipping the
        # float32 copy never aliases the caller's input.
        return _ACTIVATIONS[self.kind](x).astype(np.float32, copy=False)

    def flops(self, input_dim: int) -> int:
        # Count one op per element; tanh is costlier in practice, which
        # the platform cost models capture separately.
        return input_dim


@dataclass
class Argmax(Layer):
    """Final classification layer: index of the maximum logit."""

    name: str = "argmax"

    def output_dim(self, input_dim: int) -> int:
        if input_dim < 1:
            raise ValueError("argmax needs at least one input")
        return 1

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.argmax(x, axis=-1, keepdims=True).astype(np.int64)

    def flops(self, input_dim: int) -> int:
        return input_dim

"""Affine quantization parameters and calibration, TFLite-style.

TFLite's int8 scheme (which the Edge TPU requires):

- activations: per-tensor *asymmetric* affine quantization,
  ``real = scale * (q - zero_point)`` with ``q`` in [-128, 127];
- weights: per-tensor *symmetric* (``zero_point = 0``) int8;
- biases: int32 with ``scale = input_scale * weight_scale`` and
  ``zero_point = 0``.

Calibration observes activation min/max over a representative dataset,
exactly what ``tf.lite.TFLiteConverter`` does with a representative
dataset generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CalibrationObserver",
    "PerChannelQuantParams",
    "QuantParams",
    "qparams_asymmetric",
    "qparams_per_channel",
    "qparams_symmetric",
]

_DTYPE_RANGES = {
    "int8": (-128, 127),
    "int16": (-32768, 32767),
    "int32": (-(2**31), 2**31 - 1),
}

# Elements per block of the blocked (de)quantize: its float64 working
# buffer (512 KiB) stays cache-resident, where a whole-tensor temporary
# costs fresh pages and a second pass through memory.
_BLOCK_ELEMENTS = 1 << 16


def _row_blocks(values: np.ndarray, out: np.ndarray):
    """Yield ``(block, out_block, work)`` over leading-axis row blocks.

    Each block holds about ``_BLOCK_ELEMENTS`` elements and at least one
    row, so a 0-d or smaller tensor is a single block.  ``work`` is a
    float64 view, of the block's shape, into one buffer that every
    block reuses.
    """
    values = np.atleast_1d(values)
    out = np.atleast_1d(out)
    rows = len(values)
    step = max(1, _BLOCK_ELEMENTS // max(1, math.prod(values.shape[1:])))
    work = np.empty((min(step, rows),) + values.shape[1:], dtype=np.float64)
    for start in range(0, rows, step):
        stop = min(start + step, rows)
        yield values[start:stop], out[start:stop], work[:stop - start]


@dataclass(frozen=True)
class QuantParams:
    """Per-tensor affine quantization: ``real = scale * (q - zero_point)``.

    Attributes:
        scale: Positive real step size.
        zero_point: Integer mapped to real 0.0; must be representable in
            ``dtype``.
        dtype: Quantized storage type: ``int8``, ``int16`` or ``int32``.
    """

    scale: float
    zero_point: int
    dtype: str = "int8"

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPE_RANGES:
            raise ValueError(
                f"unsupported dtype {self.dtype!r}; choose from "
                f"{sorted(_DTYPE_RANGES)}"
            )
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")
        low, high = _DTYPE_RANGES[self.dtype]
        if not low <= self.zero_point <= high:
            raise ValueError(
                f"zero_point {self.zero_point} outside {self.dtype} range"
            )

    @property
    def qmin(self) -> int:
        """Smallest representable quantized value."""
        return _DTYPE_RANGES[self.dtype][0]

    @property
    def qmax(self) -> int:
        """Largest representable quantized value."""
        return _DTYPE_RANGES[self.dtype][1]

    @property
    def numpy_dtype(self) -> np.dtype:
        """The numpy storage dtype."""
        return np.dtype(self.dtype)

    def quantize(self, real: np.ndarray) -> np.ndarray:
        """Quantize float values (round-to-nearest-even, then clamp).

        Runs :meth:`quantize_into` over leading-axis blocks of about
        64k elements with one reused float64 working buffer — the same
        float64 operations in the same order as the textbook
        ``clip(round(real / scale) + zp)``, so bit-identical to it,
        without a float64 temporary the size of the whole tensor.
        """
        real = np.asarray(real)
        out = np.empty(real.shape, dtype=self.numpy_dtype)
        for block, out_block, work in _row_blocks(real, out):
            self.quantize_into(block, out_block, work)
        return out if out.ndim else out[()]

    def quantize_into(self, real: np.ndarray, out: np.ndarray,
                      scratch: np.ndarray) -> np.ndarray:
        """Allocation-free :meth:`quantize` into preallocated buffers.

        Bit-identical to :meth:`quantize` (same float64 divide / round /
        clamp sequence; ``rint`` is what ``round`` runs at zero
        decimals), but every intermediate lives in ``scratch`` and the
        result is written into ``out`` — the plan's arena path.

        Args:
            real: Float values, same shape as ``out`` (may be
                ``scratch`` itself).
            out: Destination of dtype :attr:`numpy_dtype`.
            scratch: float64 working buffer of the same shape.
        """
        if real is not scratch:
            np.copyto(scratch, real, casting="unsafe")
        np.divide(scratch, self.scale, out=scratch)
        np.rint(scratch, out=scratch)
        scratch += self.zero_point
        np.clip(scratch, self.qmin, self.qmax, out=scratch)
        np.copyto(out, scratch, casting="unsafe")
        return out

    def dequantize(self, quantized: np.ndarray,
                   out: np.ndarray | None = None) -> np.ndarray:
        """Recover float32 values from quantized storage.

        Bit-identical to ``((float64(q) - zp) * scale).astype(float32)``,
        computed over the same leading-axis blocks as :meth:`quantize`.

        Args:
            quantized: Quantized codes.
            out: Optional float32 destination of the same shape (a
                slice of a preallocated matrix); returned when given.
        """
        quantized = np.asarray(quantized)
        if out is None:
            out = np.empty(quantized.shape, dtype=np.float32)
        elif out.shape != quantized.shape or out.dtype != np.float32:
            raise ValueError(
                f"out must be float32 of shape {quantized.shape}, got "
                f"{out.dtype} of shape {out.shape}"
            )
        for block, out_block, work in _row_blocks(quantized, out):
            np.copyto(work, block, casting="unsafe")
            work -= self.zero_point
            work *= self.scale
            np.copyto(out_block, work, casting="unsafe")
        return out if out.ndim else out[()]

    def range(self) -> tuple[float, float]:
        """The representable real-value interval ``[rmin, rmax]``."""
        return (
            self.scale * (self.qmin - self.zero_point),
            self.scale * (self.qmax - self.zero_point),
        )


def qparams_asymmetric(rmin: float, rmax: float,
                       dtype: str = "int8") -> QuantParams:
    """Activation qparams covering ``[rmin, rmax]``, nudged like TFLite.

    The real range is first extended to include zero (TFLite requires an
    exactly-representable real 0), then the zero point is rounded into
    the integer grid.

    Args:
        rmin: Smallest observed real value.
        rmax: Largest observed real value.
        dtype: Quantized storage type.
    """
    if not np.isfinite(rmin) or not np.isfinite(rmax):
        raise ValueError(f"range must be finite, got [{rmin}, {rmax}]")
    if rmin > rmax:
        raise ValueError(f"rmin {rmin} > rmax {rmax}")
    rmin = min(rmin, 0.0)
    rmax = max(rmax, 0.0)
    qmin, qmax = _DTYPE_RANGES[dtype]
    if rmax == rmin:
        # Degenerate all-zero tensor: any positive scale represents it.
        return QuantParams(scale=1.0, zero_point=0, dtype=dtype)
    # Guard against subnormal ranges underflowing the scale to zero.
    scale = max((rmax - rmin) / (qmax - qmin), np.finfo(np.float64).tiny)
    zero_point = int(round(qmin - rmin / scale))
    zero_point = int(np.clip(zero_point, qmin, qmax))
    return QuantParams(scale=scale, zero_point=zero_point, dtype=dtype)


def qparams_symmetric(max_abs: float, dtype: str = "int8") -> QuantParams:
    """Weight qparams: symmetric (zero_point 0) covering ``[-max_abs, max_abs]``."""
    if not np.isfinite(max_abs) or max_abs < 0:
        raise ValueError(f"max_abs must be finite and >= 0, got {max_abs}")
    qmin, qmax = _DTYPE_RANGES[dtype]
    if max_abs == 0.0:
        return QuantParams(scale=1.0, zero_point=0, dtype=dtype)
    # Use the positive side of the range so +max_abs maps to qmax, the
    # TFLite convention for symmetric int8 weights.
    return QuantParams(scale=max_abs / qmax, zero_point=0, dtype=dtype)


@dataclass(frozen=True)
class PerChannelQuantParams:
    """Per-output-channel symmetric weight quantization (TFLite style).

    Each output channel ``j`` has its own scale; zero points are all
    zero.  TFLite uses this for conv/fully-connected weights because a
    single tensor-wide scale wastes precision on channels with small
    dynamic range.

    Attributes:
        scales: Positive per-channel scales, shape ``(num_channels,)``.
        dtype: Quantized storage type (int8).
    """

    scales: tuple
    dtype: str = "int8"

    def __post_init__(self) -> None:
        if self.dtype not in _DTYPE_RANGES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        if not self.scales:
            raise ValueError("need at least one channel scale")
        if any(not scale > 0 for scale in self.scales):
            raise ValueError("all channel scales must be > 0")

    @property
    def num_channels(self) -> int:
        """Number of output channels."""
        return len(self.scales)

    @property
    def zero_point(self) -> int:
        """Per-channel weight quantization is always symmetric."""
        return 0

    @property
    def qmin(self) -> int:
        return _DTYPE_RANGES[self.dtype][0]

    @property
    def qmax(self) -> int:
        return _DTYPE_RANGES[self.dtype][1]

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(self.dtype)

    def scales_array(self) -> np.ndarray:
        """The scales as a float64 array."""
        return np.asarray(self.scales, dtype=np.float64)

    def quantize(self, weights: np.ndarray) -> np.ndarray:
        """Quantize a ``(input_dim, num_channels)`` weight matrix."""
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2 or weights.shape[1] != self.num_channels:
            raise ValueError(
                f"expected (input_dim, {self.num_channels}) weights, got "
                f"shape {weights.shape}"
            )
        q = np.round(weights / self.scales_array()[None, :])
        return np.clip(q, self.qmin, self.qmax).astype(self.numpy_dtype)

    def dequantize(self, quantized: np.ndarray) -> np.ndarray:
        """Recover float weights."""
        quantized = np.asarray(quantized, dtype=np.float64)
        return (quantized * self.scales_array()[None, :]).astype(np.float32)


def qparams_per_channel(weights: np.ndarray,
                        dtype: str = "int8") -> PerChannelQuantParams:
    """Per-channel symmetric qparams from a float weight matrix.

    Args:
        weights: Shape ``(input_dim, num_channels)``.
        dtype: Quantized storage type.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
    qmax = _DTYPE_RANGES[dtype][1]
    max_abs = np.abs(weights).max(axis=0)
    # Channels that are entirely zero get scale 1.0 (any value represents
    # them exactly).
    scales = np.where(max_abs > 0, max_abs / qmax, 1.0)
    return PerChannelQuantParams(scales=tuple(float(s) for s in scales),
                                 dtype=dtype)


class CalibrationObserver:
    """Tracks the min/max of an activation tensor over calibration batches."""

    def __init__(self) -> None:
        self.rmin = np.inf
        self.rmax = -np.inf
        self.batches = 0

    def observe(self, values: np.ndarray) -> None:
        """Fold one batch of float activations into the running range."""
        values = np.asarray(values)
        if values.size == 0:
            return
        self.rmin = min(self.rmin, float(values.min()))
        self.rmax = max(self.rmax, float(values.max()))
        self.batches += 1

    def qparams(self, dtype: str = "int8") -> QuantParams:
        """Asymmetric qparams for the observed range.

        Raises:
            RuntimeError: If no batches were observed.
        """
        if self.batches == 0:
            raise RuntimeError("observer saw no calibration data")
        return qparams_asymmetric(self.rmin, self.rmax, dtype=dtype)

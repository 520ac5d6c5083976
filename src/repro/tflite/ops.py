"""Quantized operator kernels with TFLite-faithful integer semantics.

Three ops cover the paper's models:

- ``FULLY_CONNECTED``: int8 inputs/weights, int32 accumulation, affine
  requantization to int8 — the op the Edge TPU's MXU accelerates.
- ``TANH``: 256-entry int8→int8 lookup table with TFLite's fixed output
  quantization (scale 1/128, zero point 0).
- ``ARGMAX``: int8 logits → int64 class index.

The Edge TPU simulator executes these exact kernels, so accelerator
results are bit-identical to the CPU reference interpreter — as on the
real device, where the compiler embeds the same quantized parameters.

Fast path
---------

``FullyConnectedOp`` precomputes, once per op (weights are immutable):

- a per-column offset ``-in_zp * W.sum(axis=0) (+ bias)`` folding the
  input zero-point centering out of the matmul, so the kernel consumes
  raw int8 codes (column sums accumulate the int8 weights in int64,
  with no widened copy of the matrix);
- static worst-case accumulator bounds from the weights.  When the
  bound proves the int32 accumulator can never overflow, the per-invoke
  ``O(batch·d)`` min/max scan is skipped; when it proves every partial
  sum fits a float64 mantissa (``< 2^53`` — true by orders of magnitude
  for d = 10,000 int8 layers), the matmul runs in float64 via BLAS and
  the result is *bit-identical* to the integer path, which is kept as
  the fallback (and, as :meth:`FullyConnectedOp.run_reference`, as the
  frozen seed oracle the equivalence tests and benchmarks compare
  against).

The op holds its weights as int8 only.  Widened ``int64``/``float64``
/``float32`` copies are built lazily, and only by the numpy arena
fallback and the allocating oracles (``run``, ``run_reference``, the
fused ``run_tanh_fused``/``run_argmax_fused`` kernels); the native
VNNI layout (:meth:`FullyConnectedOp.vnni_packed`) is packed from the
int8 weights.  Production inference runs through
:class:`~repro.runtime.plan.ModelPlan`.
"""

from __future__ import annotations

import functools

import numpy as np

from repro import native
from repro.tflite.quantization import (
    PerChannelQuantParams,
    QuantParams,
    qparams_per_channel,
    qparams_symmetric,
)

__all__ = ["ArgmaxOp", "FullyConnectedOp", "Op", "TanhOp"]

# TFLite fixes int8 tanh output quantization to scale=1/128, zero_point=0,
# so the representable range is [-1, 127/128].
TANH_OUTPUT_QPARAMS = QuantParams(scale=1.0 / 128.0, zero_point=0, dtype="int8")

_INT32_MIN = -(2**31)
_INT32_MAX = 2**31 - 1

# Integer sums are exact in float64 as long as every partial sum stays
# below the 53-bit mantissa, regardless of the association order BLAS
# picks.  Module-level so tests can shrink it to force the integer
# fallback on layers far too small to exceed the real bound.
_FLOAT64_EXACT_LIMIT = 2**53

# Same argument with the 24-bit float32 mantissa: when the worst-case
# partial sum stays below 2^24, the GEMM can run in float32 (half the
# memory traffic of the float64 path) and still produce exact integer
# accumulators.  The encoder layers of the paper's models qualify; wide
# classifier layers generally do not and stay on the float64 path.
_FLOAT32_EXACT_LIMIT = 2**24


@functools.lru_cache(maxsize=None)
def _tanh_lut(scale: float, zero_point: int, dtype: str) -> np.ndarray:
    """Shared int8 tanh lookup table for one input quantization grid.

    The table is a pure function of the input qparams (the output grid
    is TFLite's fixed one), so instances with the same input grid — in
    practice every encoder compiled from the same calibration data, and
    every bagging sub-model op — share one read-only array instead of
    rebuilding 256 tanh evaluations per op instance.
    """
    input_qparams = QuantParams(scale=scale, zero_point=zero_point,
                                dtype=dtype)
    # LUT indexed by (q - qmin): dequantize every possible int8 code,
    # apply float tanh, requantize into the fixed output grid.
    codes = np.arange(-128, 128, dtype=np.int32)
    lut = TANH_OUTPUT_QPARAMS.quantize(np.tanh(input_qparams.dequantize(codes)))
    lut.setflags(write=False)
    return lut


@functools.lru_cache(maxsize=None)
def _tanh_lut_u8view(scale: float, zero_point: int, dtype: str) -> np.ndarray:
    """The tanh LUT rotated to be indexed by the uint8 *view* of int8 codes.

    ``int8 -> uint8`` reinterpretation maps code ``q`` to ``q mod 256``,
    so rotating the ``(q + 128)``-indexed table by 128 lets ``run``
    gather straight from ``x.view(np.uint8)`` with no
    ``astype(int32) + 128`` temporary.
    """
    lut = np.roll(_tanh_lut(scale, zero_point, dtype), -128)
    lut.setflags(write=False)
    return lut


class Op:
    """Interface for quantized single-input/single-output operators."""

    kind: str = "OP"
    name: str
    input_qparams: QuantParams
    output_qparams: QuantParams | None

    def run(self, x: np.ndarray) -> np.ndarray:
        """Execute on a quantized ``(batch, input_dim)`` activation."""
        raise NotImplementedError

    def output_dim(self, input_dim: int) -> int:
        """Output width for ``input_dim``-wide input."""
        raise NotImplementedError

    @property
    def weight_bytes(self) -> int:
        """On-device parameter storage in bytes."""
        return 0

    def macs_per_sample(self) -> int:
        """Multiply-accumulate operations per sample (MXU work)."""
        return 0


class FullyConnectedOp(Op):
    """int8 fully connected: ``y = requant((x - in_zp) @ W + bias)``.

    Weights and bias are treated as immutable after construction (the
    op caches derived weight layouts and precomputed bounds); the
    stored views are read-only to enforce that.

    Args:
        weights: Quantized int8 weights, shape ``(input_dim, output_dim)``.
        input_qparams: Activation qparams of the input tensor.
        weight_qparams: Symmetric qparams the weights were quantized
            with — per-tensor (:class:`QuantParams`) or per-output-
            channel (:class:`PerChannelQuantParams`).
        output_qparams: Activation qparams of the output tensor.
        bias: Optional int32 bias with scale ``in_scale * w_scale``
            (per-channel scales with per-channel weights).
        name: Operator name.
    """

    kind = "FULLY_CONNECTED"

    def __init__(self, weights: np.ndarray, input_qparams: QuantParams,
                 weight_qparams: QuantParams, output_qparams: QuantParams,
                 bias: np.ndarray | None = None, name: str = "fc"):
        weights = np.asarray(weights)
        if weights.dtype != np.int8:
            raise TypeError(f"weights must be int8, got {weights.dtype}")
        if weights.ndim != 2:
            raise ValueError(f"weights must be 2-D, got shape {weights.shape}")
        if weight_qparams.zero_point != 0:
            raise ValueError("TFLite fully-connected weights must be symmetric")
        if isinstance(weight_qparams, PerChannelQuantParams) and \
                weight_qparams.num_channels != weights.shape[1]:
            raise ValueError(
                f"per-channel scales cover {weight_qparams.num_channels} "
                f"channels but weights have {weights.shape[1]} outputs"
            )
        if bias is not None:
            bias = np.asarray(bias)
            if bias.dtype != np.int32:
                raise TypeError(f"bias must be int32, got {bias.dtype}")
            if bias.shape != (weights.shape[1],):
                raise ValueError(
                    f"bias shape {bias.shape} does not match output dim "
                    f"{weights.shape[1]}"
                )
            bias = bias.view()
            bias.setflags(write=False)
        weights = weights.view()
        weights.setflags(write=False)
        self.weights = weights
        self.bias = bias
        self.input_qparams = input_qparams
        self.weight_qparams = weight_qparams
        self.output_qparams = output_qparams
        self.name = name
        # Requantization multiplier: real accumulator value per unit is
        # in_scale * w_scale; the output grid is out_scale.  A per-channel
        # weight scale yields a per-output-column multiplier vector.
        if isinstance(weight_qparams, PerChannelQuantParams):
            self._multiplier = (
                input_qparams.scale * weight_qparams.scales_array()
                / output_qparams.scale
            )
        else:
            self._multiplier = (
                input_qparams.scale * weight_qparams.scale
                / output_qparams.scale
            )
        # --- fast-path precomputation (weights are immutable) ---------
        zp = input_qparams.zero_point
        # int64 accumulation straight from the int8 weights: no widened
        # copy of the matrix is ever held.
        column_sum = weights.sum(axis=0, dtype=np.int64)
        # Fold the input zero-point centering into a per-column offset so
        # the matmul consumes raw int8 codes:
        #   (x - zp) @ W + b  ==  x @ W + (-zp * W.sum(axis=0) + b)
        offset = -zp * column_sum
        if bias is not None:
            offset = offset + bias.astype(np.int64)
        self._offset_i64 = offset
        self._offset_f64 = offset.astype(np.float64)
        # Static worst-case accumulator bound, per column:
        #   |acc_j| <= max|x - zp| * sum_i |W_ij| + |b_j|
        # |int8| viewed as uint8 is exact for every code, -128 included.
        column_abs_sum = np.abs(weights).view(np.uint8).sum(
            axis=0, dtype=np.int64)
        max_centered = max(abs(input_qparams.qmin - zp),
                           abs(input_qparams.qmax - zp))
        acc_bound = max_centered * column_abs_sum
        if bias is not None:
            acc_bound = acc_bound + np.abs(bias.astype(np.int64))
        self._acc_abs_bound = int(acc_bound.max(initial=0))
        # When the static bound already proves the int32 accumulator
        # cannot overflow, the per-invoke min/max scan is skipped.
        self._static_int32_safe = self._acc_abs_bound <= _INT32_MAX
        # The BLAS path computes x @ W in float64 on raw codes.  Every
        # partial sum (in any association order) is bounded by
        # max|x| * sum_i |W_ij|, and the offset addition by that plus
        # |offset_j|; if the worst column stays below 2^53 every
        # intermediate is an exactly-representable integer.
        max_raw = max(abs(input_qparams.qmin), abs(input_qparams.qmax))
        raw_bound = max_raw * column_abs_sum + np.abs(offset)
        self._raw_abs_bound = int(raw_bound.max(initial=0))
        self._blas_exact = self._raw_abs_bound < _FLOAT64_EXACT_LIMIT
        self._blas_f32_exact = self._raw_abs_bound < _FLOAT32_EXACT_LIMIT

    @classmethod
    def from_float(cls, weights: np.ndarray, input_qparams: QuantParams,
                   output_qparams: QuantParams, bias: np.ndarray | None = None,
                   per_channel: bool = False,
                   name: str = "fc") -> "FullyConnectedOp":
        """Quantize float weights (symmetric int8) and bias (int32).

        Args:
            per_channel: Use per-output-channel weight scales (TFLite's
                higher-precision scheme) instead of one tensor-wide
                scale.
        """
        weights = np.asarray(weights, dtype=np.float32)
        if per_channel:
            weight_qparams = qparams_per_channel(weights)
        else:
            # max|w| without a full-size np.abs temporary (NaN still
            # propagates, so qparams_symmetric still rejects it).
            weight_qparams = qparams_symmetric(
                max(float(weights.max()), -float(weights.min())))
        weights_q = weight_qparams.quantize(weights)
        bias_q = None
        if bias is not None:
            if per_channel:
                bias_scale = (
                    input_qparams.scale * weight_qparams.scales_array()
                )
            else:
                bias_scale = input_qparams.scale * weight_qparams.scale
            bias_q = np.clip(
                np.round(np.asarray(bias, dtype=np.float64) / bias_scale),
                _INT32_MIN, _INT32_MAX,
            ).astype(np.int32)
        return cls(weights_q, input_qparams, weight_qparams, output_qparams,
                   bias=bias_q, name=name)

    @property
    def input_dim(self) -> int:
        return self.weights.shape[0]

    def output_dim(self, input_dim: int) -> int:
        if input_dim != self.weights.shape[0]:
            raise ValueError(
                f"op {self.name!r} expects input dim {self.weights.shape[0]}, "
                f"got {input_dim}"
            )
        return self.weights.shape[1]

    @property
    def weight_bytes(self) -> int:
        total = self.weights.size  # int8: one byte per weight
        if self.bias is not None:
            total += self.bias.size * 4
        return total

    def macs_per_sample(self) -> int:
        return self.weights.size

    # ------------------------------------------------------------------
    # Weight layouts, derived lazily from the int8 weights and cached
    # ------------------------------------------------------------------

    @functools.cached_property
    def _weights_i64(self) -> np.ndarray:
        """int64 weights: the integer fallback and oracle operand."""
        return self.weights.astype(np.int64)

    @functools.cached_property
    def _weights_f64(self) -> np.ndarray:
        """float64 weights: the BLAS operand of the allocating kernels."""
        return self.weights.astype(np.float64)

    def vnni_packed(self) -> "native.PackedFc | None":
        """This op's weights in the native VNNI kernel layout, or ``None``.

        ``None`` when the kernel cannot run the op exactly: a
        per-channel multiplier, or an int32 bound the static check
        cannot prove (see :func:`repro.native.vnni_accumulator_bound`).
        Packed once per op and read-only, so every plan — on any
        thread — shares it; the depth is padded for the AMX engine when
        it loaded and the op is at least
        :data:`~repro.native.AMX_MIN_DEPTH` deep.  Callers check
        :func:`repro.native.available` first.
        """
        try:
            return self.__dict__["_vnni_packed"]
        except KeyError:
            pass
        packed = None
        if (isinstance(self._multiplier, float)
                and native.vnni_accumulator_bound(
                    self.weights, self._offset_i64) <= _INT32_MAX):
            amx = (self.weights.shape[0] >= native.AMX_MIN_DEPTH
                   and native.amx_available())
            try:
                packed = native.pack_fc(self.weights, self._offset_i64,
                                        amx=amx)
            except OverflowError:
                packed = None
        self.__dict__["_vnni_packed"] = packed
        return packed

    # ------------------------------------------------------------------
    # Accumulation: BLAS fast path, integer fallback, frozen oracle
    # ------------------------------------------------------------------

    def _acc_f64(self, x: np.ndarray) -> np.ndarray:
        """The accumulator as exact integers in float64, overflow-checked.

        Dispatches to the BLAS path when the static bound proves float64
        exactness, else to the cached-int64 fallback; either way the
        values equal the int32 accumulator TFLite would produce (the
        fallback and :meth:`accumulate_reference` assert as much in
        tests).
        """
        if x.dtype != np.int8:
            raise TypeError(f"input must be int8, got {x.dtype}")
        if self._blas_exact:
            acc = x.astype(np.float64) @ self._weights_f64
            acc += self._offset_f64
        else:
            acc = (x.astype(np.int64) @ self._weights_i64
                   + self._offset_i64).astype(np.float64)
        if not self._static_int32_safe:
            if acc.min(initial=0) < _INT32_MIN or acc.max(initial=0) > _INT32_MAX:
                raise OverflowError(
                    f"op {self.name!r}: int32 accumulator overflow "
                    f"(range [{acc.min()}, {acc.max()}])"
                )
        return acc

    def accumulate(self, x: np.ndarray) -> np.ndarray:
        """The int32 accumulator values (pre-requantization), for testing."""
        return self._acc_f64(x).astype(np.int32)

    def accumulate_reference(self, x: np.ndarray) -> np.ndarray:
        """The seed implementation, frozen as the bit-exactness oracle.

        Re-casts weights per call and scans the accumulator range per
        invoke — exactly the pre-fast-path kernel.  Kept (and exercised
        by the equivalence tests and the fastpath benchmark) so any
        divergence in the optimized paths is caught against unchanged
        code rather than against a refactor of itself.
        """
        if x.dtype != np.int8:
            raise TypeError(f"input must be int8, got {x.dtype}")
        # int64 accumulation guards against overflow in numpy; TFLite's
        # int32 accumulator cannot overflow for our layer sizes, which the
        # range check below asserts.
        centered = x.astype(np.int64) - self.input_qparams.zero_point
        acc = centered @ self.weights.astype(np.int64)
        if self.bias is not None:
            acc = acc + self.bias.astype(np.int64)
        if acc.min(initial=0) < _INT32_MIN or acc.max(initial=0) > _INT32_MAX:
            raise OverflowError(
                f"op {self.name!r}: int32 accumulator overflow "
                f"(range [{acc.min()}, {acc.max()}])"
            )
        return acc.astype(np.int32)

    def _requantize(self, acc: np.ndarray) -> np.ndarray:
        """Float64 accumulator -> requantized float64 codes (in place)."""
        out = acc * self._multiplier
        np.round(out, out=out)
        out += self.output_qparams.zero_point
        np.clip(out, self.output_qparams.qmin, self.output_qparams.qmax,
                out=out)
        return out

    def run(self, x: np.ndarray) -> np.ndarray:
        return self._requantize(self._acc_f64(x)).astype(np.int8)

    # ------------------------------------------------------------------
    # In-place (arena) execution paths — zero steady-state allocations
    # ------------------------------------------------------------------

    @property
    def gemm_dtype(self) -> np.dtype:
        """The dtype the in-place accumulator path computes in.

        ``float32`` when the static bound proves 24-bit exactness,
        ``float64`` under the 53-bit bound, else ``int64`` (the
        checked integer fallback).  The serving plan sizes its scratch
        buffers from this.
        """
        if self._blas_f32_exact:
            return np.dtype(np.float32)
        if self._blas_exact:
            return np.dtype(np.float64)
        return np.dtype(np.int64)

    def _gemm_operands(self) -> tuple:
        """Weights and folded offset widened to :attr:`gemm_dtype`.

        Built lazily (only the numpy arena fallback needs them) and
        cached — weights are immutable.
        """
        dtype = self.gemm_dtype
        if dtype == np.float64:
            return self._weights_f64, self._offset_f64
        if dtype == np.int64:
            return self._weights_i64, self._offset_i64
        cached = self.__dict__.get("_gemm_operands_f32")
        if cached is None:
            cached = (self.weights.astype(np.float32),
                      self._offset_f64.astype(np.float32))
            self.__dict__["_gemm_operands_f32"] = cached
        return cached

    def accumulate_into(self, x: np.ndarray, acc: np.ndarray,
                        x_wide: np.ndarray,
                        offset: np.ndarray | None = None) -> np.ndarray:
        """Exact accumulator into preallocated buffers (no heap churn).

        Value-identical to :meth:`_acc_f64` (same static exactness
        bounds, same overflow check), but the widened input lives in
        ``x_wide`` and the accumulator in ``acc`` — both of dtype
        :attr:`gemm_dtype`, preallocated by the caller (the serving
        plan's arena).

        Args:
            x: int8 input ``(rows, input_dim)``.
            acc: ``(rows, output_dim)`` destination, dtype
                :attr:`gemm_dtype`.
            x_wide: ``(rows, input_dim)`` scratch, dtype
                :attr:`gemm_dtype`.
            offset: Optional pre-tiled ``(rows, output_dim)`` copy of
                the folded offset row.  Broadcasting the ``(n,)`` row
                makes numpy's ufunc machinery malloc a transient
                iteration buffer; a same-shape operand keeps the add
                allocation-free (identical values either way).
        """
        if x.dtype != np.int8:
            raise TypeError(f"input must be int8, got {x.dtype}")
        weights, row_offset = self._gemm_operands()
        np.copyto(x_wide, x, casting="unsafe")
        np.matmul(x_wide, weights, out=acc)
        acc += row_offset if offset is None else offset
        if not self._static_int32_safe:
            if acc.min(initial=0) < _INT32_MIN \
                    or acc.max(initial=0) > _INT32_MAX:
                raise OverflowError(
                    f"op {self.name!r}: int32 accumulator overflow "
                    f"(range [{acc.min()}, {acc.max()}])"
                )
        return acc

    def requantize_into(self, acc: np.ndarray, out: np.ndarray,
                        multiplier: np.ndarray | None = None) -> np.ndarray:
        """:meth:`_requantize` into a preallocated float64 buffer.

        ``acc`` may be any :attr:`gemm_dtype`; the rounded, clipped
        codes land in ``out`` as exact integers in the output grid,
        bit-identical to the allocating path.

        Args:
            acc: The raw accumulator.
            out: ``(rows, output_dim)`` float64 destination.
            multiplier: Optional pre-tiled ``(rows, output_dim)`` copy
                of a per-channel multiplier row — same-shape operands
                skip numpy's transient broadcast buffer (see
                :meth:`accumulate_into`).
        """
        if acc.dtype != out.dtype:
            # Widen first: a ufunc with a float32 input would otherwise
            # select the float32 loop and only cast the *result* to the
            # float64 out, losing the low bits the f64 multiply keeps.
            # The accumulator is an exact integer under 2^53, so the
            # widening itself is lossless.
            np.copyto(out, acc)
            acc = out
        np.multiply(acc, self._multiplier if multiplier is None
                    else multiplier, out=out)
        np.round(out, out=out)
        out += self.output_qparams.zero_point
        np.clip(out, self.output_qparams.qmin, self.output_qparams.qmax,
                out=out)
        return out

    def run_reference(self, x: np.ndarray) -> np.ndarray:
        """The seed ``run``, frozen alongside :meth:`accumulate_reference`."""
        acc = self.accumulate_reference(x)
        out = np.round(acc.astype(np.float64) * self._multiplier)
        out = out + self.output_qparams.zero_point
        return np.clip(
            out, self.output_qparams.qmin, self.output_qparams.qmax
        ).astype(np.int8)

    # ------------------------------------------------------------------
    # Allocating fused kernels: the pre-plan serving path, kept as the
    # wall-clock baseline the plan benchmark measures against
    # ------------------------------------------------------------------

    def run_tanh_fused(self, x: np.ndarray, tanh: "TanhOp") -> np.ndarray:
        """``FC -> TANH`` without materializing the intermediate int8 tensor.

        The requantized codes stay float64 (exact integers in
        ``[-128, 127]``) and index the tanh LUT directly; bit-identical
        to ``tanh.run(self.run(x))``.
        """
        codes = self._requantize(self._acc_f64(x))
        codes += 128
        return tanh.lut[codes.astype(np.intp)]

    def run_argmax_fused(self, x: np.ndarray) -> np.ndarray:
        """``FC -> requant -> ARGMAX`` without the int8 intermediate.

        ``argmax`` over the clipped float64 codes picks the same (first)
        maximum as over their int8 cast, so this is bit-identical to
        ``argmax.run(self.run(x))``.
        """
        codes = self._requantize(self._acc_f64(x))
        return np.argmax(codes, axis=-1, keepdims=True).astype(np.int64)


class TanhOp(Op):
    """int8 tanh via a 256-entry lookup table (TFLite's implementation).

    Output quantization is TFLite's fixed ``scale=1/128, zero_point=0``.
    """

    kind = "TANH"

    def __init__(self, input_qparams: QuantParams, name: str = "tanh"):
        if input_qparams.dtype != "int8":
            raise ValueError("int8 tanh requires an int8 input tensor")
        self.input_qparams = input_qparams
        self.output_qparams = TANH_OUTPUT_QPARAMS
        self.name = name
        self.lut = _tanh_lut(
            input_qparams.scale, input_qparams.zero_point,
            input_qparams.dtype,
        )
        # Rotation of `lut` gathered via the uint8 reinterpretation of
        # the int8 input, skipping the `astype(int32) + 128` temporary.
        self._lut_u8 = _tanh_lut_u8view(
            input_qparams.scale, input_qparams.zero_point,
            input_qparams.dtype,
        )

    def output_dim(self, input_dim: int) -> int:
        return input_dim

    @property
    def weight_bytes(self) -> int:
        return self.lut.size  # the table itself

    def run(self, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.int8:
            raise TypeError(f"input must be int8, got {x.dtype}")
        return self._lut_u8[x.view(np.uint8)]


class ArgmaxOp(Op):
    """Class prediction: index of the maximum quantized logit."""

    kind = "ARGMAX"

    def __init__(self, input_qparams: QuantParams, name: str = "argmax"):
        self.input_qparams = input_qparams
        self.output_qparams = None
        self.name = name

    def output_dim(self, input_dim: int) -> int:
        if input_dim < 1:
            raise ValueError("argmax needs at least one input")
        return 1

    def run(self, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.int8:
            raise TypeError(f"input must be int8, got {x.dtype}")
        return np.argmax(x, axis=-1, keepdims=True).astype(np.int64)


"""The serialized quantized-model container (our ``.tflite`` stand-in).

A :class:`FlatModel` is the unit the rest of the system exchanges: the
converter produces one, the reference interpreter executes one, and the
Edge TPU compiler consumes one.  Serialization is a deterministic
struct-packed binary format, so model *size* — which drives the
host→device transfer-time model — is well defined.
"""

from __future__ import annotations

import io
import struct

import numpy as np

from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, Op, TanhOp
from repro.tflite.quantization import PerChannelQuantParams, QuantParams
from repro.tflite.tensor import TensorSpec

__all__ = ["FlatModel"]

_MAGIC = b"RTFL"
_VERSION = 1
_KIND_CODES = {"FULLY_CONNECTED": 1, "TANH": 2, "ARGMAX": 3}
_DTYPE_CODES = {"int8": 1, "int16": 2, "int32": 3}
_CODE_DTYPES = {code: name for name, code in _DTYPE_CODES.items()}


def _write_str(buf: io.BytesIO, text: str) -> None:
    data = text.encode("utf-8")
    buf.write(struct.pack("<H", len(data)))
    buf.write(data)


def _read_str(buf: io.BytesIO) -> str:
    (length,) = struct.unpack("<H", buf.read(2))
    return buf.read(length).decode("utf-8")


def _write_qparams(buf: io.BytesIO, qparams) -> None:
    if qparams is None:
        buf.write(struct.pack("<B", 0))
        return
    if isinstance(qparams, PerChannelQuantParams):
        buf.write(struct.pack("<BBI", 2, _DTYPE_CODES[qparams.dtype],
                              qparams.num_channels))
        buf.write(struct.pack(f"<{qparams.num_channels}d", *qparams.scales))
        return
    buf.write(struct.pack("<BdiB", 1, qparams.scale, qparams.zero_point,
                          _DTYPE_CODES[qparams.dtype]))


def _read_qparams(buf: io.BytesIO):
    (kind,) = struct.unpack("<B", buf.read(1))
    if kind == 0:
        return None
    if kind == 2:
        dtype_code, num_channels = struct.unpack("<BI", buf.read(5))
        scales = struct.unpack(f"<{num_channels}d",
                               buf.read(8 * num_channels))
        return PerChannelQuantParams(scales=scales,
                                     dtype=_CODE_DTYPES[dtype_code])
    scale, zero_point, dtype_code = struct.unpack("<diB", buf.read(13))
    return QuantParams(scale=scale, zero_point=zero_point,
                       dtype=_CODE_DTYPES[dtype_code])


def _write_array(buf: io.BytesIO, array: np.ndarray) -> None:
    buf.write(struct.pack("<B", array.ndim))
    for dim in array.shape:
        buf.write(struct.pack("<I", dim))
    buf.write(struct.pack("<B", _DTYPE_CODES[array.dtype.name]))
    buf.write(np.ascontiguousarray(array).tobytes())


def _read_array(buf: io.BytesIO) -> np.ndarray:
    (ndim,) = struct.unpack("<B", buf.read(1))
    shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(ndim))
    (dtype_code,) = struct.unpack("<B", buf.read(1))
    dtype = np.dtype(_CODE_DTYPES[dtype_code])
    count = int(np.prod(shape)) if shape else 1
    data = buf.read(count * dtype.itemsize)
    return np.frombuffer(data, dtype=dtype).reshape(shape).copy()


class FlatModel:
    """A quantized model: ordered op list plus input/output tensor specs.

    A model is read-only once built: its ops, their weights and its
    specs are not changed in place, so its serialized size is computed
    once (:meth:`size_bytes`).

    Args:
        name: Model name.
        input_spec: Quantized input tensor metadata.
        ops: Operator chain; shapes must link up.
        output_name: Name for the synthesized output spec.

    Raises:
        ValueError: If op shapes do not chain from the input spec.
    """

    def __init__(self, name: str, input_spec: TensorSpec, ops: list[Op],
                 output_name: str = "output"):
        if not ops:
            raise ValueError("a model needs at least one op")
        if input_spec.qparams is None:
            raise ValueError("model input must be quantized")
        self.name = name
        self.input_spec = input_spec
        self.ops = list(ops)
        width = input_spec.size
        for op in self.ops:
            width = op.output_dim(width)
        self.output_spec = TensorSpec(
            name=output_name, shape=(width,),
            qparams=self.ops[-1].output_qparams,
        )
        self._size_bytes: int | None = None

    @property
    def output_is_index(self) -> bool:
        """True when the final op emits class indices (argmax)."""
        return isinstance(self.ops[-1], ArgmaxOp)

    def weight_bytes(self) -> int:
        """Total on-device parameter bytes across all ops."""
        return sum(op.weight_bytes for op in self.ops)

    def macs_per_sample(self) -> int:
        """Total MXU multiply-accumulates per sample."""
        return sum(op.macs_per_sample() for op in self.ops)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the deterministic binary container format."""
        buf = io.BytesIO()
        buf.write(_MAGIC)
        buf.write(struct.pack("<H", _VERSION))
        _write_str(buf, self.name)
        self._write_spec(buf, self.input_spec)
        buf.write(struct.pack("<H", len(self.ops)))
        for op in self.ops:
            buf.write(struct.pack("<B", _KIND_CODES[op.kind]))
            _write_str(buf, op.name)
            _write_qparams(buf, op.input_qparams)
            if isinstance(op, FullyConnectedOp):
                _write_qparams(buf, op.weight_qparams)
                _write_qparams(buf, op.output_qparams)
                _write_array(buf, op.weights)
                if op.bias is None:
                    buf.write(struct.pack("<B", 0))
                else:
                    buf.write(struct.pack("<B", 1))
                    _write_array(buf, op.bias)
        return buf.getvalue()

    @staticmethod
    def _write_spec(buf: io.BytesIO, spec: TensorSpec) -> None:
        _write_str(buf, spec.name)
        buf.write(struct.pack("<B", len(spec.shape)))
        for dim in spec.shape:
            buf.write(struct.pack("<I", dim))
        _write_qparams(buf, spec.qparams)

    @staticmethod
    def _read_spec(buf: io.BytesIO) -> TensorSpec:
        name = _read_str(buf)
        (ndim,) = struct.unpack("<B", buf.read(1))
        shape = tuple(struct.unpack("<I", buf.read(4))[0] for _ in range(ndim))
        return TensorSpec(name=name, shape=shape, qparams=_read_qparams(buf))

    @classmethod
    def from_bytes(cls, data: bytes) -> "FlatModel":
        """Deserialize a model written by :meth:`to_bytes`.

        Raises:
            ValueError: On a bad magic number or unsupported version.
        """
        buf = io.BytesIO(data)
        magic = buf.read(4)
        if magic != _MAGIC:
            raise ValueError(f"not a flat model (magic {magic!r})")
        (version,) = struct.unpack("<H", buf.read(2))
        if version != _VERSION:
            raise ValueError(f"unsupported model version {version}")
        name = _read_str(buf)
        input_spec = cls._read_spec(buf)
        (num_ops,) = struct.unpack("<H", buf.read(2))
        ops: list[Op] = []
        for _ in range(num_ops):
            (kind_code,) = struct.unpack("<B", buf.read(1))
            op_name = _read_str(buf)
            input_qparams = _read_qparams(buf)
            if kind_code == _KIND_CODES["FULLY_CONNECTED"]:
                weight_qparams = _read_qparams(buf)
                output_qparams = _read_qparams(buf)
                weights = _read_array(buf)
                (has_bias,) = struct.unpack("<B", buf.read(1))
                bias = _read_array(buf) if has_bias else None
                ops.append(FullyConnectedOp(
                    weights, input_qparams, weight_qparams, output_qparams,
                    bias=bias, name=op_name,
                ))
            elif kind_code == _KIND_CODES["TANH"]:
                ops.append(TanhOp(input_qparams, name=op_name))
            elif kind_code == _KIND_CODES["ARGMAX"]:
                ops.append(ArgmaxOp(input_qparams, name=op_name))
            else:
                raise ValueError(f"unknown op kind code {kind_code}")
        return cls(name=name, input_spec=input_spec, ops=ops)

    def size_bytes(self) -> int:
        """Serialized size — what travels over USB at model-load time
        (serialized on the first call only)."""
        if self._size_bytes is None:
            self._size_bytes = len(self.to_bytes())
        return self._size_bytes

    def save(self, path) -> None:
        """Write the serialized model to ``path``."""
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "FlatModel":
        """Read a model written by :meth:`save`."""
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    def __repr__(self) -> str:
        return (
            f"FlatModel(name={self.name!r}, input={self.input_spec.shape}, "
            f"output={self.output_spec.shape}, "
            f"ops={[op.kind for op in self.ops]})"
        )

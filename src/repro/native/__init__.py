"""Optional native AVX-512 VNNI kernels for the int8 executor.

The numpy arena of :mod:`repro.runtime.plan` is bit-exact but pays for
generality: the int8 GEMM runs through float64 (or float32) matrix
multiplies, and the requantize + LUT epilogue is a separate numpy pass.
On CPUs with the AVX-512 VNNI extension the whole fused stage — int8
GEMM, requantization, activation lookup — runs in one C kernel at the
int8 throughput the paper's co-design argument assumes, still
bit-identical to the reference interpreter (``vpdpbusd`` accumulates
exactly in int32; the epilogue reproduces the float64 rounding of the
numpy path instruction for instruction).

The kernel, ``fc_fused_i8``, walks the weights one 64-column panel at a
time and runs every row tile against a panel while it sits in L1/L2, so
the weights come from L3 or memory once per call. Each tile is one routine
whose row count (1–6) and 16-column block count (1–4) are compile-time
constants, instantiated for all 24 shapes: full, remainder-row and
narrow-output tiles alike keep their accumulators in zmm registers. The
requantize → lookup epilogue is vectorized too: one ``vpgatherdd`` per
16 outputs from an int32 copy of the table built once per call (gathers
are slower, not wrong, on CPUs with the Gather Data Sampling
mitigation).

This module is *strictly optional* and fails closed:

- it activates only on Linux/x86-64 machines whose ``/proc/cpuinfo``
  advertises ``avx512f``, ``avx512bw`` and ``avx512_vnni`` (the flag
  check runs *before* any native code loads — an illegal instruction
  cannot be caught after the fact);
- the kernel source ships with the package (``kernels.c``) and is
  compiled on first use with the system C compiler into a content-
  addressed cache (``~/.cache/repro-native`` or
  ``$REPRO_NATIVE_CACHE``); no compiler, no native path;
- the compiled library must pass a bit-exactness smoke test against a
  numpy oracle before it is ever used;
- ``REPRO_NATIVE=0`` disables the whole module.

Callers must additionally prove, per op, that the int32 accumulator
cannot overflow — see :func:`vnni_accumulator_bound` and
:meth:`FullyConnectedOp.vnni_packed
<repro.tflite.ops.FullyConnectedOp.vnni_packed>` — and otherwise run
the numpy arena of :mod:`repro.runtime.plan`.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = [
    "IDENTITY_LUT",
    "PackedFc",
    "available",
    "fc_fused_i8_args",
    "library",
    "pack_fc",
    "vnni_accumulator_bound",
]

_INT32_MAX = 2**31 - 1
_REQUIRED_FLAGS = {"avx512f", "avx512bw", "avx512_vnni"}

#: LUT mapping ``code + 128 -> code``: running the fused FC kernel with
#: it yields the bare requantized int8 codes (a fully-connected op with
#: no fused activation).
IDENTITY_LUT = np.arange(-128, 128, dtype=np.int8)
IDENTITY_LUT.setflags(write=False)

# Tri-state module cache: None = undecided, else (lib | False).
_LIB: ctypes.CDLL | bool | None = None


def _cpu_supported() -> bool:
    """Check the ISA flags *before* loading any native code.

    A ``vpdpbusd`` on a CPU without VNNI raises SIGILL, which Python
    cannot catch — so the gate is the advertised flag set, not
    try-and-see.
    """
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        return False
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return False
    for line in text.splitlines():
        if line.startswith("flags"):
            flags = set(line.split(":", 1)[1].split())
            return _REQUIRED_FLAGS <= flags
    return False


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-native"


def _compile(source: Path) -> Path | None:
    """Compile ``kernels.c`` into a content-addressed shared library."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    data = source.read_bytes()
    digest = hashlib.sha256(data).hexdigest()[:16]
    cache = _cache_dir()
    target = cache / f"kernels-{digest}.so"
    if target.exists():
        return target
    tmp = None
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        result = subprocess.run(
            [compiler, "-O3", "-fno-math-errno", "-mavx512f", "-mavx512bw",
             "-mavx512vnni", "-shared", "-fPIC", str(source), "-o", tmp],
            capture_output=True, timeout=120,
        )
        if result.returncode != 0:
            return None
        os.replace(tmp, target)  # atomic: concurrent builders converge
        tmp = None
        return target
    except (OSError, subprocess.SubprocessError):
        return None
    finally:
        # Every exit but a successful rename leaves the temp file behind.
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _bind(lib: ctypes.CDLL) -> None:
    lib.fc_fused_i8.restype = None
    lib.fc_fused_i8.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
        ctypes.c_void_p, ctypes.c_void_p,
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
    ]


def _smoke_test(lib: ctypes.CDLL) -> bool:
    """Bit-exactness check against a pure-numpy oracle on a tiny op.

    13 rows by 80 columns reach every kind of tile a production batch
    runs: row tiles of 6, 6 and 1, and column groups of 4 blocks and 1.
    The table is random, the multiplier drives codes to both clamps, and
    a canary row after the last must come back untouched, so a wrong or
    miscompiled tile, lookup or clamp fails closed to the numpy arena
    before its first use.
    """
    rng = np.random.default_rng(0)
    m, k, n = 13, 23, 80
    x = rng.integers(-128, 128, size=(m, k), dtype=np.int8)
    w = rng.integers(-128, 128, size=(k, n), dtype=np.int8)
    offset = rng.integers(-500, 500, size=n, dtype=np.int64)
    mult, zp, qmin, qmax = 0.004, 3, -128, 127
    lut = rng.integers(-128, 128, size=256, dtype=np.int8)
    packed = pack_fc(w, offset)
    # One canary row past the call in both buffers, as in a plan's arena.
    a = np.full((m + 1, packed.k4 * 4), 255, dtype=np.uint8)
    a[:m] = _shift_u8(x, packed.k4)
    out = np.full((m + 1, packed.n_pad), 99, dtype=np.int8)
    lib.fc_fused_i8(*fc_fused_i8_args(a[:m], packed, mult, zp, qmin, qmax,
                                      lut, out[:m]))
    acc = x.astype(np.int64) @ w.astype(np.int64) + offset
    codes = np.clip(np.round(acc.astype(np.float64) * mult) + zp, qmin, qmax)
    expected = lut[codes.astype(np.intp) + 128]
    return bool(np.array_equal(out[:m, :n], expected)
                and (out[m] == 99).all())


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, or ``None`` when unavailable.

    The first call decides (flag gate, compile, smoke test) and the
    decision is cached for the process lifetime.
    """
    global _LIB
    if _LIB is None:
        _LIB = _load()
    return _LIB if _LIB is not False else None


def _load() -> ctypes.CDLL | bool:
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return False
    if not _cpu_supported():
        return False
    source = Path(__file__).with_name("kernels.c")
    if not source.exists():
        return False
    target = _compile(source)
    if target is None:
        return False
    try:
        lib = ctypes.CDLL(str(target))
        _bind(lib)
    except OSError:
        return False
    try:
        if not _smoke_test(lib):
            return False
    except Exception:
        return False
    return lib


def available() -> bool:
    """Whether the native kernels are usable on this machine."""
    return library() is not None


class PackedFc:
    """One fully-connected op's weights in the VNNI kernel layout.

    Attributes:
        weights: Packed int8 weights — per 16-column block, contiguous
            ``[k4][16 columns][4 k]`` quads (``vpdpbusd`` operand
            order); zero-padded to ``k4 * 4`` input rows and ``n_pad``
            output columns.
        offsets: Folded int32 per-column accumulator init:
            ``offset - 128 * column_sum`` (the +128 activation shift
            pre-subtracted).
        k4: Input depth in packed quads (``ceil(k / 4)``).
        n_pad: Padded output width (multiple of 16).
        n: True output width.
    """

    __slots__ = ("weights", "offsets", "k4", "n_pad", "n")

    def __init__(self, weights: np.ndarray, offsets: np.ndarray,
                 k4: int, n_pad: int, n: int):
        self.weights = weights
        self.offsets = offsets
        self.k4 = k4
        self.n_pad = n_pad
        self.n = n


def vnni_accumulator_bound(weights_int8: np.ndarray,
                           offset_int64: np.ndarray) -> int:
    """Worst-case |int32 partial sum| inside the VNNI kernel.

    The kernel initializes each accumulator to
    ``offset - 128 * column_sum`` and adds ``(x + 128) * W`` terms with
    ``x + 128`` in ``[0, 255]``, so every intermediate is bounded by
    ``|offset| + 383 * sum_k |W_kj|``.  The caller must verify the
    returned bound is ``<= 2^31 - 1`` before using the kernel.
    """
    # |int8| viewed as uint8 is exact for every code, -128 included, and
    # the int64 sum needs no widened copy of the matrix.
    col_abs = np.abs(weights_int8).view(np.uint8).sum(axis=0,
                                                      dtype=np.int64)
    bound = np.abs(np.asarray(offset_int64, dtype=np.int64)) + 383 * col_abs
    return int(bound.max(initial=0))


def pack_fc(weights_int8: np.ndarray, offset_int64: np.ndarray) -> PackedFc:
    """Pack an op's weights + folded offset into the kernel layout.

    The packed arrays are read-only: one packing is shared by every
    plan running the op.
    """
    w = np.ascontiguousarray(weights_int8, dtype=np.int8)
    k, n = w.shape
    k4 = -(-k // 4)
    n_pad = -(-n // 16) * 16
    wpad = np.zeros((k4 * 4, n_pad), dtype=np.int8)
    wpad[:k, :n] = w
    # [nb][k4][16 cols][4 k] contiguous — the order fc_fused_i8 streams.
    packed = np.ascontiguousarray(
        wpad.reshape(k4, 4, n_pad // 16, 16).transpose(2, 0, 3, 1)
    )
    col_sum = w.sum(axis=0, dtype=np.int64)
    offs = np.zeros(n_pad, dtype=np.int64)
    offs[:n] = np.asarray(offset_int64, dtype=np.int64) - 128 * col_sum
    if np.abs(offs).max(initial=0) > _INT32_MAX:
        raise OverflowError("folded offset exceeds int32")
    offs = offs.astype(np.int32)
    packed.setflags(write=False)
    offs.setflags(write=False)
    return PackedFc(packed, offs, k4, n_pad, n)


def _shift_u8(x_int8: np.ndarray, k4: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """``x + 128`` as uint8, zero-padded to ``k4 * 4`` columns."""
    m, k = x_int8.shape
    if out is None:
        out = np.zeros((m, k4 * 4), dtype=np.uint8)
    # uint8 wraparound: (x mod 256) + 128 mod 256 == x + 128 for int8 x.
    np.add(x_int8.view(np.uint8), 128, out=out[:, :k])
    return out


def fc_fused_i8_args(a_u8: np.ndarray, packed: PackedFc, mult: float,
                     zp: int, qmin: int, qmax: int, lut: np.ndarray,
                     out: np.ndarray) -> tuple:
    """The fused FC kernel's C arguments, converted once.

    The kernel runs on buffers that never move — a plan's arenas — so
    callers convert pointers and scalars here once and then call
    ``library().fc_fused_i8(*args)`` per invoke.  The caller keeps the
    buffers alive for as long as it uses the arguments.

    Args:
        a_u8: ``(m, k4 * 4)`` uint8 shifted activations
            (:func:`_shift_u8`).
        packed: The op's :class:`PackedFc`.
        mult: Per-tensor requantization multiplier.
        zp: Output zero point.
        qmin: Output clamp low.
        qmax: Output clamp high.
        lut: 256-entry int8 table indexed by ``code + 128`` (a tanh
            table, or :data:`IDENTITY_LUT` for a bare FC).
        out: ``(m, packed.n_pad)`` int8 destination (written in place).
    """
    return (
        ctypes.c_void_p(a_u8.ctypes.data),
        ctypes.c_void_p(packed.weights.ctypes.data),
        ctypes.c_void_p(packed.offsets.ctypes.data),
        ctypes.c_double(mult), ctypes.c_double(zp),
        ctypes.c_double(qmin), ctypes.c_double(qmax),
        ctypes.c_void_p(lut.ctypes.data), ctypes.c_void_p(out.ctypes.data),
        ctypes.c_int64(a_u8.shape[0]), ctypes.c_int64(packed.k4),
        ctypes.c_int64(packed.n_pad),
    )

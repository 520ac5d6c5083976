"""Optional native AVX-512 VNNI and AMX-INT8 kernels for the int8 executor.

The numpy arena of :mod:`repro.runtime.plan` is bit-exact but pays for
generality: the int8 GEMM runs through float64 (or float32) matrix
multiplies, and the requantize + LUT epilogue is a separate numpy pass.
On CPUs with the AVX-512 VNNI extension the whole fused stage — int8
GEMM, requantization, activation lookup — runs in one C kernel at the
int8 throughput the paper's co-design argument assumes, still
bit-identical to the reference interpreter (``vpdpbusd`` accumulates
exactly in int32; the epilogue reproduces the float64 rounding of the
numpy path instruction for instruction).

The kernel, ``fc_fused_i8``, has two engines on the same packed weights
and the same requantize → lookup epilogue (see ``kernels.c``):

- **VNNI** walks the weights one 64-column panel at a time and runs
  every row tile against a panel while it sits in L1/L2.  Each tile is
  one routine whose row count (1–6) and 16-column block count (1–4) are
  compile-time constants, instantiated for all 24 shapes, so every tile
  keeps its accumulators in zmm registers.
- **AMX** (``fc_fused_i8_amx``) runs the product on the CPU's own
  systolic tile unit, Intel's Advanced Matrix Extensions: 32×32 blocks
  of int32 C tiles fed by 16-row activation tiles and 16 k-quad × 64
  byte weight tiles read straight from the packed blocks, with the
  epilogue of one block overlapped with the next block's tile work.
  Its weights pad the input depth to a multiple of 64 (16 quads) with
  zero rows, and the plan's activation buffer carries the matching zero
  columns (:func:`pack_fc` with ``amx=True``).  It serves a plan stage
  whose input depth is at least :data:`AMX_MIN_DEPTH` at a batch of at
  least :data:`AMX_MIN_ROWS` rows, where it was measured no slower than
  VNNI.

The epilogue looks codes up with ``vpermi2b`` in the AMX build (whose
CPUs all have AVX-512 VBMI) and with one ``vpgatherdd`` per 16 outputs
otherwise (gathers are slower, not wrong, on CPUs with the Gather Data
Sampling mitigation).

This module is *strictly optional* and fails closed:

- it activates only on Linux/x86-64 machines whose ``/proc/cpuinfo``
  advertises ``avx512f``, ``avx512bw`` and ``avx512_vnni`` (the flag
  check runs *before* any native code loads — an illegal instruction
  cannot be caught after the fact);
- the kernel source ships with the package (``kernels.c``) and is
  compiled on first use with the system C compiler into a cache
  (``~/.cache/repro-native`` or ``$REPRO_NATIVE_CACHE``) addressed by
  the source, the compiler and its flags; no compiler, no native path;
- where the CPU also advertises ``amx_tile``, ``amx_int8`` and
  ``avx512vbmi``, the build adds the AMX engine; a compiler without AMX
  support builds the VNNI engine alone;
- the compiled library must pass a bit-exactness smoke test against a
  numpy oracle before it is ever used;
- the AMX engine runs only after the kernel grants the process the
  tile-data state (``arch_prctl(ARCH_REQ_XCOMP_PERM,
  XFEATURE_XTILEDATA)``, asked once at load) and its own smoke test
  passes; a failure there turns off AMX alone, and VNNI serves;
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
    "AMX_MIN_DEPTH",
    "AMX_MIN_ROWS",
    "IDENTITY_LUT",
    "PackedFc",
    "aligned_zeros",
    "amx_available",
    "available",
    "fc_fused_i8_args",
    "library",
    "pack_fc",
    "vnni_accumulator_bound",
]

_INT32_MAX = 2**31 - 1
_REQUIRED_FLAGS = {"avx512f", "avx512bw", "avx512_vnni"}
_AMX_FLAGS = {"amx_tile", "amx_int8", "avx512vbmi"}
_CFLAGS = ("-O3", "-fno-math-errno", "-mavx512f", "-mavx512bw",
           "-mavx512vnni", "-shared", "-fPIC")
_AMX_CFLAGS = _CFLAGS + ("-mavx512vbmi", "-mamx-tile", "-mamx-int8")

#: Shallowest stage (input depth ``k``) the AMX engine serves: at 64
#: its stored-and-reloaded accumulators cost more than its tiles save.
AMX_MIN_DEPTH = 128
#: Smallest batch the AMX engine serves; VNNI runs smaller ones faster.
AMX_MIN_ROWS = 16

#: LUT mapping ``code + 128 -> code``: running the fused FC kernel with
#: it yields the bare requantized int8 codes (a fully-connected op with
#: no fused activation).
IDENTITY_LUT = np.arange(-128, 128, dtype=np.int8)
IDENTITY_LUT.setflags(write=False)

# Tri-state module cache: None = undecided, else (lib | False).
_LIB: ctypes.CDLL | bool | None = None
# Whether the loaded library's AMX engine may run (decided at load).
_AMX = False


def _cpu_flags() -> set[str]:
    """The CPU's advertised ISA flags (empty off Linux/x86-64)."""
    if platform.system() != "Linux" or platform.machine() != "x86_64":
        return set()
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.split(":", 1)[1].split())
    return set()


def _cpu_supported() -> bool:
    """Check the ISA flags *before* loading any native code.

    A ``vpdpbusd`` on a CPU without VNNI raises SIGILL, which Python
    cannot catch — so the gate is the advertised flag set, not
    try-and-see.
    """
    return _REQUIRED_FLAGS <= _cpu_flags()


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-native"


def _compile(source: Path, flags: tuple = _CFLAGS) -> Path | None:
    """Compile ``kernels.c`` with ``flags`` into a shared library named
    by the digest of the compiler's path, the flags and the source, so
    builds with other flags or another compiler never collide."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        return None
    digest = hashlib.sha256()
    digest.update(compiler.encode() + b"\0")
    digest.update(" ".join(flags).encode() + b"\0")
    digest.update(source.read_bytes())
    cache = _cache_dir()
    target = cache / f"kernels-{digest.hexdigest()[:16]}.so"
    if target.exists():
        return target
    tmp = None
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
        result = subprocess.run(
            [compiler, *flags, str(source), "-o", tmp],
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


_FC_ARGTYPES = [
    ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_double, ctypes.c_double, ctypes.c_double, ctypes.c_double,
    ctypes.c_void_p, ctypes.c_void_p,
    ctypes.c_int64, ctypes.c_int64, ctypes.c_int64,
]


def _bind(lib: ctypes.CDLL) -> None:
    kernels = [lib.fc_fused_i8]
    if hasattr(lib, "fc_fused_i8_amx"):
        kernels.append(lib.fc_fused_i8_amx)
        lib.fc_amx_request.restype = ctypes.c_long
        lib.fc_amx_request.argtypes = []
    for kernel in kernels:
        kernel.restype = None
        kernel.argtypes = _FC_ARGTYPES


def _smoke_test(lib: ctypes.CDLL, amx: bool = False) -> bool:
    """Bit-exactness check of one engine against a pure-numpy oracle.

    VNNI runs 13 rows by 80 columns, which reach every kind of tile a
    production batch runs: row tiles of 6, 6 and 1, and column groups of
    4 blocks and 1.  AMX runs 53 rows by 80 columns at depth 70: a full
    32-row group, then a 21-row remainder across the 16-row tile
    boundary, two 2-block panels and a 1-block one, and a depth padded
    from 18 quads to 32 (two k-steps).  The table is random, the
    multiplier drives codes to both clamps, and a canary row after the
    last must come back untouched, so a wrong or miscompiled tile,
    lookup or clamp fails closed before its first use.
    """
    rng = np.random.default_rng(0)
    m, k, n = (53, 70, 80) if amx else (13, 23, 80)
    x = rng.integers(-128, 128, size=(m, k), dtype=np.int8)
    w = rng.integers(-128, 128, size=(k, n), dtype=np.int8)
    offset = rng.integers(-500, 500, size=n, dtype=np.int64)
    mult, zp, qmin, qmax = 0.002 if amx else 0.004, 3, -128, 127
    lut = rng.integers(-128, 128, size=256, dtype=np.int8)
    packed = pack_fc(w, offset, amx=amx)
    # One canary row past the call in both buffers, as in a plan's arena.
    a = np.full((m + 1, packed.k4 * 4), 255, dtype=np.uint8)
    a[:m] = _shift_u8(x, packed.k4)
    out = np.full((m + 1, packed.n_pad), 99, dtype=np.int8)
    kernel = lib.fc_fused_i8_amx if amx else lib.fc_fused_i8
    kernel(*fc_fused_i8_args(a[:m], packed, mult, zp, qmin, qmax, lut,
                             out[:m]))
    acc = x.astype(np.int64) @ w.astype(np.int64) + offset
    codes = np.clip(np.round(acc.astype(np.float64) * mult) + zp, qmin, qmax)
    expected = lut[codes.astype(np.intp) + 128]
    return bool(np.array_equal(out[:m, :n], expected)
                and (out[m] == 99).all())


def library() -> ctypes.CDLL | None:
    """The loaded kernel library, or ``None`` when unavailable.

    The first call decides (flag gate, compile, smoke tests, tile
    permission) and the decision is cached for the process lifetime.
    """
    global _LIB
    if _LIB is None:
        _LIB = _load()
    return _LIB if _LIB is not False else None


def _load() -> ctypes.CDLL | bool:
    """Build, load and check the library; decides :data:`_AMX` too."""
    global _AMX
    _AMX = False
    if os.environ.get("REPRO_NATIVE", "1") == "0":
        return False
    flags = _cpu_flags()
    if not _REQUIRED_FLAGS <= flags:
        return False
    source = Path(__file__).with_name("kernels.c")
    if not source.exists():
        return False
    target = None
    if _AMX_FLAGS <= flags:
        target = _compile(source, _AMX_CFLAGS)
    if target is None:
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
    _AMX = _amx_ready(lib)
    return lib


def _amx_ready(lib: ctypes.CDLL) -> bool:
    """Whether the AMX engine may run: built, granted the tile-data
    state by the kernel, and bit-exact on its smoke test."""
    if not hasattr(lib, "fc_fused_i8_amx"):
        return False
    try:
        return lib.fc_amx_request() == 0 and _smoke_test(lib, amx=True)
    except Exception:
        return False


def available() -> bool:
    """Whether the native kernels are usable on this machine."""
    return library() is not None


def amx_available() -> bool:
    """Whether the loaded kernels' AMX engine is usable."""
    return library() is not None and _AMX


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
        k4: Input depth in packed quads (``ceil(k / 4)``, rounded up
            to a multiple of 16 for the AMX engine).
        n_pad: Padded output width (multiple of 16).
        n: True output width.
        amx: Whether the depth is padded for the AMX engine's 16-quad
            tiles (any engine runs the layout; zero rows add nothing).
    """

    __slots__ = ("weights", "offsets", "k4", "n_pad", "n", "amx")

    def __init__(self, weights: np.ndarray, offsets: np.ndarray,
                 k4: int, n_pad: int, n: int, amx: bool = False):
        self.weights = weights
        self.offsets = offsets
        self.k4 = k4
        self.n_pad = n_pad
        self.n = n
        self.amx = amx


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


def pack_fc(weights_int8: np.ndarray, offset_int64: np.ndarray,
            amx: bool = False) -> PackedFc:
    """Pack an op's weights + folded offset into the kernel layout.

    ``amx`` pads the depth to a multiple of 16 quads (64 inputs) with
    zero weight rows, the AMX engine's k-step.  The packed arrays are
    read-only: one packing is shared by every plan running the op.
    """
    w = np.ascontiguousarray(weights_int8, dtype=np.int8)
    k, n = w.shape
    k4 = -(-k // 64) * 16 if amx else -(-k // 4)
    n_pad = -(-n // 16) * 16
    wpad = np.zeros((k4 * 4, n_pad), dtype=np.int8)
    wpad[:k, :n] = w
    # [nb][k4][16 cols][4 k] contiguous — the order fc_fused_i8 streams.
    packed = aligned_zeros((n_pad // 16, k4, 16, 4), np.int8)
    np.copyto(packed,
              wpad.reshape(k4, 4, n_pad // 16, 16).transpose(2, 0, 3, 1))
    col_sum = w.sum(axis=0, dtype=np.int64)
    offs = np.zeros(n_pad, dtype=np.int64)
    offs[:n] = np.asarray(offset_int64, dtype=np.int64) - 128 * col_sum
    if np.abs(offs).max(initial=0) > _INT32_MAX:
        raise OverflowError("folded offset exceeds int32")
    offs = offs.astype(np.int32)
    packed.setflags(write=False)
    offs.setflags(write=False)
    return PackedFc(packed, offs, k4, n_pad, n, amx)


def aligned_zeros(shape, dtype) -> np.ndarray:
    """A zeroed array whose data starts on a 64-byte cache line, so no
    64-byte kernel row (a tile row, a zmm load) straddles two lines."""
    dtype = np.dtype(dtype)
    nbytes = int(np.prod(shape)) * dtype.itemsize
    raw = np.zeros(nbytes + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def _shift_u8(x_int8: np.ndarray, k4: int,
              out: np.ndarray | None = None) -> np.ndarray:
    """``x + 128`` as uint8, zero-padded to ``k4 * 4`` columns."""
    m, k = x_int8.shape
    if out is None:
        out = aligned_zeros((m, k4 * 4), np.uint8)
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

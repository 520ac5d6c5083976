"""The optional native kernels: build hygiene, packing memory, tiles."""

import ctypes
import functools
import os
import shutil
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro import native
from repro.tflite.ops import FullyConnectedOp, TanhOp
from repro.tflite.quantization import (
    QuantParams,
    qparams_asymmetric,
    qparams_symmetric,
)

needs_native = pytest.mark.skipif(not native.available(),
                                  reason="native kernels unavailable")


def _int8_weights(rows, cols, seed=0):
    rng = np.random.default_rng(seed)
    weights = rng.integers(-128, 128, size=(rows, cols), dtype=np.int8)
    weights[0, :] = -128  # the code whose magnitude int8 cannot hold
    return weights


def _transient_bytes(fn, *args):
    """Peak bytes ``fn`` allocates above what it leaves behind."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - before


class TestCompileCleanup:
    def test_flag_sets_build_distinct_libraries(self, tmp_path, monkeypatch):
        """The cache name covers the compiler and its flags: the AMX
        build and the VNNI-only build of one source never collide."""
        class Done:
            returncode = 0

        def compile_(command, **kwargs):
            Path(command[-1]).write_bytes(b"built")
            return Done()

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path / "cache"))
        monkeypatch.setattr(native.shutil, "which", lambda name: "/bin/cc")
        monkeypatch.setattr(native.subprocess, "run", compile_)
        source = tmp_path / "kernels.c"
        source.write_text("int x;\n")
        base = native._compile(source)
        amx = native._compile(source, native._AMX_CFLAGS)
        assert base is not None and amx is not None and base != amx
        assert native._compile(source) == base
        monkeypatch.setattr(native.shutil, "which", lambda name: "/opt/cc")
        assert native._compile(source) not in (base, amx)
        assert len(list((tmp_path / "cache").iterdir())) == 3

    def test_timeout_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def timeout(*args, **kwargs):
            raise subprocess.TimeoutExpired(args[0], 120)

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setattr(native.shutil, "which", lambda name: "/bin/cc")
        monkeypatch.setattr(native.subprocess, "run", timeout)
        source = tmp_path / "kernels.c"
        source.write_text("int x;\n")
        assert native._compile(source) is None
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kernels.c"]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        class Done:
            returncode = 0

        def replace(src, dst):
            raise OSError("read-only cache")

        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(cache))
        monkeypatch.setattr(native.shutil, "which", lambda name: "/bin/cc")
        monkeypatch.setattr(native.subprocess, "run",
                            lambda *args, **kwargs: Done())
        monkeypatch.setattr(native.os, "replace", replace)
        source = tmp_path / "kernels.c"
        source.write_text("int x;\n")
        assert native._compile(source) is None
        assert list(cache.iterdir()) == []


class TestPackingMemory:
    """Packing reads the int8 weights; it never widens the matrix."""

    def test_accumulator_bound_is_exact_for_min_code(self):
        weights = np.full((3, 2), -128, dtype=np.int8)
        offset = np.array([5, -7], dtype=np.int64)
        assert native.vnni_accumulator_bound(weights, offset) \
            == 7 + 383 * 3 * 128

    def test_bound_and_pack_transients_stay_near_weight_size(self):
        weights = _int8_weights(617, 2000)
        offset = np.zeros(2000, dtype=np.int64)
        # Widening to int64 alone would be 8x the weights.
        _, bound_bytes = _transient_bytes(native.vnni_accumulator_bound,
                                          weights, offset)
        assert bound_bytes < 1.2 * weights.nbytes
        packed, pack_bytes = _transient_bytes(native.pack_fc, weights,
                                              offset)
        assert pack_bytes < 2.2 * weights.nbytes
        assert not packed.weights.flags.writeable
        assert not packed.offsets.flags.writeable

    def test_op_holds_no_widened_weights(self):
        weights = _int8_weights(617, 2000)
        in_qp = qparams_asymmetric(-4.0, 4.0)
        out_qp = qparams_asymmetric(-55.0, 55.0)
        op, build_bytes = _transient_bytes(
            FullyConnectedOp, weights, in_qp, qparams_symmetric(1.0),
            out_qp)
        assert build_bytes < 1.2 * weights.nbytes
        assert "_weights_i64" not in op.__dict__
        assert "_weights_f64" not in op.__dict__
        packed, pack_bytes = _transient_bytes(op.vnni_packed)
        assert packed is op.vnni_packed()
        assert pack_bytes < 2.2 * weights.nbytes
        # The bounds still see -128 at full magnitude.
        assert op._acc_abs_bound == int(
            (np.abs(weights.astype(np.int64)).sum(axis=0)
             * max(abs(in_qp.qmin - in_qp.zero_point),
                   abs(in_qp.qmax - in_qp.zero_point))).max())

    @needs_native
    def test_packed_op_runs_bit_identical(self):
        weights = _int8_weights(37, 40, seed=3)
        in_qp = qparams_asymmetric(-4.0, 4.0)
        out_qp = qparams_asymmetric(-400.0, 400.0)
        op = FullyConnectedOp(weights, in_qp, qparams_symmetric(1.0),
                              out_qp)
        x = np.random.default_rng(1).integers(-128, 128, (7, 37),
                                              dtype=np.int8)
        np.testing.assert_array_equal(
            _run_kernel(op, x, native.IDENTITY_LUT), op.run_reference(x))


def _run_kernel(op, x, lut, engine="vnni", canary=77):
    """Run one engine of ``fc_fused_i8`` for ``op`` on ``x`` with a
    canary row after it.

    ``engine`` is ``"vnni"`` on the op's plain layout, or, where the AMX
    engine loaded, ``"vnni-amx-layout"`` (VNNI on the depth padded for
    AMX) or ``"amx"``.  The activation and output buffers hold one row
    more than the call covers, as a plan's arena does for a smaller
    batch: the canary input row must not leak into the result, and the
    canary output row must come back untouched.
    """
    packed = native.pack_fc(op.weights, op._offset_i64,
                            amx=engine != "vnni")
    kernel = (native.library().fc_fused_i8_amx if engine == "amx"
              else native.library().fc_fused_i8)
    rows = x.shape[0]
    a = np.full((rows + 1, packed.k4 * 4), 255, dtype=np.uint8)
    a[:rows] = native._shift_u8(x, packed.k4)
    out = np.full((rows + 1, packed.n_pad), canary, dtype=np.int8)
    qparams = op.output_qparams
    kernel(*native.fc_fused_i8_args(
        a[:rows], packed, op._multiplier, qparams.zero_point,
        qparams.qmin, qparams.qmax, lut, out[:rows]))
    assert (out[rows] == canary).all(), "wrote past its last row"
    return out[:rows, :op.weights.shape[1]]


ENGINES = ["vnni", "vnni-amx-layout", "amx"]


def _need_engine(engine):
    if not native.available():
        pytest.skip("native kernels unavailable")
    if engine != "vnni" and not native.amx_available():
        pytest.skip("no AMX-INT8 engine loaded (CPU, kernel or compiler "
                    "without AMX)")


def _sweep_op(kind, k, n, seed, rows=13):
    """One op per multiplier kind, with inputs that exercise it.

    ``tie`` has multiplier 0.5 on small codes, so about half the
    accumulators land on an exact .5 and round to even; ``tie256``
    has 2^-8 on full-range codes; ``saturate`` has 64, so nearly every
    code clamps; ``generic`` has the non-dyadic multiplier of
    calibrated ranges.
    """
    rng = np.random.default_rng(seed)
    weight_qp = QuantParams(scale=1.0, zero_point=0)
    span = 128
    if kind == "tie":
        in_qp, out_qp, span = (QuantParams(1.0, 0),
                               QuantParams(2.0, -3), 8)
    elif kind == "tie256":
        in_qp, out_qp = QuantParams(1.0, 5), QuantParams(256.0, 0)
    elif kind == "saturate":
        in_qp, out_qp = QuantParams(1.0, -2), QuantParams(1 / 64, 2)
    else:
        in_qp, out_qp = qparams_asymmetric(-4.0, 4.0), \
            qparams_asymmetric(-400.0, 400.0)
        weight_qp = qparams_symmetric(1.0)
    weights = rng.integers(-span, span, size=(k, n), dtype=np.int8)
    weights[0, 0] = -span
    bias = rng.integers(-16 * span, 16 * span, size=n, dtype=np.int32)
    op = FullyConnectedOp(weights, in_qp, weight_qp, out_qp, bias=bias)
    x = rng.integers(-span, span, size=(rows, k), dtype=np.int8)
    return op, x


# Rows across every VNNI row-tile remainder and the AMX engine's 16- and
# 32-row boundaries; depths in every class of K4 mod 16 near 64 (which
# also covers every k mod 4), plus the paper's 617 and 10,000; widths of
# 1, 2, 3 and 5 column blocks, with and without padded columns.
SWEEP_ROWS = [1, 15, 16, 17, 31, 32, 33, 47, 255, 256, 257]
SWEEP_K = [4 * q - q % 4 for q in range(16, 32)] + [617, 10_000]
SWEEP_N = [3, 16, 26, 48, 80]


@functools.lru_cache(maxsize=len(ENGINES))
def _sweep_case(kind, k, n):
    """The op, its inputs and both tables' expected outputs, shared by
    the engines (whose cases run one after another)."""
    op, x = _sweep_op(kind, k, n, seed=k * 100 + n, rows=max(SWEEP_ROWS))
    tanh = TanhOp(op.output_qparams)
    codes = op.run_reference(x)
    return op, x, {"identity": (native.IDENTITY_LUT, codes),
                   "tanh": (tanh.lut, tanh.run(codes))}


class TestTileShapes:
    """Every engine of ``fc_fused_i8`` equals the reference on every
    tile shape.

    Each case runs on every engine present (VNNI on both layouts and,
    where it loaded, AMX), with the identity and a TANH table, at every
    row count of :data:`SWEEP_ROWS`, and is compared with
    ``FullyConnectedOp.run_reference`` followed by ``TanhOp``'s table.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("n", SWEEP_N)
    @pytest.mark.parametrize("k", SWEEP_K)
    @pytest.mark.parametrize("kind",
                             ["tie", "tie256", "saturate", "generic"])
    def test_every_tile_shape_is_bit_identical(self, kind, k, n, engine):
        _need_engine(engine)
        op, x, tables = _sweep_case(kind, k, n)
        assert op.vnni_packed() is not None
        for rows in SWEEP_ROWS:
            for name, (lut, expected) in tables.items():
                np.testing.assert_array_equal(
                    _run_kernel(op, x[:rows], lut, engine),
                    expected[:rows], err_msg=f"{rows} rows, {name}")

    @pytest.mark.parametrize("kind", ["tie", "tie256", "saturate"])
    def test_sweep_reaches_ties_and_clamps(self, kind):
        """The multiplier kinds hit what they are named for."""
        op, x = _sweep_op(kind, 23, 80, seed=23 * 100 + 80)
        scaled = op.accumulate_reference(x) * op._multiplier
        codes = op.run_reference(x)
        qparams = op.output_qparams
        if kind == "saturate":
            assert (codes == qparams.qmin).any()
            assert (codes == qparams.qmax).any()
        else:
            in_range = np.abs(scaled) < 100
            ties = np.abs(scaled - np.trunc(scaled)) == 0.5
            assert (ties & in_range).sum() >= 4


class _CorruptingKernel:
    """Wraps the loaded library and damages one region of one engine's
    output; every other attribute is the library's.

    The region may include the smoke test's canary row past the call.
    """

    def __init__(self, rows, cols, engine="fc_fused_i8"):
        self.lib = native.library()
        self.rows = rows
        self.cols = cols
        setattr(self, engine, functools.partial(self._damaged, engine))

    def __getattr__(self, name):
        return getattr(self.lib, name)

    def _damaged(self, engine, *args):
        getattr(self.lib, engine)(*args)
        m, n_pad = args[-3].value, args[-1].value
        out = np.ctypeslib.as_array(
            ctypes.cast(args[8].value, ctypes.POINTER(ctypes.c_int8)),
            shape=(m + 1, n_pad))
        out[self.rows, self.cols] += 1


needs_amx = pytest.mark.skipif(
    not native.amx_available(),
    reason="no AMX-INT8 engine loaded (CPU, kernel or compiler without "
           "AMX)")


class TestSmokeTest:
    """The load-time smoke tests reach every kind of production tile."""

    def test_kernel_loads_where_the_cpu_supports_it(self):
        """A kernel that fails its smoke test fails here, not silently."""
        if (os.environ.get("REPRO_NATIVE", "1") == "0"
                or not native._cpu_supported()
                or not (shutil.which("cc") or shutil.which("gcc"))):
            pytest.skip("no AVX-512 VNNI CPU or no C compiler")
        assert native.available()

    def test_amx_loads_where_the_cpu_supports_it(self):
        """An AMX engine that fails its smoke test fails here."""
        if (not native.available()
                or not native._AMX_FLAGS <= native._cpu_flags()):
            pytest.skip("no kernels, or no AMX-INT8 and AVX-512 VBMI CPU")
        if not hasattr(native.library(), "fc_fused_i8_amx"):
            pytest.skip("the C compiler cannot build AMX code")
        if native.library().fc_amx_request() != 0:
            pytest.skip("the kernel does not grant the AMX tile state")
        assert native.amx_available()

    @needs_native
    def test_passes_on_the_loaded_kernel(self):
        assert native._smoke_test(native.library())

    @needs_amx
    def test_amx_passes_on_the_loaded_kernel(self):
        assert native._smoke_test(native.library(), amx=True)

    @pytest.mark.parametrize("rows, cols", [
        (slice(0, 6), slice(0, 64)),     # a full 6x4 tile
        (slice(12, 13), slice(0, 16)),   # the 1-row remainder tile
        (slice(0, 6), slice(64, 80)),    # the 1-block column group
        (slice(13, 14), slice(0, 16)),   # one row past the call
    ])
    @needs_native
    def test_fails_on_a_damaged_tile(self, rows, cols):
        assert not native._smoke_test(_CorruptingKernel(rows, cols))

    @pytest.mark.parametrize("rows, cols", [
        (slice(0, 16), slice(0, 16)),    # a full C tile
        (slice(16, 32), slice(16, 32)),  # the second row and column tile
        (slice(32, 48), slice(0, 32)),   # the remainder group's full tile
        (slice(48, 53), slice(0, 16)),   # its 5-row tile
        (slice(32, 53), slice(64, 80)),  # the 1-block panel's remainder
        (slice(53, 54), slice(0, 16)),   # one row past the call
    ])
    @needs_amx
    def test_amx_fails_on_a_damaged_tile(self, rows, cols):
        damaged = _CorruptingKernel(rows, cols, engine="fc_fused_i8_amx")
        assert native._smoke_test(damaged)
        assert not native._smoke_test(damaged, amx=True)

    @needs_amx
    def test_a_failing_amx_engine_turns_off_only_amx(self, monkeypatch):
        damaged = _CorruptingKernel(slice(32, 53), slice(0, 16),
                                    engine="fc_fused_i8_amx")
        monkeypatch.setattr(native.ctypes, "CDLL", lambda path: damaged)
        monkeypatch.setattr(native, "_LIB", None)
        monkeypatch.setattr(native, "_AMX", False)
        assert native.available()
        assert native.library() is damaged
        assert not native.amx_available()

    @needs_native
    def test_fails_when_the_table_is_ignored(self):
        class IdentityKernel:
            def fc_fused_i8(self, *args):
                lut = ctypes.c_void_p(native.IDENTITY_LUT.ctypes.data)
                native.library().fc_fused_i8(*args[:7], lut, *args[8:])

        assert not native._smoke_test(IdentityKernel())

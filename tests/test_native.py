"""The optional native kernels: build hygiene, packing memory, tiles."""

import ctypes
import os
import shutil
import subprocess
import tracemalloc

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


def _run_kernel(op, x, lut, canary=77):
    """Run ``fc_fused_i8`` for ``op`` on ``x`` with a canary row after it.

    The activation and output buffers hold one row more than the call
    covers, as a plan's arena does for a smaller batch: the canary
    input row must not leak into the result, and the canary output row
    must come back untouched.
    """
    packed = op.vnni_packed()
    rows = x.shape[0]
    a = np.full((rows + 1, packed.k4 * 4), 255, dtype=np.uint8)
    a[:rows] = native._shift_u8(x, packed.k4)
    out = np.full((rows + 1, packed.n_pad), canary, dtype=np.int8)
    qparams = op.output_qparams
    native.library().fc_fused_i8(*native.fc_fused_i8_args(
        a[:rows], packed, op._multiplier, qparams.zero_point,
        qparams.qmin, qparams.qmax, lut, out[:rows]))
    assert (out[rows] == canary).all(), "wrote past its last row"
    return out[:rows, :op.weights.shape[1]]


def _sweep_op(kind, k, n, seed):
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
    x = rng.integers(-span, span, size=(13, k), dtype=np.int8)
    return op, x


@needs_native
class TestTileShapes:
    """``fc_fused_i8`` equals the reference on every tile shape.

    Rows 1-13 reach every row tile (6, 6 and 1-6 remainders), ``k`` mod 4
    every zero-padded input quad, and ``n`` every column group (1-4
    blocks, with and without padded columns).  Each case runs with the
    identity and a TANH table, and is compared with
    ``FullyConnectedOp.run_reference`` followed by ``TanhOp``'s table.
    """

    @pytest.mark.parametrize("n", [3, 16, 26, 48, 64, 80])
    @pytest.mark.parametrize("k", [20, 21, 22, 23])
    @pytest.mark.parametrize("kind",
                             ["tie", "tie256", "saturate", "generic"])
    def test_every_tile_shape_is_bit_identical(self, kind, k, n):
        op, x = _sweep_op(kind, k, n, seed=k * 100 + n)
        assert op.vnni_packed() is not None
        tanh = TanhOp(op.output_qparams)
        codes = op.run_reference(x)
        tables = {"identity": (native.IDENTITY_LUT, codes),
                  "tanh": (tanh.lut, tanh.run(codes))}
        for rows in range(1, 14):
            for name, (lut, expected) in tables.items():
                np.testing.assert_array_equal(
                    _run_kernel(op, x[:rows], lut),
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
    """Wraps the loaded kernel and damages one region of its output.

    The region may include the smoke test's canary row past the call.
    """

    def __init__(self, rows, cols):
        self.rows = rows
        self.cols = cols

    def fc_fused_i8(self, *args):
        native.library().fc_fused_i8(*args)
        m, n_pad = args[-3].value, args[-1].value
        out = np.ctypeslib.as_array(
            ctypes.cast(args[8].value, ctypes.POINTER(ctypes.c_int8)),
            shape=(m + 1, n_pad))
        out[self.rows, self.cols] += 1


class TestSmokeTest:
    """The load-time smoke test reaches every kind of production tile."""

    def test_kernel_loads_where_the_cpu_supports_it(self):
        """A kernel that fails its smoke test fails here, not silently."""
        if (os.environ.get("REPRO_NATIVE", "1") == "0"
                or not native._cpu_supported()
                or not (shutil.which("cc") or shutil.which("gcc"))):
            pytest.skip("no AVX-512 VNNI CPU or no C compiler")
        assert native.available()

    @needs_native
    def test_passes_on_the_loaded_kernel(self):
        assert native._smoke_test(native.library())

    @pytest.mark.parametrize("rows, cols", [
        (slice(0, 6), slice(0, 64)),     # a full 6x4 tile
        (slice(12, 13), slice(0, 16)),   # the 1-row remainder tile
        (slice(0, 6), slice(64, 80)),    # the 1-block column group
        (slice(13, 14), slice(0, 16)),   # one row past the call
    ])
    @needs_native
    def test_fails_on_a_damaged_tile(self, rows, cols):
        assert not native._smoke_test(_CorruptingKernel(rows, cols))

    @needs_native
    def test_fails_when_the_table_is_ignored(self):
        class IdentityKernel:
            def fc_fused_i8(self, *args):
                lut = ctypes.c_void_p(native.IDENTITY_LUT.ctypes.data)
                native.library().fc_fused_i8(*args[:7], lut, *args[8:])

        assert not native._smoke_test(IdentityKernel())

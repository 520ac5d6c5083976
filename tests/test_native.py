"""The optional native kernels: build hygiene and packing memory."""

import subprocess
import tracemalloc

import numpy as np
import pytest

from repro import native
from repro.tflite.ops import FullyConnectedOp
from repro.tflite.quantization import qparams_asymmetric, qparams_symmetric


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

    @pytest.mark.skipif(not native.available(),
                        reason="native kernels unavailable")
    def test_packed_op_runs_bit_identical(self):
        weights = _int8_weights(37, 40, seed=3)
        in_qp = qparams_asymmetric(-4.0, 4.0)
        out_qp = qparams_asymmetric(-400.0, 400.0)
        op = FullyConnectedOp(weights, in_qp, qparams_symmetric(1.0),
                              out_qp)
        packed = op.vnni_packed()
        x = np.random.default_rng(1).integers(-128, 128, (7, 37),
                                              dtype=np.int8)
        out = np.empty((7, packed.n_pad), dtype=np.int8)
        native.library().fc_fused_i8(*native.fc_fused_i8_args(
            native._shift_u8(x, packed.k4), packed, op._multiplier,
            out_qp.zero_point, out_qp.qmin, out_qp.qmax,
            native.IDENTITY_LUT, out))
        np.testing.assert_array_equal(out[:, :40], op.run_reference(x))

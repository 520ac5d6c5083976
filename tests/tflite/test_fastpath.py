"""Bit-exactness tests for the int8 fast-path compute engine.

Every optimized path in ``repro.tflite.ops`` — the BLAS float64 matmul,
the precomputed zero-point offset, the static overflow bound, the fused
``FC→TANH`` / ``FC→requant→ARGMAX`` kernels, the uint8-view tanh LUT
and the arena plan the interpreter executes through — must be
*byte-identical* to the frozen seed implementation
(``run_reference`` / ``accumulate_reference``).  These tests sweep
random shapes and qparams (per-channel weights, bias, zero-point
extremes, adversarial saturated inputs) and force the integer fallback
via a shrunken float64-exactness limit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tflite.ops as ops_module
from repro.runtime.plan import ModelPlan, _stage_specs
from repro.tflite.interpreter import Interpreter
from repro.tflite.flatmodel import FlatModel
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric
from repro.tflite.tensor import TensorSpec


def _random_fc(rng, in_dim, out_dim, *, zero_point=None, bias=False,
               per_channel=False, out_range=30.0):
    in_qp = qparams_asymmetric(-4.0, 4.0)
    if zero_point is not None:
        in_qp = type(in_qp)(scale=in_qp.scale, zero_point=zero_point,
                            dtype="int8")
    out_qp = qparams_asymmetric(-out_range, out_range)
    w = rng.standard_normal((in_dim, out_dim)).astype(np.float32)
    b = (rng.standard_normal(out_dim) * 5).astype(np.float32) if bias else None
    return FullyConnectedOp.from_float(w, in_qp, out_qp, bias=b,
                                       per_channel=per_channel)


def _adversarial_inputs(rng, batch, in_dim):
    """Random codes plus the saturating corner cases."""
    blocks = [
        rng.integers(-128, 128, (batch, in_dim)).astype(np.int8),
        np.full((1, in_dim), -128, dtype=np.int8),
        np.full((1, in_dim), 127, dtype=np.int8),
        np.zeros((1, in_dim), dtype=np.int8),
    ]
    return np.vstack(blocks)


class TestFastPathEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(
        in_dim=st.integers(1, 40),
        out_dim=st.integers(1, 12),
        batch=st.integers(1, 9),
        zero_point=st.integers(-128, 127),
        bias=st.booleans(),
        per_channel=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_run_matches_reference(self, in_dim, out_dim, batch, zero_point,
                                   bias, per_channel, seed):
        rng = np.random.default_rng(seed)
        op = _random_fc(rng, in_dim, out_dim, zero_point=zero_point,
                        bias=bias, per_channel=per_channel)
        x = _adversarial_inputs(rng, batch, in_dim)
        assert op._blas_exact  # real layers are far below the 2^53 bound
        assert op.run(x).tobytes() == op.run_reference(x).tobytes()
        assert op.accumulate(x).tobytes() == \
            op.accumulate_reference(x).tobytes()

    @pytest.mark.parametrize("zero_point", [-128, -1, 0, 127])
    def test_zero_point_extremes(self, rng, zero_point):
        op = _random_fc(rng, 33, 7, zero_point=zero_point, bias=True)
        x = _adversarial_inputs(rng, 6, 33)
        np.testing.assert_array_equal(op.run(x), op.run_reference(x))
        np.testing.assert_array_equal(op.accumulate(x),
                                      op.accumulate_reference(x))

    def test_integer_fallback_forced(self, rng, monkeypatch):
        # A genuine > 2^53 accumulator needs ~5e11 weight rows, far past
        # any constructible array — shrink the limit so an ordinary
        # layer exceeds it and the integer fallback path runs.
        monkeypatch.setattr(ops_module, "_FLOAT64_EXACT_LIMIT", 1)
        op = _random_fc(rng, 24, 5, zero_point=17, bias=True)
        assert not op._blas_exact
        x = _adversarial_inputs(rng, 8, 24)
        np.testing.assert_array_equal(op.run(x), op.run_reference(x))
        np.testing.assert_array_equal(op.accumulate(x),
                                      op.accumulate_reference(x))

    def test_fallback_matches_blas_path(self, rng, monkeypatch):
        op_fast = _random_fc(rng, 19, 6, zero_point=-77, bias=True)
        monkeypatch.setattr(ops_module, "_FLOAT64_EXACT_LIMIT", 1)
        rng2 = np.random.default_rng(1234)
        op_slow = _random_fc(rng2, 19, 6, zero_point=-77, bias=True)
        assert op_fast._blas_exact and not op_slow._blas_exact
        np.testing.assert_array_equal(op_fast.weights, op_slow.weights)
        x = _adversarial_inputs(rng, 5, 19)
        assert op_fast.run(x).tobytes() == op_slow.run(x).tobytes()

    def test_static_bound_skips_scan_only_when_safe(self, rng):
        op = _random_fc(rng, 50, 4)
        # max|x - zp| * |W|.sum(axis=0) (+|bias|) bounds every reachable
        # accumulator; small layers are statically int32-safe.
        assert op._static_int32_safe
        assert op._acc_abs_bound <= 2**31 - 1

    def test_overflow_still_raised_past_static_bound(self):
        # 70k rows of weight 127 with zp = -128 can exceed int32: the
        # static bound is not provable, so the dynamic scan must stay
        # and raise exactly like the seed kernel.
        in_dim = 70_000
        weights = np.full((in_dim, 2), 127, dtype=np.int8)
        in_qp = qparams_asymmetric(-4.0, 4.0)
        in_qp = type(in_qp)(scale=in_qp.scale, zero_point=-128, dtype="int8")
        out_qp = qparams_asymmetric(-30.0, 30.0)
        from repro.tflite.quantization import qparams_symmetric
        op = FullyConnectedOp(weights, in_qp, qparams_symmetric(1.0), out_qp)
        assert not op._static_int32_safe
        assert op._blas_exact  # still exact in float64, just not int32-safe
        hot = np.full((1, in_dim), 127, dtype=np.int8)
        with pytest.raises(OverflowError):
            op.run(hot)
        with pytest.raises(OverflowError):
            op.run_reference(hot)
        cold = np.full((1, in_dim), -96, dtype=np.int8)
        np.testing.assert_array_equal(op.run(cold), op.run_reference(cold))

    def test_weights_and_bias_are_read_only(self, rng):
        op = _random_fc(rng, 8, 3, bias=True)
        with pytest.raises(ValueError):
            op.weights[0, 0] = 0
        with pytest.raises(ValueError):
            op.bias[0] = 0


class TestFusedStages:
    def _chain(self, rng, n=37, d=64, k=9):
        in_qp = qparams_asymmetric(-4.0, 4.0)
        hid_qp = qparams_asymmetric(-40.0, 40.0)
        out_qp = qparams_asymmetric(-20.0, 20.0)
        fc1 = FullyConnectedOp.from_float(
            rng.standard_normal((n, d)).astype(np.float32), in_qp, hid_qp,
            name="encode")
        tanh = TanhOp(hid_qp, name="tanh")
        fc2 = FullyConnectedOp.from_float(
            rng.standard_normal((d, k)).astype(np.float32) * 0.05,
            tanh.output_qparams, out_qp, name="classify")
        argmax = ArgmaxOp(out_qp, name="argmax")
        return [fc1, tanh, fc2, argmax], in_qp

    def test_fc_tanh_fused_bit_identical(self, rng):
        chain, _ = self._chain(rng)
        fc1, tanh = chain[0], chain[1]
        x = _adversarial_inputs(rng, 11, fc1.input_dim)
        fused = fc1.run_tanh_fused(x, tanh)
        unfused = tanh.run(fc1.run(x))
        assert fused.dtype == np.int8
        assert fused.tobytes() == unfused.tobytes()

    def test_fc_argmax_fused_bit_identical(self, rng):
        chain, _ = self._chain(rng)
        fc2, argmax = chain[2], chain[3]
        x = rng.integers(-128, 128, (13, fc2.input_dim)).astype(np.int8)
        fused = fc2.run_argmax_fused(x)
        unfused = argmax.run(fc2.run(x))
        assert fused.dtype == np.int64
        assert fused.shape == unfused.shape
        assert fused.tobytes() == unfused.tobytes()

    def test_argmax_tie_breaks_like_unfused(self):
        # Equal logits must resolve to the first maximum on both paths.
        in_qp = qparams_asymmetric(-4.0, 4.0)
        out_qp = qparams_asymmetric(-4.0, 4.0)
        weights = np.tile(np.array([[5, 5, 5]], dtype=np.int8), (4, 1))
        from repro.tflite.quantization import qparams_symmetric
        fc = FullyConnectedOp(weights, in_qp, qparams_symmetric(1.0), out_qp)
        argmax = ArgmaxOp(out_qp)
        x = np.array([[1, 2, 3, 4], [0, 0, 0, 0]], dtype=np.int8)
        np.testing.assert_array_equal(fc.run_argmax_fused(x),
                                      argmax.run(fc.run(x)))

    def test_stage_plan_shape(self, rng):
        # The plan fuses FC+TANH into one stage; FC+ARGMAX stays a bare
        # FC plus an argmax (bit-identical: requantization is monotone).
        chain, _ = self._chain(rng)
        kinds = [(kind, fused is not None)
                 for kind, _, fused, _ in _stage_specs(chain, 37)]
        assert kinds == [("fc", True), ("fc", False), ("argmax", False)]
        assert len(_stage_specs(chain[:3], 37)) == 2  # FC+TANH, bare FC
        assert len(_stage_specs([chain[1]], 64)) == 1  # bare tanh
        assert len(_stage_specs(chain[:1], 37)) == 1  # bare FC

    def test_full_chain_matches_op_by_op(self, rng):
        chain, in_qp = self._chain(rng)
        model = FlatModel("hdc", TensorSpec("input", (37,), in_qp), chain)
        x = _adversarial_inputs(rng, 17, chain[0].input_dim)
        expected = x
        for op in chain:
            expected = op.run(expected)
        got = ModelPlan.for_model(model, len(x)).run_device(x)
        assert got.dtype == np.int64
        assert got.tobytes() == expected.tobytes()

    def test_interpreter_uses_fused_dispatch(self, rng):
        chain, in_qp = self._chain(rng)
        model = FlatModel("hdc", TensorSpec("input", (37,), in_qp), chain)
        interp = Interpreter(model)
        x = _adversarial_inputs(rng, 9, 37)
        expected = x
        for op in chain:
            expected = op.run(expected)
        got = interp.run_quantized(x)
        # The interpreter runs its own arena plan, grown to the batch.
        assert interp._plan.max_rows == len(x)
        assert got.tobytes() == expected[..., :].tobytes()
        # Reference semantics end to end: per-op seed kernels.
        ref = chain[1].run(chain[0].run_reference(x))
        ref = chain[3].run(chain[2].run_reference(ref))
        assert got.tobytes() == ref.tobytes()


class TestTanhU8View:
    def test_matches_indexed_lut_on_all_codes(self):
        op = TanhOp(qparams_asymmetric(-3.0, 5.0))
        every = np.arange(-128, 128, dtype=np.int8).reshape(2, 128)
        got = op.run(every)
        expected = op.lut[every.astype(np.int32) + 128]
        assert got.tobytes() == expected.tobytes()

    def test_non_contiguous_input(self, rng):
        op = TanhOp(qparams_asymmetric(-4.0, 4.0))
        wide = rng.integers(-128, 128, (6, 32)).astype(np.int8)
        view = wide[::2, ::4]
        expected = op.lut[view.astype(np.int32) + 128]
        np.testing.assert_array_equal(op.run(view), expected)

    def test_rotated_lut_read_only(self):
        op = TanhOp(qparams_asymmetric(-4.0, 4.0))
        assert not op._lut_u8.flags.writeable
        b = TanhOp(qparams_asymmetric(-4.0, 4.0))
        assert op._lut_u8 is b._lut_u8  # shared like the primary table

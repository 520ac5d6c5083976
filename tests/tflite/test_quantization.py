"""Tests for affine quantization and calibration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.tflite import (
    CalibrationObserver,
    QuantParams,
    qparams_asymmetric,
    qparams_symmetric,
)
from repro.tflite.quantization import _BLOCK_ELEMENTS


class TestQuantParams:
    def test_roundtrip_error_bounded_by_half_step(self, rng):
        qp = qparams_asymmetric(-4.0, 4.0)
        real = rng.uniform(-4, 4, 1000)
        recovered = qp.dequantize(qp.quantize(real))
        assert np.abs(recovered - real).max() <= qp.scale / 2 + 1e-9

    def test_clamping(self):
        qp = qparams_asymmetric(-1.0, 1.0)
        q = qp.quantize(np.array([100.0, -100.0]))
        assert q[0] == qp.qmax
        assert q[1] == qp.qmin

    def test_zero_is_exactly_representable(self):
        # TFLite invariant: real 0.0 quantizes and dequantizes exactly.
        for rmin, rmax in [(-3.7, 9.2), (0.5, 8.0), (-6.0, -1.0)]:
            qp = qparams_asymmetric(rmin, rmax)
            assert qp.dequantize(qp.quantize(np.array([0.0])))[0] == 0.0

    def test_int8_range_properties(self):
        qp = QuantParams(scale=0.5, zero_point=3, dtype="int8")
        assert qp.qmin == -128 and qp.qmax == 127
        assert qp.numpy_dtype == np.int8

    def test_range(self):
        qp = QuantParams(scale=1.0, zero_point=0, dtype="int8")
        assert qp.range() == (-128.0, 127.0)

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            QuantParams(scale=0.0, zero_point=0)

    def test_rejects_zero_point_out_of_range(self):
        with pytest.raises(ValueError, match="zero_point"):
            QuantParams(scale=1.0, zero_point=200, dtype="int8")

    def test_rejects_unknown_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            QuantParams(scale=1.0, zero_point=0, dtype="float8")


def _textbook_quantize(qp, real):
    """The pre-optimization expression, kept as the oracle."""
    q = np.round(np.asarray(real, dtype=np.float64) / qp.scale)
    q = q + qp.zero_point
    return np.clip(q, qp.qmin, qp.qmax).astype(qp.numpy_dtype)


class TestQuantizeInPlace:
    """``quantize`` is bit-identical to the textbook expression and
    never writes into the caller's array."""

    @settings(max_examples=150, deadline=None)
    @given(
        scale=st.floats(1e-4, 50.0),
        zero_point=st.integers(-128, 127),
        dtype=st.sampled_from([np.float32, np.float64]),
        data=st.data(),
    )
    def test_matches_textbook_expression(self, scale, zero_point, dtype,
                                         data):
        qp = QuantParams(scale=scale, zero_point=zero_point)
        width = 32 if dtype == np.float32 else 64
        real = data.draw(hnp.arrays(
            dtype, hnp.array_shapes(max_dims=2, max_side=24),
            elements=st.floats(-1e6, 1e6, width=width)
            | st.sampled_from([np.inf, -np.inf]),
        ))
        # Exact ties on the integer grid and far out-of-range values.
        ties = (np.arange(-140, 140) + 0.5) * scale
        real = np.concatenate([real.ravel(), ties.astype(dtype)])
        before = real.copy()
        expected = _textbook_quantize(qp, real).tobytes()
        got = qp.quantize(real)
        assert got.dtype == np.int8
        assert got.tobytes() == expected
        np.testing.assert_array_equal(real, before)
        # The arena variant agrees too, into its own buffers.
        arena = np.empty(real.shape, dtype=np.int8)
        scratch = np.empty(real.shape)
        assert qp.quantize_into(real, arena, scratch).tobytes() == expected
        np.copyto(scratch, real)
        assert qp.quantize_into(scratch, arena, scratch).tobytes() \
            == expected

    def test_half_ties_round_to_even(self):
        qp = QuantParams(scale=0.5, zero_point=0)
        real = np.array([-1.25, -0.75, -0.25, 0.25, 0.75, 1.25])
        np.testing.assert_array_equal(qp.quantize(real),
                                      [-2, -2, 0, 0, 2, 2])

    def test_float64_input_is_not_written(self):
        qp = QuantParams(scale=0.1, zero_point=3)
        real = np.linspace(-20.0, 20.0, 64)
        before = real.copy()
        qp.quantize(real)
        np.testing.assert_array_equal(real, before)

    def test_scalar_in_scalar_out(self):
        qp = QuantParams(scale=0.5, zero_point=1)
        got = qp.quantize(1.25)
        assert np.ndim(got) == 0 and got.dtype == np.int8
        assert got == _textbook_quantize(qp, 1.25)


def _textbook_dequantize(qp, quantized):
    """The whole-tensor float64 expression, kept as the oracle."""
    return ((np.asarray(quantized, dtype=np.float64) - qp.zero_point)
            * qp.scale).astype(np.float32)


def _blocked_shapes():
    """Shapes one row below, at, one above, and several blocks plus a
    ragged tail past the (de)quantize block, for 1-D, 2-D and 3-D."""
    shapes = [()]
    for row_shape in [(), (100,), (8, 16)]:
        step = _BLOCK_ELEMENTS // max(1, int(np.prod(row_shape)))
        for rows in (step - 1, step, step + 1, 3 * step + 7):
            shapes.append((rows,) + row_shape)
    return shapes


class TestBlockedQuantize:
    """``quantize`` and ``dequantize`` walk leading-axis blocks with one
    reused float64 buffer; every block boundary must be invisible."""

    @pytest.mark.parametrize("zero_point", [0, -7])
    @pytest.mark.parametrize("shape", _blocked_shapes(), ids=str)
    def test_quantize_matches_whole_tensor_formula(self, shape, zero_point):
        qp = QuantParams(scale=0.037, zero_point=zero_point)
        rng = np.random.default_rng(len(shape) + sum(shape))
        real = (rng.standard_normal(shape) * 3.0).astype(np.float32)
        # Exact ties on the grid and clamped values in every block.
        flat = real.reshape(-1)
        flat[::5] = (rng.integers(-200, 200, flat[::5].shape) + 0.5) \
            * qp.scale
        got = qp.quantize(real)
        want = _textbook_quantize(qp, real)
        assert type(got) is type(want)
        assert np.shape(got) == shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @pytest.mark.parametrize("zero_point", [0, 11])
    @pytest.mark.parametrize("shape", _blocked_shapes(), ids=str)
    def test_dequantize_matches_whole_tensor_formula(self, shape,
                                                     zero_point):
        qp = QuantParams(scale=0.0123, zero_point=zero_point)
        rng = np.random.default_rng(len(shape) + sum(shape))
        quantized = rng.integers(-128, 128, shape).astype(np.int8)
        got = qp.dequantize(quantized)
        want = _textbook_dequantize(qp, quantized)
        assert type(got) is type(want)
        assert np.shape(got) == shape
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_dequantize_into_a_slice_of_a_preallocated_matrix(self):
        qp = QuantParams(scale=0.25, zero_point=-3)
        quantized = np.random.default_rng(2).integers(
            -128, 128, (700, 300)).astype(np.int8)
        matrix = np.full((1000, 300), np.nan, dtype=np.float32)
        got = qp.dequantize(quantized, out=matrix[100:800])
        assert got.base is matrix
        assert matrix[100:800].tobytes() == \
            _textbook_dequantize(qp, quantized).tobytes()
        assert np.isnan(matrix[:100]).all() and np.isnan(matrix[800:]).all()

    @pytest.mark.parametrize("out", [
        np.empty((4, 5), dtype=np.float32),
        np.empty((4, 6), dtype=np.float32),
        np.empty((4, 1), dtype=np.float32),
        np.empty((4, 6), dtype=np.float64),
    ], ids=["rows", "cols", "broadcast", "dtype"])
    def test_dequantize_rejects_a_mismatched_out(self, out):
        qp = QuantParams(scale=0.5, zero_point=0)
        with pytest.raises(ValueError, match="out must be float32"):
            qp.dequantize(np.zeros((3, 6), dtype=np.int8), out=out)


class TestAsymmetric:
    def test_covers_range(self):
        qp = qparams_asymmetric(-2.0, 6.0)
        rmin, rmax = qp.range()
        assert rmin <= -2.0 + qp.scale
        assert rmax >= 6.0 - qp.scale

    def test_positive_only_range_extended_to_zero(self):
        qp = qparams_asymmetric(2.0, 6.0)
        rmin, _ = qp.range()
        assert rmin <= 0.0 + 1e-9

    def test_degenerate_range(self):
        qp = qparams_asymmetric(0.0, 0.0)
        assert qp.quantize(np.array([0.0]))[0] == qp.zero_point

    def test_rejects_inverted_range(self):
        with pytest.raises(ValueError, match="rmin"):
            qparams_asymmetric(1.0, -1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            qparams_asymmetric(-np.inf, 1.0)

    @given(rmin=st.floats(-1e4, 0.0), rmax=st.floats(0.0, 1e4))
    @settings(max_examples=50, deadline=None)
    def test_property_quantize_within_dtype(self, rmin, rmax):
        qp = qparams_asymmetric(rmin, rmax)
        values = np.linspace(rmin, rmax, 64)
        q = qp.quantize(values)
        assert q.min() >= qp.qmin and q.max() <= qp.qmax


class TestSymmetric:
    def test_zero_point_is_zero(self):
        qp = qparams_symmetric(3.5)
        assert qp.zero_point == 0

    def test_max_abs_maps_to_qmax(self):
        qp = qparams_symmetric(2.0)
        assert qp.quantize(np.array([2.0]))[0] == 127

    def test_symmetric_negation(self, rng):
        qp = qparams_symmetric(4.0)
        v = rng.uniform(-3.9, 3.9, 100)
        np.testing.assert_array_equal(qp.quantize(v), -qp.quantize(-v))

    def test_zero_max_abs(self):
        qp = qparams_symmetric(0.0)
        assert qp.quantize(np.array([0.0]))[0] == 0

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="max_abs"):
            qparams_symmetric(-1.0)


class TestCalibrationObserver:
    def test_tracks_min_max_across_batches(self, rng):
        obs = CalibrationObserver()
        obs.observe(np.array([1.0, 5.0]))
        obs.observe(np.array([-3.0, 2.0]))
        assert obs.rmin == -3.0 and obs.rmax == 5.0
        assert obs.batches == 2

    def test_qparams_cover_observed(self):
        obs = CalibrationObserver()
        obs.observe(np.array([-1.0, 7.0]))
        qp = obs.qparams()
        rmin, rmax = qp.range()
        assert rmin <= -1.0 + qp.scale and rmax >= 7.0 - qp.scale

    def test_empty_batch_ignored(self):
        obs = CalibrationObserver()
        obs.observe(np.array([]))
        assert obs.batches == 0

    def test_unobserved_raises(self):
        with pytest.raises(RuntimeError, match="no calibration"):
            CalibrationObserver().qparams()

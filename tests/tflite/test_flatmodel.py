"""Tests for FlatModel serialization and structure."""

import numpy as np
import pytest

from repro.tflite import FlatModel, Interpreter, TensorSpec
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric, qparams_symmetric


def _tiny_model(rng, with_argmax=True, with_bias=False, n=6, d=16, k=3,
                per_channel=False):
    in_qp = qparams_asymmetric(-4.0, 4.0)
    hid_qp = qparams_asymmetric(-12.0, 12.0)
    out_qp = qparams_asymmetric(-8.0, 8.0)
    w1 = rng.standard_normal((n, d)).astype(np.float32)
    w2 = rng.standard_normal((d, k)).astype(np.float32)
    bias = rng.standard_normal(d).astype(np.float32) if with_bias else None
    fc1 = FullyConnectedOp.from_float(w1, in_qp, hid_qp, bias=bias,
                                      per_channel=per_channel, name="fc1")
    tanh = TanhOp(hid_qp, name="tanh")
    fc2 = FullyConnectedOp.from_float(w2, tanh.output_qparams, out_qp,
                                      per_channel=per_channel, name="fc2")
    ops = [fc1, tanh, fc2]
    if with_argmax:
        ops.append(ArgmaxOp(out_qp, name="argmax"))
    return FlatModel(
        name="tiny",
        input_spec=TensorSpec("input", (n,), in_qp),
        ops=ops,
    )


class TestStructure:
    def test_output_spec_inferred(self, rng):
        model = _tiny_model(rng, with_argmax=False)
        assert model.output_spec.shape == (3,)
        assert not model.output_is_index

    def test_argmax_output(self, rng):
        model = _tiny_model(rng)
        assert model.output_spec.shape == (1,)
        assert model.output_is_index

    def test_weight_bytes(self, rng):
        model = _tiny_model(rng, with_argmax=False)
        # 6*16 + 16*3 int8 weights plus the 256-byte tanh LUT.
        assert model.weight_bytes() == 6 * 16 + 16 * 3 + 256

    def test_macs(self, rng):
        model = _tiny_model(rng)
        assert model.macs_per_sample() == 6 * 16 + 16 * 3

    def test_rejects_empty_ops(self, rng):
        with pytest.raises(ValueError, match="at least one op"):
            FlatModel("bad", TensorSpec("input", (4,),
                                        qparams_asymmetric(-1, 1)), [])

    def test_rejects_unquantized_input(self, rng):
        model_ops = _tiny_model(rng).ops
        with pytest.raises(ValueError, match="quantized"):
            FlatModel("bad", TensorSpec("input", (6,), None), model_ops)

    def test_rejects_shape_break(self, rng):
        ops = _tiny_model(rng).ops
        with pytest.raises(ValueError, match="input dim"):
            FlatModel("bad", TensorSpec("input", (7,),
                                        qparams_asymmetric(-1, 1)), ops)


class TestSerialization:
    def test_roundtrip_structure(self, rng):
        model = _tiny_model(rng, with_bias=True)
        restored = FlatModel.from_bytes(model.to_bytes())
        assert restored.name == model.name
        assert restored.input_spec == model.input_spec
        assert [op.kind for op in restored.ops] == [op.kind for op in model.ops]

    def test_roundtrip_bit_identical_execution(self, rng):
        model = _tiny_model(rng, with_bias=True)
        restored = FlatModel.from_bytes(model.to_bytes())
        x = rng.uniform(-3, 3, (20, 6)).astype(np.float32)
        np.testing.assert_array_equal(
            Interpreter(model).predict(x), Interpreter(restored).predict(x)
        )

    def test_roundtrip_weights_exact(self, rng):
        model = _tiny_model(rng, with_bias=True)
        restored = FlatModel.from_bytes(model.to_bytes())
        np.testing.assert_array_equal(restored.ops[0].weights,
                                      model.ops[0].weights)
        np.testing.assert_array_equal(restored.ops[0].bias, model.ops[0].bias)

    def test_serialization_deterministic(self, rng):
        model = _tiny_model(rng)
        assert model.to_bytes() == model.to_bytes()

    def test_size_dominated_by_weights(self, rng):
        model = _tiny_model(rng, with_argmax=False)
        weights = 6 * 16 + 16 * 3
        assert model.size_bytes() >= weights
        assert model.size_bytes() < weights + 1024  # small header overhead

    @pytest.mark.parametrize("kwargs", [
        dict(with_argmax=False),
        dict(with_argmax=False, per_channel=True),
        dict(with_argmax=False, with_bias=True),
        dict(with_argmax=False, with_bias=True, per_channel=True),
        dict(with_argmax=True),
    ], ids=["per-tensor", "per-channel", "biased", "biased-per-channel",
            "argmax"])
    def test_size_bytes_is_serialized_length(self, rng, kwargs):
        # size_bytes() is computed once; it must stay the length of
        # what save() writes.
        model = _tiny_model(rng, **kwargs)
        assert model.size_bytes() == len(model.to_bytes())
        assert model.size_bytes() == len(model.to_bytes())
        restored = FlatModel.from_bytes(model.to_bytes())
        assert restored.size_bytes() == model.size_bytes()

    def test_bad_magic_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            FlatModel.from_bytes(b"NOPE" + b"\x00" * 100)

    def test_save_load(self, rng, tmp_path):
        model = _tiny_model(rng)
        path = tmp_path / "model.rtfl"
        model.save(path)
        restored = FlatModel.load(path)
        assert restored.name == model.name
        assert path.stat().st_size == model.size_bytes()

    def test_repr(self, rng):
        assert "FULLY_CONNECTED" in repr(_tiny_model(rng))

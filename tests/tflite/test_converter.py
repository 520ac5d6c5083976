"""Tests for post-training quantization and the reference interpreter."""

import numpy as np
import pytest

from repro.hdc import HDCClassifier
from repro.nn import Activation, Argmax, Dense, Network, from_classifier
from repro.tflite import Interpreter, convert
from repro.tflite.ops import TANH_OUTPUT_QPARAMS


def _blobs(num_samples=400, num_features=10, num_classes=4, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, num_features)) * 4.0
    y = np.arange(num_samples) % num_classes
    rng.shuffle(y)
    x = centers[y] + rng.standard_normal((num_samples, num_features))
    return x.astype(np.float32), y.astype(np.int64)


def _float_net(rng, n=10, d=128, k=4, argmax=False):
    layers = [
        Dense(rng.standard_normal((n, d)).astype(np.float32), name="encode"),
        Activation("tanh", name="tanh"),
        Dense(rng.standard_normal((d, k)).astype(np.float32) * 0.1,
              name="classify"),
    ]
    if argmax:
        layers.append(Argmax(name="argmax"))
    return Network(n, layers, name="float-net")


class TestConvert:
    def test_produces_expected_op_chain(self, rng):
        net = _float_net(rng, argmax=True)
        model = convert(net, rng.standard_normal((64, 10)).astype(np.float32))
        assert [op.kind for op in model.ops] == [
            "FULLY_CONNECTED", "TANH", "FULLY_CONNECTED", "ARGMAX",
        ]

    def test_tanh_output_feeds_next_fc(self, rng):
        net = _float_net(rng)
        model = convert(net, rng.standard_normal((64, 10)).astype(np.float32))
        assert model.ops[2].input_qparams == TANH_OUTPUT_QPARAMS

    def test_quantized_scores_close_to_float(self, rng):
        net = _float_net(rng)
        data = rng.standard_normal((256, 10)).astype(np.float32)
        model = convert(net, data)
        interp = Interpreter(model)
        got = interp.run(data[:32])
        expected = net.forward(data[:32])
        # Per-element error bounded by a few output quantization steps.
        assert np.abs(got - expected).max() < \
            4 * model.output_spec.qparams.scale + 0.05 * np.abs(expected).max()

    def test_rejects_empty_calibration(self, rng):
        net = _float_net(rng)
        with pytest.raises(ValueError, match="non-empty"):
            convert(net, np.zeros((0, 10), dtype=np.float32))

    def test_rejects_feature_mismatch(self, rng):
        net = _float_net(rng)
        with pytest.raises(ValueError, match="features"):
            convert(net, np.zeros((8, 7), dtype=np.float32))

    def test_rejects_unsupported_activation(self, rng):
        net = Network(4, [
            Dense(rng.standard_normal((4, 8))),
            Activation("relu"),
        ])
        with pytest.raises(ValueError, match="relu"):
            convert(net, np.zeros((8, 4), dtype=np.float32))

    def test_model_name_defaults_to_network(self, rng):
        net = _float_net(rng)
        model = convert(net, rng.standard_normal((16, 10)).astype(np.float32))
        assert model.name == "float-net"
        named = convert(net, rng.standard_normal((16, 10)).astype(np.float32),
                        name="custom")
        assert named.name == "custom"

    def test_calibration_batching_equivalent(self, rng):
        # Small calibration batches must give the same ranges/model as one
        # big batch.
        net = _float_net(rng)
        data = rng.standard_normal((100, 10)).astype(np.float32)
        a = convert(net, data, calibration_batch=7)
        b = convert(net, data, calibration_batch=100)
        assert a.input_spec.qparams == b.input_spec.qparams
        np.testing.assert_array_equal(a.ops[0].weights, b.ops[0].weights)


class TestInterpreter:
    def test_predict_from_scores_and_argmax_agree(self, rng):
        net_scores = _float_net(rng)
        net_argmax = Network(
            net_scores.input_dim,
            net_scores.layers + [Argmax(name="argmax")],
        )
        data = rng.standard_normal((128, 10)).astype(np.float32)
        model_scores = convert(net_scores, data)
        model_argmax = convert(net_argmax, data)
        x = data[:20]
        np.testing.assert_array_equal(
            Interpreter(model_scores).predict(x),
            Interpreter(model_argmax).predict(x),
        )

    def test_single_sample(self, rng):
        net = _float_net(rng)
        data = rng.standard_normal((64, 10)).astype(np.float32)
        interp = Interpreter(convert(net, data))
        out = interp.run(data[0])
        assert out.shape == (4,)

    def test_empty_batch_and_growing_batches(self, rng):
        net = _float_net(rng)
        data = rng.standard_normal((64, 10)).astype(np.float32)
        model = convert(net, data)
        interp = Interpreter(model)
        empty = interp.run_quantized(np.zeros((0, 10), dtype=np.int8))
        assert empty.shape == (0, 4) and empty.dtype == np.int8
        assert interp.predict(data[:0]).shape == (0,)
        # Outputs survive later, larger batches (the arena regrows).
        small = interp.run(data[:3])
        kept = small.copy()
        interp.run(data[3:40])
        np.testing.assert_array_equal(small, kept)
        np.testing.assert_array_equal(interp.run(data[:3]), kept)

    def test_rejects_float_for_quantized_entry(self, rng):
        net = _float_net(rng)
        interp = Interpreter(
            convert(net, rng.standard_normal((16, 10)).astype(np.float32))
        )
        with pytest.raises(TypeError, match="int8"):
            interp.run_quantized(np.zeros((1, 10), dtype=np.float32))

    def test_rejects_wrong_width(self, rng):
        net = _float_net(rng)
        interp = Interpreter(
            convert(net, rng.standard_normal((16, 10)).astype(np.float32))
        )
        with pytest.raises(ValueError, match="width"):
            interp.run_quantized(np.zeros((1, 12), dtype=np.int8))


class TestEndToEndAccuracy:
    def test_quantized_hdc_model_accuracy_close_to_float(self):
        # The paper's Fig. 7 claim at unit-test scale: int8 inference
        # accuracy is similar to the float model.
        x, y = _blobs(num_samples=600)
        model = HDCClassifier(dimension=1024, seed=0)
        model.fit(x[:450], y[:450], iterations=5)
        float_acc = model.score(x[450:], y[450:])
        net = from_classifier(model)
        flat = convert(net, x[:256])
        q_pred = Interpreter(flat).predict(x[450:])
        q_acc = float(np.mean(q_pred == y[450:]))
        assert q_acc > float_acc - 0.05

    def test_quantized_isolet_accuracy(self, small_isolet):
        ds = small_isolet
        model = HDCClassifier(dimension=2048, seed=0)
        model.fit(ds.train_x, ds.train_y, iterations=6)
        float_acc = model.score(ds.test_x, ds.test_y)
        flat = convert(from_classifier(model), ds.train_x[:200])
        q_acc = float(np.mean(
            Interpreter(flat).predict(ds.test_x) == ds.test_y
        ))
        assert q_acc > float_acc - 0.06

"""Modeled output must not depend on the Python version.

CPython 3.12's :func:`sum` adds floats with Neumaier compensation;
3.10 and 3.11 add left to right.  A modeled value summed with
:func:`sum` therefore changes its last bits with the interpreter, and
the golden digests with it.  These tests install 3.12's float ``sum``
on any interpreter and check that the values feeding the digests still
come out as left-to-right sums.
"""

import builtins
import math

import numpy as np
import pytest

from repro.edgetpu import EdgeTpuDevice, compile_model
from repro.observability.metrics import LatencyTracker
from repro.tflite import FlatModel, TensorSpec
from repro.tflite.ops import ArgmaxOp, FullyConnectedOp, TanhOp
from repro.tflite.quantization import qparams_asymmetric

_builtin_sum = builtins.sum


def _compensated_sum(iterable, start=0):
    """CPython 3.12's ``sum`` over floats (Neumaier summation); any
    other input goes to the interpreter's own ``sum``."""
    items = list(iterable)
    if not items or not all(type(item) is float for item in items):
        return _builtin_sum(items, start)
    total = start + items[0]
    compensation = 0.0
    for item in items[1:]:
        step = total + item
        if abs(total) >= abs(item):
            compensation += (total - step) + item
        else:
            compensation += (item - step) + total
        total = step
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def _left_to_right(values):
    total = 0.0
    for value in values:
        total += value
    return total


@pytest.fixture()
def compensated_sum(monkeypatch):
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    # The emulation compensates: 1 + 2^-53 + 2^-53 keeps both halves.
    assert sum([1.0, 2.0 ** -53, 2.0 ** -53]) == 1.0 + 2.0 ** -52


def test_tracker_mean_adds_left_to_right(compensated_sum):
    tracker = LatencyTracker()
    tracker.record_many(np.array([1.0, 2.0 ** -53, 2.0 ** -53]))
    assert tracker.mean == 1.0 / 3
    assert tracker.summary()["mean_s"] == 1.0 / 3


def _compiled(seed=0):
    rng = np.random.default_rng(seed)
    in_qp = qparams_asymmetric(-4.0, 4.0)
    hid_qp = qparams_asymmetric(-25.0, 25.0)
    out_qp = qparams_asymmetric(-20.0, 20.0)
    encode = FullyConnectedOp.from_float(
        rng.standard_normal((16, 256)).astype(np.float32), in_qp, hid_qp,
        name="encode")
    tanh = TanhOp(hid_qp, name="tanh")
    classify = FullyConnectedOp.from_float(
        rng.standard_normal((256, 3)).astype(np.float32) * 0.05,
        tanh.output_qparams, out_qp, name="classify")
    model = FlatModel("hdc", TensorSpec("input", (16,), in_qp),
                      [encode, tanh, classify,
                       ArgmaxOp(out_qp, name="argmax")])
    return compile_model(model)


def test_invoke_charge_adds_left_to_right(compensated_sum):
    compiled = _compiled()
    # A batch whose breakdown rounds differently under compensation.
    batch = next(
        (rows for rows in range(1, 65)
         if _compensated_sum(compiled.invoke_breakdown(rows).values())
         != _left_to_right(compiled.invoke_breakdown(rows).values())),
        None,
    )
    assert batch is not None, "every batch sums alike; weak test"
    expected = _left_to_right(compiled.invoke_breakdown(batch).values())
    device = EdgeTpuDevice()
    device.load_model(compiled)
    invoked = device.invoke(np.zeros((batch, 16), dtype=np.int8))
    charged = device.invoke_cost(batch)
    assert invoked.elapsed_s == expected
    assert charged.elapsed_s == expected
    assert compiled.invoke_seconds(batch) == expected

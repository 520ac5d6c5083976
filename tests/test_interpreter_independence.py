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

from repro.cluster import Cluster, ClusterConfig, TenantSpec
from repro.cluster.replica import Replica
from repro.cluster.report import ClusterReport
from repro.edgetpu import EdgeTpuDevice, compile_model
from repro.hdc.bagging import BaggingConfig
from repro.observability.metrics import LatencyTracker
from repro.runtime.costs import CostModel, HdcTrainingConfig, Workload
from repro.serving.server import ServeReport
from repro.serving.swap import SwapRecord
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


# The modeled sums of the serving and cluster reports and the cost
# model.  Each adds values whose compensated sum rounds differently.
_UNEVEN = [1.0, 2.0 ** -53, 2.0 ** -53]


def _report(**fields):
    return ServeReport(num_requests=0, **fields)


@pytest.mark.parametrize("key,fields", [
    pytest.param("energy_j", {"device_energy_j": _UNEVEN}, id="energy_j"),
    pytest.param("swap_load_s", {"device_swap_seconds": _UNEVEN},
                 id="swap_load_s"),
])
def test_serve_summary_device_sums_add_left_to_right(compensated_sum,
                                                      key, fields):
    assert _report(**fields).summary()[key] == _left_to_right(_UNEVEN)


def test_serve_summary_swap_seconds_add_left_to_right(compensated_sum):
    records = [SwapRecord(0.0, 0.0, value, 0.0) for value in _UNEVEN]
    summary = _report(swap_records=records).summary()
    assert summary["swap_s"] == _left_to_right(_UNEVEN)


def test_utilization_adds_left_to_right(compensated_sum):
    report = _report(device_busy_seconds=_UNEVEN,
                     device_idle_seconds=[1.0],
                     device_swap_seconds=[0.0])
    expected = _left_to_right(_UNEVEN) / (_left_to_right(_UNEVEN) + 1.0)
    assert report.utilization == expected
    assert report.utilization != _compensated_sum(_UNEVEN) / 2.0


def test_cluster_energy_adds_left_to_right(compensated_sum):
    replicas = [_report(device_energy_j=_UNEVEN),
                _report(device_energy_j=[2.0 ** -53])]
    cluster = ClusterReport(policy="round_robin", seed=0,
                            replica_reports=replicas,
                            routed_counts=[0, 0])
    summary = cluster.summary()
    assert [row["energy_j"] for row in summary["replicas"]] == [
        _left_to_right(_UNEVEN), 2.0 ** -53]
    assert summary["energy_j"] == cluster.energy_j == 1.0


def test_cluster_device_seconds_add_left_to_right(compensated_sum,
                                                  monkeypatch):
    bills = iter(_UNEVEN)
    monkeypatch.setattr(Replica, "device_seconds",
                        lambda self, until_s: next(bills))
    config = ClusterConfig(
        tenants=(TenantSpec("a", rate_hz=100.0, deadline_s=0.1),),
        total_requests=20, num_replicas=3)
    report = Cluster(_compiled(), config).run()
    assert report.device_seconds == _left_to_right(_UNEVEN)


def test_bagged_encode_adds_left_to_right(compensated_sum, monkeypatch):
    # Six sub-models at 0.1 s each: the six-fold sum rounds on the way.
    charges = [0.1] * 6
    assert _compensated_sum(charges) != _left_to_right(charges)
    monkeypatch.setattr(CostModel, "tpu_encode_seconds",
                        lambda self, *args: 0.1)
    phases = CostModel().tpu_bagged_training(
        Workload("w", num_train=100, num_test=10, num_features=16,
                 num_classes=3),
        HdcTrainingConfig(dimension=256),
        BaggingConfig(num_models=6, dimension=256))
    assert phases.encode == _left_to_right(charges)

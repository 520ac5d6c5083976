"""What is derived from a compiled model is derived once and shared:
packed weights, per-batch cost records, per-arch variants, model size."""

import numpy as np
import pytest

from repro.cluster.traffic import TenantSpec
from repro.config import BackendSpec, FleetSpec
from repro.edgetpu import (
    DevicePool,
    EdgeTpuArch,
    EdgeTpuDevice,
    compile_model,
    make_arch,
)
from repro.runtime.placement import PlacementOptimizer
from repro.tflite import FlatModel
from repro.tflite.ops import FullyConnectedOp
from tests.edgetpu.test_compiler import _hdc_like_model


@pytest.fixture()
def compiled(rng):
    return compile_model(_hdc_like_model(rng))


class TestStageReuse:
    """Satellite: packed weights are built once per op; arenas are
    per owner."""

    @staticmethod
    def _fc_ops(compiled):
        return [op for op in compiled.tpu_ops
                if isinstance(op, FullyConnectedOp)]

    def test_same_object_across_calls(self, compiled):
        for op in self._fc_ops(compiled):
            assert op.vnni_packed() is op.vnni_packed()

    def test_shared_across_pool_devices(self, compiled):
        a = EdgeTpuDevice(arch=compiled.arch)
        b = EdgeTpuDevice(arch=compiled.arch)
        a.load_model(compiled)
        b.load_model(compiled)
        x = np.zeros((4, compiled.model.input_spec.size), dtype=np.int8)
        out_a = a.invoke(x)
        out_b = b.invoke(x)
        np.testing.assert_array_equal(out_a.outputs, out_b.outputs)
        # Each device owns its arena; the read-only packed weights are
        # the op's, shared by both.
        plan_a = a._plans[id(compiled)]
        plan_b = b._plans[id(compiled)]
        assert plan_a is not plan_b
        for stage_a, stage_b in zip(plan_a._device_stages,
                                    plan_b._device_stages):
            assert getattr(stage_a, "_packed", None) \
                is getattr(stage_b, "_packed", None)

    def test_rebuilds_when_op_chain_replaced(self, compiled, rng):
        device = EdgeTpuDevice(arch=compiled.arch)
        device.load_model(compiled)
        x = np.zeros((4, compiled.model.input_spec.size), dtype=np.int8)
        device.invoke(x)
        first = device._plans[id(compiled)]
        # Loading a different model (a new op chain) must build a new
        # plan rather than run a stale one.
        other = compile_model(_hdc_like_model(rng))
        device.load_model(other)
        device.invoke(x)
        again = device._plans[id(other)]
        assert again is not first
        assert again.compiled is other
        assert id(compiled) not in device._plans


class TestMemoEviction:
    """The memoized cost record is exactly the arch's formula."""

    def test_seconds_equal_breakdown_sum(self, compiled):
        for b in (1, 7, 64, 200):
            assert compiled.invoke_seconds(b) == \
                sum(compiled.invoke_breakdown(b).values())


class TestCostRecord:
    """``CompiledModel.invoke_cost``: one read-only record per (model,
    batch size), charged by every device that runs the model."""

    def test_record_is_the_arch_formula(self, compiled):
        arch, plans = compiled.arch, compiled.plans
        for b in (1, 8, 33):
            cost = compiled.invoke_cost(b)
            assert cost.outputs is None
            assert cost.elapsed_s == arch.invoke_seconds(plans, b)
            assert cost.breakdown == arch.invoke_breakdown(plans, b)
            assert cost.bytes_in == b * compiled.tpu_input_bytes
            assert cost.bytes_out == b * compiled.tpu_output_bytes
            assert compiled.invoke_seconds(b) == cost.elapsed_s
            assert compiled.invoke_breakdown(b) is cost.breakdown

    def test_one_record_across_devices_and_pools(self, compiled):
        devices = [EdgeTpuDevice(compiled.arch) for _ in range(2)]
        for device in devices:
            device.load_model(compiled)
        pools = [DevicePool(2, compiled.arch) for _ in range(2)]
        for pool in pools:
            pool.load_replicated(compiled)
        record = compiled.invoke_cost(8)
        charged = [device.invoke_cost(8) for device in devices]
        charged += [pool.invoke_cost(i, 8) for pool in pools
                    for i in range(2)]
        assert all(result is record for result in charged)
        # Each charge still lands on its own device's counters.
        for device in devices + [d for p in pools for d in p.devices]:
            assert device.stats.invocations == 1
            assert device.stats.busy_seconds == \
                compiled.load_seconds() + record.elapsed_s

    def test_invoke_returns_private_breakdown(self, compiled):
        device = EdgeTpuDevice(compiled.arch)
        device.load_model(compiled)
        x = np.zeros((5, compiled.model.input_spec.size), dtype=np.int8)
        first, second = device.invoke(x), device.invoke(x)
        record = compiled.invoke_cost(5)
        assert first.breakdown == record.breakdown
        assert first.breakdown is not record.breakdown
        assert first.breakdown is not second.breakdown
        first.breakdown["overhead"] = -1.0
        assert record.breakdown["overhead"] == compiled.arch.invoke_overhead_s
        assert second.elapsed_s == record.elapsed_s
        assert (second.bytes_in, second.bytes_out) == \
            (record.bytes_in, record.bytes_out)
        assert second.outputs is not None


class TestVariant:
    """``CompiledModel.variant``: the model itself for an equal arch,
    else one recompilation per arch shared by pools and placement."""

    def test_equal_arch_is_the_model_itself(self, compiled):
        assert compiled.variant(compiled.arch) is compiled
        assert compiled.variant(EdgeTpuArch()) is compiled

    def test_other_arch_compiles_once(self, compiled):
        small = compiled.variant(make_arch("edgetpu-small"))
        assert small is not compiled
        assert small.arch == make_arch("edgetpu-small")
        assert small.model is compiled.model
        assert compiled.variant(make_arch("edgetpu-small")) is small

    def test_pool_and_placement_share_variant(self, compiled):
        fleet = FleetSpec(backends=(
            BackendSpec(backend="edgetpu", unit_cost=10.0),
            BackendSpec(backend="edgetpu-small"),
        ))
        placement = PlacementOptimizer(fleet).place(
            compiled, [TenantSpec("t", rate_hz=100.0, deadline_s=1.0)],
        )
        decision = placement.decision_for("t")
        assert decision.group == "edgetpu-small"
        pool = DevicePool(2, archs=[EdgeTpuArch(),
                                    make_arch("edgetpu-small")])
        pool.load_replicated(compiled)
        assert pool.models[0] is compiled
        assert pool.models[1] is decision.compiled
        assert decision.compiled is compiled.variant(decision.arch)
        # The pool's and the placement's variant charge one record.
        assert pool.invoke_cost(1, 4) is decision.compiled.invoke_cost(4)


class TestModelSize:
    """Every device load prices the same serialized size, computed once."""

    def test_loads_serialize_the_model_once(self, rng, monkeypatch):
        calls = []
        to_bytes = FlatModel.to_bytes

        def counting(model):
            calls.append(model)
            return to_bytes(model)

        monkeypatch.setattr(FlatModel, "to_bytes", counting)
        compiled = compile_model(_hdc_like_model(rng))
        pool = DevicePool(3, compiled.arch)
        pool.load_replicated(compiled)
        pool.reload(1, compiled)
        extra = EdgeTpuDevice(compiled.arch)
        extra.load_resident(compiled)
        size = compiled.model.size_bytes()
        assert calls == [compiled.model]
        assert extra.stats.bytes_in == size
        assert pool.devices[1].stats.bytes_in == 2 * size

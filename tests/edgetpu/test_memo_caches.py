"""Bounded memo caches on compiled models: reuse, eviction, exactness."""

import numpy as np
import pytest

from repro.edgetpu import EdgeTpuDevice, compile_model
from repro.edgetpu.compiler import _MEMO_CACHE_SIZE
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
    """Satellite: LRU-bounded memos recompute bit-identically."""

    def test_invoke_seconds_survive_eviction(self, compiled):
        batches = range(1, _MEMO_CACHE_SIZE + 20)
        first = {b: compiled.invoke_seconds(b) for b in batches}
        # The sweep evicted the oldest entries; recomputing them must
        # give the exact same floats (the plan is pure).
        for b in batches:
            assert compiled.invoke_seconds(b) == first[b]

    def test_breakdown_survives_eviction(self, compiled):
        batches = range(1, _MEMO_CACHE_SIZE + 20)
        first = {b: dict(compiled.invoke_breakdown(b)) for b in batches}
        for b in batches:
            assert compiled.invoke_breakdown(b) == first[b]

    def test_breakdown_cache_is_bounded(self, compiled):
        for b in range(1, _MEMO_CACHE_SIZE * 3):
            compiled.invoke_breakdown(b)
        assert len(compiled.__dict__["_breakdown_cache"]) \
            == _MEMO_CACHE_SIZE

    def test_seconds_equal_breakdown_sum(self, compiled):
        for b in (1, 7, 64, 200):
            assert compiled.invoke_seconds(b) == \
                sum(compiled.invoke_breakdown(b).values())

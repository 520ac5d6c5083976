"""The int8 executor: arenas at real batch sizes, zero allocations."""

import tracemalloc

import numpy as np
import pytest

from repro import native
from repro.compression.tiers import TierSpec, build_tiers, compiled_predict
from repro.config import ServeConfig
from repro.edgetpu import DevicePool, EdgeTpuDevice, compile_model
from repro.hdc.bagging import BaggingConfig, BaggingHDCTrainer
from repro.hdc.model import HDCClassifier
from repro.nn import from_classifier
from repro.runtime.plan import ModelPlan, fit_plan
from repro.serving import InferenceServer
from repro.serving.arrivals import Request
from repro.tflite import convert
from repro.tflite.interpreter import Interpreter


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(240, 16)).astype(np.float32)
    y = rng.integers(0, 4, size=240)
    return x, y


@pytest.fixture(scope="module")
def tier_set(data):
    x, y = data
    trainer = BaggingHDCTrainer(
        BaggingConfig(num_models=2, dimension=512, iterations=3), seed=7,
    )
    trainer.fit(x, y)
    specs = (TierSpec("full"),
             TierSpec("compressed", "dpq", dimension=128))
    return build_tiers(trainer.fuse(), x[:96], specs=specs)


@pytest.fixture(scope="module")
def compiled(tier_set):
    return tier_set[0].compiled


def fresh_compiled(x, y, seed=9):
    clf = HDCClassifier(dimension=512, seed=seed)
    clf.fit(x, y, iterations=3)
    return compile_model(
        convert(from_classifier(clf, include_argmax=True), x[:96])
    )


def reference_predictions(compiled, x):
    """The frozen oracle path: reference ops, op by op."""
    out = compiled.model.input_spec.qparams.quantize(np.asarray(x, np.float32))
    for op in compiled.model.ops:
        out = op.run_reference(out) if hasattr(op, "run_reference") \
            else op.run(out)
    if compiled.model.output_is_index:
        return out[:, 0].astype(np.int64)
    return np.argmax(out, axis=-1).astype(np.int64)


class TestModelPlan:
    @pytest.mark.parametrize("allow_native", [True, False])
    def test_bit_identical_to_reference(self, compiled, data, allow_native,
                                        monkeypatch):
        x, _ = data
        if not allow_native:
            monkeypatch.setattr(native, "library", lambda: None)
        plan = ModelPlan(compiled, 32)
        for n in (1, 3, 17, 32):
            np.testing.assert_array_equal(
                np.array(plan.predict(x[:n])),
                reference_predictions(compiled, x[:n]),
            )

    def test_native_flag_matches_module(self, compiled, monkeypatch):
        assert ModelPlan(compiled, 8).native == native.available()
        monkeypatch.setattr(native, "library", lambda: None)
        assert ModelPlan(compiled, 8).native is False

    def test_padding_rows_are_invisible(self, compiled, data):
        # An n-row batch runs on [:n] views of an arena sized for more:
        # the arena rows past n — stale from a larger batch — never
        # leak into its predictions, and nothing runs padded.
        x, _ = data
        plan = ModelPlan(compiled, 8)
        plan.predict(x[8:16])
        q = plan.stage(x[:3])
        assert q.shape[0] == 3
        out = plan.predict(x[:3])
        assert out.shape == (3,)
        np.testing.assert_array_equal(
            np.array(out), reference_predictions(compiled, x[:3])
        )

    def test_executor_through_device_invoke(self, compiled, data):
        x, _ = data
        plan = ModelPlan(compiled, 16)
        device = EdgeTpuDevice(arch=compiled.arch)
        device.load_model(compiled)
        q = plan.stage(x[:16])
        plain = device.invoke(q.copy())
        arena = device.invoke(q, executor=plan.run_device)
        np.testing.assert_array_equal(plain.outputs, arena.outputs)
        assert arena.elapsed_s == plain.elapsed_s

    def test_predict_returns_view(self, compiled, data):
        x, _ = data
        plan = ModelPlan(compiled, 8)
        first = plan.predict(x[:4])
        kept = np.array(first)
        second = plan.predict(x[4:8])
        # Same buffer, new contents: callers must copy to persist.
        assert first.base is second.base
        np.testing.assert_array_equal(
            np.array(second), reference_predictions(compiled, x[4:8])
        )
        assert not np.array_equal(kept, np.array(second))

    def test_oversized_batch_rejected(self, compiled, data):
        x, _ = data
        plan = ModelPlan(compiled, 8)
        with pytest.raises(ValueError, match="exceeds"):
            plan.predict(x[:9])
        with pytest.raises(ValueError, match="max_rows"):
            ModelPlan(compiled, 0)

    def test_for_model_matches_interpreter(self, compiled, data):
        x, _ = data
        interp = Interpreter(compiled.model)
        plan = interp.plan(16)
        for n in (1, 5, 16):
            np.testing.assert_array_equal(
                np.array(plan.predict(x[:n])), interp.predict(x[:n])
            )


class TestDeviceArena:
    def test_invoke_outputs_survive_the_next_invoke(self, compiled, data):
        # The device runs its own arena but hands back copies: the
        # training encode keeps every chunk until it stacks them.
        x, _ = data
        device = EdgeTpuDevice(arch=compiled.arch)
        device.load_model(compiled)
        qparams = compiled.model.input_spec.qparams
        first = device.invoke(qparams.quantize(x[:8])).outputs
        kept = first.copy()
        second = device.invoke(qparams.quantize(x[8:16])).outputs
        np.testing.assert_array_equal(first, kept)
        assert not np.shares_memory(first, second)
        assert not np.array_equal(first, second)

    def test_arena_grows_to_the_largest_batch(self, compiled, data):
        x, _ = data
        device = EdgeTpuDevice(arch=compiled.arch)
        device.load_model(compiled)
        qparams = compiled.model.input_spec.qparams
        arena_rows = []
        for n in (4, 16, 2):
            out = device.invoke(qparams.quantize(x[:n])).outputs
            assert out.shape[0] == n
            arena_rows.append(device._plans[id(compiled)].max_rows)
        assert arena_rows == [4, 16, 16]


class TestZeroAllocation:
    """Satellite: steady-state invokes allocate nothing (tracemalloc)."""

    def _steady_state_peak(self, plan, x, repeats=20):
        plan.predict(x)  # warm every lazy path (gemm operands, views)
        plan.predict(x)
        tracemalloc.start()
        try:
            plan.predict(x)
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(repeats):
                out = plan.predict(x)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out is not None
        return max(peak - baseline, current - baseline)

    @staticmethod
    def _default_server_plan(compiled, x):
        """The arena a server built with the default ``ServeConfig()``
        served ``compiled`` through."""
        pool = DevicePool(1, compiled.arch)
        pool.load_replicated(compiled)
        server = InferenceServer(pool, ServeConfig())
        server.serve([Request(i, i * 1e-4, 1.0, row, 0)
                      for i, row in enumerate(x[:40])])
        return server._plans[id(compiled)]

    @pytest.mark.parametrize("allow_native", [True, False])
    def test_full_width_plan_is_allocation_free(self, compiled, data,
                                                allow_native, monkeypatch):
        x, _ = data
        if not allow_native:
            monkeypatch.setattr(native, "library", lambda: None)
        plan = self._default_server_plan(compiled, x)
        assert plan.native == (allow_native and native.available())
        # Any real regression re-allocates a per-stage array: the f64
        # codes buffer alone is 32 * 512 * 8 = 128 KiB per invoke.
        # Transient Python objects (slice views, closures) stay well
        # under this.
        assert self._steady_state_peak(plan, x[:32]) < 8 * 1024

    def test_compressed_tier_plan_is_allocation_free(self, tier_set, data):
        x, _ = data
        degraded = tier_set[1].compiled
        plan = self._default_server_plan(degraded, x)
        assert self._steady_state_peak(plan, x[:32]) < 8 * 1024
        np.testing.assert_array_equal(
            np.array(plan.predict(x[:32])),
            reference_predictions(degraded, x[:32]),
        )

    def test_mixed_bucket_steady_state(self, compiled, data):
        # Alternating batch sizes stays allocation-free too: each size's
        # views are bound on its first use and reused after.
        x, _ = data
        plan = self._default_server_plan(compiled, x)
        for n in (32, 7, 1, 16):
            plan.predict(x[:n])
        tracemalloc.start()
        try:
            for n in (32, 7, 1, 16):
                plan.predict(x[:n])
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for _ in range(10):
                for n in (32, 7, 1, 16):
                    plan.predict(x[:n])
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert max(peak - baseline, current - baseline) < 8 * 1024


class TestServingPlan:
    def test_plan_for_identity(self, compiled, tier_set):
        # An owner holds one plan per model, by identity, reused while
        # it fits and rebuilt when a larger batch outgrows it.
        degraded = tier_set[1].compiled
        plans = {}
        first = fit_plan(plans, compiled, 8)
        assert fit_plan(plans, compiled, 5) is first
        assert fit_plan(plans, degraded, 8) is not first
        assert plans == {id(compiled): first,
                         id(degraded): plans[id(degraded)]}
        grown = fit_plan(plans, compiled, 9)
        assert grown is not first and grown.max_rows == 9

    def test_replace_primary_rebuilds_tier0_only(self, compiled, tier_set,
                                                 data):
        # A device loading a new primary drops the old primary's arena;
        # the co-resident degradation ladder keeps its own.
        x, y = data
        degraded = tier_set[1].compiled
        device = EdgeTpuDevice(arch=compiled.arch)
        device.load_model(compiled)
        device.load_resident(degraded)
        q = compiled.model.input_spec.qparams.quantize(x[:8])
        device.invoke(q)
        device.invoke(degraded.model.input_spec.qparams.quantize(x[:8]),
                      compiled=degraded)
        old_degraded_plan = device._plans[id(degraded)]
        swapped = fresh_compiled(x, y)
        device.load_model(swapped)
        assert id(compiled) not in device._plans
        assert device._plans[id(degraded)] is old_degraded_plan
        outputs = device.invoke(
            swapped.model.input_spec.qparams.quantize(x[:8])).outputs
        np.testing.assert_array_equal(
            ModelPlan(swapped, 8).run_tail(outputs),
            reference_predictions(swapped, x[:8]),
        )

    def test_empty_tiers_rejected(self, compiled):
        pool = DevicePool(1, compiled.arch)
        pool.load_replicated(compiled)
        with pytest.raises(ValueError, match="at least one"):
            InferenceServer(pool, ServeConfig(), tiers=[])


class TestCompiledPredictPlanRouting:
    def test_model_plan_route(self, compiled, data):
        x, _ = data
        plan = ModelPlan(compiled, 16)
        np.testing.assert_array_equal(
            compiled_predict(compiled, x, plan=plan),
            compiled_predict(compiled, x),
        )
        np.testing.assert_array_equal(compiled_predict(compiled, x),
                                      reference_predictions(compiled, x))

    def test_serving_plan_route_and_fallback(self, compiled, tier_set,
                                             data):
        x, _ = data
        pool = DevicePool(1, compiled.arch)
        pool.load_replicated(compiled)
        server = InferenceServer(pool, ServeConfig(max_batch=16))
        plan = fit_plan(server._plans, compiled, 16)
        np.testing.assert_array_equal(
            compiled_predict(compiled, x, plan=plan),
            compiled_predict(compiled, x),
        )
        # A plan for another model is not used: the call builds its own.
        foreign = tier_set[1].compiled
        np.testing.assert_array_equal(
            compiled_predict(foreign, x, plan=plan),
            reference_predictions(foreign, x),
        )

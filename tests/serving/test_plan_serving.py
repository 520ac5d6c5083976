"""Serving through the one int8 executor: arenas never change results."""

import numpy as np

from repro import api, native
from repro.cluster import ClusterConfig, TenantSpec
from repro.compression.tiers import TierSpec, build_tiers
from repro.config import PipelineConfig, ServeConfig, TierPolicy
from repro.edgetpu import DevicePool, FailurePlan
from repro.hdc.bagging import BaggingConfig, BaggingHDCTrainer
from repro.runtime.plan import ModelPlan
from repro.serving import InferenceServer, ModelSwapper
from repro.serving.arrivals import Request
from tests.serving.conftest import train_compiled

PLAN = ServeConfig(max_batch=16, slack_s=0.001)


def _serve(compiled, trace, config, num_devices=2, **kwargs):
    pool = DevicePool(num_devices)
    pool.load_replicated(compiled)
    server = InferenceServer(pool, config=config, **kwargs)
    return server.serve(trace)


def _reference(compiled, report, trace):
    """Served predictions from the frozen oracles, in request order.

    Rows of the same request always predict the same class, whatever
    batch served them, so a served run must match this row for row;
    dropped requests keep ``-1``.
    """
    x = np.stack([r.features for r in trace]).astype(np.float32)
    out = compiled.model.input_spec.qparams.quantize(x)
    for op in compiled.model.ops:
        out = op.run_reference(out) if hasattr(op, "run_reference") \
            else op.run(out)
    expected = out[:, 0].astype(np.int64)
    return np.where(report.predictions >= 0, expected, -1)


def _numpy_arena(monkeypatch):
    monkeypatch.setattr(native, "library", lambda: None)


class TestPlanEquivalence:
    def test_traced_equals_untraced(self, serving_setup):
        _, compiled, trace = serving_setup
        traced_cfg = ServeConfig(max_batch=16, slack_s=0.001, tracing=True)
        plain = _serve(compiled, trace, PLAN)
        traced = _serve(compiled, trace, traced_cfg)
        np.testing.assert_array_equal(traced.predictions, plain.predictions)
        np.testing.assert_array_equal(traced.latencies, plain.latencies)
        assert traced.makespan_s == plain.makespan_s
        assert traced.trace is not None

    def test_numpy_fallback_plan_equals_native(self, serving_setup,
                                               monkeypatch):
        _, compiled, trace = serving_setup
        a = _serve(compiled, trace, PLAN)
        _numpy_arena(monkeypatch)
        b = _serve(compiled, trace, PLAN)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_array_equal(a.predictions,
                                      _reference(compiled, a, trace))
        # Kernel choice changes wall time only; the virtual clock and
        # every modeled number match exactly.
        assert a.summary() == b.summary()

    def test_no_prewarm_equals_prewarmed(self, serving_setup):
        # Latency memos warmed by an earlier run on the same compiled
        # model change nothing: cold and warm servers agree exactly.
        _, compiled, trace = serving_setup
        cold_model = train_compiled(*serving_setup[0].test_set(200),
                                    seed=3)
        cold = _serve(cold_model, trace, PLAN)
        warm = _serve(cold_model, trace, PLAN)
        assert cold.summary() == warm.summary()
        np.testing.assert_array_equal(cold.predictions, warm.predictions)

    def test_wider_bucket_ladder_is_equivalent(self, serving_setup):
        # Arena headroom beyond max_batch changes nothing observable.
        _, compiled, trace = serving_setup
        pool = DevicePool(2)
        pool.load_replicated(compiled)
        server = InferenceServer(pool, config=PLAN)
        server._plans[id(compiled)] = ModelPlan(compiled, 64)
        wide = server.serve(trace)
        a = _serve(compiled, trace, PLAN)
        assert a.summary() == wide.summary()
        np.testing.assert_array_equal(a.predictions, wide.predictions)


class TestRealSizeCharging:
    def test_devices_are_charged_the_real_rows(self, serving_setup):
        # Every batch size from 1 to max_batch: the device busy time is
        # exactly the sum of invoke_seconds at the sizes dispatched, so
        # any padding of a partial batch would show here.
        stream, compiled, _ = serving_setup
        x, _ = stream.test_set(64)
        trace, t, index = [], 0.0, 0
        for size in range(1, 9):
            for _ in range(size):
                trace.append(Request(index, t, t + 1.0, x[index % 64], 0))
                index += 1
            t += 1.0
        config = ServeConfig(batcher="fixed", max_batch=8, timeout_s=0.5)
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        report = InferenceServer(pool, config=config).serve(trace)
        assert sorted(report.batch_sizes) == list(range(1, 9))
        expected = sum(compiled.invoke_seconds(n)
                       for n in report.batch_sizes)
        assert report.device_busy_seconds[0] == expected
        np.testing.assert_array_equal(report.predictions,
                                      _reference(compiled, report, trace))


def _fleet_data():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(300, 16)).astype(np.float32)
    y = (x[:, 0] > 0).astype(np.int64) + (x[:, 1] > 1).astype(np.int64)
    return x, y


class TestNumpyArenaMatchesNative:
    """Forcing the numpy arena reproduces the native kernels exactly."""

    def test_deferred_epilogue(self, monkeypatch):
        trained = api.train(
            *_fleet_data(),
            config=PipelineConfig(dimension=256, iterations=2, seed=1),
            num_classes=3)
        cluster = ClusterConfig(
            tenants=(TenantSpec("a", rate_hz=2000.0, deadline_s=0.05,
                                num_features=16, num_classes=3),),
            total_requests=3000, num_replicas=2, seed=1,
            serve=ServeConfig(max_batch=8, max_queue=10_000),
        )
        native_run = api.serve_cluster(trained, config=cluster)
        _numpy_arena(monkeypatch)
        numpy_run = api.serve_cluster(trained, config=cluster)
        assert native_run.summary() == numpy_run.summary()
        for a, b in zip(native_run.replica_reports,
                        numpy_run.replica_reports):
            np.testing.assert_array_equal(a.predictions, b.predictions)

    def test_training_encode(self, monkeypatch):
        x, y = _fleet_data()
        config = PipelineConfig(dimension=256, iterations=2, seed=4,
                                bagging=BaggingConfig(num_models=2,
                                                      dimension=256))
        native_run = api.train(x, y, config=config, num_classes=3)
        _numpy_arena(monkeypatch)
        numpy_run = api.train(x, y, config=config, num_classes=3)
        np.testing.assert_array_equal(native_run.fused.class_matrix,
                                      numpy_run.fused.class_matrix)
        # The worker-pool block holds measured host seconds.
        native_summary = native_run.summary()
        numpy_summary = numpy_run.summary()
        native_summary.pop("parallel", None)
        numpy_summary.pop("parallel", None)
        assert native_summary == numpy_summary


class TestPlanFaultPaths:
    def test_cpu_fallback_through_arenas(self, serving_setup):
        _, compiled, trace = serving_setup
        pool = DevicePool(1)
        pool.load_replicated(compiled)
        pool.schedule_failure(FailurePlan(0, at_s=0.2, mode="device_loss"))
        planned = InferenceServer(pool, config=PLAN).serve(trace)
        assert planned.fallback_batches > 0
        np.testing.assert_array_equal(planned.predictions,
                                      _reference(compiled, planned, trace))

    def test_hot_swap_recompiles_primary_plan(self, serving_setup):
        stream, compiled, trace = serving_setup
        x, y = stream.test_set(200)
        replacement = train_compiled(x, y, seed=17)
        pool = DevicePool(2)
        pool.load_replicated(compiled)
        swapper = ModelSwapper(pool)
        swapper.schedule(replacement, at_s=0.1)
        server = InferenceServer(pool, config=PLAN, swapper=swapper)
        planned = server.serve(trace)
        assert swapper.swaps_committed == 1
        # The old primary's arena went with it.
        assert list(server._plans) == [id(replacement)]
        # Requests before the commit match the old model, after it the
        # replacement; every served row matches one of the two oracles.
        old = _reference(compiled, planned, trace)
        new = _reference(replacement, planned, trace)
        served = planned.predictions >= 0
        assert np.all((planned.predictions == old)
                      | (planned.predictions == new))
        assert np.any(planned.predictions[served] != old[served])

    def test_tier_shedding_through_arenas(self, serving_setup, monkeypatch):
        stream, _, trace = serving_setup
        x, y = stream.next_batch(300)
        trainer = BaggingHDCTrainer(
            BaggingConfig(num_models=2, dimension=1024, iterations=3),
            seed=7,
        )
        trainer.fit(x, y)
        ladder = build_tiers(
            trainer.fuse(), x[:96],
            specs=(TierSpec("full"),
                   TierSpec("compressed", "dpq", dimension=256)),
        )
        # Headroom above the batcher's slack: deadline-triggered batches
        # shed, size-triggered ones may stay on the full tier.
        policy = TierPolicy(queue_high=4, headroom_s=0.002)

        def run():
            config = ServeConfig(max_batch=16, slack_s=0.001, tiers=policy)
            pool = DevicePool(1, ladder[0].compiled.arch)
            pool.load_replicated(ladder[0].compiled)
            server = InferenceServer(pool, config=config, tiers=ladder)
            return server.serve(trace)

        # Native vs numpy arenas must agree on everything, and a rerun
        # must be deterministic.
        planned = run()
        again = run()
        _numpy_arena(monkeypatch)
        numpy_planned = run()
        assert planned.tier_sheds > 0
        np.testing.assert_array_equal(planned.predictions,
                                      numpy_planned.predictions)
        assert planned.summary() == numpy_planned.summary()
        assert planned.summary() == again.summary()
        for index, tier in enumerate(ladder.tiers):
            rows = planned.request_tiers == index
            np.testing.assert_array_equal(
                planned.predictions[rows],
                _reference(tier.compiled, planned, trace)[rows])

"""The repro.api facade and its config objects."""

import dataclasses

import numpy as np
import pytest

import repro
from repro.api import Deployment, Result
from repro.config import PipelineConfig, ServeConfig
from repro.edgetpu.multidevice import DevicePool
from repro.runtime.executor import ExecutorConfig
from repro.runtime.pipeline import InferencePipeline, TrainingPipeline
from repro.serving.arrivals import Request
from repro.serving.server import InferenceServer


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(80, 12)).astype(np.float32)
    y = rng.integers(0, 3, size=80)
    return x, y


@pytest.fixture(scope="module")
def trained(data):
    x, y = data
    return repro.train(
        x, y, config=PipelineConfig(dimension=128, iterations=2, seed=3)
    )


def _requests(x, y, n=24):
    return [
        Request(request_id=i, arrival_s=i * 0.004,
                deadline_s=i * 0.004 + 0.05,
                features=x[i % len(x)], label=int(y[i % len(y)]))
        for i in range(n)
    ]


class TestPipelineConfig:
    def test_frozen(self):
        config = PipelineConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.dimension = 5

    def test_defaults_match_paper(self):
        config = PipelineConfig()
        assert config.dimension == 10_000
        assert config.iterations == 20
        assert config.learning_rate == 0.035

    def test_validates_like_legacy_constructor(self):
        with pytest.raises(ValueError, match="must be >= 1"):
            PipelineConfig(dimension=0)
        with pytest.raises(ValueError, match="learning_rate"):
            PipelineConfig(learning_rate=0.0)

    def test_coerces_executor_int(self):
        config = PipelineConfig(executor=4)
        assert isinstance(config.executor, ExecutorConfig)
        assert config.executor.workers == 4

    @pytest.mark.parametrize("field,value", [
        ("num_devices", 2), ("micro_batch", 16),
    ])
    def test_rejects_inference_executor_fields(self, field, value):
        # The executor config sizes the training worker pool only; an
        # inference knob has nowhere to go, so it cannot be spelled.
        with pytest.raises(TypeError, match=field):
            ExecutorConfig(**{field: value})
        with pytest.raises(TypeError, match="executor"):
            InferencePipeline(None, executor=2)


class TestServeConfig:
    def test_frozen(self):
        config = ServeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.max_batch = 5

    def test_validates(self):
        with pytest.raises(ValueError, match="batcher"):
            ServeConfig(batcher="adaptive")
        with pytest.raises(ValueError, match="max_batch"):
            ServeConfig(max_batch=0)
        with pytest.raises(ValueError, match="slack_s"):
            ServeConfig(slack_s=-1.0)
        # max_queue=0 is legal (admission-closed server).
        with pytest.raises(ValueError, match="max_queue"):
            ServeConfig(max_queue=-1)

    def test_make_batcher(self):
        from repro.serving.batcher import DynamicBatcher, FixedSizeBatcher
        assert isinstance(ServeConfig().make_batcher(), DynamicBatcher)
        fixed = ServeConfig(batcher="fixed", timeout_s=0.01).make_batcher()
        assert isinstance(fixed, FixedSizeBatcher)

    def test_hashable(self):
        assert hash(ServeConfig()) == hash(ServeConfig())


class TestFacade:
    def test_train_deploy_serve_end_to_end(self, trained, data):
        x, y = data
        deployment = repro.deploy(
            trained, fleet=repro.FleetSpec.single(count=2)
        )
        assert deployment.pool.num_devices == 2
        assert deployment.load_s > 0
        report = repro.serve(deployment, _requests(x, y),
                             config=ServeConfig(max_batch=8, tracing=True))
        assert report.served + report.dropped == 24
        assert report.trace is not None

    def test_results_satisfy_protocol(self, trained, data):
        x, y = data
        deployment = repro.deploy(trained)
        report = repro.serve(deployment, _requests(x, y, n=8))
        infer = InferencePipeline(trained.compiled, batch=8).run(x)
        for result in (trained, deployment, report, infer):
            assert isinstance(result, Result)
            assert result.summary()["schema"].startswith("repro.")

    def test_summary_schemas(self, trained, data):
        x, y = data
        deployment = repro.deploy(trained)
        assert trained.summary()["schema"] == "repro.train/1"
        assert deployment.summary()["schema"] == "repro.deploy/2"
        report = repro.serve(deployment, _requests(x, y, n=8))
        summary = report.summary()
        assert summary["schema"] == "repro.serve/1"
        assert "host_s" in summary and "swap_s" in summary
        infer = InferencePipeline(trained.compiled, batch=8).run(x, y)
        assert infer.summary()["schema"] == "repro.infer/1"
        assert "phases" in trained.summary()

    def test_train_matches_pipeline_class(self, trained, data):
        x, y = data
        config = PipelineConfig(dimension=128, iterations=2, seed=3)
        direct = TrainingPipeline(config).run(x, y)
        np.testing.assert_array_equal(
            direct.fused.class_matrix, trained.fused.class_matrix
        )
        assert direct.profiler.breakdown() == trained.profiler.breakdown()

    def test_lazy_top_level_exports(self):
        assert repro.PipelineConfig is PipelineConfig
        assert repro.ServeConfig is ServeConfig
        assert callable(repro.train)
        assert callable(repro.deploy)
        assert callable(repro.serve)
        assert "Tracer" in dir(repro)

    def test_every_export_resolves(self):
        # Both packages resolve exports lazily (PEP 562), so a stale
        # entry for a deleted name would otherwise fail only at first
        # use.
        import repro.runtime
        for package in (repro, repro.runtime):
            for name in package.__all__:
                assert getattr(package, name) is not None, name


class TestDeprecationShims:
    """The keyword shims are gone: constructors take only their config."""

    def test_training_pipeline_config_plus_legacy_is_error(self):
        with pytest.raises(TypeError):
            TrainingPipeline(PipelineConfig(), dimension=128)

    def test_inference_server_config_plus_legacy_is_error(self, trained):
        from repro.serving.batcher import DynamicBatcher
        pool = DevicePool(1, trained.compiled.arch)
        pool.load_replicated(trained.compiled)
        with pytest.raises(TypeError):
            InferenceServer(pool, ServeConfig(),
                            batcher=DynamicBatcher(max_batch=8))

    def test_bare_server_does_not_warn(self, trained, recwarn):
        pool = DevicePool(1, trained.compiled.arch)
        pool.load_replicated(trained.compiled)
        InferenceServer(pool)
        deprecations = [w for w in recwarn.list
                        if issubclass(w.category, DeprecationWarning)]
        assert deprecations == []


class TestDeployment:
    def test_summary(self, trained):
        deployment = repro.deploy(
            trained, fleet=repro.FleetSpec.single(count=3)
        )
        summary = deployment.summary()
        assert summary["num_devices"] == 3
        assert summary["load_s"] == deployment.load_s
        assert summary["weight_bytes"] == trained.compiled.weight_bytes
        assert len(summary["devices"]) == 3
        assert all(d["backend"] == "edgetpu" for d in summary["devices"])
        assert summary["placement"] is None
        assert deployment.trace is None

    def test_heterogeneous_fleet_deploys_variants(self, trained):
        fleet = repro.FleetSpec(backends=(
            repro.BackendSpec(backend="edgetpu"),
            repro.BackendSpec(backend="pi-cpu"),
        ))
        deployment = repro.deploy(trained, fleet=fleet)
        backends = [d["backend"]
                    for d in deployment.summary()["devices"]]
        assert sorted(backends) == ["edgetpu", "pi-cpu"]

    def test_is_dataclass_result(self, trained):
        deployment = repro.deploy(trained)
        assert isinstance(deployment, Deployment)
        assert isinstance(deployment, Result)

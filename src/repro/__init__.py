"""repro — reproduction of "Algorithm-Hardware Co-Design for Efficient
Brain-Inspired Hyperdimensional Learning on Edge" (DATE 2022).

The package implements the paper's full stack from scratch:

- :mod:`repro.hdc` — the hyperdimensional learning algorithm (nonlinear
  random-projection encoding, class-hypervector training) and the bagging
  training optimization that is the paper's second contribution.
- :mod:`repro.nn` — the HDC-as-a-hyper-wide-neural-network interpretation
  (paper Fig. 2) used to compile HDC onto a DNN inference accelerator.
- :mod:`repro.tflite` — a miniature TensorFlow-Lite stack: float graph to
  int8 post-training quantization, a flat serialized model container, and
  a reference interpreter with TFLite-faithful integer kernels.
- :mod:`repro.edgetpu` — an Edge TPU simulator: op legality checks, weight
  tiling onto a weight-stationary systolic MXU, on-chip parameter buffer
  allocation, USB 3.0 transfer and cycle-level latency models.
- :mod:`repro.platforms` — analytical performance/energy models for the
  host mobile CPU, a Raspberry Pi 3 class ARM CPU, and the Edge TPU.
- :mod:`repro.runtime` — the co-design framework itself (paper Fig. 1 and
  Fig. 3): encoding on the accelerator, class-hypervector updates on the
  host CPU, bagging orchestration and fused inference-model generation.
- :mod:`repro.data` — seeded synthetic surrogates for the five Table-I
  datasets (FACE, ISOLET, UCIHAR, MNIST, PAMAP2).
- :mod:`repro.experiments` — one driver per paper table/figure.

- :mod:`repro.compression` — post-training model compression (DPQ-HD
  prune + sub-int8 quantization, LDC-style distillation) and the
  compiled serving tier ladder.
- :mod:`repro.serving` — the online inference server (dynamic batching,
  admission control, failover, hot model swap, compression-tiered
  graceful degradation).
- :mod:`repro.observability` — span tracing on the virtual clock,
  metrics, and trace exporters (JSONL / Chrome ``trace_event`` /
  flamegraph).
- :mod:`repro.api` — the top-level facade re-exported here:
  :func:`~repro.api.train` → :func:`~repro.api.deploy` →
  :func:`~repro.api.serve` on frozen :class:`~repro.config.PipelineConfig`
  / :class:`~repro.config.ServeConfig` objects.

Quickstart::

    from repro.data import isolet
    from repro.hdc import HDCClassifier

    ds = isolet(max_samples=2000, seed=7)
    model = HDCClassifier(dimension=4096, seed=7)
    model.fit(ds.train_x, ds.train_y, iterations=10)
    accuracy = model.score(ds.test_x, ds.test_y)

Or through the facade::

    import repro

    result = repro.train(ds.train_x, ds.train_y,
                         config=repro.PipelineConfig(seed=7))
"""

from repro._version import __version__

__all__ = [
    "AutoscalerConfig",
    "BackendSpec",
    "ClusterConfig",
    "DiurnalCurve",
    "FleetSpec",
    "MetricsRegistry",
    "PipelineConfig",
    "PlacementOptimizer",
    "ServeConfig",
    "TenantSpec",
    "TierPolicy",
    "TierSpec",
    "Tracer",
    "__version__",
    "api",
    "compress",
    "deploy",
    "serve",
    "serve_cluster",
    "train",
]

# Lazy facade exports (PEP 562): `import repro` stays cheap for callers
# that only want a submodule, and the numpy-heavy pipeline stack loads
# on first use of repro.train / repro.PipelineConfig / ...
_LAZY = {
    "AutoscalerConfig": ("repro.cluster.autoscaler", "AutoscalerConfig"),
    "ClusterConfig": ("repro.cluster.cluster", "ClusterConfig"),
    "DiurnalCurve": ("repro.cluster.traffic", "DiurnalCurve"),
    "MetricsRegistry": ("repro.observability.metrics", "MetricsRegistry"),
    "TenantSpec": ("repro.cluster.traffic", "TenantSpec"),
    "serve_cluster": ("repro.api", "serve_cluster"),
    "BackendSpec": ("repro.config", "BackendSpec"),
    "FleetSpec": ("repro.config", "FleetSpec"),
    "PlacementOptimizer": ("repro.runtime.placement",
                           "PlacementOptimizer"),
    "PipelineConfig": ("repro.config", "PipelineConfig"),
    "ServeConfig": ("repro.config", "ServeConfig"),
    "TierPolicy": ("repro.config", "TierPolicy"),
    "TierSpec": ("repro.compression.tiers", "TierSpec"),
    "Tracer": ("repro.observability.trace", "Tracer"),
    "api": ("repro.api", None),
    "compress": ("repro.api", "compress"),
    "deploy": ("repro.api", "deploy"),
    "serve": ("repro.api", "serve"),
    "train": ("repro.api", "train"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))

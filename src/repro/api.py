"""The top-level facade: ``train`` → ``deploy`` → ``serve``.

One import gives the whole co-design flow on validated, frozen
configs::

    import repro

    result = repro.train(x, y, config=repro.PipelineConfig(seed=7))
    deployment = repro.deploy(
        result, fleet=repro.FleetSpec.single("edgetpu", count=4)
    )
    report = repro.serve(deployment, requests,
                         config=repro.ServeConfig(tracing=True))

Every object these functions return follows the repo's **result
protocol** (:class:`Result`):

- ``summary()`` returns a flat, JSON-ready dict.  Schema convention,
  shared by every summary in the repo: a ``"schema"`` key versions the
  layout (``repro.train/1``, ``repro.infer/1``, ``repro.serve/1``);
  modeled durations are seconds suffixed ``_s``; rates are suffixed
  ``_rate`` (or ``_rps`` for per-second throughputs); counts are bare
  nouns; the canonical phase map (exactly
  :meth:`~repro.runtime.profiler.PhaseProfiler.breakdown`) sits under
  ``"phases"``.
- ``trace`` carries the run's :class:`~repro.observability.trace.Tracer`
  when tracing was enabled, else ``None``.

The class-based API (:class:`~repro.runtime.pipeline.TrainingPipeline`,
:class:`~repro.serving.server.InferenceServer`, ...) remains the
extension surface; this module is the short path through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.compression.tiers import TierSet, TierSpec, build_tiers
from repro.config import FleetSpec, PipelineConfig, ServeConfig
from repro.edgetpu.compiler import CompiledModel
from repro.edgetpu.multidevice import DevicePool
from repro.observability.metrics import MetricsRegistry
from repro.observability.trace import Tracer
from repro.runtime.pipeline import (
    CompileCache,
    PipelineResult,
    TrainingPipeline,
)
from repro.runtime.placement import FleetPlacement
from repro.serving.arrivals import Request
from repro.serving.server import InferenceServer, ServeReport
from repro.serving.swap import ModelSwapper

__all__ = ["Deployment", "Result", "compress", "deploy", "serve",
           "serve_cluster", "train"]


@runtime_checkable
class Result(Protocol):
    """What every run result exposes: a summary dict and a trace.

    :class:`~repro.runtime.pipeline.PipelineResult`,
    :class:`~repro.runtime.pipeline.InferenceResult`,
    :class:`~repro.serving.server.ServeReport` and :class:`Deployment`
    all satisfy this protocol (see the module docstring for the
    ``summary()`` schema convention).
    """

    trace: Tracer | None

    def summary(self) -> dict:
        """Flat, JSON-ready report of the run."""
        ...


def train(train_x: np.ndarray, train_y: np.ndarray, *,
          config: PipelineConfig | None = None,
          num_classes: int | None = None,
          compile_cache: CompileCache | None = None) -> PipelineResult:
    """Train an HDC model end to end (encode → update → modelgen).

    Args:
        train_x: Float samples ``(num_samples, num_features)``.
        train_y: Integer labels ``(num_samples,)`` in
            ``[0, num_classes)``.
        config: The full run configuration; defaults to the paper
            baseline (``d=10000``, 20 iterations, no bagging).
        num_classes: Class count when the training set may not contain
            every class.
        compile_cache: Share one :class:`CompileCache` across calls to
            skip recompiling identical models.  Only a shared cache is
            hashed; without one every model is converted and compiled
            directly (fresh weights never repeat within one call).

    Returns:
        The :class:`~repro.runtime.pipeline.PipelineResult` (a
        :class:`Result`: ``.summary()`` / ``.trace``).

    Raises:
        ValueError: For a label outside ``[0, num_classes)``, before
            any model is compiled.
    """
    if config is None:
        config = PipelineConfig()
    pipeline = TrainingPipeline(config, compile_cache=compile_cache)
    return pipeline.run(train_x, train_y, num_classes=num_classes)


def compress(trained: PipelineResult, calibration: np.ndarray, *,
             specs: tuple[TierSpec, ...] | list[TierSpec] | None = None,
             evaluation: tuple[np.ndarray, np.ndarray] | None = None,
             seed: int | None = 0) -> TierSet:
    """Build the compiled serving tier ladder for a training result.

    Tier 0 reuses ``trained.compiled`` (the artifact :func:`deploy`
    pins onto the pool), so ``serve(deployment, ..., tiers=ladder)``
    serves exactly the deployed model at full accuracy and sheds to
    the compressed tiers only under load.

    Args:
        trained: A :func:`train` result.
        calibration: Representative float batch for int8 conversion of
            the degraded tiers (and the distillation set for ``"ldc"``
            tiers).
        specs: Ladder recipe; defaults to
            :data:`~repro.compression.tiers.DEFAULT_TIER_SPECS`.
        evaluation: Optional labeled ``(x, y)`` set; records each
            tier's build-time accuracy through the compiled int8 ops.
        seed: Seed for distilled-tier training.

    Returns:
        The :class:`~repro.compression.tiers.TierSet` for
        :func:`serve`.
    """
    return build_tiers(
        trained.fused, calibration, specs=specs, evaluation=evaluation,
        compiled_full=trained.compiled, seed=seed,
    )


@dataclass
class Deployment:
    """A trained model pinned onto a (possibly heterogeneous) pool.

    Attributes:
        pool: The loaded :class:`DevicePool` (replicated placement; on
            a mixed fleet every device holds its own backend's compiled
            variant of the same model).
        compiled: The canonical compiled inference model.
        load_s: Modeled load time (parallel across devices, so the
            slowest single load).
        fleet: The :class:`~repro.config.FleetSpec` the pool was built
            from; ``None`` for the single-device default.
        placement: Optional
            :class:`~repro.runtime.placement.FleetPlacement` attached
            at deploy time (recorded in the summary; feed it to
            :func:`serve_cluster` via ``ClusterConfig(policy="placed",
            placement=...)``).
        trace: Always ``None`` — loading records no spans; present for
            the :class:`Result` protocol.
    """

    pool: DevicePool
    compiled: CompiledModel
    load_s: float
    fleet: FleetSpec | None = None
    placement: FleetPlacement | None = None
    trace: Tracer | None = None

    def summary(self) -> dict:
        """Flat, JSON-ready deployment report (``repro.deploy/2``).

        Schema change from ``/1``: adds ``devices`` (one
        :meth:`~repro.edgetpu.backend.AcceleratorArch.describe` record
        per device) and ``placement`` (the attached decisions, or
        ``None``).
        """
        return {
            "schema": "repro.deploy/2",
            "num_devices": self.pool.num_devices,
            "load_s": self.load_s,
            "weight_bytes": self.compiled.weight_bytes,
            "devices": [device.arch.describe()
                        for device in self.pool.devices],
            "placement": ([d.describe()
                           for d in self.placement.decisions]
                          if self.placement is not None else None),
        }


def deploy(trained: PipelineResult, *, fleet: FleetSpec | None = None,
           placement: FleetPlacement | None = None) -> Deployment:
    """Load a training result's inference model onto a device fleet.

    Args:
        trained: A :func:`train` result or a bare
            :class:`~repro.edgetpu.compiler.CompiledModel` (the
            compiled model is what gets replicated — on non-default
            backends the pool recompiles it per device architecture,
            bit-identical outputs).
        fleet: The device fleet to provision
            (:class:`~repro.config.FleetSpec`); one device group per
            backend, expanded in canonical group order.  Defaults to a
            single stock-``edgetpu`` device.
        placement: Optional
            :class:`~repro.runtime.placement.FleetPlacement` to record
            on the deployment (see :class:`Deployment`).

    Returns:
        A :class:`Deployment` ready for :func:`serve`.
    """
    compiled = getattr(trained, "compiled", trained)
    if not isinstance(compiled, CompiledModel):
        raise TypeError(
            "trained must be a PipelineResult or CompiledModel, "
            f"got {type(trained).__name__}"
        )
    if fleet is not None:
        if not isinstance(fleet, FleetSpec):
            raise TypeError(
                f"fleet must be a FleetSpec, got {type(fleet).__name__}"
            )
        archs = []
        for spec in fleet.groups():
            arch = spec.make()
            archs.extend([arch] * spec.count)
        pool = DevicePool(len(archs), archs=archs)
    else:
        pool = DevicePool(1, compiled.arch)
    load_s = pool.load_replicated(compiled)
    return Deployment(pool=pool, compiled=compiled,
                      load_s=load_s, fleet=fleet, placement=placement)


def serve(deployment: Deployment, requests: list[Request], *,
          config: ServeConfig | None = None, host=None,
          swapper: ModelSwapper | None = None,
          tiers: TierSet | None = None,
          tracer: Tracer | None = None,
          metrics: MetricsRegistry | None = None) -> ServeReport:
    """Serve a timestamped request trace on a deployment.

    Args:
        deployment: A :func:`deploy` result.
        requests: Arrival-ordered trace (see
            :class:`~repro.serving.arrivals.RequestStream`).
        config: Batching/admission knobs; defaults to
            :class:`~repro.config.ServeConfig`.
            ``ServeConfig(tracing=True)`` records per-request spans onto
            :attr:`ServeReport.trace <repro.serving.server.ServeReport>`;
            ``ServeConfig(tiers=TierPolicy(...))`` tunes when tiered
            serving sheds.  Every batch is charged at its real size
            and its rows are predicted in blocks, through one
            arena-backed :class:`~repro.runtime.plan.ModelPlan` per
            serving model (native VNNI or AMX-INT8 kernels where
            available, the in-place numpy arena otherwise —
            bit-identical).
        host: Host platform for tails and CPU fallback.
        swapper: Optional hot-swap scheduler bound to the deployment's
            pool.
        tiers: Optional :func:`compress` ladder; degraded tiers become
            co-resident on the pool and overloaded batches shed to them
            instead of dropping.
        tracer: Record into this tracer instead of a fresh one.
        metrics: Registry for the server's ``serve.*`` instruments,
            written once when the run finalizes.

    Returns:
        The :class:`~repro.serving.server.ServeReport` (a
        :class:`Result`: ``.summary()`` / ``.trace``).
    """
    if config is None:
        config = ServeConfig()
    server = InferenceServer(deployment.pool, config=config, host=host,
                             swapper=swapper, tiers=tiers, tracer=tracer,
                             metrics=metrics)
    return server.serve(requests)


def serve_cluster(trained, *, config, tiers: TierSet | None = None,
                  metrics: MetricsRegistry | None = None,
                  tracer: Tracer | None = None):
    """Serve a multi-tenant traffic superposition on a simulated fleet.

    Builds a :class:`~repro.cluster.cluster.Cluster` — N replica
    servers behind a sharding router on one discrete-event engine,
    optionally autoscaled — streams ``config.total_requests`` routed
    requests through it, and returns the aggregated report.  The run
    is bit-deterministic per ``config.seed`` for any router policy and
    replica count.

    Args:
        trained: A :func:`train` result, a :func:`deploy` result, or a
            bare compiled model — whatever carries the model every
            replica serves (each replica gets its own device pool; a
            deployment's existing pool is not reused).
        config: The :class:`~repro.cluster.cluster.ClusterConfig`
            (tenants, replica count, router policy, autoscaler knobs).
        tiers: Optional :func:`compress` ladder, co-resident on every
            replica.
        metrics: Registry shared across the fleet (each replica's
            ``serve.*`` instruments, written once at finalize,
            aggregate; the cluster adds ``cluster.*``).
        tracer: Record cluster-level spans into this tracer (overrides
            ``config.tracing``).

    Returns:
        The :class:`~repro.cluster.report.ClusterReport` (a
        :class:`Result`: ``.summary()`` / ``.trace``).
    """
    from repro.cluster.cluster import Cluster

    compiled = getattr(trained, "compiled", trained)
    if not isinstance(compiled, CompiledModel):
        raise TypeError(
            "trained must be a PipelineResult, Deployment or "
            f"CompiledModel, got {type(trained).__name__}"
        )
    cluster = Cluster(compiled, config, tiers=tiers, metrics=metrics,
                      tracer=tracer)
    return cluster.run()

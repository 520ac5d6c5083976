"""Validated, frozen configuration objects for the top-level API.

Every layer is built from one config object —
``TrainingPipeline(PipelineConfig(...))``,
``InferenceServer(pool, ServeConfig(...))``, ``deploy(result,
fleet=FleetSpec(...))`` — that can be stored, compared, hashed into
experiment manifests and passed across the :mod:`repro.api` facade:

- :class:`PipelineConfig` — everything a training run needs.
- :class:`ServeConfig` — everything the online server needs.
- :class:`BackendSpec` / :class:`FleetSpec` — a heterogeneous device
  fleet, the input of :func:`repro.api.deploy` and the
  :class:`~repro.runtime.placement.PlacementOptimizer`.

All validate at construction (a bad config fails before any work
runs) and are frozen (a config can never drift mid-run).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.backend import AcceleratorArch, backend_names, make_arch
from repro.hdc.bagging import BaggingConfig
from repro.platforms.base import Platform
from repro.runtime.executor import ExecutorConfig

__all__ = [
    "BackendSpec",
    "FleetSpec",
    "PipelineConfig",
    "ServeConfig",
    "TierPolicy",
]

_BATCHERS = ("dynamic", "fixed")


@dataclass(frozen=True)
class BackendSpec:
    """One device group in a fleet: a backend, a count, a price.

    Attributes:
        backend: Registered backend name
            (:func:`repro.edgetpu.backend.backend_names` lists them:
            ``"edgetpu"``, ``"edgetpu-small"``, ``"neuromorphic"``,
            ``"pi-cpu"``, plus anything user-registered).
        count: Devices of this type available to the fleet.
        unit_cost: Relative provisioning cost-rate of one device (the
            optimizer's hardware term; arbitrary consistent units —
            e.g. amortized dollars/hour).
        overrides: Architecture field overrides, as a mapping or as
            ``(key, value)`` pairs; normalized to a sorted tuple so the
            spec stays hashable and order-insensitive.
        name: Group label in placements and summaries; defaults to the
            backend name.
    """

    backend: str = "edgetpu"
    count: int = 1
    unit_cost: float = 1.0
    overrides: tuple = ()
    name: str = ""

    def __post_init__(self) -> None:
        if self.backend not in backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; registered: "
                f"{', '.join(backend_names())}"
            )
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.unit_cost < 0:
            raise ValueError(
                f"unit_cost must be >= 0, got {self.unit_cost}"
            )
        pairs = (tuple(sorted(self.overrides.items()))
                 if isinstance(self.overrides, dict)
                 else tuple(sorted(tuple(p) for p in self.overrides)))
        object.__setattr__(self, "overrides", pairs)
        if not self.name:
            object.__setattr__(self, "name", self.backend)

    def make(self) -> AcceleratorArch:
        """Resolve this spec to its architecture instance."""
        return make_arch(self.backend, **dict(self.overrides))


@dataclass(frozen=True)
class FleetSpec:
    """A heterogeneous device fleet, fully specified.

    The input of :func:`repro.api.deploy` and of the
    :class:`~repro.runtime.placement.PlacementOptimizer`, which chooses
    per-tenant backend, batch bucket and device shares minimizing
    ``device_cost_weight * provisioning + energy_weight * power`` under
    each tenant's deadline.  Group order is irrelevant — everything
    downstream iterates :meth:`groups` in canonical (name) order, so
    two fleets differing only in listing order place identically.

    Attributes:
        backends: The device groups; a single :class:`BackendSpec` is
            accepted and wrapped.
        utilization_target: Fraction of a device's throughput the
            optimizer is willing to commit (headroom for bursts).
        device_cost_weight: Weight of the provisioning term in the
            modeled cost-rate.
        energy_weight: Weight of the power term (watts) in the modeled
            cost-rate — the knob that makes the optimizer prefer the
            neuromorphic fabric for latency-tolerant tenants.
    """

    backends: tuple = (BackendSpec(),)
    utilization_target: float = 0.7
    device_cost_weight: float = 1.0
    energy_weight: float = 0.1

    def __post_init__(self) -> None:
        specs = self.backends
        if isinstance(specs, BackendSpec):
            specs = (specs,)
        specs = tuple(specs)
        if not specs:
            raise ValueError("a fleet needs at least one BackendSpec")
        for spec in specs:
            if not isinstance(spec, BackendSpec):
                raise TypeError(
                    f"backends entries must be BackendSpec, "
                    f"got {type(spec).__name__}"
                )
        names = [spec.name for spec in specs]
        if len(set(names)) != len(names):
            raise ValueError(
                f"duplicate group names in fleet: {sorted(names)}; "
                f"disambiguate with BackendSpec(name=...)"
            )
        object.__setattr__(self, "backends", specs)
        if not 0.0 < self.utilization_target <= 1.0:
            raise ValueError(
                f"utilization_target must be in (0, 1], "
                f"got {self.utilization_target}"
            )
        if self.device_cost_weight < 0 or self.energy_weight < 0:
            raise ValueError("cost weights must be >= 0")

    @property
    def total_devices(self) -> int:
        """Devices across all groups."""
        return sum(spec.count for spec in self.backends)

    def groups(self) -> tuple[BackendSpec, ...]:
        """The device groups in canonical (name) order."""
        return tuple(sorted(self.backends, key=lambda s: s.name))

    @classmethod
    def single(cls, backend: str = "edgetpu", count: int = 1,
               **kwargs) -> "FleetSpec":
        """A homogeneous fleet of ``count`` ``backend`` devices."""
        spec_kwargs = {k: kwargs.pop(k) for k in
                       ("unit_cost", "overrides", "name") if k in kwargs}
        return cls(backends=(BackendSpec(backend=backend, count=count,
                                         **spec_kwargs),), **kwargs)


@dataclass(frozen=True)
class TierPolicy:
    """When the server sheds a batch to a cheaper resident tier.

    The server evaluates the policy at every batch dispatch: the full
    tier serves unless the queue is deep or the batch's predicted
    completion (earliest device availability plus the full tier's
    service estimate) would land within ``headroom_s`` of its earliest
    deadline — then the batch is shed to the lowest-index degraded
    tier that restores the headroom (or the cheapest tier if none
    does).

    Attributes:
        queue_high: Queue depth at dispatch at or above which the batch
            sheds regardless of deadline headroom (sustained-overload
            pressure valve).
        headroom_s: Slack the full tier's predicted completion must
            leave before the batch's earliest deadline.
    """

    queue_high: int = 64
    headroom_s: float = 0.0

    def __post_init__(self) -> None:
        if self.queue_high < 1:
            raise ValueError(
                f"queue_high must be >= 1, got {self.queue_high}"
            )
        if self.headroom_s < 0:
            raise ValueError(
                f"headroom_s must be >= 0, got {self.headroom_s}"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """One training run, fully specified.

    Attributes:
        dimension: Full hypervector width ``d``.
        iterations: Training passes (paper baseline 20; with bagging
            the sub-model iterations come from ``bagging.iterations``).
        bagging: The paper's bagging optimization; ``None`` trains one
            full-width model.
        learning_rate: Update scale.
        train_batch: Samples per device invocation while encoding.
        seed: Seed for hypervectors, bootstrap draws and shuffling.
        host: Host CPU cost model (:class:`~repro.platforms.cpu.MobileCpu`
            when ``None``).
        arch: Edge TPU architecture (defaults when ``None``).
        executor: Parallelism knobs; an int is shorthand for that many
            workers.  Normalized to an
            :class:`~repro.runtime.executor.ExecutorConfig` at
            construction.
        tracing: Record a span-level trace of the run (zero modeled
            cost either way; the trace rides on
            :attr:`PipelineResult.trace <repro.runtime.pipeline.PipelineResult>`).
    """

    dimension: int = 10_000
    iterations: int = 20
    bagging: BaggingConfig | None = None
    learning_rate: float = 0.035
    train_batch: int = 256
    seed: int | None = None
    host: Platform | None = None
    arch: EdgeTpuArch | None = None
    executor: ExecutorConfig | int | None = None
    tracing: bool = False

    def __post_init__(self) -> None:
        if self.dimension < 1 or self.iterations < 1 or self.train_batch < 1:
            raise ValueError(
                "dimension, iterations, train_batch must be >= 1"
            )
        if not self.learning_rate > 0:
            raise ValueError(
                f"learning_rate must be > 0, got {self.learning_rate}"
            )
        object.__setattr__(self, "executor",
                           ExecutorConfig.coerce(self.executor))


@dataclass(frozen=True)
class ServeConfig:
    """One online-serving deployment, fully specified.

    Attributes:
        batcher: ``"dynamic"`` (deadline-aware size-or-deadline) or
            ``"fixed"`` (size-or-timeout baseline).
        max_batch: Close a batch at this many queued requests.
        slack_s: Safety margin the dynamic batcher subtracts from the
            deadline trigger.
        timeout_s: Fixed batcher's age trigger; ``inf`` waits for a
            full batch.
        max_queue: Admission bound — arrivals beyond this queue depth
            are dropped.  ``0`` rejects everything (an admission-closed
            server; useful for drain tests).
        tracing: Record per-request spans
            (arrival → queue → batch → device → host tail).
        tiers: Load-shedding policy for a server given a compression
            tier ladder (``InferenceServer(..., tiers=...)``); ``None``
            uses the default :class:`TierPolicy` when tiers are
            present.

    There is no execution-path selector here: batches are charged at
    their real size and their rows predicted in ``block_rows`` blocks
    through one arena-backed :class:`~repro.runtime.plan.ModelPlan` per
    serving model, on native VNNI or AMX-INT8 kernels;
    ``REPRO_NATIVE=0`` turns them off (results are bit-identical).
    """

    batcher: str = "dynamic"
    max_batch: int = 32
    slack_s: float = 0.0
    timeout_s: float = math.inf
    max_queue: int = 256
    tracing: bool = False
    tiers: TierPolicy | None = None

    def __post_init__(self) -> None:
        if self.tiers is not None and not isinstance(self.tiers,
                                                     TierPolicy):
            raise TypeError(
                f"tiers must be a TierPolicy or None, "
                f"got {type(self.tiers).__name__}"
            )
        if self.batcher not in _BATCHERS:
            raise ValueError(
                f"batcher must be one of {_BATCHERS}, got {self.batcher!r}"
            )
        if self.max_batch < 1:
            raise ValueError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if self.slack_s < 0:
            raise ValueError(f"slack_s must be >= 0, got {self.slack_s}")
        if self.timeout_s <= 0:
            raise ValueError(
                f"timeout_s must be > 0, got {self.timeout_s}"
            )
        if self.max_queue < 0:
            raise ValueError(
                f"max_queue must be >= 0, got {self.max_queue}"
            )

    def make_batcher(self):
        """Instantiate the configured batch-closing policy."""
        from repro.serving.batcher import DynamicBatcher, FixedSizeBatcher
        if self.batcher == "dynamic":
            return DynamicBatcher(max_batch=self.max_batch,
                                  slack_s=self.slack_s)
        return FixedSizeBatcher(max_batch=self.max_batch,
                                timeout_s=self.timeout_s)

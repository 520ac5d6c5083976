"""The cluster orchestrator: traffic → router → replicas → report.

:class:`Cluster` wires the subsystem together on one
:class:`~repro.cluster.engine.EventEngine`:

- a :class:`~repro.cluster.traffic.MultiTenantTraffic` superposition
  streams the trace lazily in columnar chunks (never a materialized
  trace), which the :class:`~repro.cluster.fastpath.FastArrivalPump`
  drives through the engine;
- a :class:`~repro.cluster.router.Router` picks the replica for each
  arrival (a whole chunk at once, or one arrival at a time under
  ``least_queue``), and the :class:`~repro.cluster.replica.Replica`
  admits it under its own server's admission control;
- an optional :class:`~repro.cluster.autoscaler.Autoscaler` ticks on
  the same engine, adding and retiring devices as load moves;
- when the trace ends every replica flushes, the engine drains, and
  the per-replica reports aggregate into one
  :class:`~repro.cluster.report.ClusterReport`.

Determinism: the traffic is a pure function of the seed (routing never
feeds back into generation), every tie on the engine breaks by
insertion sequence, and all randomness is domain-separated through
:mod:`repro.cluster.seeding` — so a run is bit-reproducible for any
router policy and replica count given one seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.autoscaler import Autoscaler, AutoscalerConfig
from repro.cluster.engine import EventEngine
from repro.cluster.replica import Replica
from repro.cluster.report import ClusterReport, tenant_stats
from repro.cluster.router import POLICIES, Router
from repro.cluster.traffic import MultiTenantTraffic, TenantSpec
from repro.config import ServeConfig
from repro.edgetpu.compiler import CompiledModel
from repro.edgetpu.multidevice import DevicePool
from repro.observability.metrics import (
    LatencyTracker,
    MetricsRegistry,
    sum_left_to_right,
)
from repro.observability.trace import Tracer
from repro.runtime.placement import FleetPlacement
from repro.serving.arrivals import Request
from repro.serving.server import InferenceServer

__all__ = ["Cluster", "ClusterConfig"]


@dataclass(frozen=True)
class ClusterConfig:
    """One cluster serving run, fully specified.

    Attributes:
        tenants: The tenant workload mix (at least one
            :class:`~repro.cluster.traffic.TenantSpec`).
        total_requests: Requests routed across the whole run.
        num_replicas: Replica servers behind the router.
        devices_per_replica: Devices in each replica's pool at start.
        policy: Router policy (one of
            :data:`repro.cluster.router.POLICIES`).
        serve: Default per-replica serving config.  Under the
            ``tenant_affinity`` policy a tenant's own
            :attr:`TenantSpec.config` overrides it on the tenant's
            home replica.
        seed: Root seed for the traffic superposition (tenant streams
            derive via domain-separated child seeds).
        autoscaler: Autoscaler knobs; ``None`` runs a static fleet.
        tracing: Record cluster-level spans (the root serve span and
            every scaling action — per-request spans stay off at fleet
            scale).
        max_events: Safety bound forwarded to
            :meth:`EventEngine.run`; ``None`` is unbounded.
        placement: A
            :class:`~repro.runtime.placement.FleetPlacement` (from
            :meth:`PlacementOptimizer.place
            <repro.runtime.placement.PlacementOptimizer.place>`)
            turning the cluster into a heterogeneous fleet: one replica
            per decision, each with the decision's backend, device
            count, compiled variant and batch bucket, and the router
            pinning every tenant to its decided replica.  Requires
            ``policy="placed"`` (and vice versa); ``num_replicas`` /
            ``devices_per_replica`` are derived from the decisions.
    """

    tenants: tuple[TenantSpec, ...]
    total_requests: int = 10_000
    num_replicas: int = 2
    devices_per_replica: int = 1
    policy: str = "round_robin"
    serve: ServeConfig = field(default_factory=ServeConfig)
    seed: int | None = 0
    autoscaler: AutoscalerConfig | None = None
    tracing: bool = False
    max_events: int | None = None
    placement: FleetPlacement | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not self.tenants:
            raise ValueError("at least one tenant is required")
        for spec in self.tenants:
            if not isinstance(spec, TenantSpec):
                raise TypeError(
                    f"tenants must be TenantSpec, "
                    f"got {type(spec).__name__}"
                )
        if self.total_requests < 1:
            raise ValueError(
                f"total_requests must be >= 1, "
                f"got {self.total_requests}"
            )
        if self.num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {self.num_replicas}"
            )
        if self.devices_per_replica < 1:
            raise ValueError(
                f"devices_per_replica must be >= 1, "
                f"got {self.devices_per_replica}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {self.policy!r}"
            )
        if not isinstance(self.serve, ServeConfig):
            raise TypeError(
                f"serve must be a ServeConfig, "
                f"got {type(self.serve).__name__}"
            )
        if (self.autoscaler is not None
                and not isinstance(self.autoscaler, AutoscalerConfig)):
            raise TypeError(
                f"autoscaler must be an AutoscalerConfig or None, "
                f"got {type(self.autoscaler).__name__}"
            )
        if self.placement is not None:
            if not isinstance(self.placement, FleetPlacement):
                raise TypeError(
                    f"placement must be a FleetPlacement or None, "
                    f"got {type(self.placement).__name__}"
                )
            if self.policy != "placed":
                raise ValueError(
                    "placement= requires policy='placed' "
                    f"(got {self.policy!r})"
                )
            placed = {d.tenant for d in self.placement.decisions}
            names = {spec.name for spec in self.tenants}
            if placed != names:
                raise ValueError(
                    f"placement covers tenants {sorted(placed)} but the "
                    f"config lists {sorted(names)}"
                )
            # The fleet shape is the optimizer's answer, not a knob.
            object.__setattr__(self, "num_replicas",
                               len(self.placement.decisions))
        elif self.policy == "placed":
            raise ValueError(
                "the placed policy needs placement= (a FleetPlacement "
                "from PlacementOptimizer.place)"
            )


class Cluster:
    """A router, N replica servers and (optionally) an autoscaler on
    one event engine.

    Args:
        compiled: The model every replica serves (replicated onto each
            replica's own pool).
        config: The run specification.
        tiers: Optional compression tier ladder
            (:class:`~repro.compression.tiers.TierSet`); each replica
            gets the ladder co-resident and sheds under its serve
            config's policy, exactly like a single tiered server.
        metrics: Shared registry; each replica writes its ``serve.*``
            instruments into it once, at finalize (aggregating across
            the fleet), and the cluster adds ``cluster.*``.  It changes
            neither the pump's loop nor what it defers.
        tracer: Cluster-level tracer (overrides ``config.tracing``).
    """

    def __init__(self, compiled: CompiledModel, config: ClusterConfig,
                 tiers=None, metrics: MetricsRegistry | None = None,
                 tracer: Tracer | None = None):
        self.config = config
        self._check_widths(compiled)
        self.metrics = metrics
        if tracer is None and config.tracing:
            tracer = Tracer(enabled=True)
        self.tracer = tracer
        self.engine = EventEngine()
        self.replicas: list[Replica] = []
        tier_list = list(tiers) if tiers is not None else None
        placement = config.placement
        for index in range(config.num_replicas):
            if placement is not None:
                # One replica per optimizer decision: the decided
                # backend, device share, compiled variant and bucket.
                decision = placement.decisions[index]
                pool = DevicePool(decision.devices, decision.arch)
                pool.load_replicated(decision.compiled)
                serve_config = replace(self._replica_config(index),
                                       max_batch=decision.bucket)
            else:
                pool = DevicePool(config.devices_per_replica,
                                  compiled.arch)
                pool.load_replicated(compiled)
                serve_config = self._replica_config(index)
            server = InferenceServer(
                pool, config=serve_config,
                tiers=tier_list, metrics=metrics,
            )
            replica = Replica(server, self.engine, replica_id=index)
            replica.open()
            self.replicas.append(replica)
        tenant_map = None
        if placement is not None:
            by_name = {decision.tenant: index
                       for index, decision in
                       enumerate(placement.decisions)}
            tenant_map = {index: by_name[spec.name]
                          for index, spec in enumerate(config.tenants)}
        self.router = Router(self.replicas, config.policy,
                             tenant_map=tenant_map)
        self.autoscaler = None
        if config.autoscaler is not None:
            self.autoscaler = Autoscaler(
                config.autoscaler, self.replicas, self.engine,
                still_serving=self._still_serving, metrics=metrics,
            )
        traffic = MultiTenantTraffic(
            config.tenants, config.total_requests, seed=config.seed,
        )
        self._traffic = None
        self._pump = None
        if self._takes_pump():
            from repro.cluster.fastpath import (
                DeferredPredictions,
                FastArrivalPump,
            )
            # Latency bookkeeping can defer too when nothing reads
            # per-request report state mid-run: the autoscaler polls
            # miss rates, tier ladders keep per-tier columns and a
            # tracer records each request's span at its batch.  A
            # registry reads the reports only at finalize.
            full = config.autoscaler is None and tier_list is None
            for replica in self.replicas:
                replica.enable_fast(DeferredPredictions(
                    full=full and replica.server.tracer is None
                ))
            self._pump = FastArrivalPump(self, traffic)
        else:
            self._traffic = traffic.requests()
        self._traffic_done = False
        self._ran = False
        self._root = None

    def _takes_pump(self) -> bool:
        """Whether this run takes the vectorized
        :class:`~repro.cluster.fastpath.FastArrivalPump`.

        Every policy does (``least_queue`` routes inside the pump, one
        arrival at a time).  This stays only as the seam
        ``tests/cluster/test_equivalence.py`` patches to build the
        scalar event-per-arrival intake, the pump's oracle.
        """
        return True

    def _check_widths(self, compiled: CompiledModel) -> None:
        """Reject tenant feature widths the fleet cannot serve.

        A traffic chunk carries one feature matrix, so every tenant
        must send the same width, and it must be the input width of the
        model serving the tenant (its placed decision's, if any).
        """
        config = self.config
        first = config.tenants[0]
        placed = ({d.tenant: d.compiled for d in config.placement.decisions}
                  if config.placement is not None else {})
        for spec in config.tenants:
            if spec.num_features != first.num_features:
                raise ValueError(
                    f"tenant {spec.name!r} sends {spec.num_features} "
                    f"features but tenant {first.name!r} sends "
                    f"{first.num_features}; every tenant of a cluster "
                    f"must share one feature width"
                )
            width = placed.get(spec.name, compiled).model.input_spec.size
            if spec.num_features != width:
                raise ValueError(
                    f"tenant {spec.name!r} sends {spec.num_features} "
                    f"features but its model takes {width}"
                )

    def _replica_config(self, index: int) -> ServeConfig:
        """The serve config replica ``index`` runs under.

        ``tenant_affinity`` pins tenant *t* to replica ``t % N``, so a
        tenant-supplied config applies to its home replica (first such
        tenant wins when several share one home).
        """
        config = self.config
        if config.policy == "tenant_affinity":
            for tenant_index, spec in enumerate(config.tenants):
                if (tenant_index % config.num_replicas == index
                        and spec.config is not None):
                    return spec.config
        return config.serve

    # ------------------------------------------------------------------

    def _still_serving(self) -> bool:
        # A pending dispatch always has a queue behind it.
        return not self._traffic_done or any(r.queue for r in self.replicas)

    def _schedule_next_traffic(self) -> None:
        try:
            request = next(self._traffic)
        except StopIteration:
            self._traffic_done = True
            for replica in self.replicas:
                replica.end_of_trace()
            return
        self.engine.at(max(self.engine.now, request.arrival_s),
                       self._on_traffic, request)

    def _on_traffic(self, request: Request) -> None:
        # Next arrival before any dispatch reschedule (inside submit),
        # preserving the engine-wide arrivals-win-ties discipline.
        self._schedule_next_traffic()
        self.replicas[self.router.route(request)].submit(request)

    # ------------------------------------------------------------------

    def run(self) -> ClusterReport:
        """Serve the whole trace; returns the aggregated report."""
        if self._ran:
            raise RuntimeError("cluster already ran; build a fresh one")
        self._ran = True
        config = self.config
        tracer = self.tracer
        if tracer is not None:
            self._root = tracer.add(
                "cluster.serve", 0.0, 0.0, policy=config.policy,
                replicas=config.num_replicas,
                tenants=len(config.tenants),
                requests=config.total_requests,
            )
        if self.metrics is not None:
            self.metrics.gauge("cluster.replicas").set(
                config.num_replicas
            )
            self.metrics.gauge("cluster.devices").set(
                sum(len(r.server.pool.healthy_indices())
                    for r in self.replicas)
            )
        # The first arrival's seq precedes the first tick's (the pump
        # drew it when it was built).
        if self._pump is None:
            self._schedule_next_traffic()
        if self.autoscaler is not None:
            self.autoscaler.start()
        if self._pump is not None:
            self._pump.run(config.max_events)
        else:
            self.engine.run(max_events=config.max_events)
        # Deferred work replays before finalize: the makespan reads the
        # latency column the full-deferred bookkeeping fills in.
        for replica in self.replicas:
            replica.resolve_deferred()
        reports = [replica.finalize() for replica in self.replicas]
        if self.metrics is not None:
            self.metrics.counter("cluster.routed").inc(
                sum(self.router.routed_counts))
        makespan = max((r.makespan_s for r in reports), default=0.0)
        scaling = (list(self.autoscaler.events)
                   if self.autoscaler is not None else [])
        if tracer is not None:
            for event in scaling:
                tracer.add(f"cluster.{event.action}", event.time_s,
                           event.time_s, parent_id=self._root,
                           tags=("scaling",), replica=event.replica,
                           device=event.device)
            tracer.finish(self._root, makespan)
            tracer.advance(makespan)
        report = ClusterReport(
            policy=config.policy,
            seed=config.seed,
            replica_reports=reports,
            routed_counts=list(self.router.routed_counts),
            tenants=tenant_stats(list(config.tenants), self.replicas),
            scaling_events=scaling,
            device_seconds=sum_left_to_right(
                replica.device_seconds(makespan)
                for replica in self.replicas
            ),
            makespan_s=makespan,
            latency=LatencyTracker.merge_all(
                [r.latency for r in reports]
            ),
            trace=(tracer if tracer is not None and tracer.enabled
                   else None),
        )
        return report

"""The fleet-level result: per-replica reports aggregated exactly.

:class:`ClusterReport` composes the per-replica
:class:`~repro.serving.server.ServeReport` objects a cluster run
produced.  Latency percentiles are **exact**, not approximated:
:meth:`LatencyTracker.merge_all
<repro.observability.metrics.LatencyTracker.merge_all>` concatenates
the underlying observations, so the fleet p99 is the nearest-rank p99
of the union — identical to what a single tracker over every request
would report (no bucketing, no sketches; the property test in
``tests/cluster/test_report.py`` pins this against a pooled baseline).

Per-tenant SLA attainment comes from the replicas' per-request columns
(arrival, deadline, tenant): a request attains its SLA when it was
served and its completion (arrival + latency) met its deadline;
dropped requests count against attainment — shedding load is an SLA
failure from the tenant's point of view.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.autoscaler import ScalingEvent
from repro.cluster.traffic import TenantSpec
from repro.observability.metrics import LatencyTracker, sum_left_to_right
from repro.observability.trace import Tracer
from repro.serving.server import ServeReport

__all__ = ["ClusterReport", "tenant_stats"]


def tenant_stats(tenants: list[TenantSpec], replicas) -> list[dict]:
    """Per-tenant accounting across every replica's request columns.

    Args:
        tenants: The run's tenant specs (tenant id = list index).
        replicas: Finalized :class:`~repro.cluster.replica.Replica`
            actors (their ``tenants``/``arrivals``/``deadlines``
            columns and report rows are read).
    """
    stats = []
    for index, spec in enumerate(tenants):
        submitted = 0
        served = 0
        misses = 0
        latency = LatencyTracker()
        for replica in replicas:
            mask = replica.tenants == index
            if not mask.any():
                continue
            submitted += int(mask.sum())
            latencies = replica.report.latencies[mask]
            done = ~np.isnan(latencies)
            served += int(done.sum())
            completions = replica.arrivals[mask][done] + latencies[done]
            misses += int(
                (completions > replica.deadlines[mask][done]).sum()
            )
            latency.record_many(latencies[done])
        attained = served - misses
        stats.append({
            "name": spec.name,
            "deadline_s": spec.deadline_s,
            "requests": submitted,
            "served": served,
            "dropped": submitted - served,
            "deadline_misses": misses,
            "sla_attainment": (attained / submitted if submitted else 0.0),
            "latency": latency.summary(),
        })
    return stats


@dataclass
class ClusterReport:
    """Everything one cluster run produced.

    Attributes:
        policy: Router policy the run used.
        seed: Root seed of the traffic superposition.
        replica_reports: Per-replica serving reports, by replica index.
        routed_counts: Requests routed to each replica.
        tenants: Per-tenant stat rows (see :func:`tenant_stats`).
        scaling_events: The autoscaler's decision log (empty for a
            static fleet).
        device_seconds: Total device-online seconds across the fleet —
            the provisioning bill (late-added devices charge from the
            moment they come online, retired ones stop at retirement).
        makespan_s: Virtual time of the last completion fleet-wide.
        latency: Exact merged latency distribution over every served
            request.
        trace: Cluster-level span trace (``None`` unless tracing).
    """

    policy: str
    seed: int | None
    replica_reports: list[ServeReport]
    routed_counts: list[int]
    tenants: list[dict] = field(default_factory=list)
    scaling_events: list[ScalingEvent] = field(default_factory=list)
    device_seconds: float = 0.0
    makespan_s: float = 0.0
    latency: LatencyTracker = field(default_factory=LatencyTracker)
    trace: Tracer | None = None

    @property
    def num_requests(self) -> int:
        """Requests routed fleet-wide."""
        return sum(r.num_requests for r in self.replica_reports)

    @property
    def served(self) -> int:
        """Requests that received a prediction."""
        return sum(r.served for r in self.replica_reports)

    @property
    def dropped(self) -> int:
        """Requests rejected by replica admission control."""
        return sum(r.dropped for r in self.replica_reports)

    @property
    def deadline_misses(self) -> int:
        """Served requests that finished past their deadline."""
        return sum(r.deadline_misses for r in self.replica_reports)

    @property
    def drop_rate(self) -> float:
        """Fraction of routed requests dropped."""
        total = self.num_requests
        return self.dropped / total if total else 0.0

    @property
    def deadline_miss_rate(self) -> float:
        """Fraction of served requests that missed their deadline."""
        served = self.served
        return self.deadline_misses / served if served else 0.0

    @property
    def throughput(self) -> float:
        """Served requests per virtual second, fleet-wide."""
        if self.makespan_s <= 0:
            return 0.0
        return self.served / self.makespan_s

    @property
    def num_replicas(self) -> int:
        """Replica count the run finished with."""
        return len(self.replica_reports)

    @property
    def energy_j(self) -> float:
        """Fleet-wide modeled joules (sum of per-device energy)."""
        return sum_left_to_right(sum_left_to_right(r.device_energy_j)
                                 for r in self.replica_reports)

    def summary(self) -> dict:
        """Machine-readable fleet report (``repro.cluster/1``)."""
        return {
            "schema": "repro.cluster/1",
            "policy": self.policy,
            "seed": self.seed,
            "num_replicas": self.num_replicas,
            "num_requests": self.num_requests,
            "served": self.served,
            "dropped": self.dropped,
            "drop_rate": self.drop_rate,
            "deadline_misses": self.deadline_misses,
            "deadline_miss_rate": self.deadline_miss_rate,
            "throughput_rps": self.throughput,
            "makespan_s": self.makespan_s,
            "device_seconds": self.device_seconds,
            "energy_j": self.energy_j,
            "routed": list(self.routed_counts),
            "latency": self.latency.summary(),
            "replicas": [
                {
                    "num_requests": report.num_requests,
                    "served": report.served,
                    "dropped": report.dropped,
                    "deadline_misses": report.deadline_misses,
                    "num_batches": report.num_batches,
                    "devices": len(report.device_busy_seconds),
                    "utilization": report.utilization,
                    "makespan_s": report.makespan_s,
                    "energy_j": sum_left_to_right(report.device_energy_j),
                }
                for report in self.replica_reports
            ],
            "tenants": list(self.tenants),
            "scaling": [event.summary()
                        for event in self.scaling_events],
        }

"""The cluster front-end: shard requests across replica servers.

A :class:`Router` is a pure routing policy — it answers "which replica
takes this request" and keeps per-replica routed counts.  The cluster
pump routes each traffic chunk in one :meth:`route_chunk` call, or,
under ``least_queue``, each arrival through :meth:`route_least_queue`;
:meth:`route` answers for one request object.  The chosen
:class:`~repro.cluster.replica.Replica` then admits or drops it under
its own server's admission control.

Policies:

- ``round_robin`` — cycle through replicas; the stateless baseline.
- ``least_queue`` — join the shortest admission queue (ties to the
  lowest index); the load-aware policy.
- ``tenant_affinity`` — tenant *t* always lands on replica
  ``t % N``; gives each tenant a home replica (and lets a tenant's own
  :attr:`~repro.cluster.traffic.TenantSpec.config` apply there).
- ``consistent_hash`` — SHA-256 ring with virtual nodes keyed by
  tenant; like affinity it pins a tenant to one replica, but the
  assignment is stable under replica-count changes (only ~1/N of
  tenants move when a replica joins), the property that matters for
  warm caches and resident model state.
- ``placed`` — an explicit tenant → replica map, the policy the
  :class:`~repro.runtime.placement.PlacementOptimizer` emits: each
  tenant lands on the replica whose backend/bucket the optimizer chose
  for it.

Hashing uses :mod:`hashlib`, not :func:`hash` — Python's string hash is
salted per process (``PYTHONHASHSEED``), which would silently break
bit-determinism across runs.
"""

from __future__ import annotations

import bisect
import hashlib

import numpy as np

from repro.serving.arrivals import Request

__all__ = ["POLICIES", "Router"]

POLICIES = ("round_robin", "least_queue", "tenant_affinity",
            "consistent_hash", "placed")

# Virtual nodes per replica on the consistent-hash ring: enough that
# tenant load spreads evenly for small replica counts.
_VNODES = 64


def _ring_point(label: str) -> int:
    """A stable 64-bit ring position for ``label``."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Router:
    """Shards a request stream across replicas under one policy.

    Args:
        replicas: The :class:`~repro.cluster.replica.Replica` actors
            (``least_queue`` reads their live queue depths).
        policy: One of :data:`POLICIES`.
        tenant_map: Explicit tenant-id → replica-index map; required by
            (and only meaningful for) the ``placed`` policy.

    Attributes:
        routed_counts: Requests routed to each replica so far.
    """

    def __init__(self, replicas, policy: str = "round_robin",
                 tenant_map: dict | None = None):
        replicas = list(replicas)
        if not replicas:
            raise ValueError("at least one replica is required")
        if policy not in POLICIES:
            raise ValueError(
                f"policy must be one of {POLICIES}, got {policy!r}"
            )
        if policy == "placed":
            if not tenant_map:
                raise ValueError(
                    "the placed policy needs a tenant_map "
                    "(tenant id -> replica index)"
                )
            for tenant, index in tenant_map.items():
                if not 0 <= index < len(replicas):
                    raise ValueError(
                        f"tenant {tenant} maps to replica {index}, out "
                        f"of range for {len(replicas)} replicas"
                    )
        self.replicas = replicas
        self.policy = policy
        self.tenant_map = dict(tenant_map) if tenant_map else {}
        self.routed_counts = [0] * len(replicas)
        self._next = 0
        self._ring: list[int] = []
        self._ring_replica: list[int] = []
        # tenant id -> ring-resolved replica index.  The keyspace is the
        # tenant mix (a handful of ids), so the cache is tiny and turns
        # repeat lookups — scalar or chunked — into one dict hit instead
        # of a sha256 + bisect.
        self._tenant_cache: dict[int, int] = {}
        if policy == "consistent_hash":
            points = []
            for index in range(len(replicas)):
                for vnode in range(_VNODES):
                    points.append(
                        (_ring_point(f"replica-{index}-vnode-{vnode}"),
                         index)
                    )
            points.sort()
            self._ring = [point for point, _ in points]
            self._ring_replica = [index for _, index in points]
            # Array mirrors for the vectorized chunk path.
            self._ring_arr = np.array(self._ring, dtype=np.uint64)
            self._ring_replica_arr = np.array(self._ring_replica,
                                              dtype=np.int64)

    def _ring_lookup(self, tenant: int) -> int:
        """Resolve (and cache) a tenant's home replica on the ring."""
        cached = self._tenant_cache.get(tenant)
        if cached is not None:
            return cached
        point = _ring_point(f"tenant-{tenant}")
        position = bisect.bisect_right(self._ring, point)
        if position == len(self._ring):
            position = 0
        index = self._ring_replica[position]
        self._tenant_cache[tenant] = index
        return index

    def route_least_queue(self) -> int:
        """The ``least_queue`` pick: the replica with the shortest
        admission queue right now, ties to the lowest index (and count
        it).

        Each pick depends on queue depths the previous pick changed, so
        the cluster pump calls this once per arrival, at the arrival's
        instant; :meth:`route` calls it for the scalar intake.
        """
        depths = [len(replica.queue) for replica in self.replicas]
        index = depths.index(min(depths))
        self.routed_counts[index] += 1
        return index

    def route(self, request: Request) -> int:
        """Pick the replica index for one request (and count it)."""
        policy = self.policy
        if policy == "least_queue":
            return self.route_least_queue()
        if policy == "round_robin":
            index = self._next
            self._next = (index + 1) % len(self.replicas)
        elif policy == "tenant_affinity":
            key = (request.tenant if request.tenant is not None
                   else request.request_id)
            index = key % len(self.replicas)
        elif policy == "placed":
            if request.tenant is None:
                raise ValueError(
                    "the placed policy requires tenant-tagged requests"
                )
            try:
                index = self.tenant_map[request.tenant]
            except KeyError:
                raise ValueError(
                    f"tenant {request.tenant} has no placement; "
                    f"placed tenants: {sorted(self.tenant_map)}"
                ) from None
        else:  # consistent_hash
            if request.tenant is not None:
                index = self._ring_lookup(request.tenant)
            else:
                point = _ring_point(f"request-{request.request_id}")
                position = bisect.bisect_right(self._ring, point)
                if position == len(self._ring):
                    position = 0
                index = self._ring_replica[position]
        self.routed_counts[index] += 1
        return index

    def route_chunk(self, tenants: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`route` over one arrival chunk.

        Returns the replica index per request, identical element-wise
        to calling :meth:`route` once per request in order (the scalar
        path stays as the equivalence oracle in
        ``tests/cluster/test_router.py``), and advances
        :attr:`routed_counts` and the round-robin cursor the same way.

        ``least_queue`` is inherently sequential — each pick depends on
        queue depths the previous pick changed — so it has no chunk
        form and raises; the cluster pump routes it one arrival at a
        time through :meth:`route_least_queue` instead.
        """
        policy = self.policy
        count = len(tenants)
        num_replicas = len(self.replicas)
        if policy == "round_robin":
            indices = (self._next + np.arange(count, dtype=np.int64)) \
                % num_replicas
            self._next = (self._next + count) % num_replicas
        elif policy == "tenant_affinity":
            indices = tenants % num_replicas
        elif policy == "placed":
            unique = np.unique(tenants)
            lookup = np.empty(int(unique[-1]) + 1 if count else 0,
                              dtype=np.int64)
            for tenant in unique.tolist():
                try:
                    lookup[tenant] = self.tenant_map[tenant]
                except KeyError:
                    raise ValueError(
                        f"tenant {tenant} has no placement; placed "
                        f"tenants: {sorted(self.tenant_map)}"
                    ) from None
            indices = lookup[tenants]
        elif policy == "consistent_hash":
            unique = np.unique(tenants)
            lookup = np.empty(int(unique[-1]) + 1 if count else 0,
                              dtype=np.int64)
            for tenant in unique.tolist():
                lookup[tenant] = self._ring_lookup(tenant)
            indices = lookup[tenants]
        else:
            raise ValueError(
                f"policy {policy!r} has no chunked form; route "
                "requests one at a time"
            )
        counts = np.bincount(indices, minlength=num_replicas)
        for index in range(num_replicas):
            self.routed_counts[index] += int(counts[index])
        return indices

"""Reactive device autoscaling as engine events.

The :class:`Autoscaler` is a control loop evaluated every
``interval_s`` of *virtual* time (one engine event per tick).  Each
tick reads two signals across the fleet:

- **queue depth** — the deepest replica admission queue right now;
- **windowed deadline-miss rate** — misses over served requests since
  the previous tick, from cumulative :class:`ServeReport` counters
  (no per-request bookkeeping; each replica settles any latency
  bookkeeping it deferred first).

Scale-up trips when either signal is high for ``up_streak``
consecutive ticks (hysteresis) and the cooldown has elapsed; the new
device joins the deepest-queued replica only after the modeled
``provision_s`` lead time — the scheduler charges provisioning latency
as a future engine event, exactly like a cloud instance spin-up.
Scale-down requires *both* signals low for ``down_streak`` ticks and
retires the emptiest replica's highest device, never below
``min_devices`` per replica.  Every decision lands in the scaling log
(:class:`ScalingEvent`) that the cluster report publishes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["Autoscaler", "AutoscalerConfig", "ScalingEvent"]


@dataclass(frozen=True)
class AutoscalerConfig:
    """Control-loop knobs.

    Attributes:
        interval_s: Virtual seconds between control ticks.
        queue_high: Deepest-queue threshold that votes for scale-up.
        queue_low: Deepest-queue bound under which a tick votes for
            scale-down.
        miss_high: Windowed deadline-miss rate that votes for scale-up.
        miss_low: Windowed miss rate under which a tick votes for
            scale-down.
        up_streak: Consecutive hot ticks required before scaling up.
        down_streak: Consecutive cold ticks required before scaling
            down (the asymmetry is deliberate: scale up fast, scale
            down carefully).
        cooldown_s: Minimum virtual time between scaling actions.
        provision_s: Modeled lead time between a scale-up decision and
            the device coming online.
        max_devices: Fleet-wide ceiling on devices (pending
            provisions count toward it).
        min_devices: Per-replica floor scale-down must respect.
    """

    interval_s: float = 1.0
    queue_high: int = 64
    queue_low: int = 4
    miss_high: float = 0.05
    miss_low: float = 0.01
    up_streak: int = 2
    down_streak: int = 5
    cooldown_s: float = 5.0
    provision_s: float = 2.0
    max_devices: int = 64
    min_devices: int = 1

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ValueError(
                f"interval_s must be > 0, got {self.interval_s}"
            )
        if self.queue_low > self.queue_high:
            raise ValueError(
                f"queue_low {self.queue_low} must not exceed "
                f"queue_high {self.queue_high}"
            )
        if self.miss_low > self.miss_high:
            raise ValueError(
                f"miss_low {self.miss_low} must not exceed "
                f"miss_high {self.miss_high}"
            )
        if self.up_streak < 1 or self.down_streak < 1:
            raise ValueError("streaks must be >= 1")
        if self.cooldown_s < 0:
            raise ValueError(
                f"cooldown_s must be >= 0, got {self.cooldown_s}"
            )
        if self.provision_s < 0:
            raise ValueError(
                f"provision_s must be >= 0, got {self.provision_s}"
            )
        if self.min_devices < 1:
            raise ValueError(
                f"min_devices must be >= 1, got {self.min_devices}"
            )
        if self.max_devices < self.min_devices:
            raise ValueError(
                f"max_devices {self.max_devices} must be >= "
                f"min_devices {self.min_devices}"
            )


@dataclass(frozen=True)
class ScalingEvent:
    """One entry in the scaling log.

    Attributes:
        time_s: Virtual time of the decision (or commit).
        action: ``"scale_up"`` (decision), ``"device_online"``
            (provision commit), or ``"scale_down"``.
        replica: Target replica index.
        device: Pool device index (``-1`` for a not-yet-provisioned
            scale-up decision).
        queue_depth: Deepest queue at decision time.
        miss_rate: Windowed miss rate at decision time.
    """

    time_s: float
    action: str
    replica: int
    device: int
    queue_depth: int
    miss_rate: float

    def summary(self) -> dict:
        """JSON-ready log row."""
        return {
            "time_s": self.time_s,
            "action": self.action,
            "replica": self.replica,
            "device": self.device,
            "queue_depth": self.queue_depth,
            "miss_rate": self.miss_rate,
        }


class Autoscaler:
    """Drives elastic device capacity for a running cluster.

    Args:
        config: The control-loop knobs.
        replicas: The cluster's :class:`~repro.cluster.replica.Replica`
            actors (signals are read from them; devices are added and
            retired through them).
        engine: The shared event engine.
        still_serving: Zero-arg predicate — ticks reschedule only while
            it returns True, so the engine can drain once the trace is
            done.
        metrics: Optional registry for ``cluster.scale_*`` counters and
            the ``cluster.devices`` gauge.
    """

    def __init__(self, config: AutoscalerConfig, replicas, engine,
                 still_serving, metrics=None):
        self.config = config
        self.replicas = list(replicas)
        self.engine = engine
        self.still_serving = still_serving
        self.metrics = metrics
        self.events: list[ScalingEvent] = []
        self._prev_misses = [0] * len(self.replicas)
        self._prev_served = [0] * len(self.replicas)
        self._hot_ticks = 0
        self._cold_ticks = 0
        self._last_action_s = -math.inf
        self._pending = 0

    def start(self) -> None:
        """Schedule the first control tick."""
        self.engine.at(self.engine.now + self.config.interval_s,
                       self._tick)

    # ------------------------------------------------------------------

    def _serviceable_devices(self) -> int:
        total = 0
        for replica in self.replicas:
            total += len(replica.server.pool.healthy_indices())
        return total

    def _window_miss_rate(self) -> float:
        """Misses over served since the last tick, fleet-wide."""
        misses = 0
        served = 0
        for index, replica in enumerate(self.replicas):
            report = replica.report
            # served counts finalize late; completions = recorded
            # latencies, tracked via the latency tracker's count.
            done = len(report.latency)
            misses += report.deadline_misses - self._prev_misses[index]
            served += done - self._prev_served[index]
            self._prev_misses[index] = report.deadline_misses
            self._prev_served[index] = done
        return misses / served if served > 0 else 0.0

    def _tick(self) -> None:
        config = self.config
        now = self.engine.now
        for replica in self.replicas:
            replica.settle()
        depths = [len(replica.queue) for replica in self.replicas]
        deepest = max(depths)
        miss_rate = self._window_miss_rate()
        hot = deepest > config.queue_high or miss_rate > config.miss_high
        cold = (deepest < config.queue_low
                and miss_rate < config.miss_low)
        self._hot_ticks = self._hot_ticks + 1 if hot else 0
        self._cold_ticks = self._cold_ticks + 1 if cold else 0
        cooled = now - self._last_action_s >= config.cooldown_s

        if (hot and self._hot_ticks >= config.up_streak and cooled
                and (self._serviceable_devices() + self._pending
                     < config.max_devices)):
            target = depths.index(deepest)
            self._pending += 1
            self.engine.at(now + config.provision_s,
                           self._commit_add, target)
            self._record(ScalingEvent(now, "scale_up", target, -1,
                                      deepest, miss_rate))
            self._last_action_s = now
            self._hot_ticks = 0
        elif (cold and self._cold_ticks >= config.down_streak
              and cooled and self._pending == 0):
            target = self._retire_target()
            if target is not None:
                replica_index, device_index = target
                self.replicas[replica_index].retire_device(device_index)
                self._record(ScalingEvent(now, "scale_down",
                                          replica_index, device_index,
                                          deepest, miss_rate))
                self._last_action_s = now
                self._cold_ticks = 0

        if self.still_serving():
            self.engine.at(now + config.interval_s, self._tick)

    def _commit_add(self, replica_index: int) -> None:
        self._pending -= 1
        device_index = self.replicas[replica_index].add_device()
        self._record(ScalingEvent(self.engine.now, "device_online",
                                  replica_index, device_index,
                                  len(self.replicas[replica_index].queue),
                                  0.0))

    def _retire_target(self) -> tuple[int, int] | None:
        """The emptiest replica still above the device floor, and its
        highest-index healthy device."""
        best = None
        for index, replica in enumerate(self.replicas):
            healthy = replica.server.pool.healthy_indices()
            if len(healthy) <= self.config.min_devices:
                continue
            depth = len(replica.queue)
            if best is None or depth < best[0]:
                best = (depth, index, healthy[-1])
        if best is None:
            return None
        return best[1], best[2]

    def _record(self, event: ScalingEvent) -> None:
        self.events.append(event)
        metrics = self.metrics
        if metrics is not None:
            if event.action == "scale_up":
                metrics.counter("cluster.scale_ups").inc()
            elif event.action == "scale_down":
                metrics.counter("cluster.scale_downs").inc()
            metrics.gauge("cluster.devices").set(
                self._serviceable_devices()
            )

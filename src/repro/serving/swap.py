"""Hot model swap: deploying a freshly retrained model mid-stream.

The paper's recurring-learning story is that the host keeps training
while the Edge TPU serves (the modelgen cost of Fig. 5 is *recurring*,
not one-time).  :class:`ModelSwapper` models the serving side of that
loop: a retrained model (e.g. the fused output of
:class:`~repro.runtime.pipeline.TrainingPipeline` or the refreshed
class hypervectors of a
:class:`~repro.runtime.continual.ContinualLearner`) is *scheduled* at
the virtual time retraining finished, becomes *ready* after the
modelgen cost (TFLite generation + Edge TPU compilation) has elapsed,
and is *committed* atomically at the next batch boundary — the old
model serves every batch dispatched before the commit, so there is
never a gap or a half-swapped pool.

Commit reloads every healthy device (charging the model-load transfer
the paper's Fig. 5 accounts) through
:meth:`~repro.edgetpu.multidevice.DevicePool.load_replicated`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.edgetpu.compiler import CompiledModel
from repro.edgetpu.multidevice import DevicePool
from repro.runtime.costs import generation_seconds

__all__ = ["ModelSwapper", "PendingSwap", "SwapRecord"]


@dataclass(frozen=True)
class PendingSwap:
    """A scheduled swap waiting for its modelgen cost to elapse.

    Attributes:
        compiled: The replacement model.
        scheduled_s: Virtual time the swap was requested.
        ready_s: Virtual time the artifact is ready to commit
            (``scheduled_s`` plus the modelgen cost).
    """

    compiled: CompiledModel
    scheduled_s: float
    ready_s: float


@dataclass(frozen=True)
class SwapRecord:
    """One committed swap, for the serving report.

    Attributes:
        scheduled_s: When the swap was requested.
        committed_s: Batch-boundary time the pool switched models.
        modelgen_seconds: Host-side generation cost charged.
        load_seconds: Device model-load cost charged at commit.
    """

    scheduled_s: float
    committed_s: float
    modelgen_seconds: float
    load_seconds: float


class ModelSwapper:
    """Schedules and atomically commits hot model swaps on a pool.

    Args:
        pool: The serving :class:`DevicePool` (replicated placement).
    """

    def __init__(self, pool: DevicePool):
        self.pool = pool
        self._pending: list[PendingSwap] = []
        self.records: list[SwapRecord] = []

    # ------------------------------------------------------------------

    def schedule(self, compiled: CompiledModel, at_s: float) -> float:
        """Request a swap at virtual time ``at_s``; returns ready time.

        The artifact is ready once its host-side generation
        (:func:`~repro.runtime.costs.generation_seconds`) has elapsed;
        the device load is charged per pool at commit.

        Raises:
            ValueError: If ``at_s`` is negative, or ``compiled`` takes a
                different input width than the model the pool serves.
        """
        if at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {at_s}")
        width = compiled.model.input_spec.size
        served = [m.model.input_spec.size
                  for m in self.pool.models if m is not None]
        if served and served[0] != width:
            raise ValueError(
                f"swap model takes {width} features but the pool serves "
                f"a model taking {served[0]}"
            )
        ready = at_s + generation_seconds(compiled.weight_bytes)
        self._pending.append(PendingSwap(
            compiled=compiled, scheduled_s=at_s, ready_s=ready,
        ))
        self._pending.sort(key=lambda p: p.ready_s)
        return ready

    @property
    def pending(self) -> int:
        """Swaps scheduled but not yet committed."""
        return len(self._pending)

    def poll(self, now: float) -> CompiledModel | None:
        """Commit the newest due swap, if any; returns the new model.

        Called by the server at batch boundaries.  All due swaps
        collapse into one commit of the *latest-scheduled* one (the
        most recent retrain; a stale intermediate model never reaches
        the devices) and the pool load cost is charged once.  "Latest"
        is by ``scheduled_s``, not ``ready_s``: a small retrain can
        finish modelgen before an older, bigger one, and the older
        artifact must not win just because it became ready last.
        Pending swaps scheduled before the committed one are discarded
        — committing them later would roll the pool back to an older
        model.  Returns ``None`` when nothing is due.
        """
        due = [p for p in self._pending if p.ready_s <= now]
        if not due:
            return None
        newest = max(due, key=lambda p: (p.scheduled_s, p.ready_s))
        self._pending = [
            p for p in self._pending
            if p.ready_s > now and p.scheduled_s > newest.scheduled_s
        ]
        load_seconds = self.pool.load_replicated(newest.compiled)
        self.records.append(SwapRecord(
            scheduled_s=newest.scheduled_s,
            committed_s=now,
            modelgen_seconds=newest.ready_s - newest.scheduled_s,
            load_seconds=load_seconds,
        ))
        return newest.compiled

    # ------------------------------------------------------------------

    @property
    def swaps_committed(self) -> int:
        """Number of commits so far."""
        return len(self.records)

    @property
    def total_swap_seconds(self) -> float:
        """Total modelgen + load cost charged across commits."""
        return sum(r.modelgen_seconds + r.load_seconds
                   for r in self.records)

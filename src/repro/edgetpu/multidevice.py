"""Multi-accelerator device pool (extension).

The paper notes "most Edge TPUs take one model at a time" and fuses the
bagging sub-models into one model for a single device.  With *several*
USB accelerators (a common deployment — Coral sells multi-TPU boards),
the pool replicates that fused model on every device
(:meth:`DevicePool.load_replicated`), and the online server
(:mod:`repro.serving.server`) dispatches micro-batches across it.
Pinning one sub-model per device instead buys almost nothing: each
device pays the same dispatch and input-transfer floor as the fused
invocation (``benchmarks/test_ablation_multidevice.py`` measures it).

Every device pays its own model load; loads run in parallel, so a
load's modeled cost is the slowest device's.

For the online serving layer the pool also models *faults*: a
:class:`FailurePlan` schedules a USB stall or outright device loss at a
virtual time, :meth:`DevicePool.invoke_cost` (or
:meth:`DevicePool.try_invoke`) trips it on first use after that time
(raising :class:`DeviceFailedError` with the modeled detection cost),
and :meth:`DevicePool.unload` /
:meth:`DevicePool.reload` support hot model swaps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.backend import AcceleratorArch
from repro.edgetpu.compiler import CompiledModel
from repro.edgetpu.device import EdgeTpuDevice

__all__ = [
    "DeviceFailedError",
    "DevicePool",
    "FailurePlan",
]

# Modeled time for the host runtime to notice each failure mode: a USB
# stall is only detected when a transfer deadline expires, while losing
# the device entirely fails the next ioctl almost immediately.
_FAILURE_MODES = {"usb_stall": 0.05, "device_loss": 0.0}


class DeviceFailedError(RuntimeError):
    """Invocation hit a failed device.

    Attributes:
        device_index: Pool index of the failed device.
        mode: Failure mode (``"usb_stall"`` or ``"device_loss"``).
        detect_seconds: Modeled time the host spent noticing the
            failure before this error was raised.
    """

    def __init__(self, device_index: int, mode: str, detect_seconds: float):
        super().__init__(
            f"device {device_index} failed ({mode}, "
            f"detected in {detect_seconds:.3f}s)"
        )
        self.device_index = device_index
        self.mode = mode
        self.detect_seconds = detect_seconds


@dataclass(frozen=True)
class FailurePlan:
    """A scheduled device failure on the virtual clock.

    Attributes:
        device_index: Which pool device fails.
        at_s: Virtual time after which the next use trips the failure.
        mode: ``"usb_stall"`` (transfer hangs until a timeout) or
            ``"device_loss"`` (device drops off the bus).
        detect_seconds: Modeled detection cost charged to the caller;
            defaults per mode (stalls pay a timeout, loss is immediate).
    """

    device_index: int
    at_s: float
    mode: str = "usb_stall"
    detect_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.device_index < 0:
            raise ValueError(
                f"device_index must be >= 0, got {self.device_index}"
            )
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.mode not in _FAILURE_MODES:
            raise ValueError(
                f"mode must be one of {sorted(_FAILURE_MODES)}, "
                f"got {self.mode!r}"
            )
        if self.detect_seconds is not None and self.detect_seconds < 0:
            raise ValueError(
                f"detect_seconds must be >= 0, got {self.detect_seconds}"
            )

    @property
    def resolved_detect_seconds(self) -> float:
        """Detection cost, falling back to the mode default."""
        if self.detect_seconds is not None:
            return self.detect_seconds
        return _FAILURE_MODES[self.mode]


class DevicePool:
    """A pool of accelerator devices, one model pinned to each.

    Homogeneous by default (every device shares ``arch``); pass
    ``archs=`` for a mixed-backend pool — model-loading entry points
    then load each device the model's per-architecture variant
    (:meth:`CompiledModel.variant
    <repro.edgetpu.compiler.CompiledModel.variant>`: the model itself
    when architectures match, so homogeneous pools load the model they
    were given).  Every variant shares the source flat model's kernels:
    predictions are bit-identical across backends, only modeled
    time/energy differs.

    Args:
        num_devices: Pool size.
        arch: Architecture shared by all devices (homogeneous pools).
        archs: Per-device architectures (length ``num_devices``);
            mutually exclusive with ``arch``.
    """

    def __init__(self, num_devices: int, arch: AcceleratorArch | None = None,
                 *, archs: list[AcceleratorArch] | None = None):
        if num_devices < 1:
            raise ValueError(f"num_devices must be >= 1, got {num_devices}")
        if archs is not None:
            if arch is not None:
                raise ValueError("pass either arch= or archs=, not both")
            if len(archs) != num_devices:
                raise ValueError(
                    f"archs has {len(archs)} entries for a "
                    f"{num_devices}-device pool"
                )
            device_archs = list(archs)
        else:
            shared = arch if arch is not None else EdgeTpuArch()
            device_archs = [shared] * num_devices
        self.arch = device_archs[0]
        self.devices = [EdgeTpuDevice(a) for a in device_archs]
        self.models: list[CompiledModel | None] = [None] * num_devices
        self.load_seconds: list[float] = [0.0] * num_devices
        self.failed: set[int] = set()
        self.retired: set[int] = set()
        self._failure_plans: dict[int, FailurePlan] = {}

    @property
    def num_devices(self) -> int:
        """Pool size (including failed and retired devices)."""
        return len(self.devices)

    @property
    def homogeneous(self) -> bool:
        """True when every device shares one architecture."""
        return all(d.arch == self.arch for d in self.devices)

    # ------------------------------------------------------------------
    # Elastic capacity (the cluster autoscaler's device-level knob)
    # ------------------------------------------------------------------

    def add_device(self, arch: AcceleratorArch | None = None) -> int:
        """Attach one new (empty) device; returns its pool index.

        The autoscaler's scale-up primitive: the device joins healthy
        but holds no model — load the current primary (and any resident
        tiers) onto it before dispatching, charging the load time on
        the virtual clock like any other deployment.  Defaults to the
        pool's primary architecture; pass ``arch=`` to grow a mixed
        pool.
        """
        self.devices.append(EdgeTpuDevice(arch if arch is not None
                                          else self.arch))
        self.models.append(None)
        self.load_seconds.append(0.0)
        return self.num_devices - 1

    def retire(self, index: int) -> None:
        """Remove device ``index`` from service (scale-down).

        A retired device takes no further dispatches
        (:meth:`healthy_indices` excludes it) but its recorded busy
        time stands — retirement is an accounting boundary, not a
        failure.  Retiring the last serviceable device is rejected: a
        pool must always be able to dispatch.
        """
        if not 0 <= index < self.num_devices:
            raise ValueError(f"device index {index} out of range")
        remaining = [i for i in self.healthy_indices() if i != index]
        if not remaining:
            raise ValueError(
                f"cannot retire device {index}: it is the last "
                f"serviceable device in the pool"
            )
        self.retired.add(index)

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def schedule_failure(self, plan: FailurePlan) -> None:
        """Arm a failure: the first use of the device at or after
        ``plan.at_s`` trips it (one plan per device; re-arming replaces).
        """
        if plan.device_index >= self.num_devices:
            raise ValueError(
                f"device_index {plan.device_index} out of range for a "
                f"{self.num_devices}-device pool"
            )
        self._failure_plans[plan.device_index] = plan

    def healthy_indices(self) -> list[int]:
        """Devices that hold a model, have not failed, and are not
        retired."""
        return [i for i in range(self.num_devices)
                if self.models[i] is not None and i not in self.failed
                and i not in self.retired]

    def try_invoke(self, index: int, x: np.ndarray, at_s: float = 0.0,
                   model: CompiledModel | None = None):
        """Invoke device ``index`` at virtual time ``at_s``.

        Trips any armed :class:`FailurePlan` whose time has come: the
        device is marked failed, its model is dropped (a lost device
        must be re-enumerated and reloaded), and
        :class:`DeviceFailedError` carries the modeled detection cost.

        Args:
            index: Pool device to invoke.
            x: int8 batch.
            at_s: Virtual invocation time (drives fault injection).
            model: Run this co-resident model (see
                :meth:`load_resident`) instead of the device's primary.

        Returns:
            The device's :class:`~repro.edgetpu.device.InvokeResult`.
        """
        device, model = self._ready(index, at_s, model)
        return device.invoke(x, compiled=model)

    def invoke_cost(self, index: int, batch: int, at_s: float = 0.0,
                    model: CompiledModel | None = None):
        """Timing-only :meth:`try_invoke`: identical health checks,
        failure trips and device accounting, but no output arithmetic
        (``InvokeResult.outputs`` is ``None``).  Every serving dispatch,
        standalone or in the cluster pump, charges its batch through
        this: modeled cost depends on the row count alone, and the rows
        are predicted elsewhere, in blocks.
        """
        device, model = self._ready(index, at_s, model)
        return device.invoke_cost(batch, compiled=model)

    def _ready(self, index: int, at_s: float,
               model: CompiledModel | None):
        """The checks before every invoke of device ``index`` at
        ``at_s``: its index, its health (tripping any armed failure)
        and its loaded model.  Returns the device and the variant of
        ``model`` it runs (``None`` keeps its primary)."""
        if not 0 <= index < self.num_devices:
            raise ValueError(f"device index {index} out of range")
        if index in self.failed:
            plan = self._failure_plans.get(index)
            mode = plan.mode if plan is not None else "device_loss"
            raise DeviceFailedError(index, mode, 0.0)
        plan = self._failure_plans.get(index)
        if plan is not None and at_s >= plan.at_s:
            self.failed.add(index)
            self.unload(index)
            raise DeviceFailedError(
                index, plan.mode, plan.resolved_detect_seconds
            )
        if self.models[index] is None:
            raise RuntimeError(f"device {index} has no model loaded")
        if model is not None:
            model = model.variant(self.devices[index].arch)
        return self.devices[index], model

    # ------------------------------------------------------------------
    # Model management
    # ------------------------------------------------------------------

    def unload(self, index: int) -> None:
        """Drop the model pinned to device ``index`` (if any)."""
        if not 0 <= index < self.num_devices:
            raise ValueError(f"device index {index} out of range")
        self.models[index] = None
        self.devices[index].compiled = None
        self.load_seconds[index] = 0.0

    def reload(self, index: int, compiled: CompiledModel) -> float:
        """Pin ``compiled`` onto device ``index``; returns load seconds.

        Raises:
            RuntimeError: If the device has failed (a lost device cannot
                accept a model until it is physically re-attached).
        """
        if not 0 <= index < self.num_devices:
            raise ValueError(f"device index {index} out of range")
        if index in self.failed:
            raise RuntimeError(f"device {index} has failed; cannot reload")
        compiled = compiled.variant(self.devices[index].arch)
        seconds = self.devices[index].load_model(compiled)
        self.models[index] = compiled
        self.load_seconds[index] = seconds
        return seconds

    def load_replicated(self, compiled: CompiledModel) -> float:
        """Pin the *same* compiled model onto every device (data
        parallelism: the placement every server dispatches over).

        Loads happen in parallel across devices, so the modeled cost is
        the slowest single load.  Failed devices are skipped (a hot swap
        mid-stream must not resurrect a lost device).
        """
        slowest = 0.0
        for index, device in enumerate(self.devices):
            if index in self.failed or index in self.retired:
                continue
            variant = compiled.variant(device.arch)
            seconds = device.load_model(variant)
            self.models[index] = variant
            self.load_seconds[index] = seconds
            slowest = max(slowest, seconds)
        return slowest

    def load_resident(self, compiled: CompiledModel) -> float:
        """Co-load ``compiled`` next to the primary on every healthy
        device (the serving tiers' placement: the degradation ladder
        rides along with the replicated primary).

        Loads happen in parallel across devices, so the modeled cost is
        the slowest single load; devices already holding the model are
        free.  Failed devices are skipped.
        """
        slowest = 0.0
        for index, device in enumerate(self.devices):
            if index in self.failed or index in self.retired:
                continue
            slowest = max(slowest,
                          device.load_resident(compiled.variant(device.arch)))
        return slowest

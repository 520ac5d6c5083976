"""The Edge TPU device simulator.

Functionally, the device executes the *same* int8 executor as the
reference interpreter — a :class:`~repro.runtime.plan.ModelPlan`, so
results are bit-identical; temporally, every interaction advances a
virtual clock according to the compiled latency plan: model loads pay
USB transfer + setup, invocations pay dispatch overhead, activation
transfers and MXU/vector compute.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.edgetpu.arch import EdgeTpuArch
from repro.edgetpu.backend import AcceleratorArch
from repro.edgetpu.compiler import CompiledModel, InvokeResult
from repro.runtime.plan import fit_plan

__all__ = ["EdgeTpuDevice", "InvokeResult"]


@dataclass
class DeviceStats:
    """Cumulative device counters."""

    invocations: int = 0
    models_loaded: int = 0
    busy_seconds: float = 0.0
    bytes_in: int = 0
    bytes_out: int = 0
    samples: int = 0


class EdgeTpuDevice:
    """A simulated attached accelerator device (any registered backend).

    Example::

        device = EdgeTpuDevice()
        load_time = device.load_model(compiled)
        result = device.invoke(quantized_batch)

    Attributes:
        arch: The device architecture.
        stats: Cumulative counters (invocations, busy time, bytes moved).
    """

    def __init__(self, arch: AcceleratorArch | None = None):
        self.arch = arch if arch is not None else EdgeTpuArch()
        self.compiled: CompiledModel | None = None
        self.stats = DeviceStats()
        # Co-resident models (serving tiers) by identity.  Residents
        # survive load_model — a hot swap of the primary must not evict
        # the degradation ladder.
        self._resident: dict[int, CompiledModel] = {}
        # This device's own arenas, per model it ran without an
        # executor, sized to the largest batch it has run.
        self._plans: dict = {}

    def load_model(self, compiled: CompiledModel) -> float:
        """Load a compiled model; returns the modeled load time in seconds.

        Co-resident models (:meth:`load_resident`) stay loaded.

        Raises:
            ValueError: If the model was compiled for a different
                architecture configuration.
        """
        if compiled.arch != self.arch:
            raise ValueError(
                "model was compiled for a different EdgeTpuArch; recompile"
            )
        previous = self.compiled
        if previous is not None and id(previous) not in self._resident:
            self._plans.pop(id(previous), None)
        self.compiled = compiled
        return self._charge_load(compiled)

    def load_resident(self, compiled: CompiledModel) -> float:
        """Co-load a second model next to the primary; returns load time.

        Most Edge TPUs serve one model at a time, but Coral's runtime
        supports model *co-tenancy* with parameter-cache partitioning —
        this models that: the resident model pays its own load transfer
        once and can then be invoked by passing it to :meth:`invoke`,
        without evicting the primary.  Loading the same object again is
        free (it is already on the device).
        """
        if compiled.arch != self.arch:
            raise ValueError(
                "model was compiled for a different EdgeTpuArch; recompile"
            )
        if id(compiled) in self._resident:
            return 0.0
        self._resident[id(compiled)] = compiled
        return self._charge_load(compiled)

    def invoke(self, x: np.ndarray,
               compiled: CompiledModel | None = None,
               executor=None) -> InvokeResult:
        """Run one batch through the TPU subgraph.

        Args:
            x: int8 input of shape ``(batch, input_dim)``.
            compiled: Which loaded model to run — the primary when
                omitted, else a model made co-resident with
                :meth:`load_resident`.
            executor: Optional callable ``executor(x) -> int8 outputs``
                — the caller's own arena (the training encode passes
                its :meth:`ModelPlan.run_device
                <repro.runtime.plan.ModelPlan.run_device>`), whose
                output view it reads before its next batch.  Without
                one the device runs its own plan, sized to the largest
                batch it has run, and returns a copy, which the caller
                may keep across invokes.  Latency charging is the same
                either way.

        Returns:
            The :class:`InvokeResult` with outputs of the last TPU op.

        Raises:
            RuntimeError: If no model is loaded (or the requested model
                is not resident on this device).
        """
        compiled = self._resolve(compiled)
        x = np.asarray(x)
        if x.dtype != np.int8:
            raise TypeError(f"device input must be int8, got {x.dtype}")
        if x.ndim != 2:
            raise ValueError(f"device input must be 2-D, got shape {x.shape}")
        expected = compiled.model.input_spec.size
        if x.shape[1] != expected:
            raise ValueError(
                f"expected input width {expected}, got {x.shape[1]}"
            )
        batch = x.shape[0]
        if batch == 0:
            raise ValueError("cannot invoke with an empty batch")

        if executor is not None:
            out = executor(x)
        else:
            out = fit_plan(self._plans, compiled, batch).run_device(x).copy()

        # The timing is the compiled model's shared record; callers get
        # it with their outputs and a private copy of its breakdown.
        cost = compiled.invoke_cost(batch)
        result = replace(cost, outputs=out, breakdown=dict(cost.breakdown))
        self._charge(batch, result)
        return result

    def invoke_cost(self, batch: int,
                    compiled: CompiledModel | None = None) -> InvokeResult:
        """Charge one invoke without computing outputs.

        The timing-only twin of :meth:`invoke` that every serving
        dispatch charges through (its rows are predicted elsewhere, in
        blocks): the modeled latency depends only on the batch size, so
        the elapsed time, byte counts and device stats here are
        bit-identical to running :meth:`invoke` on a real
        ``(batch, input_dim)`` int8 array.  Returns the compiled
        model's shared, read-only
        :meth:`~repro.edgetpu.compiler.CompiledModel.invoke_cost`
        record (``outputs`` is ``None``).
        """
        compiled = self._resolve(compiled)
        if batch < 1:
            raise ValueError("cannot invoke with an empty batch")
        result = compiled.invoke_cost(batch)
        self._charge(batch, result)
        return result

    def _resolve(self, compiled: CompiledModel | None) -> CompiledModel:
        """The loaded model an invoke runs: the primary when
        ``compiled`` is omitted, else that co-resident model."""
        if compiled is None or compiled is self.compiled:
            if self.compiled is None:
                raise RuntimeError(
                    "no model loaded; call load_model() first"
                )
            return self.compiled
        if id(compiled) not in self._resident:
            raise RuntimeError(
                "model is not resident on this device; call "
                "load_resident() first"
            )
        return compiled

    def _charge_load(self, compiled: CompiledModel) -> float:
        """Add one load of ``compiled`` to the device counters; returns
        its modeled seconds."""
        seconds = compiled.load_seconds()
        self.stats.models_loaded += 1
        self.stats.busy_seconds += seconds
        self.stats.bytes_in += compiled.model.size_bytes()
        return seconds

    def _charge(self, batch: int, result: InvokeResult) -> None:
        """Add one invoke of ``batch`` rows to the device counters."""
        stats = self.stats
        stats.invocations += 1
        stats.samples += batch
        stats.busy_seconds += result.elapsed_s
        stats.bytes_in += result.bytes_in
        stats.bytes_out += result.bytes_out

    def energy_joules(self) -> float:
        """Energy consumed while busy (active power x busy time)."""
        return self.arch.active_power_w * self.stats.busy_seconds
